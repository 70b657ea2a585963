"""Build `exact_catalogue.json`: every `exact` candidate run once, with its LP count.

    python3 perfbench/make_catalogue.py

The `exact` workload draws its ops from this catalogue (see README.md).
Each candidate is run once under the `exact` per-op limit while its LP
solves are counted; at run time the count, the outcome and the time put
it in a stratum or leave it out (`bench_ops.lp_stratum`).
Run it again only when the candidates in `bench_ops.EXACT_FAMILIES` change:
the catalogue fixes which ops the benchmark measures, so it must stay the
same between the builds being compared.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import os
import platform
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import bench_ops  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402


def write_catalogue(path: str, doc: dict) -> None:
    """The catalogue as JSON with one entry per line."""
    head = {k: v for k, v in doc.items() if k != "entries"}
    lines = [json.dumps(e) for e in doc["entries"]]
    with open(path, "w") as fh:
        fh.write(json.dumps(head)[:-1] + ', "entries": [\n' + ",\n".join(lines) + "\n]}\n")


def main() -> int:
    limit = run.LIMIT_S["exact"]
    work = os.path.join(ROOT, ".perfbench", "catalogue")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    entries = []
    try:
        for family, (_, count) in bench_ops.EXACT_FAMILIES.items():
            for k in range(count):
                with contextlib.redirect_stdout(stdio.StringIO()):
                    op = bench_ops.exact_candidate(family, k, work)
                with bench_trace.LpCounter() as cap:
                    rec = run.execute(op, os.path.join(work, "out"), limit)
                entry = {"family": family, "k": k, "lp_solves": cap.solves, "seconds": round(rec["seconds"], 4),
                         "outcome": rec["outcome"] if rec["failed"] else "ok:" + rec["outcome"]}
                entries.append(entry)
                print(json.dumps(entry), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {
        "limit_s": limit,
        "built_on": {"python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count(),
                     "date": time.strftime("%Y-%m-%d")},
        "entries": entries,
    }
    write_catalogue(bench_ops.CATALOGUE, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
