"""Closed-loop benchmark of the persuade workbench.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 10 --trace 0

One process, one op at a time.  A workload is a fixed set of ops (a
round).  With `--trace 0` rounds run untraced until `--seconds` have
passed (the round under way is finished, so at least one round runs),
and the last line of stdout holds the end-to-end metrics, calibrated
against a reference loop (see calibrate.py).  With `--trace 1` a fixed
number of rounds runs, each op once untraced and once traced
(alternating which goes first), and the last line holds the per-layer
metrics from the traced copies; the gap between the two copies is the
tracing overhead.  `--smoke` shrinks every size so the whole benchmark
checks itself in seconds.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io as stdio
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")

# Shift of the shifted geometric mean.  On `exact` the ops of a few
# milliseconds are mostly CLI start-up and file I/O, run once each, so a
# larger shift keeps their noise from setting the metric; the LP-bound ops
# of 0.1-5 s and the failures charged the limit carry it.
SHIFT_S = {"exact": 0.1, "learn": 0.01, "evaluate-local": 0.01, "evaluate-batch": 0.01}
SETUP_REPS_BEFORE = 3    # set-ups before the measured rounds; after them ...
SETUP_REPS = 6           # ... more, until at least this many ...
SETUP_MIN_S = 2.0        # ... and this much time are spent, up to SETUP_MAX_REPS
SETUP_MAX_REPS = 100
SETUP_EVERY_S = 5.0      # during the measured rounds, one more set-up between ops this often
# Per-op limit.  On `exact` it sits above the slowest candidate drawn (see
# exact_catalogue.json) and below the 45 s the known pivot-cap instance takes.
LIMIT_S = {"exact": 20.0, "learn": 60.0, "evaluate-local": 60.0, "evaluate-batch": 30.0}
TRACE_ROUNDS = {"exact": 1, "learn": 1, "evaluate-local": 4, "evaluate-batch": 4}


class OverLimit(BaseException):
    """Raised inside an op that runs past the per-op limit."""


class _Limit:
    """SIGALRM-based per-op time limit; the op is interrupted where it stands."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False

    def _fire(self, signum, frame):
        if self.armed:
            raise OverLimit

    def __enter__(self):
        self.armed = True
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False


def execute(op, out: str, limit: float) -> dict:
    """Run one op under the limit, then check its output; returns its record."""
    sink = stdio.StringIO()
    failed, outcome, result = True, None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), _Limit(limit):
            result = op.run(out)
    except OverLimit:
        outcome = "over_limit"
    except SystemExit as exc:
        result = 0 if exc.code is None else exc.code
    except KeyboardInterrupt:
        raise
    except Exception as exc:    # the program failed; record it and keep measuring
        outcome = f"exception:{type(exc).__name__}"
    elapsed = time.perf_counter() - start
    if outcome is None:
        if op.codes and result not in op.codes:
            outcome = f"exit:{result}"
        else:
            try:
                outcome = str(op.check(out, result))
                failed = False
            except Exception as exc:
                outcome = f"check:{type(exc).__name__}:{exc}"
    charged = limit if failed else min(elapsed, limit)
    return {"family": op.family, "label": op.label, "seconds": elapsed, "charged": charged,
            "outcome": outcome, "failed": failed, "work": op.work}


# ---------------------------------------------------------------------------
# metrics


def sgm(values, shift: float) -> float:
    """Shifted geometric mean."""
    return math.exp(sum(math.log(v + shift) for v in values) / len(values)) - shift


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def by_family(records) -> dict:
    fams: dict = {}
    for r in records:
        fams.setdefault(r["family"], []).append(r)
    return fams


def op_means(records) -> list:
    """One record per op, charged the mean of its repeats' charged times.

    The machine the benchmark was tuned on switches between a fast and a
    slow mode about 2x apart; the median of repeats jumps from one mode to
    the other as their mix shifts, the mean moves smoothly with the mix.  A failed op runs once and keeps the limit as its charge.
    """
    reps: dict = {}
    for r in records:
        reps.setdefault(r["key"], []).append(r)
    return [rs[0] | {"charged": statistics.fmean(r["charged"] for r in rs)} for rs in reps.values()]


def end_to_end(workload: str, records, setup_s: float) -> tuple[dict, dict]:
    """(metrics for the result line, workload-specific named metrics).

    `op_time_s` is the typical seconds per op: each op's mean repeat,
    then per family the shifted geometric mean of those, then the geometric
    mean over families.  Ratios count each op once.
    """
    ops = op_means(records)
    fams = by_family(ops)
    op_time = geomean([sgm([r["charged"] for r in rs], SHIFT_S[workload]) for rs in fams.values()])
    work_rate = geomean([sum(r["work"] for r in rs) / sum(r["charged"] for r in rs) for rs in fams.values()])
    failed_ratio = sum(r["failed"] for r in ops) / len(ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": (setup_s, "s"), "op_time_s": (op_time, "s")}
    named = {"peak_rss_mb": (rss_mb, "MB")}
    if workload == "exact":
        named |= {"exact.verify_sgm_s": (op_time, "s"), "exact.failed_ratio": (failed_ratio, "ratio")}
    elif workload == "learn":
        verified = [r["outcome"].split()[-1].split("/") for r in ops if not r["failed"]]
        named |= {
            "learn.run_p50_s": (statistics.median(r["charged"] for r in ops), "s"),
            "learn.verified_ratio": (sum(int(v) for v, _ in verified) / max(1, sum(int(n) for _, n in verified)), "ratio"),
            "learn.failed_ratio": (failed_ratio, "ratio"),
        }
    elif workload == "evaluate-local":
        named |= {"evaluate.deviations_per_s": (work_rate, "1/s"), "evaluate.failed_ratio": (failed_ratio, "ratio")}
    else:
        named |= {"evaluate.label_rows_per_s": (work_rate, "1/s"), "evaluate.failed_ratio": (failed_ratio, "ratio")}
    return metrics, named


PER_LAYER = [
    ("lp.solves", "count"), ("lp.infeasible", "count"), ("lp.raised", "count"), ("lp.self_s", "s"),
    ("lp.solve_us_p50", "us"), ("lp.tableau_cells", "count"),
    ("equilibria.best_response.calls", "count"), ("equilibria.best_response.self_s", "s"),
    ("equilibria.best_response.feasible_maps", "count"), ("equilibria.best_response.lp_yield", "ratio"),
    ("equilibria.verify_nash.calls", "count"), ("equilibria.verify_nash.self_s", "s"),
    ("equilibria.local_verify.calls", "count"), ("equilibria.local_verify.deviations", "count"),
    ("equilibria.local_verify.self_s", "s"),
    ("equilibria.perturb.calls", "count"), ("equilibria.perturb.self_s", "s"),
    ("game.ex_ante.calls", "count"), ("game.ex_ante.self_s", "s"),
    ("game.fixed_interp.calls", "count"), ("game.fixed_interp.self_s", "s"),
    ("game.induced_map.calls", "count"), ("game.induced_map.self_s", "s"),
    ("game.batch.calls", "count"), ("game.batch.rows", "count"), ("game.batch.self_s", "s"),
    ("game.batch.rows_per_s", "1/s"),
    ("neural.forward.calls", "count"), ("neural.forward.rows", "count"), ("neural.forward.self_s", "s"),
    ("neural.backward.calls", "count"), ("neural.backward.rows", "count"), ("neural.backward.self_s", "s"),
    ("learning.sample.self_s", "s"), ("learning.train.calls", "count"), ("learning.train.epochs", "count"),
    ("learning.train.self_s", "s"), ("learning.extragradient.calls", "count"),
    ("learning.extragradient.self_s", "s"), ("learning.candidates_checked", "count"),
    ("learning.verify_yield", "ratio"),
    ("io.calls", "count"), ("io.self_s", "s"), ("scenarios.generate.self_s", "s"),
    ("reductions.build.self_s", "s"), ("cli.calls", "count"), ("cli.self_s", "s"),
    ("trace.spans", "count"), ("trace.op_s", "s"), ("trace.overhead", "ratio"),
]


def per_layer(tracer, traced_s: float, untraced_s: float) -> dict:
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    lp_durations = sorted(tracer.durations["lp"])
    values = {
        "lp.solves": calls["lp"],
        "lp.infeasible": counts["lp.infeasible"],
        "lp.raised": tracer.raised[("lp", "LpFailure")],
        "lp.solve_us_p50": statistics.median(lp_durations) * 1e6 if lp_durations else 0.0,
        "lp.tableau_cells": counts["lp.tableau_cells"],
        "equilibria.best_response.feasible_maps": counts["equilibria.best_response.feasible_maps"],
        "equilibria.best_response.lp_yield": (
            counts["equilibria.best_response.feasible_maps"] / calls["lp"] if calls["lp"] else 0.0
        ),
        "equilibria.local_verify.deviations": counts["equilibria.local_verify.deviations"],
        "game.batch.rows": counts["game.batch.rows"],
        "game.batch.rows_per_s": counts["game.batch.rows"] / self_s["game.batch"] if self_s["game.batch"] else 0.0,
        "neural.forward.rows": counts["neural.forward.rows"],
        "neural.backward.rows": counts["neural.backward.rows"],
        "learning.train.epochs": counts["learning.train.epochs"],
        "learning.candidates_checked": counts["learning.candidates_checked"],
        "learning.verify_yield": (
            counts["learning.candidates_verified"] / counts["learning.candidates_checked"]
            if counts["learning.candidates_checked"] else 0.0
        ),
        "trace.spans": len(tracer.span_name),
        "trace.op_s": traced_s,
        "trace.overhead": traced_s / untraced_s - 1.0,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in values:
            value = values[name]
        elif name.endswith(".calls"):
            value = calls[name[: -len(".calls")]]
        elif name.endswith(".self_s"):
            value = self_s[name[: -len(".self_s")]]
        else:
            raise KeyError(name)
        out[name] = (value, unit)
    return out


# ---------------------------------------------------------------------------
# environment


def git_sha() -> str:
    """HEAD of the checkout; "unknown" when the checkout is not a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"      # git would otherwise report a repository above the checkout
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def blas_info(np) -> dict:
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name", "unknown"), blas.get("version", "unknown")
    except Exception:
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = int(fn())
                    return info
    except OSError:
        pass
    return info


# ---------------------------------------------------------------------------
# main


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    import_start = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for a quick self-check")
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "persuade", "__init__.py")):
        print(f"error: no persuade sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.environ.pop("PERSUADE_CACHE", None)       # learn must sample every time
    import numpy as np
    import persuade
    import bench_ops
    import bench_trace
    import calibrate

    if not os.path.abspath(persuade.__file__).startswith(src + os.sep):
        print(f"error: persuade imported from {persuade.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in bench_ops.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(bench_ops.WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - import_start

    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    limit = LIMIT_S[args.workload]
    tracer = bench_trace.Tracer() if args.trace else None
    cal = calibrate.Calibrator()
    try:
        def set_up(rep: int, keep: bool = True):
            """Inputs plus one warm-up op, timed; returns (workload, its directory) or deletes them."""
            d = os.path.join(run_dir, f"setup{rep}")
            os.makedirs(d)
            cal.sample()
            if tracer is not None:
                tracer.install()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdio.StringIO()):
                wl = bench_ops.build(args.workload, d, args.seed, args.smoke)
            warm = execute(wl.warmup, os.path.join(d, "warmup.out"), limit)
            setups.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.uninstall()
            if warm["failed"]:
                raise RuntimeError(f"warm-up op failed: {warm['outcome']}")
            if not keep:
                shutil.rmtree(d)
            return wl, d

        # Set-ups run before, during (between ops) and after the measured
        # rounds, so a slow spell of the machine at the start does not set
        # their median; the last one before the rounds provides the workload.
        setups: list = []
        for rep in range(1 if tracer is not None else SETUP_REPS_BEFORE):
            if rep:
                shutil.rmtree(d)
            wl, d = set_up(rep)
        out_dir = os.path.join(d, "out")
        os.makedirs(out_dir)
        ops = wl.ops()

        records, traced_s, untraced_s, rounds = [], 0.0, 0.0, 0
        if tracer is None:
            # Whole rounds only, so every run measures the same ops.  An op
            # that failed would fail again, so later rounds skip it.
            deadline = time.perf_counter() + args.seconds
            last_setup = time.perf_counter()
            failed_keys: set = set()
            while True:
                for key, op in enumerate(ops):
                    if key not in failed_keys:
                        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                            set_up(len(setups), keep=False)
                            last_setup = time.perf_counter()
                        cal.between_ops()
                        records.append(execute(op, os.path.join(out_dir, op.family), limit) | {"key": key})
                        if records[-1]["failed"]:
                            failed_keys.add(key)
                rounds += 1
                if len(failed_keys) == len(ops) or time.perf_counter() >= deadline:
                    break
        else:
            rounds = max(1, TRACE_ROUNDS[args.workload] // (4 if args.smoke else 1))
            for i in range(rounds * len(ops)):
                op = ops[i % len(ops)]
                out = os.path.join(out_dir, op.family)
                copies = []
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    if traced:
                        tracer.op_id = i
                        mark = tracer.mark()
                        tracer.install()
                    rec = execute(op, out, limit)
                    if traced:
                        tracer.uninstall()
                        if rec["outcome"] == "over_limit":
                            tracer.rollback(mark)
                        records.append(rec)
                    copies.append((traced, rec))
                    if rec["outcome"] == "over_limit":
                        break       # the other copy would take the whole limit too
                if not any(traced for traced, _ in copies):
                    records.append(copies[0][1])      # the traced copy was skipped
                # an op cut by the limit measures the limit, not the tracer
                if not any(r["outcome"] == "over_limit" for _, r in copies):
                    traced_s += sum(r["seconds"] for t, r in copies if t)
                    untraced_s += sum(r["seconds"] for t, r in copies if not t)
            os.makedirs(WORK, exist_ok=True)
            tracer.save(os.path.join(WORK, f"trace-{args.workload}.npz"))
        while tracer is None and len(setups) < SETUP_MAX_REPS and (
            len(setups) < SETUP_REPS or sum(setups) < SETUP_MIN_S
        ):
            set_up(len(setups), keep=False)
        cal.sample(3)
        setup_s = statistics.median(setups)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(r["failed"] for r in records)
    correct = not any(r["outcome"].startswith("check:") for r in records)
    summary: dict = {}
    for r in records:
        key = f"{r['family']}: {r['outcome'] if r['failed'] else 'ok'}"
        summary[key] = summary.get(key, 0) + 1
    kinds: dict = {}
    for r in records:
        if r["failed"]:
            kind = r["outcome"].split(":")[0]
            kinds[kind] = kinds.get(kind, 0) + 1
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "git_sha": git_sha(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas_info(np), "op_limit_s": limit,
        "import_s": import_s, "setup_reps_s": setups, "ops_per_round": len(ops), "rounds": rounds,
        "reference_s": {"samples": len(cal.samples), "median": statistics.median(cal.samples),
                        "min": min(cal.samples), "max": max(cal.samples)},
    }
    print("# env " + json.dumps(env, sort_keys=True))
    print("# outcomes " + json.dumps(summary, sort_keys=True))
    print("# failures by kind " + json.dumps({k: kinds.get(k, 0) for k in ("over_limit", "exception", "exit", "check")}))
    means = by_family(op_means(records)) if tracer is None else {}
    for family, rs in by_family(records).items():
        line = (f"# family {family}: {len(rs)} ops, {sum(r['failed'] for r in rs)} failed, "
                f"median {statistics.median(r['seconds'] for r in rs):.4f} s, max {max(r['seconds'] for r in rs):.3f} s")
        if family in means:
            ms = [r["charged"] for r in means[family]]
            line += f"; {len(ms)} distinct, sgm of their means {sgm(ms, SHIFT_S[args.workload]):.4f} s"
        print(line)
    for r in records:
        if r["failed"]:
            print(f"# failed op {r['label'] or r['family']}: {r['outcome']} after {r['seconds']:.3f} s")
    if tracer is None:
        metrics, named = end_to_end(args.workload, records, setup_s)
        # the result line holds the calibrated times (see calibrate.py)
        factor = cal.factor()
        named |= {f"{k}.uncalibrated": v for k, v in metrics.items()} | {"calibration.factor": (factor, "ratio")}
        metrics = {k: (value * factor, unit) for k, (value, unit) in metrics.items()}
        for name, (value, unit) in {**named, **metrics}.items():
            print(f"# metric {name} = {value!r} {unit}")
    else:
        metrics = per_layer(tracer, traced_s, untraced_s)
        op_total = sum(tracer.op_self_s.values())
        for name, (value, unit) in metrics.items():
            print(f"# metric {name} = {value!r} {unit}")
        for name, value in sorted(tracer.op_self_s.items(), key=lambda kv: -kv[1]):
            print(f"# share {name}.self_s = {value / op_total:.3f} of traced op time (ops cut by the time limit left out)")
    emit(correct, len(records), failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
