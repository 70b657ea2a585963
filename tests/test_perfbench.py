"""Smoke runs of the committed benchmark harness against the package."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def smoke_run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--smoke", "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_evaluate_local_smoke_run(trace):
    smoke_run("evaluate-local", trace)


@pytest.mark.parametrize("trace", [0, 1])
def test_learn_smoke_run(trace):
    # every op's check re-evaluates each results.json row against the true game
    smoke_run("learn", trace)


@pytest.mark.parametrize("trace", [0, 1])
def test_exact_smoke_run(trace):
    # drives both best responses through the CLI (bimatrix-fixedmap and
    # public-best-response families) and, traced, their wrappers
    smoke_run("exact", trace)
