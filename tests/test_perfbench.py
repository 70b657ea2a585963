"""Smoke runs of the committed benchmark harness against the package."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from persuade.game import Lexicographic
from persuade import learning
from persuade.learning import EgConfig, TrainConfig, mse, sample_dataset, train
from persuade.neural import init_params, stack_params
from persuade.reference import didactic_game
from persuade.rng import substream

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
def test_evaluate_batch_smoke_run(trace):
    # every op's check compares sampled label rows with a fresh exact evaluation
    smoke_run("evaluate-batch", trace)


@pytest.mark.parametrize("trace", [0, 1])
def test_learn_smoke_run(trace):
    # every op's check re-evaluates each results.json row against the true game
    smoke_run("learn", trace)


@pytest.mark.parametrize("trace", [0, 1])
def test_exact_smoke_run(trace):
    # drives both best responses through the CLI (bimatrix-fixedmap and
    # public-best-response families) and, traced, their wrappers
    smoke_run("exact", trace)


@pytest.mark.parametrize("arch", ["relu", "delu", "dnl"])
def test_learning_calls_the_traced_network_entry_points(arch, monkeypatch):
    # the per-layer `neural` metrics count calls of the module-level
    # `forward`/`backward`; a learning path that bypasses them reads as zero
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    from bench_trace import Tracer

    ds = sample_dataset(didactic_game(), 300, Lexicographic(), seed=3)
    params = stack_params(
        [init_params(arch, [8, 8, 8, 8, 1], substream(3, f"init:{j}"), hyper_hidden=(6,), aux_hidden=(6,))
         for j in range(2)]
    )
    tracer = Tracer()
    tracer.install()
    try:
        trained, _ = train(params, ds, TrainConfig(epochs=3, batch_size=64, seed=3))
        mse(trained, ds.inputs, ds.utilities)
        learning.extragradient(trained, np.zeros((3, 2, 2, 2)), EgConfig(steps=4, restarts=3, seed=3))
    finally:
        tracer.uninstall()
    # 3 epochs of 5 batches (4 x 64 + 44 rows), each one call for both senders; then 3 restarts
    # in one extra-gradient call: 4 steps x 2 evaluations, each one call over both senders and
    # all 3 restarts
    assert tracer.calls["learning.extragradient"] == 1
    assert tracer.calls["neural.backward"] == 3 * 5 + 4 * 2
    assert tracer.counts["neural.backward.rows"] == 3 * 300 + 4 * 2 * 3
    assert tracer.calls["neural.forward"] == 1
    assert tracer.counts["neural.forward.rows"] == 300


def test_one_traced_best_response_call_per_best_response(monkeypatch):
    # `equilibria.best_response.calls` counts best responses, so a FixedMap
    # best response must not pass through both public best-response functions
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    from bench_trace import Tracer

    from persuade import equilibria
    from persuade.reductions import BimatrixGame, bimatrix_to_persuasion

    g, interp = bimatrix_to_persuasion(BimatrixGame(np.eye(2), np.eye(2)[::-1]))
    profile = np.full((2, 2, 2), 0.5)
    tracer = Tracer()
    tracer.install()
    try:
        equilibria.verify_nash(g, profile, interp)
        equilibria.best_response_exact(g, 0, [profile[1]], interp)
        equilibria.best_response_fixed_interpretation(g, 0, [profile[1]], interp)
    finally:
        tracer.uninstall()
    assert tracer.calls["equilibria.best_response"] == 4
    assert tracer.calls["equilibria.verify_nash"] == 1
