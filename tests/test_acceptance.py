"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.  The two learning criteria (7 and 8) train real
networks and dominate the runtime.
"""

import functools
import time

import numpy as np

from persuade.equilibria import (
    EPSILON_LOCAL,
    EXACT,
    best_response_exact,
    best_response_fixed_interpretation,
    full_revelation_profile,
    verify_nash,
)
from persuade.game import (
    Lexicographic,
    SenderFavoring,
    ex_ante_utilities,
    ex_ante_utilities_fixed_interpretation,
    exact_payoff_variance,
    simulate_mean_payoffs,
)
from persuade.learning import EgConfig, TrainConfig, find_local_ne, mse, sample_dataset, split_dataset, train
from persuade.lp import OPTIMAL, solve_lp
from persuade.neural import backward, flatten_params, init_params, stack_params
from persuade.reductions import (
    BimatrixGame,
    PublicPersuasionInstance,
    bimatrix_to_persuasion,
    public_to_best_response,
    reduced_action_values,
    reduced_action_values_closed_form,
)
from persuade.reference import didactic_game, two_block_equilibrium_policies, two_block_game
from persuade.rng import substream
from persuade.scenarios import SyntheticSpec, synthetic_instance

from conftest import (
    enumerate_basic_optima,
    grid_best_response,
    product_weights,
    random_game,
    random_profile,
    support_enumeration_2x2,
    unique_optimum_game,
)
from test_lp import random_lp
from test_neural import fd_gradients, rel_err, stable_point

LEX = Lexicographic()
SF = SenderFavoring()


def criterion(n, budget=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
                dt = time.perf_counter() - t0
                if budget is not None and dt >= budget:
                    raise AssertionError(f"runtime {dt:.1f}s exceeds the {budget}s budget")
            except BaseException:
                print(f"\ncriterion {n}: FAIL")
                raise
            print(f"\ncriterion {n}: PASS ({dt:.1f}s)")

        return wrapper

    return deco


@criterion(1, budget=1.0)
def test_criterion_1_reference_game_reproduction():
    game = two_block_game()
    profile = two_block_equilibrium_policies()
    senders, _ = ex_ante_utilities(game, profile, SF)
    assert np.all(np.abs(senders - 0.3) < 1e-9)
    assert verify_nash(game, profile, SF).verdict == EXACT
    revealing, _ = full_revelation_profile(game)
    reveal_utils, _ = ex_ante_utilities(game, revealing, SF)
    assert np.all(np.abs(reveal_utils - 0.15) < 1e-9)


@criterion(2, budget=300.0)
def test_criterion_2_revealing_profile_is_equilibrium_on_50_games():
    for k in range(50):
        game = unique_optimum_game(seed=9000 + k)
        profile, _ = full_revelation_profile(game)
        report = verify_nash(game, profile, LEX)
        assert report.verdict == EXACT, f"game {k} refuted with gap {report.max_improvement}"


@criterion(3)
def test_criterion_3_bayes_and_monte_carlo():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        game = random_game(n, int(rng.integers(2, 5)), int(rng.integers(2, 4)), int(rng.integers(2, 5)), rng)
        profile = random_profile(game, rng)
        q = product_weights(game.prior, profile)
        assert np.all(np.abs(q.sum(axis=0) - game.prior) < 1e-12)

    count = 100_000
    for k in range(20):
        gen = substream(3200 + k, "mc-game")
        game = random_game(2, 3, 2, 3, gen)
        profile = random_profile(game, gen)
        exact, _ = ex_ante_utilities(game, profile, LEX)
        sigma = np.sqrt(exact_payoff_variance(game, profile, LEX) / count)
        means = simulate_mean_payoffs(game, profile, LEX, count, rng=substream(3200 + k, "mc-draws"))
        assert np.all(np.abs(means - exact) <= 3 * sigma + 1e-12), f"game {k} outside 3 sigma"


@criterion(4, budget=600.0)
def test_criterion_4_best_response_matches_grid_oracle():
    for trial in range(30):
        gen = substream(4100 + trial, "oracle-game")
        dims = (2, 2, 2, 2) if trial < 15 else (2, 3, 2, 3)
        game = random_game(*dims, gen)
        others = [gen.dirichlet(np.ones(game.signals), size=game.states)]
        br = best_response_exact(game, 0, others, LEX)
        oracle = grid_best_response(game, 0, others, LEX, step=0.01)
        assert br.utility >= oracle - 1e-9, f"trial {trial}: fell below the grid"
        assert abs(br.utility - oracle) <= 0.02, f"trial {trial}: gap {br.utility - oracle:.4f}"


@criterion(5)
def test_criterion_5_reduction_identities():
    rng = np.random.default_rng(51)
    pub = PublicPersuasionInstance(
        prior=rng.dirichlet(np.ones(4)),
        gaps=rng.uniform(-1, 1, (3, 4)),
        u_plus=rng.uniform(0, 1, (3, 4)),
        u_minus=rng.uniform(0, 1, (3, 4)),
    )
    game, pi2 = public_to_best_response(pub)
    assert game.receiver_utility.shape == (pub.states + pub.k, 2 * pub.k + 1)
    for _ in range(100):
        x = rng.dirichlet(np.ones(game.states))
        t_j = int(rng.integers(pub.k))
        direct = reduced_action_values(game, pi2, x, t_j)
        closed = reduced_action_values_closed_form(pub, x, t_j)
        assert np.all(np.abs(direct - closed) < 1e-12)

    bg = BimatrixGame(u1=rng.integers(0, 2, (3, 3)), u2=rng.integers(0, 2, (3, 3)))
    pgame, amap = bimatrix_to_persuasion(bg)
    for _ in range(100):
        pol = rng.dirichlet(np.ones(3), size=(2, 2))
        got = ex_ante_utilities_fixed_interpretation(pgame, pol, amap)
        expect = 0.5 * np.array([pol[0, 1] @ bg.u1 @ pol[1, 1], pol[0, 1] @ bg.u2 @ pol[1, 1]])
        assert np.all(np.abs(got - expect) < 1e-12)

    # oracle equilibria of random 0/1 games map to persuasion equilibria
    checked = 0
    for k in range(20):
        gen = substream(5300 + k, "bimatrix")
        bg = BimatrixGame(u1=gen.integers(0, 2, (2, 2)), u2=gen.integers(0, 2, (2, 2)))
        pgame, amap = bimatrix_to_persuasion(bg)
        for x, y in support_enumeration_2x2(bg.u1, bg.u2):
            pol = np.stack([np.stack([np.full(2, 0.5), x]), np.stack([np.full(2, 0.5), y])])
            base = ex_ante_utilities_fixed_interpretation(pgame, pol, amap)
            for j, mix in enumerate((x, y)):
                br = best_response_fixed_interpretation(pgame, j, [pol[1 - j]], amap)
                assert br.feasible
                assert br.utility <= base[j] + 1e-9
            checked += 1
    assert checked >= 20
    # negative control: a non-equilibrium mix is improvable
    bg = BimatrixGame(u1=np.eye(2), u2=np.eye(2))
    pgame, amap = bimatrix_to_persuasion(bg)
    pol = np.zeros((2, 2, 2))
    pol[0, :, 0] = 1.0
    pol[1, :, 1] = 1.0          # miscoordinated pure profiles
    base = ex_ante_utilities_fixed_interpretation(pgame, pol, amap)
    br = best_response_fixed_interpretation(pgame, 0, [pol[1]], amap)
    assert br.utility > base[0] + 0.4


@criterion(6)
def test_criterion_6_gradient_suite():
    rng = np.random.default_rng(61)
    for arch, dims, kwargs in (
        ("relu", [4, 6, 6, 1], {}),
        ("delu", [4, 6, 6, 1], dict(aux_hidden=(6,))),
        ("dnl", [4, 6, 6, 6, 1], dict(hyper_hidden=(6,))),
    ):
        params = init_params(arch, dims, substream(61, arch), **kwargs)
        for point in range(100):
            x = stable_point(params, 4, rng, margin=2e-4)
            grads = backward(params, x[None], np.ones_like)
            num_p, num_x = fd_gradients(params, x, h=1e-5)
            assert rel_err(flatten_params(grads.params), num_p).max() < 1e-4, f"{arch} parameters"
            assert rel_err(grads.input[0], num_x).max() < 1e-4, f"{arch} inputs"


@criterion(7, budget=900.0)
def test_criterion_7_expressivity_ordering():
    game = didactic_game()
    dataset = sample_dataset(game, 50_000, LEX, seed=101)
    train_split, val_split = split_dataset(dataset, seed=101)
    cfg = TrainConfig(epochs=50, batch_size=512, learning_rate=0.01, seed=202)
    held_out = {}
    for arch in ("relu", "delu", "dnl"):
        stack = stack_params([
            init_params(
                arch, [8, 24, 24, 24, 1], substream(202, f"init:{arch}:{j}"), hyper_hidden=(24,), aux_hidden=(24, 24)
            )
            for j in range(game.n_senders)
        ])
        stack, _ = train(stack, train_split, cfg)
        held_out[arch] = float(np.mean(mse(stack, val_split.inputs, val_split.utilities)))
    print(f"\nheld-out mse: {held_out}")
    assert held_out["dnl"] < held_out["delu"], "DNL must beat the pattern-bias baseline"
    assert held_out["dnl"] < held_out["relu"], "DNL must beat the plain ReLU baseline"


@criterion(8, budget=1800.0)
def test_criterion_8_pipeline_yield():
    train_cfg = TrainConfig(epochs=15, batch_size=128, learning_rate=0.01, seed=801)
    eg_cfg = EgConfig(steps=20, learning_rate=0.1, restarts=50, seed=802)
    wins = 0
    for k in range(10):
        game = synthetic_instance(SyntheticSpec(2, 2, 2, 2, seed=8800 + k))
        result = find_local_ne(
            game, train_cfg, eg_cfg, LEX,
            dataset=sample_dataset(game, 6000, LEX, train_cfg.seed),
            eps=0.005, arch="dnl", hidden=(16, 16, 16), hyper_hidden=(12,),
        )
        assert result.report.samples == 1000
        if result.verified:
            assert result.report.verdict == EPSILON_LOCAL
            again = ex_ante_utilities(game, result.policy, LEX)[0]
            assert np.all(np.abs(again - result.report.utilities) < 1e-12)
            wins += 1
    print(f"\nverified local equilibria on {wins}/10 games")
    assert wins >= 8

    game = two_block_game()
    result = find_local_ne(
        game,
        TrainConfig(epochs=15, batch_size=128, learning_rate=0.01, seed=811),
        EgConfig(steps=20, learning_rate=0.1, restarts=50, seed=812),
        SF,
        dataset=sample_dataset(game, 20_000, SF, 811),
        eps=0.005, arch="dnl", hidden=(24, 24, 24), hyper_hidden=(16,),
    )
    welfare = float(ex_ante_utilities(game, result.policy, SF)[0].sum())
    print(f"reference-game welfare {welfare:.4f} (revealing profile pays 0.30)")
    assert welfare >= 0.30 - 1e-9


@criterion(9)
def test_criterion_9_lp_solver_vs_vertex_enumeration():
    rng = np.random.default_rng(91)
    for _ in range(200):
        lp = random_lp(rng)
        result = solve_lp(lp)              # LpFailure here would mean cycling
        assert result.status == OPTIMAL
        oracle = enumerate_basic_optima(lp.c[0], lp.A_ub[0], lp.b_ub[0])
        assert abs(result.value - oracle) < 1e-7
