import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import persuade.game
from persuade import lp as lpmod
from persuade.equilibria import best_response_exact, best_response_fixed_interpretation, local_ne_verify, verify_nash
from persuade.game import (
    CapError,
    FixedMap,
    GameInstance,
    Lexicographic,
    SenderFavoring,
    _sum_last,
    batch_rows,
    ex_ante_utilities,
    ex_ante_utilities_batch,
    ex_ante_utilities_fixed_interpretation,
    exact_payoff_variance,
    induced_action_map,
    joint_signals,
    posterior,
    simulate_mean_payoffs,
    validate_joint_policy,
    validate_policy,
)
from persuade.reference import didactic_game, two_block_equilibrium_policies, two_block_game

from conftest import (
    joint_signal_index,
    product_weights,
    random_game,
    random_profile,
    reference_batch_pass,
    reference_best_actions,
    reference_ex_ante,
)

SF = SenderFavoring()
LEX = Lexicographic()


def one_hot_profile(game, column=0):
    pol = np.zeros((game.n_senders, game.states, game.signals))
    pol[:, :, column] = 1.0
    return pol


def likelihood(game, policy, state, signal):
    """prod_j pi_j(s_j | state): one cell of `product_weights` under a flat prior."""
    return product_weights(np.ones(game.states), policy)[joint_signal_index(signal, game.signals), state]


class TestJointSignalWeights:
    def test_deterministic_policies_matching_signal(self):
        g = didactic_game()
        assert likelihood(g, one_hot_profile(g), 0, (0, 0)) == 1.0

    def test_reference_game_state3_signal_01(self):
        g = two_block_game()
        pol = two_block_equilibrium_policies()
        assert likelihood(g, pol, 3, (0, 1)) == pytest.approx(3 / 7, abs=1e-15)

    def test_uniform_two_senders(self):
        g = didactic_game()
        uniform = np.full((2, 2, 2), 0.5)
        for s in joint_signals(2, 2):
            assert likelihood(g, uniform, 1, tuple(s)) == pytest.approx(0.25)


class TestPosterior:
    def test_uniform_policy_keeps_prior(self):
        g = two_block_game()
        uniform = np.full((2, 4, 4), 0.25)
        post = posterior(g, uniform, (2, 3))
        assert np.allclose(post.mu, g.prior, atol=1e-15)
        assert post.marginal == pytest.approx(4 ** -2)

    def test_reference_game_signal_01(self):
        g = two_block_game()
        post = posterior(g, two_block_equilibrium_policies(), (0, 1))
        assert np.allclose(post.mu, [0, 0, 0.5, 0.5], atol=1e-15)
        assert post.marginal == pytest.approx(0.3)

    def test_single_sender_hand_computed(self):
        g = GameInstance(2, [0.5, 0.5], np.eye(2), (np.eye(2),))
        pol = np.array([[[1.0, 0.0], [0.5, 0.5]]])
        post = posterior(g, pol, (0,))
        assert np.allclose(post.mu, [2 / 3, 1 / 3])

    def test_zero_probability_flagged(self):
        g = didactic_game()
        pol = one_hot_profile(g)
        post = posterior(g, pol, (1, 1))
        assert post.marginal == 0.0 and np.array_equal(post.mu, np.zeros(g.states))


class TestReceiverBestActions:
    def test_didactic_point_mass(self):
        g = didactic_game()
        assert LEX.best_actions(g, np.array([[1.0, 0.0]]))[0] == 0

    def test_reference_tie_favors_second_sender_on_upper_block(self):
        g = two_block_game()
        assert SF.best_actions(g, np.array([[0.0, 0.0, 0.5, 0.5]]))[0] == 2
        assert SF.best_actions(g, np.array([[0.5, 0.5, 0.0, 0.0]]))[0] == 0

    def test_all_zero_utility_lexicographic(self):
        g = GameInstance(2, [0.5, 0.5], np.zeros((2, 3)), (np.zeros((2, 3)),))
        assert LEX.best_actions(g, np.array([[0.3, 0.7]]))[0] == 0

    def test_fixed_map_rejected(self):
        g = didactic_game()
        with pytest.raises(ValueError):
            FixedMap(table=(0, 0, 0, 0)).best_actions(g, np.array([[1.0, 0.0]]))


POSTERIOR_RULES = (LEX, SF)


def assert_same_actions(game, posteriors):
    for tie in POSTERIOR_RULES:
        got = tie.best_actions(game, posteriors)
        want = reference_best_actions(game, tie, posteriors)
        assert got.dtype == want.dtype and np.array_equal(got, want), tie


def negative_dust_profiles(game, count, rng):
    """Profiles with -1e-13 entries, which validation allows: a whole column of
    one sender is dust in every other profile, so joint signals of zero or
    negative marginal still carry nonzero weights, and single dust entries
    elsewhere give live posteriors with negative entries."""
    profiles = rng.dirichlet(np.ones(game.signals), size=(count, game.n_senders, game.states))
    dust = rng.random(profiles.shape) < 0.2
    dust[::2, 0, :, 0] = True
    dust[..., -1] = False       # the last signal takes up the rest of each row
    profiles[dust] = -1e-13
    profiles[..., -1] += 1.0 - profiles.sum(axis=3)
    return profiles


def subnormal_marginal_profiles(game, count, rng):
    """Dirichlet profiles in which every sender's signal 0 has probability about
    1e-310^(1/n) in every state, so joint signal 0 has a marginal below 1e-300."""
    profiles = rng.dirichlet(np.ones(game.signals), size=(count, game.n_senders, game.states))
    profiles[..., 0] = 10.0 ** (-310 / game.n_senders)
    profiles[..., -1] += 1.0 - profiles.sum(axis=3)
    return profiles


def tied_counts(game, profiles):
    """How many actions tie for the receiver's best at each live posterior of `profiles`."""
    q = product_weights(game.prior, profiles)
    marg = q.sum(axis=-1)
    mu = q[marg > 0] / marg[marg > 0][:, None]
    exp_v = mu @ game.receiver_utility
    return np.sum(exp_v >= exp_v.max(axis=1, keepdims=True) - persuade.game.TIE_TOL, axis=1)


def assert_kernel_matches_oracle(game, profiles, rules):
    """Batch labels, one-row labels and induced action maps all agree with
    `reference_batch_pass` and `reference_best_actions` exactly."""
    everyone = (*game.sender_utilities, game.receiver_utility)
    for tie in rules:
        want = reference_batch_pass(game, profiles, tie, everyone)
        assert np.array_equal(ex_ante_utilities_batch(game, profiles, tie), want[:, :-1])
        for prof, row in zip(profiles, want):
            senders, receiver = ex_ante_utilities(game, prof, tie)
            assert np.array_equal(senders, row[:-1]) and receiver == row[-1]
            q = product_weights(game.prior, prof)
            marg = q.sum(axis=1)
            mu = np.where(marg[:, None] > 0, q / np.maximum(marg[:, None], 1e-300), 0.0)
            table = induced_action_map(game, prof, tie)
            assert np.array_equal(table, reference_best_actions(game, tie, mu))


class TestActionMajorDecision:
    """The receiver decision on (states, posteriors) planes and the row-innermost
    kernel built on it equal the posterior-major oracles in conftest exactly:
    same actions, same labels."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 3), states=st.integers(1, 5),
           actions=st.integers(1, 6), rows=st.integers(1, 40))
    def test_random_posteriors(self, seed, n, states, actions, rows):
        r = np.random.default_rng(seed)
        g = random_game(n, states, 2, actions, r)
        assert_same_actions(g, r.dirichlet(np.ones(states), size=rows))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), states=st.integers(1, 4), actions=st.integers(2, 6))
    def test_duplicate_columns_tie_exactly(self, seed, states, actions):
        # every action copies one of two base columns, for the receiver and the
        # senders alike, so receiver values and sender scores tie exactly
        r = np.random.default_rng(seed)
        base = random_game(2, states, 2, 2, r)
        cols = r.integers(0, 2, size=actions)
        g = GameInstance(2, base.prior, base.receiver_utility[:, cols],
                         tuple(u[:, cols] for u in base.sender_utilities))
        mu = np.vstack([np.eye(states), r.dirichlet(np.ones(states), size=20)])
        assert_same_actions(g, mu)

    @settings(max_examples=60, deadline=None)
    @given(top=st.floats(-1e3, 1e3), ulps=st.sampled_from([-1, 0, 1]), tier=st.sampled_from(["value", "score", "mass"]))
    def test_gaps_of_tie_tol_and_one_ulp(self, top, ulps, tier):
        # action 1 holds `top`; action 0 sits at top - TIE_TOL as rounded, or one
        # ulp either side, at the tier under test, and ties all tiers above it
        low = top - persuade.game.TIE_TOL
        low = np.nextafter(low, np.inf) if ulps > 0 else np.nextafter(low, -np.inf) if ulps < 0 else low
        pair = np.array([low, top])
        flat = np.zeros((1, 2))
        if tier == "value":        # one state: the expected value is the utility
            g, mu, ties = GameInstance(2, [1.0], pair[None], (flat,)), np.ones((1, 1)), (LEX, SF)
        elif tier == "score":      # receiver indifferent; one sender's utility is the score
            g, mu, ties = GameInstance(2, [1.0], flat, (pair[None],)), np.ones((1, 1)), (SF,)
        else:                      # point-mass optima on the two states; the posterior is the mass
            g = GameInstance(2, [0.5, 0.5], 0.5 * np.eye(2), (np.zeros((2, 2)),))
            mu, ties = pair[None], (SF,)
        for tie in ties:
            got = tie.best_actions(g, mu)
            assert np.array_equal(got, reference_best_actions(g, tie, mu))
            assert got[0] == (0 if ulps >= 0 else 1)

    def test_one_posterior_and_one_action(self):
        r = np.random.default_rng(5)
        g = random_game(3, 4, 2, 1, r)
        assert_same_actions(g, r.dirichlet(np.ones(4), size=7))
        g = random_game(3, 4, 2, 5, r)
        for k in range(20):
            assert_same_actions(g, r.dirichlet(np.ones(4))[None])
        mu = r.dirichlet(np.ones(4), size=30)
        assert_same_actions(g, mu)
        for tie in POSTERIOR_RULES:    # one posterior is a batch of one row, not a plain row
            with pytest.raises(ValueError, match=re.escape("(M, states) batch, got shape (4,)")):
                tie.best_actions(g, mu[0])

    def test_a_posterior_that_ties_no_action_gets_action_0(self):
        # a NaN posterior ties no action at all, and the pick is then action 0, as argmax gives
        r = np.random.default_rng(3)
        g = random_game(2, 3, 2, 4, r)
        mu = np.vstack([r.dirichlet(np.ones(3), size=3), [np.nan, 0.5, 0.5]])
        for tie in POSTERIOR_RULES:
            got = tie.best_actions(g, mu)
            assert np.array_equal(got, reference_best_actions(g, tie, mu)) and got[-1] == 0

    def test_game_arrays_are_read_only_copies(self):
        # the per-game constants are derived from these arrays, so a caller's
        # later write must neither reach the game nor be possible through it
        r = np.random.default_rng(11)
        base = random_game(2, 3, 2, 4, r)
        prior, v = base.prior.copy(), base.receiver_utility.copy()
        us = tuple(u.copy() for u in base.sender_utilities)
        g = GameInstance(2, prior, v, us)
        prof = random_profile(g, r)
        before = {tie: ex_ante_utilities(g, prof, tie) for tie in (LEX, SF)}
        for arr in (g.prior, g.receiver_utility, *g.sender_utilities):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        prior[:], v[:] = np.eye(3)[0], -v
        for u in us:
            u[:] = r.normal(size=u.shape)
        for tie, (senders, receiver) in before.items():
            again = ex_ante_utilities(g, prof, tie)
            assert np.array_equal(again[0], senders) and again[1] == receiver

    def test_sender_favoring_reads_tie_tol_when_called(self, monkeypatch):
        # both actions tie at mu in value and score; at the point-mass tier,
        # action 0 is optimal on state 1 only within 1e-6, so a TIE_TOL of
        # 1e-5 gives it all the mass and the pick changes from 1 to 0
        p = 1e-6 / (1 + 1e-6)
        g = GameInstance(2, [0.5, 0.5], [[1.0, 0.0], [1.0 - 1e-6, 1.0]], (np.zeros((2, 2)),))
        mu = np.array([[p, 1.0 - p]])
        assert SF.best_actions(g, mu)[0] == 1
        monkeypatch.setattr(persuade.game, "TIE_TOL", 1e-5)
        assert SF.best_actions(g, mu)[0] == 0
        monkeypatch.undo()
        assert SF.best_actions(g, mu)[0] == 1

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 3), states=st.integers(1, 9), signals=st.integers(1, 3),
           actions=st.sampled_from([1, 2, 3, 5, 300]), rows=st.sampled_from([1, 2, 7]),
           kind=st.sampled_from(["dirichlet", "subnormal", "dust"]))
    def test_kernel_branches(self, seed, n, states, signals, actions, rows, kind):
        # one-row and one-action passes, uint8 and intp ranks (300 actions), and
        # marginals below the 1e-300 clamp, dead or positive
        r = np.random.default_rng(seed)
        g = random_game(n, states, signals, actions, r)
        if kind == "subnormal" and signals > 1:
            profiles = subnormal_marginal_profiles(g, rows, r)
            marg = product_weights(g.prior, profiles).sum(axis=-1)
            assert np.any((marg > 0) & (marg < 1e-300))
        elif kind == "dust" and signals > 1:
            profiles = negative_dust_profiles(g, rows, r)
        else:
            profiles = r.dirichlet(np.ones(signals), size=(rows, n, states))
        assert_kernel_matches_oracle(g, profiles, POSTERIOR_RULES)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), states=st.integers(2, 4), actions=st.integers(2, 6))
    def test_sender_favoring_on_exact_ties(self, seed, states, actions):
        # duplicated utility columns tie receiver values and sender scores exactly
        # at every posterior; one-hot rows on some profiles add point-mass
        # posteriors, where the copies of the receiver's best action tie
        r = np.random.default_rng(seed)
        base = random_game(2, states, 3, 2, r)
        cols = np.r_[0, 1, r.integers(0, 2, size=actions - 2)]
        g = GameInstance(3, base.prior, base.receiver_utility[:, cols],
                         tuple(u[:, cols] for u in base.sender_utilities))
        profiles = r.dirichlet(np.ones(3), size=(6, 2, states))
        profiles[::2, 0] = np.eye(3)[r.integers(0, 3, size=states)]
        assert_kernel_matches_oracle(g, profiles, (SF,))

    def test_sender_favoring_on_the_two_block_game(self, rng):
        # the equilibrium profile's posteriors tie several actions; Dirichlet rows tie none,
        # so the tie tiers run on some posteriors of the pass and not on others
        g = two_block_game()
        eq = two_block_equilibrium_policies()
        profiles = np.stack([eq, *rng.dirichlet(np.ones(4), size=(3, 2, 4)), 0.5 * (eq + random_profile(g, rng))])
        counts = tied_counts(g, profiles)
        assert np.any(counts == 1) and np.any(counts > 1)
        assert_kernel_matches_oracle(g, profiles, (SF,))

    def test_overflowing_scores_take_every_tier(self):
        # action 0 is the receiver's only best at the posterior, but the senders'
        # summed utility for it overflows to -inf, and so does its score: no action
        # leads the score tier, and the point-mass tier picks the more likely of the
        # states' best actions 1 and 2
        v = np.array([[0.6, 1.0, 0.0], [0.6, 0.0, 1.0]])
        u = np.array([[-1e308, 0.0, 0.0]] * 2)
        g = GameInstance(2, [0.5, 0.5], v, (u, u))
        mu = np.array([[0.5, 0.5], [0.45, 0.55]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert SF.best_actions(g, mu).tolist() == reference_best_actions(g, SF, mu).tolist() == [1, 2]
            prof = np.full((2, 2, 2), 0.5)
            assert induced_action_map(g, prof, SF).tolist() == [1, 1, 1, 1]
            assert_kernel_matches_oracle(g, prof[None], (SF,))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 3), actions=st.integers(1, 4))
    def test_kernel_labels_with_negative_dust(self, seed, n, actions):
        r = np.random.default_rng(seed)
        g = random_game(n, 3, 2, actions, r)
        profiles = negative_dust_profiles(g, 9, r)
        assert any(np.any(product_weights(g.prior, p).sum(axis=1) <= 0) for p in profiles)
        everyone = (*g.sender_utilities, g.receiver_utility)
        for tie in POSTERIOR_RULES:
            want = reference_batch_pass(g, profiles, tie, everyone)
            assert np.array_equal(ex_ante_utilities_batch(g, profiles, tie), want[:, :-1])
            for prof, row in zip(profiles, want):
                senders, receiver = ex_ante_utilities(g, prof, tie)
                assert np.array_equal(senders, row[:-1]) and receiver == row[-1]
                q = product_weights(g.prior, prof)
                marg = q.sum(axis=1)
                mu = np.where(marg[:, None] > 0, q / np.maximum(marg[:, None], 1e-300), 0.0)
                assert np.array_equal(induced_action_map(g, prof, tie), reference_best_actions(g, tie, mu))


class TestExAnteUtilities:
    def test_reference_equilibrium_payoffs(self):
        g = two_block_game()
        senders, _ = ex_ante_utilities(g, two_block_equilibrium_policies(), SF)
        assert np.allclose(senders, [0.3, 0.3], atol=1e-12)

    def test_constant_utility_sender(self, rng):
        g = GameInstance(
            2, [0.2, 0.3, 0.5], rng.normal(size=(3, 3)), (np.full((3, 3), 1.7), rng.normal(size=(3, 3)))
        )
        for _ in range(5):
            senders, _ = ex_ante_utilities(g, random_profile(g, rng), LEX)
            assert senders[0] == pytest.approx(1.7, abs=1e-12)

    def test_term_cap_guard(self):
        g = random_game(8, 4, 8, 3, np.random.default_rng(0))
        with pytest.raises(CapError):
            ex_ante_utilities(g, random_profile(g, np.random.default_rng(1)), LEX)

    def test_term_cap_is_read_when_called(self, monkeypatch):
        g = random_game(2, 2, 2, 2, np.random.default_rng(0))      # 2 * 2^2 = 8 terms
        prof = random_profile(g, np.random.default_rng(1))
        monkeypatch.setattr(persuade.game, "DEFAULT_TERM_CAP", 7)

        def no_lp(*args, **kwargs):
            raise AssertionError("an LP was solved before the term cap was checked")

        monkeypatch.setattr(lpmod, "solve_lps", no_lp)
        calls = (
            lambda: best_response_exact(g, 0, [prof[1]], LEX),
            lambda: best_response_fixed_interpretation(g, 0, [prof[1]], FixedMap((0, 1, 1, 0))),
            lambda: ex_ante_utilities(g, prof, LEX),
            lambda: ex_ante_utilities_batch(g, prof[None], LEX),
            lambda: induced_action_map(g, prof, LEX),
            lambda: verify_nash(g, prof, LEX),
            lambda: local_ne_verify(g, prof, LEX, 0.005, 0, samples=1),
        )
        for call in calls:
            with pytest.raises(CapError, match="8 terms, above the cap of 7"):
                call()

    def test_batch_passes_do_not_change_results(self, rng, monkeypatch):
        g = random_game(3, 3, 2, 3, rng)
        profiles = np.stack([random_profile(g, rng) for _ in range(11)])
        # zero the small entries of every other profile, so some joint
        # signals are unreachable there
        sparse = np.where(profiles < 0.3, 0.0, profiles)
        profiles[::2] = (sparse / sparse.sum(axis=3, keepdims=True))[::2]
        assert any(np.any(product_weights(g.prior, p).sum(axis=1) == 0) for p in profiles)
        # a table that changes when the senders are reordered, so the
        # joint-signal order is checked too
        fixed = FixedMap(tuple(k // 3 % g.actions for k in range(g.n_joint_signals)))
        for tie in (LEX, SF, fixed):
            whole = ex_ante_utilities_batch(g, profiles, tie)
            # passes of 4 rows, of 3 rows (the cells of 3.5 rows), and of 1 row
            # (a single row holds more cells than a pass)
            per_row = g.states * g.n_joint_signals
            for rows, cells in ((4, 4 * per_row), (3, 7 * per_row // 2), (1, per_row - 1)):
                monkeypatch.setattr(persuade.game, "BATCH_CELLS", cells)
                assert batch_rows(g) == rows
                assert np.array_equal(ex_ante_utilities_batch(g, profiles, tie), whole)
            monkeypatch.undo()
            for prof, got in zip(profiles, whole):
                senders, receiver = ex_ante_utilities(g, prof, tie)
                assert np.array_equal(got, senders)
                want_senders, want_receiver = reference_ex_ante(g, prof, tie)
                assert np.allclose(senders, want_senders, atol=1e-12)
                assert receiver == pytest.approx(want_receiver, abs=1e-12)

    def test_batch_checks_shape(self, rng):
        g = random_game(2, 2, 2, 2, rng)
        expected = re.escape("(rows, n_senders, states, signals) = (rows, 2, 2, 2)")
        # three signals, three senders, one profile without its row axis
        for bad in (np.full((3, 2, 2, 3), 1 / 3), np.full((3, 3, 2, 2), 0.5), np.full((2, 2, 2), 0.5)):
            with pytest.raises(ValueError, match=expected):
                ex_ante_utilities_batch(g, bad, LEX)
        # the entries are not checked: an all-NaN row labels as 0.0
        assert ex_ante_utilities_batch(g, np.full((1, 2, 2, 2), np.nan), LEX).tolist() == [[0.0, 0.0]]

    def test_passes_over_every_sum_path(self, rng, monkeypatch):
        # rows of 4 (summed slice by slice), 8 and 12 (added pairwise by `_sum_last`) and
        # 108 products (numpy's own sum), in passes of 3 rows and a last pass of one row
        # (numpy's own sum), with dead joint signals, under both posterior rules and a
        # FixedMap: bit for bit against the oracle
        sum_last = persuade.game._sum_last
        seen = []

        def recording(a):
            seen.append((a.shape[-1], a.flags.c_contiguous))
            return sum_last(a)

        monkeypatch.setattr(persuade.game, "_sum_last", recording)
        for n, states, signals in ((1, 2, 2), (2, 2, 2), (2, 3, 2), (3, 4, 3)):
            g = random_game(n, states, signals, 3, rng)
            per_row = g.states * g.n_joint_signals
            monkeypatch.setattr(persuade.game, "BATCH_CELLS", 3 * per_row)
            profiles = np.stack([random_profile(g, rng) for _ in range(10)])
            # every other profile never sends sender 0's signal 0 or its other small entries
            sparse = np.where(profiles < 0.3, 0.0, profiles)
            sparse[:, 0, :, 0] = 0.0
            sparse[:, 0, :, 1] += sparse[:, 0].sum(axis=2) == 0
            profiles[::2] = (sparse / sparse.sum(axis=3, keepdims=True))[::2]
            dead = [np.any(product_weights(g.prior, p).sum(axis=1) == 0) for p in profiles]
            assert dead == [True, False] * 5
            everyone = (*g.sender_utilities, g.receiver_utility)
            fixed = FixedMap(tuple(k // 2 % g.actions for k in range(g.n_joint_signals)))
            for tie in (*POSTERIOR_RULES, fixed):
                want = reference_batch_pass(g, profiles, tie, everyone)
                seen.clear()
                assert np.array_equal(ex_ante_utilities_batch(g, profiles, tie), want[:, :-1])
                assert seen == [(per_row, True)] * (4 * n)    # passes of 3, 3, 3 and 1 rows
                for prof, row in zip(profiles, want):
                    senders, receiver = ex_ante_utilities(g, prof, tie)
                    assert np.array_equal(senders, row[:-1]) and receiver == row[-1]

    def test_a_row_larger_than_a_pass_runs_alone(self, rng):
        # a game with more states x joint signals than `BATCH_CELLS` still takes one row per pass
        signals = math.isqrt(persuade.game.BATCH_CELLS // 64) + 1
        g = random_game(2, 64, signals, 3, rng)
        assert g.states * g.n_joint_signals > persuade.game.BATCH_CELLS and batch_rows(g) == 1
        profiles = np.stack([random_profile(g, rng) for _ in range(3)])
        for tie in (LEX, SF):
            batch = ex_ante_utilities_batch(g, profiles, tie)
            for prof, got in zip(profiles, batch):
                assert np.array_equal(got, ex_ante_utilities(g, prof, tie)[0])
                assert np.allclose(got, reference_ex_ante(g, prof, tie)[0], atol=1e-12)


class TestSumLast:
    """`_sum_last` is `np.sum(a, axis=-1)` bit for bit, NaN where it is NaN.

    Which NaN comes out where NaNs of both signs meet is left open by IEEE 754,
    and numpy's own loops pick by layout, so a NaN's sign bit is not compared.
    """

    SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, np.inf, -np.inf, np.nan, -np.nan, 1.0, 1e308])

    def assert_bitwise(self, a):
        got, want = _sum_last(a), np.sum(a, axis=-1)
        assert got.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matches_numpy_bitwise(self, rng):
        # numpy adds a C-contiguous array's rows pairwise from 8 entries on, and the
        # other layouts' strided rows one entry at a time, so each layout is checked
        # on both sides of the 8-15 entries that `_sum_last` adds pairwise itself
        for n in range(1, 21):
            for _ in range(10):
                a = rng.normal(size=(40, 3, n)) * 10.0 ** rng.uniform(-300, 300, (40, 3, n))
                special = rng.random(a.shape) < 0.3
                a[special] = rng.choice(self.SPECIAL, size=int(special.sum()))
                self.assert_bitwise(a)
                self.assert_bitwise(np.asfortranarray(a))
                self.assert_bitwise(a[::-2, :, ::-1])
                self.assert_bitwise(a[::2])                  # contiguous rows, strided between them
                self.assert_bitwise(np.moveaxis(a, 0, -1))   # a 40-long strided axis
                self.assert_bitwise(np.moveaxis(np.moveaxis(a, -1, 0).copy(), 0, -1))   # an n-long one
                self.assert_bitwise(np.repeat(a, 2, axis=-1)[..., ::2])

    def test_signed_zeros(self):
        for n in range(1, 21):
            self.assert_bitwise(np.full((2, n), -0.0))
            self.assert_bitwise(np.where(np.arange(n) % 2 == 0, -0.0, 0.0)[None, :])

    def test_zero_length_axis(self):
        self.assert_bitwise(np.empty((3, 0)))


class TestFixedInterpretation:
    def test_matches_argmax_when_interp_agrees(self, rng):
        for _ in range(10):
            g = random_game(2, 3, 2, 3, rng)
            pol = random_profile(g, rng)
            table = induced_action_map(g, pol, LEX)
            fixed = ex_ante_utilities_fixed_interpretation(g, pol, FixedMap(tuple(table)))
            exact, _ = ex_ante_utilities(g, pol, LEX)
            assert np.allclose(fixed, exact, atol=1e-12)

    def test_constant_interpretation_hand_sum(self):
        g = GameInstance(
            2, [0.3, 0.7],
            np.zeros((2, 2)),
            (np.array([[2.0, 0.0], [4.0, 0.0]]), np.array([[1.0, 0.0], [1.0, 0.0]])),
        )
        interp = FixedMap(table=(0, 0, 0, 0))
        got = ex_ante_utilities_fixed_interpretation(g, random_profile(g, np.random.default_rng(2)), interp)
        # action 0 everywhere: sum_w prior(w) * u_j(w, 0)
        assert np.allclose(got, [0.3 * 2 + 0.7 * 4, 1.0], atol=1e-12)

    def test_induced_map_is_the_table_for_any_profile(self, rng, monkeypatch):
        g = random_game(2, 3, 2, 3, rng)
        fixed = FixedMap(tuple(int(a) for a in rng.integers(0, g.actions, g.n_joint_signals)))
        # a term cap below states * S^n: no weights are formed, so no CapError
        monkeypatch.setattr(persuade.game, "DEFAULT_TERM_CAP", 1)
        for _ in range(3):
            table = induced_action_map(g, random_profile(g, rng), fixed)
            assert table.tolist() == list(fixed.table)
            table[0] = -1    # the caller's own copy
        monkeypatch.undo()
        assert induced_action_map(g, random_profile(g, rng), fixed).tolist() == list(fixed.table)

    def test_incomplete_map_rejected(self):
        g = didactic_game()
        with pytest.raises(ValueError):
            ex_ante_utilities_fixed_interpretation(g, one_hot_profile(g), FixedMap(table=(0, 1)))

    @pytest.mark.parametrize("table", [(-1,) * 16, (4,) * 16, (0, 1)], ids=["negative", "too-large", "short"])
    def test_bad_table_rejected_on_every_path(self, table):
        g = two_block_game()
        pol = two_block_equilibrium_policies()
        with pytest.raises(ValueError, match="interpretation"):
            ex_ante_utilities_fixed_interpretation(g, pol, FixedMap(table))
        with pytest.raises(ValueError, match="interpretation"):
            ex_ante_utilities_batch(g, pol[None], FixedMap(table))
        for other in (ex_ante_utilities, induced_action_map, exact_payoff_variance):
            with pytest.raises(ValueError, match="interpretation"):
                other(g, pol, FixedMap(table))
        with pytest.raises(ValueError, match="interpretation"):
            best_response_fixed_interpretation(g, 0, [pol[1]], FixedMap(table))
        with pytest.raises(ValueError, match="interpretation"):
            verify_nash(g, pol, FixedMap(table))


class TestSampling:
    def test_monte_carlo_near_exact_reference(self):
        g = two_block_game()
        pol = two_block_equilibrium_policies()
        means = simulate_mean_payoffs(g, pol, SF, 100_000, rng=np.random.default_rng(7))
        assert np.all(np.abs(means - 0.3) < 0.01)

    def test_monte_carlo_within_3_sigma(self, rng):
        count = 20_000
        for k in range(4):
            g = random_game(2, 3, 2, 3, rng)
            pol = random_profile(g, rng)
            exact, _ = ex_ante_utilities(g, pol, LEX)
            var = exact_payoff_variance(g, pol, LEX)
            means = simulate_mean_payoffs(g, pol, LEX, count, rng=np.random.default_rng(k))
            assert np.all(np.abs(means - exact) <= 3 * np.sqrt(var / count) + 1e-12)

    def test_variance_is_never_negative(self, rng):
        # E[u^2] - E[u]^2 rounds below zero for many senders of constant
        # utility; the clamp turns exactly those into 0.0 and leaves the rest
        clamped = 0
        for _ in range(300):
            g = random_game(2, 3, 2, 3, rng)
            const = np.full((3, 3), 0.7)
            g = GameInstance(2, g.prior, g.receiver_utility, (const, g.sender_utilities[1]))
            pol = random_profile(g, rng)
            var = exact_payoff_variance(g, pol, LEX)
            assert np.all(var >= 0)
            # the same kernel columns as the variance reads: E[u] and E[u^2] of sender 0
            moments = GameInstance(2, g.prior, g.receiver_utility, (const, const**2))
            mean, square = ex_ante_utilities(moments, pol, LEX)[0]
            if square - mean**2 < 0:
                clamped += 1
                assert var[0] == 0.0
            else:
                assert var[0] == square - mean**2 <= 1e-15
        assert clamped > 0


class TestInvariants:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_bayesian_plausibility(self, seed):
        r = np.random.default_rng(seed)
        g = random_game(2, int(r.integers(2, 5)), int(r.integers(2, 4)), int(r.integers(2, 5)), r)
        pol = random_profile(g, r)
        q = product_weights(g.prior, pol)
        assert np.allclose(q.sum(axis=0), g.prior, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_signal_relabeling_invariance(self, seed):
        r = np.random.default_rng(seed)
        g = random_game(2, 3, 3, 3, r)
        pol = random_profile(g, r)
        perm = r.permutation(g.signals)
        permuted = pol.copy()
        permuted[0] = pol[0][:, perm]
        u0, _ = ex_ante_utilities(g, pol, LEX)
        u1, _ = ex_ante_utilities(g, permuted, LEX)
        assert np.allclose(u0, u1, atol=1e-12)
        q0 = product_weights(g.prior, pol)
        q1 = product_weights(g.prior, permuted)
        pairs0 = sorted((round(float(m), 12), tuple(np.round(row / m, 10))) for row, m in
                        zip(q0, q0.sum(axis=1)) if m > 0)
        pairs1 = sorted((round(float(m), 12), tuple(np.round(row / m, 10))) for row, m in
                        zip(q1, q1.sum(axis=1)) if m > 0)
        assert pairs0 == pairs1

    def test_discontinuity_located_by_line_scan(self):
        # scan sender 1's state-0 row against a fixed opponent and bisect the
        # utility jump down to a 1e-6 window
        g = didactic_game()

        def u2(x):
            pol = np.array([[[x, 1 - x], [0.5, 0.5]], [[0.7, 0.3], [0.5, 0.5]]])
            return ex_ante_utilities(g, pol, LEX)[0][1]

        xs = np.linspace(0.0, 1.0, 201)
        vals = np.array([u2(x) for x in xs])
        k = int(np.argmax(np.abs(np.diff(vals))))
        lo, hi = xs[k], xs[k + 1]
        assert abs(vals[k + 1] - vals[k]) > 0.1
        for _ in range(60):
            mid = (lo + hi) / 2
            if abs(u2(mid) - u2(lo)) > abs(u2(hi) - u2(mid)):
                hi = mid
            else:
                lo = mid
        assert hi - lo < 1e-6 and abs(u2(hi) - u2(lo)) > 0.1

    def test_piecewise_linear_within_constant_action_region(self, rng):
        found = 0
        for _ in range(200):
            g = random_game(2, 2, 2, 2, rng)
            base = random_profile(g, rng)
            other = random_profile(g, rng)
            blends = []
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
                pol = base.copy()
                pol[0] = (1 - lam) * other[0] + lam * base[0]
                blends.append(pol)
            maps = [tuple(induced_action_map(g, b, LEX)) for b in blends]
            if len(set(maps)) != 1:
                continue
            found += 1
            utils = [ex_ante_utilities(g, b, LEX)[0][0] for b in blends]
            for lam, u in zip((0.25, 0.5, 0.75), utils[1:4]):
                assert u == pytest.approx((1 - lam) * utils[0] + lam * utils[4], abs=1e-9)
            if found >= 20:
                break
        assert found >= 5


class TestValidation:
    def test_policy_shape_and_rows(self):
        g = didactic_game()
        with pytest.raises(ValueError):
            validate_policy(g, np.ones((2, 3)))
        with pytest.raises(ValueError):
            validate_policy(g, np.array([[0.7, 0.7], [0.5, 0.5]]))

    def test_joint_policy_errors_match_per_sender_checks(self, rng):
        def per_sender(game, policies):
            policies = list(policies)
            if len(policies) != game.n_senders:
                raise ValueError(f"expected {game.n_senders} policies, got {len(policies)}")
            return np.stack([validate_policy(game, p) for p in policies])

        g = random_game(3, 3, 2, 2, rng)
        good = random_profile(g, rng)
        wide = np.full((3, 2), 0.5)
        wide[0] = [1.5, -0.5]
        off = np.full((3, 2), 0.4)
        cases = [good, list(good), good[:2], [good[0], good[1], np.ones((2, 3)) / 3],
                 [good[0], good[1], good[2], good[0]]]
        for j, k in [(0, 1), (1, 0), (2, 2), (1, 2)]:      # first bad sender decides the message
            bad = good.copy()
            bad[j], bad[k] = wide, off
            cases.append(bad)
        for case in cases:
            try:
                expected = per_sender(g, case)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    validate_joint_policy(g, case)
            else:
                out = validate_joint_policy(g, case)
                assert np.array_equal(out, expected)
                assert not any(np.shares_memory(out, p) for p in (good, *case))

    def test_prior_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GameInstance(2, [0.6, 0.6], np.eye(2), (np.eye(2),))

    @pytest.mark.parametrize("prior", [[np.nan, 1.0], [np.nan, np.nan]])
    def test_nan_prior_rejected(self, prior):
        with pytest.raises(ValueError, match="prior"):
            GameInstance(2, prior, np.eye(2), (np.eye(2), np.eye(2)))

    @pytest.mark.parametrize("entry", [(0, 0), (1, 1)])
    def test_nan_policy_rejected(self, entry):
        # NaN fails every comparison, so each check must be phrased to fail on it
        g = didactic_game()
        pol = one_hot_profile(g)
        pol[entry[0], entry[1]] = [np.nan, 1.0]
        with pytest.raises(ValueError, match="entries"):
            validate_policy(g, pol[entry[0]])
        for stack in (pol, list(pol)):
            with pytest.raises(ValueError, match="entries"):
                validate_joint_policy(g, stack)
        with pytest.raises(ValueError, match="entries"):
            ex_ante_utilities(g, pol, LEX)

    def test_shapes_must_match_dims(self):
        # the arrays must agree with each other: no stated size can disagree with them
        with pytest.raises(ValueError, match="receiver_utility"):
            GameInstance(2, [0.5, 0.5], np.eye(3), (np.eye(2),))
        with pytest.raises(ValueError, match="sender utility shape"):
            GameInstance(2, [0.5, 0.5], np.eye(2), (np.eye(2), np.ones((2, 3))))
        with pytest.raises(ValueError, match="prior must be a non-empty vector"):
            GameInstance(2, [[0.5, 0.5]], np.eye(2), (np.eye(2),))
        with pytest.raises(ValueError, match="prior must be a non-empty vector"):
            GameInstance(2, [], np.zeros((0, 2)), (np.zeros((0, 2)),))
        with pytest.raises(ValueError, match="receiver_utility"):
            GameInstance(2, [0.5, 0.5], [1.0, 0.0], ([1.0, 0.0],))
        with pytest.raises(ValueError, match="receiver_utility"):
            GameInstance(2, [0.5, 0.5], np.zeros((2, 0)), (np.zeros((2, 0)),))
        with pytest.raises(ValueError, match="at least one sender"):
            GameInstance(2, [0.5, 0.5], np.eye(2), ())
        with pytest.raises(ValueError, match="signals"):
            GameInstance(0, [0.5, 0.5], np.eye(2), (np.eye(2),))

    @pytest.mark.parametrize("signals", [2.5, 2.0, True, np.True_, "2", None])
    def test_signals_must_be_an_integer(self, signals):
        with pytest.raises(ValueError, match="signals must be an integer"):
            GameInstance(signals, [0.5, 0.5], np.eye(2), (np.eye(2),))

    def test_numpy_integer_signals_read_as_int(self):
        g = GameInstance(np.int64(3), [0.5, 0.5], np.eye(2), (np.eye(2),))
        assert g.signals == 3 and type(g.signals) is int

    def test_sizes_are_read_from_the_arrays(self):
        g = GameInstance(4, [0.2, 0.3, 0.5], np.zeros((3, 5)), (np.zeros((3, 5)),) * 2)
        assert (g.n_senders, g.states, g.signals, g.actions, g.n_joint_signals) == (2, 3, 4, 5, 16)
        for name in ("n_senders", "states", "actions"):
            with pytest.raises(AttributeError):
                setattr(g, name, 7)
            assert type(getattr(g, name)) is int
        for name in ("n_senders", "states", "actions"):    # no compatibility path for the old keywords
            with pytest.raises(TypeError, match=name):
                GameInstance(signals=2, prior=[1.0], receiver_utility=[[0.0]], sender_utilities=([[0.0]],),
                             **{name: 1})
