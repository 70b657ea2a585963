import itertools
import math
import re

import numpy as np
import pytest

import persuade.equilibria
from persuade import lp as lpmod
from persuade.equilibria import (
    DEFAULT_NASH_TOL,
    EPSILON_LOCAL,
    EXACT,
    REFUTED,
    PreconditionError,
    _IcLp,
    _opponent_contexts,
    _producible_actions,
    best_response_exact,
    best_response_fixed_interpretation,
    full_revelation_profile,
    local_ne_sample_count,
    local_ne_verify,
    perturb_policy,
    verify_nash,
)
from persuade.game import (
    CapError,
    FixedMap,
    GameInstance,
    Lexicographic,
    SenderFavoring,
    ex_ante_utilities,
    ex_ante_utilities_fixed_interpretation,
    induced_action_map,
    joint_signal_index,
    joint_signals,
)
from persuade.reference import didactic_game, two_block_equilibrium_policies, two_block_game
from persuade.reductions import BimatrixGame, bimatrix_to_persuasion
from persuade.rng import substream
from persuade.scenarios import SyntheticSpec, product_ads_instance, quality_ads_instance, synthetic_instance

from conftest import (
    grid_best_response,
    lp_arrays,
    product_weights,
    random_game,
    random_profile,
    reference_best_actions,
    reference_best_response_exact,
    reference_best_response_fixed_interpretation,
    reference_ic_lp,
    reference_local_ne_verify,
    reference_perturb,
    reference_sequential_best_response,
    stack_lps,
    unique_optimum_game,
    unstack,
)

SF = SenderFavoring()
LEX = Lexicographic()


class TestBestResponseExact:
    def test_reference_game_no_profitable_deviation(self):
        g = two_block_game()
        pol = two_block_equilibrium_policies()
        br = best_response_exact(g, 0, [pol[1]], SF, incumbent=pol[0])
        assert br.utility == pytest.approx(0.3, abs=1e-9)
        br = best_response_exact(g, 1, [pol[0]], SF, incumbent=pol[1])
        assert br.utility == pytest.approx(0.3, abs=1e-9)

    def test_didactic_vs_uniform_matches_grid(self):
        g = didactic_game()
        others = [np.full((2, 2), 0.5)]
        br = best_response_exact(g, 0, others, LEX)
        oracle = grid_best_response(g, 0, others, LEX)
        assert br.utility >= oracle - 1e-9
        assert br.utility == pytest.approx(oracle, abs=0.02)

    def test_constant_utility_sender(self, rng):
        g = GameInstance(
            2, [0.5, 0.5], rng.normal(size=(2, 2)),
            (np.full((2, 2), 0.4), rng.normal(size=(2, 2))),
        )
        br = best_response_exact(g, 0, [random_profile(g, rng)[1]], LEX)
        assert br.utility == pytest.approx(0.4, abs=1e-9)

    def test_utility_matches_fixed_interpretation_of_returned_pair(self, rng):
        for _ in range(10):
            g = random_game(2, 2, 2, 3, rng)
            others = [random_profile(g, rng)[1]]
            br = best_response_exact(g, 0, others, LEX)
            prof = np.stack([br.policy, others[0]])
            pair_value = ex_ante_utilities_fixed_interpretation(g, prof, FixedMap(tuple(br.action_map)))[0]
            assert br.utility == pytest.approx(pair_value, abs=1e-9)

    def test_dominates_random_policies_and_incumbent(self, rng):
        g = random_game(2, 3, 2, 3, rng)
        incumbent = random_profile(g, rng)
        others = [incumbent[1]]
        base = ex_ante_utilities(g, incumbent, LEX)[0][0]
        br = best_response_exact(g, 0, others, LEX, incumbent=incumbent[0])
        assert br.utility >= base - 1e-9
        for _ in range(100):
            pol = random_profile(g, rng)
            pol[1] = others[0]
            assert br.utility >= ex_ante_utilities(g, pol, LEX)[0][0] - 1e-9

    def test_fixed_map_is_the_fixed_interpretation_best_response(self):
        # bimatrix reductions are always feasible, random tables mostly not
        feasible = infeasible = 0
        for k in range(20):
            rng = substream(k, "fixed-map-best-response")
            if k % 2:
                g = random_game(2, 2, 2, 3, rng)
                interp = FixedMap(tuple(int(a) for a in rng.integers(0, g.actions, g.n_joint_signals)))
            else:
                m = 2 + k % 3
                bim = BimatrixGame(rng.integers(0, 2, (m, m)).astype(float), rng.integers(0, 2, (m, m)).astype(float))
                g, interp = bimatrix_to_persuasion(bim)
            prof = random_profile(g, rng)
            for j in range(g.n_senders):
                others = [prof[1 - j]]
                got = best_response_exact(g, j, others, interp, incumbent=prof[j])
                want = best_response_fixed_interpretation(g, j, others, interp)
                for name in ("feasible", "utility", "feasible_maps"):
                    assert getattr(got, name) == getattr(want, name)
                assert np.array_equal(got.action_map, want.action_map)
                if want.feasible:
                    assert np.array_equal(got.policy, want.policy)
                    feasible += 1
                else:
                    assert got.policy is None
                    infeasible += 1
        assert feasible >= 10 and infeasible >= 3


def _count_lps(monkeypatch):
    """Count the LPs solved from here on, per LP through `solve_lps` (which
    `solve_lp` goes through too): all of them, and the liveness LPs among
    them."""
    counts = {"all": 0, "liveness": 0}
    solve = lpmod.solve_lps

    def counted(lps, max_pivots=lpmod.MAX_PIVOTS):
        progs = unstack(lps)
        counts["all"] += len(progs)
        counts["liveness"] += sum(_is_liveness_lp(lp) for lp in progs)
        return solve(lps, max_pivots)

    monkeypatch.setattr(lpmod, "solve_lps", counted)
    return counts


def _is_liveness_lp(lp):
    # one combo's cone: a zero objective and the single row "total mass one"
    return lp.A_eq.shape[1] == 1 and not np.any(lp.c)


class TestBestResponseMatchesMultisetReference:
    """Subsets of live combos give the multiset enumeration's best response."""

    SHAPES = ((2, 2, 2, 2), (2, 3, 2, 3), (3, 3, 2, 3), (2, 3, 3, 3))

    def test_agrees_with_reference(self, monkeypatch):
        for shape in self.SHAPES:
            rng = substream(sum(shape), "subset-enumeration")
            for tie in (LEX, SF):
                g = random_game(*shape, rng)
                prof = random_profile(g, rng)
                refs = {}

                def reference_br(game, j, others, tie, *, incumbent=None):
                    key = (j, incumbent is None)
                    if key not in refs:
                        refs[key] = reference_best_response_exact(game, j, others, tie, incumbent=incumbent)
                    return refs[key]

                others = list(prof[1:])
                for incumbent in (None, prof[0]):
                    got = best_response_exact(g, 0, others, tie, incumbent=incumbent)
                    ref = reference_br(g, 0, others, tie, incumbent=incumbent)
                    assert got.utility == pytest.approx(ref.utility, abs=1e-9)
                    achieved = ex_ante_utilities_fixed_interpretation(
                        g, np.stack([got.policy, *others]), FixedMap(tuple(got.action_map)))[0]
                    assert achieved == pytest.approx(got.utility, abs=1e-9)
                rep = verify_nash(g, prof, tie)
                monkeypatch.setattr(persuade.equilibria, "best_response_exact", reference_br)
                assert verify_nash(g, prof, tie).verdict == rep.verdict
                monkeypatch.undo()

    def test_heavy_best_response_solves_fewer_lps(self, monkeypatch):
        g = synthetic_instance(SyntheticSpec(3, 3, 2, 3, 6))
        prof = random_profile(g, substream(6, "heavy-best-response"))
        counts = _count_lps(monkeypatch)
        ref = reference_best_response_exact(g, 0, list(prof[1:]), LEX, incumbent=prof[0])
        ref_lps = counts["all"]
        counts["all"] = 0
        got = best_response_exact(g, 0, list(prof[1:]), LEX, incumbent=prof[0])
        assert got.utility == pytest.approx(ref.utility, abs=1e-9)
        assert ref_lps > 200
        assert counts["all"] < ref_lps / 2

    def test_map_cap_counts_subsets_of_live_combos(self, monkeypatch):
        g = synthetic_instance(SyntheticSpec(3, 3, 2, 3, 6))
        prof = random_profile(g, substream(6, "heavy-best-response"))
        others = list(prof[1:])
        n_combos = 3 ** 4                              # every action producible in each of 4 contexts
        monkeypatch.setattr(persuade.equilibria, "DEFAULT_MAP_CAP", n_combos)
        with pytest.raises(CapError, match=r"subsets of \d+ live combos") as exc:
            best_response_exact(g, 0, others, LEX)
        n_subsets, n_live = map(int, re.match(r"(\d+) subsets of (\d+) live", str(exc.value)).groups())
        assert n_subsets == sum(math.comb(n_live, r) for r in range(1, min(g.signals, n_live) + 1))
        counts = _count_lps(monkeypatch)
        monkeypatch.setattr(persuade.equilibria, "DEFAULT_MAP_CAP", n_subsets)
        best_response_exact(g, 0, others, LEX)
        assert counts["liveness"] == n_combos
        assert n_live < n_combos                     # some combos are dead and not counted
        assert counts["all"] - counts["liveness"] <= 2 * n_subsets
        monkeypatch.setattr(persuade.equilibria, "DEFAULT_MAP_CAP", n_subsets - 1)
        with pytest.raises(CapError):
            best_response_exact(g, 0, others, LEX)

    def test_failed_liveness_lp_keeps_the_combo(self, monkeypatch):
        g = synthetic_instance(SyntheticSpec(3, 3, 2, 3, 6))
        prof = random_profile(g, substream(6, "heavy-best-response"))
        others = list(prof[1:])
        counts = _count_lps(monkeypatch)
        expect = best_response_exact(g, 0, others, LEX, incumbent=prof[0])
        normal = dict(counts)
        solve = lpmod.solve_lps
        failed = []

        def fail_liveness(lps, max_pivots=lpmod.MAX_PIVOTS):
            # each liveness LP fails without being solved; the others are solved and counted
            progs = unstack(lps)
            out = [lpmod.LpFailure("simplex exceeded 0 pivots") for _ in progs]
            rest = [k for k, lp in enumerate(progs) if not _is_liveness_lp(lp)]
            failed.extend(lp for lp in progs if _is_liveness_lp(lp))
            if rest:
                for k, res in zip(rest, solve(stack_lps([progs[k] for k in rest]), max_pivots)):
                    out[k] = res
            return out

        monkeypatch.setattr(lpmod, "solve_lps", fail_liveness)
        counts.update(all=0, liveness=0)
        got = best_response_exact(g, 0, others, LEX, incumbent=prof[0])
        assert got.utility == pytest.approx(expect.utility, abs=1e-9)
        assert len(failed) == normal["liveness"] > 0
        # every combo kept, dead ones too: more subset LPs, the same answer
        assert counts["all"] > normal["all"] - normal["liveness"]


def _assert_same_best_response(got, want):
    """Bit for bit in policy, utility, action map and strict point; the
    pruned, blocked search reaches at most as many feasible maps."""
    assert got.policy.tobytes() == want.policy.tobytes()
    assert got.utility == want.utility
    assert np.array_equal(got.action_map, want.action_map)
    assert (got.strict_point is None) == (want.strict_point is None)
    if want.strict_point is not None:
        assert got.strict_point.tobytes() == want.strict_point.tobytes()
    assert got.feasible_maps <= want.feasible_maps


def _outcome_or_failure(best_response, *args, **kwargs):
    try:
        return best_response(*args, **kwargs)
    except lpmod.LpFailure as exc:
        return str(exc)


class _Reads(dict):
    """A dict that records the keys read through it."""

    def __init__(self, items, reads):
        super().__init__(items)
        self.reads = reads

    def __getitem__(self, key):
        self.reads.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        if key in self:
            self.reads.add(key)
        return super().get(key, default)


class TestBestResponseMatchesSequentialReference:
    """Stacked blocks of subset LPs and superset pruning give the sequential
    loop's best response (`reference_sequential_best_response`), bit for bit."""

    SHAPES = ((2, 2, 2, 2), (2, 3, 2, 3), (3, 3, 2, 3), (2, 3, 3, 3))

    def test_stacked_ic_lps_match_the_reference_builder(self):
        g = synthetic_instance(SyntheticSpec(2, 3, 3, 3, 6))
        others, W, _ = _opponent_contexts(g, 0, [random_profile(g, substream(6, "heavy-best-response"))[1]])
        combos = list(itertools.product(*[_producible_actions(g, row, LEX) for row in W]))
        ic = _IcLp(g, 0, W, combos)
        rng = substream(6, "ic-lp-stacks")
        for r in (1, 2, 3):
            assignments = [tuple(sorted(rng.choice(len(combos), r, replace=False).tolist())) for _ in range(20)]
            groups = {}
            for a in assignments:
                groups.setdefault(tuple(ic.counts[k] for k in a), []).append(a)
            for group in groups.values():
                for with_slack in (False, True):
                    lps = unstack(ic.lps(group, with_slack))
                    for k, a in enumerate(group):
                        want = lp_arrays(reference_ic_lp(ic, a, with_slack))
                        assert all(x.shape == y.shape and x.tobytes() == y.tobytes()
                                   for x, y in zip(lp_arrays(lps[k]), want))

    def test_random_games(self):
        for shape in self.SHAPES:
            rng = substream(sum(shape), "sequential-best-response")
            for tie in (LEX, SF):
                g = random_game(*shape, rng)
                prof = random_profile(g, rng)
                for incumbent in (None, prof[0]):
                    got = best_response_exact(g, 0, list(prof[1:]), tie, incumbent=incumbent)
                    want = reference_sequential_best_response(g, 0, list(prof[1:]), tie, incumbent=incumbent)
                    _assert_same_best_response(got, want)

    def test_superset_pruning_skips_feasible_maps(self):
        pruned = 0
        for seed in (0, 6):
            g = synthetic_instance(SyntheticSpec(2, 3, 3, 3, seed))
            prof = random_profile(g, substream(seed, "heavy-best-response"))
            for tie in (LEX, SF):
                for incumbent in (None, prof[0]):
                    got = best_response_exact(g, 0, [prof[1]], tie, incumbent=incumbent)
                    want = reference_sequential_best_response(g, 0, [prof[1]], tie, incumbent=incumbent)
                    _assert_same_best_response(got, want)
                    pruned += want.feasible_maps - got.feasible_maps
        assert pruned > 0

    @pytest.mark.parametrize("speculative_pivots", [persuade.equilibria.SPECULATIVE_PIVOTS, 0])
    def test_same_lp_failure(self, monkeypatch, speculative_pivots):
        # badly scaled synthetic games, where the simplex fails certification
        monkeypatch.setattr(persuade.equilibria, "SPECULATIVE_PIVOTS", speculative_pivots)
        messages = set()
        for seed in (1, 2, 4):
            g = synthetic_instance(SyntheticSpec(2, 4, 3, 4, seed))
            prof = substream(seed, "failing-best-response").dirichlet(np.ones(g.signals), size=(2, g.states))
            for tie in (LEX, SF):
                for incumbent in (None, prof[0]):
                    want = _outcome_or_failure(reference_sequential_best_response, g, 0, [prof[1]], tie,
                                               incumbent=incumbent)
                    got = _outcome_or_failure(best_response_exact, g, 0, [prof[1]], tie, incumbent=incumbent)
                    assert isinstance(want, str) and got == want
                    messages.add(want.split()[0])
        assert messages == {"equality", "inequality", "negative"}

    def test_speculative_lp_over_its_pivot_budget_is_solved_again(self, monkeypatch):
        # with no pivot allowed ahead of its turn, a speculative LP fails
        # unless it needs none; each one that is read is solved again as the
        # first LP of a block, and the best response is the same
        blocks = []
        solve = _IcLp.solve

        def counted(self, assignments):
            blocks.append(len(assignments))
            return solve(self, assignments)

        monkeypatch.setattr(_IcLp, "solve", counted)
        for seed in (0, 6):
            g = synthetic_instance(SyntheticSpec(2, 3, 3, 3, seed))
            prof = random_profile(g, substream(seed, "heavy-best-response"))
            for tie in (LEX, SF):
                want = reference_sequential_best_response(g, 0, [prof[1]], tie)
                for cap in (persuade.equilibria.SPECULATIVE_PIVOTS, 0):
                    monkeypatch.setattr(persuade.equilibria, "SPECULATIVE_PIVOTS", cap)
                    blocks.clear()
                    _assert_same_best_response(best_response_exact(g, 0, [prof[1]], tie), want)
                    if cap:
                        normal = len(blocks)
                assert len(blocks) > 2 * normal

    def test_failure_in_a_dropped_speculative_lp_is_not_raised(self, monkeypatch):
        # a block's results that are never read (the LP lies past the break,
        # or a superset solved earlier in the block prunes it) are dropped,
        # failures included
        solve = _IcLp.solve
        past_the_break = 0
        for shape, seed in (((2, 2, 3, 3), 3), ((2, 2, 3, 3), 5), ((2, 3, 3, 3), 6)):
            g = synthetic_instance(SyntheticSpec(*shape, seed))
            prof = random_profile(g, substream(seed, "speculative"))
            blocks, reads = [], set()

            def recording(self, assignments):
                out = solve(self, assignments)
                blocks.append(list(out))
                return _Reads(out, reads)

            monkeypatch.setattr(_IcLp, "solve", recording)
            want = best_response_exact(g, 0, [prof[1]], LEX)
            dropped = {a for block in blocks for a in block if a not in reads}
            past_the_break += sum(a not in reads for a in blocks[-1])

            def failing(self, assignments):
                out = solve(self, assignments)
                out.update((a, lpmod.LpFailure("injected")) for a in dropped if a in out)
                return out

            monkeypatch.setattr(_IcLp, "solve", failing)
            _assert_same_best_response(best_response_exact(g, 0, [prof[1]], LEX), want)
            monkeypatch.undo()
            assert dropped
        assert past_the_break > 0


class TestOpponentContexts:
    """`W` and `joint` against the Kronecker-product oracle and joint-signal tuples."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("dead", [False, True], ids=["all-live", "dead-contexts"])
    def test_matches_kronecker_oracle(self, n, dead):
        rng = substream(n, "opponent-contexts")
        for _ in range(3):
            g = random_game(n, 3, 3, 2, rng)
            prof = random_profile(g, rng)
            if dead:    # no sender ever sends signal 1, so every context naming it has weight 0
                prof[:, :, 1] = 0.0
                prof /= prof.sum(axis=2, keepdims=True)
            for sender in range(n):
                others = [prof[k] for k in range(n) if k != sender]
                _, W, joint = _opponent_contexts(g, sender, others)
                want = product_weights(g.prior, np.reshape(others, (n - 1, g.states, g.signals)))
                ctx = joint_signals(n - 1, g.signals) if n > 1 else np.zeros((1, 0), dtype=int)
                keep = want.max(axis=1) > 0
                assert keep.all() != (dead and n > 1)
                want_joint = [[joint_signal_index((*c[:sender], s, *c[sender:]), g.signals) for s in range(g.signals)]
                              for c in ctx[keep]]
                assert W.shape == want[keep].shape and W.tobytes() == np.ascontiguousarray(want[keep]).tobytes()
                assert np.array_equal(joint, np.array(want_joint, dtype=int).reshape(-1, g.signals))


def _grid(k: int, steps: int) -> np.ndarray:
    """Every point of the k-simplex whose coordinates are multiples of 1/steps."""
    pts = [c for c in itertools.product(range(steps + 1), repeat=k - 1) if sum(c) <= steps]
    return np.array([[*c, steps - sum(c)] for c in pts], dtype=float) / steps


class TestProducibleActions:
    """`_producible_actions` against the rule's own picks over the face, found
    without it: on a grid over the face, and at the pairwise indifference
    points of a two-state face."""

    @staticmethod
    def _cases(rng):
        """Random small games, with real or small-integer utilities (the latter tie a lot),
        each with weight rows on faces of one, two and three states."""
        for trial in range(80):
            states, actions = int(rng.integers(3, 5)), int(rng.integers(2, 6))
            if trial % 2:
                g = GameInstance(2, rng.dirichlet(np.ones(states)), rng.integers(-2, 3, (states, actions)),
                                 tuple(rng.integers(-2, 3, (states, actions)) for _ in range(2)))
            else:
                g = random_game(2, states, 2, actions, rng)
            for size in (1, 2, 3):
                face = np.sort(rng.choice(states, size=size, replace=False))
                row = np.zeros(states)
                row[face] = rng.uniform(0.1, 1.0, size)
                yield g, face, row

    @staticmethod
    def _picks(g, tie, face, points) -> set:
        mu = np.zeros((len(points), g.states))
        mu[:, face] = points
        return set(reference_best_actions(g, tie, mu).tolist())

    @pytest.mark.parametrize("tie", [LEX, SF], ids=["lex", "sf"])
    def test_every_pick_on_the_face_is_returned(self, tie):
        rng = substream(1, "producible-actions:grid")
        for g, face, row in self._cases(rng):
            got = _producible_actions(g, row, tie)
            assert list(got) == sorted(set(got))
            steps = {1: 1, 2: 2000, 3: 60}[face.size]
            assert self._picks(g, tie, face, _grid(face.size, steps)) <= set(got)

    @pytest.mark.parametrize("tie", [LEX, SF], ids=["lex", "sf"])
    def test_every_action_returned_on_a_small_face_is_picked(self, tie):
        rng = substream(2, "producible-actions:tight")
        for g, face, row in self._cases(rng):
            if face.size == 3:
                continue
            points = list(_grid(face.size, {1: 1, 2: 2000}[face.size]))
            if face.size == 2:
                vA, vB = g.receiver_utility[face[0]], g.receiver_utility[face[1]]
                for a, b in itertools.combinations(range(g.actions), 2):
                    # t vA + (1 - t) vB ties a and b: t (dA - dB) = -dB
                    dA, dB = vA[a] - vA[b], vB[a] - vB[b]
                    t = -dB / (dA - dB) if dA != dB else -1.0
                    if 0.0 <= t <= 1.0:
                        points.append(np.array([t, 1.0 - t]))
            assert set(_producible_actions(g, row, tie)) <= self._picks(g, tie, face, np.array(points))


class TestBestResponseFixedInterpretation:
    def test_indifferent_receiver_always_feasible(self, rng):
        bg = BimatrixGame(u1=rng.integers(0, 2, (2, 2)), u2=rng.integers(0, 2, (2, 2)))
        g, amap = bimatrix_to_persuasion(bg)
        br = best_response_fixed_interpretation(g, 0, [random_profile(g, rng)[1]], amap)
        assert br.feasible

    def test_revealing_interpretation_reproduces_revealing_utility(self):
        g = two_block_game()
        prof, cert = full_revelation_profile(g)
        table = induced_action_map(g, prof, LEX)
        base = ex_ante_utilities(g, prof, LEX)[0]
        for j in range(2):
            others = [prof[1 - j]]
            br = best_response_fixed_interpretation(g, j, others, FixedMap(tuple(table)))
            assert br.feasible
            assert br.utility == pytest.approx(base[j], abs=1e-9)

    def test_infeasible_when_interp_demands_dominated_action(self):
        # two states, identity receiver utility: demanding action 1 everywhere
        # is never credible once signal (0,.) reveals state 0
        g = GameInstance(
            2, [0.5, 0.5], np.eye(2), (np.ones((2, 2)),),
        )
        br = best_response_fixed_interpretation(g, 0, [], FixedMap(table=(1, 1)))
        # the sender CAN pool everything on posteriors favoring action 1? prior is
        # uniform, so expected utilities tie and action 1 is weakly optimal; make
        # state 0 strictly more likely to break the tie against the interpretation
        g2 = GameInstance(2, [0.7, 0.3], np.eye(2), (np.ones((2, 2)),))
        br2 = best_response_fixed_interpretation(g2, 0, [], FixedMap(table=(1, 1)))
        assert not br2.feasible
        assert br.feasible  # uniform prior keeps the tie, so 'always 1' stays credible


class TestVerifyNash:
    def test_reference_profile_exact(self):
        g = two_block_game()
        rep = verify_nash(g, two_block_equilibrium_policies(), SF)
        assert rep.verdict == EXACT
        assert np.allclose(rep.utilities, [0.3, 0.3], atol=1e-12)

    def test_revealing_profile_exact(self):
        g = two_block_game()
        prof, _ = full_revelation_profile(g)
        rep = verify_nash(g, prof, SF)
        assert rep.verdict == EXACT
        assert np.allclose(rep.utilities, [0.15, 0.15], atol=1e-12)

    def test_perturbed_profile_refuted_with_real_witness(self):
        g = two_block_game()
        pol = two_block_equilibrium_policies()
        pol[0, 0] = [0.8, 0.2, 0.0, 0.0]
        rep = verify_nash(g, pol, SF)
        assert rep.verdict == REFUTED
        assert rep.max_improvement > 1e-7
        prof = pol.copy()
        prof[rep.witness_sender] = rep.witness_policy
        gained = ex_ante_utilities(g, prof, SF)[0][rep.witness_sender]
        assert gained - rep.utilities[rep.witness_sender] == pytest.approx(rep.max_improvement, abs=1e-9)

    @pytest.mark.xfail(raises=lpmod.LpFailure, strict=True,
                       reason="a face LP fails certification (inequality violated beyond certified tolerance)")
    def test_dirichlet_profile_on_the_two_block_game_is_refuted(self):
        # the eps-ball check refutes this profile, so an exact check must too, with a real witness
        g = two_block_game()
        pol = np.random.default_rng(5).dirichlet(np.ones(4), size=(2, 4))
        assert local_ne_verify(g, pol, SF, 0.05, 0).verdict == REFUTED
        rep = verify_nash(g, pol, SF)
        assert rep.verdict == REFUTED
        prof = pol.copy()
        prof[rep.witness_sender] = rep.witness_policy
        gained = ex_ante_utilities(g, prof, SF)[0][rep.witness_sender]
        assert gained - ex_ante_utilities(g, pol, SF)[0][rep.witness_sender] > DEFAULT_NASH_TOL

    def test_fixed_map_route(self, rng):
        bg = BimatrixGame(u1=np.eye(2), u2=np.eye(2))
        g, amap = bimatrix_to_persuasion(bg)
        # coordination equilibrium: both senders point at action pair (0, 0) in state 1
        pol = np.zeros((2, 2, 2))
        pol[:, :, 0] = 1.0
        rep = verify_nash(g, pol, amap)
        assert rep.verdict == EXACT


class TestFullRevelation:
    def test_parity_codewords_two_senders(self):
        g = random_game(2, 2, 2, 2, np.random.default_rng(3))
        try:
            _, cert = full_revelation_profile(g)
        except PreconditionError:
            pytest.skip("drawn game had tied optima")
        assert set(cert.zeta) == {(0, 0), (1, 1)}

    def test_checksum_code_three_senders_three_signals(self):
        g = unique_optimum_game(seed=11, n_choices=(3,), dim_cap=3)
        g = GameInstance(3, g.prior, g.receiver_utility, g.sender_utilities)
        _, cert = full_revelation_profile(g)
        assert len(cert.zeta) == 9
        for a, b in itertools.combinations(cert.zeta, 2):
            assert sum(x != y for x, y in zip(a, b)) >= 2

    def test_any_n_minus_1_coordinates_determine_codeword(self):
        g = unique_optimum_game(seed=4)
        _, cert = full_revelation_profile(g)
        n = g.n_senders
        for drop in range(n):
            kept = {tuple(c[j] for j in range(n) if j != drop) for c in cert.zeta}
            assert len(kept) == len(cert.zeta)

    def test_exact_equilibrium_on_random_unique_optimum_games(self):
        for k in range(12):
            g = unique_optimum_game(seed=500 + k)
            prof, cert = full_revelation_profile(g)
            rep = verify_nash(g, prof, LEX)
            assert rep.verdict == EXACT, f"game seed {500 + k} refuted"

    def test_one_sender_with_one_optimal_action(self):
        # the empty prefix is the only one, so the code is the single codeword (0,)
        V = np.array([[1.0, 0.0], [2.0, 0.5], [3.0, -1.0]])
        g = GameInstance(3, [0.2, 0.3, 0.5], V, (np.arange(6.0).reshape(3, 2),))
        prof, cert = full_revelation_profile(g)
        assert cert.zeta == ((0,),)
        assert cert.assignment == {0: (0,)}
        assert prof.shape == (1, 3, 3) and np.all(prof[..., 0] == 1.0) and prof.sum() == 3.0   # all on signal 0

    def test_one_sender_with_two_optimal_actions_rejected(self):
        g = GameInstance(2, [0.5, 0.5], np.eye(2), (np.eye(2),))
        with pytest.raises(PreconditionError, match="capacity"):
            full_revelation_profile(g)

    def test_tied_state_named_in_error(self):
        V = np.array([[1.0, 1.0], [0.0, 1.0]])
        g = GameInstance(2, [0.5, 0.5], V, (V, V))
        with pytest.raises(PreconditionError, match="state 0"):
            full_revelation_profile(g)

    def test_capacity_shortfall_rejected(self):
        # 4 distinct optimal actions but only 2 codewords at |S|=2, n=2
        V = np.eye(4)
        g = GameInstance(2, [0.25] * 4, V, (V, V))
        with pytest.raises(PreconditionError, match="capacity"):
            full_revelation_profile(g)


class TestLocalVerify:
    def test_sample_count_formula(self):
        g = random_game(2, 2, 2, 2, np.random.default_rng(0))
        assert local_ne_sample_count(g) == 1000
        g = random_game(2, 4, 4, 4, np.random.default_rng(0))
        assert local_ne_sample_count(g) == 10000

    def test_one_sender_game_samples_as_two_senders(self):
        g = synthetic_instance(SyntheticSpec(1, 3, 2, 3, 19))
        assert local_ne_sample_count(g) == local_ne_sample_count(synthetic_instance(SyntheticSpec(2, 3, 2, 3, 19)))

    @pytest.mark.parametrize("samples", [0, -5, 0.5])
    def test_samples_below_one_rejected(self, samples):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            local_ne_verify(didactic_game(), np.full((2, 2, 2), 0.5), LEX, eps=0.01, seed=0, samples=samples)

    @pytest.mark.parametrize("samples", [2.5, True, np.bool_(True), np.float64(7.5), math.inf])
    def test_fractional_or_bool_samples_rejected(self, samples):
        # 2.5 drew 2 deviations per sender and reported 2; True drew 1
        with pytest.raises(ValueError, match="samples must be an integer"):
            local_ne_verify(didactic_game(), np.full((2, 2, 2), 0.5), LEX, eps=0.01, seed=0, samples=samples)

    @pytest.mark.parametrize("samples", [np.int64(7), np.int32(7), 7.0, np.float64(7.0)])
    def test_integral_samples_accepted(self, samples):
        pol = np.array([[[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.1, 0.9]]])
        got = local_ne_verify(didactic_game(), pol, LEX, eps=0.01, seed=0, samples=samples)
        assert type(got.samples) is int
        assert_same_report(got, local_ne_verify(didactic_game(), pol, LEX, eps=0.01, seed=0, samples=7))

    def test_exact_ne_is_locally_stable(self):
        g = two_block_game()
        prof, _ = full_revelation_profile(g)
        for eps in (0.005, 0.01):
            rep = local_ne_verify(g, prof, SF, eps=eps, seed=11)
            assert rep.verdict == EPSILON_LOCAL

    def test_never_refutes_exact_equilibrium(self):
        g = two_block_game()
        rep = local_ne_verify(g, two_block_equilibrium_policies(), SF, eps=0.005, seed=5)
        assert rep.verdict == EPSILON_LOCAL

    def test_refutes_profile_with_improvement_in_small_radius(self):
        # sender 0 babbles right on an action boundary: a positive fraction of
        # the eps-ball improves, so every seeded sampling pass finds a witness
        g = didactic_game()
        pol = np.array([[[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.1, 0.9]]])
        base = ex_ante_utilities(g, pol, LEX)[0]
        br = best_response_exact(g, 0, [pol[1]], LEX, incumbent=pol[0])
        assert br.utility > base[0] + 0.01  # the profile is not an equilibrium
        for seed in range(5):
            rep = local_ne_verify(g, pol, LEX, eps=0.005, seed=seed)
            assert rep.verdict == REFUTED
            prof = pol.copy()
            prof[rep.witness_sender] = rep.witness_policy
            gained = ex_ante_utilities(g, prof, LEX)[0][rep.witness_sender]
            assert gained - base[rep.witness_sender] >= rep.max_improvement - 1e-12

    def test_never_refutes_exact_equilibria_from_revealing_profiles(self):
        for k in range(3):
            g = unique_optimum_game(seed=950 + k)
            prof, _ = full_revelation_profile(g)
            assert verify_nash(g, prof, LEX).verdict == EXACT
            rep = local_ne_verify(g, prof, LEX, eps=0.01, seed=k, samples=400)
            assert rep.verdict == EPSILON_LOCAL

    def test_eps_must_be_positive(self):
        g = didactic_game()
        for eps in (0.0, np.nan, np.inf, 1.0 + 1e-12, 1e308):
            with pytest.raises(ValueError, match="eps must be positive and finite"):
                local_ne_verify(g, np.full((2, 2, 2), 0.5), LEX, eps=eps, seed=0)

    def test_deterministic_given_seed(self):
        g = didactic_game()
        pol = np.full((2, 2, 2), 0.5)
        a = local_ne_verify(g, pol, LEX, eps=0.01, seed=42, samples=50)
        b = local_ne_verify(g, pol, LEX, eps=0.01, seed=42, samples=50)
        assert a.verdict == b.verdict and a.max_improvement == b.max_improvement


def record_passes(monkeypatch) -> list:
    """Patch the eps-ball check's kernel pass to record its row counts; returns the record."""
    import persuade.equilibria

    seen = []
    decide = persuade.equilibria._decision_pass

    def recording(game, profiles, tie):
        seen.append(len(profiles))
        return decide(game, profiles, tie)

    monkeypatch.setattr(persuade.equilibria, "_decision_pass", recording)
    return seen


def assert_same_report(got, want):
    assert got.verdict == want.verdict
    assert got.max_improvement == want.max_improvement
    assert got.witness_sender == want.witness_sender
    if want.witness_policy is None:
        assert got.witness_policy is None
    else:
        assert np.array_equal(got.witness_policy, want.witness_policy)
    assert np.array_equal(got.utilities, want.utilities)
    assert (got.samples, got.eps) == (want.samples, want.eps)


LOCAL_FAMILIES = [
    ("two-block", lambda s: two_block_game()),
    ("synthetic(3,3,2,3)", lambda s: synthetic_instance(SyntheticSpec(3, 3, 2, 3, s))),
    ("quality-ads(3)", lambda s: quality_ads_instance(3, s)),
    ("product-ads(2)", lambda s: product_ads_instance(2, s)),
    ("synthetic(2,4,3,4)", lambda s: synthetic_instance(SyntheticSpec(2, 4, 3, 4, s))),
]


class TestLocalVerifyMatchesPerDeviationLoop:
    """The batched eps-ball check reports exactly what scoring one deviation
    at a time on the single-profile path reports."""

    @pytest.mark.parametrize("family,make", LOCAL_FAMILIES, ids=[f for f, _ in LOCAL_FAMILIES])
    @pytest.mark.parametrize("tie", [LEX, SF], ids=["lex", "sf"])
    @pytest.mark.parametrize("eps", [0.005, 0.05])
    def test_random_profiles(self, family, make, tie, eps):
        rng = substream(7, f"local-diff:{family}")
        for k in range(2):
            g = make(int(rng.integers(1000)))
            prof = random_profile(g, rng)
            if k:
                # sharpen toward a deterministic profile: rows on the simplex
                # boundary, where clamping and ties bite
                prof = prof**8 / (prof**8).sum(axis=2, keepdims=True)
            seed = int(rng.integers(2**31))
            got = local_ne_verify(g, prof, tie, eps, seed, samples=60)
            assert_same_report(got, reference_local_ne_verify(g, prof, tie, eps, seed, samples=60))

    @pytest.mark.parametrize("eps", [0.005, 0.05])
    def test_equilibria_stay_epsilon_local(self, eps):
        cases = [(two_block_game(), two_block_equilibrium_policies(), SF)]
        cases += [(g, full_revelation_profile(g)[0], LEX) for g in (unique_optimum_game(seed=960 + k) for k in range(2))]
        for g, prof, tie in cases:
            got = local_ne_verify(g, prof, tie, eps, 3, samples=100)
            assert_same_report(got, reference_local_ne_verify(g, prof, tie, eps, 3, samples=100))
            assert got.verdict == EPSILON_LOCAL

    @pytest.mark.parametrize("eps", [0.005, 0.05])
    def test_fixed_map_from_bimatrix_reduction(self, eps):
        rng = substream(8, "local-diff:bimatrix")
        for _ in range(3):
            g, amap = bimatrix_to_persuasion(BimatrixGame(u1=rng.integers(0, 2, (3, 3)), u2=rng.integers(0, 2, (3, 3))))
            prof = random_profile(g, rng)
            got = local_ne_verify(g, prof, amap, eps, 5, samples=100)
            assert_same_report(got, reference_local_ne_verify(g, prof, amap, eps, 5, samples=100))

    def test_default_budget(self):
        g = didactic_game()
        pol = np.array([[[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.1, 0.9]]])
        got = local_ne_verify(g, pol, LEX, 0.005, 1)
        assert got.samples == local_ne_sample_count(g)
        assert_same_report(got, reference_local_ne_verify(g, pol, LEX, 0.005, 1))

    def test_wide_ball_clamps_whole_rows(self):
        # at eps 0.6 both entries of a (0.5, 0.5) row can clamp to zero;
        # such rows become uniform
        g = didactic_game()
        pol = np.full((2, 2, 2), 0.5)
        devs = perturb_policy(np.broadcast_to(pol[0], (300, 2, 2)), 0.6, substream(4, "deviation:0"))
        clamped = np.all(devs == 0.5, axis=2)
        assert clamped.any()
        for tie in (LEX, SF):
            got = local_ne_verify(g, pol, tie, 0.6, 4, samples=300)
            assert_same_report(got, reference_local_ne_verify(g, pol, tie, 0.6, 4, samples=300))

    def test_blocks_of_any_size_give_the_same_report(self, monkeypatch):
        # the base rows and the deviations are scored one kernel pass at a
        # time; the pass size must not change the report, and no pass may
        # take more rows than `batch_rows`
        import persuade.equilibria
        import persuade.game

        g = synthetic_instance(SyntheticSpec(2, 4, 3, 4, 1))
        rng = np.random.default_rng(12)
        profiles = [random_profile(g, rng) for _ in range(3)]
        whole = [local_ne_verify(g, prof, SF, 0.05, 6, samples=150) for prof in profiles]
        assert any(r.verdict == REFUTED for r in whole)
        seen = record_passes(monkeypatch)
        # passes of 16 rows, of 5 rows, and of 1 row (a row holds more cells than a pass)
        per_row = g.states * g.n_joint_signals
        for rows, cells in ((16, 16 * per_row), (5, 5 * per_row + per_row // 2), (1, 1)):
            monkeypatch.setattr(persuade.game, "BATCH_CELLS", cells)
            assert persuade.game.batch_rows(g) == rows
            seen.clear()
            for prof, ref in zip(profiles, whole):
                assert_same_report(local_ne_verify(g, prof, SF, 0.05, 6, samples=150), ref)
            assert max(seen) == persuade.game.batch_rows(g)
        for prof, ref in zip(profiles, whole):
            assert_same_report(ref, reference_local_ne_verify(g, prof, SF, 0.05, 6, samples=150))

    @pytest.mark.parametrize("rows", [2, 1])
    def test_pass_seams_of_the_row_sequence(self, rows, monkeypatch):
        # 3 senders and 6 deviations each make 21 rows: the base rows 0-2, then
        # sender j's deviations at rows 3 + 6j ... 8 + 6j.  In passes of 2 rows
        # the base rows span two passes, pass (2, 3) holds the last base row and
        # sender 0's first deviation, and passes (8, 9) and (14, 15) hold the
        # seams between senders.
        import persuade.game

        g = synthetic_instance(SyntheticSpec(3, 3, 2, 3, 6))
        monkeypatch.setattr(persuade.game, "BATCH_CELLS", rows * g.states * g.n_joint_signals)
        assert persuade.game.batch_rows(g) == rows
        seen = record_passes(monkeypatch)
        rng = substream(9, "local-seams")
        witnesses = set()
        for tie in (LEX, SF):
            for _ in range(3):
                # sharpened toward a deterministic profile, where small deviations gain
                prof = random_profile(g, rng) ** 8
                prof /= prof.sum(axis=2, keepdims=True)
                seed = int(rng.integers(2**31))
                seen.clear()
                got = local_ne_verify(g, prof, tie, 0.05, seed, samples=6)
                assert seen == [rows] * (21 // rows) + [21 % rows] * (21 % rows > 0)
                assert_same_report(got, reference_local_ne_verify(g, prof, tie, 0.05, seed, samples=6))
                witnesses.add(got.witness_sender)
        assert witnesses == {0, 1, 2}

    @pytest.mark.parametrize("tie", [LEX, SF], ids=["lex", "sf"])
    def test_one_sender_game(self, tie, monkeypatch):
        # the profile that a zero deviation budget once passed as epsilon_local
        g = synthetic_instance(SyntheticSpec(1, 3, 2, 3, 19))
        prof = np.random.default_rng(19).dirichlet(np.ones(2), size=(1, 3))
        seen = record_passes(monkeypatch)
        for eps, samples in ((0.005, 400), (0.05, 100)):
            got = local_ne_verify(g, prof, tie, eps, 19, samples=samples)
            assert_same_report(got, reference_local_ne_verify(g, prof, tie, eps, 19, samples=samples))
        assert seen and max(seen) <= persuade.game.batch_rows(g)

    def test_seven_firm_quality_ads(self, monkeypatch):
        # 2 rows a pass and 7 senders: the base rows alone span four passes
        g = quality_ads_instance(7, 1)
        assert persuade.game.batch_rows(g) == 2
        seen = record_passes(monkeypatch)
        prof = random_profile(g, substream(10, "local-seven-firms"))
        got = local_ne_verify(g, prof, LEX, 0.05, 3, samples=3)
        assert seen == [2] * 14
        assert_same_report(got, reference_local_ne_verify(g, prof, LEX, 0.05, 3, samples=3))

    def test_deviations_are_scored_only_in_kernel_passes(self, monkeypatch):
        # the base profile and every deviation, a refuting one included, are
        # rows of the pass sequence; no single-profile evaluation is made
        import persuade.equilibria

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return ex_ante_utilities(*args, **kwargs)

        monkeypatch.setattr(persuade.equilibria, "ex_ante_utilities", counting)
        g = synthetic_instance(SyntheticSpec(2, 4, 3, 4, 1))
        prof = random_profile(g, np.random.default_rng(12))
        assert local_ne_verify(g, prof, SF, 0.05, 6, samples=150).verdict == REFUTED
        assert calls == []

    def test_stacked_perturbation_draws_the_same_deviations(self):
        g = synthetic_instance(SyntheticSpec(2, 4, 3, 4, 1))
        pol = random_profile(g, np.random.default_rng(2))[0]
        stack = perturb_policy(np.broadcast_to(pol, (50, *pol.shape)), 0.3, substream(9, "x"))
        rng = substream(9, "x")
        for dev in stack:
            assert np.array_equal(dev, reference_perturb(pol, 0.3, rng))


class TestFixedInterpretationAgainstReference:
    def test_matches_loop_oracle_on_random_games_and_maps(self):
        # random tables are mostly infeasible; a profile's own induced map is
        # feasible at that profile, so both outcomes are exercised
        feasible = infeasible = 0
        for k in range(60):
            rng = substream(k, "fixed-interp-differential")
            n, states, signals, actions = (int(rng.integers(1, 4)), int(rng.integers(2, 4)),
                                           int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            g = random_game(n, states, signals, actions, rng)
            prof = random_profile(g, rng)
            if k % 2:
                interp = FixedMap(tuple(int(a) for a in rng.integers(0, actions, g.n_joint_signals)))
            else:
                interp = FixedMap(tuple(int(a) for a in induced_action_map(g, prof, LEX)))
            for j in range(n):
                others = [prof[i] for i in range(n) if i != j]
                got = best_response_fixed_interpretation(g, j, others, interp)
                ref = reference_best_response_fixed_interpretation(g, j, others, interp)
                assert got.feasible == ref.feasible
                assert np.array_equal(got.action_map, ref.action_map)
                if ref.feasible:
                    assert got.utility == pytest.approx(ref.utility, abs=1e-9)
                    feasible += 1
                else:
                    assert got.policy is None and got.utility == -np.inf
                    infeasible += 1
        assert feasible > 20 and infeasible > 20

    def test_matches_loop_oracle_on_bimatrix_reductions(self):
        for k in range(20):
            rng = substream(k, "fixed-interp-bimatrix")
            m = 2 + k % 3
            bim = BimatrixGame(rng.integers(0, 2, (m, m)).astype(float), rng.integers(0, 2, (m, m)).astype(float))
            g, amap = bimatrix_to_persuasion(bim)
            prof = random_profile(g, rng)
            for j in range(2):
                others = [prof[1 - j]]
                got = best_response_fixed_interpretation(g, j, others, amap)
                ref = reference_best_response_fixed_interpretation(g, j, others, amap)
                assert got.feasible and ref.feasible
                assert got.utility == pytest.approx(ref.utility, abs=1e-9)
