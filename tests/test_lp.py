import numpy as np
import pytest

from persuade import lp as lpmod
from persuade.lp import (
    INFEASIBLE,
    MAX_PIVOTS,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpFailure,
    LpStack,
    solve_lp,
    solve_lps,
)

from conftest import enumerate_basic_optima, reference_solve_lp, unstack


def random_lp(rng, max_vars=6, max_rows=8):
    """Feasible (origin works) and bounded (capped simplex row) by construction."""
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(1, max_rows))
    A = rng.normal(size=(m, n))
    b = rng.uniform(0.1, 2.0, size=m)
    A = np.vstack([A, np.ones(n)])
    b = np.concatenate([b, [float(rng.uniform(1.0, 4.0))]])
    c = rng.normal(size=n)
    return LinearProgram(c=c, A_ub=A, b_ub=b)


class TestBasics:
    def test_single_bound(self):
        res = solve_lp(LinearProgram(c=[1.0], A_ub=[[1.0]], b_ub=[1.0]))
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.x[0] == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_optimum_face(self):
        res = solve_lp(LinearProgram(c=[1.0, 1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0]))
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_equality_constraints(self):
        res = solve_lp(LinearProgram(c=[1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0]))
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(2.0)
        assert np.allclose(res.x, [0.0, 1.0], atol=1e-9)

    def test_infeasible_detection(self):
        res = solve_lp(LinearProgram(c=[1.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0]))
        assert res.status == INFEASIBLE

    def test_unbounded_detection(self):
        res = solve_lp(LinearProgram(c=[1.0, 0.0], A_ub=[[0.0, 1.0]], b_ub=[1.0]))
        assert res.status == UNBOUNDED

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_lp(LinearProgram(c=[1.0, 2.0], A_ub=[[1.0, 0.0]], b_ub=[1.0, 2.0]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            solve_lp(LinearProgram(c=[np.inf]))


class TestAgainstVertexEnumeration:
    def test_200_random_lps(self, rng):
        for _ in range(200):
            lp = random_lp(rng)
            res = solve_lp(lp)
            assert res.status == OPTIMAL
            oracle = enumerate_basic_optima(lp.c, lp.A_ub, lp.b_ub)
            assert res.value == pytest.approx(oracle, abs=1e-7)
            # certified feasibility
            assert np.all(lp.A_ub @ res.x - lp.b_ub <= 1e-7)
            assert np.all(res.x >= -1e-7)


class TestDegeneracy:
    def test_highly_degenerate_does_not_cycle(self):
        # many redundant ties at the origin; Bland's rule must terminate
        n = 6
        A = np.vstack([np.eye(n), np.eye(n), np.ones((3, n))])
        b = np.concatenate([np.zeros(2 * n), np.zeros(3)])
        res = solve_lp(LinearProgram(c=np.ones(n), A_ub=A, b_ub=b))
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_pivot_cap_raises(self):
        lp = LinearProgram(c=[1.0], A_ub=[[1.0]], b_ub=[1.0])
        with pytest.raises(LpFailure):
            solve_lp(lp, max_pivots=0)


def _entry(res):
    """An `LpResult` or `LpFailure` as comparable bytes."""
    if isinstance(res, LpFailure):
        return ("failure", str(res))
    return (res.status, None if res.x is None else res.x.tobytes(), res.value)


def _outcome(solve, lp, max_pivots):
    try:
        return _entry(solve(lp, max_pivots))
    except LpFailure as exc:
        return _entry(exc)


class TestMatchesReference:
    """`solve_lp` returns the reference simplex's status, `x` bytes, value
    and failure message on every kind of LP."""

    @staticmethod
    def cases(rng):
        for _ in range(60):
            yield random_lp(rng), 10**6                                    # feasible
            lp = random_lp(rng)
            n = lp.c.size
            yield LinearProgram(c=lp.c, A_ub=np.vstack([lp.A_ub, -np.ones(n)]),
                                b_ub=np.concatenate([lp.b_ub, [-lp.b_ub[-1] - 1.0]])), 10**6   # infeasible
            yield LinearProgram(c=np.abs(lp.c) + 0.1, A_ub=-np.abs(lp.A_ub[:-1]),
                                b_ub=lp.b_ub[:-1]), 10**6                  # unbounded
            k = int(rng.integers(1, 4))
            A = rng.integers(-1, 2, size=(k + 4, n)).astype(float)
            b = np.where(rng.random(k + 4) < 0.6, 0.0, rng.integers(-1, 3, size=k + 4).astype(float))
            yield LinearProgram(c=rng.integers(-2, 3, size=n).astype(float), A_ub=np.vstack([A, np.ones(n)]),
                                b_ub=np.concatenate([b, [1.0]]), A_eq=np.ones((1, n)), b_eq=[1.0]), 10**6   # degenerate
            yield lp, int(rng.integers(0, 4))                              # pivot-capped

    def test_random_lps(self, rng):
        statuses = set()
        for lp, cap in self.cases(rng):
            got = _outcome(solve_lp, lp, cap)
            assert got == _outcome(reference_solve_lp, lp, cap)
            statuses.add(got[0])
        assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED, "failure"}

    def test_best_response_lps(self, rng, monkeypatch):
        from conftest import random_game, random_profile
        from persuade.equilibria import best_response_exact
        from persuade.game import Lexicographic

        # every LP, stacked or alone, goes through `solve_lps`; record each with its result
        seen = []

        def record(lps, max_pivots=MAX_PIVOTS):
            out = solve_lps(lps, max_pivots)
            seen.extend(zip(unstack(lps), out))
            return out

        monkeypatch.setattr(lpmod, "solve_lps", record)
        for shape in ((2, 2, 2, 2), (2, 3, 2, 3), (2, 3, 3, 3)):
            g = random_game(*shape, rng)
            best_response_exact(g, 0, [random_profile(g, rng)[1]], Lexicographic())
        monkeypatch.undo()
        assert len(seen) > 30
        for lp, res in seen:
            want = _outcome(reference_solve_lp, lp, MAX_PIVOTS)
            assert _entry(res) == want
            assert _outcome(solve_lp, lp, MAX_PIVOTS) == want


def mixed_stack(rng, n, m_ub):
    """LPs of one shape (n variables, m_ub inequality rows, one equality row),
    of every kind in a shuffled order: optimal, infeasible, unbounded,
    degenerate, and one whose Bland tie-break leaves a row violated by
    5e-6, so certification fails."""
    def optimal():
        A = np.vstack([rng.normal(size=(m_ub - 1, n)), np.ones(n)])
        b = np.concatenate([rng.uniform(0.1, 2.0, m_ub - 1), [rng.uniform(1.0, 4.0)]])
        return LinearProgram(rng.normal(size=n), A, b, rng.normal(size=(1, n)), [0.0])

    def infeasible():
        lp = optimal()
        lp.A_ub[0], lp.b_ub[0] = -np.ones(n), -lp.b_ub[-1] - 1.0
        return lp

    def unbounded():
        eq = np.zeros((1, n))
        eq[0, :2] = (1.0, -1.0)
        return LinearProgram(rng.uniform(0.1, 1.0, n), -np.abs(rng.normal(size=(m_ub, n))),
                             rng.uniform(0.1, 2.0, m_ub), eq, [0.0])

    def degenerate():
        A = rng.integers(-1, 2, size=(m_ub, n)).astype(float)
        b = np.where(rng.random(m_ub) < 0.6, 0.0, rng.integers(-1, 3, size=m_ub).astype(float))
        return LinearProgram(rng.integers(-2, 3, size=n).astype(float), A, b, np.ones((1, n)), [1.0])

    def uncertifiable():
        scale = 10.0 ** rng.uniform(6.5, 7.5)
        A = np.zeros((m_ub, n))
        A[0, 0], A[1, 0] = 1.0, scale
        A[2:] = np.abs(rng.normal(size=(m_ub - 2, n)))
        b = np.concatenate([[1.0, scale * (1.0 - 5e-13)], rng.uniform(5.0, 9.0, m_ub - 2) + A[2:, 0]])
        c = np.zeros(n)
        c[0] = 1.0
        eq = np.zeros((1, n))
        eq[0, 1] = 1.0
        return LinearProgram(c, A, b, eq, [0.0])

    kinds = [optimal, infeasible, unbounded, degenerate, uncertifiable] * 3
    rng.shuffle(kinds)
    return [make() for make in kinds]


class TestSolveLpsMatchesReference:
    """Every LP of a lockstep stack gets the reference simplex's status, `x`
    bytes, value and failure message, whatever else is in the stack."""

    def test_mixed_stacks(self, rng, monkeypatch):
        seen = set()
        for _ in range(12):
            lps = mixed_stack(rng, int(rng.integers(2, 6)), int(rng.integers(3, 7)))
            for cap in (MAX_PIVOTS, int(rng.integers(0, 5))):
                want = [_outcome(reference_solve_lp, lp, cap) for lp in lps]
                assert [_entry(res) for res in solve_lps(lps, cap)] == want
                assert [_entry(res) for res in solve_lps(LpStack.of(lps[::-1]), cap)] == want[::-1]
                assert [_entry(solve_lps([lp], cap)[0]) for lp in lps] == want
                # three running at a time: each finished LP hands its slot on
                monkeypatch.setattr(lpmod, "MAX_STACK", 3)
                assert [_entry(res) for res in solve_lps(lps, cap)] == want
                monkeypatch.undo()
                seen.update(w[0] if w[0] != "failure" else w[1].split()[0] for w in want)
            # one pivot budget per LP
            caps = rng.integers(0, 5, size=len(lps)).tolist()
            want = [_outcome(reference_solve_lp, lp, cap) for lp, cap in zip(lps, caps)]
            assert [_entry(res) for res in solve_lps(lps, caps)] == want
        assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED, "simplex", "inequality"}

    def test_input_longer_than_a_stack(self, rng):
        lps = [random_lp(rng, max_vars=3, max_rows=2) for _ in range(300)]
        lps = [lp for lp in lps if lp.c.size == 3 and lp.b_ub.size == 2][: lpmod.MAX_STACK + 5]
        assert len(lps) > lpmod.MAX_STACK
        got = [_entry(res) for res in solve_lps(lps)]
        assert got == [_outcome(reference_solve_lp, lp, MAX_PIVOTS) for lp in lps]

    def test_unconstrained_lps(self):
        lps = [LinearProgram(c=c) for c in ([1.0, -1.0], [-1.0, -2.0], [0.0, 0.0], [-1.0, 3.0])]
        want = [_outcome(reference_solve_lp, lp, MAX_PIVOTS) for lp in lps]
        assert {w[0] for w in want} == {OPTIMAL, UNBOUNDED}
        assert [_entry(res) for res in solve_lps(lps)] == want
        assert [_outcome(solve_lp, lp, MAX_PIVOTS) for lp in lps] == want

    def test_solve_lp_takes_a_stack_of_one(self, rng):
        lps = mixed_stack(rng, 3, 4)
        for lp in lps:
            assert _outcome(solve_lp, LpStack.of([lp]), MAX_PIVOTS) == _outcome(reference_solve_lp, lp, MAX_PIVOTS)
        with pytest.raises(ValueError):
            solve_lp(LpStack.of(lps[:2]))

    def test_shapes_must_match(self):
        with pytest.raises(ValueError, match="one shape"):
            solve_lps([LinearProgram(c=[1.0]), LinearProgram(c=[1.0, 2.0])])
