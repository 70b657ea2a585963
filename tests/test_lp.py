import numpy as np
import pytest

from persuade.lp import MAX_PIVOTS, INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, LpFailure, solve_lp

from conftest import enumerate_basic_optima, reference_solve_lp


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


def _outcome(solve, lp, max_pivots):
    try:
        res = solve(lp, max_pivots)
    except LpFailure as exc:
        return ("failure", str(exc))
    return (res.status, None if res.x is None else res.x.tobytes(), res.value)


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
        from persuade import lp as lpmod
        from persuade.equilibria import best_response_exact
        from persuade.game import Lexicographic

        seen = []
        monkeypatch.setattr(lpmod, "solve_lp", lambda lp, max_pivots=MAX_PIVOTS: seen.append(lp) or solve_lp(lp))
        for shape in ((2, 2, 2, 2), (2, 3, 2, 3), (2, 3, 3, 3)):
            g = random_game(*shape, rng)
            best_response_exact(g, 0, [random_profile(g, rng)[1]], Lexicographic())
        assert len(seen) > 30
        for lp in seen:
            assert _outcome(solve_lp, lp, MAX_PIVOTS) == _outcome(reference_solve_lp, lp, MAX_PIVOTS)
