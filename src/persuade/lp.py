"""Small dense linear-program solver.

Maximizes ``c @ x`` subject to ``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq``
and ``x >= 0`` with a two-phase tableau simplex.  Bland's rule is always
on: the persuasion LPs solved here are heavily degenerate (many exact
ties) and must not cycle.  Instances are tiny by design, so a dense
tableau beats anything clever.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-9          # internal phase-1 threshold
CERT_TOL = 1e-7          # certified constraint tolerance on returned solutions
MAX_PIVOTS = 10**6


class LpFailure(RuntimeError):
    """Pivot cap hit or a certified check failed; the result is unusable."""


@dataclass
class LinearProgram:
    """max c@x  s.t.  A_ub@x <= b_ub,  A_eq@x == b_eq,  x >= 0."""

    c: np.ndarray
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def normalized(self):
        c = np.asarray(self.c, dtype=float).ravel()
        n = c.size
        A_ub = np.zeros((0, n)) if self.A_ub is None else np.asarray(self.A_ub, dtype=float).reshape(-1, n)
        b_ub = np.zeros(0) if self.b_ub is None else np.asarray(self.b_ub, dtype=float).ravel()
        A_eq = np.zeros((0, n)) if self.A_eq is None else np.asarray(self.A_eq, dtype=float).reshape(-1, n)
        b_eq = np.zeros(0) if self.b_eq is None else np.asarray(self.b_eq, dtype=float).ravel()
        if A_ub.shape[0] != b_ub.size or A_eq.shape[0] != b_eq.size:
            raise ValueError("constraint row counts do not match right-hand sides")
        for arr in (c, A_ub, b_ub, A_eq, b_eq):
            if not np.all(np.isfinite(arr)):
                raise ValueError("linear program entries must be finite")
        return c, A_ub, b_ub, A_eq, b_eq


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None = None
    value: float | None = None


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    # a negative pivot turns a zero right-hand side into -0.0; clear it as a
    # full-tableau update would, so x never holds -0.0
    T[row, -1] += 0.0
    # rows with a zero in the pivot column would only subtract a zero
    rows = T[:, col].nonzero()[0]
    rows = rows[rows != row]
    T[rows] -= T[rows, col, None] * T[row]
    # keep the pivot column numerically exact
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run_simplex(T, basis, cost, allowed, budget):
    """Maximize `cost` over the tableau in place; Bland's rule throughout.

    `allowed` marks columns permitted to enter.  Returns (status, pivots).
    """
    m = basis.size
    blocked = ~allowed
    pivots = 0
    while True:
        # reduced costs relative to the current basis
        z = cost.copy()
        z -= cost[basis] @ T[:m, :-1]
        z[blocked] = 0.0
        z[basis] = 0.0
        eligible = z > PIVOT_TOL
        col = int(eligible.argmax())              # Bland: lowest eligible index
        if not eligible[col]:
            return OPTIMAL, pivots
        colvals = T[:m, col]
        pos = (colvals > PIVOT_TOL).nonzero()[0]
        if pos.size == 0:
            return UNBOUNDED, pivots
        ratios = T[pos, -1] / colvals[pos]
        ties = pos[ratios <= ratios.min() + 1e-12]
        row = int(ties[basis[ties].argmin()])     # Bland: lowest basis index leaves
        _pivot(T, basis, row, col)
        pivots += 1
        if pivots > budget:
            raise LpFailure(f"simplex exceeded {budget} pivots")


def solve_lp(lp: LinearProgram, max_pivots: int = MAX_PIVOTS) -> LpResult:
    """Two-phase simplex.  Infeasible iff the phase-1 optimum exceeds 1e-9."""
    c, A_ub, b_ub, A_eq, b_eq = lp.normalized()
    n = c.size
    m_ub, m_eq = A_ub.shape[0], A_eq.shape[0]
    m = m_ub + m_eq

    # standard form rows: [A_ub | I_slack] and [A_eq | 0], rhs made nonnegative
    A = np.zeros((m, n + m_ub))
    rhs = np.concatenate([b_ub, b_eq])
    A[:m_ub, :n] = A_ub
    A[:m_ub, n : n + m_ub] = np.eye(m_ub)
    A[m_ub:, :n] = A_eq
    flip = rhs < 0
    A[flip] *= -1
    rhs = np.abs(rhs)

    # artificials for every row; slack columns start the basis where they
    # survived the flip (each is a unit vector, so no pivot is needed)
    n_total = n + m_ub + m
    T = np.zeros((m, n_total + 1))
    T[:, : n + m_ub] = A
    T[:, n + m_ub : n_total] = np.eye(m)
    T[:, -1] = rhs
    basis = np.arange(n + m_ub, n_total)
    slack_rows = (~flip[:m_ub]).nonzero()[0]
    basis[slack_rows] = n + slack_rows

    budget = max_pivots
    phase1_cost = np.zeros(n_total)
    phase1_cost[n + m_ub :] = -1.0                # maximize -sum(artificials)
    allowed = np.ones(n_total, dtype=bool)
    status, used = _run_simplex(T, basis, phase1_cost, allowed, budget)
    budget -= used
    phase1 = -float(phase1_cost[basis] @ T[:m, -1])
    if phase1 > FEAS_TOL:
        return LpResult(status=INFEASIBLE)

    # pivot out artificials still in the basis (they sit at value ~0)
    art_start = n + m_ub
    for i in range(m):
        if basis[i] >= art_start:
            row_cands = np.nonzero(np.abs(T[i, :art_start]) > PIVOT_TOL)[0]
            if row_cands.size:
                _pivot(T, basis, i, int(row_cands[0]))

    phase2_cost = np.zeros(n_total)
    phase2_cost[:n] = c
    allowed = np.ones(n_total, dtype=bool)
    allowed[art_start:] = False
    status, used = _run_simplex(T, basis, phase2_cost, allowed, budget - 1)
    if status == UNBOUNDED:
        return LpResult(status=UNBOUNDED)

    x_full = np.zeros(n_total)
    keep = basis < n_total
    x_full[basis[keep]] = T[:m, -1][keep]
    x = x_full[:n]
    value = float(c @ x)

    # certify the solution before returning it
    if m_ub and np.any(A_ub @ x - b_ub > CERT_TOL):
        raise LpFailure("inequality violated beyond certified tolerance")
    if m_eq and np.any(np.abs(A_eq @ x - b_eq) > CERT_TOL):
        raise LpFailure("equality violated beyond certified tolerance")
    if np.any(x < -CERT_TOL):
        raise LpFailure("negative variable beyond certified tolerance")

    return LpResult(status=OPTIMAL, x=x, value=value)
