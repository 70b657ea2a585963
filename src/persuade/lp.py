"""Small dense linear-program solver.

Maximizes ``c @ x`` subject to ``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq``
and ``x >= 0`` with a two-phase tableau simplex; the LPs come as an
:class:`LpStack`, one or more LPs of one shape.  Bland's rule is always
on: the persuasion LPs solved here are heavily degenerate (many exact
ties) and must not cycle.  Instances are tiny by design, so a dense
tableau beats anything clever.

The simplex runs a stack of same-shape LPs in lockstep (:func:`solve_lps`):
each iteration prices, ratio-tests and pivots every running LP with one set
of array operations, and an LP leaves the stack as soon as it finishes.
Every LP gets exactly the arithmetic it would get alone: the stacked
reduced-cost product runs one BLAS gemv per LP, and each pivot updates only
that LP's rows with a nonzero pivot-column entry.  So a result does not
depend on the other LPs in its stack, and :func:`solve_lp` is the one-LP
case.  The tableau carries an artificial column only for each equality row
and each inequality row that some LP of the stack negates (b < 0): every
IC, cone and margin LP has b_ub >= 0, so its tableau is the constraint,
slack and equality-artificial columns alone (see :func:`_layout`).  A stack
holds at most `MAX_STACK` LPs and `STACK_BYTES` of tableau, counted at that
width; on a longer input, an LP that finishes hands its place to the next
waiting one.  (Fewer LPs or bytes ran slower on the exact best responses
measured, more ran no faster; 1 MB of tableaus plus the pivot's work
buffer of the same size fill a 2 MB L2 cache.)  The last LP left running
finishes with one LP's plain indexing (:func:`_pivot_one`), which took
about half the time of the stacked loop on one-LP calls; both loops take
their steps from the one Bland rule (:func:`_entering`, :func:`_leaving`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-9          # internal phase-1 threshold
CERT_TOL = 1e-7          # certified constraint tolerance on returned solutions
MAX_PIVOTS = 10**6
MAX_STACK = 64           # LPs per lockstep stack
STACK_BYTES = 1 << 20    # tableau bytes per lockstep stack (at least one LP)


class LpFailure(RuntimeError):
    """Pivot cap hit or a certified check failed; the result is unusable."""


@dataclass
class LpStack:
    """K linear programs of one shape on a leading axis: `c` (K, n), `A_ub`
    (K, m_ub, n), `b_ub` (K, m_ub), `A_eq` (K, m_eq, n), `b_eq` (K, m_eq),
    all float, finite and C-contiguous.  Builders that make many LPs of one
    shape fill these arrays directly; a single LP is a stack of one."""

    c: np.ndarray
    A_ub: np.ndarray
    b_ub: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray

    def __len__(self) -> int:
        return self.c.shape[0]


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None = None
    value: float | None = None


_NO_ROW = np.iinfo(np.intp).max     # above every basis index


def _entering(z):
    """Bland's rule, entering side, per LP (last axis): the lowest column
    whose reduced cost exceeds PIVOT_TOL; `has` is false where none does."""
    eligible = z > PIVOT_TOL
    return eligible.argmax(axis=-1), np.logical_or.reduce(eligible, axis=-1)


def _leaving(colvals, rhs, basis):
    """Bland's rule, leaving side, per LP (last axis): among the rows tied
    within 1e-12 at the least ratio ``rhs / colvals`` over the entries above
    PIVOT_TOL, the one with the lowest basis index; `ok` is false where no
    entry is above it (the LP is unbounded along the column)."""
    if colvals.shape[-1] == 0:                  # no constraint rows
        return np.zeros(colvals.shape[:-1], dtype=int), np.zeros(colvals.shape[:-1], dtype=bool)
    ratios = rhs / np.where(colvals > PIVOT_TOL, colvals, np.nan)
    low = np.fmin.reduce(ratios, axis=-1)
    tied = ratios <= low[..., None] + 1e-12
    return np.where(tied, basis, _NO_ROW).argmin(axis=-1), low == low


# Both pivots leave the pivot column exact without setting it: the pivot
# entry divides to 1.0, and every other updated entry is x - x * 1.0 = 0.0.
# Rows with a zero in the pivot column would only subtract a zero, so they
# are left alone.  A negative pivot (only when an artificial is pivoted out)
# turns a zero right-hand side into -0.0; it is cleared as a full-tableau
# update would, so x never holds -0.0.


def _pivot(T, basis, rows, cols, colvals, work):
    """Pivot LP k of the tableau stack `T` on ``(rows[k], cols[k])``.

    `colvals` holds the pivot columns (it is overwritten) and `work` is a
    buffer of T's shape for the row updates.
    """
    ar = np.arange(len(T))
    prow = T[ar, rows]
    prow /= colvals[ar, rows][:, None]
    prow[:, -1] += 0.0
    T[ar, rows] = prow
    colvals[ar, rows] = 0.0
    np.multiply(colvals[:, :, None], prow[:, None, :], out=work)
    np.subtract(T, work, out=T, where=(colvals != 0.0)[:, :, None])
    basis[ar, rows] = cols


def _pivot_one(tab, bas, row, col):
    """Pivot one LP's tableau on ``(row, col)``."""
    tab[row] /= tab[row, col]
    tab[row, -1] += 0.0
    rows = tab[:, col].nonzero()[0]
    rows = rows[rows != row]
    tab[rows] -= tab[rows, col, None] * tab[row]
    bas[row] = col


@functools.lru_cache(maxsize=256)
def _layout(n, m_ub, m_eq, flipped):
    """What a starting tableau takes from the LP shape and the inequality
    rows `flipped`, those that some LP of the stack negates (read-only).

    Standard form rows are [A_ub | I_slack | art] and [A_eq | 0 | art], with
    an artificial column for each row in `flipped` and each equality row, in
    row order.  A row with a negative rhs is negated left of the artificials
    and its artificial starts the basis (`first_basis`); every other
    inequality row starts with its slack column, a unit vector, so no pivot
    is needed (`slack_basis`).  Phase 1 maximizes -sum(artificials).  An
    unflipped inequality row gets no artificial: its column would equal the
    row's slack column through every pivot and price 1 lower in phase 1 (0
    in phase 2), so Bland's rule would never let it enter.
    """
    m = m_ub + m_eq
    art_rows = np.concatenate([np.asarray(flipped, dtype=int), np.arange(m_ub, m)])
    art_start = n + m_ub
    n_total = art_start + art_rows.size
    template = np.zeros((m, n_total + 1))
    template[:m_ub, n:art_start] = np.eye(m_ub)
    template[art_rows, np.arange(art_start, n_total)] = 1.0
    slack_basis = np.concatenate([np.arange(n, art_start), np.arange(n_total - m_eq, n_total)])
    first_basis = slack_basis.copy()
    first_basis[art_rows] = np.arange(art_start, n_total)
    phase1_cost = np.zeros(n_total)
    phase1_cost[art_start:] = -1.0
    for arr in (template, first_basis, slack_basis, phase1_cost):
        arr.flags.writeable = False
    return template, first_basis, slack_basis, phase1_cost


def _lockstep(lps: LpStack, max_pivots) -> list:
    """Two-phase Bland simplex over the LPs of `lps`, at most `MAX_STACK` of
    them and `STACK_BYTES` of tableau (at least one LP) running at a time:
    an LP that finishes hands its slot to the next one."""
    c, A_ub, b_ub, A_eq, b_eq = lps.c, lps.A_ub, lps.b_ub, lps.A_eq, lps.b_eq
    K, n = c.shape
    m_ub, m_eq = A_ub.shape[1], A_eq.shape[1]
    m = m_ub + m_eq
    art_start = n + m_ub
    negative = b_ub < 0
    flipped = tuple(np.flatnonzero(np.logical_or.reduce(negative)).tolist()) if negative.any() else ()
    template, first_basis, slack_basis, phase1_cost = _layout(n, m_ub, m_eq, flipped)
    n_total = template.shape[1] - 1
    caps = np.broadcast_to(np.asarray(max_pivots, dtype=int), (K,))

    S = min(K, max(1, min(MAX_STACK, STACK_BYTES // max(template.nbytes, 1))))
    T = np.empty((S, m, n_total + 1))
    basis = np.empty((S, m), dtype=int)
    cost = np.empty((S, n_total))
    budget = np.empty(S, dtype=int)
    pivots = np.empty(S, dtype=int)
    phase2 = np.empty(S, dtype=bool)
    ids = np.empty(S, dtype=int)                   # the LP in each slot
    state = (T, basis, cost, budget, pivots, phase2, ids)
    work = np.empty_like(T)
    out: list = [None] * K

    def start(where, ks):
        """Set up LPs `ks` in slots `where`."""
        tab = np.empty((ks.size, m, n_total + 1))
        tab[:] = template
        tab[:, :m_ub, :n] = A_ub[ks]
        tab[:, m_ub:, :n] = A_eq[ks]
        rhs = np.concatenate([b_ub[ks], b_eq[ks]], axis=1)
        flip = rhs < 0
        if flip.any():
            tab[:, :, :art_start][flip] *= -1
        tab[:, :, -1] = np.abs(rhs)
        T[where], basis[where] = tab, np.where(flip, first_basis, slack_basis)
        cost[where], budget[where], pivots[where], phase2[where], ids[where] = phase1_cost, caps[ks], 0, False, ks

    def end_phase(s, unbounded):
        """Slot `s` has no pivot left in its phase: its result, or None when it goes on to phase 2."""
        tab, bas, k = T[s], basis[s], ids[s]
        if phase2[s]:
            if unbounded:
                return LpResult(status=UNBOUNDED)
            x_full = np.zeros(n_total)
            x_full[bas] = tab[:, -1]
            x = x_full[:n]
            value = float(c[k] @ x)
            # certify the solution before returning it (fmax and fmin skip
            # NaNs, which fail no check)
            if m_ub and np.fmax.reduce(A_ub[k] @ x - b_ub[k]) > CERT_TOL:
                return LpFailure("inequality violated beyond certified tolerance")
            if m_eq and np.fmax.reduce(np.abs(A_eq[k] @ x - b_eq[k])) > CERT_TOL:
                return LpFailure("equality violated beyond certified tolerance")
            if n and np.fmin.reduce(x) < -CERT_TOL:
                return LpFailure("negative variable beyond certified tolerance")
            return LpResult(status=OPTIMAL, x=x, value=value)
        if -float(phase1_cost[bas] @ tab[:, -1]) > FEAS_TOL:
            return LpResult(status=INFEASIBLE)
        # pivot out artificials still in the basis (they sit at value ~0)
        for i in np.flatnonzero(bas >= art_start):
            row_cands = np.nonzero(np.abs(tab[i, :art_start]) > PIVOT_TOL)[0]
            if row_cands.size:
                _pivot_one(tab, bas, i, row_cands[0])
        cost[s, :n] = c[k]
        cost[s, n:] = 0.0
        # artificial columns price to zero from here on, so none enters again
        T[s, :, art_start:n_total] = 0.0
        budget[s] -= pivots[s] + 1
        pivots[s] = 0
        phase2[s] = True
        return None

    def alone(s):
        """Run slot `s` by itself to its result: the steps of the stacked loop
        below, with one LP's plain indexing."""
        tab, bas, cst = T[s], basis[s], cost[s]
        while True:
            col, has = _entering(cst - cst[bas] @ tab[:, :-1])
            row, ok = _leaving(tab[:, col], tab[:, -1], bas)
            if not (has and ok):
                res = end_phase(s, has)
                if res is not None:
                    return res
                continue
            _pivot_one(tab, bas, row, col)
            pivots[s] += 1
            if pivots[s] > budget[s]:
                return LpFailure(f"simplex exceeded {budget[s]} pivots")

    start(slice(0, S), np.arange(S))
    queued = S                                     # LPs [queued, K) wait for a slot
    live = S                                       # running LPs occupy slots [0, live)
    while live:
        if live == 1 and queued == K:
            # the last LP runs about twice as fast with plain indexing
            out[ids[0]] = alone(0)
            break
        ar = np.arange(live)
        bas = basis[:live]
        # reduced costs relative to each LP's basis (a basic column is a unit
        # vector, so its reduced cost is exactly zero; the stacked product
        # runs one gemv per LP, the same as one LP's vector-matrix product)
        z = cost[:live] - (cost[ar[:, None], bas][:, None, :] @ T[:live, :, :-1])[:, 0]
        col, has = _entering(z)
        colvals = T[ar, :, col]
        row, ok = _leaving(colvals, T[:live, :, -1], bas)
        go = has & ok
        n_go = np.count_nonzero(go)
        if n_go < live:
            # the LPs that end a phase (no entering column, or one with no
            # positive entry: unbounded) swap places with pivoting ones, so
            # the pivoting LPs fill slots [0, n_go)
            a = np.concatenate([np.flatnonzero(~go[:n_go]), n_go + np.flatnonzero(go[n_go:])])
            b = a[::-1]
            for arr in (*state, row, col, colvals, has):
                arr[a] = arr[b]
        if n_go:
            _pivot(T[:n_go], basis[:n_go], row[:n_go], col[:n_go], colvals[:n_go], work[:n_go])
            pivots[:n_go] += 1
        done = []
        for s in (pivots[:n_go] > budget[:n_go]).nonzero()[0]:
            out[ids[s]] = LpFailure(f"simplex exceeded {budget[s]} pivots")
            done.append(s)
        for s in range(n_go, live):
            out[ids[s]] = end_phase(s, has[s])
            if out[ids[s]] is not None:
                done.append(s)
        if done and queued < K:
            # waiting LPs take the finished slots
            take = min(len(done), K - queued)
            start(np.array(done[:take]), np.arange(queued, queued + take))
            queued += take
            done = done[take:]
        if done:
            # compact: running LPs from the tail fill the finished slots
            live -= len(done)
            holes = [s for s in done if s < live]
            fill = [s for s in range(live, ar.size) if s not in done]
            for arr in state:
                arr[holes] = arr[fill]
    return out


def solve_lps(lps: LpStack, max_pivots=MAX_PIVOTS) -> list:
    """Solve the same-shape LPs of `lps` in lockstep, with the pivot budget
    `max_pivots` (one for all, or one per LP).

    Returns one entry per LP, in order: its :class:`LpResult`, or the
    :class:`LpFailure` that :func:`solve_lp` would raise for it.  Each
    entry equals what :func:`solve_lp` gives that LP alone.  Raises
    ValueError unless the stack's shapes agree and its entries are finite.
    """
    arrays = (lps.c, lps.A_ub, lps.b_ub, lps.A_eq, lps.b_eq)
    shapes = [a.shape for a in arrays]
    ok = lps.c.ndim == lps.b_ub.ndim == lps.b_eq.ndim == 2
    if ok:
        (K, n), m_ub, m_eq = lps.c.shape, lps.b_ub.shape[1], lps.b_eq.shape[1]
        ok = shapes == [(K, n), (K, m_ub, n), (K, m_ub), (K, m_eq, n), (K, m_eq)]
    if not ok:
        raise ValueError(
            "an LP stack needs c (K, n), A_ub (K, m_ub, n), b_ub (K, m_ub), A_eq (K, m_eq, n) "
            f"and b_eq (K, m_eq); got {shapes}"
        )
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("linear program entries must be finite")
    return _lockstep(lps, max_pivots)


def solve_lp(lp: LpStack, max_pivots: int = MAX_PIVOTS) -> LpResult:
    """Two-phase simplex of the one LP in the stack `lp`.  Infeasible iff
    the phase-1 optimum exceeds 1e-9."""
    if len(lp) != 1:
        raise ValueError(f"solve_lp solves one LP; the stack holds {len(lp)} (use solve_lps)")
    (res,) = solve_lps(lp, max_pivots)
    if isinstance(res, LpFailure):
        raise res
    return res
