"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from persuade import lp as lpmod
from persuade.equilibria import (
    EPSILON_LOCAL,
    IMPROVE_TOL,
    REFUTED,
    BestResponseResult,
    EquilibriumReport,
    _full_table,
    _IcLp,
    _opponent_contexts,
    _producible_actions,
    _profile_with,
    local_ne_sample_count,
)
from persuade.game import (
    TIE_TOL,
    FixedMap,
    GameInstance,
    Lexicographic,
    ex_ante_utilities,
    ex_ante_utilities_batch,
    ex_ante_utilities_fixed_interpretation,
    induced_action_map,
    joint_signals,
    posterior,
    validate_joint_policy,
    validate_policy,
)
from persuade.learning import BETA1, BETA2, EPS_ADAM, EgConfig, TrainConfig, UtilityDataset, softmax_rows
from persuade.neural import MlpParams, backward, flatten_params, forward, unflatten_params
from persuade.rng import substream


def random_game(n, states, signals, actions, rng, scale=1.0) -> GameInstance:
    return GameInstance(
        signals=signals,
        prior=rng.dirichlet(np.ones(states)),
        receiver_utility=rng.normal(0.0, scale, (states, actions)),
        sender_utilities=tuple(rng.normal(0.0, scale, (states, actions)) for _ in range(n)),
    )


def random_profile(game: GameInstance, rng) -> np.ndarray:
    return rng.dirichlet(np.ones(game.signals), size=(game.n_senders, game.states))


def unique_optimum_game(seed, n_choices=(2, 3), dim_cap=4, scale=1.0) -> GameInstance:
    """Seeded random game with a unique receiver optimum per state and
    enough signal codewords for the revealing construction."""
    rng = substream(seed, "unique-optimum-game")
    while True:
        n = int(rng.choice(n_choices))
        states = int(rng.integers(2, dim_cap + 1))
        signals = int(rng.integers(2, dim_cap + 1))
        actions = int(rng.integers(2, dim_cap + 1))
        g = random_game(n, states, signals, actions, rng, scale)
        V = g.receiver_utility
        gaps = np.sort(V, axis=1)
        if np.any(gaps[:, -1] - gaps[:, -2] < 1e-6):
            continue
        used = len(set(int(a) for a in V.argmax(axis=1)))
        if signals ** (n - 1) >= used:
            return g


def joint_signal_index(signal, n_signals: int) -> int:
    """Flat index of a joint signal tuple (sender 0 most significant)."""
    idx = 0
    for s in signal:
        idx = idx * n_signals + int(s)
    return idx


def product_weights(prior: np.ndarray, policies: np.ndarray) -> np.ndarray:
    """Kronecker product of a prior with the policies on axis -3: the oracle
    for the kernel's joint-signal weights.

    `policies` is (..., m, states, signals); returns (..., S^m, states) with
    q[..., s, w] = prior(w) * prod_j policies[..., j, w, s_j] and joint
    signals in flat order (policy 0 most significant).
    """
    *lead, m, states, _ = policies.shape
    q = np.array(prior[None, :])
    for j in range(m):
        pj = policies[..., j, None, :, :].swapaxes(-1, -2)        # (..., 1, S, states)
        # (..., k, states) -> (..., k*S, states), new signal index varying fastest
        q = (q[..., :, None, :] * pj).reshape(*lead, -1, states)
    return q


def reference_ex_ante(game: GameInstance, policy, tie):
    """Per-joint-signal oracle for the exact sum: the posterior and the
    receiver's action (read from the table for a FixedMap) one joint signal
    at a time, unreachable joint signals skipped.  Returns
    ``(sender_utilities, receiver_utility)``."""
    policy = validate_joint_policy(game, policy)
    senders = np.zeros(game.n_senders)
    receiver = 0.0
    for k, signal in enumerate(joint_signals(game.n_senders, game.signals)):
        post = posterior(game, policy, signal)
        if post.marginal <= 0.0:
            continue
        a = tie.table[k] if isinstance(tie, FixedMap) else int(tie.best_actions(game, post.mu[None, :])[0])
        weights = post.marginal * post.mu
        senders += [weights @ u[:, a] for u in game.sender_utilities]
        receiver += weights @ game.receiver_utility[:, a]
    return senders, receiver


def reference_best_actions(game: GameInstance, tie, posteriors) -> np.ndarray:
    """Posterior-major oracle for a posterior rule's `best_actions`: values
    and masks are (M, actions) arrays, and each max, threshold and
    lowest-index pick reduces over the trailing action axis."""
    mu = np.atleast_2d(np.asarray(posteriors, dtype=float))
    exp_v = mu @ game.receiver_utility
    tied = exp_v >= exp_v.max(axis=1, keepdims=True) - TIE_TOL
    if isinstance(tie, Lexicographic):
        return np.argmax(tied, axis=1)
    score = np.where(tied, mu @ sum(game.sender_utilities), -np.inf)
    best = score >= score.max(axis=1, keepdims=True) - TIE_TOL
    v = game.receiver_utility    # the actions optimal at each point-mass belief
    mass = mu @ (v >= v.max(axis=1, keepdims=True) - TIE_TOL).astype(float)
    mass = np.where(best, mass, -np.inf)
    final = mass >= mass.max(axis=1, keepdims=True) - TIE_TOL
    return np.argmax(final, axis=1)


def reference_batch_pass(game: GameInstance, profiles, tie, utilities) -> np.ndarray:
    """Posterior-major oracle for one pass of the batched kernel:
    (B, len(utilities)), the receiver's actions from `reference_best_actions`
    (a FixedMap's table) and each (states, actions) utility gathered through
    its transpose."""
    q = product_weights(game.prior, np.asarray(profiles, dtype=float))   # (B, S^n, states)
    marg = q.sum(axis=-1)
    live = marg > 0
    if isinstance(tie, FixedMap):
        actions = np.broadcast_to(np.asarray(tie.table), marg.shape)
    else:
        mu = np.where(live[..., None], q / np.maximum(marg[..., None], 1e-300), 0.0)
        actions = reference_best_actions(game, tie, mu.reshape(-1, game.states)).reshape(marg.shape)
    q = np.where(live[..., None], q, 0.0)
    out = np.empty((q.shape[0], len(utilities)))
    for col, u in enumerate(utilities):
        out[:, col] = np.sum(q * u.T[actions], axis=(1, 2))   # u.T[actions]: (B, S^n, states)
    return out


def reference_train(params, dataset: UtilityDataset, cfg: TrainConfig, *, sender: int):
    """Per-step oracle for `train`: each minibatch step unflattens a fresh
    copy of the parameters, runs `forward` for the loss and `backward` for
    the gradient, flattens that gradient, and takes one Adam step on new
    arrays.  Returns ``(trained params, per-epoch losses)``."""
    X = dataset.inputs
    y = dataset.utilities[:, [sender]]
    flat = flatten_params(params)
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    t = 0
    losses = []
    for epoch in range(cfg.epochs):
        perm = substream(cfg.seed, f"shuffle:{epoch}").permutation(len(dataset))
        epoch_sq = 0.0
        for start in range(0, len(dataset), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            xb, yb = X[idx], y[idx]
            current = unflatten_params(params, flat)
            pred = forward(current, xb)
            err = pred - yb
            epoch_sq += float(np.sum(err**2))
            upstream = 2.0 * err / err.size
            grad = flatten_params(backward(current, xb, lambda out: upstream).params)
            t += 1
            m = BETA1 * m + (1 - BETA1) * grad
            v = BETA2 * v + (1 - BETA2) * grad**2
            m_hat = m / (1 - BETA1**t)
            v_hat = v / (1 - BETA2**t)
            flat = flat - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + EPS_ADAM)
        losses.append(epoch_sq / y.size)
    return unflatten_params(params, flat), losses


def reference_extragradient(nets, init_logits, cfg: EgConfig) -> np.ndarray:
    """Per-restart, single-row oracle for `extragradient`: each
    (n, states, signals) restart of the (R, n, states, signals) logits ascends
    on its own, and each sender's input gradient is one `backward` call on
    the flat joint policy as a batch of one row."""
    out = []
    for logits in np.array(init_logits, dtype=float):
        n, states, signals = logits.shape

        def direction(logits):
            policies = softmax_rows(logits)
            d = np.zeros_like(logits)
            for j, net in enumerate(nets):
                g = backward(net, policies.reshape(1, -1), np.ones_like).input.reshape(n, states, signals)[j]
                d[j] = policies[j] * (g - np.sum(g * policies[j], axis=1, keepdims=True))
            return d

        for _ in range(cfg.steps):
            half = logits + cfg.learning_rate * direction(logits)
            logits = logits + cfg.learning_rate * direction(half)
        out.append(softmax_rows(logits))
    return np.array(out)


def linear_piece(params: MlpParams, pattern):
    """Coefficients (M, z) of the affine function the net computes on the
    piece with this activation pattern: output = M x + z."""
    dims = params.dims
    M = params.weights[0].copy()
    z = params.biases[0].copy()
    off = 0
    for l in range(1, len(params.weights)):
        r = np.asarray(pattern[off : off + dims[l]], dtype=float)
        off += dims[l]
        M = params.weights[l] @ (r[:, None] * M)
        z = params.weights[l] @ (r * z) + params.biases[l]
    return M, z


def grid_best_response(game: GameInstance, sender, others, tie, step=0.01):
    """Brute-force oracle: best true utility of `sender` over a grid of its
    policies at the given step (binary signal alphabets only)."""
    assert game.signals == 2, "grid oracle enumerates the 2-signal simplex product"
    ticks = np.round(np.arange(0.0, 1.0 + step / 2, step), 10)
    grids = np.meshgrid(*[ticks] * game.states, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    pol = np.zeros((pts.shape[0], game.states, 2))
    pol[:, :, 0] = pts
    pol[:, :, 1] = 1.0 - pts
    profiles = np.zeros((pts.shape[0], game.n_senders, game.states, game.signals))
    k = 0
    for j in range(game.n_senders):
        if j == sender:
            profiles[:, j] = pol
        else:
            profiles[:, j] = others[k][None]
            k += 1
    return float(ex_ante_utilities_batch(game, profiles, tie)[:, sender].max())


def reference_best_response_fixed_interpretation(game: GameInstance, sender, others, interp: FixedMap):
    """Loop oracle for the fixed-interpretation best response: one LP whose
    objective and IC rows are emitted context by context, own signal by own
    signal, action by action, each joint signal's action read from the table
    through its tuple.  Returns a `BestResponseResult` (`feasible=False`
    when no policy keeps the interpretation incentive compatible)."""
    others = [validate_policy(game, p) for p in others]
    table = interp.check(game)
    W = product_weights(game.prior, np.reshape(others, (len(others), game.states, game.signals)))
    ctx = joint_signals(len(others), game.signals) if others else np.zeros((1, 0), dtype=int)
    u_i = game.sender_utilities[sender]
    V = game.receiver_utility
    n_states, n_sig = game.states, game.signals
    nvar = n_states * n_sig
    c = np.zeros(nvar)
    rows = []
    for r in np.nonzero(W.max(axis=1) > 0)[0]:
        for sig in range(n_sig):
            signal = [int(s) for s in ctx[r]]
            signal.insert(sender, sig)
            a = int(table[joint_signal_index(signal, n_sig)])
            c[sig:nvar:n_sig] += W[r] * u_i[:, a]
            for b in range(game.actions):
                vec = W[r] * (V[:, a] - V[:, b])
                if b != a and np.max(np.abs(vec)) > 1e-14:
                    row = np.zeros(nvar)
                    row[sig:nvar:n_sig] = -vec
                    rows.append(row)
    A_eq = np.kron(np.eye(n_states), np.ones(n_sig))
    res = lpmod.solve_lp(one_lp(c, np.array(rows).reshape(-1, nvar), np.zeros(len(rows)), A_eq, np.ones(n_states)))
    if res.status != lpmod.OPTIMAL:
        return BestResponseResult(policy=None, utility=-np.inf, action_map=table, feasible_maps=0, feasible=False)
    pol = np.clip(res.x.reshape(n_states, n_sig), 0.0, None)
    pol /= pol.sum(axis=1, keepdims=True)
    profile = np.stack([*others[:sender], pol, *others[sender:]])
    value = float(ex_ante_utilities_fixed_interpretation(game, profile, interp)[sender])
    return BestResponseResult(policy=pol, utility=value, action_map=table, feasible_maps=1)


def reference_best_response_exact(game: GameInstance, sender, others, tie, *, incumbent=None):
    """Multiset oracle for the exact best response: every multiset of
    `signals` combos (dead ones included) is an assignment of one combo per
    own signal, and each gets its IC LP, best-first by the IC-free bound,
    through the same strictness, `fragile` and tie-rule re-evaluation steps
    as `best_response_exact`."""
    others, W, joint = _opponent_contexts(game, sender, others)

    def true_utility(pi):
        prof = _profile_with(others, sender, pi)
        return float(ex_ante_utilities(game, prof, tie)[0][sender]), prof

    combos = list(itertools.product(*[_producible_actions(game, row, tie) for row in W]))
    ic = _IcLp(game, sender, W, combos)
    best_value, best_policy, best_table, best_strict = -np.inf, None, None, None
    if incumbent is not None:
        inc = validate_policy(game, incumbent)
        best_value, prof = true_utility(inc)
        best_policy = inc
        best_table = induced_action_map(game, prof, tie)

    def bound(assignment):
        return float(np.maximum.reduce([ic.obj[k] for k in assignment]).sum())

    multisets = sorted(itertools.combinations_with_replacement(range(len(combos)), game.signals),
                       key=bound, reverse=True)
    feasible_count = 0
    for assignment in multisets:
        if bound(assignment) <= best_value + 1e-12:
            break
        res = lpmod.solve_lp(reference_ic_lp(ic, assignment))
        if res.status != lpmod.OPTIMAL:
            continue
        feasible_count += 1
        if res.value <= best_value + 1e-12:
            continue
        pi_star = ic.policy(res.x, game.signals)
        slack = lpmod.solve_lp(reference_ic_lp(ic, assignment, with_slack=True))
        strict = (slack.status == lpmod.OPTIMAL and slack.value > TIE_TOL
                  and not any(ic.fragile[k] for k in assignment))
        if strict:
            table = _full_table(game, joint, combos, assignment)
            prof = _profile_with(others, sender, pi_star)
            value = float(ex_ante_utilities_fixed_interpretation(game, prof, FixedMap(tuple(table)))[sender])
            if value > best_value:
                best_value, best_policy, best_table = value, pi_star, table
                best_strict = ic.policy(slack.x, game.signals)
        else:
            cands = [pi_star]
            if slack.status == lpmod.OPTIMAL:
                cands.append(ic.policy(slack.x, game.signals))
            for cand in cands:
                val, prof = true_utility(cand)
                if val > best_value:
                    best_value, best_policy = val, cand
                    best_table = induced_action_map(game, prof, tie)
                    best_strict = None
    return BestResponseResult(policy=best_policy, utility=float(best_value), action_map=best_table,
                              feasible_maps=feasible_count, strict_point=best_strict)


def one_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> lpmod.LpStack:
    """max c@x  s.t.  A_ub@x <= b_ub,  A_eq@x == b_eq,  x >= 0, as a stack of
    one LP (float copies; an absent constraint kind has no rows).  Shapes
    are not checked here: `solve_lps` checks them."""
    c = np.array(c, dtype=float).ravel()
    n = c.size

    def rows(A, b):
        if A is None:
            return np.zeros((0, n)), np.zeros(0)
        return np.array(A, dtype=float).reshape(-1, n), np.array(b, dtype=float).ravel()

    (A_ub, b_ub), (A_eq, b_eq) = rows(A_ub, b_ub), rows(A_eq, b_eq)
    return lpmod.LpStack(c[None], A_ub[None], b_ub[None], A_eq[None], b_eq[None])


def stack_lps(lps) -> lpmod.LpStack:
    """One stack of the one-LP stacks `lps`, which share a shape."""
    return lpmod.LpStack(*(np.concatenate(arrays) for arrays in zip(*(lp_arrays(lp) for lp in lps))))


def unstack(lps: lpmod.LpStack) -> list:
    """The LPs of a stack, one one-LP stack each."""
    return [lpmod.LpStack(*(a[k : k + 1] for a in lp_arrays(lps))) for k in range(len(lps))]


def lp_arrays(lps: lpmod.LpStack) -> tuple:
    """``(c, A_ub, b_ub, A_eq, b_eq)`` of a stack."""
    return lps.c, lps.A_ub, lps.b_ub, lps.A_eq, lps.b_eq


def reference_ic_lp(ic: _IcLp, assignment, with_slack=False) -> lpmod.LpStack:
    """One IC LP of `ic`, built block by block from its combos' rows: the
    oracle for the stacked builder `_IcLp.lps`."""
    n_states, n_cols = ic.shape[0], len(assignment)
    nvar = n_states * n_cols
    extra = 1 if with_slack else 0
    c = np.zeros(nvar + extra)
    n_rows = sum(ic.rows[k].shape[0] for k in assignment) + extra
    A_ub = np.zeros((n_rows, nvar + extra))
    r0 = 0
    for sig, k in enumerate(assignment):
        block = ic.rows[k]
        if block.shape[0]:
            A_ub[r0 : r0 + block.shape[0], sig:nvar:n_cols] = -block
            if with_slack:
                A_ub[r0 : r0 + block.shape[0], -1] = 1.0
            r0 += block.shape[0]
        if not with_slack:
            c[sig:nvar:n_cols] += ic.obj[k]
    A_eq = np.zeros((n_states, nvar + extra))
    A_eq[np.arange(nvar) // n_cols, np.arange(nvar)] = 1.0
    b_ub = np.zeros(n_rows)
    if with_slack:
        c[-1] = 1.0
        A_ub[-1, -1] = 1.0
        b_ub[-1] = ic.slack_cap
    return one_lp(c, A_ub, b_ub, A_eq, np.ones(n_states))


def reference_sequential_best_response(game: GameInstance, sender, others, tie, *, incumbent=None):
    """Sequential oracle for the exact best response: one liveness LP per
    combo, then the IC LP of every subset of live combos in bound order,
    each built by `reference_ic_lp` and solved alone by `reference_solve_lp`
    when it is reached, with no superset pruning.  An `LpFailure` of a
    reached LP propagates."""
    others, W, joint = _opponent_contexts(game, sender, others)

    def true_utility(pi):
        prof = _profile_with(others, sender, pi)
        return float(ex_ante_utilities(game, prof, tie)[0][sender]), prof

    combos = list(itertools.product(*[_producible_actions(game, row, tie) for row in W]))
    ic = _IcLp(game, sender, W, combos)
    best_value, best_policy, best_table, best_strict = -np.inf, None, None, None
    if incumbent is not None:
        inc = validate_policy(game, incumbent)
        best_value, prof = true_utility(inc)
        best_policy = inc
        best_table = induced_action_map(game, prof, tie)

    def live(k):
        rows = ic.rows[k]
        cone = one_lp(np.zeros(game.states), -rows, np.zeros(rows.shape[0]), np.ones((1, game.states)), np.ones(1))
        try:
            return reference_solve_lp(cone).status == lpmod.OPTIMAL
        except lpmod.LpFailure:
            return True

    alive = [k for k in range(len(combos)) if live(k)] if ic.obj.max(axis=0).sum() > best_value + 1e-12 else []
    subsets = [s for r in range(1, min(game.signals, len(alive)) + 1) for s in itertools.combinations(alive, r)]

    def bound(assignment):
        return float(np.maximum.reduce([ic.obj[k] for k in assignment]).sum())

    subsets.sort(key=bound, reverse=True)
    feasible_count = 0
    for assignment in subsets:
        if bound(assignment) <= best_value + 1e-12:
            break
        res = reference_solve_lp(reference_ic_lp(ic, assignment))
        if res.status != lpmod.OPTIMAL:
            continue
        feasible_count += 1
        if res.value <= best_value + 1e-12:
            continue
        pi_star = ic.policy(res.x, len(assignment))
        slack = reference_solve_lp(reference_ic_lp(ic, assignment, with_slack=True))
        strict = (slack.status == lpmod.OPTIMAL and slack.value > TIE_TOL
                  and not any(ic.fragile[k] for k in assignment))
        if strict:
            table = _full_table(game, joint, combos, assignment)
            prof = _profile_with(others, sender, pi_star)
            value = float(ex_ante_utilities_fixed_interpretation(game, prof, FixedMap(tuple(table)))[sender])
            if value > best_value:
                best_value, best_policy, best_table = value, pi_star, table
                best_strict = ic.policy(slack.x, len(assignment))
        else:
            cands = [pi_star]
            if slack.status == lpmod.OPTIMAL:
                cands.append(ic.policy(slack.x, len(assignment)))
            for cand in cands:
                val, prof = true_utility(cand)
                if val > best_value:
                    best_value, best_policy = val, cand
                    best_table = induced_action_map(game, prof, tie)
                    best_strict = None
    return BestResponseResult(policy=best_policy, utility=float(best_value), action_map=best_table,
                              feasible_maps=feasible_count, strict_point=best_strict)


def _reference_pivot(T, basis, row, col):
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _reference_run_simplex(T, basis, cost, allowed, budget):
    m = basis.size
    pivots = 0
    while True:
        z = cost.copy()
        z -= cost[basis] @ T[:m, :-1]
        z[~allowed] = 0.0
        z[basis] = 0.0
        cand = np.nonzero(z > lpmod.PIVOT_TOL)[0]
        if cand.size == 0:
            return lpmod.OPTIMAL, pivots
        col = int(cand[0])
        colvals = T[:m, col]
        pos = np.nonzero(colvals > lpmod.PIVOT_TOL)[0]
        if pos.size == 0:
            return lpmod.UNBOUNDED, pivots
        ratios = T[pos, -1] / colvals[pos]
        best = ratios.min()
        ties = pos[ratios <= best + 1e-12]
        row = int(ties[np.argmin(basis[ties])])
        _reference_pivot(T, basis, row, col)
        pivots += 1
        if pivots > budget:
            raise lpmod.LpFailure(f"simplex exceeded {budget} pivots")


def reference_solve_lp(lp: lpmod.LpStack, max_pivots: int = lpmod.MAX_PIVOTS) -> lpmod.LpResult:
    """Two-phase tableau simplex of a one-LP stack, with an explicit set-up
    pivot onto every unflipped slack column and full-tableau rank-one
    updates: the oracle for `solve_lp`, which must return the same status,
    `x` bytes, value and failure message."""
    (c,), (A_ub,), (b_ub,), (A_eq,), (b_eq,) = lp_arrays(lp)
    n = c.size
    m_ub, m_eq = A_ub.shape[0], A_eq.shape[0]
    m = m_ub + m_eq
    A = np.zeros((m, n + m_ub))
    rhs = np.concatenate([b_ub, b_eq])
    A[:m_ub, :n] = A_ub
    A[:m_ub, n : n + m_ub] = np.eye(m_ub)
    A[m_ub:, :n] = A_eq
    flip = rhs < 0
    A[flip] *= -1
    rhs = np.abs(rhs)
    n_total = n + m_ub + m
    T = np.zeros((m, n_total + 1))
    T[:, : n + m_ub] = A
    T[:, n + m_ub : n_total] = np.eye(m)
    T[:, -1] = rhs
    basis = np.arange(n + m_ub, n_total)
    for i in range(m_ub):
        if not flip[i]:
            _reference_pivot(T, basis, i, n + i)
    budget = max_pivots
    phase1_cost = np.zeros(n_total)
    phase1_cost[n + m_ub :] = -1.0
    status, used = _reference_run_simplex(T, basis, phase1_cost, np.ones(n_total, dtype=bool), budget)
    budget -= used
    if -float(phase1_cost[basis] @ T[:m, -1]) > lpmod.FEAS_TOL:
        return lpmod.LpResult(status=lpmod.INFEASIBLE)
    art_start = n + m_ub
    for i in range(m):
        if basis[i] >= art_start:
            row_cands = np.nonzero(np.abs(T[i, :art_start]) > lpmod.PIVOT_TOL)[0]
            if row_cands.size:
                _reference_pivot(T, basis, i, int(row_cands[0]))
    phase2_cost = np.zeros(n_total)
    phase2_cost[:n] = c
    allowed = np.ones(n_total, dtype=bool)
    allowed[art_start:] = False
    status, used = _reference_run_simplex(T, basis, phase2_cost, allowed, budget - 1)
    if status == lpmod.UNBOUNDED:
        return lpmod.LpResult(status=lpmod.UNBOUNDED)
    x_full = np.zeros(n_total)
    keep = basis < n_total
    x_full[basis[keep]] = T[:m, -1][keep]
    x = x_full[:n]
    value = float(c @ x)
    if m_ub and np.any(A_ub @ x - b_ub > lpmod.CERT_TOL):
        raise lpmod.LpFailure("inequality violated beyond certified tolerance")
    if m_eq and np.any(np.abs(A_eq @ x - b_eq) > lpmod.CERT_TOL):
        raise lpmod.LpFailure("equality violated beyond certified tolerance")
    if np.any(x < -lpmod.CERT_TOL):
        raise lpmod.LpFailure("negative variable beyond certified tolerance")
    return lpmod.LpResult(status=lpmod.OPTIMAL, x=x, value=value)


def reference_perturb(policy, eps, rng):
    """One (states, signals) deviation: uniform entrywise noise, clamped,
    all-zero rows made uniform, rows renormalized."""
    p = np.clip(policy + rng.uniform(-eps, eps, size=policy.shape), 0.0, 1.0)
    sums = p.sum(axis=1, keepdims=True)
    bad = sums[:, 0] <= 1e-12
    if np.any(bad):
        p[bad] = 1.0 / policy.shape[1]
        sums = p.sum(axis=1, keepdims=True)
    return p / sums


def reference_local_ne_verify(game: GameInstance, policy, tie, eps, seed, *, samples=None):
    """Per-deviation oracle for the eps-ball check: one perturbation and one
    single-profile exact evaluation per deviation, senders in turn, the
    first strictly larger gain wins."""
    policy = validate_joint_policy(game, policy)
    K = local_ne_sample_count(game) if samples is None else int(samples)

    def utilities(prof):
        if isinstance(tie, FixedMap):
            return ex_ante_utilities_fixed_interpretation(game, prof, tie)
        return ex_ante_utilities(game, prof, tie)[0]

    base = utilities(policy)
    worst_gap = 0.0
    witness = None
    for j in range(game.n_senders):
        rng = substream(seed, f"deviation:{j}")
        for _ in range(K):
            dev = reference_perturb(policy[j], eps, rng)
            prof = policy.copy()
            prof[j] = dev
            gap = float(utilities(prof)[j]) - base[j]
            if gap > max(IMPROVE_TOL, worst_gap):
                worst_gap = gap
                witness = (j, dev)
    if witness is None:
        return EquilibriumReport(EPSILON_LOCAL, base, worst_gap, samples=K, eps=eps)
    return EquilibriumReport(REFUTED, base, worst_gap, witness[0], witness[1], samples=K, eps=eps)


def enumerate_basic_optima(c, A_ub, b_ub):
    """Vertex-enumeration LP oracle for max c@x, A_ub x <= b_ub, x >= 0.

    Enumerates all basic solutions of the slack-extended system and keeps
    the feasible ones; returns the best objective or None if infeasible.
    """
    c = np.asarray(c, float)
    A = np.asarray(A_ub, float)
    b = np.asarray(b_ub, float)
    m, n = A.shape
    full = np.hstack([A, np.eye(m)])
    best = None
    for cols in itertools.combinations(range(n + m), m):
        B = full[:, cols]
        try:
            xb = np.linalg.solve(B, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(xb < -1e-9):
            continue
        x = np.zeros(n + m)
        x[list(cols)] = xb
        if np.any(A @ x[:n] - b > 1e-9):
            continue
        val = float(c @ x[:n])
        if best is None or val > best:
            best = val
    return best


def support_enumeration_2x2(u1, u2):
    """All Nash equilibria of a 2x2 bimatrix game (row maximizes u1).

    Returns a list of (x, y) mixed strategies; degenerate games return the
    pure equilibria plus the interior mixed point when it exists.
    """
    u1 = np.asarray(u1, float)
    u2 = np.asarray(u2, float)
    out = []
    for i, j in itertools.product(range(2), range(2)):
        if u1[i, j] >= u1[1 - i, j] and u2[i, j] >= u2[i, 1 - j]:
            x = np.eye(2)[i]
            y = np.eye(2)[j]
            out.append((x, y))
    # interior mixed: each player mixes to make the other indifferent
    d2 = (u2[0, 0] - u2[0, 1]) + (u2[1, 1] - u2[1, 0])
    d1 = (u1[0, 0] - u1[1, 0]) + (u1[1, 1] - u1[0, 1])
    if abs(d2) > 1e-12 and abs(d1) > 1e-12:
        p = (u2[1, 1] - u2[1, 0]) / d2          # row player's weight on row 0
        q = (u1[1, 1] - u1[0, 1]) / d1          # column player's weight on col 0
        if 1e-9 < p < 1 - 1e-9 and 1e-9 < q < 1 - 1e-9:
            out.append((np.array([p, 1 - p]), np.array([q, 1 - q])))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
