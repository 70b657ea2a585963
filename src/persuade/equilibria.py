"""Equilibrium machinery: exact best response, Nash verification, the
optimal-action-revealing profile, fixed-interpretation best response, and
sampled local-equilibrium checks.

The exact best response enumerates receiver action maps (joint signal ->
action) as subsets of live combos (one receiver action per opponent
context, whose incentive cone holds a nonzero own-signal column), solves
one LP per subset over the responding sender's policy, and ranks
candidates against the receiver's true tie-broken behavior.  A map's
LP value is trusted only when the map's incentive region has a strictly
incentive-compatible interior; there the LP optimum is the supremum of the
truly attainable utilities.  Boundary-only maps (the receiver is exactly
indifferent everywhere in the region) are scored by re-evaluating their LP
vertex under the actual tie rule, which is what the receiver would do.

`DEFAULT_NASH_TOL`, `DEFAULT_MAP_CAP`, `LOCAL_SAMPLE_CAP`, `LOCAL_SAMPLES_PER_DIM`
and `DEFAULT_LOCAL_EPS` are module constants, read when a function runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import lp as lpmod
from .game import (
    TIE_TOL,
    CapError,
    FixedMap,
    GameInstance,
    TieRule,
    _column_sum,
    _decision_pass,
    _sum_last,
    _weight_planes,
    batch_rows,
    check_term_cap,
    ex_ante_utilities,
    ex_ante_utilities_fixed_interpretation,
    induced_action_map,
    receiver_optima,
    validate_joint_policy,
    validate_policy,
)
from .rng import substream

EXACT = "exact"
EPSILON_LOCAL = "epsilon_local"
REFUTED = "refuted"

DEFAULT_NASH_TOL = 1e-7
DEFAULT_MAP_CAP = 10**6
# Pivot budget of a subset LP solved ahead of its turn (best_response_exact):
# far above what an IC LP that terminates takes, far below the full budget
# that an LP cycling to the pivot cap would spend before it is dropped unread.
SPECULATIVE_PIVOTS = 10**4
IMPROVE_TOL = 1e-9


class PreconditionError(ValueError):
    """A documented precondition of an equilibrium construction failed."""


@dataclass
class BestResponseResult:
    """Best response of one sender against fixed opponents.

    `utility` always equals the fixed-interpretation ex-ante utility of
    ``(policy, action_map)``.  When the winning map has a strictly
    incentive-compatible interior the value is the supremum of truly
    attainable utilities (approached by shrinking toward `strict_point`);
    otherwise it is attained exactly at `policy`.  `feasible_maps` counts
    the candidate action maps whose incentive-compatibility LP was read and
    feasible (for the exact best response, subsets of live combos reached
    in bound order; liveness LPs, subsets a solved superset rules out and
    LPs solved ahead but never read are not counted).
    """

    policy: np.ndarray | None
    utility: float
    action_map: np.ndarray | None
    feasible_maps: int
    feasible: bool = True
    strict_point: np.ndarray | None = field(default=None, repr=False)


@dataclass
class EquilibriumReport:
    verdict: str                         # exact | epsilon_local | refuted
    utilities: np.ndarray                # per-sender ex-ante utilities of the profile
    max_improvement: float = 0.0
    witness_sender: int | None = None
    witness_policy: np.ndarray | None = None
    samples: int = 0
    eps: float | None = None


@dataclass(frozen=True)
class RevelationCertificate:
    """Why the revealing profile is deviation-proof.

    `zeta` is a set of joint-signal codewords with pairwise Hamming
    distance >= 2, so any n-1 coordinates already determine the codeword;
    a unilateral deviation cannot change what the receiver learns.
    """

    zeta: tuple
    assignment: dict                     # action -> codeword
    optimal_actions: np.ndarray          # state -> unique receiver-optimal action
    capacity_note: str | None = None


# ---------------------------------------------------------------------------
# shared helpers


def _opponent_contexts(game: GameInstance, sender: int, others) -> tuple[list, np.ndarray, np.ndarray]:
    """Check `sender` and its opponents; the opponents' reachable contexts.

    Returns ``(others, W, joint)``: the validated opponent policies,
    ``W[r, w] = prior(w) * prod_j pi_j(ctx_j | w)`` over the opponent
    contexts of positive weight (flat order, first opponent most
    significant), and ``joint[r, s]``, the flat joint-signal index of
    context r with the sender's own signal s.  Raises the term-cap
    `CapError` first, before any context is built.
    """
    check_term_cap(game)
    if not 0 <= sender < game.n_senders:
        raise ValueError(f"sender {sender} out of range")
    others = [validate_policy(game, p) for p in others]
    if len(others) != game.n_senders - 1:
        raise ValueError(f"expected {game.n_senders - 1} opponent policies")
    n, S = game.n_senders, game.signals
    W = _weight_planes(game.prior, np.reshape(others, (1, n - 1, game.states, S)))[:, :, 0].T
    relevant = np.nonzero(W.max(axis=1) > 0)[0]
    # every joint signal's flat index, the sender's own signal on the last axis
    joint = np.moveaxis(np.arange(S**n).reshape((S,) * n), sender, -1).reshape(-1, S)
    return others, W[relevant], joint[relevant]


def _profile_with(others, sender, pi):
    return np.stack([*others[:sender], pi, *others[sender:]])


def _full_table(game: GameInstance, joint: np.ndarray, combos, assignment) -> np.ndarray:
    """Assemble a total joint-signal -> action table from per-context choices.

    Own signal s plays the combo ``combos[assignment[s]]``, one action per
    reachable context.  Unreachable joint signals, and those of the own
    signals the assignment leaves over, are filled with action 0.
    """
    table = np.zeros(game.n_joint_signals, dtype=int)
    for sig, k in enumerate(assignment):
        table[joint[:, sig]] = combos[k]
    return table


class _IcLp:
    """The incentive-compatibility LP over one sender's policy.

    A combo names one receiver action per reachable opponent context (the
    rows of `W`); an assignment gives each of the first ``len(assignment)``
    own signals a combo, and the own signals it leaves over are never sent
    (their columns are not in the LP).  For an assignment, :meth:`lps`
    maximizes the sender's utility when the receiver plays the assigned
    actions, subject to each of them staying a receiver best response at
    its joint signal (the revelation-principle LP).  With the strictness
    slack it instead maximizes the smallest IC margin.  The objective, IC
    rows and `fragile` flag of a combo are built once, however many
    assignments use it; rows run signal-major, then context, then action.
    """

    def __init__(self, game: GameInstance, sender: int, W: np.ndarray, combos):
        u_i = game.sender_utilities[sender]
        V = game.receiver_utility
        self.shape = (game.states, game.signals)
        self.slack_cap = 10.0 + 10.0 * np.max(np.abs(V))

        # A combo is "fragile" if some declared action is permanently tied
        # with another action on a multi-state face: there the tie rule's
        # pick can vary over the face, so the LP value cannot be trusted
        # without re-evaluation.
        face_sizes = np.count_nonzero(W > 0, axis=1)
        obj, self.rows, self.fragile = [], [], []
        for combo in combos:
            o = np.zeros(game.states)
            rows = []
            fragile = False
            for r, a in enumerate(combo):
                o += W[r] * u_i[:, a]
                diffs = V[:, a][:, None] - V
                for b in range(game.actions):
                    if b == a:
                        continue
                    vec = W[r] * diffs[:, b]
                    if np.max(np.abs(vec)) > 1e-14:
                        rows.append(vec)
                    elif face_sizes[r] > 1:
                        fragile = True
            obj.append(o)
            self.rows.append(np.array(rows).reshape(-1, game.states))
            self.fragile.append(fragile)
        self.obj = np.array(obj)
        # each combo's IC rows negated (as A_ub rows), zero-padded to one length
        self.counts = [rows.shape[0] for rows in self.rows]
        self.neg_rows = np.zeros((len(self.rows), max(self.counts, default=0), game.states))
        for k, rows in enumerate(self.rows):
            self.neg_rows[k, : rows.shape[0]] = -rows

    def lps(self, assignments, with_slack: bool = False) -> lpmod.LpStack:
        """The LPs of `assignments`, stacked: they share their length and the
        IC row count of each own signal's combo."""
        a = np.array(assignments)
        K, n_cols = a.shape
        n_states = self.shape[0]
        nvar = n_states * n_cols
        extra = 1 if with_slack else 0
        counts = [self.counts[k] for k in assignments[0]]
        n_rows = sum(counts) + extra
        c = np.zeros((K, nvar + extra))
        A_ub = np.zeros((K, n_rows, nvar + extra))
        r0 = 0
        for sig, nb in enumerate(counts):
            if nb:
                A_ub[:, r0 : r0 + nb, sig:nvar:n_cols] = self.neg_rows[a[:, sig], :nb]
                if with_slack:
                    A_ub[:, r0 : r0 + nb, -1] = 1.0
                r0 += nb
            if not with_slack:
                c[:, sig:nvar:n_cols] += self.obj[a[:, sig]]
        A_eq = np.zeros((K, n_states, nvar + extra))
        A_eq[:, np.arange(nvar) // n_cols, np.arange(nvar)] = 1.0
        b_ub = np.zeros((K, n_rows))
        if with_slack:
            c[:, -1] = 1.0
            A_ub[:, -1, -1] = 1.0
            b_ub[:, -1] = self.slack_cap
        return lpmod.LpStack(c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=np.ones((K, n_states)))

    def solve(self, assignments) -> dict:
        """Each assignment's LP result (or `LpFailure`); the LPs of one shape
        and row layout are solved as one stack.  The first assignment gets
        the full pivot budget, the others `SPECULATIVE_PIVOTS`."""
        groups: dict = {}
        for assignment in assignments:
            groups.setdefault(tuple(self.counts[k] for k in assignment), []).append(assignment)
        out = {}
        for group in groups.values():
            caps = [lpmod.MAX_PIVOTS if a == assignments[0] else SPECULATIVE_PIVOTS for a in group]
            out.update(zip(group, lpmod.solve_lps(self.lps(group), caps)))
        return out

    def live(self) -> list:
        """The combos whose cone of own-signal columns holds a nonzero point:
        one feasibility LP per combo over a column scaled to total mass one,
        the combos with equally many IC rows stacked.

        A dead combo can never carry mass, so no assignment needs it.  An LP
        that fails keeps the combo, which costs LPs but never an answer.
        """
        n_states = self.shape[0]
        counts = np.array(self.counts)
        alive = np.ones(counts.size, dtype=bool)
        for nb in sorted(set(self.counts)):
            ks = np.flatnonzero(counts == nb)
            cones = lpmod.LpStack(
                c=np.zeros((ks.size, n_states)),
                A_ub=self.neg_rows[ks, :nb],
                b_ub=np.zeros((ks.size, nb)),
                A_eq=np.ones((ks.size, 1, n_states)),
                b_eq=np.ones((ks.size, 1)),
            )
            for k, res in zip(ks, lpmod.solve_lps(cones)):
                alive[k] = isinstance(res, lpmod.LpFailure) or res.status == lpmod.OPTIMAL
        return np.flatnonzero(alive).tolist()

    def policy(self, x: np.ndarray, n_cols: int) -> np.ndarray:
        """The policy of an LP solution over the first `n_cols` own signals,
        LP round-off clamped so it passes strict policy validation."""
        p = np.zeros(self.shape)
        p[:, :n_cols] = np.clip(x[: self.shape[0] * n_cols].reshape(self.shape[0], n_cols), 0.0, None)
        return p / p.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# candidate receiver actions per opponent context


def _producible_actions(game: GameInstance, weight_row: np.ndarray, tie: TieRule) -> tuple:
    """Actions the receiver can actually end up taking at some posterior
    reachable in this context.

    The reachable posteriors form the simplex over the face of states with
    positive weight.  An action is producible if it is the strict argmax
    somewhere on that face, or if the tie rule picks it at a tie.  Faces of
    one or two states are handled exactly: the rule decides at the vertices,
    the pairwise indifference points and the midpoints between them.  Larger
    faces use a strict-margin LP per action plus the rule's decisions at the
    centroid and the witness posteriors, a superset that is exact for games
    without higher-dimensional ties.  The rule decides at all the probes in
    one call.
    """
    face = np.nonzero(weight_row > 0)[0]
    V = game.receiver_utility
    out: set[int] = set()
    probes = []                                 # points of the face's simplex

    if face.size == 1:
        probes.append(np.ones(1))
    elif face.size == 2:
        vA, vB = V[face[0]], V[face[1]]
        points = {0.0, 1.0}
        for a in range(game.actions):
            for b in range(a + 1, game.actions):
                d0 = vB[a] - vB[b]
                d1 = vA[a] - vA[b]
                if d0 != d1:
                    t = d0 / (d0 - d1)
                    if 0.0 < t < 1.0:
                        points.add(float(t))
        knots = sorted(points)
        for t in knots + [(knots[i] + knots[i + 1]) / 2 for i in range(len(knots) - 1)]:
            probes.append(np.array([t, 1.0 - t]))
    else:                                       # strict-margin LP per action
        k = face.size
        Vf = V[face]
        centroid = np.full(k, 1.0 / k)
        probes.append(centroid)
        for a in range(game.actions):
            diffs = Vf[:, a][:, None] - Vf          # (k, actions)
            cols = [b for b in range(game.actions) if np.max(np.abs(diffs[:, b])) > 1e-14]
            if not cols:
                continue                            # `a` ties everywhere: the centroid probe decides
            # max delta  s.t.  q in simplex(face), diffs[:, b] @ q >= delta
            c = np.zeros(k + 1)
            c[-1] = 1.0
            A_ub = np.zeros((len(cols) + 1, k + 1))
            for r, b in enumerate(cols):
                A_ub[r, :k] = -diffs[:, b]
                A_ub[r, -1] = 1.0
            A_ub[-1, -1] = 1.0                      # delta bounded to keep the LP finite
            b_ub = np.zeros(len(cols) + 1)
            b_ub[-1] = 2.0 * np.max(np.abs(Vf)) + 1.0
            A_eq = np.zeros((1, k + 1))
            A_eq[0, :k] = 1.0
            stack = lpmod.LpStack(c=c[None], A_ub=A_ub[None], b_ub=b_ub[None], A_eq=A_eq[None], b_eq=np.ones((1, 1)))
            res = lpmod.solve_lp(stack)
            if res.status != lpmod.OPTIMAL:
                continue
            delta = res.value
            if delta > TIE_TOL:
                out.add(a)
            elif delta >= -TIE_TOL:
                probes.append(res.x[:k])
    mu = np.zeros((len(probes), game.states))
    mu[:, face] = probes
    out.update(tie.best_actions(game, mu).tolist())
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# exact best response


def best_response_exact(
    game: GameInstance,
    sender: int,
    others,
    tie: TieRule,
    *,
    incumbent: np.ndarray | None = None,
) -> BestResponseResult:
    """Exact best response of `sender` against the fixed `others`.

    A combo names one receiver action per reachable opponent context.  For
    a fixed combo the incentive constraints on an own-signal column are
    homogeneous, so the columns it can carry form a cone: own signals that
    share a combo merge into one, and a combo whose cone is {0} (dead, by
    one feasibility LP each) never carries mass.  Candidate action maps are
    therefore the subsets of one to ``min(signals, live combos)`` live
    combos, one own signal each, the remaining own signals never sent.  The
    subsets are taken best-first by an IC-free bound until none can beat
    the best value so far; each one's incentive-compatibility LP is read in
    that order, and the best value the receiver's actual behavior supports
    is returned.  `others` are the remaining senders' policies in ascending
    sender order.  Under a FixedMap the result is that of
    :func:`best_response_fixed_interpretation`; `incumbent` and
    `DEFAULT_MAP_CAP` play no part there.

    Adding a combo never lowers the LP value (its column may stay zero), so
    a subset is skipped once a solved superset was infeasible or no better
    than the best value.  The result is the one without pruning, but a
    skipped subset's LP is never solved: an `LpFailure` it would raise does
    not occur, so a call can return where the unpruned loop raised.

    The LPs are solved ahead in blocks of 1, 2, 4, ... up to `lp.MAX_STACK`
    subsets that still need one, the same-shape LPs of a block in one
    lockstep stack (as do the liveness LPs).  Results are read in bound
    order exactly as if each LP were solved when reached; a block's results
    that are never read (past the bound cut-off, or pruned by a superset
    solved earlier in the block) are dropped, an `LpFailure` among them
    included.  Only a block's first LP gets the full pivot budget; the
    others stop after `SPECULATIVE_PIVOTS`, and one that fails is solved
    again, with the full budget, if it is read.
    """
    if tie.check(game) is not None:
        return _fixed_interpretation_response(game, sender, others, tie)
    others, W, joint = _opponent_contexts(game, sender, others)

    def true_utility(pi):
        return float(ex_ante_utilities(game, _profile_with(others, sender, pi), tie)[0][sender])

    cands = [_producible_actions(game, row, tie) for row in W]
    n_combos = math.prod(len(c) for c in cands)
    if n_combos > DEFAULT_MAP_CAP:
        raise CapError(f"{n_combos} per-column assignments exceed the map cap of {DEFAULT_MAP_CAP}")
    combos = list(itertools.product(*cands))
    ic = _IcLp(game, sender, W, combos)

    best_value = -np.inf
    best_policy = None
    best_table = None       # the winner's map when the strict branch built it, else None
    best_strict = None
    if incumbent is not None:
        best_policy = validate_policy(game, incumbent)
        best_value = true_utility(best_policy)

    # best-first over a cheap IC-free bound so most LPs are skipped; when no
    # subset's bound can beat the incumbent, not even liveness is needed
    live = ic.live() if ic.obj.max(axis=0).sum() > best_value + 1e-12 else []
    sizes = range(1, min(game.signals, len(live)) + 1)
    n_subsets = sum(math.comb(len(live), r) for r in sizes)
    if n_subsets > DEFAULT_MAP_CAP:
        raise CapError(f"{n_subsets} subsets of {len(live)} live combos exceed the map cap of {DEFAULT_MAP_CAP}")
    # (bound, subset), best bound first; a subset's bound sums, over states,
    # its combos' best objective entry
    ranked = []
    for r in sizes:
        group = list(itertools.combinations(live, r))
        ranked += zip(ic.obj[np.array(group)].max(axis=1).sum(axis=1).tolist(), group)
    ranked.sort(key=lambda t: t[0], reverse=True)
    # floor[s]: the lowest LP value among the solved supersets of subset s
    # (-inf when one was infeasible; an IC LP is never unbounded)
    floor: dict = {}

    def needs_lp(assignment):
        return floor.get(assignment, np.inf) > best_value + 1e-12

    solved: dict = {}
    todo: list = []
    block = 1
    feasible_count = 0
    for i, (b, assignment) in enumerate(ranked):
        if b <= best_value + 1e-12:
            break
        if not needs_lp(assignment):
            continue
        res = solved.get(assignment)
        if res is None or (isinstance(res, lpmod.LpFailure) and assignment != todo[0]):
            # the next block: this subset and the following ones that need
            # an LP now, while their bound beats the incumbent (a failure
            # with the speculative pivot budget is solved again here)
            todo = []
            for j in range(i, len(ranked)):
                if len(todo) == block or ranked[j][0] <= best_value + 1e-12:
                    break
                if needs_lp(ranked[j][1]):
                    todo.append(ranked[j][1])
            solved = ic.solve(todo)
            block = min(2 * block, lpmod.MAX_STACK)
            res = solved[assignment]
        if isinstance(res, lpmod.LpFailure):
            raise res
        lp_value = res.value if res.status == lpmod.OPTIMAL else -np.inf
        for r in range(1, len(assignment)):
            for sub in itertools.combinations(assignment, r):
                floor[sub] = min(floor.get(sub, np.inf), lp_value)
        if res.status != lpmod.OPTIMAL:
            continue
        feasible_count += 1
        if res.value <= best_value + 1e-12:
            continue
        pi_star = ic.policy(res.x, len(assignment))
        slack = lpmod.solve_lp(ic.lps([assignment], with_slack=True))
        strict = (
            slack.status == lpmod.OPTIMAL
            and slack.value > TIE_TOL
            and not any(ic.fragile[k] for k in assignment)
        )
        if strict:
            table = _full_table(game, joint, combos, assignment)
            prof = _profile_with(others, sender, pi_star)
            value = float(
                ex_ante_utilities_fixed_interpretation(game, prof, FixedMap(tuple(table)))[sender]
            )
            if value > best_value:
                best_value = value
                best_policy = pi_star
                best_table = table
                best_strict = ic.policy(slack.x, len(assignment))
        else:
            cands_to_try = [pi_star]
            if slack.status == lpmod.OPTIMAL:
                cands_to_try.append(ic.policy(slack.x, len(assignment)))
            for cand in cands_to_try:
                val = true_utility(cand)
                if val > best_value:
                    best_value = val
                    best_policy = cand
                    best_table = None
                    best_strict = None

    if best_policy is None:
        raise RuntimeError("no feasible action map found; every valid policy induces one")
    if best_table is None:
        best_table = induced_action_map(game, _profile_with(others, sender, best_policy), tie)
    return BestResponseResult(
        policy=best_policy,
        utility=float(best_value),
        action_map=best_table,
        feasible_maps=feasible_count,
        strict_point=best_strict,
    )


def best_response_fixed_interpretation(game: GameInstance, sender: int, others, interp: FixedMap) -> BestResponseResult:
    """Best response when the receiver commits to the interpretation `interp`.

    The single-assignment case of the exact best response: own signal s
    plays the actions the table gives its joint signals, and one LP
    maximizes the fixed-interpretation utility subject to the
    interpretation staying incentive compatible at every reachable joint
    signal.  Infeasibility is a legal outcome (no policy of this sender
    keeps the interpretation credible) and is reported via
    ``feasible=False``.
    """
    return _fixed_interpretation_response(game, sender, others, interp)


def _fixed_interpretation_response(game, sender, others, interp: FixedMap) -> BestResponseResult:
    """Shared by both public best responses, so each call is one best response."""
    others, W, joint = _opponent_contexts(game, sender, others)
    table = interp.check(game).copy()    # the result owns its action_map
    ic = _IcLp(game, sender, W, [tuple(col) for col in table[joint].T])
    res = lpmod.solve_lp(ic.lps([tuple(range(game.signals))]))
    if res.status != lpmod.OPTIMAL:
        return BestResponseResult(policy=None, utility=-np.inf, action_map=table, feasible_maps=0, feasible=False)
    pol = ic.policy(res.x, game.signals)
    prof = _profile_with(others, sender, pol)
    value = float(ex_ante_utilities_fixed_interpretation(game, prof, interp)[sender])
    return BestResponseResult(policy=pol, utility=value, action_map=table, feasible_maps=1)


# ---------------------------------------------------------------------------
# Nash verification


def verify_nash(game: GameInstance, policy, tie: TieRule) -> EquilibriumReport:
    """Exact Nash check: no sender's best response may improve by more than `DEFAULT_NASH_TOL`.

    A refutation is only reported together with a deviation that actually
    achieves the improvement under the receiver's true behavior: the best
    response's policy, or a point on its way to `strict_point`; the witness
    is the first one (senders in turn) with the largest gain.  FixedMap tie
    rules are verified against the fixed-interpretation best response.
    """
    policy = validate_joint_policy(game, policy)
    base = ex_ante_utilities(game, policy, tie)[0]

    worst_gap = 0.0
    witness = None
    for j in range(game.n_senders):
        others = [policy[k] for k in range(game.n_senders) if k != j]
        br = best_response_exact(game, j, others, tie, incumbent=policy[j])
        if br.utility - base[j] > DEFAULT_NASH_TOL:
            candidates = [br.policy]
            if br.strict_point is not None:
                candidates += [(1 - t) * br.policy + t * br.strict_point for t in (1e-9, 1e-6, 1e-3)]
            for cand in candidates:
                val = float(ex_ante_utilities(game, _profile_with(others, j, cand), tie)[0][j])
                if val - base[j] > max(DEFAULT_NASH_TOL, worst_gap):
                    worst_gap = val - base[j]
                    witness = (j, cand)

    if witness is None:
        return EquilibriumReport(verdict=EXACT, utilities=base, max_improvement=worst_gap)
    return EquilibriumReport(
        verdict=REFUTED,
        utilities=base,
        max_improvement=worst_gap,
        witness_sender=witness[0],
        witness_policy=witness[1],
    )


# ---------------------------------------------------------------------------
# optimal-action revelation


def full_revelation_profile(game: GameInstance) -> tuple[np.ndarray, RevelationCertificate]:
    """Deterministic profile that reveals the receiver-optimal action of every state.

    Requires a unique optimal action per state and enough codewords:
    ``signals^(n-1)`` must cover the number of distinct optimal actions.
    Codewords are the checksum strings whose digit sum is 0 mod |S|, which
    gives exactly signals^(n-1) strings at pairwise Hamming distance >= 2.
    Each used action gets one codeword; every state's senders jointly send
    the codeword of its optimal action.
    """
    optima = receiver_optima(game)
    counts = optima.sum(axis=1)
    if np.any(counts != 1):
        w = int(np.argmax(counts != 1))
        raise PreconditionError(f"state {w} has {counts[w]} receiver-optimal actions; a unique optimum is required")
    f = optima.argmax(axis=1)
    used = sorted(set(int(a) for a in f))
    capacity = game.signals ** (game.n_senders - 1)
    if capacity > 10**7:
        raise CapError("codeword set too large to enumerate")
    if capacity < len(used):
        raise PreconditionError(
            f"capacity shortfall: signals^(n-1) = {capacity} < {len(used)} distinct optimal actions"
        )

    note = None
    if capacity < min(game.actions, game.states):
        note = (
            "capacity check passed on the number of distinct optimal actions; "
            "the stricter min(|actions|, |states|) reading would reject this game"
        )

    n, S = game.n_senders, game.signals
    zeta = [prefix + ((-sum(prefix)) % S,) for prefix in itertools.product(range(S), repeat=n - 1)]
    assignment = {a: zeta[k] for k, a in enumerate(used)}

    policies = np.zeros((n, game.states, S))
    for w in range(game.states):
        code = assignment[int(f[w])]
        for j in range(n):
            policies[j, w, code[j]] = 1.0
    cert = RevelationCertificate(
        zeta=tuple(zeta), assignment=assignment, optimal_actions=f, capacity_note=note
    )
    return policies, cert


# ---------------------------------------------------------------------------
# sampled local check

LOCAL_SAMPLE_CAP = 10000
LOCAL_SAMPLES_PER_DIM = 1000
DEFAULT_LOCAL_EPS = 0.005


def local_ne_sample_count(game: GameInstance) -> int:
    """Deviation sample budget per sender, `LOCAL_SAMPLES_PER_DIM` per unit of
    max(n-1, 1)(states-1)(signals-1)(actions-1), at most `LOCAL_SAMPLE_CAP`.  A
    one-sender game counts as two senders, so its deviations are sampled too."""
    size = max(game.n_senders - 1, 1) * (game.states - 1) * (game.signals - 1) * (game.actions - 1)
    return min(LOCAL_SAMPLE_CAP, LOCAL_SAMPLES_PER_DIM * size)


def perturb_policy(policy: np.ndarray, eps: float, rng) -> np.ndarray:
    """Uniform entrywise perturbation of size eps, clamped and row-renormalized.

    `policy` may carry leading axes: a (K, states, signals) stack draws its
    K perturbations in one call, with the same numbers as K calls on the
    (states, signals) slices in turn.  A row clamped to all zeros becomes
    uniform.  The renormalization can move an entry by more than eps, so a
    deviation may leave the sup-norm box of radius eps around `policy`
    (it stays on the simplex): for the row [0.34, 0.33, 0.33] at eps 0.05
    an entry moves by up to about 0.07.
    """
    return _clamp_to_simplex(policy + rng.uniform(-eps, eps, size=policy.shape))


def _clamp_to_simplex(p: np.ndarray) -> np.ndarray:
    """`perturb_policy`'s elementwise arithmetic on the perturbed rows `p` (last axis the
    signals), which it overwrites: clamp into [0, 1], make a row clamped to all zeros
    uniform, renormalize."""
    np.clip(p, 0.0, 1.0, out=p)
    sums = _sum_last(p)
    bad = sums <= 1e-12
    if bad.any():
        p[bad] = 1.0 / p.shape[-1]
        sums = _sum_last(p)
    return p / sums[..., None]


def check_local_eps(eps: float) -> None:
    """Raise ValueError unless the eps-ball radius lies in (0, 1].

    A sup-norm radius of 1 already reaches every policy, so a larger one
    only risks overflow in the deviation draws."""
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be positive and finite, at most 1, got {eps}")


def local_ne_verify(
    game: GameInstance,
    policy,
    tie: TieRule,
    eps: float,
    seed: int,
    *,
    samples: int | None = None,
) -> EquilibriumReport:
    """Sampled check that no sender can gain inside an eps-ball of deviations.

    Draws K deviations per sender with :func:`perturb_policy`'s arithmetic
    (sender j's from ``substream(seed, f"deviation:{j}")``), so each lies on
    the simplex rows but, after renormalization, possibly outside the
    sup-norm box of radius eps, and scores the deviator's true ex-ante
    utility for each.  The report carries the largest gain over all senders
    and deviations; the profile is refuted when it exceeds `IMPROVE_TOL`,
    and the witness is the first deviation (senders in turn) that reaches
    it.  `samples`, when given, replaces the budget of
    :func:`local_ne_sample_count` and must be an integer of at least 1.

    One call scores one sequence of kernel rows: n base rows (row j scores
    sender j at the unchanged profile), then sender 0's K deviations, then
    sender 1's, and so on.  The sequence is cut into passes of
    :func:`batch_rows` rows, so memory does not grow with K or n; each pass
    makes one receiver decision, and each run of its rows that belongs to
    one sender is summed against that sender's utility alone.  A kernel row
    does not depend on the pass it runs in, so every base utility and gain
    equals the single-profile evaluation's bit for bit, wherever the pass
    boundaries fall (even inside the base rows).  Taking each run's first
    largest gain, and replacing the witness only on a strictly larger one,
    therefore reports exactly what scoring the deviations one at a time
    would.
    """
    check_local_eps(eps)
    if samples is None:
        K = local_ne_sample_count(game)
    elif not samples >= 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    elif isinstance(samples, (bool, np.bool_)) or not float(samples).is_integer():
        raise ValueError(f"samples must be an integer, got {samples!r}")
    else:
        K = int(samples)
    policy = validate_joint_policy(game, policy)
    check_term_cap(game)
    tie.check(game)
    n = game.n_senders
    rngs = [substream(seed, f"deviation:{j}") for j in range(n)]
    base = np.empty(n)
    worst_gap = 0.0
    witness = None
    total, step = n + n * K, batch_rows(game)
    for start in range(0, total, step):
        stop = min(start + step, total)
        # (sender j, first, end) of the pass's runs of deviation rows, counted from `start`;
        # sender j's deviations are rows n + jK to n + (j+1)K - 1 of the sequence
        runs = [(j, max(start, n + j * K) - start, min(stop, n + (j + 1) * K) - start)
                for j in range(max(start - n, 0) // K, (stop - n - 1) // K + 1)]
        # the pass's profiles as a view of planes in the kernel's row-innermost layout,
        # so `_weight_planes` reads them without a transposed copy
        planes = np.empty((game.states, n, game.signals, stop - start))
        planes[...] = policy.transpose(1, 0, 2)[..., None]
        profiles = planes.transpose(3, 1, 0, 2)
        if runs:
            # each run's uniforms from its sender's stream, in order; one clamp and renormalization
            devs = _clamp_to_simplex(np.concatenate(
                [policy[j] + rngs[j].uniform(-eps, eps, size=(b - a, *policy.shape[1:])) for j, a, b in runs]))
            for j, a, b in runs:
                profiles[a:b, j] = devs[a - runs[0][1] : b - runs[0][1]]
        q, actions = _decision_pass(game, profiles, tie)
        for r in range(start, min(stop, n)):   # base row r scores sender r
            i = r - start
            base[r] = _column_sum(q[i : i + 1], actions[i : i + 1], game._tables[r])[0]
        for j, a, b in runs:
            gaps = _column_sum(q[a:b], actions[a:b], game._tables[j]) - base[j]
            k = int(gaps.argmax())
            if gaps[k] > max(IMPROVE_TOL, worst_gap):
                worst_gap = float(gaps[k])
                witness = (j, profiles[a + k, j].copy())

    if witness is None:
        return EquilibriumReport(
            verdict=EPSILON_LOCAL, utilities=base, max_improvement=worst_gap, samples=K, eps=eps
        )
    return EquilibriumReport(
        verdict=REFUTED,
        utilities=base,
        max_improvement=worst_gap,
        witness_sender=witness[0],
        witness_policy=witness[1],
        samples=K,
        eps=eps,
    )
