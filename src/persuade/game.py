"""Exact representation and evaluation of multi-sender persuasion games.

A game has a finite state space, one receiver with a utility matrix over
(state, action), and n senders who each commit to a row-stochastic
signaling policy (states x signals).  The receiver sees the joint signal,
forms the Bayes posterior, and takes an expected-utility-maximizing
action, with a deterministic tie-breaking rule (under a :class:`FixedMap`
it reads a committed joint-signal -> action table instead).  Everything
here is an exact sum over states and joint signals; the one sampler is
:func:`simulate_mean_payoffs`, a Monte-Carlo cross-check of those sums.

Joint signals are tuples ``(s_1, ..., s_n)`` of per-sender signal indices
and are flattened to a single index with sender 0 most significant:
``index = s_1 * S^(n-1) + ... + s_n``.

One batched kernel evaluates single profiles, datasets and the eps-ball
check alike: a pass's decision step (`_decision_pass`) and its per-utility
sums (`_column_sum`).  The pass's rows are its innermost, contiguous axis:
from the profiles transposed once (no copy when they are already laid out
that way) it builds the joint-signal weights as
(states, S^n, rows) planes, the marginals as (S^n, rows) planes and the
posteriors as (states, M) planes, and the receiver decision makes expected
values, tie masks and tie-break scores (actions, M) planes.  So every numpy
call runs over whole planes, not over the few states of one posterior.  The
lowest-index pick is a max over rank-weighted planes, and the
sender-favoring tiers run only on the posteriors that do not tie exactly
one action.  Each weight is the prior times each sender's policy entry,
multiplied in sender order, and each later step is the same exact
operation as in a posterior-major evaluation, so the labels equal those of
the posterior-major oracle bit for bit.  The weights and actions go back to
C-order (rows, S^n, states) and (rows, S^n) once per pass; each utility's
products are then contiguous, one run of S^n * states per row, added in
numpy's order by `_sum_last`.  Per-game constants (utilities as contiguous
(actions, states) tables, the rank planes, the sender-favoring rule's
summed utility and point-mass table) are built on first use and then
kept; a game's arrays are read-only copies, so the constants cannot go
stale.

`TIE_TOL` and `DEFAULT_TERM_CAP` are module constants, read when a function runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

TIE_TOL = 1e-9

# exact enumeration guard: |states| * |signals|^n terms
DEFAULT_TERM_CAP = 10**7


class CapError(ValueError):
    """An exact enumeration would exceed its cap (`DEFAULT_TERM_CAP`, `equilibria.DEFAULT_MAP_CAP`)."""


# ---------------------------------------------------------------------------
# tie-breaking rules: each class holds its file `kind`, JSON form, `--tie` `flag`,
# `check` against a game, and `actions` at every joint signal of the weight planes `w`


class _PosteriorRule:
    """The receiver takes an action optimal at the posterior; `_break_ties` picks one.

    The decision runs on (states, M) posterior planes, one contiguous row of M
    posteriors per state (see the module docstring): expected values, masks
    and scores are (actions, M) planes, the lowest-index pick is
    :func:`_lowest`, a max over rank-weighted planes, and sender-favoring
    runs its tie tiers only on the posteriors that tie other than one action.
    """

    def to_dict(self) -> dict:
        return {"kind": self.kind}

    def check(self, game: GameInstance) -> None:
        """Raise ValueError unless the rule fits `game`.  Only a FixedMap returns something: its table."""

    def actions(self, game: GameInstance, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(actions, live)``, both (S^n, rows), at the joint signals of the (states, S^n, rows)
        weight planes `w` from :func:`_weight_planes`; `live` marks those of positive probability.
        A dead joint signal has the zero posterior, which ties every action, so it gets action 0."""
        marg = w.sum(axis=0)        # whole state planes added in state order
        live = marg >= 1e-300
        if live.all():
            mu = w / marg
        else:                       # dead or subnormal marginals
            live = marg > 0
            mu = np.where(live, w / np.maximum(marg, 1e-300), 0.0)
        return self._decide(game, mu.reshape(game.states, -1)).reshape(marg.shape), live

    def best_actions(self, game: GameInstance, posteriors: np.ndarray) -> np.ndarray:
        """Receiver-optimal action (within `TIE_TOL` of the best) for each row of the (M, states)
        normalized `posteriors`, tie-broken by the rule; a single posterior is a batch of one row."""
        mu = np.asarray(posteriors, dtype=float)
        if mu.ndim != 2:
            raise ValueError(f"posteriors must be an (M, states) batch, got shape {mu.shape}")
        return self._decide(game, np.ascontiguousarray(mu.T))

    def _decide(self, game: GameInstance, mu: np.ndarray) -> np.ndarray:
        """The action at each column of the (states, M) posterior planes `mu`."""
        exp_v = game.receiver_utility.T @ mu
        tied = exp_v >= np.maximum.reduce(exp_v) - TIE_TOL
        return self._break_ties(game, mu, tied)


def _lowest(game: GameInstance, mask: np.ndarray) -> np.ndarray:
    """``np.argmax(mask, axis=0)`` of an (actions, M) bool `mask`: the lowest index of each
    column's True entries, 0 for a column without one.  A max over the planes weighted by
    rank ``actions - a`` finds it with whole-plane calls."""
    rank, pick = game._lowest_index
    return pick.take(np.maximum.reduce(mask * rank))


def _sum_last(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)`` bit for bit, without numpy's slow reduction loop over many short rows.

    Below 8 entries: whole-array adds of the last axis' slices in numpy's order, from +0.0.
    From 8 to 15 entries on a C-contiguous `a`, whose rows numpy sums pairwise: the first 8 as
    ``((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))``, the rest in turn, then ``+ 0.0``.  One row, any
    other length and any other layout keep numpy's own sum (for one row its loop runs once).
    Where NaNs of both signs meet, the sign bit of a NaN sum may differ, as it does between
    numpy's own loops."""
    n = a.shape[-1]
    if a.size == n or not (0 < n < 8 or (n < 16 and a.flags.c_contiguous)):
        return np.add.reduce(a, axis=-1)
    if n < 8:
        total = a[..., 0] + 0.0
        for k in range(1, n):
            total += a[..., k]
        return total
    total = ((a[..., 0] + a[..., 1]) + (a[..., 2] + a[..., 3])) + ((a[..., 4] + a[..., 5]) + (a[..., 6] + a[..., 7]))
    for k in range(8, n):
        total += a[..., k]
    total += 0.0
    return total


@dataclass(frozen=True)
class Lexicographic(_PosteriorRule):
    """Among receiver-optimal actions, pick the lowest index."""

    kind: ClassVar[str] = "lexicographic"
    flag: ClassVar[str] = "lex"

    def _break_ties(self, game, mu, tied):
        return _lowest(game, tied)


@dataclass(frozen=True)
class SenderFavoring(_PosteriorRule):
    """Among receiver-optimal actions, favor the senders.

    Tied actions are scored by the sum of expected sender utilities under
    the posterior.  Actions still tied on that score are ranked by the
    posterior probability that they are ex-post optimal for the receiver;
    the final fallback is the lowest index.  The secondary rank is what
    makes the rule total on games whose senders care about disjoint actions.
    """

    kind: ClassVar[str] = "sender_favoring"
    flag: ClassVar[str] = "sender-favoring"

    def _constants(self, game: GameInstance) -> tuple[np.ndarray, np.ndarray, float]:
        """``(total, point_mass, bound)``, computed once per game and `TIE_TOL`: the sum of the
        sender utilities and 1.0 where an action is receiver-optimal at the point-mass belief on
        a state, both (states, actions), and ``states * max(1, |total|)``, which bounds the
        tiers' values per unit of the largest |posterior entry|."""
        key = (self, TIE_TOL)
        got = game._rule_constants.get(key)
        if got is None:
            total = sum(game.sender_utilities)
            point_mass = receiver_optima(game).astype(float)
            bound = game.states * float(np.max(np.abs(total), initial=1.0))
            got = game._rule_constants[key] = (total, point_mass, bound)
        return got

    def _break_ties(self, game, mu, tied):
        total, point_mass, bound = self._constants(game)

        def leaders(mu, tied):      # the tied actions that lead the score tier, then the point-mass tier
            score = np.where(tied, total.T @ mu, -np.inf)
            best = score >= np.maximum.reduce(score) - TIE_TOL
            mass = np.where(best, point_mass.T @ mu, -np.inf)
            return mass >= np.maximum.reduce(mass) - TIE_TOL

        # The tiers run only where other than one action ties: a lone tied action leads both
        # tiers unless its score or mass is -inf or NaN, which cannot happen while every
        # posterior entry is below 1e300 / bound in size.
        open_ = np.add.reduce(tied) != 1
        if open_.all() or not (bound * mu.max() < 1e300 and bound * -mu.min() < 1e300):
            return _lowest(game, leaders(mu, tied))
        actions = _lowest(game, tied)
        cols = np.nonzero(open_)[0]
        if cols.size:
            actions[cols] = _lowest(game, leaders(mu[:, cols], tied[:, cols]))
        return actions


@dataclass(frozen=True)
class FixedMap:
    """A committed joint-signal -> action table, bypassing posteriors.

    ``table[k]`` is the action for the joint signal with flat index ``k``
    (sender 0 most significant).
    """

    table: tuple[int, ...]
    kind: ClassVar[str] = "fixed_map"
    flag: ClassVar[str | None] = None

    def __post_init__(self):
        object.__setattr__(self, "_table", np.asarray(self.table, dtype=int))
        self._table.flags.writeable = False

    def to_dict(self) -> dict:
        return {"kind": self.kind, "table": list(self.table)}

    def check(self, game: GameInstance) -> np.ndarray:
        """The read-only table, after checking that it names one in-range action per joint signal."""
        if self._table.shape != (game.n_joint_signals,):
            raise ValueError(f"interpretation covers {self._table.size} joint signals, need {game.n_joint_signals}")
        if np.any(self._table < 0) or np.any(self._table >= game.actions):
            raise ValueError("interpretation contains out-of-range actions")
        return self._table

    def actions(self, game: GameInstance, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        marg = w.sum(axis=0)
        return np.broadcast_to(self._table[:, None], marg.shape), marg > 0

    def best_actions(self, game, posteriors):
        raise ValueError("FixedMap interprets joint signals directly; it cannot rank posteriors")


TieRule = Lexicographic | SenderFavoring | FixedMap
TIE_RULES = {rule.kind: rule for rule in (Lexicographic, SenderFavoring, FixedMap)}   # file kind -> class


# ---------------------------------------------------------------------------
# core data types


def _read_only(a) -> np.ndarray:
    """A read-only float64 copy of `a`, so no caller can change a game after it is built."""
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GameInstance:
    """A multi-sender persuasion game with identical per-sender signal alphabets.  Only the
    alphabet is stated; `n_senders`, `states` and `actions` are read from the arrays."""

    signals: int
    prior: np.ndarray                 # (states,)
    receiver_utility: np.ndarray      # (states, actions)
    sender_utilities: tuple           # n_senders arrays, each (states, actions)
    meta: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "prior", _read_only(self.prior))
        object.__setattr__(self, "receiver_utility", _read_only(self.receiver_utility))
        object.__setattr__(self, "sender_utilities", tuple(_read_only(u) for u in self.sender_utilities))
        if isinstance(self.signals, bool) or not isinstance(self.signals, (int, np.integer)):
            raise ValueError(f"signals must be an integer, got {self.signals!r}")
        object.__setattr__(self, "signals", int(self.signals))
        if self.signals < 1:
            raise ValueError(f"signals must be >= 1, got {self.signals}")
        if self.prior.ndim != 1 or self.prior.size == 0:
            raise ValueError(f"prior must be a non-empty vector, got shape {self.prior.shape}")
        if not (np.all(self.prior >= 0) and abs(self.prior.sum() - 1.0) <= 1e-12):
            raise ValueError("prior must be nonnegative and sum to 1 within 1e-12")
        v = self.receiver_utility
        if v.ndim != 2 or v.shape[0] != self.prior.size or v.shape[1] < 1:
            raise ValueError(f"receiver_utility must be ({self.prior.size}, actions >= 1), a row per prior entry, got {v.shape}")
        if not self.sender_utilities:
            raise ValueError("need at least one sender")
        for u in self.sender_utilities:
            if u.shape != v.shape:
                raise ValueError(f"sender utility shape {u.shape} != receiver_utility shape {v.shape}")
        if not np.all(np.isfinite(self.receiver_utility)) or not all(
            np.all(np.isfinite(u)) for u in self.sender_utilities
        ):
            raise ValueError("utilities must be finite")

    # the sizes the arrays state; read-only, as a frozen game rejects every assignment

    @cached_property
    def n_senders(self) -> int:
        return len(self.sender_utilities)

    @cached_property
    def states(self) -> int:
        return self.prior.shape[0]

    @cached_property
    def actions(self) -> int:
        return self.receiver_utility.shape[1]

    @property
    def n_joint_signals(self) -> int:
        return self.signals**self.n_senders

    # The kernel's per-game constants, built on first use.  The fields they
    # are derived from are read-only, so they never go stale.

    @cached_property
    def _tables(self) -> tuple[np.ndarray, ...]:
        """Each sender's utility, then the receiver's, as an (actions, states) array with one
        contiguous row per action for `_column_sum` to gather."""
        return tuple(np.ascontiguousarray(u.T) for u in (*self.sender_utilities, self.receiver_utility))

    @cached_property
    def _lowest_index(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rank, pick)`` for `_lowest`: ``rank[a] = actions - a`` as an (actions, 1) column,
        uint8 below 256 actions, and ``pick[r]`` the action of top rank r, with ``pick[0] = 0``
        for a column without a True entry."""
        rank = np.arange(self.actions, 0, -1, dtype=np.uint8 if self.actions < 256 else np.intp)
        return rank[:, None], np.concatenate(([0], np.arange(self.actions - 1, -1, -1)))

    @cached_property
    def _rule_constants(self) -> dict:
        """(tie rule, `TIE_TOL`) -> the rule's constants on this game (see `SenderFavoring._constants`)."""
        return {}


@dataclass(frozen=True)
class Posterior:
    """Posterior belief over states, together with the inducing signal's probability.

    A joint signal that cannot occur under the policy gets ``marginal == 0``
    and an all-zero ``mu`` rather than an error, because it contributes
    nothing to any exact sum.
    """

    mu: np.ndarray
    marginal: float


# ---------------------------------------------------------------------------
# policies and joint signals


def validate_policy(game: GameInstance, policy: np.ndarray) -> np.ndarray:
    """Check one sender's matrix: (states x signals), entries in [0,1], rows sum to 1."""
    p = np.asarray(policy, dtype=float)
    if p.shape != (game.states, game.signals):
        raise ValueError(f"policy shape {p.shape} != ({game.states}, {game.signals})")
    # phrased so that NaN fails every check
    if not np.all((p >= -1e-12) & (p <= 1 + 1e-12)):
        raise ValueError("policy entries must lie in [0, 1]")
    if not np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-9):
        raise ValueError("policy rows must sum to 1 within 1e-9")
    return p


def validate_joint_policy(game: GameInstance, policies) -> np.ndarray:
    """Stack and check one policy per sender; returns a new (n, states, signals) array.

    A well-shaped stack is checked in one pass; the error names the problem
    of the first sender that has one, as `validate_policy` would, and NaN
    fails the checks there as here.
    """
    try:
        p = np.array(policies, dtype=float)
    except (TypeError, ValueError):
        p = None
    if p is None or p.shape != (game.n_senders, game.states, game.signals):
        policies = list(policies)
        if len(policies) != game.n_senders:
            raise ValueError(f"expected {game.n_senders} policies, got {len(policies)}")
        return np.stack([validate_policy(game, q) for q in policies])
    out_of_range = ~np.all((p >= -1e-12) & (p <= 1 + 1e-12), axis=(1, 2))
    bad = out_of_range | ~np.all(np.abs(p.sum(axis=2) - 1.0) <= 1e-9, axis=1)
    if np.any(bad):
        if out_of_range[np.argmax(bad)]:
            raise ValueError("policy entries must lie in [0, 1]")
        raise ValueError("policy rows must sum to 1 within 1e-9")
    return p


def joint_signals(n_senders: int, n_signals: int) -> np.ndarray:
    """All joint signals as an (S^n, n) int array in flat-index order."""
    grids = np.meshgrid(*[np.arange(n_signals)] * n_senders, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def check_term_cap(game: GameInstance) -> None:
    terms = game.states * game.signals**game.n_senders
    if terms > DEFAULT_TERM_CAP:
        raise CapError(f"exact enumeration needs {terms} terms, above the cap of {DEFAULT_TERM_CAP}")


def _weight_planes(prior: np.ndarray, profiles: np.ndarray) -> np.ndarray:
    """The joint-signal weights of each profile, with the rows innermost.

    `profiles` is (rows, n, states, signals); returns (states, S^n, rows) with
    ``w[x, s, r] = prior(x) * prod_j profiles[r, j, x, s_j]``, the prior times
    each policy's factor in sender order, and joint signals in flat order
    (sender 0 most significant).  With no senders (n = 0) it is the prior on
    its one joint signal, as (states, 1, 1).  Profiles that are a transposed view of
    contiguous (states, n, signals, rows) planes are read without a copy.
    """
    p = np.ascontiguousarray(profiles.transpose(2, 1, 3, 0))      # (states, n, signals, rows)
    states, n, _, rows = p.shape
    w = prior[:, None, None]
    for j in range(n):
        # (states, k, rows) -> (states, k*S, rows), new signal index varying fastest
        w = (w[:, :, None, :] * p[:, j, None]).reshape(states, -1, rows)
    return w


# ---------------------------------------------------------------------------
# operations


def receiver_optima(game: GameInstance) -> np.ndarray:
    """(states, actions) bool: the actions within `TIE_TOL` of the receiver's best at the
    point-mass belief on each state."""
    v = game.receiver_utility
    return v >= v.max(axis=1, keepdims=True) - TIE_TOL


def posterior(game: GameInstance, policy, signal) -> Posterior:
    """Bayes posterior induced by a joint signal, with its marginal probability."""
    policy = validate_joint_policy(game, policy)
    signal = tuple(int(s) for s in signal)
    if len(signal) != game.n_senders or any(not 0 <= s < game.signals for s in signal):
        raise ValueError(f"bad joint signal {signal}")
    q = game.prior.copy()
    for j, s in enumerate(signal):
        q *= policy[j, :, s]
    marginal = float(q.sum())
    if marginal <= 0.0:
        return Posterior(mu=np.zeros(game.states), marginal=0.0)
    return Posterior(mu=q / marginal, marginal=marginal)


def induced_action_map(game: GameInstance, policy, tie: TieRule) -> np.ndarray:
    """The receiver's action at every joint signal under the given profile.

    Zero-probability joint signals never reach the receiver; a posterior
    rule gives them action 0.
    """
    policy = validate_joint_policy(game, policy)
    table = tie.check(game)
    if table is not None:    # a FixedMap's actions do not depend on the profile
        return table.copy()
    check_term_cap(game)
    return tie.actions(game, _weight_planes(game.prior, policy[None]))[0][:, 0]


def ex_ante_utilities(game: GameInstance, policy, tie: TieRule) -> tuple[np.ndarray, float]:
    """Exact expected payoffs before the state realizes.

    Sums over all states and joint signals: each signal contributes its
    unnormalized posterior weight times the utility of the receiver's
    induced action (read from the table for a FixedMap).  Returns
    ``(sender_utilities, receiver_utility)``.  This is a one-row pass of the
    batched kernel, so it equals the matching row of
    :func:`ex_ante_utilities_batch` bit for bit.
    """
    policy = validate_joint_policy(game, policy)
    check_term_cap(game)
    tie.check(game)
    row = _batch_pass(game, policy[None], tie, game._tables)[0]
    return row[:-1], float(row[-1])


# Cells (rows x states x joint signals) per pass of the batched kernel, so a
# pass's arrays stay cache-sized (256 KB each) for any batch; a game with more
# cells in one row takes one row per pass.  On a 2-vCPU Xeon (2 MB L2 a core),
# with the row-innermost planes and the C-order weights: labeling the four
# `evaluate-batch` families (20,000 synthetic (2,2,2,2) and 2,000 (3,4,3,4)
# profiles, both tie rules) took 0.82-0.88x (2,2,2,2) and 1.01-1.10x (3,4,3,4)
# the time of 2^15 at 2^14, and 1.02-1.15x at 2^16; the eps-ball check on
# 3-firm quality-ads took 1.22-1.26x at 2^14 (per-family medians, 15
# interleaved repeats, two runs).  No size wins on every family.
BATCH_CELLS = 1 << 15


def batch_rows(game: GameInstance) -> int:
    """Rows per kernel pass on this game (at least one), in :func:`ex_ante_utilities_batch` and
    the eps-ball check's pass sequence."""
    return max(1, BATCH_CELLS // (game.states * game.n_joint_signals))


def ex_ante_utilities_batch(game: GameInstance, profiles: np.ndarray, tie: TieRule) -> np.ndarray:
    """Per-sender ex-ante utilities for a batch of joint policies.

    `profiles` is (B, n, states, signals); returns (B, n).  Same exact sum
    as :func:`ex_ante_utilities`, vectorized across the batch and run in
    passes of :func:`batch_rows` profiles.  Only the shape is checked, not
    the entries: a joint signal whose marginal is NaN counts as dead and
    adds 0.0, so an all-NaN row labels as 0.0.
    """
    profiles = np.asarray(profiles, dtype=float)
    want = (game.n_senders, game.states, game.signals)
    if profiles.ndim != 4 or profiles.shape[1:] != want:
        raise ValueError(
            f"profiles must be (rows, n_senders, states, signals) = (rows, {', '.join(map(str, want))}), "
            f"got {profiles.shape}"
        )
    check_term_cap(game)
    tie.check(game)
    tables = game._tables[: game.n_senders]
    B = profiles.shape[0]
    step = batch_rows(game)
    out = np.empty((B, len(tables)))
    for i in range(0, B, step):
        out[i : i + step] = _batch_pass(game, profiles[i : i + step], tie, tables)
    return out


def _batch_pass(game: GameInstance, profiles: np.ndarray, tie: TieRule, tables) -> np.ndarray:
    """(B, len(tables)): one :func:`_column_sum` per table after one :func:`_decision_pass`.
    Each column is summed on its own, so a column's value does not depend on which other
    columns are asked for, nor on the other rows of the pass."""
    q, actions = _decision_pass(game, profiles, tie)
    out = np.empty((q.shape[0], len(tables)))
    for col, table in enumerate(tables):
        out[:, col] = _column_sum(q, actions, table)
    return out


def _decision_pass(game: GameInstance, profiles: np.ndarray, tie: TieRule) -> tuple[np.ndarray, np.ndarray]:
    """``(q, actions)`` for the (B, n, states, signals) `profiles`: the weights q as a C-order
    (B, S^n, states) array, zero at dead joint signals, and the receiver's actions as (B, S^n).

    The actions come from (states, S^n, B) weight planes; the weights and actions then go
    back to (B, S^n, states) and (B, S^n) in one copy each, so `_column_sum`'s product reads
    two contiguous operands and each row's products lie in one contiguous run, joint signal
    by joint signal, the order a posterior-major evaluation sums them in.  A row's q and
    actions do not depend on the other rows.
    """
    w = _weight_planes(game.prior, profiles)
    actions, live = tie.actions(game, w)
    q = np.ascontiguousarray(w.transpose(2, 1, 0))
    if not live.all():
        q[~live.T] = 0.0
    return q, np.ascontiguousarray(actions.T)


def _column_sum(q: np.ndarray, actions: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(B,): the sum over states and joint signals of q * u[state, action], for rows of a
    :func:`_decision_pass`.  `table` holds u as an (actions, states) array, one contiguous
    row per action, so the gather at the receiver's actions copies whole rows; each row's
    S^n * states products are added by :func:`_sum_last`, as ``np.sum`` over (1, 2) adds them."""
    rows, joint, states = q.shape
    return _sum_last((q * table.take(actions, axis=0)).reshape(rows, joint * states))


def ex_ante_utilities_fixed_interpretation(game: GameInstance, policy, interp: FixedMap) -> np.ndarray:
    """Expected sender payoffs when the receiver plays the committed signal map `interp`."""
    return ex_ante_utilities(game, policy, interp)[0]


def simulate_mean_payoffs(
    game: GameInstance, policy, tie: TieRule, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Monte-Carlo mean of per-sender payoffs over `count` rounds drawn from `rng`.

    Each round draws a state from the prior and one signal per sender from
    its policy row; the receiver plays that joint signal's entry of
    :func:`induced_action_map`, so the game must stay within the term cap,
    as for every exact call.
    """
    policy = validate_joint_policy(game, policy)
    states = rng.choice(game.states, size=count, p=game.prior)
    u = rng.random(size=(count, game.n_senders))
    sig_flat = np.zeros(count, dtype=int)
    for j in range(game.n_senders):
        cdf = np.cumsum(policy[j], axis=1)[states]          # (count, S)
        draws = np.minimum((u[:, j, None] > cdf).sum(axis=1), game.signals - 1)
        sig_flat = sig_flat * game.signals + draws
    table = induced_action_map(game, policy, tie)
    actions = table[sig_flat]
    payoffs = np.stack([uj[states, actions] for uj in game.sender_utilities], axis=1)
    return payoffs.mean(axis=0)


def exact_payoff_variance(game: GameInstance, policy, tie: TieRule) -> np.ndarray:
    """Exact per-sender variance of the one-round payoff distribution, as E[u^2] - E[u]^2
    clamped at 0: its rounding can dip below 0 when the true variance is 0 (a constant utility)."""
    policy = validate_joint_policy(game, policy)
    check_term_cap(game)
    tie.check(game)
    tables = game._tables[: game.n_senders]
    row = _batch_pass(game, policy[None], tie, (*tables, *(t**2 for t in tables)))[0]
    mean, square = row[: game.n_senders], row[game.n_senders :]
    return np.maximum(square - mean**2, 0.0)
