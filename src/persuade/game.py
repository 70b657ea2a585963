"""Exact representation and evaluation of multi-sender persuasion games.

A game has a finite state space, one receiver with a utility matrix over
(state, action), and n senders who each commit to a row-stochastic
signaling policy (states x signals).  The receiver sees the joint signal,
forms the Bayes posterior, and takes an expected-utility-maximizing
action, with a deterministic tie-breaking rule (under a :class:`FixedMap`
it reads a committed joint-signal -> action table instead).  Everything
here is an exact sum over states and joint signals; nothing is sampled
except :func:`sample_playthrough`.

Joint signals are tuples ``(s_1, ..., s_n)`` of per-sender signal indices
and are flattened to a single index with sender 0 most significant:
``index = s_1 * S^(n-1) + ... + s_n``.

`TIE_TOL` and `DEFAULT_TERM_CAP` are module constants, read when a function runs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

TIE_TOL = 1e-9

# exact enumeration guard: |states| * |signals|^n terms
DEFAULT_TERM_CAP = 10**7


class CapError(ValueError):
    """An exact enumeration would exceed its cap (`DEFAULT_TERM_CAP`, `equilibria.DEFAULT_MAP_CAP`)."""


# ---------------------------------------------------------------------------
# tie-breaking rules: each class holds its file `kind`, JSON form, `--tie` `flag`,
# `check` against a game, and `actions` at every joint signal of the weights `q`


class _PosteriorRule:
    """The receiver takes an action optimal at the posterior; `_break_ties` picks one."""

    def to_dict(self) -> dict:
        return {"kind": self.kind}

    @classmethod
    def from_dict(cls, doc: dict):
        return cls()

    def check(self, game: GameInstance) -> None:
        """Raise ValueError unless the rule fits `game`.  Only a FixedMap returns something: its table."""

    def actions(self, game: GameInstance, q: np.ndarray, joint=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """``(actions, live)`` at the joint signals of `q`, (..., S^n, states) from :func:`product_weights`
        or its rows at the flat indices `joint`; `live` marks those of positive probability.  A dead
        joint signal has the zero posterior, which ties every action, so it gets action 0."""
        marg = q.sum(axis=-1)
        live = marg > 0
        mu = np.where(live[..., None], q / np.maximum(marg[..., None], 1e-300), 0.0)
        return self.best_actions(game, mu.reshape(-1, game.states)).reshape(marg.shape), live

    def best_actions(self, game: GameInstance, posteriors: np.ndarray) -> np.ndarray:
        """Receiver-optimal action (within `TIE_TOL` of the best) for each row of the (M, states)
        normalized `posteriors`, tie-broken by the rule."""
        mu = np.atleast_2d(np.asarray(posteriors, dtype=float))
        exp_v = mu @ game.receiver_utility
        tied = exp_v >= exp_v.max(axis=1, keepdims=True) - TIE_TOL
        return self._break_ties(game, mu, tied)


@dataclass(frozen=True)
class Lexicographic(_PosteriorRule):
    """Among receiver-optimal actions, pick the lowest index."""

    kind: ClassVar[str] = "lexicographic"
    flag: ClassVar[str] = "lex"

    def _break_ties(self, game, mu, tied):
        return np.argmax(tied, axis=1)


@dataclass(frozen=True)
class SenderFavoring(_PosteriorRule):
    """Among receiver-optimal actions, favor the senders.

    Tied actions are scored by the weighted sum of expected sender
    utilities under the posterior (default weights 1).  Actions still tied
    on that score are ranked by the posterior probability that they are
    ex-post optimal for the receiver; the final fallback is the lowest
    index.  The secondary rank is what makes the rule total on games whose
    senders care about disjoint actions.
    """

    weights: tuple[float, ...] | None = None
    kind: ClassVar[str] = "sender_favoring"
    flag: ClassVar[str] = "sender-favoring"

    def to_dict(self) -> dict:
        return {"kind": self.kind} if self.weights is None else {"kind": self.kind, "weights": list(self.weights)}

    @classmethod
    def from_dict(cls, doc: dict):
        w = doc.get("weights")
        # an int is checked for size before anything converts it to float
        finite = lambda x: (type(x) is float and math.isfinite(x)) or (type(x) is int and abs(x) < 2**1023)
        if w is not None and not (isinstance(w, list) and all(finite(x) for x in w)):
            raise ValueError(f"tie_rule.weights must be a list of finite numbers, got {w!r}")
        return cls(weights=None if w is None else tuple(w))

    def check(self, game: GameInstance) -> None:
        if self.weights is not None and len(self.weights) != game.n_senders:
            raise ValueError("need one weight per sender")

    def _break_ties(self, game, mu, tied):
        self.check(game)
        w = self.weights if self.weights is not None else (1.0,) * game.n_senders
        weighted = sum(float(wj) * uj for wj, uj in zip(w, game.sender_utilities))
        score = np.where(tied, mu @ weighted, -np.inf)
        best = score >= score.max(axis=1, keepdims=True) - TIE_TOL
        v = game.receiver_utility    # the actions optimal at each point-mass belief
        mass = mu @ (v >= v.max(axis=1, keepdims=True) - TIE_TOL).astype(float)
        mass = np.where(best, mass, -np.inf)
        final = mass >= mass.max(axis=1, keepdims=True) - TIE_TOL
        return np.argmax(final, axis=1)


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

    @classmethod
    def from_dict(cls, doc: dict):
        t = doc.get("table")
        ok = isinstance(t, list) and all(type(a) in (int, float) and abs(a) < 2**62 for a in t)
        if not ok or not all(float(a).is_integer() for a in t):
            raise ValueError("tie_rule.table must be a list of integer actions")
        return cls(table=tuple(int(a) for a in t))

    def check(self, game: GameInstance) -> np.ndarray:
        """The read-only table, after checking that it names one in-range action per joint signal."""
        if self._table.shape != (game.n_joint_signals,):
            raise ValueError(f"interpretation covers {self._table.size} joint signals, need {game.n_joint_signals}")
        if np.any(self._table < 0) or np.any(self._table >= game.actions):
            raise ValueError("interpretation contains out-of-range actions")
        return self._table

    def actions(self, game: GameInstance, q: np.ndarray, joint=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        marg = q.sum(axis=-1)
        return np.broadcast_to(self._table[joint], marg.shape), marg > 0

    def best_actions(self, game, posteriors):
        raise ValueError("FixedMap interprets joint signals directly; it cannot rank posteriors")


TieRule = Lexicographic | SenderFavoring | FixedMap
TIE_RULES = {rule.kind: rule for rule in (Lexicographic, SenderFavoring, FixedMap)}   # file kind -> class


# ---------------------------------------------------------------------------
# core data types


@dataclass(frozen=True)
class GameInstance:
    """A multi-sender persuasion game with identical per-sender signal alphabets."""

    n_senders: int
    states: int
    signals: int
    actions: int
    prior: np.ndarray                 # (states,)
    receiver_utility: np.ndarray      # (states, actions)
    sender_utilities: tuple           # n arrays, each (states, actions)
    meta: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "prior", np.asarray(self.prior, dtype=float))
        object.__setattr__(self, "receiver_utility", np.asarray(self.receiver_utility, dtype=float))
        object.__setattr__(
            self, "sender_utilities", tuple(np.asarray(u, dtype=float) for u in self.sender_utilities)
        )
        for name in ("n_senders", "states", "signals", "actions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.prior.shape != (self.states,):
            raise ValueError(f"prior shape {self.prior.shape} != ({self.states},)")
        if not (np.all(self.prior >= 0) and abs(self.prior.sum() - 1.0) <= 1e-12):
            raise ValueError("prior must be nonnegative and sum to 1 within 1e-12")
        if self.receiver_utility.shape != (self.states, self.actions):
            raise ValueError("receiver_utility shape mismatch")
        if len(self.sender_utilities) != self.n_senders:
            raise ValueError("need one utility matrix per sender")
        for u in self.sender_utilities:
            if u.shape != (self.states, self.actions):
                raise ValueError("sender utility shape mismatch")
        if not np.all(np.isfinite(self.receiver_utility)) or not all(
            np.all(np.isfinite(u)) for u in self.sender_utilities
        ):
            raise ValueError("utilities must be finite")

    @property
    def n_joint_signals(self) -> int:
        return self.signals**self.n_senders


@dataclass(frozen=True)
class Posterior:
    """Posterior belief over states, together with the inducing signal's probability.

    A joint signal that cannot occur under the policy gets ``marginal == 0``
    and an all-zero ``mu``; such posteriors are flagged rather than raised
    because they contribute nothing to any exact sum.
    """

    mu: np.ndarray
    marginal: float

    @property
    def is_null(self) -> bool:
        return self.marginal <= 0.0


@dataclass(frozen=True)
class Playthrough:
    """One simulated round: state, joint signal, receiver action, payoffs."""

    state: int
    signal: tuple[int, ...]
    action: int
    receiver_payoff: float
    sender_payoffs: np.ndarray


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


def joint_signal_index(signal, n_signals: int) -> int:
    """Flat index of a joint signal tuple (sender 0 most significant)."""
    idx = 0
    for s in signal:
        idx = idx * n_signals + int(s)
    return idx


def check_term_cap(game: GameInstance) -> None:
    terms = game.states * game.signals**game.n_senders
    if terms > DEFAULT_TERM_CAP:
        raise CapError(f"exact enumeration needs {terms} terms, above the cap of {DEFAULT_TERM_CAP}")


def product_weights(prior: np.ndarray, policies: np.ndarray) -> np.ndarray:
    """Kronecker product of a prior with the policies on axis -3.

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


def signal_weights(game: GameInstance, policy: np.ndarray) -> np.ndarray:
    """Unnormalized posterior weights q[s, w] = prior(w) * prod_j pi_j(s_j | w).

    Shape (S^n, states); row sums are the joint-signal marginals and the
    whole array sums to 1.
    """
    check_term_cap(game)
    return product_weights(game.prior, policy)


# ---------------------------------------------------------------------------
# operations


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
    return tie.actions(game, signal_weights(game, policy))[0]


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
    row = _batch_pass(game, policy[None], tie, (*game.sender_utilities, game.receiver_utility))[0]
    return row[:-1], float(row[-1])


# Profiles per pass of the batched kernel.  A pass holds a few arrays of
# rows x states x joint signals floats, so games with many joint signals
# take fewer rows per pass and memory stays bounded for any batch size.
# At 2^18 cells (2 MB per array) the eps-ball check on 7-firm quality-ads
# and 4x4 ride-hailing ran about 1.4x faster than at 2^20 on a 2-vCPU
# machine; 2^16 was no faster.  Games of up to 128 states x joint signals
# still take 2048 rows.
BATCH_ROWS = 2048
BATCH_CELLS = 1 << 18


def batch_rows(game: GameInstance) -> int:
    """Profiles per pass of :func:`ex_ante_utilities_batch` on this game."""
    return max(1, min(BATCH_ROWS, BATCH_CELLS // (game.states * game.n_joint_signals)))


def ex_ante_utilities_batch(
    game: GameInstance,
    profiles: np.ndarray,
    tie: TieRule,
    *,
    senders: Sequence[int] | None = None,
) -> np.ndarray:
    """Per-sender ex-ante utilities for a batch of joint policies.

    `profiles` is (B, n, states, signals); returns (B, n), or (B, len(senders))
    with the columns of just the listed senders.  Same exact sum as
    :func:`ex_ante_utilities`, vectorized across the batch and run in passes
    of at most `BATCH_ROWS` profiles.
    """
    profiles = np.asarray(profiles, dtype=float)
    check_term_cap(game)
    tie.check(game)
    senders = range(game.n_senders) if senders is None else [int(j) for j in senders]
    utilities = [game.sender_utilities[j] for j in senders]
    B = profiles.shape[0]
    step = batch_rows(game)
    out = np.empty((B, len(utilities)))
    for i in range(0, B, step):
        out[i : i + step] = _batch_pass(game, profiles[i : i + step], tie, utilities)
    return out


def _batch_pass(game: GameInstance, profiles: np.ndarray, tie: TieRule, utilities) -> np.ndarray:
    """(B, len(utilities)): sum over states and live joint signals of q * u[state, action].

    Each column is summed on its own, so a column's value does not depend
    on which other columns are asked for, nor on the other rows of the pass.
    """
    q = product_weights(game.prior, profiles)                  # (B, S^n, states)
    actions, live = tie.actions(game, q)
    q = np.where(live[..., None], q, 0.0)
    out = np.empty((q.shape[0], len(utilities)))
    for col, u in enumerate(utilities):
        out[:, col] = np.sum(q * u.T[actions], axis=(1, 2))   # u.T[actions]: (B, S^n, states)
    return out


def ex_ante_utilities_fixed_interpretation(game: GameInstance, policy, interp: FixedMap) -> np.ndarray:
    """Expected sender payoffs when the receiver plays the committed signal map `interp`."""
    return ex_ante_utilities(game, policy, interp)[0]


def sample_playthrough(game: GameInstance, policy, tie: TieRule, rng) -> Playthrough:
    """Simulate one round; deterministic given the generator/seed."""
    from .rng import as_generator

    policy = validate_joint_policy(game, policy)
    tie.check(game)
    gen = as_generator(rng)
    state = int(gen.choice(game.states, p=game.prior))
    signal = tuple(int(gen.choice(game.signals, p=policy[j, state])) for j in range(game.n_senders))
    # the sampled joint signal's weights, (1, states); its flat index picks a FixedMap entry
    q = product_weights(game.prior, policy[np.arange(game.n_senders), :, list(signal)][..., None])
    action = int(tie.actions(game, q, [joint_signal_index(signal, game.signals)])[0][0])
    return Playthrough(
        state=state,
        signal=signal,
        action=action,
        receiver_payoff=float(game.receiver_utility[state, action]),
        sender_payoffs=np.array([u[state, action] for u in game.sender_utilities]),
    )


def simulate_mean_payoffs(game: GameInstance, policy, tie: TieRule, count: int, rng) -> np.ndarray:
    """Monte-Carlo mean of per-sender payoffs over `count` rounds (vectorized)."""
    from .rng import as_generator

    policy = validate_joint_policy(game, policy)
    gen = as_generator(rng)
    states = gen.choice(game.states, size=count, p=game.prior)
    u = gen.random(size=(count, game.n_senders))
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
    """Exact per-sender variance of the one-round payoff distribution."""
    policy = validate_joint_policy(game, policy)
    check_term_cap(game)
    tie.check(game)
    utilities = (*game.sender_utilities, *(u**2 for u in game.sender_utilities))
    row = _batch_pass(game, policy[None], tie, utilities)[0]
    mean, square = row[: game.n_senders], row[game.n_senders :]
    return square - mean**2
