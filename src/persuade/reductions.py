"""Constructors turning two classic hard problems into persuasion games.

Both are usable as instance generators and as numeric checks of the
constructions' closed-form identities:

* a public-persuasion problem (one sender, k receivers with binary
  actions) becomes a two-sender best-response problem on an enlarged
  state space, with the second sender's policy fixed;
* a 0/1-utility bimatrix game becomes a two-state persuasion game whose
  indifferent receiver breaks ties through a committed signal
  interpretation, so ex-ante utilities reproduce the bimatrix payoffs
  exactly (halved).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import FixedMap, GameInstance, joint_signals


@dataclass(frozen=True)
class PublicPersuasionInstance:
    """One sender, k receivers with actions {+,-} and per-receiver utility gaps.

    ``gaps[j, w]`` is receiver j's utility advantage of + over - in state w
    (within [-1, 1]); ``u_plus``/``u_minus`` are the sender's utilities in
    [0, 1] when receiver j takes + or -.  The sizes come from the arrays:
    `k` is the number of rows of `gaps`, `states` the length of `prior`.
    """

    prior: np.ndarray          # (states,)
    gaps: np.ndarray           # (k, states)
    u_plus: np.ndarray         # (k, states)
    u_minus: np.ndarray        # (k, states)

    def __post_init__(self):
        object.__setattr__(self, "prior", np.asarray(self.prior, dtype=float))
        for name in ("gaps", "u_plus", "u_minus"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        # every check is phrased so that NaN fails it
        if not (abs(self.prior.sum() - 1.0) <= 1e-12 and np.all(self.prior >= 0)):
            raise ValueError("prior must be a distribution")
        if self.gaps.ndim != 2 or self.k < 1:
            raise ValueError("gaps must be (k, states), with at least one receiver")
        for name in ("gaps", "u_plus", "u_minus"):
            if getattr(self, name).shape != (self.k, self.states):
                raise ValueError(f"{name} must be (k, states)")
        if not np.all(np.abs(self.gaps) <= 1 + 1e-12):
            raise ValueError("utility gaps must lie in [-1, 1]")
        for u in (self.u_plus, self.u_minus):
            if not np.all((u >= -1e-12) & (u <= 1 + 1e-12)):
                raise ValueError("sender utilities must lie in [0, 1]")

    @property
    def k(self) -> int:
        return self.gaps.shape[0]

    @property
    def states(self) -> int:
        return self.prior.size


@dataclass(frozen=True)
class BimatrixGame:
    """Two-player game with 0/1 utility matrices of equal shape (m x m)."""

    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u1", np.asarray(self.u1, dtype=float))
        object.__setattr__(self, "u2", np.asarray(self.u2, dtype=float))
        if self.u1.shape != self.u2.shape or self.u1.ndim != 2 or self.u1.shape[0] != self.u1.shape[1]:
            raise ValueError("need two square matrices of equal shape")
        for u in (self.u1, self.u2):
            if not np.all(np.isin(u, (0.0, 1.0))):
                raise ValueError("utilities must be 0/1")

    @property
    def m(self) -> int:
        return self.u1.shape[0]


# ---------------------------------------------------------------------------
# public persuasion -> two-sender best response


def _constants(k: int) -> tuple[float, float, float]:
    """The construction's penalties at k receivers, (C, N, M) = (k^5, k^4, N/(N-1)):
    C for the sender, N and M for the receiver; they make its error terms vanish.  M needs k >= 2."""
    if k < 2:
        raise ValueError(f"the public reduction needs k >= 2 receivers, got k = {k}")
    n = float(k) ** 4
    return float(k) ** 5, n, n / (n - 1.0)


def public_to_best_response(pub: PublicPersuasionInstance) -> tuple[GameInstance, np.ndarray]:
    """The enlarged two-sender game plus the fixed second-sender policy.

    k extra states are appended after the original ones, each with prior
    1/(2k) (originals are halved).  The receiver gets actions
    ``[a_{1+}, a_{1-}, ..., a_{k+}, a_{k-}, a_inf]`` in that order; sender 1
    is the best responder and sender 2's policy sends t_j uniformly on the
    original states and deterministically on extra state j.  The signal
    alphabet is k for both senders.
    """
    k, m0 = pub.k, pub.states
    C, N, M = _constants(k)
    states = m0 + k
    actions = 2 * k + 1
    prior = np.concatenate([pub.prior / 2.0, np.full(k, 1.0 / (2 * k))])

    V = np.zeros((states, actions))
    u1 = np.zeros((states, actions))
    for j in range(k):
        V[:m0, 2 * j] = pub.gaps[j]            # a_{j+} mirrors receiver j's gap
        V[:m0, 2 * j + 1] = 0.0
        u1[:m0, 2 * j] = pub.u_plus[j]
        u1[:m0, 2 * j + 1] = pub.u_minus[j]
    V[:m0, 2 * k] = N                          # a_inf is tempting on original states
    for j in range(k):
        w = m0 + j
        V[w, : 2 * k] = -M                     # and ruinous anywhere but a_{j+-} ...
        V[w, 2 * j] = 0.0
        V[w, 2 * j + 1] = 0.0
        V[w, 2 * k] = -N                       # ... on the matching extra state
    u1[:, 2 * k] = -C                          # the responder dreads a_inf everywhere

    game = GameInstance(
        signals=k,
        prior=prior,
        receiver_utility=V,
        sender_utilities=(u1, np.zeros((states, actions))),
        meta={
            "reduction": "public_persuasion",
            "k": k,
            "source_states": m0,
            "params": {"C": C, "N": N, "M": M},
        },
    )
    pi2 = np.zeros((states, k))
    pi2[:m0, :] = 1.0 / k
    for j in range(k):
        pi2[m0 + j, j] = 1.0
    return game, pi2


def reduced_action_values(
    game: GameInstance, pi2: np.ndarray, x: np.ndarray, t_j: int
) -> np.ndarray:
    """Receiver's expected utility of every action, given belief x over the
    enlarged states and sender 2's signal t_j: sum_w x(w) pi2(t_j|w) V(w, a)."""
    x = np.asarray(x, dtype=float)
    return (x * pi2[:, t_j]) @ game.receiver_utility


def reduced_action_values_closed_form(pub: PublicPersuasionInstance, x: np.ndarray, t_j: int) -> np.ndarray:
    """The same vector from the construction's closed forms.

    With S = (1/k) sum_{w original} x(w):  a_{j+} scores S-weighted gap_j;
    a_{j-} scores 0; a_{l+-} for l != j lose x(extra_j)*M on top; a_inf
    scores N*(S - x(extra_j)).
    """
    k, m0 = pub.k, pub.states
    _, N, M = _constants(k)
    x = np.asarray(x, dtype=float)
    xo = x[:m0]
    x_bar_j = x[m0 + t_j]
    out = np.empty(2 * k + 1)
    for ell in range(k):
        gap_term = float(xo @ pub.gaps[ell]) / k
        if ell == t_j:
            out[2 * ell] = gap_term
            out[2 * ell + 1] = 0.0
        else:
            out[2 * ell] = gap_term - x_bar_j * M
            out[2 * ell + 1] = -x_bar_j * M
    out[2 * k] = N * (xo.sum() / k - x_bar_j)
    return out


def pub_sender_utility(pub: PublicPersuasionInstance, scheme: np.ndarray) -> float:
    """Sender's expected utility in the public-persuasion problem itself.

    `scheme` is (states x signals) row-stochastic.  Each signal induces a
    posterior; receiver j takes + iff its expected gap is >= 0 (ties go
    to +); the sender collects the average utility across receivers.
    """
    scheme = np.asarray(scheme, dtype=float)
    if scheme.shape[0] != pub.states:
        raise ValueError("scheme must have one row per state")
    if not (np.all(scheme >= -1e-12) and np.all(np.abs(scheme.sum(axis=1) - 1.0) <= 1e-9)):
        raise ValueError("scheme rows must be distributions")
    total = 0.0
    for s in range(scheme.shape[1]):
        q = pub.prior * scheme[:, s]
        marginal = q.sum()
        if marginal <= 0:
            continue
        x = q / marginal
        for j in range(pub.k):
            take_plus = float(x @ pub.gaps[j]) >= 0.0
            u = pub.u_plus[j] if take_plus else pub.u_minus[j]
            total += marginal * float(x @ u) / pub.k
    return total


# ---------------------------------------------------------------------------
# 0/1 bimatrix game -> persuasion game


def bimatrix_to_persuasion(bg: BimatrixGame) -> tuple[GameInstance, FixedMap]:
    """Two states, uniform prior, indifferent receiver, and the committed
    interpretation ``alpha(s1, s2) = a_{u1(s1,s2) u2(s1,s2)}``.

    Sender i's utility at state 1 depends only on the bit b_i encoded in
    the action label (0 at state 0), which makes the ex-ante utility of any
    profile exactly half the bimatrix payoff of the mixed strategies
    ``x_i = pi_i(.|state 1)``.
    """
    m = bg.m
    sigs = joint_signals(2, m)
    table = tuple(int(2 * bg.u1[s1, s2] + bg.u2[s1, s2]) for s1, s2 in sigs)
    u1 = np.zeros((2, 4))
    u2 = np.zeros((2, 4))
    u1[1] = [0.0, 0.0, 1.0, 1.0]          # bit of player 1 in a_{b1 b2}
    u2[1] = [0.0, 1.0, 0.0, 1.0]
    game = GameInstance(
        signals=m,
        prior=np.array([0.5, 0.5]),
        receiver_utility=np.zeros((2, 4)),
        sender_utilities=(u1, u2),
        meta={"reduction": "bimatrix", "m": m},
    )
    return game, FixedMap(table)
