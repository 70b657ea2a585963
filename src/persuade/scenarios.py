"""Instance generators: a synthetic benchmark family and three stylized
market scenarios (quality advertising, priced product advertising, and
two ride-hailing platforms signaling order costs to one driver).

All generators are pure functions of their spec and seed: the same inputs
reproduce byte-identical instances.  Continuous quantities are discretized
into small per-entity alphabets so the state space stays inside the exact
enumeration cap; every sampled quantity is recorded in ``game.meta`` for
the sidecar files.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .game import CapError, GameInstance
from .rng import substream

STATE_CAP = 4096


@dataclass(frozen=True)
class SyntheticSpec:
    """Benchmark point: dimensions plus seed.  Utilities are Normal(0, 100-variance),
    the prior is a softmax of the same distribution."""

    n_senders: int
    states: int
    signals: int
    actions: int
    seed: int = 0

    def __post_init__(self):
        if self.n_senders < 1:
            raise ValueError("need at least one sender")
        if min(self.states, self.signals, self.actions) < 2:
            raise ValueError("states, signals, and actions must be >= 2")


def synthetic_instance(spec: SyntheticSpec) -> GameInstance:
    """Random dense game with high-variance utilities and a softmax prior."""
    rng = substream(spec.seed, "synthetic")
    scale = 10.0                      # variance 100
    logits = rng.normal(0.0, scale, size=spec.states)
    z = np.exp(logits - logits.max())
    prior = z / z.sum()
    V = rng.normal(0.0, scale, size=(spec.states, spec.actions))
    senders = tuple(rng.normal(0.0, scale, size=(spec.states, spec.actions)) for _ in range(spec.n_senders))
    return GameInstance(
        signals=spec.signals,
        prior=prior,
        receiver_utility=V,
        sender_utilities=senders,
        meta={"generator": "synthetic", "spec": vars(spec) | {}},
    )


def _shocks(rng, shock_std, n: int) -> np.ndarray:
    """n frozen Normal(0, shock_std) shocks; zeros when `shock_std` is 0."""
    if not 0 <= shock_std < np.inf:
        raise ValueError(f"shock_std must be a finite number of at least 0, got {shock_std!r}")
    return rng.normal(0.0, shock_std, size=n) if shock_std > 0 else np.zeros(n)


def quality_ads_instance(n: int, seed: int, *, signals: int = 2, shock_std: float = 1.0) -> GameInstance:
    """n firms advertise product quality +-5 to one consumer.

    States are the 2^n joint quality vectors (uniform prior).  The consumer
    picks one firm or nothing (last action); buying from firm i is worth
    its quality plus a per-firm shock frozen into the instance, buying
    nothing is worth 0.  A firm earns 1 exactly when bought from.
    """
    if n < 1:
        raise ValueError("need at least one firm")
    if 2**n > STATE_CAP:
        raise CapError(f"2^{n} states exceed the cap of {STATE_CAP}")
    rng = substream(seed, "quality_ads")
    shocks = _shocks(rng, shock_std, n)
    qualities = list(itertools.product((-5.0, 5.0), repeat=n))
    states = len(qualities)
    V = np.zeros((states, n + 1))
    for w, qs in enumerate(qualities):
        V[w, :n] = np.asarray(qs) + shocks
    senders = tuple(np.tile((np.arange(n + 1) == i).astype(float), (states, 1)) for i in range(n))
    return GameInstance(
        signals=signals,
        prior=np.full(states, 1.0 / states),
        receiver_utility=V,
        sender_utilities=senders,
        meta={
            "generator": "quality_ads",
            "n": n,
            "seed": seed,
            "signals": signals,
            "shock_std": shock_std,
            "shocks": shocks.tolist(),
            "qualities": [list(q) for q in qualities],
        },
    )


def product_ads_instance(
    n: int, seed: int, *, signals: int = 3, quality_levels: int = 3, shock_std: float = 1.0
) -> GameInstance:
    """n firms sell products with public integer prices and private quality.

    Prices are uniform integers in [1, 10]; each firm's quality alphabet is
    `quality_levels` distinct uniform integers from [-8, 12] (so at most
    21), and states are the joint quality vectors.  The consumer nets
    quality minus price plus a frozen shock when buying, 0 otherwise; a
    firm earns its price when bought from and -1 otherwise.
    """
    if n < 1:
        raise ValueError("need at least one firm")
    if not 1 <= quality_levels <= 21:
        raise ValueError(f"quality_levels must be an integer from 1 to 21, got {quality_levels!r}")
    if quality_levels**n > STATE_CAP:
        raise CapError(f"{quality_levels}^{n} states exceed the cap of {STATE_CAP}")
    rng = substream(seed, "product_ads")
    prices = rng.integers(1, 11, size=n)
    alphabets = [np.sort(rng.choice(np.arange(-8, 13), size=quality_levels, replace=False)) for _ in range(n)]
    shocks = _shocks(rng, shock_std, n)
    combos = list(itertools.product(*[range(quality_levels)] * n))
    states = len(combos)
    V = np.zeros((states, n + 1))
    for w, idx in enumerate(combos):
        for i in range(n):
            V[w, i] = alphabets[i][idx[i]] - prices[i] + shocks[i]
    senders = []
    for i in range(n):
        u = np.full((states, n + 1), -1.0)
        u[:, i] = float(prices[i])
        senders.append(u)
    return GameInstance(
        signals=signals,
        prior=np.full(states, 1.0 / states),
        receiver_utility=V,
        sender_utilities=tuple(senders),
        meta={
            "generator": "product_ads",
            "n": n,
            "seed": seed,
            "signals": signals,
            "quality_levels": quality_levels,
            "shock_std": shock_std,
            "prices": prices.tolist(),
            "alphabets": [a.tolist() for a in alphabets],
            "shocks": shocks.tolist(),
        },
    )


def ride_hailing_instance(
    m: int,
    n: int,
    seed: int,
    *,
    cost_levels: int = 2,
    payment_based: bool = False,
) -> GameInstance:
    """Two platforms with m and n orders signal order costs to one driver.

    Each order carries a price, a driver payment, and `cost_levels`
    possible true driver costs; states are the joint cost vectors.  The
    driver picks one order (utility price - cost, or payment - cost with
    ``payment_based=True``) or none (utility -1).  A platform earns its
    order's price minus payment exactly when that order is picked.  Both
    platforms get the signal alphabet m + 1.
    """
    if m < 1 or n < 1:
        raise ValueError("both platforms need at least one order")
    if cost_levels < 1:
        raise ValueError(f"cost_levels must be an integer of at least 1, got {cost_levels!r}")
    total = m + n
    if cost_levels**total > STATE_CAP:
        raise CapError(f"{cost_levels}^{total} states exceed the cap of {STATE_CAP}")
    rng = substream(seed, "ride_hailing")
    prices = rng.uniform(5.0, 15.0, size=total)
    payments = prices * rng.uniform(0.6, 0.9, size=total)
    cost_tables = [np.sort(rng.uniform(0.0, 1.5 * prices[o], size=cost_levels)) for o in range(total)]
    combos = list(itertools.product(*[range(cost_levels)] * total))
    states = len(combos)
    base = payments if payment_based else prices
    V = np.zeros((states, total + 1))
    V[:, total] = -1.0
    for w, idx in enumerate(combos):
        for o in range(total):
            V[w, o] = base[o] - cost_tables[o][idx[o]]
    margins = prices - payments
    u1 = np.zeros((states, total + 1))
    u2 = np.zeros((states, total + 1))
    u1[:, :m] = margins[:m]
    u2[:, m:total] = margins[m:]
    return GameInstance(
        signals=m + 1,
        prior=np.full(states, 1.0 / states),
        receiver_utility=V,
        sender_utilities=(u1, u2),
        meta={
            "generator": "ride_hailing",
            "m": m,
            "n": n,
            "seed": seed,
            "cost_levels": cost_levels,
            "payment_based": payment_based,
            "prices": prices.tolist(),
            "payments": payments.tolist(),
            "cost_tables": [c.tolist() for c in cost_tables],
        },
    )
