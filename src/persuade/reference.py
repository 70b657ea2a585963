"""Small reference games used across tests, docs, and the CLI demos."""

from __future__ import annotations

import numpy as np

from .game import GameInstance


def didactic_game() -> GameInstance:
    """Two senders, two states/signals/actions; the receiver wants to match the state.

    Sender utilities conflict with the receiver's in state 1, which makes the
    ex-ante utility surface discontinuous and piecewise bilinear; small
    enough to inspect by hand or on a grid.
    """
    return GameInstance(
        signals=2,
        prior=np.array([0.5, 0.5]),
        receiver_utility=np.array([[1.0, 0.0], [0.0, 1.0]]),
        sender_utilities=(
            np.array([[1.0, 1.0], [-1.0, 3.0]]),
            np.array([[4.0, 1.0], [1.0, 1.0]]),
        ),
    )


def two_block_game() -> GameInstance:
    """Four-state, two-sender game whose receiver utility splits into two 2x2 blocks.

    Sender 0 is paid 1 whenever action 0 is taken, sender 1 whenever action
    2 is taken, independent of the state.  Under sender-favoring ties the
    partial-pooling profile of :func:`two_block_equilibrium_policies` is a
    Nash equilibrium paying (0.3, 0.3), while revealing the optimal action
    outright pays only (0.15, 0.15) - a compact witness that full
    revelation can be dominated and that equilibria need not be unique.

    The equilibrium policies use 3 signals; the alphabet is 4 so the same
    instance also supports an optimal-action-revealing profile (the
    3-signal policies embed with a zero column).
    """
    prior = np.array([0.15, 0.35, 0.15, 0.35])
    V = np.array(
        [
            [1.0, -1.0, 0.0, 0.0],
            [-1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, -1.0],
            [0.0, 0.0, -1.0, 1.0],
        ]
    )
    u0 = np.zeros((4, 4))
    u0[:, 0] = 1.0
    u1 = np.zeros((4, 4))
    u1[:, 2] = 1.0
    return GameInstance(
        signals=4,
        prior=prior,
        receiver_utility=V,
        sender_utilities=(u0, u1),
    )


def two_block_equilibrium_policies() -> np.ndarray:
    """The partial-pooling equilibrium profile of :func:`two_block_game`: 3 signals,
    padded with a zero column to the game's 4."""
    p0 = np.zeros((4, 4))
    p0[0, 1] = 1.0
    p0[1, 0], p0[1, 1] = 4 / 7, 3 / 7
    p0[2, 0] = 1.0
    p0[3, 0] = 1.0
    p1 = np.zeros((4, 4))
    p1[0, 2] = 1.0
    p1[1, 2] = 1.0
    p1[2, 1] = 1.0
    p1[3, 0], p1[3, 1] = 4 / 7, 3 / 7
    return np.stack([p0, p1])
