"""Named, reproducible random streams.

Every piece of randomness in the package flows from a root seed plus a
stream name (e.g. ``"dataset"`` or ``"init:restart:17"``), so parallel or
reordered work still produces identical results.
"""

from __future__ import annotations

import hashlib

import numpy as np


def substream(seed: int, name: str) -> np.random.Generator:
    """Generator for the stream `name` derived from the root `seed`."""
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=16).digest()
    words = tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=words))
