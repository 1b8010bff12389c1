"""Deterministic RNG substreams derived from one 64-bit master seed.

Every randomized routine in the package draws from a Generator handed in by
the caller; the CLI derives per-component and per-trial generators here so
that results are reproducible bit-for-bit regardless of execution order.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

#: First substream key of each command line subcommand.
COMPONENTS = {"table": 1, "verify": 2, "curve": 3, "checksim": 4}


def substream_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream named by ``key`` under a master seed."""
    seq = np.random.SeedSequence(entropy=int(seed) & _MASK64,
                                 spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(seq)
