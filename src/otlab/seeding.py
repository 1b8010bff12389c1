"""Deterministic RNG substreams derived from one 64-bit master seed.

Every randomized routine in the package draws from a Generator handed in by
the caller; the CLI derives per-component and per-trial generators here so
that results are reproducible bit-for-bit regardless of execution order.
"""

from __future__ import annotations

import numpy as np

from .numerics import _integer, _shown

#: First substream key of each command line subcommand.
COMPONENTS = {"table": 1, "verify": 2, "curve": 3, "checksim": 4}


def master_seed(seed) -> int:
    """``seed``, an integer, as an int in ``[0, 2**64)``; ValueError outside it, never folded inside."""
    seed = _integer(seed, "seed")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {_shown(seed)}")
    return seed


def substream_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream named by ``key`` under a master seed."""
    seq = np.random.SeedSequence(entropy=master_seed(seed),
                                 spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(seq)
