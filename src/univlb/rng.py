"""Deterministic, splittable random streams.

Every experiment is driven by a single master seed. Independent substreams
(one per trial, per pipeline stage, ...) are derived by feeding the master
seed plus an integer path into ``numpy.random.SeedSequence``, so results are
identical no matter how trials are ordered or distributed across workers.
"""

from __future__ import annotations

import numpy as np

# Fixed component tags keep substreams of different pipeline stages disjoint.
WALK = 1
WALK2 = 2
TOUR = 3
SOLUTION = 4
SUBSET = 5
METRIC = 6
TREE = 7


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the PCG64 generator for a (master seed, path) address.

    The same address always yields the same stream; distinct addresses yield
    statistically independent streams.
    """
    if master_seed < 0 or any(p < 0 for p in path):
        raise ValueError("seed path components must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence((master_seed, *path)))
