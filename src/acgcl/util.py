"""Seed fan-out.

All randomness in a run flows from one integer seed. Components derive their
own generators with ``rng_for(seed, role, *indices)`` where ``role`` is one of
the fixed offsets below and ``indices`` are loop counters (epoch, step, ...).
Two runs with the same seed therefore draw identical streams everywhere.
"""

from __future__ import annotations

import numpy as np

# Each value is part of its streams' seeds; renumbering one changes every run.
ROLE_PARAMS = 1
ROLE_SPLITS = 3
ROLE_DISTANCES = 4
ROLE_BATCH = 5
ROLE_SHUFFLE = 6
ROLE_BALANCE = 7


def rng_for(seed: int, role: int, *indices: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(role), *[int(i) for i in indices]])

