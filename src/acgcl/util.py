"""Seed fan-out, numpy's median and quantile without importing numpy.ma, and
atomic file writes.

All randomness in a run flows from one integer seed. Components derive their
own generators with ``rng_for(seed, role, *indices)`` where ``role`` is one of
the fixed offsets below and ``indices`` are loop counters (epoch, step, ...).
Two runs with the same seed therefore draw identical streams everywhere.
The pair-distance distribution is exact and draws nothing.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

# Each value is part of its streams' seeds; renumbering one changes every run.
# 2 and 4 are retired: no stream takes them.
ROLE_PARAMS = 1
ROLE_SPLITS = 3
ROLE_BATCH = 5
ROLE_SHUFFLE = 6
ROLE_BALANCE = 7


def rng_for(seed: int, role: int, *indices: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(role), *[int(i) for i in indices]])


def median(values: np.ndarray) -> float:
    """``np.median(values)``: the same partition and mean, so the same bits."""
    n = values.size
    part = np.partition(values, [n // 2 - 1, n // 2, -1] if n % 2 == 0 else [n // 2, -1],
                        axis=None)
    return np.nan if np.isnan(part[-1]) else float(part[(n - 1) // 2:n // 2 + 1].mean())


def linear_quantile(values: np.ndarray, q):
    """``np.quantile(values, q)``: the same partition and interpolation, so the same bits."""
    last = values.size - 1
    index = last * np.asarray(q, dtype=np.float64)
    lower = np.where(index >= last, -1, np.floor(index)).astype(np.intp)
    upper = np.where(index >= last, -1, lower + 1)
    part = np.partition(values, sorted({0, -1, *lower.flat, *upper.flat}), axis=None)
    gamma = index - lower
    diff = part[upper] - part[lower]
    out = np.asarray(part[lower] + diff * gamma)
    np.subtract(part[upper], diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def write_atomic(path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then move it into place,
    so a write that fails leaves the previous file whole and no temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
