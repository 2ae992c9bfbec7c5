"""Seed fan-out, numpy's median and quantile without importing numpy.ma,
atomic file writes, and the keyed npz files that hold the package's caches
with the one key they are read under.

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

# The package's source files, all of which every cache key hashes.
PACKAGE_DIR = Path(__file__).resolve().parent


def rng_for(seed: int, role: int, *indices: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(role), *[int(i) for i in indices]])


def median(values: np.ndarray) -> float:
    """``np.median(values)``, with the same bits from one select at n // 2:
    below it lies the lower middle value of an even n, and NaN is the max."""
    n = values.size
    part = np.partition(values, n // 2, axis=None)
    if np.isnan(part.max()):
        return np.nan
    middle = part[n // 2:n // 2 + 1] if n % 2 else np.array([part[:n // 2].max(), part[n // 2]])
    return float(middle.mean())


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


def write_atomic(path, content) -> None:
    """Write ``content`` to a temp file beside ``path``, then move it into
    place, so a write that fails leaves the previous file whole and no temp
    file. ``content`` is text, or a function that writes bytes into the open
    temp file, so that a large file goes to disk without a copy in memory.
    The temp file's name holds the process id, so two processes writing one
    path never share it, and the last to move its file into place wins."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        if isinstance(content, str):
            tmp.write_text(content)
        else:
            with tmp.open("wb") as out:
                content(out)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def cache_key(*parts) -> np.ndarray:
    """The (32,) uint8 sha256 of ``parts``, then of the name and bytes of
    every source file in ``PACKAGE_DIR`` and of numpy's version, so a cache
    under this key misses once the code changes. A bytes part is framed by
    its length and an array by its dtype and shape; only the first frame
    starts with a digit, so no two lists of parts hash the same bytes."""
    import hashlib      # loading OpenSSL takes ~3 ms; gen-sbm keys no cache
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        parts += (path.name.encode(), path.read_bytes())
    digest = hashlib.sha256()
    for part in (*parts, np.__version__.encode()):
        if isinstance(part, np.ndarray):
            digest.update(f"{part.dtype.str} {part.shape}\n".encode())
            part = np.ascontiguousarray(part).data
        else:
            digest.update(b"%d\n" % len(part))
        digest.update(part)
    return np.frombuffer(digest.digest(), dtype=np.uint8)


def write_keyed_npz(path, key: np.ndarray, arrays: dict[str, np.ndarray]) -> None:
    """Store ``arrays`` and ``key`` in the npz file ``path``, written by
    ``np.savez`` straight into ``write_atomic``'s temp file. A write that
    fails with an OSError is skipped: every later read is then a miss."""
    try:
        write_atomic(path, lambda out: np.savez(out, key=key, **arrays))
    except OSError:
        pass


def read_keyed_npz(path, key: np.ndarray, layout: dict[str, tuple],
                   optional=()) -> dict[str, np.ndarray] | None:
    """The arrays that ``write_keyed_npz`` stored in ``path`` under ``key``,
    by name; only the key is read when it differs. ``layout`` maps each name
    to its dtype and shape, where None matches any length. The result is
    None, a miss, when the file is missing or not an npz file, holds another
    key, lacks a name of ``layout`` that is not ``optional``, or holds an
    array that ``layout`` does not name or that is not of its dtype and
    shape and C-contiguous."""
    try:
        with np.load(path, allow_pickle=False) as stored:
            found = stored["key"]
            if found.dtype != key.dtype or not np.array_equal(found, key):
                return None
            arrays = {name: stored[name] for name in stored.files if name != "key"}
    except Exception:   # np.load of arbitrary bytes fails in many ways; all are a miss
        return None
    if arrays.keys() - layout.keys() or layout.keys() - arrays.keys() - set(optional):
        return None
    for name, array in arrays.items():
        dtype, shape = layout[name]
        if (array.dtype != dtype or array.ndim != len(shape) or not array.flags.c_contiguous
                or any(want not in (None, got) for want, got in zip(shape, array.shape))):
            return None
    return arrays
