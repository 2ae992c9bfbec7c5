"""Personalized-PageRank importance scores and fixed-size subgraph extraction.

Scores follow the teleport resolvent S = t * (I - (1 - t) * A D^-1)^-1, so
column j of S is the stationary visit distribution of a random walk
restarting at node j. For a symmetric adjacency A D^-1 is similar to
D^-1/2 A D^-1/2, so S comes from one in-place inverse of the symmetric
positive-definite B = I - (1 - t) D^-1/2 A D^-1/2, at every graph size, in one
n x n array: a recursive 2 x 2 block (Schur complement) inverse in numpy,
with ``np.linalg.inv`` at the leaves. The inverse is told B's nonzeros, so
where its first-half recursion meets blocks that still hold only the graph's
entries it multiplies by them entry by entry, and it forms each symmetric
product's lower block triangle only: about 4/7 n^3 flops against 4/3 n^3
for four GEMMs a level, with no temporary of more than (n / 2 + 64)^2 entries.
The inverse is scaled to S and clamped at zero RANK_BLOCK_ROWS rows at a time.

Each node gets a subgraph of exactly ``k`` nodes: the node itself first, then
the k-1 best-scoring nodes of its score row, ties by ascending id. Scores are
rounded to multiples of TIE_RTOL of the row maximum and scores that round
alike tie, so that rounding error in the inverse cannot reorder nodes that
score the same in exact arithmetic. Rows are ranked RANK_BLOCK_ROWS at a time:
one partition of the raw scores, then a sort of the few rounded scores near or
above each row's k-th largest. When fewer than k nodes are reachable the index
list is padded by repeating the center, so every subgraph costs O(k^2)
downstream regardless of graph shape. All n subgraphs are one ``SubgraphSet``
of (n, k) ids and (n, k, k) bool induced adjacencies, k^2 bytes per subgraph,
filled RANK_BLOCK_ROWS subgraphs at a time into one preallocated array from a
table of one bit per adjacency entry; its readers gather feature rows by
parent id from the graph's own matrix. An int index of the set gives one
node's ``Subgraph``.
"""

from __future__ import annotations

from dataclasses import dataclass

import operator

import numpy as np

from .errors import ConfigError, ContractError, SizeError
from .graph import Graph

RANK_BLOCK_ROWS = 64
REACH_RTOL = 1e-12        # scores at or below this share of the row maximum are unreachable
TIE_RTOL = 1e-12          # ranking rounds scores to multiples of this share of the row maximum
INVERSE_LEAF = 128        # blocks of at most this many rows are inverted directly
INVERSE_ALIGN = 64        # a split's first half is a multiple of this many rows
PRODUCT_LEAF = 256        # symmetric products form blocks of at most this many rows whole
SCATTER_CHUNK = 256       # sparse entries added per fancy-index add


@dataclass(frozen=True)
class Subgraph:
    parent_indices: np.ndarray   # (k,) parent node ids, center first
    adjacency: np.ndarray        # (k, k) bool
    node_features: np.ndarray    # (n_nodes, dim) the graph's own matrix, shared

    @property
    def size(self) -> int:
        return len(self.parent_indices)


@dataclass(frozen=True)
class SubgraphSet:
    """n subgraphs of one size k, stacked: subgraph i is row i of the ids and
    adjacencies. An int index, and iteration, give a ``Subgraph``; a slice, a ``SubgraphSet``.

    The adjacencies are bool, k^2 bytes per subgraph (400 at k = 20, where
    float64 took 3200); the encoder normalizes a batch of them when it
    propagates."""
    parent_indices: np.ndarray   # (n, k) parent node ids, centers first
    adjacency: np.ndarray        # (n, k, k) bool, symmetric
    node_features: np.ndarray    # (n_nodes, dim) the graph's own matrix, shared

    def __len__(self) -> int:
        return len(self.parent_indices)

    def __getitem__(self, index):
        rows = index if isinstance(index, slice) else operator.index(index)
        parts = (self.parent_indices[rows], self.adjacency[rows], self.node_features)
        return SubgraphSet(*parts) if isinstance(index, slice) else Subgraph(*parts)


def compute_ppr_scores(graph: Graph, teleport: float) -> np.ndarray:
    """(n, n) scores, entries >= 0, from one in-place inverse of the
    symmetric resolvent B = I - (1 - t) D^-1/2 A D^-1/2.

    A D^-1 = D^1/2 (D^-1/2 A D^-1/2) D^-1/2, so S = t D^1/2 B^-1 D^-1/2. A
    ``Graph``'s A is symmetric, so the spectrum of B lies in [t, 2 - t]: B is
    positive definite and its block inverse needs no pivoting. B is built,
    inverted and scaled in the one n x n array returned. B's entries above
    the diagonal, read off the edge keys, go down the inverse with it, so
    that it multiplies by the graph's sparse blocks entry by entry. Beside
    the result the inverse holds at most 0.14 n^2 more float64s at
    n = 2400 (6.3 MB), and 0.3 n^2 at n = 1024.
    """
    if not (0.0 < teleport < 1.0):
        raise ConfigError(f"teleport: must be in (0, 1), got {teleport}")
    n = graph.n_nodes
    degree = graph.degrees()
    root = np.sqrt(degree)
    inv_root = np.divide(1.0, root, out=np.zeros_like(root), where=degree > 0)
    rows, cols = np.divmod(graph.adjacency, n)
    b = np.zeros((n, n))
    entries = inv_root[rows] * inv_root[cols]
    entries *= -(1.0 - teleport)
    b.ravel()[graph.adjacency] = entries
    b[np.diag_indices(n)] += 1.0
    upper = rows < cols
    _invert_in_place(b, (rows[upper], cols[upper], entries[upper]))
    scale = teleport * root
    for start in range(0, n, RANK_BLOCK_ROWS):  # a block stays in cache for all three
        block = b[start:start + RANK_BLOCK_ROWS]
        block *= scale[start:start + RANK_BLOCK_ROWS, None]
        block *= inv_root
        np.maximum(block, 0.0, out=block)       # clear rounding noise below zero
    isolated = np.flatnonzero(degree == 0)
    b[isolated, isolated] = teleport
    return b


def _invert_in_place(m: np.ndarray, edges: tuple[np.ndarray, ...] | None = None) -> None:
    """Overwrite the symmetric positive-definite ``m`` with its inverse.

    ``m`` splits into [[A, B], [B^T, C]], A's side a multiple of
    INVERSE_ALIGN. With X = A^-1 B and the Schur complement S = C - B^T X,
    m^-1 = [[A^-1 + X S^-1 X^T, -X S^-1], [-S^-1 X^T, S^-1]]. X^T is kept in
    the lower-left block and Y = X S^-1 in the upper-right one; blocks of at
    most INVERSE_LEAF rows are inverted by ``np.linalg.inv``.

    ``edges``, when given, are the (rows, cols, values) of every nonzero of
    ``m`` above its diagonal. A's recursion gets those inside A, and X^T and
    B^T X are formed from B's nonzeros: rows of A^-1, then of X, scaled by
    them and summed. S is dense, so C's recursion gets none; a level without
    edges forms X^T with a GEMM and the symmetric B^T X with
    ``_add_symmetric``, as every level forms Y X^T. Over a sparse graph that
    is about 4/7 n^3 flops (0.61 n^3 at n = 2400), where four GEMMs a level
    took 4/3 n^3; no temporary outgrows one (n / 2 + INVERSE_ALIGN)^2 array.
    """
    n = len(m)
    if n <= INVERSE_LEAF:
        try:
            m[...] = np.linalg.inv(m)
        except np.linalg.LinAlgError as exc:
            raise ContractError(f"PageRank resolvent: {n} x {n} block inverse failed: {exc}") \
                from None
        return
    half = _split(n)
    a, b = m[:half, :half], m[:half, half:]
    lower, c = m[half:, :half], m[half:, half:]
    if edges is None:
        _invert_in_place(a)                         # A^-1
        lower[...] = lower @ a                      # X^T = B^T A^-1, as A^-1 is symmetric
        _add_symmetric(c, lower, b, np.subtract)    # S = C - B^T X
    else:
        rows, cols, values = edges
        inside, cross = cols < half, (rows < half) & (cols >= half)
        _invert_in_place(a, (rows[inside], cols[inside], values[inside]))
        targets, sources, values = cols[cross] - half, rows[cross], values[cross]
        chunks = _distinct_target_chunks(targets, sources)
        lower.fill(0.0)
        for chunk in chunks:                        # X^T = B^T A^-1
            lower[targets[chunk]] += _scaled_rows(a, sources[chunk], values[chunk])
        b[...] = lower.T                            # X
        for chunk in chunks:                        # S = C - B^T X
            c[targets[chunk]] -= _scaled_rows(b, sources[chunk], values[chunk])
    _invert_in_place(c)                             # S^-1
    np.matmul(lower.T, c, out=b)                    # Y = X S^-1
    _add_symmetric(a, b, lower, np.add)             # A^-1 + Y X^T
    np.negative(b, out=b)
    lower[...] = b.T                            # -S^-1 X^T = -Y^T, as S^-1 is symmetric


def _split(n: int) -> int:
    """Rows in the first half of an n-row split: n / 2 rounded up to a
    multiple of INVERSE_ALIGN."""
    return -(-n // (2 * INVERSE_ALIGN)) * INVERSE_ALIGN


def _add_symmetric(out: np.ndarray, left: np.ndarray, right: np.ndarray, op) -> None:
    """``out = op(out, left @ right)`` where ``out`` and the product are
    symmetric: the diagonal blocks recurse down to PRODUCT_LEAF rows, the
    lower-left block is one GEMM and the upper-right block its transpose."""
    n = len(out)
    if n <= PRODUCT_LEAF:
        op(out, left @ right, out=out)
        return
    half = _split(n)
    _add_symmetric(out[:half, :half], left[:half], right[:, :half], op)
    _add_symmetric(out[half:, half:], left[half:], right[:, half:], op)
    corner = out[half:, :half]
    op(corner, left[half:] @ right[:, :half], out=corner)
    out[:half, half:] = corner.T


def _scaled_rows(matrix: np.ndarray, rows: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """``matrix[rows] * scales[:, None]`` in one temporary."""
    gathered = matrix[rows]
    gathered *= scales[:, None]
    return gathered


def _distinct_target_chunks(targets: np.ndarray, sources: np.ndarray) -> list[np.ndarray]:
    """Positions of the sparse entries (target, source), at most
    SCATTER_CHUNK a chunk and no target twice in one, so that a fancy-index
    add per chunk sums every target's entries: first each target's entry of
    smallest source, then its second, and so on."""
    order = np.lexsort((sources, targets))
    starts = np.flatnonzero(np.diff(targets[order], prepend=-1))
    rank = np.arange(len(order)) - np.repeat(starts, np.diff(starts, append=len(order)))
    layers = np.argsort(rank, kind="stable")
    order, rank = order[layers], rank[layers]
    bounds = np.flatnonzero(np.diff(rank, prepend=-1, append=-1)).tolist()
    return [order[start:min(start + SCATTER_CHUNK, end)]
            for begin, end in zip(bounds, bounds[1:])
            for start in range(begin, end, SCATTER_CHUNK)]


def top_k_indices(matrix: np.ndarray, k: int) -> np.ndarray:
    """(n, k) subgraph ids: row i is node i, then the k-1 best-scoring nodes
    of score row i, descending, ties by ascending id. Scores tie when they
    round to the same multiple of TIE_RTOL of the row maximum.

    A partition of a block's raw scores, centers at +inf, finds each row's
    k-th largest, ``cut``. Rounding is monotone, and a score over two
    multiples below ``cut`` rounds below it (quotients stay below 1e12, so
    division errs by under 2e-4 of a multiple), so only the centers and the
    scores above that are rounded and sorted.

    Nodes scoring at or below REACH_RTOL of the row maximum are unreachable;
    their slots, and the slots past n when k > n, hold the center instead.
    """
    if k < 1:
        raise SizeError(f"k must be >= 1, got {k}")
    n = matrix.shape[0]
    width = min(k, n)
    out = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, RANK_BLOCK_ROWS):
        block = matrix[start:start + RANK_BLOCK_ROWS]
        rows = np.arange(len(block))
        centers = rows + start
        top = block.max(axis=1, keepdims=True)
        unit = np.where(top > 0, top * -TIE_RTOL, -1.0)     # a zero row: all tie
        raw = block.copy()
        raw[rows, centers] = np.inf                         # the center is always kept
        raw.partition(n - width, axis=1)
        candidates = block >= raw[:, n - width, None] + 2.0 * unit
        candidates[rows, centers] = True
        row, col = np.divmod(np.flatnonzero(candidates), n)
        rounded = np.rint(block[row, col] / unit[row, 0])
        rounded[col == centers[row]] = -np.inf              # and ranks first
        first = np.searchsorted(row, rows)                  # each row's first candidate
        ranked = col[np.lexsort((col, rounded, row))][first[:, None] + np.arange(width)]
        reachable = np.take_along_axis(block, ranked, axis=1) > top * REACH_RTOL
        ids = out[start:start + len(block)]
        ids[:, :width] = np.where(reachable, ranked, centers[:, None])
        ids[:, width:] = centers[:, None]
    return out


_BITS = (1 << np.arange(8)).astype(np.uint8)


def _bit_table(graph: Graph) -> np.ndarray:
    """The adjacency at one bit per entry: the entry of key r * n + c is bit
    key % 8 of byte key // 8. That is ceil(n^2 / 8) bytes, 0.72 MB at
    n = 2400: small beside the n x n score matrix, but O(n^2) like it, so a
    PageRank that drops the score matrix must make this lookup O(m) too."""
    keys = graph.adjacency
    table = np.zeros(-(-graph.n_nodes ** 2 // 8), dtype=np.uint8)
    np.bitwise_or.at(table, keys >> 3, _BITS[keys & 7])
    return table


def _induced(table: np.ndarray, n: int, ids: np.ndarray) -> np.ndarray:
    """(..., k, k) bool adjacency among the (..., k) ``ids``, each entry
    read from the bit table; no n x n array is built."""
    wanted = ids[..., :, None] * n + ids[..., None, :]
    return (table[wanted >> 3] & _BITS[wanted & 7]) != 0


def sample_all_subgraphs(graph: Graph, k: int, teleport: float) -> SubgraphSet:
    """One size-k subgraph per node, deterministically; row i is node i's.

    Only scores above REACH_RTOL of a row's maximum count as reachable; the
    center pads the remainder when a component runs out of nodes. The bit
    table of induced entries is built once the score matrix is freed.
    """
    if k < 1:
        raise SizeError(f"k must be >= 1, got {k}")
    indices = top_k_indices(compute_ppr_scores(graph, teleport), k)
    n = graph.n_nodes
    table = _bit_table(graph)
    adjacency = np.empty((n, k, k), dtype=bool)
    for start in range(0, n, RANK_BLOCK_ROWS):     # no second (n, k, k) array
        ids = indices[start:start + RANK_BLOCK_ROWS]
        adjacency[start:start + len(ids)] = _induced(table, n, ids)
    return SubgraphSet(parent_indices=indices, adjacency=adjacency,
                       node_features=graph.features)
