"""Personalized-PageRank importance scores and fixed-size subgraph extraction.

Scores follow the teleport resolvent S = t * (I - (1 - t) * A D^-1)^-1, so
column j of S is the stationary visit distribution of a random walk
restarting at node j. For a symmetric adjacency A D^-1 is similar to
D^-1/2 A D^-1/2, so S comes from one in-place Cholesky factorisation and
inverse of the symmetric positive-definite B = I - (1 - t) D^-1/2 A D^-1/2,
at every graph size, in one n x n array.

Each node gets a subgraph of exactly ``k`` nodes: the node itself first, then
the k-1 best-scoring nodes of its score row, ties by ascending id. Rows are
ranked together in blocks of RANK_BLOCK_ROWS. When fewer than k nodes are
reachable the index list is padded by repeating the center, so every subgraph
costs O(k^2) downstream regardless of graph shape. All n subgraphs are one
``SubgraphSet`` of (n, k) ids and (n, k, k) induced adjacencies, filled
RANK_BLOCK_ROWS subgraphs at a time into one preallocated array; its readers
gather feature rows by parent id from the graph's own matrix.
``extract_subgraph`` gives one ``Subgraph``.
"""

from __future__ import annotations

from dataclasses import dataclass

import operator

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, ContractError, NodeIdError, ShapeError, SizeError
from .graph import Graph

RANK_BLOCK_ROWS = 256
REACH_RTOL = 1e-12        # scores at or below this share of the row maximum are unreachable


@dataclass(frozen=True)
class Subgraph:
    parent_indices: np.ndarray   # (k,) parent node ids, center first
    adjacency: np.ndarray        # (k, k) dense 0/1
    node_features: np.ndarray    # (n_nodes, dim) the graph's own matrix, shared

    @property
    def size(self) -> int:
        return len(self.parent_indices)


@dataclass(frozen=True)
class SubgraphSet:
    """n subgraphs of one size k, stacked: subgraph i is row i of the ids and
    adjacencies. An int index, and iteration, give a ``Subgraph``; a slice, a ``SubgraphSet``."""
    parent_indices: np.ndarray   # (n, k) parent node ids, centers first
    adjacency: np.ndarray        # (n, k, k) dense 0/1
    node_features: np.ndarray    # (n_nodes, dim) the graph's own matrix, shared

    def __len__(self) -> int:
        return len(self.parent_indices)

    def __getitem__(self, index):
        rows = index if isinstance(index, slice) else operator.index(index)
        parts = (self.parent_indices[rows], self.adjacency[rows], self.node_features)
        return SubgraphSet(*parts) if isinstance(index, slice) else Subgraph(*parts)


def compute_ppr_scores(graph: Graph, teleport: float) -> np.ndarray:
    """(n, n) scores, entries >= 0, from one in-place Cholesky inverse of the
    symmetric resolvent B = I - (1 - t) D^-1/2 A D^-1/2.

    A D^-1 = D^1/2 (D^-1/2 A D^-1/2) D^-1/2, so S = t D^1/2 B^-1 D^-1/2. The
    spectrum of B lies in [t, 2 - t], so B is positive definite and needs no
    pivoting. The adjacency must be symmetric.
    """
    # Imported here, not at module level, so that commands which rank nothing
    # (gen-sbm) do not pay for importing scipy.linalg.
    from scipy.linalg import lapack
    if not (0.0 < teleport < 1.0):
        raise ConfigError(f"teleport: must be in (0, 1), got {teleport}")
    adjacency = graph.adjacency
    if (adjacency != adjacency.T).nnz:
        raise ShapeError("PageRank needs a symmetric adjacency")
    n = graph.n_nodes
    degree = np.asarray(adjacency.sum(axis=0), dtype=np.float64).ravel()
    root = np.sqrt(degree)
    inv_root = np.divide(1.0, root, out=np.zeros_like(root), where=degree > 0)
    scale = sp.diags_array(inv_root)
    b = (scale @ adjacency @ scale).toarray()
    b *= -(1.0 - teleport)
    b[np.diag_indices(n)] += 1.0
    # b.T is B in Fortran order (B is symmetric), so LAPACK factors and
    # inverts it in place; its upper triangle is the lower one of b.
    factor, info = lapack.dpotrf(b.T, lower=0, clean=0, overwrite_a=1)
    if info == 0:
        factor, info = lapack.dpotri(factor, lower=0, overwrite_c=1)
    if info != 0:
        raise ContractError(f"PageRank resolvent: LAPACK dpotrf/dpotri info={info}")
    if not np.shares_memory(factor, b):
        raise ContractError("PageRank resolvent: LAPACK copied the matrix")
    row_scale = teleport * root
    for start in range(0, n, RANK_BLOCK_ROWS):
        stop = min(start + RANK_BLOCK_ROWS, n)
        rows = b[start:stop]
        rows[:, stop:] = b[stop:, start:stop].T          # mirror the lower triangle
        square = rows[:, start:stop]
        upper = np.triu_indices(stop - start, 1)
        square[upper] = square.T[upper]
        rows *= row_scale[start:stop, None]
        rows *= inv_root
        np.maximum(rows, 0.0, out=rows)                   # clear rounding noise below zero
    isolated = np.flatnonzero(degree == 0)
    b[isolated, isolated] = teleport
    return b


def top_k_indices(matrix: np.ndarray, k: int) -> np.ndarray:
    """(n, k) subgraph ids: row i is node i, then the k-1 best-scoring nodes
    of score row i, descending, ties by ascending id.

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
        centers = np.arange(start, start + len(block))
        negated = -block
        negated[np.arange(len(block)), centers] = -np.inf    # the center ranks first
        ranked = _smallest_first(negated, width)
        cutoff = block.max(axis=1, keepdims=True) * REACH_RTOL
        reachable = np.take_along_axis(block, ranked, axis=1) > cutoff
        rows = out[start:start + len(block)]
        rows[:, :width] = np.where(reachable, ranked, centers[:, None])
        rows[:, width:] = centers[:, None]
    return out


def _smallest_first(rows: np.ndarray, width: int) -> np.ndarray:
    """Column ids of each row's ``width`` smallest entries, ascending, ties by
    ascending id: the first ``width`` columns of a stable argsort.

    A partition finds the kept set. Rows with more than ``width`` entries at
    or below their width-th value have ties across the cut, so they alone
    take the full stable sort.
    """
    kept = np.argpartition(rows, width - 1, axis=1)[:, :width]
    kept.sort(axis=1)                      # ascending ids break value ties
    values = np.take_along_axis(rows, kept, axis=1)
    ranked = np.take_along_axis(kept, np.argsort(values, axis=1, kind="stable"), axis=1)
    tied = np.count_nonzero(rows <= values.max(axis=1, keepdims=True), axis=1) > width
    if tied.any():
        ranked[tied] = np.argsort(rows[tied], axis=1, kind="stable")[:, :width]
    return ranked


def extract_subgraph(graph: Graph, indices: np.ndarray) -> Subgraph:
    """Induced adjacency restriction, in index order (repeated indices
    duplicate their rows), over the graph's own feature matrix."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise SizeError("indices must be non-empty")
    if indices.min() < 0 or indices.max() >= graph.n_nodes:
        raise NodeIdError(f"subgraph index out of range [0, {graph.n_nodes})")
    sub_adj = graph.adjacency[indices, :][:, indices].toarray()
    return Subgraph(
        parent_indices=indices,
        adjacency=np.asarray(sub_adj, dtype=np.float64),
        node_features=graph.features,
    )


def sample_all_subgraphs(graph: Graph, k: int, teleport: float) -> SubgraphSet:
    """One size-k subgraph per node, deterministically; row i is node i's.

    Only scores above REACH_RTOL of a row's maximum count as reachable; the
    center pads the remainder when a component runs out of nodes.
    """
    if k < 1:
        raise SizeError(f"k must be >= 1, got {k}")
    indices = top_k_indices(compute_ppr_scores(graph, teleport), k)
    n = graph.n_nodes
    # Each (k, k) adjacency entry is looked up in the sorted keys row * n + col
    # of the stored entries, closed by a sentinel n * n, RANK_BLOCK_ROWS
    # subgraphs at a time, so no n x n array and no second (n, k, k) one is built.
    coo = graph.adjacency.tocoo(copy=True)
    coo.sum_duplicates()                 # canonical: unique, in row-major order
    keys = np.append(coo.row.astype(np.int64) * n + coo.col, n * n)
    values = np.append(coo.data.astype(np.float64), 0.0)
    adjacency = np.empty((n, k, k))
    for start in range(0, n, RANK_BLOCK_ROWS):
        ids = indices[start:start + RANK_BLOCK_ROWS]
        wanted = ids[:, :, None] * n + ids[:, None, :]
        at = np.searchsorted(keys, wanted)
        adjacency[start:start + len(ids)] = np.where(keys[at] == wanted, values[at], 0.0)
    return SubgraphSet(parent_indices=indices, adjacency=adjacency,
                       node_features=graph.features)
