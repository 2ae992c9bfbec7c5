"""Independent references used by the tests.

Most of what is here is deliberately naive (python loops, exhaustive
enumeration, grids) and shares no code with the production paths it checks.
Three groups share some:

* the per-pair mirror oracles and ``chunked_mirror_search`` (the O(k^4)
  sweep the separable scan replaced) take the distance matrix from the
  package's one distance kernel, ``acgcl.autodiff.euclidean_matrix``
  (``distance_matrix``), so that their sums compare bit for bit with the
  search;
* the single-item references for the batched encoder and losses
  (``gcn_forward``, ``inter_graph_loss``, ``intra_graph_loss``,
  ``per_sample_loss``) handle one subgraph, one center or one sample at a
  time. They are built from ``acgcl.autodiff`` operations, so their gradients
  can be checked too, and ``gcn_forward`` normalizes with
  ``acgcl.encoder.sym_normalized_adjacency``;
* ``three_pass_ppr_scores`` inverts with ``acgcl.sampler._invert_in_place``,
  so that its scaling compares bit for bit with ``compute_ppr_scores``.

``full_table_adjacencies`` thresholds the full (k, k) float tables that
the ``MirrorSearch`` triangle replaced, with the mirror edges that its
positions replaced, and ``scaled_sym_normalized_adjacency``
scales the float A + I on both sides, the form the package's masked outer
product replaced.
``prelu`` of a ``matmul`` is the two-node GCN layer that the package's
``linear_prelu`` replaced, keeping the product between the passes.
``row_sq_norm`` of a ``sub`` is the three-node chain that the package's
fused ``row_sq_dist`` replaced, and ``take_rows_dense`` the gather whose
full-array gradient the package's row contributions replaced. ``pairwise_euclidean_diff`` is the
difference-tensor form that the package's Gram-form ``pairwise_euclidean``
replaced, and ``prelu_where`` the select form that the branch-free ``prelu``
replaced. ``dense_solve_ppr`` is the
resolvent solve on the column-normalized adjacency that the package's
symmetric in-place inverse replaced, and ``searched_induced`` the edge-key
search that the package's bit table of induced entries replaced.
``three_pass_ppr_scores`` scales the inverse in three passes over the whole
array, the form that the row-blocked scaling replaced.
``sinkhorn_log_node`` is the log-domain Sinkhorn solve that the package's
kernel-domain node replaced; it checks its marginals at the package's ``_TOL_CHECK_EVERY`` and returns a
``SinkhornStats``, so iteration counts compare directly.
``row_difference_distances`` measures every pair of a subgraph set as a
feature row difference, the reference for the Gram-form pair distances of
``MirrorSearch.distances``.
``gradient_descent_probe`` is the fixed-budget gradient-descent probe fit
that the package's Newton-CG ``fit_probe`` replaced. ``probe_baselines`` gives
the two probe accuracies a trained encoder is compared with.
``one_pass_difficulty_curve`` encodes every subgraph and both mirror views
in one forward pass each, the form the package's blocked
``difficulty_curve`` replaced. ``assert_same_tables`` compares two
``MirrorSearch`` results table for table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from acgcl import autodiff as ad
from acgcl.augment import MirrorSearch, quantile
from acgcl.encoder import (GcnParams, gcn_forward_batched, init_gcn_params,
                           sym_normalized_adjacency)
from acgcl.errors import ShapeError, SizeError
from acgcl.losses import _TOL_CHECK_EVERY, SinkhornStats, inter_graph_losses_grouped
from acgcl.sampler import Subgraph, SubgraphSet, _invert_in_place
from acgcl.trainer import evaluate_probe, probe_accuracy, probe_splits


def exhaustive_mirror_pair(features, parents, labels, a, b, gamma, polarity):
    """Plain double loop over ordered candidate pairs (c, d)."""
    k = len(parents)
    best = None
    best_sum = np.inf
    for c in range(k):
        if parents[c] == parents[a] or parents[c] == parents[b]:
            continue
        for d in range(k):
            if parents[d] == parents[a] or parents[d] == parents[b]:
                continue
            if parents[c] == parents[d]:
                continue
            if polarity == "positive":
                if not (labels[c] == labels[a] and labels[d] == labels[b]):
                    continue
            else:
                if labels[c] == labels[a] and labels[d] == labels[b]:
                    continue
            total = pair_distance(features[c], features[a]) + pair_distance(features[d], features[b])
            if total < 2 * gamma and total < best_sum:
                best = (c, d)
                best_sum = total
    return best


def distance_matrix(x: np.ndarray) -> np.ndarray:
    """(k, k) distances between the rows of a (k, dim) ``x``, from the
    package's kernel, as ``acgcl.augment.mirror_search`` forms them."""
    return ad.euclidean_matrix(x, x)[0]


def pair_distance(x_a, x_b) -> float:
    """Euclidean distance of two feature vectors."""
    x_a = np.asarray(x_a, dtype=np.float64)
    x_b = np.asarray(x_b, dtype=np.float64)
    if x_a.shape != x_b.shape:
        raise ShapeError(f"feature shapes differ: {x_a.shape} vs {x_b.shape}")
    return float(np.sqrt(np.sum((x_a - x_b) ** 2)))


def _candidate_masks(subgraph: Subgraph, semantics: np.ndarray):
    parents = subgraph.parent_indices
    labels = semantics[parents]
    parent_neq = parents[:, None] != parents[None, :]
    label_eq = labels[:, None] == labels[None, :]
    return parents, labels, parent_neq, label_eq


def find_mirror_pair(subgraph: Subgraph, pair, gamma, semantics: np.ndarray,
                     polarity="positive", dmat=None):
    """Best admissible mirror of (a, b), or None. Positions index the
    subgraph; ties break to the lexicographically smallest (c, d)."""
    a, b = pair
    k = len(subgraph.parent_indices)
    if not (0 <= a < k and 0 <= b < k) or a == b:
        raise ValueError(f"pair {pair} invalid for subgraph of size {k}")
    if polarity not in ("positive", "negative"):
        raise ValueError("polarity must be 'positive' or 'negative'")
    if dmat is None:
        dmat = distance_matrix(subgraph.node_features[subgraph.parent_indices])
    parents, labels, parent_neq, label_eq = _candidate_masks(subgraph, semantics)

    sums = dmat[:, a][:, None] + dmat[:, b][None, :]
    excluded = (parents == parents[a]) | (parents == parents[b])
    valid = (~excluded[:, None]) & (~excluded[None, :]) & parent_neq
    if polarity == "positive":
        valid &= label_eq[:, a][:, None] & label_eq[:, b][None, :]
    else:
        valid &= (~label_eq[:, a][:, None]) | (~label_eq[:, b][None, :])
    valid &= sums < 2.0 * gamma
    if not valid.any():
        return None
    masked = np.where(valid, sums, np.inf)
    flat = int(np.argmin(masked))   # first minimum in row-major order = lexicographic
    return flat // k, flat % k


class Replacement(NamedTuple):
    a: int
    b: int
    c: int
    d: int
    distance_sum: float
    original_edge: int
    mirror_edge: int


@dataclass
class MirrorStats:
    gamma: float
    pos_replacements: list[Replacement] = field(default_factory=list)
    neg_replacements: list[Replacement] = field(default_factory=list)
    pos_unmatched: int = 0
    neg_unmatched: int = 0


@dataclass(frozen=True)
class PerPairMirrors:
    positive_adjacency: np.ndarray
    negative_adjacency: np.ndarray
    stats: MirrorStats


def per_pair_mirror_augment(subgraph: Subgraph, gamma, semantics: np.ndarray) -> PerPairMirrors:
    """Mirror adjacencies of one subgraph by a fresh search at this gamma,
    one Python step per pair (a, b), with the replacement log in (a, b)
    order: the bit-exact reference for ``acgcl.augment.mirror_search``, its
    thresholded adjacencies and ``MirrorSearch.replacements``."""
    k = len(subgraph.parent_indices)
    adj = subgraph.adjacency
    dmat = distance_matrix(subgraph.node_features[subgraph.parent_indices])
    parents, labels, parent_neq, label_eq = _candidate_masks(subgraph, semantics)
    excluded_by = parents[:, None] == parents[None, :]   # excluded_by[a, c]

    pos_adj = adj.copy()
    neg_adj = adj.copy()
    stats = MirrorStats(gamma=float(gamma))

    # Chunk over the first pair element: (b, c, d) tensors of shape (k, k, k).
    base_valid = parent_neq[None, :, :]                   # c != d by parent
    for a in range(k):
        # sums[b, c, d] = dmat[a, c] + dmat[b, d]
        sums = dmat[a][None, :, None] + dmat[:, None, :]
        ok_c = ~(excluded_by[a][None, :] | excluded_by)   # ok_c[b, c]
        valid = ok_c[:, :, None] & ok_c[:, None, :] & base_valid & (sums < 2.0 * gamma)
        pos_valid = valid & label_eq[a][None, :, None] & label_eq[:, None, :]
        neg_valid = valid & ((~label_eq[a])[None, :, None] | (~label_eq)[:, None, :])
        for mask, target, replaced, unmatched_attr in (
            (pos_valid, pos_adj, stats.pos_replacements, "pos_unmatched"),
            (neg_valid, neg_adj, stats.neg_replacements, "neg_unmatched"),
        ):
            masked = np.where(mask, sums, np.inf).reshape(k, k * k)
            best = masked.min(axis=1)
            best_flat = masked.argmin(axis=1)
            for b in range(a + 1, k):
                if not parent_neq[a, b]:
                    continue   # padded duplicates are not a real pair
                if np.isfinite(best[b]):
                    c, d = int(best_flat[b] // k), int(best_flat[b] % k)
                    edge = adj[c, d]
                    target[a, b] = target[b, a] = edge
                    replaced.append(Replacement(a, b, c, d, float(best[b]),
                                                int(adj[a, b]), int(edge)))
                else:
                    setattr(stats, unmatched_attr, getattr(stats, unmatched_attr) + 1)

    return PerPairMirrors(positive_adjacency=pos_adj, negative_adjacency=neg_adj, stats=stats)


def chunked_mirror_search(subgraphs: SubgraphSet, semantics: np.ndarray) -> MirrorSearch:
    """The O(k^4) search that ``acgcl.augment.mirror_search`` replaced: one
    (b, c, d) chunk of every sum per first pair element a, minimized in
    row-major order, into full (k, k) tables that are then packed to the
    pairs a < b, whose distances it collects in the same order. Its
    tables are the bit-exact reference for the separable scan."""
    adjacency = np.asarray(subgraphs.adjacency, dtype=bool)
    n, k = adjacency.shape[:2]
    best = np.full((2, n, k, k), np.inf)
    argmin = np.zeros((2, n, k, k), dtype=np.min_scalar_type(k * k - 1))
    distances = [np.empty(0)]
    for i, sub in enumerate(subgraphs):
        dmat = distance_matrix(sub.node_features[sub.parent_indices])
        parents = sub.parent_indices
        labels = semantics[parents]
        parent_neq = parents[:, None] != parents[None, :]
        label_eq = labels[:, None] == labels[None, :]
        # Chunk over the first pair element: (b, c, d) tensors over the
        # partners b > a with a parent other than a's.
        for a in range(k - 1):
            bs = a + 1 + np.flatnonzero(parent_neq[a, a + 1:])
            if bs.size == 0:
                continue
            distances.append(dmat[a, bs])
            sums = dmat[a][None, :, None] + dmat[bs][:, None, :]   # dmat[a, c] + dmat[b, d]
            ok = parent_neq[a][None, :] & parent_neq[bs]            # ok[b, c]
            valid = ok[:, :, None] & ok[:, None, :] & parent_neq[None, :, :]
            same = label_eq[a][None, :, None] & label_eq[bs][:, None, :]
            rows = np.arange(bs.size)
            for p, mask in enumerate((valid & same, valid & ~same)):
                masked = np.where(mask, sums, np.inf).reshape(bs.size, k * k)
                flat = masked.argmin(axis=1)   # first minimum in row-major order
                best[p, i, a, bs] = best[p, i, bs, a] = masked[rows, flat]
                argmin[p, i, a, bs] = argmin[p, i, bs, a] = flat
    upper = np.triu_indices(k, 1)
    best, argmin = best[..., upper[0], upper[1]], argmin[..., upper[0], upper[1]]
    return MirrorSearch(adjacency=adjacency, best=best, argmin=argmin,
                        distances=np.concatenate(distances))


def full_table_adjacencies(search: MirrorSearch, gamma) -> np.ndarray:
    """(2, n, k, k) float mirror adjacencies at gamma, thresholded as when
    the search kept both triangles of every table and the mirror edge of
    each: the pair tables spread to symmetric (k, k) ones, where infinite
    sums on the diagonal keep the source's self loops, and each pair's
    mirror edge is the source's at (c, d) = divmod(argmin, k)."""
    n, k = search.adjacency.shape[:2]
    a, b = np.triu_indices(k, 1)
    c, d = np.divmod(search.argmin.astype(np.int64), k)
    best, edge = np.full((2, n, k, k), np.inf), np.zeros((2, n, k, k))
    best[..., a, b] = best[..., b, a] = search.best
    edge[..., a, b] = edge[..., b, a] = search.adjacency[np.arange(n)[:, None], c, d]
    return np.where(best < 2.0 * gamma, edge, search.adjacency.astype(np.float64))


def scaled_sym_normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """D^-1/2 (A + I) D^-1/2 of a (..., k, k) stack: the float A + I, scaled
    by 1 / sqrt(deg) on its rows, then on its columns."""
    a_hat = np.asarray(adjacency, dtype=np.float64) + np.eye(adjacency.shape[-1])
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=-1))
    a_hat *= inv_sqrt[..., :, None]
    a_hat *= inv_sqrt[..., None, :]
    return a_hat


def matmul(a, b) -> ad.Tensor:
    """2-d matrix product as its own node, which keeps both operands."""
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ShapeError("matmul expects 2-d tensors")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes {a.shape} and {b.shape} do not chain")

    def backward_fn(g):
        return (g @ b.value.T if a.requires_grad else None,
                a.value.T @ g if b.requires_grad else None)

    return ad._node(a.value @ b.value, (a, b), backward_fn)


def prelu(a, slope) -> ad.Tensor:
    """Parametric relu with a scalar learnable slope as its own node, which
    keeps its input: ``prelu(matmul(x, w), slope)`` is the two-node form of
    the package's ``linear_prelu``. Branch-free as that node is: the value is
    max(a, slope * a) for slope <= 1 and min(a, slope * a) above 1, and the
    backward pass forms both gradients in one buffer from the mask a > 0
    used as a float."""
    a, slope = ad.as_tensor(a), ad.as_tensor(slope)
    if slope.value.ndim != 0:
        raise ShapeError("prelu slope must be a scalar tensor")
    value = slope.value * a.value
    (np.maximum if slope.value <= 1 else np.minimum)(a.value, value, out=value)

    def backward_fn(g):
        mask = a.value > 0
        out = np.empty_like(a.value)
        da = dslope = None
        if slope.requires_grad:
            np.minimum(0.0, a.value, out=out)     # a where a <= 0, else 0
            out *= g
            dslope = np.asarray(out.sum())
        if a.requires_grad:
            # -(g * (slope * (mask - 1) - mask)) is g where a > 0 and g * slope
            # elsewhere, each rounded once and with the sign of a zero kept.
            np.subtract(mask, 1.0, out=out)
            out *= slope.value
            out -= mask
            out *= g
            da = np.negative(out, out=out)
        return da, dslope

    return ad._node(value, (a, slope), backward_fn)


def gcn_forward(params: GcnParams, adjacency: np.ndarray, features) -> ad.Tensor:
    """Embed one subgraph: (k, k) adjacency and (k, in_dim) features -> (k, d);
    the reference for one block of ``acgcl.encoder.gcn_forward_batched``.
    It multiplies An @ (H @ W), where the package forms (An @ H) @ W, so the
    two agree to rounding."""
    features = ad.as_tensor(features)
    if adjacency.shape[0] != adjacency.shape[1] or adjacency.shape[0] != features.shape[0]:
        raise ShapeError(f"adjacency {adjacency.shape} vs features {features.shape}")
    a_hat = sym_normalized_adjacency(adjacency)
    h = features
    for weight, slope in zip(params.weights, params.slopes):
        h = prelu(matmul(ad.Tensor(a_hat), matmul(h, weight)), slope)
    return h


def row_sq_norm(a) -> ad.Tensor:
    """Per-row squared euclidean norm, (n, d) -> (n,), as mul -> sum_axis."""
    a = ad.as_tensor(a)
    return ad.sum_axis(ad.mul(a, a), 1)


def take_rows_dense(a, indices: np.ndarray) -> ad.Tensor:
    """``take_rows`` whose backward pass returns a full array, zero outside
    the gathered rows: the dense scatter that the package's row
    contributions replaced."""
    a = ad.as_tensor(a)
    indices = np.asarray(indices, dtype=np.int64)

    def backward_fn(g):
        out = np.zeros_like(a.value)
        out[indices] = g
        return (out,)

    return ad._node(a.value[indices], (a,), backward_fn)


def dense_scatter_sum(contributions, shape) -> np.ndarray:
    """The gradient that ``contributions``, in arrival order, give a leaf of
    ``shape`` when every row contribution is scattered into a full array:
    an (indices, rows) pair is assigned into zeros when it comes first and
    added into the rows ``indices`` after; a full array is taken as it is
    when it comes first and added after."""
    grad = None
    for contrib in contributions:
        if isinstance(contrib, tuple):
            indices, rows = contrib
            if grad is None:
                grad = np.zeros(shape)
                grad[indices] = rows
            else:
                grad[indices] += rows
        else:
            grad = contrib.copy() if grad is None else grad + contrib
    return grad


def inter_graph_loss(h, h_pos, h_neg, xi: float) -> ad.Tensor:
    """Mean over nodes of [|h - h+|^2 - |h - h-|^2 + xi]_+ for one subgraph;
    the reference for one group of ``inter_graph_losses_grouped``."""
    h, h_pos, h_neg = ad.as_tensor(h), ad.as_tensor(h_pos), ad.as_tensor(h_neg)
    if not (h.shape == h_pos.shape == h_neg.shape):
        raise ShapeError(f"embedding shapes differ: {h.shape}, {h_pos.shape}, {h_neg.shape}")
    pos = row_sq_norm(ad.sub(h, h_pos))
    neg = row_sq_norm(ad.sub(h, h_neg))
    hinge = ad.relu(ad.add(ad.sub(pos, neg), ad.Tensor(float(xi))))
    return ad.scale(ad.sum_all(hinge), 1.0 / hinge.value.size)


def intra_graph_loss(h_center, summary, summary_neg, epsilon: float) -> ad.Tensor:
    """[sigmoid(h . s~) - sigmoid(h . s) + epsilon]_+ for one center node;
    the reference for one row of ``intra_graph_losses_batched``."""
    h = ad.as_tensor(h_center)
    pos = ad.sigmoid(ad.sum_all(ad.mul(h, summary)))
    neg = ad.sigmoid(ad.sum_all(ad.mul(h, summary_neg)))
    return ad.relu(ad.add(ad.sub(neg, pos), ad.Tensor(float(epsilon))))


def per_sample_loss(l_intra, l_inter, l_balance, alpha: float, beta: float, n: int) -> ad.Tensor:
    """l_intra + alpha * l_balance / n + beta * l_inter for one sample; the
    reference for one entry of ``per_sample_losses_batched``."""
    if n < 1:
        raise ShapeError(f"n must be >= 1, got {n}")
    return ad.add(
        ad.as_tensor(l_intra),
        ad.add(ad.scale(ad.as_tensor(l_balance), alpha / n),
               ad.scale(ad.as_tensor(l_inter), beta)),
    )


def dense_adjacency(graph) -> np.ndarray:
    """The (n, n) 0/1 adjacency whose nonzero entries the graph's edge keys
    row * n + col name."""
    n = graph.n_nodes
    dense = np.zeros((n, n))
    for key in graph.adjacency.tolist():
        dense[key // n, key % n] = 1.0
    return dense


def searched_induced(graph, ids: np.ndarray) -> np.ndarray:
    """(..., k, k) bool adjacency among the (..., k) ``ids``: each entry's
    key row * n + col searched for in the graph's edge keys, closed by the
    sentinel n * n so that every search lands on a valid index."""
    n = graph.n_nodes
    keys = np.append(graph.adjacency, n * n)
    wanted = ids[..., :, None] * n + ids[..., None, :]
    return keys[np.searchsorted(keys, wanted)] == wanted


def column_normalize(adjacency: np.ndarray) -> np.ndarray:
    """A @ D^-1 of a dense adjacency; zero-degree columns stay all-zero."""
    deg = adjacency.sum(axis=0)
    return adjacency / np.where(deg > 0, deg, 1.0)


def dense_solve_ppr(graph, teleport=0.15):
    """Personalized-PageRank scores from a dense solve of the teleport
    resolvent t * (I - (1 - t) * A D^-1)^-1, clamped at zero."""
    n = graph.n_nodes
    system = np.eye(n) - (1.0 - teleport) * column_normalize(dense_adjacency(graph))
    scores = np.linalg.solve(system, teleport * np.eye(n))
    return np.maximum(scores, 0.0, out=scores)


def three_pass_ppr_scores(graph, teleport=0.15):
    """``compute_ppr_scores`` with its scaling as three passes over the whole
    inverse: rows by t D^1/2, columns by D^-1/2, then the clamp at zero. The
    symmetric resolvent is built and inverted as the package does it, by
    ``acgcl.sampler._invert_in_place``."""
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
    b *= (teleport * root)[:, None]
    b *= inv_root
    np.maximum(b, 0.0, out=b)
    isolated = np.flatnonzero(degree == 0)
    b[isolated, isolated] = teleport
    return b


def power_iteration_ppr(graph, teleport, tol=1e-6, max_iters=1000):
    """Personalized-PageRank scores by fixed-point iteration on all rows.

    Row i solves z = teleport * e_i + (1 - teleport) * z @ An, with An the
    adjacency divided by its column sums (zero-degree columns stay zero).
    Stops once the largest per-row l1 change is below ``tol``.
    """
    normalized = column_normalize(dense_adjacency(graph))
    target = teleport * np.eye(graph.n_nodes)
    scores = target.copy()
    for _ in range(max_iters):
        updated = target + (1.0 - teleport) * (scores @ normalized)
        residual = np.abs(updated - scores).sum(axis=1).max()
        scores = updated
        if residual < tol:
            return scores
    raise AssertionError(f"power iteration did not reach {tol} within {max_iters} iterations")


def top_rank(score_row, k, center):
    """Indices of the k largest scores, descending, ties by ascending id;
    the center is always forced into position 0. Scores that round to the
    same multiple of 1e-12 of the row maximum tie."""
    score_row = np.asarray(score_row, dtype=np.float64)
    n = score_row.shape[0]
    if not (1 <= k <= n):
        raise SizeError(f"k={k} outside [1, {n}]")
    unit = score_row.max() * 1e-12
    rounded = np.rint(score_row / unit) if unit != 0 else np.zeros(n)
    order = np.lexsort((np.arange(n), -rounded))
    order = order[order != center]
    return np.concatenate([[center], order[: k - 1]]).astype(np.int64)


def subgraph_indices(score_row, k, center):
    """One node's k subgraph ids: ``top_rank``, minus nodes scoring at or
    below 1e-12 of the row maximum, padded with the center to length k."""
    score_row = np.asarray(score_row, dtype=np.float64)
    ranked = top_rank(score_row, min(k, len(score_row)), center)
    cutoff = score_row.max() * 1e-12
    keep = [int(i) for i in ranked if i == center or score_row[i] > cutoff]
    return np.array(keep + [center] * (k - len(keep)), dtype=np.int64)


def pairwise_euclidean_diff(p, q) -> ad.Tensor:
    """(m, d), (n, d) -> (m, n) euclidean distances from the explicit
    (m, n, d) difference tensor, in both passes; gradient 0 at coincident
    points."""
    p, q = ad.as_tensor(p), ad.as_tensor(q)
    diff = p.value[:, None, :] - q.value[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))

    def backward_fn(g):
        inv = np.where(dist > 0, 1.0 / np.where(dist > 0, dist, 1.0), 0.0)
        weighted = (g * inv)[:, :, None] * diff
        return weighted.sum(axis=1), -weighted.sum(axis=0)

    return ad._node(dist, (p, q), backward_fn)


def prelu_where(a, slope) -> ad.Tensor:
    """Parametric relu as a select on the mask a > 0 in both passes: the form
    that the branch-free ``prelu`` replaced."""
    a, slope = ad.as_tensor(a), ad.as_tensor(slope)
    mask = a.value > 0
    value = np.where(mask, a.value, slope.value * a.value)

    def backward_fn(g):
        da = g * np.where(mask, 1.0, slope.value)
        dslope = np.asarray((g * np.where(mask, 0.0, a.value)).sum())
        return da, dslope

    return ad._node(value, (a, slope), backward_fn)


def sinkhorn_log_node(cost: ad.Tensor, reg: float, max_iters: int, tol: float
                      ) -> tuple[ad.Tensor, SinkhornStats]:
    """Log-domain Sinkhorn scaling on the potentials f, g, with the same
    every-10-steps stop and an exact reverse replay. The package's kernel
    node runs the same iterates with u = exp(f/reg) and v = exp(g/reg)."""
    m, n = cost.value.shape
    c = cost.value
    c_over = c / reg                 # shared by every update and the replay
    log_a = -np.log(m)
    log_b = -np.log(n)
    weight_a = np.full(m, 1.0 / m)

    f_hist = np.zeros((max_iters, m))
    g_hist = np.zeros((max_iters + 1, n))   # g_hist[0] is the zero start
    g = np.zeros(n)
    used = 0
    for t in range(max_iters):
        f = -reg * _logsumexp(g[None, :] / reg - c_over + log_b, axis=1)
        g = -reg * _logsumexp(f[:, None] / reg - c_over + log_a, axis=0)
        f_hist[t] = f
        g_hist[t + 1] = g
        used = t + 1
        if tol > 0 and used % _TOL_CHECK_EVERY == 0:
            plan = np.exp((f[:, None] + g[None, :]) / reg - c_over + log_a + log_b)
            if np.abs(plan.sum(axis=1) - weight_a).sum() < tol:
                break
    f, g = f_hist[used - 1], g_hist[used]
    plan = np.exp((f[:, None] + g[None, :]) / reg - c_over + log_a + log_b)
    value = float((plan * c).sum())

    def backward_fn(upstream):
        grad_c = upstream * plan * (1.0 - c_over)
        lam_f = upstream * (plan * c).sum(axis=1) / reg
        lam_g = upstream * (plan * c).sum(axis=0) / reg
        for t in range(used - 1, -1, -1):
            f_t = f_hist[t][:, None] / reg - c_over
            w = np.exp(f_t + (g_hist[t + 1] / reg + log_a)[None, :])
            lam_f = lam_f - w @ lam_g
            grad_c = grad_c + w * lam_g[None, :]
            s = np.exp(f_t + (g_hist[t] / reg + log_b)[None, :])
            grad_c = grad_c + s * lam_f[:, None]
            lam_g = -(s.T @ lam_f)
            lam_f = np.zeros(m)
        return (grad_c,)

    err = float(np.abs(plan.sum(axis=1) - weight_a).sum())
    stats = SinkhornStats(used, err, err < tol)
    return ad._node(np.asarray(value), (cost,), backward_fn), stats


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    peak = x.max(axis=axis, keepdims=True)
    return (peak + np.log(np.exp(x - peak).sum(axis=axis, keepdims=True))).squeeze(axis)


def exact_w1_1d(xs, ys):
    """Exact 1-d Wasserstein-1 between equal-size uniform point sets."""
    xs, ys = np.sort(np.ravel(xs)), np.sort(np.ravel(ys))
    assert len(xs) == len(ys)
    return float(np.abs(xs - ys).mean())


_GRID = np.linspace(0.0, 1.0, 1001)


def acl_oracle_weight(loss, lambda1, lambda2, mode, rounds=100):
    """Adversarial weight via alternating grid optimization.

    Per sample: maximize over u on a 1001-point grid (given v), then minimize
    over v (given u), tracking the product u * v until it stabilizes. Starts
    from v = 1 so the minimizing controller answers the maximizer each round.
    """
    v = 1.0
    prev = None
    prod = 0.0
    for _ in range(rounds):
        if mode == "hard":
            obj_u = _GRID * v * loss - lambda2 * _GRID
        elif mode == "soft":
            obj_u = _GRID * v * loss - 0.5 * lambda2 * _GRID ** 2
        else:
            raise ValueError(mode)
        u = _GRID[int(np.argmax(obj_u))]
        obj_v = u * _GRID * loss - lambda1 * _GRID
        v = _GRID[int(np.argmin(obj_v))]
        prod = u * v
        if prev is not None and abs(prod - prev) < 1e-12:
            break
        prev = prod
    return prod


def acl_oracle_weights(losses, lambda1, lambda2, mode):
    return np.array([acl_oracle_weight(l, lambda1, lambda2, mode) for l in losses])


def directional_grad_check(fn, values, rng, step=1e-5, n_directions=3):
    """Compare reverse-mode directional derivatives against central finite
    differences. ``fn(values) -> (loss_tensor, tensors)`` rebuilds the graph
    from plain arrays. Returns the worst relative error."""
    loss, tensors = fn(values)
    grads = ad.gradients(loss, tensors)
    worst = 0.0
    for idx in range(len(values)):
        for _ in range(n_directions):
            direction = rng.standard_normal(values[idx].shape)
            norm = np.linalg.norm(direction)
            if norm == 0:
                continue
            direction /= norm
            plus = [v.copy() for v in values]
            minus = [v.copy() for v in values]
            plus[idx] = plus[idx] + step * direction
            minus[idx] = minus[idx] - step * direction
            fd = (float(fn(plus)[0].value) - float(fn(minus)[0].value)) / (2 * step)
            advalue = float((grads[idx] * direction).sum())
            err = abs(advalue - fd) / max(abs(fd), abs(advalue), 1e-6)
            worst = max(worst, err)
    return worst


def spearman(xs, ys):
    """Rank correlation with average ranks for ties."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)

    def ranks(v):
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1)
        for val in np.unique(v):
            mask = v == val
            if mask.sum() > 1:
                r[mask] = r[mask].mean()
        return r

    rx, ry = ranks(xs), ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx ** 2).sum() * (ry ** 2).sum())
    return float((rx * ry).sum() / denom) if denom > 0 else 0.0


def row_difference_distances(subgraphs):
    """The distance of every pair a < b with distinct parents, subgraph by
    subgraph and row-major within each, measured as the norm of the feature
    row difference: the reference for ``MirrorSearch.distances``."""
    values = []
    for sub in subgraphs:
        iu, iv = np.triu_indices(len(sub.parent_indices), k=1)
        distinct = sub.parent_indices[iu] != sub.parent_indices[iv]
        x = sub.node_features[sub.parent_indices]
        diff = x[iu[distinct]] - x[iv[distinct]]
        values.append(np.sqrt(np.sum(diff * diff, axis=1)))
    return np.concatenate(values)


def gradient_descent_probe(x_train, labels, n_classes, iters, l2, lr):
    """The probe fit that ``acgcl.trainer.fit_probe`` replaced: ``iters``
    full-batch gradient-descent steps of size ``lr`` on the same loss, from
    zero; returns the (dim, classes) weight and the bias."""
    onehot = np.eye(n_classes)[labels]
    weight = np.zeros((x_train.shape[1], n_classes))
    bias = np.zeros(n_classes)
    for _ in range(iters):
        logits = x_train @ weight + bias
        logits -= logits.max(axis=1, keepdims=True)
        prob = np.exp(logits)
        prob /= prob.sum(axis=1, keepdims=True)
        delta = (prob - onehot) / len(x_train)
        weight -= lr * (x_train.T @ delta + 2.0 * l2 * weight)
        bias -= lr * delta.sum(axis=0)
    return weight, bias


def probe_baselines(graph, subgraphs: SubgraphSet, config) -> dict[str, float]:
    """Test accuracies of the probe on what needs no training: the center
    embeddings of an untrained encoder (``"untrained"``), and each node's raw
    features averaged over its PPR subgraph (``"subgraph_mean"``)."""
    params = init_gcn_params(graph.feature_dim, config.embedding_dim, config.gcn_layers,
                             config.seed)
    mean = graph.features[subgraphs.parent_indices].mean(axis=1)
    return {
        "untrained": probe_accuracy(params, subgraphs, graph, config)["test"],
        "subgraph_mean": evaluate_probe(mean, graph.labels, probe_splits(graph, config),
                                        config.probe_l2)["test"],
    }


def one_pass_difficulty_curve(params: GcnParams, subgraphs: SubgraphSet, search: MirrorSearch,
                              theta_grid, xi: float) -> list[tuple[float, float, float]]:
    """``trainer.difficulty_curve`` with all n subgraphs in each forward pass."""
    n, k = subgraphs.adjacency.shape[:2]
    feats = subgraphs.node_features[subgraphs.parent_indices].reshape(n * k, -1)
    h = gcn_forward_batched(params, subgraphs.adjacency, feats, centers_only=False)
    rows = []
    for theta in theta_grid:
        gamma = quantile(search.distances, float(theta))
        h_pos, h_neg = (gcn_forward_batched(params, view, feats, centers_only=False)
                        for view in search.adjacencies(gamma))
        losses = inter_graph_losses_grouped(h, h_pos, h_neg, xi, k).value
        rows.append((float(theta), float(losses.mean()), float(losses.std())))
    return rows


def assert_same_tables(got: MirrorSearch, want: MirrorSearch) -> None:
    """Every table of ``got`` equals ``want``'s in dtype and values. The
    names are ``MirrorSearch``'s fields, so no table can be left out."""
    for table in fields(MirrorSearch):
        a, b = getattr(got, table.name), getattr(want, table.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), table.name
