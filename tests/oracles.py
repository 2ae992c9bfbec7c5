"""Independent brute-force oracles used by the tests.

Everything here is deliberately naive (python loops, exhaustive enumeration,
grids) and shares no code with the production paths it checks.
"""

from __future__ import annotations

import numpy as np

from acgcl.errors import SizeError


def exhaustive_mirror_pair(features, parents, labels, a, b, gamma, metric, polarity):
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
            total = _dist(features[c], features[a], metric) + _dist(features[d], features[b], metric)
            if total < 2 * gamma and total < best_sum:
                best = (c, d)
                best_sum = total
    return best


def _dist(x, y, metric):
    if metric == "euclidean":
        return float(np.sqrt(((x - y) ** 2).sum()))
    if metric == "manhattan":
        return float(np.abs(x - y).sum())
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0 or ny == 0:
        return 1.0
    return float(1.0 - np.dot(x, y) / (nx * ny))


def power_iteration_ppr(graph, teleport, tol=1e-6, max_iters=1000):
    """Personalized-PageRank scores by fixed-point iteration on all rows.

    Row i solves z = teleport * e_i + (1 - teleport) * z @ An, with An the
    adjacency divided by its column sums (zero-degree columns stay zero).
    Stops once the largest per-row l1 change is below ``tol``.
    """
    adjacency = graph.adjacency.toarray()
    degree = adjacency.sum(axis=0)
    normalized = adjacency / np.where(degree > 0, degree, 1.0)
    target = teleport * np.eye(len(adjacency))
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
    the center is always forced into position 0."""
    score_row = np.asarray(score_row, dtype=np.float64)
    n = score_row.shape[0]
    if not (1 <= k <= n):
        raise SizeError(f"k={k} outside [1, {n}]")
    order = np.lexsort((np.arange(n), -score_row))
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
    from acgcl import autodiff as ad

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
            fd = (fn(plus)[0].item() - fn(minus)[0].item()) / (2 * step)
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
