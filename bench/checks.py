"""Output checks of the benchmark.

Every check compares the program's output against a computation made here,
apart from ``acgcl``, or against a property the method must have. A check
returns ``None`` when it passes and a one-line reason when it does not.
The reference computations are deliberately plain: a brute-force mirror
search, a sparse direct solve of the PageRank resolvent, a numpy GCN and a
least-squares classifier.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from inputs import Dataset

# Two floating-point sums closer than this count as tied: the program and the
# reference may add the same distances in a different order.
TIE_RTOL = 1e-9


# ---------------------------------------------------------------------------
# Mirror graphs

def _distances(x: np.ndarray) -> np.ndarray:
    out = np.empty((len(x), len(x)))
    for i in range(len(x)):
        out[i] = np.sqrt(((x - x[i]) ** 2).sum(axis=1))
    return out


def mirror_reference(data: Dataset, parents: np.ndarray, gamma: float):
    """Allowed edge values of each mirror graph entry, per polarity.

    Returns ``{"positive": allowed, "negative": allowed}`` where ``allowed``
    is a (k, k) array of frozensets. For every pair (a, b) of distinct nodes
    the search enumerates all mirror pairs (c, d) of other nodes, keeps those
    whose summed feature distance d(c, a) + d(d, b) is below 2 * gamma and
    whose labels match (positive) or differ in at least one place (negative),
    and copies the edge of the closest one. Candidates within floating-point
    tolerance of the best, or of the threshold, are all allowed.
    """
    parents = np.asarray(parents)
    k = len(parents)
    adj = data.sub_adjacency(parents)
    labels = data.labels[parents]
    dist = _distances(data.features[parents])
    tol = TIE_RTOL * (1.0 + 2.0 * abs(gamma))
    result = {}
    for polarity in ("positive", "negative"):
        allowed = np.empty((k, k), dtype=object)
        for a in range(k):
            for b in range(k):
                allowed[a, b] = frozenset({float(adj[a, b])})
        for a in range(k):
            for b in range(a + 1, k):
                if parents[a] == parents[b]:
                    continue
                other = (parents != parents[a]) & (parents != parents[b])
                mask = other[:, None] & other[None, :] & (parents[:, None] != parents[None, :])
                same_a = labels == labels[a]
                same_b = labels == labels[b]
                if polarity == "positive":
                    mask &= same_a[:, None] & same_b[None, :]
                else:
                    mask &= ~(same_a[:, None] & same_b[None, :])
                sums = dist[:, a][:, None] + dist[:, b][None, :]
                loose = mask & (sums < 2.0 * gamma + tol)
                if not loose.any():
                    continue
                best = sums[loose].min()
                near = loose & (sums <= best + tol)
                values = set(adj[near].tolist())
                if not (mask & (sums < 2.0 * gamma - tol)).any():
                    values.add(float(adj[a, b]))     # the best may sit on the threshold
                allowed[a, b] = allowed[b, a] = frozenset(values)
        np.fill_diagonal(allowed, frozenset({0.0}))
        result[polarity] = allowed
    return result


def check_mirror(data: Dataset, parents, gamma: float, positive, negative) -> str | None:
    reference = mirror_reference(data, parents, gamma)
    for name, got in (("positive", positive), ("negative", negative)):
        got = np.asarray(got, dtype=float)
        allowed = reference[name]
        if got.shape != allowed.shape:
            return f"{name} mirror of node {parents[0]}: shape {got.shape}, expected {allowed.shape}"
        bad = [(a, b) for a in range(got.shape[0]) for b in range(got.shape[1])
               if got[a, b] not in allowed[a, b]]
        if bad:
            a, b = bad[0]
            return (f"{name} mirror of node {parents[0]} at gamma {gamma!r}: "
                    f"{len(bad)} entries differ from the brute-force search, "
                    f"first ({a}, {b}) = {got[a, b]} not in {sorted(allowed[a, b])}")
    return None


def check_symmetric_zero_diagonal(name: str, adj) -> str | None:
    adj = np.asarray(adj, dtype=float)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        return f"{name}: not a square matrix"
    if not np.array_equal(adj, adj.T):
        return f"{name}: not symmetric"
    if np.any(np.diag(adj) != 0):
        return f"{name}: nonzero diagonal"
    return None


# ---------------------------------------------------------------------------
# Training records

def check_non_decreasing(name: str, values) -> str | None:
    values = list(values)
    if not values:
        return f"{name}: no values"
    for i in range(1, len(values)):
        if not values[i] >= values[i - 1]:
            return f"{name} decreases at epoch {i}: {values[i - 1]!r} -> {values[i]!r}"
    return None


def check_finite_columns(records: list[dict], columns) -> str | None:
    if not records:
        return "no records"
    for i, record in enumerate(records):
        for column in columns:
            value = record.get(column)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                return f"record {i}: {column} = {value!r} is not finite"
    return None


def raw_feature_accuracy(data: Dataset, l2: float = 1e-3) -> float:
    """Test accuracy of a ridge least-squares classifier on raw features."""
    mean = data.features[data.train].mean(axis=0)
    std = data.features[data.train].std(axis=0)
    std[std == 0] = 1.0
    x = (data.features - mean) / std
    x = np.hstack([x, np.ones((len(x), 1))])
    n_classes = int(data.labels.max()) + 1
    target = np.eye(n_classes)[data.labels[data.train]]
    xt = x[data.train]
    weight = np.linalg.solve(xt.T @ xt + l2 * len(xt) * np.eye(x.shape[1]), xt.T @ target)
    pred = np.argmax(x[data.test] @ weight, axis=1)
    return float(np.mean(pred == data.labels[data.test]))


def check_beats_baseline(accuracy: float, baseline: float, margin: float) -> str | None:
    if not accuracy >= baseline + margin:
        return (f"probe accuracy {accuracy!r} does not beat the raw-feature "
                f"baseline {baseline!r} by {margin}")
    return None


def check_above_chance(name: str, accuracy: float, n_classes: int) -> str | None:
    if not accuracy > 1.0 / n_classes:
        return f"{name} {accuracy!r} is not above chance (1/{n_classes})"
    return None


# ---------------------------------------------------------------------------
# Subgraph sampling and embedding

def ppr_rows(data: Dataset, teleport: float, nodes) -> np.ndarray:
    """Rows of S = t (I - (1 - t) A D^-1)^-1 by a sparse LU solve of S^T."""
    n = data.n_nodes
    adj = data.adjacency.tocsc()
    deg = np.asarray(adj.sum(axis=0)).ravel()
    inv = np.divide(1.0, deg, out=np.zeros(n), where=deg > 0)
    system = sp.identity(n, format="csc") - (1.0 - teleport) * (adj @ sp.diags(inv))
    lu = spla.splu(system.T.tocsc())
    rhs = np.zeros((n, len(nodes)))
    rhs[np.asarray(nodes), np.arange(len(nodes))] = teleport
    return lu.solve(rhs).T


def check_topk(node: int, scores: np.ndarray, parents, k: int, atol: float) -> str | None:
    """``parents`` must be the node followed by its k-1 best-scoring other
    nodes; nodes whose score lies within ``atol`` of the cut are ties."""
    parents = [int(p) for p in parents]
    if len(parents) != k or parents[0] != node:
        return f"subgraph of node {node}: expected {k} ids starting with the node, got {parents[:3]}..."
    others = np.delete(np.arange(len(scores)), node)
    ranked = others[np.argsort(-scores[others], kind="stable")]
    cut = scores[ranked[k - 2]]
    must = {int(j) for j in ranked if scores[j] > cut + atol}
    may = {int(j) for j in ranked if scores[j] >= cut - atol}
    got = set(parents[1:])
    if len(got) != k - 1 or not (must <= got <= may):
        missing = sorted(must - got)[:3]
        extra = sorted(got - may)[:3]
        return (f"subgraph of node {node} is not the top-{k} of its PageRank row: "
                f"missing {missing}, unexpected {extra}")
    return None


def numpy_gcn_center(data: Dataset, parents, weights, slopes) -> np.ndarray:
    """Centre row of prelu(D^-1/2 (A + I) D^-1/2 X W) on the induced subgraph."""
    parents = np.asarray(parents)
    a_hat = data.sub_adjacency(parents) + np.eye(len(parents))
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    a_hat = inv_sqrt[:, None] * a_hat * inv_sqrt[None, :]
    h = data.features[parents]
    for weight, slope in zip(weights, slopes):
        z = a_hat @ (h @ np.asarray(weight))
        h = np.where(z > 0, z, float(slope) * z)
    return h[0]


def check_embedding(node: int, got, expected, atol: float = 1e-9) -> str | None:
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    if got.shape != expected.shape:
        return f"embedding of node {node}: shape {got.shape}, expected {expected.shape}"
    err = float(np.max(np.abs(got - expected))) if got.size else 0.0
    if not err <= atol:
        return f"embedding of node {node} differs from a numpy GCN by {err!r} > {atol}"
    return None


def check_identical(name: str, items: list) -> str | None:
    if any(item != items[0] for item in items[1:]):
        return f"{name} differ between repeated commands on the same inputs"
    return None
