"""Pair-wise mirror-graph augmentation.

For every unordered node pair (a, b) of a subgraph we look for a mirror pair
(c, d) among the other subgraph nodes: the pair minimizing
``d(x_c, x_a) + d(x_d, x_b)`` subject to that sum being strictly below
``2 * gamma``. A *positive* mirror must match both semantic values
(y_c == y_a and y_d == y_b); a *negative* mirror must differ in at least one.
The augmented graphs copy each mirror pair's edge state onto (a, b); pairs
with no admissible mirror keep their original edge, and a self loop (a, a)
is no pair and stays as it is, so gamma = 0 is the identity augmentation.
Mirror graphs share the node set and features of the source subgraph; only
edges move.

Gamma only bounds a pair's best sum, so ``mirror_search`` finds each pair's
best mirror once per dataset and config, among the subgraph's own nodes
(``trainer.curriculum_inputs`` keeps the search in the dataset directory).
A sum is separable in c and d and rounded addition is monotone, so one sort
of each node's distance row gives short lists of its nearest candidates,
from which a pair's best mirror is read in O(1): O(k^2 log k) per
subgraph. A pair the lists cannot settle exactly (a tie at their cut, or a
subgraph padded with a repeated centre) takes an exact O(k) scan instead.
Both give the same first row-major (c, d) on ties as the O(k^2) sweep of
every (c, d). The sums are stored for the pairs a < b alone, and each new
gamma then costs one threshold over them (``MirrorSearch.adjacencies``). The pairs' distances are
the run's distribution, whose percentiles are the gammas (``quantile``).

Every distance is Euclidean: the paper's abstract names no metric, so its
choice cannot be checked offline. The search takes each block's matrices
from ``autodiff.euclidean_matrix``, the Sinkhorn cost's kernel too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import euclidean_matrix
from .errors import ConfigError, EmptyDistributionError, SizeError
from .graph import Graph
from .sampler import Subgraph, SubgraphSet
from .util import linear_quantile

SEMANTICS = ("label", "degree-bucket")
# Pairs per block of the mirror search: k * 32 kB per (pairs, k) array, and no
# (g, k, k, dim) array.
PAIR_BLOCK = 1 << 12


def check_semantics(kind: str) -> None:
    if kind not in SEMANTICS:
        raise ConfigError(f"semantics: unknown kind {kind!r}, expected one of {SEMANTICS}")


def _euclidean_only(metric: str) -> None:
    """The ``metric`` argument the benchmark still passes: Euclidean alone."""
    if metric != "euclidean":
        raise ConfigError(f"metric: the distance is 'euclidean', got {metric!r}")


def semantic_assignment(graph: Graph, kind: str = "label", n_buckets: int = 4) -> np.ndarray:
    """(n,) int64 semantics of the graph's nodes: class labels, or
    equal-frequency degree buckets."""
    check_semantics(kind)
    if kind == "label":
        if graph.labels is None:
            raise ConfigError("semantics: kind 'label' requires a labeled graph")
        return graph.labels.astype(np.int64)
    if n_buckets < 1:
        raise ConfigError("degree_buckets: must be >= 1")
    degrees = graph.degrees()
    edges = linear_quantile(degrees, np.linspace(0, 1, n_buckets + 1)[1:-1])
    return np.searchsorted(edges, degrees, side="right").astype(np.int64)


def estimate_distance_distribution(subgraphs: SubgraphSet, metric: str,
                                   sample_budget: int, seed: int) -> np.ndarray:
    """Up to ``sample_budget`` of the run's pair distances,
    ``MirrorSearch.distances``, drawn without replacement, deterministically
    per seed, and sorted ascending.
    ``metric`` must be "euclidean". No package code calls this: a run's
    distribution is ``MirrorSearch.distances``. It stays for the benchmark,
    and ROADMAP item 1 step C deletes it."""
    if sample_budget < 1:
        raise SizeError(f"sample_budget must be >= 1, got {sample_budget}")
    _euclidean_only(metric)
    # Semantics pick mirrors, not distances: any will do.
    values = mirror_search(subgraphs, np.zeros(len(subgraphs.node_features), np.int64)).distances
    if values.size == 0:
        raise EmptyDistributionError("no subgraph contains two distinct nodes")
    if sample_budget < values.size:
        values = values[np.random.default_rng(seed).choice(values.size, size=sample_budget,
                                                           replace=False)]
    return np.sort(values)


def quantile(values: np.ndarray, theta: float) -> float:
    """theta-th percentile of ``values``, in any order (linear interpolation
    between order statistics)."""
    if not (0.0 <= theta <= 100.0):
        raise ConfigError(f"theta: must be in [0, 100], got {theta}")
    if values.size == 0:
        raise EmptyDistributionError("no subgraph contains two distinct nodes")
    return float(linear_quantile(values, theta / 100))


@dataclass(frozen=True)
class MirrorSearch:
    """Best mirror of every pair of equal-size subgraphs, valid at every gamma.

    The tables keep one triangle: the last axis runs over the k (k - 1) / 2
    pairs a < b in ``np.triu_indices(k, 1)`` order, which is row-major (a,
    b) order. The leading axis is the polarity: 0 positive, 1 negative. For
    subgraph i and its q-th pair (a, b), ``best[p, i, q]`` is the smallest
    admissible distance sum and ``argmin`` its first row-major position
    c * k + d, where ``adjacency`` holds the mirror edge. Pairs without
    an admissible mirror, and padded duplicates, hold an infinite sum, so no
    gamma replaces them. ``best`` is float64 and ``argmin`` the smallest
    unsigned type that holds k * k - 1 (uint8 up to k = 16, uint16 up to
    k = 256). ``distances`` holds D[a, b] of the run's pairs a < b with
    distinct parents, subgraph by subgraph, and a slice shares it: its size
    is the pair count that ``match_rates`` divides by. In all, 28 bytes per
    pair a < b at k = 20, 5320 per subgraph.
    """
    adjacency: np.ndarray      # (n, k, k) bool source adjacencies, symmetric
    best: np.ndarray           # (2, n, k (k - 1) / 2) float64
    argmin: np.ndarray         # (2, n, k (k - 1) / 2) np.min_scalar_type(k * k - 1)
    distances: np.ndarray      # (pairs a < b with distinct parents,) float64: the run's

    def __getitem__(self, rows: slice) -> MirrorSearch:
        """The search of the subgraphs ``rows``, as views of these tables."""
        return MirrorSearch(self.adjacency[rows], self.best[:, rows], self.argmin[:, rows],
                            self.distances)

    def adjacencies(self, gamma: float) -> np.ndarray:
        """(2, n, k, k) bool: positive then negative mirror adjacencies at
        gamma, symmetric, with the source's diagonal: no pair rewrites a
        self loop, so gamma = 0 gives the source adjacency twice. Each pair
        a < b reads the source at its mirror's position c * k + d, or at its
        own a * k + b where gamma replaces nothing."""
        n, k = self.adjacency.shape[:2]
        a, b = np.triu_indices(k, 1)
        at = np.where(self.best < 2.0 * gamma, self.argmin, (a * k + b).astype(self.argmin.dtype))
        upper = np.take_along_axis(self.adjacency.reshape(1, n, k * k), at, axis=2)
        out = np.zeros((2, n, k, k), dtype=bool)
        out[..., a, b] = upper
        out[..., b, a] = upper
        diagonal = np.arange(k)
        out[..., diagonal, diagonal] = self.adjacency[:, diagonal, diagonal]
        return out

    def match_rates(self, gamma: float) -> tuple[float, float]:
        """Share of real pairs with a positive, and a negative, mirror at gamma."""
        total = self.distances.size
        if total == 0:
            return 0.0, 0.0
        matched = np.count_nonzero(self.best < 2.0 * gamma, axis=(1, 2))
        return float(matched[0] / total), float(matched[1] / total)

    def replacements(self, gamma: float, i: int = 0) -> list[tuple[np.ndarray, ...]]:
        """The replacement log of subgraph i at gamma, positive then negative:
        columns a, b, c, d, distance_sum, original_edge, mirror_edge over the
        pairs a < b that gamma replaces, in row-major (a, b) order."""
        k = self.adjacency.shape[-1]
        upper_a, upper_b = np.triu_indices(k, 1)
        log = []
        for p in range(2):
            q = np.flatnonzero(self.best[p, i] < 2.0 * gamma)
            a, b = upper_a[q], upper_b[q]
            c, d = np.divmod(self.argmin[p, i, q], k)
            log.append((a, b, c, d, self.best[p, i, q],
                        self.adjacency[i, a, b].astype(np.int64),
                        self.adjacency[i, c, d].astype(np.int64)))
        return log


@dataclass(frozen=True)
class MirrorGraphs:
    """``mirror_augment``'s two views, kept with it for the benchmark; ROADMAP
    item 1 step C deletes both."""
    positive_adjacency: np.ndarray
    negative_adjacency: np.ndarray


def mirror_search(subgraphs: SubgraphSet, semantics: np.ndarray) -> MirrorSearch:
    """Find every pair's best positive and negative mirror once, for all gamma.

    Gamma only bounds the best sum (it must be below 2 * gamma), so the
    (c, d) minimizing the sum over the admissible mirrors does not depend on
    it; ``MirrorSearch.adjacencies`` then thresholds. Ties break to the
    lexicographically smallest (c, d), the first minimum in row-major order.

    Each sum is fl(D[a, c] + D[b, d]), and rounded addition is monotone in
    each argument. A positive mirror has a separable candidate set: c of
    a's semantics times d of b's, minus the pairs with c and d on one
    parent. A negative mirror's set is the union of two such sets, c of
    another semantics than a's with any d, and any c with d of another
    semantics than b's; their minima merge by value, then by the smaller
    position. Each of the three minima is read from the head of a's and b's
    candidate lists (``_candidate_lists``, ``_listed_min``). The rows the
    lists cannot settle, a value or rounding tie at the cut or any pair of
    a subgraph with a repeated parent, alone take the exact scan
    (``_separable_min``). Distances, lists and pairs are held for one block
    of PAIR_BLOCK pairs' worth of whole subgraphs at a time, and its pairs'
    D[a, b] join ``distances``. ``semantics`` holds one integer per
    parent-graph node (``semantic_assignment``).
    """
    adjacency = np.asarray(subgraphs.adjacency, dtype=bool)
    n, k = adjacency.shape[:2]
    upper_a, upper_b = np.triu_indices(k, 1)
    best = np.full((2, n, len(upper_a)), np.inf)
    argmin = np.zeros((2, n, len(upper_a)), dtype=np.min_scalar_type(k * k - 1))
    distances = [np.empty(0)]
    step = max(1, PAIR_BLOCK // max(1, len(upper_a)))
    for start in range(0, n, step):
        parents = subgraphs.parent_indices[start:start + step]
        x = subgraphs.node_features[parents]
        dmat = euclidean_matrix(x, x)[0]
        labels = semantics[parents]
        pairs = parents[:, upper_a] != parents[:, upper_b]
        g, q = np.nonzero(pairs)             # pairs a < b with distinct parents
        a, b = upper_a[q], upper_b[q]
        distances.append(dmat[g, a, b])
        *mins, settled = _listed_mins(dmat, labels, g, a, b)
        # The lists hold slots, not parents, and a NaN distance has no order.
        listed = ((np.diff(np.sort(parents, axis=1), axis=1) != 0).all(axis=1)
                  & ~np.isnan(dmat).any(axis=(1, 2)))
        hard = np.flatnonzero(~(settled & listed[g]))
        if hard.size:
            for (value, flat), exact in zip(mins, _scanned_mins(
                    dmat, parents, labels, g[hard], a[hard], b[hard])):
                value[hard], flat[hard] = exact
        pos, neg_c, neg_d = mins
        neg_best = np.minimum(neg_c[0], neg_d[0])
        neg_flat = np.where(neg_c[0] < neg_d[0], neg_c[1],
                            np.where(neg_d[0] < neg_c[0], neg_d[1],
                                     np.minimum(neg_c[1], neg_d[1])))
        i = start + g
        for p, (value, flat) in enumerate((pos, (neg_best, neg_flat))):
            best[p, i, q] = value
            argmin[p, i, q] = np.where(value < np.inf, flat, 0)
    return MirrorSearch(adjacency=adjacency, best=best, argmin=argmin,
                        distances=np.concatenate(distances))


# The candidate sets of slot v: slots of v's semantics, of another, of any.
SAME, OTHER, ANY = range(3)
# Candidates kept per slot and set: a pair drops at most two entries of a
# list and reads at most two more.
LIST_LENGTH = 4


def _candidate_lists(dmat: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(g * k, 3, LIST_LENGTH) int32 slots of a block of g subgraphs: entry
    [g * k + v, s] lists the first LIST_LENGTH members of set s other than v
    in (D[v, slot], slot) order, then k (no slot) when s runs out."""
    g, k = labels.shape
    n = g * k
    cols = np.arange(n)
    # column v: the slots of v's subgraph in (D[v, slot], slot) order
    order = np.argsort(dmat, axis=-1, kind="stable").reshape(n, k).T.astype(np.int32)
    tags = labels.reshape(-1)
    same = tags.take(cols // k * k + order) == tags
    seen_same = np.cumsum(same, axis=0, dtype=np.int32)
    seen_self = np.cumsum(order == cols % k, axis=0, dtype=np.int32)
    seen = np.arange(1, k + 1, dtype=np.int32)[:, None]
    padded = np.concatenate([order, np.full((1, n), k, dtype=np.int32)]).reshape(-1)
    lists = np.empty((n, 3, LIST_LENGTH), dtype=np.int32)
    # members of each set up to and including each place
    for s, members in enumerate((seen_same - seen_self, seen - seen_same, seen - seen_self)):
        for j in range(LIST_LENGTH):
            place = np.count_nonzero(members <= j, axis=0)
            lists[:, s, j] = padded.take(place * n + cols)
    return lists


def _listed_mins(dmat: np.ndarray, labels: np.ndarray, g: np.ndarray, a: np.ndarray,
                 b: np.ndarray) -> tuple:
    """The positive, c-negative and d-negative minima of pairs (g, a, b) of a
    block, each as (value, position), read from candidate lists; then the
    rows whose three minima are exact if each parent has one slot."""
    k = labels.shape[1]
    lists = _candidate_lists(dmat, labels)
    # Slot k (no slot) reads an infinite distance and some label.
    dist = np.full((*dmat.shape[:2], k + 1), np.inf)
    dist[..., :k] = dmat
    dist = dist.reshape(-1)
    tags = np.concatenate([labels, labels[:, :1]], axis=1).reshape(-1)
    g, a, b = (v.astype(np.int32) for v in (g, a, b))
    row_a, row_b = g * k + a, g * k + b
    # (3, LIST_LENGTH, pairs): one contiguous row per set and place
    near_a, near_b = (np.ascontiguousarray(lists.take(rows, axis=0).transpose(1, 2, 0))
                      for rows in (row_a, row_b))
    label_a = tags.take(g * (k + 1) + a)
    mins, settled = [], True
    for c_set, d_set in ((SAME, SAME), (OTHER, ANY), (ANY, OTHER)):
        d_slots = _first_three_without(near_b[d_set], a)
        d1_ok = True                        # may row d1 be a c?
        if c_set != ANY:
            d1_ok = (tags.take(g * (k + 1) + d_slots[0]) == label_a) == (c_set == SAME)
        value, flat, ok = _listed_min(dist, near_a[c_set], b, row_a * (k + 1),
                                      row_b * (k + 1), d_slots, d1_ok, k)
        mins.append((value, flat))
        settled = settled & ok
    return (*mins, settled)


def _first_three_without(lists: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """(3, rows): the first three entries of each column of (LIST_LENGTH,
    rows) ``lists`` that are not ``slot``."""
    seen = lists[:3] == slot
    seen[1] |= seen[0]
    seen[2] |= seen[1]
    return np.where(seen, lists[1:], lists[:3])


def _listed_min(dist: np.ndarray, list_a: np.ndarray, b: np.ndarray, at_a: np.ndarray,
                at_b: np.ndarray, d_slots: np.ndarray, d1_ok, k: int) -> tuple:
    """One separable minimum per pair, from a's c-list and the first three
    slots d1, d2, d3 of b's d-list without a; D[a, c] is ``dist[at_a + c]``.

    Row c's smallest sum is fl(D[a, c] + m), with m = D[b, d2] on row d1 and
    D[b, d1] on every other row. With c1, c2 the first two of a's list
    without b and d1, the best sum is therefore on row c1 or, if ``d1_ok``
    admits it, row d1; the smaller slot wins a tie. The answer is exact
    when row c2's sum, and the best row's sum with its next partner, are
    both strictly larger; ``ok`` flags those rows and the rows with no
    mirror at all."""
    d1, d2, d3 = d_slots
    drop = (list_a[:3] == b) | (list_a[:3] == d1)
    c1 = np.where(drop[0], np.where(drop[1], list_a[2], list_a[1]), list_a[0])
    c2 = np.where(drop[0] | drop[1],
                  np.where((drop[0] & drop[1]) | drop[2], list_a[3], list_a[2]), list_a[1])
    m1, m2 = dist.take(at_b + d1), dist.take(at_b + d2)
    x1, x2, xd = dist.take(at_a + c1), dist.take(at_a + c2), dist.take(at_a + d1)
    sum_c = x1 + m1
    sum_d = np.where(d1_ok, xd + m2, np.inf)
    value = np.minimum(sum_c, sum_d)
    c = np.where(sum_c < sum_d, c1, np.where(sum_d < sum_c, d1, np.minimum(c1, d1)))
    on_d1 = c == d1
    d = np.where(on_d1, d2, d1)
    after = np.where(on_d1 | (c == d2), d3, d2)
    ok = (value == np.inf) | ((x2 + m1 > value)
                              & (np.where(on_d1, xd, x1) + dist.take(at_b + after) > value))
    return value, c * k + d, ok


def _scanned_mins(dmat: np.ndarray, parents: np.ndarray, labels: np.ndarray, g: np.ndarray,
                  a: np.ndarray, b: np.ndarray) -> tuple:
    """The three separable minima of pairs (g, a, b) by the exact scan."""
    x, y = dmat[g, a], dmat[g, b]        # x[r, c] = D[a, c], y[r, d] = D[b, d]
    par, lab = parents[g], labels[g]
    free = (par != parents[g, a][:, None]) & (par != parents[g, b][:, None])
    same_a = lab == labels[g, a][:, None]
    same_b = lab == labels[g, b][:, None]
    return (_separable_min(x, y, free & same_a, free & same_b, par),
            _separable_min(x, y, free & ~same_a, free, par),
            _separable_min(x, y, free, free & ~same_b, par))


def _separable_min(x: np.ndarray, y: np.ndarray, c_ok: np.ndarray, d_ok: np.ndarray,
                   parents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the smallest fl(x[c] + y[d]) over c_ok[c], d_ok[d] and
    parents[c] != parents[d], and its first row-major position c * k + d:
    the exact O(k) scan for the pairs the candidate lists cannot settle.

    By monotone rounding, row c's smallest sum is fl(x[c] + m), with m the
    smallest admissible y: m1 at its first position d1, or, when c shares
    d1's parent, m2, the smallest y on any other parent. c is the first row
    whose minimum is the best sum, and d the first position in that row
    whose own sum is: rounding alone can make distinct x (or y) tie.
    Rows without an admissible (c, d) get an infinite sum.
    """
    rows = np.arange(len(x))
    y_ok = np.where(d_ok, y, np.inf)
    d1 = y_ok.argmin(axis=1)
    on_d1 = parents == parents[rows, d1][:, None]
    m1 = y_ok[rows, d1][:, None]
    m2 = np.where(on_d1, np.inf, y_ok).min(axis=1, keepdims=True)
    row_min = np.where(c_ok, x + np.where(on_d1, m2, m1), np.inf)
    c = row_min.argmin(axis=1)
    d_ok_c = d_ok & (parents != parents[rows, c][:, None])
    d = np.where(d_ok_c, x[rows, c][:, None] + y, np.inf).argmin(axis=1)
    return row_min[rows, c], c * x.shape[1] + d


def mirror_augment(subgraph: Subgraph, gamma: float, semantics: np.ndarray,
                   metric: str) -> MirrorGraphs:
    """Positive and negative mirror adjacencies of one subgraph at gamma;
    features are untouched. ``metric`` must be "euclidean". No package code
    calls this; it stays for the benchmark, and ROADMAP item 1 step C
    deletes it, its ``metric`` argument and ``MirrorGraphs``."""
    _euclidean_only(metric)
    one = SubgraphSet(subgraph.parent_indices[None], subgraph.adjacency[None],
                      subgraph.node_features)
    (positive,), (negative,) = mirror_search(one, semantics).adjacencies(gamma)
    return MirrorGraphs(positive_adjacency=positive, negative_adjacency=negative)
