import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acgcl import augment
from acgcl import autodiff as ad
from acgcl.augment import (MirrorGraphs, estimate_distance_distribution, mirror_augment,
                           mirror_search, quantile, semantic_assignment)
from acgcl.config import parse_config
from acgcl.errors import ConfigError, EmptyDistributionError, ShapeError
from acgcl.sampler import Subgraph, sample_all_subgraphs
from conftest import (graph_from_edges, packed_pair, random_graph, self_loop_graph,
                      stack_subgraphs)
from oracles import (Replacement, assert_same_tables, chunked_mirror_search, dense_adjacency,
                     distance_matrix, exhaustive_mirror_pair, find_mirror_pair, pair_distance,
                     pairwise_euclidean_diff, per_pair_mirror_augment)


def logged(search, gamma, i=0):
    """The package's replacement log of subgraph i at gamma, positive then
    negative, as oracle records."""
    return [[Replacement(int(a), int(b), int(c), int(d), float(s), int(o), int(m))
             for a, b, c, d, s, o, m in zip(*columns)]
            for columns in search.replacements(gamma, i)]


def make_subgraph(features, adjacency, parents=None):
    """A Subgraph whose node feature matrix holds row ``features[i]`` at
    parent id ``parents[i]`` (default i); a repeated parent repeats its row."""
    features = np.asarray(features, dtype=float)
    k = len(features)
    parents = np.asarray(np.arange(k) if parents is None else parents, dtype=np.int64)
    node_features = np.zeros((parents.max() + 1, features.shape[1]))
    node_features[parents] = features
    assert np.array_equal(node_features[parents], features)
    return Subgraph(parent_indices=parents,
                    adjacency=np.asarray(adjacency, dtype=float),
                    node_features=node_features)


def semantics_of(values):
    return np.asarray(values, dtype=np.int64)


FOUR_NODE = make_subgraph(
    features=[[0.0], [0.1], [0.9], [1.0]],
    adjacency=np.zeros((4, 4)),
)
FOUR_LABELS = semantics_of([0, 0, 1, 1])


class TestPairDistance:
    def test_euclidean_3_4_5(self):
        assert pair_distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            pair_distance([1.0], [1.0, 2.0])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_symmetric_nonnegative(self, seed):
        r = np.random.default_rng(seed)
        x, y = r.standard_normal(5), r.standard_normal(5)
        d_xy = pair_distance(x, y)
        assert d_xy >= 0
        assert d_xy == pytest.approx(pair_distance(y, x), abs=1e-12)

    def test_matrix_matches_pairwise(self, rng):
        """The one distance kernel, ``autodiff.euclidean_matrix``, on a
        (g, k, d) stack as the mirror search calls it: each item keeps the
        bits it gets alone, duplicated rows are exactly 0 apart at d >= 1000,
        and every entry is within 1e-12 of the difference form."""
        x = rng.standard_normal((7, 3))
        mat = distance_matrix(x)
        for i in range(7):
            for j in range(7):
                assert mat[i, j] == pytest.approx(pair_distance(x[i], x[j]), abs=1e-10)
        stack = rng.standard_normal((9, 30, 16))
        stack[:, 7] = stack[:, 3]
        got = ad.euclidean_matrix(stack, stack)[0]
        for item, mat in zip(stack, got):
            assert np.array_equal(mat.view(np.int64), distance_matrix(item).view(np.int64))
            want = pairwise_euclidean_diff(item, item).value
            assert np.abs(mat - want).max() <= 1e-12 * want.max()
        wide = rng.standard_normal((20, 1433)) * 1e3
        wide[[5, 11, 19]] = wide[2]
        mat = distance_matrix(wide)
        same = np.ix_([2, 5, 11, 19], [2, 5, 11, 19])
        assert (mat[same] == 0.0).all()
        assert np.count_nonzero(mat) == 20 * 20 - 16 - 16     # and the other 16 self pairs
        # Against itself a row is 0 apart and takes no recompute, to the same
        # bits as against a view of x, where the diagonal is recomputed. (A
        # copy would not do: numpy's matmul takes a symmetric-product path
        # for operands on one buffer, so a copy changes the Gram terms' bits.)
        for x in (stack, wide):
            mat, near, _ = ad.euclidean_matrix(x, x)
            assert (np.diagonal(mat, axis1=-2, axis2=-1).view(np.int64) == 0).all()
            assert not (near[-2] == near[-1]).any()
            viewed = ad.euclidean_matrix(x, x[:])
            assert (viewed[1][-2] == viewed[1][-1]).any()
            assert np.array_equal(mat.view(np.int64), viewed[0].view(np.int64))


class TestSemantics:
    def test_label_semantics(self):
        g = graph_from_edges(3, [(0, 1)], labels=[2, 0, 1])
        sem = semantic_assignment(g, "label")
        assert sem.dtype == np.int64 and np.array_equal(sem, [2, 0, 1])

    def test_label_semantics_requires_labels(self):
        g = graph_from_edges(3, [(0, 1)])
        with pytest.raises(ConfigError):
            semantic_assignment(g, "label")

    def test_unknown_kind_fails_with_one_message_everywhere(self):
        """The library call and the config check name the kinds of SEMANTICS
        in the same words."""
        g = graph_from_edges(3, [(0, 1)], labels=[2, 0, 1])
        want = "semantics: unknown kind 'degree', expected one of ('label', 'degree-bucket')"
        with pytest.raises(ConfigError) as direct:
            semantic_assignment(g, "degree")
        with pytest.raises(ConfigError) as parsed:
            parse_config(overrides=["semantics=degree"])
        assert str(direct.value) == str(parsed.value) == want

    def test_degree_buckets_partition(self, rng):
        g = random_graph(rng, n=40)
        sem = semantic_assignment(g, "degree-bucket", n_buckets=4)
        assert sem.dtype == np.int64 and sem.min() >= 0 and sem.max() <= 3
        degrees = g.degrees()
        # monotone: higher degree never lands in a lower bucket
        order = np.argsort(degrees)
        assert (np.diff(sem[order]) >= 0).all()

    @pytest.mark.parametrize("n_buckets", [1, 2, 3, 4, 7])
    def test_degree_buckets_match_numpy_quantile(self, rng, n_buckets):
        for n in (39, 40):
            g = random_graph(rng, n=n)
            edges = np.quantile(g.degrees(), np.linspace(0, 1, n_buckets + 1)[1:-1])
            want = np.searchsorted(edges, g.degrees(), side="right")
            assert np.array_equal(semantic_assignment(g, "degree-bucket", n_buckets), want)


class TestQuantile:
    DIST = np.arange(1.0, 11.0)

    def test_extremes(self):
        assert quantile(self.DIST, 0) == 1.0
        assert quantile(self.DIST, 100) == 10.0

    def test_interpolated_median(self):
        assert quantile(self.DIST, 50) == pytest.approx(5.5)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            quantile(self.DIST, -1)
        with pytest.raises(ValueError):
            quantile(self.DIST, 100.5)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.25]) | st.floats(0, 1e3), min_size=1,
                    max_size=40),
           st.sampled_from([0.0, 100.0, 30.0]) | st.floats(0, 100))
    def test_bit_identical_to_numpy_percentile(self, values, theta):
        """Odd and even sizes, ties, theta 0 and 100: numpy's bits."""
        ordered = np.sort(values)
        got = quantile(ordered, theta)
        assert np.float64(got).tobytes() == np.percentile(ordered, theta).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0, 100))
    def test_bounded_by_extremes(self, theta):
        v = quantile(self.DIST, theta)
        assert 1.0 <= v <= 10.0


class TestFindMirrorPair:
    def test_positive_example(self):
        got = find_mirror_pair(FOUR_NODE, (0, 2), gamma=0.2, semantics=FOUR_LABELS,
                               polarity="positive")
        assert got == (1, 3)

    def test_positive_below_threshold_none(self):
        got = find_mirror_pair(FOUR_NODE, (0, 2), gamma=0.05, semantics=FOUR_LABELS,
                               polarity="positive")
        assert got is None

    def test_negative_matches_exhaustive(self):
        got = find_mirror_pair(FOUR_NODE, (0, 1), gamma=10.0, semantics=FOUR_LABELS,
                               polarity="negative")
        expected = exhaustive_mirror_pair(FOUR_NODE.node_features[FOUR_NODE.parent_indices],
                                          FOUR_NODE.parent_indices,
                                          FOUR_LABELS, 0, 1, 10.0, "negative")
        assert got == expected == (2, 3)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["positive", "negative"]),
           st.floats(0.1, 3.0))
    def test_matches_exhaustive_search(self, seed, polarity, gamma):
        r = np.random.default_rng(seed)
        k = 8
        sub = make_subgraph(r.standard_normal((k, 2)), np.zeros((k, k)))
        labels = r.integers(0, 3, size=k)
        sem = semantics_of(labels)
        a, b = 0, 1
        got = find_mirror_pair(sub, (a, b), gamma, sem, polarity)
        want = exhaustive_mirror_pair(sub.node_features[sub.parent_indices], sub.parent_indices,
                                      labels, a, b, gamma, polarity)
        assert got == want


def search_one(sub, sem):
    """The mirror search of ``sub`` alone, as a one-subgraph stack."""
    return mirror_search(stack_subgraphs([sub]), sem)


def mirrors_of(sub, gamma, sem):
    """The positive and negative mirror adjacencies of ``sub`` alone at gamma."""
    (positive,), (negative,) = search_one(sub, sem).adjacencies(gamma)
    return positive, negative


class TestMirrorAugment:
    """The mirror search of one subgraph, thresholded at a gamma."""

    def _random_case(self, rng, k=8, n_labels=3):
        features = rng.standard_normal((k, 2))
        adj = (rng.random((k, k)) < 0.4).astype(float)
        adj = np.triu(adj, 1)
        adj = adj + adj.T
        sub = make_subgraph(features, adj)
        sem = semantics_of(rng.integers(0, n_labels, size=k))
        return sub, sem

    def test_gamma_zero_is_identity(self, rng):
        sub, sem = self._random_case(rng)
        for adj in mirrors_of(sub, 0.0, sem):
            assert np.array_equal(adj, sub.adjacency)
        assert logged(search_one(sub, sem), 0.0) == [[], []]

    def test_symmetric_zero_diagonal(self, rng):
        sub, sem = self._random_case(rng)
        for adj in mirrors_of(sub, 1.5, sem):
            assert np.array_equal(adj, adj.T)
            assert adj.diagonal().sum() == 0

    def test_replacements_match_per_pair_search(self, rng):
        for _ in range(5):
            sub, sem = self._random_case(rng)
            gamma = float(rng.uniform(0.3, 2.0))
            for polarity, adj in zip(("positive", "negative"), mirrors_of(sub, gamma, sem)):
                for a in range(len(sub.parent_indices)):
                    for b in range(a + 1, len(sub.parent_indices)):
                        mirror = find_mirror_pair(sub, (a, b), gamma, sem, polarity)
                        expected = sub.adjacency[mirror] if mirror else sub.adjacency[a, b]
                        assert adj[a, b] == expected

    def test_replacement_records_satisfy_constraints(self, rng):
        sub, sem = self._random_case(rng, k=10)
        gamma = 1.2
        pos_log, neg_log = logged(search_one(sub, sem), gamma)
        labels = sem[sub.parent_indices]
        assert pos_log   # loose sanity: something was replaced
        for r in pos_log:
            assert labels[r.c] == labels[r.a] and labels[r.d] == labels[r.b]
            assert r.distance_sum < 2 * gamma
            assert r.mirror_edge == sub.adjacency[r.c, r.d]
        for r in neg_log:
            assert labels[r.c] != labels[r.a] or labels[r.d] != labels[r.b]
            assert r.distance_sum < 2 * gamma

    def test_monotone_reach(self, rng):
        sub, sem = self._random_case(rng, k=9)
        search = search_one(sub, sem)
        def replaced_pairs(gamma):
            pos_log, neg_log = logged(search, gamma)
            return {(r.a, r.b) for r in pos_log}, {(r.a, r.b) for r in neg_log}
        lo_pos, lo_neg = replaced_pairs(0.6)
        hi_pos, hi_neg = replaced_pairs(1.4)
        assert lo_pos <= hi_pos
        assert lo_neg <= hi_neg

    def test_edge_kept_positive_removed_negative(self):
        # original pair (0, 1) has an edge; its only positive mirror (2, 3) is
        # connected, while every admissible negative mirror is not.
        features = [[0.0], [1.0], [0.01], [0.99], [0.02], [0.98]]
        adj = np.zeros((6, 6))
        adj[0, 1] = adj[1, 0] = 1.0
        adj[2, 3] = adj[3, 2] = 1.0
        sub = make_subgraph(features, adj)
        sem = semantics_of([0, 1, 0, 1, 2, 2])
        positive, negative = mirrors_of(sub, 0.5, sem)
        assert positive[0, 1] == 1.0
        assert negative[0, 1] == 0.0

    def test_padded_duplicates_not_paired(self):
        sub = make_subgraph([[0.0], [1.0], [0.0]], np.zeros((3, 3)), parents=[4, 7, 4])
        sem = np.zeros(10, dtype=np.int64)
        pos_log, _ = logged(search_one(sub, sem), 100.0)
        pairs = {(r.a, r.b) for r in pos_log}
        assert (0, 2) not in pairs   # same parent twice is not a pair


class TestMirrorSearch:
    """The once-per-run search, thresholded at a gamma, against a fresh
    per-pair search at that gamma."""
    THETAS = (0.0, 15.0, 30.0, 50.0, 80.0, 100.0)

    def assert_matches_oracle(self, subs, sem):
        search = mirror_search(subs, sem)
        alone = [mirror_search(subs[i:i + 1], sem) for i in range(len(subs))]
        for theta in self.THETAS:
            gamma = quantile(search.distances, theta)
            positive, negative = search.adjacencies(gamma)
            matched, unmatched = [0, 0], [0, 0]
            for i, sub in enumerate(subs):
                want = per_pair_mirror_augment(sub, gamma, sem)
                assert positive[i].dtype == want.positive_adjacency.dtype
                assert np.array_equal(positive[i], want.positive_adjacency)
                assert np.array_equal(negative[i], want.negative_adjacency)
                want_log = [want.stats.pos_replacements, want.stats.neg_replacements]
                assert logged(search, gamma, i) == want_log
                assert logged(alone[i], gamma) == want_log
                assert search.pair_counts[i] - len(want_log[0]) == want.stats.pos_unmatched
                assert search.pair_counts[i] - len(want_log[1]) == want.stats.neg_unmatched
                for p in range(2):
                    matched[p] += len(want_log[p])
                unmatched[0] += want.stats.pos_unmatched
                unmatched[1] += want.stats.neg_unmatched
            rates = search.match_rates(gamma)
            for p in range(2):
                total = matched[p] + unmatched[p]
                assert rates[p] == (matched[p] / total if total else 0.0)

    def test_label_semantics(self, rng):
        g = random_graph(rng, n=30)
        self.assert_matches_oracle(sample_all_subgraphs(g, 6, 0.15), semantic_assignment(g))

    def test_degree_bucket_semantics(self, rng):
        g = random_graph(rng, n=30, p=0.2)
        sem = semantic_assignment(g, "degree-bucket", n_buckets=3)
        self.assert_matches_oracle(sample_all_subgraphs(g, k=7, teleport=0.15), sem)

    def test_subgraphs_padded_with_repeated_centres(self, rng):
        edges = [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 8), (8, 5), (8, 9)]
        g = graph_from_edges(13, edges, features=rng.standard_normal((13, 2)),
                             labels=rng.integers(0, 2, size=13))
        subs = sample_all_subgraphs(g, k=6, teleport=0.15)
        assert any(len(set(s.parent_indices.tolist())) < len(s.parent_indices) for s in subs)
        self.assert_matches_oracle(subs, semantic_assignment(g))

    @pytest.mark.parametrize("n, k", [(8, 4), (30, 6)])
    def test_self_loops_are_kept(self, rng, n, k):
        """A self loop is no pair: gamma = 0 gives the source views, every
        gamma keeps the source's diagonal, and the per-pair oracle agrees."""
        g = self_loop_graph(rng, n=n)
        subs = sample_all_subgraphs(g, k, 0.15)
        source = np.diagonal(subs.adjacency, axis1=1, axis2=2)
        assert source.any() and not source.all()
        search = mirror_search(subs, semantic_assignment(g))
        assert np.array_equal(search.adjacencies(0.0), np.stack([subs.adjacency] * 2))
        for theta in self.THETAS:
            mirrors = search.adjacencies(quantile(search.distances, theta))
            for view in mirrors:
                assert np.array_equal(np.diagonal(view, axis1=1, axis2=2), source)
        self.assert_matches_oracle(subs, semantic_assignment(g))

    @pytest.mark.parametrize("k", [2, 3])
    def test_small_k(self, rng, k):
        g = random_graph(rng, n=20)
        self.assert_matches_oracle(sample_all_subgraphs(g, k, 0.15), semantic_assignment(g))

    def test_duplicated_feature_rows_tie_exactly(self, rng):
        g = random_graph(rng, n=30, p=0.25, n_classes=2)
        g = graph_from_edges(30, zip(*np.nonzero(np.triu(dense_adjacency(g), 1))),
                             features=rng.integers(0, 2, size=(30, 2)).astype(float),
                             labels=g.labels)
        self.assert_matches_oracle(sample_all_subgraphs(g, 8, 0.15), semantic_assignment(g))

    @pytest.mark.parametrize("k, index_type", [(5, np.uint8), (16, np.uint8), (17, np.uint16),
                                               (20, np.uint16)])
    def test_table_dtypes(self, rng, k, index_type):
        """``best`` float64, ``edge`` bool and ``argmin`` the smallest type
        that holds k * k - 1, each (2, n, k (k - 1) / 2); edge agrees with
        the source adjacency."""
        g = random_graph(rng, n=2 * k, p=0.3)
        subs = sample_all_subgraphs(g, k, 0.15)
        search = mirror_search(subs, semantic_assignment(g))
        n = len(subs)
        for table in (search.best, search.argmin, search.edge):
            assert table.shape == (2, n, k * (k - 1) // 2)
        assert search.best.dtype == np.float64
        assert search.edge.dtype == np.bool_
        assert search.argmin.dtype == index_type
        assert search.argmin.max() <= k * k - 1
        flat = subs.adjacency.reshape(1, n, k * k)
        assert np.array_equal(search.edge, np.take_along_axis(
            flat, search.argmin.astype(np.int64), axis=2))


class TestSeparableScan:
    """The separable scan against the O(k^4) chunked search, table for table."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 12), st.integers(-8, 8))
    def test_tables_match_chunked_search(self, seed, k, exponent):
        rng = np.random.default_rng(seed)
        n_parents = int(rng.integers(2, 2 * k + 1))
        rows = rng.integers(-2, 3, size=(int(rng.integers(1, k + 1)), 2))
        features = rows[rng.integers(0, len(rows), size=n_parents)] * 10.0 ** exponent
        subs = []
        for _ in range(3):
            parents = rng.integers(0, n_parents, size=k)
            padded = int(rng.integers(0, k))
            if padded:
                parents[k - padded:] = parents[0]      # centre padding
            adjacency = np.triu((rng.random((k, k)) < 0.5).astype(float), 1)
            subs.append(Subgraph(parents, adjacency + adjacency.T, features))
        sem = semantics_of(rng.integers(0, 2, size=n_parents))
        subs = stack_subgraphs(subs)
        assert_same_tables(mirror_search(subs, sem), chunked_mirror_search(subs, sem))

    def test_rounding_tie_takes_first_row_major_mirror(self):
        # On a line the distance is |x_a - x_b| exactly (a correctly rounded
        # square root of a correctly rounded square). D[a, 0] = 1 + 2^-52,
        # D[a, 1] = 1 and D[b, 4] = 3, so both rows sum to fl(4 + 2^-52) =
        # 4 = 1 + 3, and c = 0 comes first although c = 1 is closer to a.
        sub = make_subgraph([[1.0 + 2.0 ** -52], [-1.0], [0.0], [10.0], [13.0]], np.zeros((5, 5)))
        dmat = distance_matrix(sub.node_features)
        assert dmat[2, 0] > dmat[2, 1] and dmat[2, 0] + dmat[3, 4] == dmat[2, 1] + dmat[3, 4] == 4.0
        sem = semantics_of([0] * 5)
        search = mirror_search(stack_subgraphs([sub]), sem)
        assert_same_tables(search, chunked_mirror_search(stack_subgraphs([sub]), sem))
        assert search.best[0, 0, packed_pair(5, 2, 3)] == 4.0
        assert divmod(int(search.argmin[0, 0, packed_pair(5, 2, 3)]), 5) == (0, 4)

    def test_rounding_tie_takes_first_partner_in_the_row(self):
        # The same tie on the partner's side: D[b, 0] = 1 + 2^-52, D[b, 1] = 1
        # and D[a, 4] = 3, so d = 0 comes first in row c = 4.
        sub = make_subgraph([[1.0 + 2.0 ** -52], [-1.0], [10.0], [0.0], [13.0]], np.zeros((5, 5)))
        dmat = distance_matrix(sub.node_features)
        assert dmat[3, 0] > dmat[3, 1] and dmat[2, 4] + dmat[3, 0] == dmat[2, 4] + dmat[3, 1] == 4.0
        sem = semantics_of([0] * 5)
        search = mirror_search(stack_subgraphs([sub]), sem)
        assert_same_tables(search, chunked_mirror_search(stack_subgraphs([sub]), sem))
        assert divmod(int(search.argmin[0, 0, packed_pair(5, 2, 3)]), 5) == (4, 0)


class TestBenchShims:
    """``estimate_distance_distribution``, ``mirror_augment`` and
    ``MirrorGraphs`` stay in the package for the benchmark alone; these are
    their contract tests, and with ``TestStackedDistanceEstimate`` the only
    tests that name them (``tests/test_bench_contract.py`` checks)."""

    def test_unknown_metric(self):
        """The two calls that still take a metric accept Euclidean alone,
        and fail on any other in one line."""
        sub = make_subgraph([[0.0], [3.0]], [[0, 1], [1, 0]])
        want = "metric: the distance is 'euclidean', got 'manhattan'"
        with pytest.raises(ConfigError) as estimated:
            estimate_distance_distribution(stack_subgraphs([sub]), "manhattan", 10, seed=0)
        with pytest.raises(ConfigError) as augmented:
            mirror_augment(sub, 1.0, semantics_of([0, 0]), "manhattan")
        assert str(estimated.value) == str(augmented.value) == want

    def test_single_pair(self):
        sub = make_subgraph([[0.0], [3.0]], [[0, 1], [1, 0]])
        dist = estimate_distance_distribution(stack_subgraphs([sub]), "euclidean", 10, seed=0)
        assert dist.dtype == np.float64 and np.array_equal(dist, [3.0])

    def test_budget_covers_all_pairs_exact_multiset(self, rng):
        g = random_graph(rng, n=20)
        subs = sample_all_subgraphs(g, k=5, teleport=0.15)
        dist = estimate_distance_distribution(subs, "euclidean", 10_000, seed=1)
        expected = []
        for sub in subs:
            x = sub.node_features[sub.parent_indices]
            for i in range(len(sub.parent_indices)):
                for j in range(i + 1, len(sub.parent_indices)):
                    if sub.parent_indices[i] != sub.parent_indices[j]:
                        expected.append(np.linalg.norm(x[i] - x[j]))
        assert np.allclose(dist, np.sort(expected))

    def test_deterministic_per_seed(self, rng):
        g = random_graph(rng, n=20)
        subs = sample_all_subgraphs(g, k=6, teleport=0.15)
        a = estimate_distance_distribution(subs, "euclidean", 50, seed=3)
        b = estimate_distance_distribution(subs, "euclidean", 50, seed=3)
        c = estimate_distance_distribution(subs, "euclidean", 50, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_no_valid_pair_raises(self):
        sub = make_subgraph([[0.0], [0.0]], np.zeros((2, 2)), parents=[3, 3])
        with pytest.raises(EmptyDistributionError):
            estimate_distance_distribution(stack_subgraphs([sub]), "euclidean", 10, seed=0)

    def test_sorted_ascending(self, rng):
        g = random_graph(rng, n=15)
        subs = sample_all_subgraphs(g, k=5, teleport=0.15)
        dist = estimate_distance_distribution(subs, "euclidean", 64, seed=5)
        assert (np.diff(dist) >= 0).all()

    def test_mirror_augment_equals_the_search_row(self, rng):
        """``mirror_augment`` of one subgraph is its row of the stacked search."""
        g = random_graph(rng, n=20)
        subs = sample_all_subgraphs(g, k=6, teleport=0.15)
        sem = semantic_assignment(g)
        search = mirror_search(subs, sem)
        for gamma in (0.0, 0.5, 1.0, 3.0):
            positive, negative = search.adjacencies(gamma)
            for i in range(len(subs)):
                mirrors = mirror_augment(subs[i], gamma, sem, "euclidean")
                assert isinstance(mirrors, MirrorGraphs)
                assert np.array_equal(mirrors.positive_adjacency, positive[i])
                assert np.array_equal(mirrors.negative_adjacency, negative[i])


class TestStackedDistanceEstimate:
    """The estimate is a seeded sample of ``MirrorSearch.distances``, for
    budgets around the pair total, centre-padded subgraphs and search blocks
    that end mid-subgraph. Like ``TestBenchShims`` it names a shim."""

    @pytest.mark.parametrize("block", [7, augment.PAIR_BLOCK])
    def test_budgets_around_the_pair_total(self, rng, monkeypatch, block):
        """Below the pair total the estimate is the ``default_rng(seed)``
        choice from ``MirrorSearch.distances``, sorted; at or above it, all
        of them, sorted. The semantics the search is given do not matter."""
        monkeypatch.setattr(augment, "PAIR_BLOCK", block)
        edges = [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 8), (8, 5), (8, 9)]
        padded = graph_from_edges(13, edges, features=rng.standard_normal((13, 3)))
        for g, k in ((random_graph(rng, n=30), 8), (padded, 6)):
            subs = sample_all_subgraphs(g, k=k, teleport=0.15)
            distances = mirror_search(subs, semantic_assignment(g, "degree-bucket", 3)).distances
            total = len(distances)
            assert (total < len(subs) * k * (k - 1) // 2) == (g is padded)
            for budget in (1, 50, total - 1, total, total + 1, 10 ** 9):
                for seed in (0, 1):
                    want = distances
                    if budget < total:
                        want = distances[np.random.default_rng(seed).choice(
                            total, size=budget, replace=False)]
                    got = estimate_distance_distribution(subs, "euclidean", budget, seed)
                    assert got.dtype == np.float64 and np.array_equal(got, np.sort(want))
