"""The candidate-list mirror search: each pair's best mirror read from the
head of two sorted distance rows, with the rows the lists cannot settle sent
to the exact scan.

Every table is compared with the O(k^4) chunked oracle, or, on inputs too
large for it, with a search that sends every row to the exact scan. The
inputs aim at the fallback: exact value ties from duplicated feature rows,
equal sums of square roots from small integer features, a rounding tie on a
line, centre-padded subgraphs, lists shorter than LIST_LENGTH, and one-label
and all-distinct semantics.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acgcl import augment
from acgcl.augment import mirror_search
from acgcl.graph import SbmConfig, generate_sbm
from acgcl.sampler import Subgraph, SubgraphSet, sample_all_subgraphs
from conftest import packed_pair, stack_subgraphs
from oracles import (assert_same_tables, chunked_mirror_search, distance_matrix,
                     find_mirror_pair, full_table_adjacencies, row_difference_distances)


def random_stack(rng, k, features, labels, padded, n_subgraphs=3):
    """A stack of k-slot subgraphs over 2k parents, each subgraph on distinct
    parents unless centre-padded."""
    n_parents = 2 * k
    if features == "continuous":
        x = rng.standard_normal((n_parents, 2))
    elif features == "duplicated":          # a few distinct rows, many exact copies
        x = rng.standard_normal((3, 2))[rng.integers(0, 3, size=n_parents)]
    else:                                    # small integers: equal sums
        x = rng.integers(-2, 3, size=(n_parents, 2)).astype(float)
    subs = []
    for _ in range(n_subgraphs):
        parents = rng.choice(n_parents, size=k, replace=False)
        if padded:
            parents[k - int(rng.integers(1, k)):] = parents[0]
        adjacency = np.triu((rng.random((k, k)) < 0.5).astype(float), 1)
        subs.append(Subgraph(parents, adjacency + adjacency.T, x))
    values = {"one": np.zeros(n_parents), "distinct": np.arange(n_parents),
              "few": rng.integers(0, 3, size=n_parents)}[labels]
    return stack_subgraphs(subs), values.astype(np.int64)


@pytest.fixture
def scanned_rows(monkeypatch):
    """The number of rows each block sent to the exact scan."""
    rows = []
    scan = augment._scanned_mins

    def counted(dmat, parents, labels, g, a, b):
        rows.append(len(g))
        return scan(dmat, parents, labels, g, a, b)

    monkeypatch.setattr(augment, "_scanned_mins", counted)
    return rows


def scan_everything(monkeypatch):
    """Make the lists settle no row, so that every row takes the exact scan."""
    listed = augment._listed_mins

    def nothing_settled(*args):
        *mins, settled = listed(*args)
        return (*mins, np.zeros_like(settled))

    monkeypatch.setattr(augment, "_listed_mins", nothing_settled)


class TestAgainstChunkedSearch:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 9),
           st.sampled_from(["continuous", "duplicated", "integer"]),
           st.sampled_from(["one", "distinct", "few"]), st.booleans())
    def test_tables_match(self, seed, k, features, labels, padded):
        subs, sem = random_stack(np.random.default_rng(seed), k, features, labels, padded)
        assert_same_tables(mirror_search(subs, sem), chunked_mirror_search(subs, sem))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("labels", ["one", "distinct", "few"])
    def test_short_lists(self, rng, k, labels):
        # k <= LIST_LENGTH: every list runs out, and so do some sets at k = 5
        for _ in range(3):
            subs, sem = random_stack(rng, k, "continuous", labels, False, n_subgraphs=8)
            assert_same_tables(mirror_search(subs, sem), chunked_mirror_search(subs, sem))


class TestDistances:
    """``MirrorSearch.distances``: the distance of every pair a < b with
    distinct parents, subgraph by subgraph, the run's exact distribution."""

    @pytest.mark.parametrize("padded", [False, True])
    @pytest.mark.parametrize("block", [7, augment.PAIR_BLOCK])
    def test_every_pair_distance_once(self, rng, monkeypatch, padded, block):
        monkeypatch.setattr(augment, "PAIR_BLOCK", block)
        subs, sem = random_stack(rng, 9, "continuous", "few", padded, n_subgraphs=12)
        search = mirror_search(subs, sem)
        want = row_difference_distances(subs)
        assert (want.size < len(subs) * 36) == padded
        assert search.distances.dtype == np.float64 and search.distances.shape == want.shape
        assert np.abs(search.distances - want).max() <= 1e-12 * want.max()
        assert search[3:5].distances is search.distances


STACKS = st.tuples(st.integers(0, 2 ** 31 - 1), st.integers(2, 9),
                   st.sampled_from(["continuous", "duplicated", "integer"]),
                   st.sampled_from(["one", "distinct", "few"]), st.booleans())


class TestPackedTables:
    """The tables keep the pairs a < b alone, in ``np.triu_indices`` order."""

    @settings(max_examples=60, deadline=None)
    @given(STACKS)
    def test_every_pair_matches_the_brute_force_search(self, case):
        seed, k, features, labels, padded = case
        subs, sem = random_stack(np.random.default_rng(seed), k, features, labels, padded)
        search = mirror_search(subs, sem)
        pairs = list(zip(*np.triu_indices(k, 1)))
        for table in (search.best, search.argmin):
            assert table.shape == (2, len(subs), len(pairs))
        for i, sub in enumerate(subs):
            dmat = distance_matrix(sub.node_features[sub.parent_indices])
            for q, (a, b) in enumerate(pairs):
                assert q == packed_pair(k, a, b)
                for p, polarity in enumerate(("positive", "negative")):
                    mirror = None
                    if sub.parent_indices[a] != sub.parent_indices[b]:
                        mirror = find_mirror_pair(sub, (a, b), np.inf, sem, polarity, dmat)
                    if mirror is None:
                        assert search.best[p, i, q] == np.inf and search.argmin[p, i, q] == 0
                        continue
                    c, d = mirror
                    assert search.best[p, i, q] == dmat[c, a] + dmat[d, b]
                    assert search.argmin[p, i, q] == c * k + d

    @settings(max_examples=40, deadline=None)
    @given(STACKS)
    def test_adjacencies_equal_thresholding_the_full_tables(self, case):
        seed, k, features, labels, padded = case
        subs, sem = random_stack(np.random.default_rng(seed), k, features, labels, padded)
        search = mirror_search(subs, sem)
        sums = search.best[np.isfinite(search.best)]
        for gamma in (0.0, *(sums / 2.0)[:3], *(np.nextafter(sums / 2.0, np.inf))[:3], np.inf):
            got = search.adjacencies(gamma)
            assert got.dtype == np.bool_ and got.shape == (2, len(subs), k, k)
            assert np.array_equal(got, got.transpose(0, 1, 3, 2))
            assert not got.diagonal(axis1=2, axis2=3).any()
            assert np.array_equal(got, full_table_adjacencies(search, gamma))


class TestRouting:
    """Which rows the lists settle, and which go to the exact scan."""

    @pytest.mark.parametrize("features", ["duplicated", "integer"])
    def test_ties_go_to_the_exact_scan(self, rng, scanned_rows, features):
        subs, sem = random_stack(rng, 8, features, "few", False, n_subgraphs=6)
        search = mirror_search(subs, sem)
        assert sum(scanned_rows) > 0
        assert sum(scanned_rows) < search.distances.size
        assert_same_tables(search, chunked_mirror_search(subs, sem))

    def test_every_pair_of_a_padded_subgraph_goes_to_the_exact_scan(self, rng, scanned_rows):
        x = rng.standard_normal((20, 3))
        plain = Subgraph(np.arange(6), np.zeros((6, 6)), x)
        padded = Subgraph(np.array([7, 8, 9, 10, 7, 7]), np.zeros((6, 6)), x)
        subs = stack_subgraphs([plain, padded])
        sem = rng.integers(0, 2, size=20)
        search = mirror_search(subs, sem)
        assert [row_difference_distances(subs[i:i + 1]).size for i in range(2)] == [15, 12]
        assert search.distances.size == 27
        assert scanned_rows == [12]
        assert_same_tables(search, chunked_mirror_search(subs, sem))

    def test_a_rounding_tie_at_the_cut_goes_to_the_exact_scan(self, scanned_rows):
        # As in test_augment's rounding-tie case: on a line, D[a, 0] = 1 + 2^-52
        # and D[a, 1] = 1 give the same rounded sum with D[b, 4] = 3.
        x = np.array([[1.0 + 2.0 ** -52], [-1.0], [0.0], [10.0], [13.0]])
        subs = stack_subgraphs([Subgraph(np.arange(5), np.zeros((5, 5)), x)])
        sem = np.zeros(5, dtype=np.int64)
        search = mirror_search(subs, sem)
        assert sum(scanned_rows) > 0
        assert divmod(int(search.argmin[0, 0, packed_pair(5, 2, 3)]), 5) == (0, 4)
        assert_same_tables(search, chunked_mirror_search(subs, sem))

    def test_a_benchmark_like_block_model_needs_no_exact_scan(self, monkeypatch, scanned_rows):
        g = generate_sbm(SbmConfig((60, 60, 60), 0.15, 0.01, 16), seed=3)
        subs = sample_all_subgraphs(g, 20, 0.15)
        for kind in augment.SEMANTICS:
            sem = augment.semantic_assignment(g, kind, 4)
            search = mirror_search(subs, sem)
            assert scanned_rows == []
            with monkeypatch.context() as patched:
                scan_everything(patched)
                assert_same_tables(search, mirror_search(subs, sem))
            assert sum(scanned_rows) == search.distances.size
            scanned_rows.clear()


class TestFeatureScale:
    """The search at the extremes of the feature matrix: wide rows, and
    entries so large that the distance kernel's Gram terms overflow."""

    def test_wide_features_keep_a_block_small(self):
        # A block holds its (g, k, d) gather and (g, k, k) tables, about
        # 15 MiB here; a (g, k, k, d) difference would take 189 MiB.
        g = generate_sbm(SbmConfig((30, 30), 0.3, 0.02, 1433), seed=0)
        subs = sample_all_subgraphs(g, 20, 0.15)
        sem = augment.semantic_assignment(g)
        tracemalloc.start()
        try:
            mirror_search(subs, sem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_overflowing_features_hold_no_mirror(self):
        # At 1e160 every |x|^2 overflows; the kernel takes such pairs from
        # their exact differences, which overflow to inf, not to NaN.
        g = generate_sbm(SbmConfig((10, 10), 0.4, 0.05, 4), seed=0)
        subs = sample_all_subgraphs(g, 6, 0.15)
        huge = SubgraphSet(subs.parent_indices, subs.adjacency, subs.node_features * 1e160)
        with np.errstate(over="ignore"):
            search = mirror_search(huge, augment.semantic_assignment(g))
        assert not np.isnan(search.best).any()
        assert np.isinf(search.best).all()
        assert not search.argmin.any()
