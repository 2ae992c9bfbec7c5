import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acgcl import sampler
from acgcl.errors import ContractError, SizeError
from acgcl.graph import SbmConfig, generate_sbm
from acgcl.sampler import (Subgraph, SubgraphSet, compute_ppr_scores, sample_all_subgraphs,
                           top_k_indices)
from conftest import graph_from_dense, graph_from_edges, random_graph, self_loop_graph
from oracles import (column_normalize, dense_adjacency, dense_solve_ppr, power_iteration_ppr,
                     searched_induced, subgraph_indices, three_pass_ppr_scores, top_rank)


class TestColumnNormalize:
    """The column normalization of the ``dense_solve_ppr`` oracle."""

    def test_single_edge(self):
        g = graph_from_edges(2, [(0, 1)])
        assert np.array_equal(column_normalize(dense_adjacency(g)), [[0, 1], [1, 0]])

    def test_degree_division(self):
        g = graph_from_edges(3, [(0, 1), (0, 2)])
        normalized = column_normalize(dense_adjacency(g))
        assert np.allclose(normalized[:, 0], [0, 0.5, 0.5])

    def test_edgeless_graph_stays_zero(self):
        g = graph_from_edges(3, [])
        assert not column_normalize(dense_adjacency(g)).any()


class TestPprScores:
    def test_self_loop_fixed_point(self):
        g = graph_from_dense(np.ones((1, 1)), np.zeros((1, 1)))
        scores = compute_ppr_scores(g, teleport=0.15)
        assert np.allclose(scores, [[1.0]])

    def test_two_node_closed_form(self):
        # (I - 0.85 * [[0,1],[1,0]])^-1 scaled by 0.15
        g = graph_from_edges(2, [(0, 1)])
        scores = compute_ppr_scores(g, teleport=0.15)
        expected = (0.15 / (1 - 0.85 ** 2)) * np.array([[1.0, 0.85], [0.85, 1.0]])
        assert np.allclose(scores, expected, atol=1e-5)
        assert abs(scores[0, 0] - 0.54054) < 1e-5
        assert abs(scores[0, 1] - 0.45946) < 1e-5

    def test_power_matches_dense(self, rng):
        for _ in range(5):
            g = random_graph(rng, n=int(rng.integers(10, 60)))
            dense = compute_ppr_scores(g, 0.15)
            power = power_iteration_ppr(g, 0.15)
            assert np.abs(dense - power).max() < 1e-5

    def test_columns_sum_to_one(self, rng):
        g = random_graph(rng, n=40)
        scores = compute_ppr_scores(g, 0.15)
        assert np.abs(scores.sum(axis=0) - 1.0).max() < 1e-8
        assert scores.min() >= 0.0

    def test_teleport_range_enforced(self):
        g = graph_from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            compute_ppr_scores(g, teleport=0.0)
        with pytest.raises(ValueError):
            compute_ppr_scores(g, teleport=1.0)


def oracle_graphs(rng):
    """Random graphs, isolated nodes, self-loops, an edgeless graph and n = 1."""
    return [
        *(random_graph(rng, n=int(rng.integers(5, 90)), p=float(rng.uniform(0.02, 0.3)),
                       min_degree_ring=bool(rng.integers(2))) for _ in range(6)),
        graph_from_edges(9, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 5)]),   # 8 isolated
        self_loop_graph(rng),
        graph_from_dense(np.diag([1.0, 0.0, 1.0]), np.zeros((3, 1))),
        graph_from_edges(6, []),
        graph_from_edges(1, []),
        graph_from_dense(np.ones((1, 1)), np.zeros((1, 1))),
    ]


class TestCholeskyMatchesSolve:
    """The symmetric in-place inverse against the dense solve of the
    column-normalized resolvent that it replaced. (The class keeps the name
    of the LAPACK Cholesky inverse that stood between the two.)"""

    def test_scores_within_1e_12(self, rng):
        for g in oracle_graphs(rng):
            for teleport in (0.15, 0.5, 0.9):
                got = compute_ppr_scores(g, teleport)
                want = dense_solve_ppr(g, teleport)
                assert got.shape == want.shape and got.flags.c_contiguous
                assert np.abs(got - want).max() <= 1e-12
                assert got.min() >= 0.0

    def test_blocked_scaling_matches_three_passes(self, rng):
        """Scaling and clamping one block of rows at a time keeps the bits
        of three passes over the whole inverse: graphs with isolated nodes,
        and sizes that end in a partial block."""
        block = sampler.RANK_BLOCK_ROWS
        graphs = [*oracle_graphs(rng),
                  random_graph(rng, n=block + 1, p=0.05),
                  random_graph(rng, n=3 * block - 5, p=4.0 / (3 * block), dim=1)]
        dense = dense_adjacency(graphs[-1])
        dense[[3, block, 2 * block + 7], :] = dense[:, [3, block, 2 * block + 7]] = 0.0
        graphs.append(graph_from_dense(dense, np.zeros((len(dense), 1))))
        for g in graphs:
            for teleport in (0.15, 0.9):
                assert np.array_equal(compute_ppr_scores(g, teleport),
                                      three_pass_ppr_scores(g, teleport))

    def test_isolated_nodes_keep_the_teleport_mass(self):
        g = graph_from_edges(4, [(0, 1)])
        scores = compute_ppr_scores(g, 0.15)
        assert np.array_equal(scores[2:, 2:], 0.15 * np.eye(2))
        assert not scores[:2, 2:].any() and not scores[2:, :2].any()

    def test_same_top_k(self, rng):
        for g in oracle_graphs(rng):
            got, want = compute_ppr_scores(g, 0.15), dense_solve_ppr(g, 0.15)
            for k in (1, 3, 8, 20):
                assert np.array_equal(top_k_indices(got, k), top_k_indices(want, k))

    def test_same_top_k_at_2100_nodes(self, rng):
        g = random_graph(rng, n=2100, p=3.0 / 2100, dim=1)
        got, want = compute_ppr_scores(g, 0.15), dense_solve_ppr(g, 0.15)
        assert np.abs(got - want).max() <= 1e-12
        for k in (8, 20):
            assert np.array_equal(top_k_indices(got, k), top_k_indices(want, k))


def sparse_spd(rng, n, cross):
    """A sparse, diagonally dominant symmetric matrix and its edge list (the
    rows, cols and values of its nonzeros above the diagonal). The block
    that crosses the top split is ``cross``: "empty", "single" (one entry)
    or "dense". Rows 1 and half - 1, and n - 1 when C has more than one row,
    are isolated, so that both sides of the split have one."""
    half = sampler._split(n)
    upper = np.triu(np.where(rng.random((n, n)) < 4.0 / n, rng.uniform(-1, 1, (n, n)), 0.0), 1)
    upper[:half, half:] = rng.uniform(-1, 1, (half, n - half)) if cross == "dense" else 0.0
    if cross == "single":
        upper[half // 2, half] = 0.5
    isolated = [1, half - 1] + ([n - 1] if n - 1 > half else [])
    upper[isolated, :] = upper[:, isolated] = 0.0
    matrix = upper + upper.T
    matrix[np.diag_indices(n)] = 1.0 + np.abs(matrix).sum(axis=1)
    rows, cols = np.nonzero(upper)
    return matrix, (rows, cols, upper[rows, cols])


class TestBlockInverse:
    """The recursive in-place block inverse behind ``compute_ppr_scores``,
    at sizes around its leaf and split boundaries."""

    @pytest.mark.parametrize("n", [1, sampler.INVERSE_LEAF, sampler.INVERSE_LEAF + 1, 193, 500])
    def test_matches_numpy_inverse(self, rng, n):
        half = rng.standard_normal((n, n)) / np.sqrt(n)
        matrix = half @ half.T + np.eye(n)
        inverse = matrix.copy()
        sampler._invert_in_place(inverse)
        assert np.abs(inverse - np.linalg.inv(matrix)).max() <= 1e-12

    @pytest.mark.parametrize("cross", ["empty", "single", "dense"])
    @pytest.mark.parametrize("n", [sampler.INVERSE_LEAF + 1, 193, 257, 500, 1000])
    def test_edge_list_matches_numpy_and_dense_path(self, rng, n, cross):
        matrix, edges = sparse_spd(rng, n, cross)
        given = matrix.copy()
        sampler._invert_in_place(given, edges)
        dense = matrix.copy()
        sampler._invert_in_place(dense)
        assert np.abs(given - np.linalg.inv(matrix)).max() <= 1e-12
        assert np.abs(given - dense).max() <= 1e-12

    def test_singular_block_raises_contract_error(self):
        with pytest.raises(ContractError, match="block inverse failed"):
            sampler._invert_in_place(np.zeros((300, 300)))

    @pytest.mark.parametrize("n", [sampler.INVERSE_LEAF + 1, 257, 1000])
    def test_scores_within_1e_12_across_splits(self, rng, n):
        g = random_graph(rng, n=n, p=4.0 / n, dim=1)
        got = compute_ppr_scores(g, 0.15)
        assert np.abs(got - dense_solve_ppr(g, 0.15)).max() <= 1e-12
        assert got.min() >= 0.0

    def test_isolated_nodes_and_self_loops_on_both_sides_of_a_split(self, rng):
        n = 300                   # first half 192 rows
        dense = dense_adjacency(random_graph(rng, n=n, p=4.0 / n, dim=1))
        isolated, loops = [5, 150, 250, 299], [10, 191, 192, 260]
        dense[isolated, :] = dense[:, isolated] = 0.0
        dense[loops, loops] = 1.0
        g = graph_from_dense(dense, np.zeros((n, 1)))
        for teleport in (0.15, 0.9):
            got = compute_ppr_scores(g, teleport)
            assert np.abs(got - dense_solve_ppr(g, teleport)).max() <= 1e-12
            assert np.array_equal(got[isolated], teleport * np.eye(n)[isolated])
            assert not got[:, isolated][np.setdiff1d(np.arange(n), isolated)].any()

    def test_peak_memory_is_the_result_and_one_quarter(self, rng):
        n = 1024
        g = random_graph(rng, n=n, p=4.0 / n, dim=1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scores = compute_ppr_scores(g, 0.15)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert scores.nbytes == n * n * 8
        assert peak <= 1.5 * n * n * 8

    def test_automorphic_nodes_rank_by_id(self):
        """Nodes that an automorphism swaps score the same in exact
        arithmetic; whatever rounding the inverse leaves, they rank by id.
        Rows on both sides of the 192-row split of n = 300."""
        n = 300
        star = top_k_indices(compute_ppr_scores(star_graph(n), 0.15), 5)
        assert star[0].tolist() == [0, 1, 2, 3, 4]
        for leaf in (2, 7, 191, 192, 299):
            others = [i for i in range(1, n) if i != leaf]
            assert star[leaf].tolist() == [leaf, 0, *others[:3]]
        cycle = top_k_indices(compute_ppr_scores(cycle_graph(n), 0.15), 5)
        for i in (0, 150, 191, 192, 299):
            ring = [sorted({(i - d) % n, (i + d) % n}) for d in (1, 2)]
            assert cycle[i].tolist() == [i, *ring[0], *ring[1]]
        # Pendant leaves 7 and 250 of node 100 on a cycle through every other node.
        ring = [i for i in range(n) if i not in (7, 250)]
        g = graph_from_edges(n, [*zip(ring, ring[1:] + ring[:1]), (7, 100), (250, 100)])
        ranked = top_k_indices(compute_ppr_scores(g, 0.15), 12).tolist()
        assert ranked[100].index(7) + 1 == ranked[100].index(250)
        for row in ranked:
            if 250 in row[1:]:
                assert row.index(7) < row.index(250)


class TestTopRank:
    def test_center_forced_first(self):
        assert top_rank(np.array([0.5, 0.2, 0.9]), 2, center=2).tolist() == [2, 0]

    def test_tie_break_ascending_id(self):
        assert top_rank(np.ones(3), 3, center=0).tolist() == [0, 1, 2]

    def test_full_k_is_permutation(self, rng):
        scores = rng.random(9)
        out = top_rank(scores, 9, center=4)
        assert sorted(out.tolist()) == list(range(9))
        assert out[0] == 4

    def test_k_out_of_range(self):
        with pytest.raises(SizeError):
            top_rank(np.ones(3), 4, center=0)
        with pytest.raises(SizeError):
            top_rank(np.ones(3), 0, center=0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 20), st.integers(0, 19), st.integers(0, 2 ** 31 - 1))
    def test_output_distinct_and_sorted_by_score(self, k, center, seed):
        r = np.random.default_rng(seed)
        n = 20
        scores = r.random(n)
        out = top_rank(scores, k, center=center % n)
        assert len(set(out.tolist())) == k
        tail = [i for i in out[1:]]
        assert all(scores[tail[i]] >= scores[tail[i + 1]] or True for i in range(len(tail) - 1))
        ranked = sorted(range(n), key=lambda i: (-scores[i], i))
        expected = [center % n] + [i for i in ranked if i != center % n][: k - 1]
        assert out.tolist() == expected


def oracle_indices(matrix, k):
    return np.stack([subgraph_indices(row, k, i) for i, row in enumerate(matrix)])


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n):
    return graph_from_edges(n, [(0, i) for i in range(1, n)])


class TestBlockRanking:
    """top_k_indices ranks whole blocks of rows; the oracle ranks one row."""

    def test_random_graphs(self, rng):
        for _ in range(5):
            n = int(rng.integers(5, 80))
            g = random_graph(rng, n=n, p=float(rng.uniform(0.02, 0.3)),
                             min_degree_ring=bool(rng.integers(2)))
            matrix = compute_ppr_scores(g, 0.15)
            for k in (1, 2, int(rng.integers(1, n + 1)), 20):
                assert np.array_equal(top_k_indices(matrix, k), oracle_indices(matrix, k))

    def test_isolated_nodes_and_small_components_pad(self):
        g = graph_from_edges(9, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 5)])  # 8 isolated
        matrix = compute_ppr_scores(g, 0.15)
        out = top_k_indices(matrix, 5)
        assert np.array_equal(out, oracle_indices(matrix, 5))
        assert out[8].tolist() == [8] * 5
        assert out[3].tolist() == [3, 4, 3, 3, 3]

    def test_scores_at_the_cutoff_are_unreachable(self):
        matrix = np.array([[1.0, 1e-12, 0.5], [0.5, 1.0, 2e-12], [0.0, 0.0, 1.0]])
        out = top_k_indices(matrix, 3)
        assert out.tolist() == [[0, 2, 0], [1, 0, 2], [2, 2, 2]]
        assert np.array_equal(out, oracle_indices(matrix, 3))

    def test_k_equals_and_exceeds_n(self, rng):
        g = random_graph(rng, n=12, p=0.2)
        matrix = compute_ppr_scores(g, 0.15)
        for k in (12, 15):
            out = top_k_indices(matrix, k)
            assert np.array_equal(out, oracle_indices(matrix, k))
            assert all(sorted(set(row.tolist())) == list(range(12)) for row in out)

    def test_partial_last_block(self, rng):
        for n in (sampler.RANK_BLOCK_ROWS + 1, 2 * sampler.RANK_BLOCK_ROWS + 1):
            g = random_graph(rng, n=n, p=6.0 / n)
            matrix = compute_ppr_scores(g, 0.15)
            assert np.array_equal(top_k_indices(matrix, 10), oracle_indices(matrix, 10))

    def test_exact_ties(self, rng):
        for g in (cycle_graph(11), cycle_graph(300), star_graph(9), star_graph(300)):
            matrix = compute_ppr_scores(g, 0.15)
            for k in (4, 9):
                assert np.array_equal(top_k_indices(matrix, k), oracle_indices(matrix, k))
        # Exact ties and unreachable zeros by construction, across two blocks.
        matrix = rng.integers(0, 3, size=(300, 300)).astype(float)
        np.fill_diagonal(matrix, 1.0)
        assert np.array_equal(top_k_indices(matrix, 7), oracle_indices(matrix, 7))
        assert top_k_indices(np.ones((4, 4)), 4).tolist() == [
            [0, 1, 2, 3], [1, 0, 2, 3], [2, 0, 1, 3], [3, 0, 1, 2]]

    def test_large_graph_through_sampler(self, rng):
        g = random_graph(rng, n=2100, p=3.0 / 2100, dim=1)
        matrix = compute_ppr_scores(g, 0.15)
        subs = sample_all_subgraphs(g, k=8, teleport=0.15)
        parents = np.stack([s.parent_indices for s in subs])
        assert np.array_equal(parents, oracle_indices(matrix, 8))


@st.composite
def straddling_cases(draw):
    """A square score matrix whose entries lie 0 to 4 multiples of TIE_RTOL
    below its row's scale, with fractions of a multiple that round up, down
    or onto a half, so that rounding ties straddle the raw k-th largest
    score; some entries far below, some zero, some rows zero. Then k and a
    rank block size, so that blocks end mid-matrix."""
    n = draw(st.integers(1, 9))
    levels = draw(st.lists(st.sampled_from([0, 1, 2, 3, 4, 10 ** 9, 10 ** 12]),
                           min_size=n * n, max_size=n * n))
    fractions = draw(st.lists(st.sampled_from([0.0, 0.3, 0.45, 0.5, 0.55, 0.7]),
                              min_size=n * n, max_size=n * n))
    scales = draw(st.lists(st.sampled_from([1.0, 0.37, 0.0]), min_size=n, max_size=n))
    offsets = np.reshape(np.add(levels, fractions), (n, n)) * sampler.TIE_RTOL
    matrix = np.array(scales)[:, None] * (1.0 - offsets)
    return matrix, draw(st.integers(1, n + 2)), draw(st.integers(1, 4))


class TestRankingPath:
    """The one ranking path of ``top_k_indices``: a partition of raw scores
    and a sort of the rounded candidates near each row's cut, against the
    row-at-a-time stable sort of ``oracle_indices``."""

    @settings(max_examples=300, deadline=None)
    @given(straddling_cases())
    # Entry 1 lies 0.4 multiples below the cut (entry 2), rounds alike and
    # has the smaller id, so it is ranked although the partition drops it.
    @example((np.array([[0.5, 1 - 1.3e-12, 1 - 0.9e-12], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
              2, 64))
    def test_rounding_ties_straddling_the_raw_cut(self, case):
        matrix, k, block = case
        with mock.patch.object(sampler, "RANK_BLOCK_ROWS", block):
            assert np.array_equal(top_k_indices(matrix, k), oracle_indices(matrix, k))

    def test_integer_ties_across_two_blocks(self, rng):
        n = sampler.RANK_BLOCK_ROWS + 9
        matrix = rng.integers(0, 3, size=(n, n)).astype(float)
        for k in (1, 2, 5, n - 1):
            assert np.array_equal(top_k_indices(matrix, k), oracle_indices(matrix, k))

    def test_zero_and_negative_rows(self, rng):
        n = sampler.RANK_BLOCK_ROWS + 3
        matrix = rng.standard_normal((n, n))
        matrix[::5] = 0.0                           # all tie, and none is reachable
        matrix[1::5] = -np.abs(matrix[1::5])        # no score above the reach cut
        for k in (1, 4, n, n + 2):
            out = top_k_indices(matrix, k)
            assert np.array_equal(out, oracle_indices(matrix, k))
            assert (out[::5] == np.arange(0, n, 5)[:, None]).all()
            assert (out[1::5] == np.arange(1, n, 5)[:, None]).all()

    def test_center_scoring_below_the_cut(self, rng):
        matrix = rng.random((40, 40)) + 1.0
        np.fill_diagonal(matrix, 0.5)               # below every other score, yet first
        for k in (1, 3, 39):
            out = top_k_indices(matrix, k)
            assert np.array_equal(out, oracle_indices(matrix, k))
            assert np.array_equal(out[:, 0], np.arange(40))

    def test_k_one_and_k_at_least_n(self, rng):
        matrix = compute_ppr_scores(random_graph(rng, n=sampler.RANK_BLOCK_ROWS + 5, p=0.05),
                                    0.15)
        n = len(matrix)
        for k in (1, n, n + 1, n + 4):
            out = top_k_indices(matrix, k)
            assert out.shape == (n, k)
            assert np.array_equal(out, oracle_indices(matrix, k))
        assert np.array_equal(top_k_indices(matrix, 1), np.arange(n)[:, None])


class TestBitTable:
    """The bit-table lookup of induced adjacencies against the edge-key
    search it replaced."""

    @staticmethod
    def assert_matches_search(g, ids):
        got = sampler._induced(sampler._bit_table(g), g.n_nodes, ids)
        assert got.dtype == bool and np.array_equal(got, searched_induced(g, ids))

    def test_random_graphs_with_self_loops(self, rng):
        for n in (5, 30, 70):
            g = self_loop_graph(rng, n=n)
            self.assert_matches_search(g, rng.integers(0, n, size=(40, 8)))
            self.assert_matches_search(g, np.arange(n))

    def test_padded_subgraphs_repeat_ids(self, rng):
        g = graph_from_edges(10, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3), (6, 7)])
        ids = top_k_indices(compute_ppr_scores(g, 0.15), 5)
        assert (ids[8] == 8).all() and ids[6].tolist() == [6, 7, 6, 6, 6]
        self.assert_matches_search(g, ids)
        self.assert_matches_search(g, np.array([[2, 2, 1, 1], [0, 1, 0, 1]]))

    @pytest.mark.parametrize("n", [3, 7, 9])
    def test_n_squared_not_a_multiple_of_8(self, rng, n):
        g = self_loop_graph(rng, n=n)
        table = sampler._bit_table(g)
        assert table.nbytes == -(-n * n // 8)
        assert np.array_equal(sampler._induced(table, n, np.arange(n)), dense_adjacency(g) != 0)
        self.assert_matches_search(g, rng.integers(0, n, size=(6, n)))

    def test_single_node(self):
        for loop in (0.0, 1.0):
            g = graph_from_dense([[loop]], np.zeros((1, 1)))
            assert sampler._bit_table(g).nbytes == 1
            self.assert_matches_search(g, np.zeros((3, 2), dtype=np.int64))


class TestSampleAllSubgraphs:
    def test_block_purity_with_disconnected_blocks(self):
        g = generate_sbm(SbmConfig(block_sizes=(30, 30), p_intra=0.4, p_inter=0.0,
                                   feature_dim=2), seed=2)
        for sub in sample_all_subgraphs(g, k=6, teleport=0.15):
            blocks = g.labels[sub.parent_indices]
            assert (blocks == blocks[0]).all()

    def test_k_one_singletons(self, rng):
        g = random_graph(rng, n=10)
        subs = sample_all_subgraphs(g, k=1, teleport=0.15)
        assert all(s.parent_indices.tolist() == [i] for i, s in enumerate(subs))

    def test_padding_on_small_components(self):
        g = graph_from_edges(4, [(0, 1)])   # nodes 2, 3 isolated
        subs = sample_all_subgraphs(g, k=3, teleport=0.15)
        assert subs[2].parent_indices.tolist() == [2, 2, 2]
        assert subs[0].parent_indices.tolist()[:2] == [0, 1]
        assert len(subs[0].parent_indices) == 3

    def test_shapes_and_symmetry(self, rng):
        g = random_graph(rng, n=20)
        for sub in sample_all_subgraphs(g, k=5, teleport=0.15):
            assert len(sub.parent_indices) == 5
            assert np.array_equal(sub.adjacency, sub.adjacency.T)

    @pytest.mark.parametrize("edges", [[(0, 1), (1, 2), (3, 4), (4, 5), (5, 3), (6, 7)], []])
    def test_one_pass_gather_matches_searched_induced(self, rng, edges):
        # Padded subgraphs, isolated nodes and an edgeless graph included.
        for g in (random_graph(rng, n=30), graph_from_edges(10, edges)):
            for k in (1, 4, 12):
                subs = sample_all_subgraphs(g, k=k, teleport=0.15)
                indices = top_k_indices(compute_ppr_scores(g, 0.15), k)
                for sub, ids in zip(subs, indices, strict=True):
                    assert sub.parent_indices.dtype == np.int64
                    assert np.array_equal(sub.parent_indices, ids)
                    assert sub.node_features is g.features
                    want = searched_induced(g, ids)
                    assert sub.adjacency.dtype == want.dtype
                    assert np.array_equal(sub.adjacency, want)

    @pytest.mark.parametrize("block", [1, 7])
    def test_blocked_fill_matches_searched_induced(self, rng, monkeypatch, block):
        # blocks of subgraphs that end mid-set, padded subgraphs included
        monkeypatch.setattr(sampler, "RANK_BLOCK_ROWS", block)
        edges = [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3), (6, 7)]
        for g in (random_graph(rng, n=30), graph_from_edges(10, edges)):
            subs = sample_all_subgraphs(g, k=6, teleport=0.15)
            for sub in subs:
                want = searched_induced(g, sub.parent_indices)
                assert sub.adjacency.dtype == want.dtype
                assert np.array_equal(sub.adjacency, want)

    def test_deterministic(self, rng):
        g = random_graph(rng, n=15)
        a = sample_all_subgraphs(g, k=4, teleport=0.15)
        b = sample_all_subgraphs(g, k=4, teleport=0.15)
        assert all(np.array_equal(x.parent_indices, y.parent_indices) for x, y in zip(a, b))


class TestSubgraphSet:
    """What callers do with the result of ``sample_all_subgraphs``: len,
    iteration, int and slice indexing, and one-subgraph arrays."""

    def test_sequence_access(self, rng):
        g = random_graph(rng, n=20)
        subs = sample_all_subgraphs(g, k=5, teleport=0.15)
        assert isinstance(subs, SubgraphSet) and len(subs) == 20
        listed = list(subs)
        assert len(listed) == 20 and all(isinstance(s, Subgraph) for s in listed)
        for i in (0, 7, np.int64(19), -1):
            one = subs[i]
            assert isinstance(one, Subgraph)
            assert one.parent_indices.shape == (5,) and one.parent_indices[0] == int(i) % 20
            assert one.node_features[one.parent_indices].shape == (5, g.feature_dim)
            assert one.adjacency.shape == (5, 5) and one.node_features is subs.node_features
            for name in ("parent_indices", "adjacency"):
                assert np.array_equal(getattr(one, name), getattr(subs, name)[i])
                assert np.array_equal(getattr(listed[i], name), getattr(one, name))

    def test_slices_are_sets(self, rng):
        g = random_graph(rng, n=20)
        subs = sample_all_subgraphs(g, k=5, teleport=0.15)
        part = subs[3:9]
        assert isinstance(part, SubgraphSet) and len(part) == 6
        for name in ("parent_indices", "adjacency"):
            assert np.array_equal(getattr(part, name), getattr(subs, name)[3:9])
        assert part.node_features is subs.node_features
        assert part[0].parent_indices[0] == 3
        assert len(subs[18:40]) == 2 and len(subs[5:5]) == 0

    def test_bad_indices(self, rng):
        subs = sample_all_subgraphs(random_graph(rng, n=10), k=3, teleport=0.15)
        with pytest.raises(IndexError):
            subs[10]
        with pytest.raises(TypeError):
            subs[[1, 2]]

    def test_one_copy_of_the_node_features(self, rng):
        """The set holds ids and adjacencies; feature rows stay in the
        graph's own matrix, which int indexing and slicing pass through."""
        g = random_graph(rng, n=20)
        subs = sample_all_subgraphs(g, k=5, teleport=0.15)
        for view in (subs, subs[7], subs[3:9], subs[3:9][0]):
            assert view.node_features is g.features and not hasattr(view, "features")
        ids = top_k_indices(compute_ppr_scores(g, 0.15), 5)
        assert np.array_equal(subs.parent_indices, ids)
        for cls in (Subgraph, SubgraphSet):
            assert not hasattr(cls, "features")
            assert "features" not in {f.name for f in dataclasses.fields(cls)}
