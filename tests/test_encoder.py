import json

import numpy as np
import pytest

from acgcl import autodiff as ad
from acgcl.augment import mirror_search
from acgcl.config import TrainConfig
from acgcl.encoder import (GcnParams, derangement, gcn_forward_batched, init_gcn_params,
                           sym_normalized_adjacency)
from acgcl.errors import ConfigError, SizeError
from acgcl.sampler import sample_all_subgraphs
from acgcl.trainer import encoded_views, load_checkpoint, mirror_views, save_checkpoint
from conftest import graph_from_edges, random_graph
from oracles import gcn_forward, scaled_sym_normalized_adjacency


def identity_params(dim):
    return GcnParams(weights=[ad.parameter(np.eye(dim))],
                     slopes=[ad.parameter(np.asarray(1.0))])


def forward_one(params, adjacency, features):
    """One subgraph through the batched forward pass, as a one-block stack."""
    return gcn_forward_batched(params, sym_normalized_adjacency(adjacency)[None], features,
                               centers_only=False)


class TestSymNormalizedAdjacency:
    def test_stack_matches_per_block(self, rng):
        padded = graph_from_edges(9, [(0, 1), (1, 2), (3, 4)])   # nodes 5-8 isolated
        for graph, k in ((random_graph(rng, n=40), 1), (random_graph(rng, n=40), 6),
                         (padded, 4), (padded, 1)):
            subgraphs = sample_all_subgraphs(graph, k, 0.15)
            if graph is padded and k > 1:
                assert subgraphs[0].parent_indices.tolist() == [0, 1, 2, 0]   # center-padded
            stack = np.stack([s.adjacency for s in subgraphs])
            stacked = sym_normalized_adjacency(stack)
            for block, adjacency in zip(stacked, stack):
                assert np.array_equal(block, sym_normalized_adjacency(adjacency))
                assert np.array_equal(block, scaled_sym_normalized_adjacency(adjacency))
            pair = sym_normalized_adjacency(np.stack([stack, stack[::-1]]))
            assert np.array_equal(pair[0], stacked)
            assert np.array_equal(pair[1], stacked[::-1])


class TestBatchNormalization:
    """A step normalizes only its batch's adjacencies: the bits of
    normalizing every subgraph first and gathering the batch after, and of
    scaling the float A + I on both sides."""

    @staticmethod
    def stacks(rng):
        for n, k in ((6, 1), (9, 2), (12, 7), (5, 20)):
            for p in (0.0, 0.3, 0.8):
                adjacency = np.triu(rng.random((n, k, k)) < p, 1)
                adjacency |= adjacency.transpose(0, 2, 1)
                adjacency[0] = False                             # isolated slots
                if k > 1:
                    adjacency[1, 0, 0] = adjacency[1, 1, 1] = True   # self loops
                yield adjacency

    def test_batch_equals_gathering_the_whole_stack(self, rng):
        for adjacency in self.stacks(rng):
            n = len(adjacency)
            whole = sym_normalized_adjacency(adjacency)
            assert np.array_equal(whole.view(np.uint64),
                                  scaled_sym_normalized_adjacency(adjacency).view(np.uint64))
            assert np.array_equal(whole.view(np.uint64),
                                  sym_normalized_adjacency(adjacency.astype(float)).view(np.uint64))
            for ids in (np.sort(rng.choice(n, size=n // 2, replace=False)), np.arange(n)):
                batch = sym_normalized_adjacency(adjacency[ids])
                assert batch.dtype == np.float64
                assert np.array_equal(batch.view(np.uint64), whole[ids].view(np.uint64))

    def test_views_of_a_batch(self, rng):
        g = random_graph(rng, n=20)
        subs = sample_all_subgraphs(g, k=6, teleport=0.15)
        assert subs.adjacency.dtype == np.bool_
        sem = rng.integers(0, 2, size=20)
        mirrors = mirror_search(subs, sem).adjacencies(0.8)
        whole = [encoded_views(subs), *(mirror_views(view) for view in mirrors)]
        for ids in (np.array([0, 3, 4, 11, 19]), np.arange(20)):
            batch = [encoded_views(subs, ids), *(mirror_views(view, ids) for view in mirrors)]
            for got, want in zip(batch, whole):
                assert np.array_equal(got.view(np.uint64), want[ids].view(np.uint64))


class TestGcnForward:
    def test_identity_configuration(self):
        out = forward_one(identity_params(3), np.zeros((1, 1)), np.array([[1.0, -2.0, 0.5]]))
        assert np.allclose(out.value, [[1.0, -2.0, 0.5]])

    def test_zero_weights_zero_output(self, rng):
        params = GcnParams(weights=[ad.parameter(np.zeros((4, 2)))],
                           slopes=[ad.parameter(np.asarray(0.25))])
        out = forward_one(params, np.zeros((3, 3)), rng.standard_normal((3, 4)))
        assert np.array_equal(out.value, np.zeros((3, 2)))

    def test_three_node_hand_computation(self, rng):
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 2))
        slope = 0.3
        params = GcnParams(weights=[ad.parameter(w)], slopes=[ad.parameter(np.asarray(slope))])
        a_hat = sym_normalized_adjacency(adj)
        pre = a_hat @ x @ w
        expected = np.where(pre > 0, pre, slope * pre)
        assert np.abs(forward_one(params, adj, x).value - expected).max() < 1e-10

    def test_permutation_equivariance(self, rng):
        adj = (rng.random((6, 6)) < 0.5).astype(float)
        adj = np.triu(adj, 1)
        adj = adj + adj.T
        x = rng.standard_normal((6, 5))
        params = init_gcn_params(5, 3, n_layers=2, seed=0)
        perm = rng.permutation(6)
        base = forward_one(params, adj, x).value
        permuted = forward_one(params, adj[np.ix_(perm, perm)], x[perm]).value
        assert np.allclose(permuted, base[perm], atol=1e-12)

    def test_batched_matches_per_subgraph(self, rng):
        g = random_graph(rng, n=18)
        subs = sample_all_subgraphs(g, k=5, teleport=0.15)
        params = init_gcn_params(g.feature_dim, 6, n_layers=2, seed=1)
        a_hat = np.stack([sym_normalized_adjacency(s.adjacency) for s in subs])
        feats = np.concatenate([s.node_features[s.parent_indices] for s in subs])
        batched = gcn_forward_batched(params, a_hat, feats, centers_only=False).value
        for i, sub in enumerate(subs):
            single = gcn_forward(params, sub.adjacency, sub.node_features[sub.parent_indices]).value
            assert np.allclose(batched[5 * i:5 * (i + 1)], single, atol=1e-12)

    def test_first_layer_propagation_is_a_constant(self, rng):
        """On constant features each layer is prelu((An @ H) @ W) in one
        node with parents (An @ H, W, slope): layer 1's An @ X is a constant
        node, so the tape holds no propagation for it and its layer passes
        gradients to W and the slope only. Layer 2 passes An @ H its live
        rows as ``Rows``."""
        n, k, dim = 3, 4, 5
        adjacency = np.triu((rng.random((n, k, k)) < 0.5).astype(float), 1)
        a_hat = sym_normalized_adjacency(adjacency + adjacency.transpose(0, 2, 1))
        x = rng.standard_normal((n * k, dim))
        params = init_gcn_params(dim, 3, n_layers=2, seed=0)
        out = gcn_forward_batched(params, a_hat, x, centers_only=False)
        propagated2, w2, s2 = out._parents
        (h1,) = propagated2._parents
        propagated1, w1, s1 = h1._parents
        assert [w1, w2] == params.weights and [s1, s2] == params.slopes
        assert propagated2.requires_grad
        assert not propagated1.requires_grad and propagated1._backward_fn is None
        assert np.array_equal(propagated1.value,
                              (a_hat @ x.reshape(n, k, dim)).reshape(n * k, dim))
        d_propagated1, d_w1, d_s1 = h1._backward_fn(np.ones(h1.shape))
        assert d_propagated1 is None and d_w1.shape == w1.shape and d_s1.shape == ()
        d_propagated2, d_w2, d_s2 = out._backward_fn(np.ones(out.shape))
        assert isinstance(d_propagated2, ad.Rows)           # every upstream row is live
        assert np.array_equal(d_propagated2.indices, np.arange(n * k))
        assert d_propagated2.rows.shape == propagated2.shape and d_w2.shape == w2.shape

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_centers_only_gives_the_center_rows(self, rng, n_layers):
        """Only the last layer's weight and slope see fewer rows: the centre
        rows are bit-identical to those of the full forward pass, and so
        are the gradients they send back."""
        n, k, dim = 5, 4, 3
        adjacency = np.triu((rng.random((n, k, k)) < 0.5).astype(float), 1)
        a_hat = sym_normalized_adjacency(adjacency + adjacency.transpose(0, 2, 1))
        x = rng.standard_normal((n * k, dim))
        params = init_gcn_params(dim, 6, n_layers=n_layers, seed=2)
        full = gcn_forward_batched(params, a_hat, x, centers_only=False)
        centers = gcn_forward_batched(params, a_hat, x, centers_only=True)
        assert centers.shape == (n, 6)
        assert np.array_equal(centers.value, full.value[::k])
        grads = [ad.gradients(ad.sum_all(out), params.all_parameters())
                 for out in (centers, ad.take_rows(full, np.arange(0, n * k, k)))]
        for got, want in zip(*grads):
            assert np.allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_layer_count_validated(self):
        with pytest.raises(ConfigError):
            init_gcn_params(4, 2, n_layers=3, seed=0)


class TestEncodeTriple:
    """Original, positive and negative views through one parameter set."""

    @staticmethod
    def encode(params, subs, views, pos, neg):
        feats = subs.node_features[subs.parent_indices].reshape(-1, subs.node_features.shape[-1])
        return tuple(gcn_forward_batched(params, a, feats, centers_only=False).value
                     for a in (views, pos, neg))

    @staticmethod
    def identity_adjacencies(subs):
        return np.stack([subs.adjacency, subs.adjacency])

    def test_identity_augmentation_identical_embeddings(self, rng):
        g = random_graph(rng, n=12)
        subs = sample_all_subgraphs(g, k=4, teleport=0.15)
        params = init_gcn_params(g.feature_dim, 3, n_layers=1, seed=0)
        views = encoded_views(subs)
        original, positive, negative = self.encode(
            params, subs, views, *mirror_views(self.identity_adjacencies(subs)))
        assert np.array_equal(original, positive)
        assert np.array_equal(original, negative)

    def test_negative_perturbation_leaves_others(self, rng):
        g = random_graph(rng, n=12)
        subs = sample_all_subgraphs(g, k=4, teleport=0.15)
        params = init_gcn_params(g.feature_dim, 3, n_layers=1, seed=0)
        views = encoded_views(subs)
        adjacencies = self.identity_adjacencies(subs)
        perturbed = adjacencies.copy()
        perturbed[1, 0, 0, 1] = perturbed[1, 0, 1, 0] = 1.0 - perturbed[1, 0, 0, 1]
        a = self.encode(params, subs, views, *mirror_views(adjacencies))
        b = self.encode(params, subs, views, *mirror_views(perturbed))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[2][4:], b[2][4:])    # other subgraphs' negatives

    def test_shapes(self, rng):
        g = random_graph(rng, n=10)
        subs = sample_all_subgraphs(g, k=5, teleport=0.15)
        params = init_gcn_params(g.feature_dim, 7, n_layers=1, seed=3)
        sem = np.zeros(10, dtype=np.int64)
        views = encoded_views(subs)
        pos, neg = mirror_views(mirror_search(subs, sem).adjacencies(0.5))
        for emb in self.encode(params, subs, views, pos, neg):
            assert emb.shape == (10 * 5, 7)


class TestReadout:
    """The trainer's summary: mean over each k-row block of the embeddings."""

    @staticmethod
    def readout(rows, k):
        rows = np.asarray(rows, dtype=float)
        return ad.mean_axis(ad.reshape(ad.Tensor(rows), (len(rows) // k, k, rows.shape[1])), 1)

    def test_mean_rows(self):
        out = self.readout([[1.0, 2.0], [3.0, 4.0]], k=2)
        assert np.allclose(out.value, [[2.0, 3.0]])

    def test_single_row(self):
        assert np.allclose(self.readout([[5.0, 6.0]], k=1).value, [[5.0, 6.0]])

    def test_constant_rows(self):
        rows = np.tile([1.5, -2.0], (4, 1))
        assert np.allclose(self.readout(rows, k=2).value, [[1.5, -2.0], [1.5, -2.0]])


class TestShuffleNegatives:
    """Negative summaries are reordered by ``derangement``."""

    def test_two_elements_swap(self):
        assert derangement(2, np.random.default_rng(0)).tolist() == [1, 0]

    def test_derangement_property(self):
        for seed in range(40):
            perm = derangement(7, np.random.default_rng(seed))
            assert sorted(perm.tolist()) == list(range(7))
            assert (perm != np.arange(7)).all()

    def test_deterministic(self):
        a = derangement(10, np.random.default_rng(5))
        b = derangement(10, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_too_short(self):
        for n in (0, 1):
            with pytest.raises(SizeError):
                derangement(n, np.random.default_rng(0))

    def test_derangement_uniform_permutation_repair(self, rng):
        for n in (2, 3, 5, 11):
            for _ in range(20):
                perm = derangement(n, rng)
                assert sorted(perm.tolist()) == list(range(n))
                assert (perm != np.arange(n)).all()


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        params = init_gcn_params(5, 4, n_layers=2, seed=11)
        config = TrainConfig(seed=11, embedding_dim=4, gcn_layers=2)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(params, config, path)
        back, back_config = load_checkpoint(path)
        assert back.n_layers == 2
        assert back_config == config
        for w1, w2 in zip(params.weights, back.weights):
            assert np.array_equal(w1.value, w2.value)
        for s1, s2 in zip(params.slopes, back.slopes):
            assert np.array_equal(s1.value, s2.value)

    def test_version_checked(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        params = {"format_version": 1, "n_layers": 0, "weights": [], "slopes": []}
        for version in (99, None):
            payload = {"config": {}, "params": params}
            if version is not None:
                payload["format_version"] = version
            path.write_text(json.dumps(payload))
            with pytest.raises(ConfigError, match="format version"):
                load_checkpoint(path)

    def test_loads_earlier_format_and_rewrites_it_byte_for_byte(self, tmp_path):
        # The layout every release so far has written, nested params version included.
        text = ('{"format_version": 1, "config": {"seed": 3, "embedding_dim": 2}, '
                '"params": {"format_version": 1, "n_layers": 1, '
                '"weights": [[[0.5, -0.25], [0.125, 1.0], [-2.0, 0.0]]], "slopes": [0.25]}}')
        path = tmp_path / "checkpoint.json"
        path.write_text(text)
        params, config = load_checkpoint(path)
        assert (config.seed, config.embedding_dim) == (3, 2)
        assert params.n_layers == 1 and params.out_dim == 2
        assert np.array_equal(params.weights[0].value,
                              [[0.5, -0.25], [0.125, 1.0], [-2.0, 0.0]])
        assert params.slopes[0].value == 0.25
        save_checkpoint(params, config, path)
        written = json.loads(path.read_text())
        expected = json.loads(text)
        expected["config"] = config.to_dict()
        assert path.read_text() == json.dumps(expected)
        assert list(written) == ["format_version", "config", "params"]
