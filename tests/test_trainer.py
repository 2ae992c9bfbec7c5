import dataclasses
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acgcl.augment import MirrorSearch, mirror_search, quantile, semantic_assignment
from acgcl.config import TrainConfig
from acgcl.curriculum import AclThresholds, open_window, pacing_difficulty, weights_for_mode
from acgcl.encoder import gcn_forward_batched, init_gcn_params
from acgcl.errors import ContractError, TrainingDiverged
from acgcl.graph import (INPUTS_FILE, Graph, SbmConfig, Splits, generate_sbm, make_splits,
                         with_splits)
from acgcl.sampler import sample_all_subgraphs
from acgcl.losses import balance_loss, inter_graph_losses_grouped, weighted_total_loss
from acgcl import autodiff as ad, trainer, util
from acgcl.util import ROLE_BALANCE, ROLE_BATCH, ROLE_SHUFFLE, rng_for
from acgcl.trainer import (OptimizerState, adam_step, compute_center_embeddings,
                           curriculum_inputs, difficulty_curve, evaluate_probe,
                           fit_probe, init_optimizer, load_checkpoint,
                           run_inner_step, save_checkpoint, train, write_report)
from conftest import refuse_writes
from oracles import (gradient_descent_probe, matmul, one_pass_difficulty_curve,
                     per_pair_mirror_augment, prelu, row_sq_norm, take_rows_dense)
from sbm_experiment import experiment_config, experiment_graph


def small_graph(seed=0, n_per_block=25, p_intra=0.25, p_inter=0.02, noise=0.5):
    g = generate_sbm(SbmConfig(block_sizes=(n_per_block, n_per_block), p_intra=p_intra,
                               p_inter=p_inter, feature_dim=4, feature_noise=noise), seed=seed)
    return with_splits(g, make_splits(g, seed, TrainConfig.split_train, TrainConfig.split_val))


def small_config(seed=0, **kw):
    base = dict(seed=seed, subgraph_size=5, embedding_dim=8, epochs=3, patience=10,
                inner_steps=3, batch_size=20, balance_max_points=32, sinkhorn_iters=40,
                acl_mode="soft_acl")
    base.update(kw)
    return TrainConfig(**base)


class TestAdam:
    def test_first_step_hand_computed(self):
        params = [np.zeros(1)]
        grads = [np.ones(1)]
        state = init_optimizer(params)
        new, state = adam_step(params, grads, state, lr=0.001)
        assert new[0][0] == pytest.approx(-0.001, rel=1e-6)
        assert state.step == 1

    def test_zero_grad_from_rest_keeps_params(self):
        params = [np.array([1.5])]
        new, state = adam_step(params, [np.zeros(1)], init_optimizer(params), lr=0.01)
        assert new[0][0] == pytest.approx(1.5, abs=0.0)

    def test_zero_grad_decays_moments(self):
        state = OptimizerState(first_moment=[np.array([0.5])], second_moment=[np.array([0.2])],
                               step=3)
        _, state2 = adam_step([np.array([1.5])], [np.zeros(1)], state, lr=0.01)
        assert state2.first_moment[0][0] == pytest.approx(0.45)
        assert state2.second_moment[0][0] == pytest.approx(0.2 * 0.999)

    def test_deterministic(self, rng):
        params = [rng.standard_normal((3, 2))]
        grads = [rng.standard_normal((3, 2))]
        a = adam_step(params, grads, init_optimizer(params), 0.01)[0][0]
        b = adam_step(params, grads, init_optimizer(params), 0.01)[0][0]
        assert np.array_equal(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            adam_step([np.ones(2)], [np.ones(3)], init_optimizer([np.ones(2)]), 0.1)


class TestProbe:
    def test_separable_clusters(self, rng):
        n = 60
        labels = np.repeat([0, 1], n // 2)
        emb = np.where(labels[:, None] == 0, -3.0, 3.0) + 0.1 * rng.standard_normal((n, 2))
        splits = Splits(train=np.arange(0, n, 2), val=np.arange(1, n, 4),
                        test=np.arange(3, n, 4))
        assert evaluate_probe(emb, labels, splits, 1e-4)["test"] == 1.0

    def test_random_labels_chance_level(self, rng):
        n = 600
        emb = rng.standard_normal((n, 4))
        labels = rng.integers(0, 2, size=n)
        idx = rng.permutation(n)
        splits = Splits(train=idx[:300], val=idx[300:400], test=idx[400:])
        acc = evaluate_probe(emb, labels, splits, 1e-4)["test"]
        assert abs(acc - 0.5) < 0.1

    def test_constant_embeddings_majority_class(self):
        labels = np.array([0, 0, 0, 1, 0, 0, 1, 1, 0, 0])
        emb = np.ones((10, 3))
        splits = Splits(train=np.arange(0, 6), val=np.arange(6, 8), test=np.arange(8, 10))
        # train majority is class 0; test split is [0, 0] -> accuracy 1.0
        assert evaluate_probe(emb, labels, splits, 1e-4)["test"] == 1.0

    def test_requires_labels(self):
        splits = Splits(train=np.array([0]), val=np.array([1]), test=np.array([1]))
        with pytest.raises(ContractError):
            evaluate_probe(np.ones((2, 2)), None, splits, 1e-4)


def standardized_problem(seed, n, dim, n_classes, repeated, every_class=False):
    """Features standardized as ``evaluate_probe`` does, optionally with
    every row three times, and labels drawn from ``n_classes`` (with
    ``every_class``, each class on at least one row, n >= n_classes)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim)) * rng.choice([1e-3, 1.0, 100.0])
    if repeated:
        x = np.repeat(x, 3, axis=0)[:n]
    sd = x.std(axis=0)
    z = (x - x.mean(axis=0)) / np.where(sd > 1e-8, sd, 1.0)
    labels = (rng.permutation(np.arange(n) % n_classes) if every_class
              else rng.integers(0, n_classes, size=n))
    return z, labels


class TestProbeFit:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 60), st.integers(1, 10),
           st.integers(1, 6), st.sampled_from([1e-6, 1e-4, 1e-2, 1.0]), st.booleans())
    def test_reaches_the_tolerance_within_the_step_cap(self, seed, n, dim, n_classes, l2,
                                                      repeated):
        z, labels = standardized_problem(seed, n, dim, n_classes, repeated)
        _, _, grad_norm, steps = fit_probe(z, labels, n_classes, l2)
        assert grad_norm <= trainer.PROBE_TOL
        assert steps <= trainer.PROBE_MAX_STEPS

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(5, 40), st.integers(1, 6),
           st.integers(2, 4), st.sampled_from([0.1, 0.3, 1.0]))
    def test_strongly_regularised_fit_matches_long_gradient_descent(self, seed, n, dim,
                                                                     n_classes, l2):
        z, labels = standardized_problem(seed, n, dim, n_classes, repeated=False,
                                         every_class=True)
        weight, bias, _, _ = fit_probe(z, labels, n_classes, l2)
        ref_weight, ref_bias = gradient_descent_probe(z, labels, n_classes, 20_000, l2, 0.5)
        np.testing.assert_allclose(weight, ref_weight, rtol=0, atol=1e-6)
        # a constant shift of every bias changes nothing: compare centred biases
        np.testing.assert_allclose(bias - bias.mean(), ref_bias - ref_bias.mean(),
                                   rtol=0, atol=1e-6)

    def test_classes_without_a_train_node(self, rng):
        """Labels 0, 2 and 4 leave classes 1 and 3 with no train node: their
        biases head to -inf, the fit still reaches the tolerance, and the
        probe never predicts them."""
        n = 150
        labels = np.repeat([0, 2, 4], n // 3)
        emb = labels[:, None] + 0.8 * rng.standard_normal((n, 3))
        idx = rng.permutation(n)
        splits = Splits(train=idx[:60], val=idx[60:100], test=idx[100:])
        z = (emb - emb[splits.train].mean(axis=0)) / emb[splits.train].std(axis=0)
        weight, bias, grad_norm, steps = fit_probe(z[splits.train], labels[splits.train], 5,
                                                   1e-4)
        assert grad_norm <= trainer.PROBE_TOL and steps <= trainer.PROBE_MAX_STEPS
        assert set(np.unique(np.argmax(z @ weight + bias, axis=1))) <= {0, 2, 4}
        assert evaluate_probe(emb, labels, splits, 1e-4)["grad_norm"] == grad_norm

    def test_step_cap_reports_an_unconverged_fit(self, rng, monkeypatch):
        monkeypatch.setattr(trainer, "PROBE_MAX_STEPS", 1)
        n = 90
        labels = np.repeat([0, 1, 2], n // 3)
        emb = labels[:, None] + rng.standard_normal((n, 4))
        splits = Splits(train=np.arange(0, n, 2), val=np.arange(1, n, 4),
                        test=np.arange(3, n, 4))
        probe = evaluate_probe(emb, labels, splits, 1e-4)
        assert probe["steps"] == 1
        assert probe["grad_norm"] > trainer.PROBE_TOL

    def test_epoch_records_carry_the_fit(self):
        """Each epoch record reports the probe fit's gradient norm and step
        count; an unlabeled graph, which has no probe, reports None."""
        g = small_graph(seed=4)
        _, labeled = train(g, small_config(seed=4, epochs=2))
        assert all(0 < r["probe_steps"] <= trainer.PROBE_MAX_STEPS and
                   r["probe_grad_norm"] <= trainer.PROBE_TOL for r in labeled)
        unlabeled = Graph(g.features, g.adjacency, labels=None, splits=None)
        _, report = train(unlabeled, small_config(seed=4, epochs=2, semantics="degree-bucket"))
        assert all(r["probe_steps"] is None and r["probe_grad_norm"] is None for r in report)


class TestTrainLoop:
    def test_graph_with_self_loops_samples_and_trains(self):
        """A ``Graph`` allows self loops: every node of a graph that has one
        samples a subgraph, and training runs to the end."""
        g = small_graph(seed=2)
        n = g.n_nodes
        looped = Graph(g.features, np.r_[g.adjacency, np.arange(n) * (n + 1)], g.labels,
                       g.splits)
        assert looped.adjacency.size == g.adjacency.size + n
        subgraphs = sample_all_subgraphs(looped, k=5, teleport=0.15)
        assert np.array_equal(subgraphs.parent_indices[:, 0], np.arange(n))
        _, report = train(looped, small_config(seed=2, epochs=2))
        assert len(report) == 2 and all(np.isfinite(r["mean_loss"]) for r in report)

    def test_patience_zero_returns_empty_report(self):
        g = small_graph()
        params, report = train(g, small_config(patience=0))
        assert report == []
        assert params.n_layers == 1

    def test_report_columns_monotone_theta_gamma(self):
        g = small_graph()
        cfg = small_config(epochs=5, theta0=10.0, max_difficulty=60.0)
        _, report = train(g, cfg)
        thetas = [r["theta"] for r in report]
        gammas = [r["gamma"] for r in report]
        assert all(a <= b + 1e-12 for a, b in zip(thetas, thetas[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(gammas, gammas[1:]))

    def test_loss_decreases_under_uniform_weights(self):
        # optimization sanity at constant difficulty (theta0 = max): the data
        # distribution stays fixed, so the mean loss must come down
        deltas = []
        for seed in (0, 1):
            g = small_graph(seed=seed, n_per_block=50, p_intra=0.12)
            cfg = small_config(seed=seed, acl_mode="uniform", epochs=10, inner_steps=5,
                               batch_size=40, subgraph_size=6,
                               theta0=50.0, max_difficulty=50.0)
            _, report = train(g, cfg)
            deltas.append(report[-1]["mean_loss"] - report[0]["mean_loss"])
        assert np.mean(deltas) < 0

    def test_bit_identical_reruns(self):
        g = small_graph(seed=3)
        cfg = small_config(seed=3, epochs=2)
        _, r1 = train(g, cfg)
        _, r2 = train(g, cfg)
        assert [r["mean_loss"] for r in r1] == [r["mean_loss"] for r in r2]
        assert [r["val_accuracy"] for r in r1] == [r["val_accuracy"] for r in r2]

    def test_mirror_search_once_per_run(self, monkeypatch):
        import acgcl.trainer as trainer
        calls = []
        search = trainer.mirror_search

        def counting(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(trainer, "mirror_search", counting)
        _, report = train(small_graph(), small_config(epochs=3))
        assert len(report) == 3
        assert len(calls) == 1

    def test_epoch_match_rates_count_oracle_replacements(self, tmp_path):
        g = small_graph()
        cfg = small_config(epochs=3)
        path = tmp_path / "metrics.jsonl"
        train(g, cfg, metrics_path=path)
        subs = sample_all_subgraphs(g, cfg.subgraph_size, cfg.teleport)
        sem = semantic_assignment(g, cfg.semantics)
        epochs = [r for r in map(json.loads, path.read_text().splitlines()) if r["kind"] == "epoch"]
        assert len(epochs) == 3
        for record in epochs:
            stats = [per_pair_mirror_augment(s, record["gamma"], sem).stats for s in subs]
            pairs = sum(len(s.pos_replacements) + s.pos_unmatched for s in stats)
            assert record["pos_match_rate"] == sum(len(s.pos_replacements) for s in stats) / pairs
            assert record["neg_match_rate"] == sum(len(s.neg_replacements) for s in stats) / pairs

    def test_epoch_rewrite_fractions_count_oracle_entries(self, tmp_path):
        """``pos_rewrite_frac`` and ``neg_rewrite_frac`` are the share of all
        n * k * k adjacency entries that each mirror view changes."""
        g = small_graph(seed=1)
        cfg = small_config(seed=1, epochs=3, theta0=40.0)
        path = tmp_path / "metrics.jsonl"
        train(g, cfg, metrics_path=path)
        subs = sample_all_subgraphs(g, cfg.subgraph_size, cfg.teleport)
        sem = semantic_assignment(g, cfg.semantics)
        epochs = [r for r in map(json.loads, path.read_text().splitlines()) if r["kind"] == "epoch"]
        for record in epochs:
            mirrors = [per_pair_mirror_augment(s, record["gamma"], sem) for s in subs]
            for key, side in (("pos_rewrite_frac", "positive_adjacency"),
                              ("neg_rewrite_frac", "negative_adjacency")):
                rewritten = sum(np.count_nonzero(getattr(m, side) != s.adjacency)
                                for m, s in zip(mirrors, subs))
                assert record[key] == rewritten / subs.adjacency.size
        assert any(r["pos_rewrite_frac"] > 0 for r in epochs)
        assert any(r["neg_rewrite_frac"] > 0 for r in epochs)

    @pytest.mark.parametrize("acl_mode", ["soft_acl", "hard_acl", "uniform"])
    def test_step_terms_sum_to_the_weighted_loss(self, tmp_path, acl_mode):
        """``intra_term``, ``balance_term`` and ``inter_term`` are the
        weighted loss's three terms: they sum to ``weighted_loss``."""
        path = tmp_path / "metrics.jsonl"
        train(small_graph(seed=5), small_config(seed=5, acl_mode=acl_mode, alpha=0.7, beta=1.3),
              metrics_path=path)
        steps = [r for r in map(json.loads, path.read_text().splitlines()) if r["kind"] == "step"]
        assert len(steps) == 9
        for record in steps:
            total = record["intra_term"] + record["balance_term"] + record["inter_term"]
            assert abs(total - record["weighted_loss"]) <= 1e-12 * abs(record["weighted_loss"])
            assert min(record["intra_term"], record["balance_term"], record["inter_term"]) >= 0

    def test_metrics_jsonl_schema(self, tmp_path):
        g = small_graph()
        path = tmp_path / "metrics.jsonl"
        train(g, small_config(epochs=2), metrics_path=path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = {r["kind"] for r in records}
        assert kinds == {"step", "epoch"}
        step = next(r for r in records if r["kind"] == "step")
        for key in ("epoch", "step", "theta", "gamma", "mean_sample_loss", "weighted_loss",
                    "balance_loss", "active_fraction", "weight_zero_frac",
                    "weight_fractional_frac", "weight_one_frac", "sinkhorn_iters",
                    "sinkhorn_marginal_err", "sinkhorn_converged", "intra_term",
                    "balance_term", "inter_term"):
            assert key in step
        epoch = next(r for r in records if r["kind"] == "epoch")
        for key in ("epoch", "theta", "gamma", "mean_loss", "val_accuracy", "patience_left",
                    "pos_rewrite_frac", "neg_rewrite_frac"):
            assert key in epoch

    def test_step_records_report_sinkhorn_convergence(self, tmp_path, monkeypatch):
        """Each step records the larger iteration count and the larger
        marginal error of its two balance solves, and whether both
        converged. A loose tolerance lets some solves stop early."""
        import acgcl.trainer
        solved = []

        def recording(*args):
            out = balance_loss(*args)
            solved.append(list(args[-1]))
            return out

        monkeypatch.setattr(acgcl.trainer, "balance_loss", recording)
        monkeypatch.setattr(acgcl.trainer, "SINKHORN_TOL", 1e-2)
        path = tmp_path / "metrics.jsonl"
        train(small_graph(), small_config(epochs=2, sinkhorn_iters=60), metrics_path=path)
        steps = [r for r in map(json.loads, path.read_text().splitlines())
                 if r["kind"] == "step"]
        assert len(steps) == len(solved) == 6
        for record, pair in zip(steps, solved):
            assert len(pair) == 2
            assert record["sinkhorn_iters"] == max(s.iters for s in pair)
            assert record["sinkhorn_marginal_err"] == max(s.marginal_err for s in pair)
            assert record["sinkhorn_converged"] is all(s.converged for s in pair)
        # the solves differ, and some stop early while others use the budget
        assert any(a.iters != b.iters for a, b in solved)
        assert {s.iters for pair in solved for s in pair} > {10, 60}
        assert {r["sinkhorn_converged"] for r in steps} == {True, False}

    def test_default_solves_converge_within_the_budget(self, tmp_path):
        """On a graph shaped like the benchmark's training graph, every
        balance solve at the default budget and subsample size reaches
        losses.SINKHORN_TOL before sinkhorn_iters."""
        g = generate_sbm(SbmConfig(block_sizes=(100, 100, 100), p_intra=0.15, p_inter=0.005,
                                   feature_dim=16, feature_noise=1.0), seed=7)
        g = with_splits(g, make_splits(g, 7, TrainConfig.split_train, TrainConfig.split_val))
        path = tmp_path / "metrics.jsonl"
        train(g, TrainConfig(seed=7, epochs=1, inner_steps=2), metrics_path=path)
        steps = [r for r in map(json.loads, path.read_text().splitlines())
                 if r["kind"] == "step"]
        assert len(steps) == 2
        for record in steps:
            assert record["sinkhorn_converged"] is True
            assert record["sinkhorn_iters"] < TrainConfig.sinkhorn_iters

    def test_hard_acl_active_fraction_non_decreasing_within_epoch(self, tmp_path):
        g = small_graph(seed=1, n_per_block=40)
        path = tmp_path / "metrics.jsonl"
        cfg = small_config(seed=1, acl_mode="hard_acl", epochs=3, inner_steps=6,
                           batch_size=80, eta1=1.1, eta2=0.9)
        train(g, cfg, metrics_path=path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        by_epoch = {}
        for r in records:
            if r["kind"] == "step":
                by_epoch.setdefault(r["epoch"], []).append(r["active_fraction"])
        for fracs in by_epoch.values():
            assert all(a <= b + 0.1 for a, b in zip(fracs, fracs[1:]))

    def test_divergence_aborts_with_diagnostics(self):
        g = small_graph()
        cfg = small_config(batch_size=10)
        subs = sample_all_subgraphs(g, cfg.subgraph_size, cfg.teleport)
        sem = semantic_assignment(g, "label")
        params = init_gcn_params(g.feature_dim, cfg.embedding_dim, 1, 0)
        params.weights[0].value = np.full_like(params.weights[0].value, np.nan)
        mirrors = mirror_search(subs, sem).adjacencies(0.5)
        opt = init_optimizer([t.value for t in params.all_parameters()])
        with pytest.raises(TrainingDiverged, match="batch"):
            run_inner_step(params, opt, subs, mirrors, 0, 0, cfg, None)

    def test_steps_replay_a_train_run(self, tmp_path):
        """A step is a function of (epoch, step) and the carried params, Adam
        state and window: steps 0-2 of epoch 0, run from fresh params,
        reproduce every step record of ``train`` and its final weights."""
        g = small_graph(seed=4)
        cfg = small_config(seed=4, epochs=1, inner_steps=3)
        path = tmp_path / "metrics.jsonl"
        trained, _ = train(g, cfg, metrics_path=path)
        records = [r for r in map(json.loads, path.read_text().splitlines())
                   if r["kind"] == "step"]
        assert len(records) == 3 and records[0]["lambda1"] is not None

        subs, search = curriculum_inputs(g, cfg)
        gamma = quantile(search.distances, pacing_difficulty(0, cfg))
        mirrors = search.adjacencies(gamma)
        params = init_gcn_params(g.feature_dim, cfg.embedding_dim, cfg.gcn_layers, cfg.seed)
        opt = init_optimizer([t.value for t in params.all_parameters()])
        window = AclThresholds(lambda1=1e9, lambda2=1e-9)    # step 0 ignores it
        for step, record in enumerate(records):
            fields, opt, window = run_inner_step(params, opt, subs, mirrors, 0, step, cfg, window)
            assert {"kind": "step", "epoch": 0, "step": step, "theta": record["theta"],
                    "gamma": gamma, **fields} == record
        for replayed, reference in zip(params.all_parameters(), trained.all_parameters()):
            assert np.array_equal(replayed.value, reference.value)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_zero_lowers_its_batch_loss_and_moves_every_parameter(seed):
    """Step 0 of the criterion 7-9 fixture's config descends: recomputed
    after the update with the same ids, random streams and curriculum
    weights, its batch's weighted loss is lower, and every parameter entry
    has moved (seed 0 went from 182.913 to 182.671)."""
    graph, config = experiment_graph(seed), experiment_config(seed)
    subgraphs, search = curriculum_inputs(graph, config)
    mirrors = search.adjacencies(quantile(search.distances, pacing_difficulty(0, config)))
    params = init_gcn_params(graph.feature_dim, config.embedding_dim, config.gcn_layers,
                             config.seed)
    start = [t.value for t in params.all_parameters()]

    def batch_losses():
        batch_rng, *rngs = (rng_for(config.seed, role, 0, 0)
                            for role in (ROLE_BATCH, ROLE_SHUFFLE, ROLE_BALANCE))
        n = len(subgraphs)
        ids = np.sort(batch_rng.choice(n, size=min(config.batch_size, n), replace=False))
        return trainer._batch_losses(params, subgraphs, mirrors, ids, *rngs, config)[0]

    losses = batch_losses()
    window = open_window(losses.value, config.acl_mode)
    w = weights_for_mode(config.acl_mode if window else "uniform", losses.value, window)
    before = float(weighted_total_loss(losses, w).value)
    fields, _, _ = run_inner_step(params, init_optimizer(start), subgraphs, mirrors, 0, 0,
                                  config, None)
    assert fields["weighted_loss"] == before       # the step's own batch and weights
    after = float(weighted_total_loss(batch_losses(), w).value)
    assert after < before, (before, after)
    for tensor, value in zip(params.all_parameters(), start):
        assert (tensor.value != value).all()


def bench_step_peak(**config) -> int:
    """The traced peak, in bytes above its start, of step 0 on a graph shaped
    like the benchmark's train graph (3 x 100 nodes, 16-d features) at
    seed 1, with TrainConfig's defaults but ``config``."""
    g = generate_sbm(SbmConfig(block_sizes=(100, 100, 100), p_intra=0.15, p_inter=0.005,
                               feature_dim=16, feature_noise=1.0), seed=1)
    cfg = TrainConfig(seed=1, **config)
    subs, search = curriculum_inputs(g, cfg)
    mirrors = search.adjacencies(quantile(search.distances, cfg.theta0))
    params = init_gcn_params(g.feature_dim, cfg.embedding_dim, cfg.gcn_layers, cfg.seed)
    opt = init_optimizer([t.value for t in params.all_parameters()])
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        run_inner_step(params, opt, subs, mirrors, 0, 0, cfg, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


TRAIN_MIRROR_STEP = dict(subgraph_size=30, balance_max_points=64, sinkhorn_iters=50)


class TestStepMemory:
    def test_step_peak_stays_under_eight_and_a_half_batch_row_arrays(self):
        """One step at k = 20, d = 64 and a batch of 64 subgraphs keeps its
        traced peak under 8.5 arrays of the batch's (b * k, d) float64 rows:
        about 4.58 of them with a sweep that drops each GCN layer's output
        and forms again only the rows a reader needs, 6.58 when the tape
        held the three outputs (12.1 when the tape kept x @ W and the last
        contributions, 14.2 before that, when gathers and ``row_sq_dist``
        held full arrays)."""
        g = small_graph(seed=3, n_per_block=40)
        cfg = small_config(seed=3, subgraph_size=20, embedding_dim=64, batch_size=64)
        subs, search = curriculum_inputs(g, cfg)
        mirrors = search.adjacencies(quantile(search.distances, 30.0))
        params = init_gcn_params(g.feature_dim, cfg.embedding_dim, cfg.gcn_layers, cfg.seed)
        opt = init_optimizer([t.value for t in params.all_parameters()])
        tracemalloc.start()
        try:
            run_inner_step(params, opt, subs, mirrors, 0, 0, cfg, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8.5 * (64 * 20) * 64 * 8


    def test_the_sweep_drops_the_layer_outputs(self):
        """The backward sweep drops each GCN layer's output and forms again
        only the rows a closure reads, each closure its own, so a step holds
        no (b * k, d) output of the three views through it. Peaks above the
        step's start, in (b * k, d) float64 row arrays of its batch:

        - the ``train-mirror``-shaped step (k 30, a batch of all 300
          subgraphs), 4.70: 8.3 before row gradients stayed sparse, the
          sweep freed what it had passed on and a balance solve kept only
          the iterations it ran, 6.5 with the outputs held;
        - the default-config step at k = 20, 5.79 (7.40 with the outputs
          held);
        - a batch of 64 at k = 20, 11.15 (11.91 while a layer kept the last
          rows it formed for a second reader);
        - two layers at k = 20, 12.73, in the forward pass (the sweep's own
          peak is 12.12).

        At full batch the peak lies in the third view's forward pass."""
        report = []
        for name, config, bound in (("train-mirror", TRAIN_MIRROR_STEP, 5.5),
                                    ("default k=20", {}, 6.6),
                                    ("batch 64", dict(batch_size=64), 11.5),
                                    ("2 layers", dict(gcn_layers=2), 13.5)):
            peak = bench_step_peak(**config)
            cfg = TrainConfig(**config)
            rows = min(cfg.batch_size, 300) * cfg.subgraph_size * 64 * 8
            report.append(f"{name} {peak / rows:.2f} row arrays ({peak / 2**20:.1f} MiB)")
            assert peak < bound * rows, report[-1]
        print(f"\nREPORT step-memory: {'; '.join(report)}")


class TestTwoLayerStep:
    def test_matches_a_dense_reference_step(self, monkeypatch):
        """One step at gcn_layers = 2 on a graph shaped like the benchmark's
        training graph. Layer 2's dx rows are the only route to W0, and some
        of its upstream rows are zero, so its sparse backward pass runs. The
        first Adam moments, (1 - beta1) times the gradients, match those of
        the same step on the dense two-node layer, chain and gather of the
        oracles within 1e-12 relative, for both weights and both slopes."""
        g = generate_sbm(SbmConfig(block_sizes=(100, 100, 100), p_intra=0.15, p_inter=0.005,
                                   feature_dim=16, feature_noise=1.0), seed=7)
        cfg = TrainConfig(seed=7, subgraph_size=20, gcn_layers=2)
        subs, search = curriculum_inputs(g, cfg)
        mirrors = search.adjacencies(quantile(search.distances, cfg.theta0))

        def first_moments():
            params = init_gcn_params(g.feature_dim, cfg.embedding_dim, 2, cfg.seed)
            opt = init_optimizer([t.value for t in params.all_parameters()])
            _, opt, _ = run_inner_step(params, opt, subs, mirrors, 0, 0, cfg, None)
            return opt.first_moment

        live_rows = []
        linear_prelu = ad.linear_prelu

        def recording_layer(x, w, s):
            node = linear_prelu(x, w, s)
            if x.requires_grad:             # layer 2: its input is An @ H
                backward_fn = node._backward_fn
                node._backward_fn = lambda g: (live_rows.append(g.any(axis=1)), backward_fn(g))[1]
            return node

        monkeypatch.setattr(ad, "linear_prelu", recording_layer)
        got = first_moments()
        monkeypatch.setattr(ad, "linear_prelu", lambda x, w, s: prelu(matmul(x, w), s))
        monkeypatch.setattr(ad, "row_sq_dist", lambda a, b: row_sq_norm(ad.sub(a, b)))
        monkeypatch.setattr(ad, "take_rows", take_rows_dense)
        want = first_moments()

        assert len(live_rows) == 3                              # the three views
        assert not all(rows.all() for rows in live_rows)
        assert len(got) == len(want) == 4                       # W0, W1, slope 0, slope 1
        for got_m, want_m in zip(got, want):
            assert np.abs(want_m).max() > 0
            assert np.abs(got_m - want_m).max() <= 1e-12 * np.abs(want_m).max()


class TestDegeneratePipeline:
    def test_gamma_zero_uniform_reduces_to_intra_learning(self):
        g = small_graph(seed=2)
        cfg = small_config(seed=2, acl_mode="uniform", xi=1.0, alpha=1.0)
        subs = sample_all_subgraphs(g, cfg.subgraph_size, cfg.teleport)
        sem = semantic_assignment(g, "label")
        identity = mirror_search(subs, sem).adjacencies(0.0)
        params = init_gcn_params(g.feature_dim, cfg.embedding_dim, 1, 2)
        opt = init_optimizer([t.value for t in params.all_parameters()])
        result, _, _ = run_inner_step(params, opt, subs, identity, 0, 0, cfg, None)
        # identical mirrors: inter-graph loss is exactly the margin per sample
        assert result["mean_inter"] == pytest.approx(cfg.xi, abs=1e-12)
        assert result["balance_loss"] < 0.25   # transport between identical sets: bias only


class TestDifficultyCurve:
    def test_matches_per_theta_oracle_loop(self):
        g = small_graph(seed=3)
        subs = sample_all_subgraphs(g, 6, 0.15)
        sem = semantic_assignment(g, "label")
        search = mirror_search(subs, sem)
        params = init_gcn_params(g.feature_dim, 8, 2, 3)
        grid = [0.0, 15.0, 30.0, 50.0, 80.0, 100.0]
        curve = difficulty_curve(params, subs, search, grid, xi=0.5)

        feats = subs.node_features[subs.parent_indices].reshape(len(subs) * 6, -1)
        h = gcn_forward_batched(params, subs.adjacency, feats, centers_only=False)
        for theta, (got_theta, mean, std) in zip(grid, curve):
            gamma = quantile(search.distances, theta)
            mirrors = [per_pair_mirror_augment(s, gamma, sem) for s in subs]
            h_pos, h_neg = (gcn_forward_batched(
                params, np.stack([getattr(m, side) for m in mirrors]),
                feats, centers_only=False) for side in ("positive_adjacency", "negative_adjacency"))
            losses = inter_graph_losses_grouped(h, h_pos, h_neg, 0.5, 6).value
            assert (got_theta, mean, std) == (theta, float(losses.mean()), float(losses.std()))

    def test_blocks_match_one_pass(self):
        g = small_graph(seed=3, n_per_block=150)    # 300 subgraphs: two full blocks and a partial
        subs = sample_all_subgraphs(g, 6, 0.15)
        assert len(subs) > 2 * trainer.EMBED_BLOCK and len(subs) % trainer.EMBED_BLOCK
        search = mirror_search(subs, semantic_assignment(g, "label"))
        params = init_gcn_params(g.feature_dim, 8, 2, 3)
        grid = [0.0, 10.0, 30.0, 100.0]
        assert difficulty_curve(params, subs, search, grid, 0.5) == \
            one_pass_difficulty_curve(params, subs, search, grid, 0.5)


class TestCenterEmbeddings:
    def test_center_embeddings_across_blocks_match_one_batch(self):
        g = small_graph(n_per_block=150)     # 300 subgraphs: a full and a partial block
        cfg = small_config()
        subs = sample_all_subgraphs(g, cfg.subgraph_size, cfg.teleport)
        params = init_gcn_params(g.feature_dim, cfg.embedding_dim, 2, 0)
        k = cfg.subgraph_size
        ids = np.arange(len(subs))
        feats = subs.node_features[subs.parent_indices][ids].reshape(len(ids) * k, -1)
        h = gcn_forward_batched(params, subs.adjacency[ids], feats, centers_only=False).value
        assert np.array_equal(compute_center_embeddings(params, subs), h[ids * k])


class TestCheckpointRoundTrip:
    def test_checkpoint_round_trip(self, tmp_path):
        g = small_graph()
        cfg = small_config(epochs=1)
        params, _ = train(g, cfg)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(params, cfg, path)
        back_params, back_cfg = load_checkpoint(path)
        assert back_cfg == cfg
        for w1, w2 in zip(params.weights, back_params.weights):
            assert np.array_equal(w1.value, w2.value)


    def test_failed_writes_keep_the_previous_files(self, tmp_path, monkeypatch):
        g = small_graph()
        params, report = train(g, small_config(epochs=1))
        later, later_report = train(g, small_config(epochs=2))
        cfg = small_config(epochs=1)
        save_checkpoint(params, cfg, tmp_path / "checkpoint.json")
        write_report(report, tmp_path / "report.csv")
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}

        def half_then_full_disk(self, text):
            with open(self, "w") as fh:
                fh.write(text[:len(text) // 2])
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_text", half_then_full_disk)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(later, cfg, tmp_path / "checkpoint.json")
        with pytest.raises(OSError, match="no space"):
            write_report(later_report, tmp_path / "report.csv")
        monkeypatch.undo()
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before
        save_checkpoint(later, cfg, tmp_path / "checkpoint.json")
        write_report(later_report, tmp_path / "report.csv")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["checkpoint.json", "report.csv"]
        assert load_checkpoint(tmp_path / "checkpoint.json")[0].weights[0].value.tolist() == \
            later.weights[0].value.tolist()


class TestNoSplitDataset:
    def test_train_derives_splits_deterministically(self):
        g = generate_sbm(SbmConfig(block_sizes=(25, 25), p_intra=0.25, p_inter=0.02,
                                   feature_dim=4, feature_noise=0.5), seed=6)
        assert g.splits is None
        cfg = small_config(seed=6, epochs=2)
        _, r1 = train(g, cfg)
        _, r2 = train(g, cfg)
        assert [row["val_accuracy"] for row in r1] == [row["val_accuracy"] for row in r2]


class TestUnlabeledTraining:
    def test_degree_bucket_semantics_without_labels(self):
        base = small_graph(seed=4)
        from acgcl.graph import Graph
        unlabeled = Graph(base.features, base.adjacency, labels=None, splits=None)
        cfg = small_config(seed=4, epochs=2, semantics="degree-bucket")
        _, report = train(unlabeled, cfg)
        assert len(report) == 2
        assert all(r["val_accuracy"] is None for r in report)


def without_cache(graph, config):
    """The run set-up computed afresh, with no cache read or written."""
    return curriculum_inputs(graph, dataclasses.replace(config, data_dir=""))


def assert_same_inputs(got, want):
    """Every table of two (subgraphs, search) pairs bit-equal, with equal
    dtypes and contiguity; ``got``'s two objects share one adjacency array
    and the graph's features."""
    (got_subs, got_search), (want_subs, want_search) = got, want
    pairs = [(got_subs.parent_indices, want_subs.parent_indices),
             (got_subs.adjacency, want_subs.adjacency)]
    pairs += [(getattr(got_search, f.name), getattr(want_search, f.name))
              for f in dataclasses.fields(MirrorSearch)]
    for a, b in pairs:
        assert (a.dtype, a.shape, a.flags.c_contiguous) == (b.dtype, b.shape, b.flags.c_contiguous)
        assert np.array_equal(a, b)
    assert got_search.adjacency is got_subs.adjacency
    assert got_subs.node_features is want_subs.node_features


def count_set_up_calls(monkeypatch) -> list[str]:
    """The names of the sampler and search calls ``curriculum_inputs`` makes
    from now on, in order."""
    calls = []
    for name in ("sample_all_subgraphs", "mirror_search"):
        def counted(*args, name=name, fn=getattr(trainer, name)):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(trainer, name, counted)
    return calls


def changed_feature(graph, config, tmp_path, monkeypatch):
    features = graph.features.copy()
    features[7, 2] += 0.25
    return Graph(features, graph.adjacency, graph.labels, graph.splits), config


def changed_edge(graph, config, tmp_path, monkeypatch):
    n, edges = graph.n_nodes, set(graph.adjacency.tolist())
    j = next(j for j in range(1, n) if j not in edges)      # 0 - j is no edge: add it
    keys = np.concatenate([graph.adjacency, [j, j * n]])
    return Graph(graph.features, keys, graph.labels, graph.splits), config


def changed_label(graph, config, tmp_path, monkeypatch):
    labels = graph.labels.copy()
    labels[3] = 1 - labels[3]
    return Graph(graph.features, graph.adjacency, labels, graph.splits), config


def changed_source(graph, config, tmp_path, monkeypatch):
    source = tmp_path / "source" / "util.py"
    source.write_bytes(source.read_bytes().replace(b"#", b"%", 1))
    return graph, config


def changed_numpy(graph, config, tmp_path, monkeypatch):
    monkeypatch.setattr(np, "__version__", np.__version__ + ".post1")
    return graph, config


def changed_threads(graph, config, tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1") + "0")
    return graph, config


def changed_config(**kw):
    def change(graph, config, tmp_path, monkeypatch):
        return graph, dataclasses.replace(config, **kw)
    return change


class TestInputsCache:
    """``curriculum_inputs`` keeps its subgraphs and mirror search in the
    dataset directory's INPUTS_FILE; a call with the same key reads them
    back with the bits a cold call computes, and any change to the key
    recomputes them."""

    @pytest.fixture(autouse=True)
    def source_copy(self, tmp_path, monkeypatch):
        """Point the key's source digest at a copy of the package."""
        copy = tmp_path / "source"
        copy.mkdir()
        for path in util.PACKAGE_DIR.glob("*.py"):
            (copy / path.name).write_bytes(path.read_bytes())
        monkeypatch.setattr(util, "PACKAGE_DIR", copy)

    def test_warm_inputs_equal_cold_inputs(self, tmp_path, monkeypatch):
        graph, config = small_graph(), small_config(data_dir=str(tmp_path))
        cold = curriculum_inputs(graph, config)
        assert (tmp_path / INPUTS_FILE).is_file()
        assert_same_inputs(cold, without_cache(graph, config))
        calls = count_set_up_calls(monkeypatch)
        warm = curriculum_inputs(graph, config)
        assert calls == []
        assert_same_inputs(warm, cold)

    @pytest.mark.parametrize("base, change", [
        ({}, changed_feature),
        ({}, changed_edge),
        ({}, changed_label),
        ({}, changed_config(semantics="degree-bucket")),
        ({"semantics": "degree-bucket"}, changed_config(degree_buckets=2)),
        ({}, changed_config(subgraph_size=6)),
        ({}, changed_config(teleport=0.2)),
        ({}, changed_source),
        ({}, changed_numpy),
        ({}, changed_threads),
    ], ids=["feature", "edge", "label", "semantics", "degree_buckets", "subgraph_size",
            "teleport", "source", "numpy", "threads"])
    def test_a_changed_key_input_recomputes(self, tmp_path, monkeypatch, base, change):
        graph, config = small_graph(), small_config(data_dir=str(tmp_path), **base)
        calls = count_set_up_calls(monkeypatch)
        curriculum_inputs(graph, config)
        curriculum_inputs(graph, config)
        assert calls == ["sample_all_subgraphs", "mirror_search"]
        graph, config = change(graph, config, tmp_path, monkeypatch)
        calls.clear()
        changed = curriculum_inputs(graph, config)
        assert calls == ["sample_all_subgraphs", "mirror_search"]
        assert_same_inputs(changed, without_cache(graph, config))
        calls.clear()
        assert_same_inputs(curriculum_inputs(graph, config), changed)
        assert calls == []

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "mistyped", "reshaped",
                                        "missing", "unknown", "centre", "distances", "ids",
                                        "mirror"])
    def test_unreadable_file_is_a_miss_and_rewritten(self, tmp_path, monkeypatch, damage):
        """A file that does not hold what ``curriculum_inputs`` wrote is a
        miss: ``ids`` gives two slots of an unpadded subgraph one parent,
        so ``distances`` no longer has one entry per pair of distinct ids,
        and ``mirror`` points one finite pair past the k * k positions."""
        graph, config = small_graph(), small_config(data_dir=str(tmp_path))
        cold = curriculum_inputs(graph, config)
        cache = tmp_path / INPUTS_FILE
        with np.load(cache) as stored:
            arrays = dict(stored)
        if damage == "truncated":
            cache.write_bytes(cache.read_bytes()[:cache.stat().st_size // 2])
        elif damage == "garbage":
            cache.write_bytes(b"not a cache" * 100)
        else:
            if damage == "mistyped":
                arrays["argmin"] = arrays["argmin"].astype(np.int64)
            elif damage == "reshaped":
                arrays["best"] = arrays["best"][:, :-1]
            elif damage == "missing":
                del arrays["best"]
            elif damage == "unknown":
                arrays["extra"] = np.zeros(3)
            elif damage == "centre":
                arrays["parent_indices"][0, 0] = 1
            elif damage == "ids":
                ids = arrays["parent_indices"]
                row = next(i for i, row in enumerate(ids) if len(set(row)) == len(row))
                ids[row, 1] = ids[row, 2]
            elif damage == "mirror":
                p, i, q = np.argwhere(np.isfinite(arrays["best"]))[0]
                arrays["argmin"][p, i, q] = config.subgraph_size ** 2
            else:
                arrays["distances"] = arrays["distances"][:-1]
            with open(cache, "wb") as out:
                np.savez(out, **arrays)
        calls = count_set_up_calls(monkeypatch)
        assert_same_inputs(curriculum_inputs(graph, config), cold)
        assert calls == ["sample_all_subgraphs", "mirror_search"]
        calls.clear()
        assert_same_inputs(curriculum_inputs(graph, config), cold)
        assert calls == []

    def test_read_only_directory_computes_and_writes_nothing(self, tmp_path, monkeypatch):
        graph, config = small_graph(), small_config(data_dir=str(tmp_path / "data"))
        (tmp_path / "data").mkdir()
        want = without_cache(graph, config)
        refuse_writes(monkeypatch)
        calls = count_set_up_calls(monkeypatch)
        for _ in range(2):
            assert_same_inputs(curriculum_inputs(graph, config), want)
        assert calls == ["sample_all_subgraphs", "mirror_search"] * 2
        assert list((tmp_path / "data").iterdir()) == []

    def test_empty_data_dir_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        graph = small_graph()
        _, report = train(graph, small_config(epochs=1))
        assert len(report) == 1
        assert list(tmp_path.iterdir()) == [tmp_path / "source"]
