"""The desk-scale experiment of acceptance criteria 7-9: a 3-block SBM with
n=300, 16-dim features and embeddings, K=10, and feature noise calibrated so
that the raw-feature probe lands in [0.65, 0.80].

``seed_run`` is one seed of it. It lives outside the test modules so that
the worker processes of ``tests/test_acceptance.py``'s ``sbm_runs`` pool can
import it by name, without pytest or a ``conftest``.
"""

import warnings

from acgcl.config import TrainConfig
from acgcl.encoder import init_gcn_params
from acgcl.graph import SbmConfig, generate_sbm, make_splits, with_splits
from acgcl.trainer import (curriculum_inputs, difficulty_curve, evaluate_probe, probe_accuracy,
                           train)
from oracles import probe_baselines, spearman

SBM = SbmConfig(block_sizes=(100, 100, 100), p_intra=0.10, p_inter=0.002,
                feature_dim=16, feature_noise=0.55)
THETA_GRID = [10.0, 20.0, 30.0, 40.0, 50.0]


def experiment_graph(seed: int):
    g = generate_sbm(SBM, seed=seed)
    return with_splits(g, make_splits(g, seed, TrainConfig.split_train, TrainConfig.split_val))


def experiment_config(seed: int, mode: str = "soft_acl", theta0: float = 15.0) -> TrainConfig:
    return TrainConfig(seed=seed, subgraph_size=10, embedding_dim=16, epochs=30,
                       patience=30, inner_steps=10, batch_size=500, acl_mode=mode,
                       theta0=theta0, balance_max_points=128, sinkhorn_iters=60)


def seed_run(seed: int) -> dict:
    """Seed ``seed`` of the experiment, in plain floats and lists: the test
    accuracies of the raw features (``"raw"``), of ``soft_acl`` and
    ``uniform`` training on one shared set-up and of the ``probe_baselines``;
    the trained ``soft_acl`` encoder's difficulty curve over THETA_GRID
    (``"curve"``, the mean inter-graph loss at each theta) and its Spearman
    correlation with theta (``"rho"``); and the curve of the seeded untrained
    encoder (``"untrained_curve"``). A numpy ``RuntimeWarning`` is an error
    here, as ``pyproject.toml`` makes it in the test process, because a pool
    worker does not read that filter."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        graph = experiment_graph(seed)
        config = experiment_config(seed)
        raw_acc = evaluate_probe(graph.features, graph.labels, graph.splits,
                                 config.probe_l2)["test"]

        subgraphs, search = curriculum_inputs(graph, config)
        params, _ = train(graph, config, inputs=(subgraphs, search))
        soft_acc = probe_accuracy(params, subgraphs, graph, config)["test"]

        curve = [row[1] for row in difficulty_curve(params, subgraphs, search, THETA_GRID,
                                                    config.xi)]
        untrained = init_gcn_params(graph.feature_dim, config.embedding_dim, config.gcn_layers,
                                    config.seed)
        untrained_curve = [row[1] for row in difficulty_curve(untrained, subgraphs, search,
                                                              THETA_GRID, config.xi)]

        uniform_cfg = experiment_config(seed, mode="uniform", theta0=50.0)
        # mode and theta0 do not enter the set-up, so the uniform run shares it
        uniform_params, _ = train(graph, uniform_cfg, inputs=(subgraphs, search))
        uniform_acc = probe_accuracy(uniform_params, subgraphs, graph, uniform_cfg)["test"]
        return {"raw": raw_acc, "soft": soft_acc, "uniform": uniform_acc,
                "rho": spearman(THETA_GRID, curve), "curve": curve,
                "untrained_curve": untrained_curve,
                **probe_baselines(graph, subgraphs, config)}
