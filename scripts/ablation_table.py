#!/usr/bin/env python3
"""Compare reweighting modes on one synthetic benchmark.

Per seed, builds the run set-up once (subgraphs and their mirror search,
which holds the distance distribution), probes the raw node features, then
trains the same encoder under uniform weights, plain self-paced thresholding
and the hard/soft adversarial variants on that set-up. Prints the test
accuracy of every seed and row, then a table of their means and standard
deviations.

    python scripts/ablation_table.py --seeds 3 --epochs 20
"""

import argparse
from dataclasses import replace

import numpy as np

from acgcl.config import TrainConfig
from acgcl.curriculum import MODES
from acgcl.graph import SbmConfig, generate_sbm, make_splits, with_splits
from acgcl.trainer import curriculum_inputs, evaluate_probe, probe_accuracy, train


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--epochs", type=int, default=20)
    args = parser.parse_args()

    scores = {row: [] for row in ["raw", *MODES]}
    for seed in range(args.seeds):
        graph = generate_sbm(
            SbmConfig(block_sizes=(100, 100, 100), p_intra=0.10, p_inter=0.002,
                      feature_dim=16, feature_noise=0.55), seed=seed)
        config = TrainConfig(seed=seed, subgraph_size=10, embedding_dim=16,
                             epochs=args.epochs, patience=args.epochs,
                             inner_steps=10, batch_size=500,
                             balance_max_points=128, sinkhorn_iters=60)
        graph = with_splits(graph, make_splits(graph, seed, config.split_train,
                                               config.split_val))
        inputs = curriculum_inputs(graph, config)
        subgraphs = inputs[0]
        scores["raw"].append(evaluate_probe(graph.features, graph.labels, graph.splits,
                                            config.probe_l2)["test"])
        print(f"seed {seed} {'raw':9s} {scores['raw'][-1]:.3f}")
        for mode in MODES:
            params, _ = train(graph, replace(config, acl_mode=mode), inputs=inputs)
            scores[mode].append(probe_accuracy(params, subgraphs, graph, config)["test"])
            print(f"seed {seed} {mode:9s} {scores[mode][-1]:.3f}")

    print(f"\n{'mode':<10} {'mean':>6} {'std':>6}")
    for row, values in scores.items():
        print(f"{row:<10} {np.mean(values):6.3f} {np.std(values):6.3f}")


if __name__ == "__main__":
    main()
