#!/usr/bin/env python3
"""Compare reweighting modes on one synthetic benchmark.

Trains the same encoder under uniform weights, plain self-paced thresholding,
and the hard/soft adversarial variants, then prints a probe-accuracy table.

    python scripts/ablation_table.py --seeds 3
"""

import argparse
from dataclasses import replace

import numpy as np

from acgcl.config import TrainConfig
from acgcl.graph import SbmConfig, generate_sbm, make_splits, with_splits
from acgcl.sampler import sample_all_subgraphs
from acgcl.trainer import probe_accuracy, train

MODES = ["uniform", "spl", "hard_acl", "soft_acl"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--epochs", type=int, default=20)
    args = parser.parse_args()

    scores = {mode: [] for mode in MODES}
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
        subgraphs = sample_all_subgraphs(graph, config.subgraph_size, config.teleport)
        for mode in MODES:
            params, _ = train(graph, replace(config, acl_mode=mode))
            scores[mode].append(probe_accuracy(params, subgraphs, graph, config)["test"])
            print(f"seed {seed} {mode:9s} {scores[mode][-1]:.3f}")

    print(f"\n{'mode':<10} {'mean':>6} {'std':>6}")
    for mode in MODES:
        print(f"{mode:<10} {np.mean(scores[mode]):6.3f} {np.std(scores[mode]):6.3f}")


if __name__ == "__main__":
    main()
