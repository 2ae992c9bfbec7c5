#!/usr/bin/env python3
"""Compare reweighting modes on one synthetic benchmark.

Trains the same encoder under uniform weights, plain self-paced thresholding,
and the hard/soft adversarial variants, then prints a probe-accuracy table.

    python scripts/ablation_table.py --seeds 3
"""

import argparse

import numpy as np

from acgcl.config import TrainConfig
from acgcl.graph import SbmConfig, generate_sbm, make_splits, with_splits
from acgcl.sampler import sample_all_subgraphs
from acgcl.trainer import compute_center_embeddings, evaluate_probe, train

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
        graph = with_splits(graph, make_splits(graph, seed))
        subgraphs = sample_all_subgraphs(graph, 10, 0.15)
        for mode in MODES:
            config = TrainConfig(seed=seed, subgraph_size=10, embedding_dim=16,
                                 epochs=args.epochs, patience=args.epochs,
                                 inner_steps=10, batch_size=500, acl_mode=mode,
                                 balance_max_points=128, sinkhorn_iters=60)
            params, _ = train(graph, config)
            embeddings = compute_center_embeddings(params, subgraphs)
            scores[mode].append(
                evaluate_probe(embeddings, graph.labels, graph.splits)["test"])
            print(f"seed {seed} {mode:9s} {scores[mode][-1]:.3f}")

    print(f"\n{'mode':<10} {'mean':>6} {'std':>6}")
    for mode in MODES:
        print(f"{mode:<10} {np.mean(scores[mode]):6.3f} {np.std(scores[mode]):6.3f}")


if __name__ == "__main__":
    main()
