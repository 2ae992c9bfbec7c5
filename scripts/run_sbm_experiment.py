#!/usr/bin/env python3
"""Desk-scale experiment: train on a synthetic block-model graph and compare
the learned embeddings against the raw-feature baseline.

    python scripts/run_sbm_experiment.py --seeds 3 --epochs 20
"""

import argparse
import time

import numpy as np

from acgcl.config import TrainConfig
from acgcl.graph import SbmConfig, generate_sbm, make_splits, with_splits
from acgcl.sampler import sample_all_subgraphs
from acgcl.trainer import evaluate_probe, probe_accuracy, train


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--mode", default="soft_acl",
                        choices=["uniform", "spl", "hard_acl", "soft_acl"])
    parser.add_argument("--noise", type=float, default=0.55)
    args = parser.parse_args()

    raw_accs, trained_accs = [], []
    for seed in range(args.seeds):
        graph = generate_sbm(
            SbmConfig(block_sizes=(100, 100, 100), p_intra=0.10, p_inter=0.002,
                      feature_dim=16, feature_noise=args.noise), seed=seed)
        config = TrainConfig(seed=seed, subgraph_size=10, embedding_dim=16,
                             epochs=args.epochs, patience=args.epochs, inner_steps=10,
                             batch_size=500, acl_mode=args.mode,
                             balance_max_points=128, sinkhorn_iters=60)
        graph = with_splits(graph, make_splits(graph, seed, config.split_train,
                                               config.split_val))
        raw = evaluate_probe(graph.features, graph.labels, graph.splits,
                             config.probe_l2)["test"]
        start = time.time()
        params, epochs = train(graph, config)
        subgraphs = sample_all_subgraphs(graph, config.subgraph_size, config.teleport)
        acc = probe_accuracy(params, subgraphs, graph, config)["test"]
        raw_accs.append(raw)
        trained_accs.append(acc)
        print(f"seed {seed}: raw {raw:.3f} -> {args.mode} {acc:.3f} "
              f"({len(epochs)} epochs, {time.time() - start:.0f}s)")

    print(f"\nmean raw      {np.mean(raw_accs):.3f}")
    print(f"mean {args.mode:9s} {np.mean(trained_accs):.3f}")
    print(f"mean gain     {np.mean(trained_accs) - np.mean(raw_accs):+.3f}")


if __name__ == "__main__":
    main()
