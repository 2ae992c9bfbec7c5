"""Seeded benchmark inputs, written in the dataset format ``acgcl`` reads.

The benchmark generates its own stochastic block models instead of calling
``acgcl gen-sbm``, so the inputs of a seed stay the same when the program
changes. Labels are block ids; features are a one-hot block centre plus
Gaussian noise; splits are a seeded shuffle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class Sbm:
    blocks: tuple[int, ...]
    p_intra: float
    p_inter: float
    feature_dim: int
    noise: float
    split_train: float = 0.3
    split_val: float = 0.2


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray        # (n, dim)
    labels: np.ndarray          # (n,)
    edges: np.ndarray           # (m, 2), i < j
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """Symmetric 0/1 adjacency."""
        rows = np.r_[self.edges[:, 0], self.edges[:, 1]]
        cols = np.r_[self.edges[:, 1], self.edges[:, 0]]
        return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(self.n_nodes,) * 2)

    def sub_adjacency(self, nodes) -> np.ndarray:
        """Dense induced adjacency in the given order; repeats duplicate rows."""
        nodes = np.asarray(nodes)
        return self.adjacency[nodes][:, nodes].toarray()


def make_dataset(sbm: Sbm, seed: int) -> Dataset:
    rng = np.random.default_rng([seed, 0x5B])
    labels = np.repeat(np.arange(len(sbm.blocks)), sbm.blocks)
    n = len(labels)
    prob = np.where(labels[:, None] == labels[None, :], sbm.p_intra, sbm.p_inter)
    hit = np.triu(rng.random((n, n)) < prob, k=1)
    edges = np.argwhere(hit)
    centers = np.zeros((len(sbm.blocks), sbm.feature_dim))
    centers[np.arange(len(sbm.blocks)), np.arange(len(sbm.blocks)) % sbm.feature_dim] = 1.0
    features = centers[labels] + sbm.noise * rng.standard_normal((n, sbm.feature_dim))
    order = rng.permutation(n)
    n_train = int(round(sbm.split_train * n))
    n_val = int(round(sbm.split_val * n))
    return Dataset(features=features, labels=labels, edges=edges,
                   train=np.sort(order[:n_train]),
                   val=np.sort(order[n_train:n_train + n_val]),
                   test=np.sort(order[n_train + n_val:]))


def write_dataset(data: Dataset, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "edges.txt").write_text("".join(f"{i} {j}\n" for i, j in data.edges))
    (directory / "features.csv").write_text(
        "".join(",".join(map(repr, row)) + "\n" for row in data.features.tolist()))
    (directory / "labels.csv").write_text(
        "".join(f"{node},{label}\n" for node, label in enumerate(data.labels.tolist())))
    (directory / "splits.json").write_text(json.dumps(
        {name: getattr(data, name).tolist() for name in ("train", "val", "test")}))


def write_config(path: Path, values: dict) -> None:
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
