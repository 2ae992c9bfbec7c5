import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
ROOT = Path(__file__).resolve().parents[1]

from acgcl.graph import Graph
from acgcl.sampler import SubgraphSet


def run_python(*args, timeout=120, env=None):
    """``python *args`` in a fresh process that imports this checkout's
    ``acgcl``, with ``env`` added to the environment; returns the completed
    process, output as text."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=path, **(env or {})),
                          capture_output=True, text=True, timeout=timeout)


def refuse_writes(monkeypatch):
    """Make opening any file for writing fail, as on a read-only file system."""
    open_path = Path.open

    def opened(self, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            raise OSError(30, "Read-only file system")
        return open_path(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", opened)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def graph_from_dense(dense, features, labels=None):
    """A Graph whose edges are the nonzero entries of the 0/1 (n, n)
    ``dense``, passed as int64 edge keys row * n + col."""
    return Graph(features=features, adjacency=np.flatnonzero(dense), labels=labels)


def graph_from_edges(n, edges, features=None, labels=None):
    """Small test helper: build a Graph from an explicit edge list."""
    dense = np.zeros((n, n))
    for i, j in edges:
        dense[i, j] = dense[j, i] = 1.0
    if features is None:
        features = np.arange(n, dtype=float)[:, None]
    return graph_from_dense(dense, np.asarray(features, dtype=float),
                            None if labels is None else np.asarray(labels, dtype=np.int64))


def stack_subgraphs(subgraphs):
    """A ``SubgraphSet`` of equal-size ``Subgraph`` objects over one node
    feature matrix, in order."""
    node_features = subgraphs[0].node_features
    assert all(s.node_features is node_features for s in subgraphs)
    return SubgraphSet(*(np.stack([getattr(s, name) for s in subgraphs])
                         for name in ("parent_indices", "adjacency")), node_features)


def packed_pair(k, a, b):
    """Position of the pair a < b in ``np.triu_indices(k, 1)`` order, the last
    axis of the ``MirrorSearch`` tables."""
    return a * k - a * (a + 1) // 2 + b - a - 1


def random_graph(rng, n, p=0.15, dim=4, n_classes=3, min_degree_ring=True):
    """Random undirected graph; a ring keeps every degree >= 1."""
    dense = (rng.random((n, n)) < p).astype(float)
    dense = np.triu(dense, k=1)
    dense = dense + dense.T
    if min_degree_ring:
        for i in range(n):
            j = (i + 1) % n
            dense[i, j] = dense[j, i] = 1.0
    return graph_from_dense(dense, rng.standard_normal((n, dim)),
                            rng.integers(0, n_classes, size=n))


def self_loop_graph(rng, n=30):
    """A ``random_graph`` with self loops on a third of its nodes."""
    g = random_graph(rng, n=n)
    loops = rng.choice(n, size=n // 3, replace=False)
    return Graph(g.features, np.r_[g.adjacency, loops * (n + 1)], g.labels)
