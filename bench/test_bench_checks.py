"""Each output check of the benchmark passes on the program's real output and
rejects a deliberately corrupted copy of it.

Run with: PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import pytest

import checks
from hooks import Tracer, patch
from inputs import Sbm, make_dataset

acgcl = pytest.importorskip("acgcl")
from acgcl.augment import estimate_distance_distribution, mirror_augment, quantile, semantic_assignment  # noqa: E402
from acgcl.encoder import init_gcn_params  # noqa: E402
from acgcl.graph import Graph  # noqa: E402
from acgcl.sampler import sample_all_subgraphs  # noqa: E402
from acgcl.trainer import compute_center_embeddings  # noqa: E402

SMALL = Sbm(blocks=(20, 20, 20), p_intra=0.3, p_inter=0.02, feature_dim=4, noise=1.0)


@pytest.fixture(scope="module")
def small():
    data = make_dataset(SMALL, seed=3)
    graph = Graph(features=data.features.copy(), adjacency=sp.csr_array(data.adjacency),
                  labels=data.labels.copy())
    subgraphs = sample_all_subgraphs(graph, 8, 0.15)
    return data, graph, subgraphs


def _mirrors(graph, subgraphs, node, theta=40.0):
    dist = estimate_distance_distribution(subgraphs, "euclidean", 5000, 0)
    gamma = quantile(dist, theta)
    mirrors = mirror_augment(subgraphs[node], gamma, semantic_assignment(graph), "euclidean")
    return gamma, mirrors


def test_mirror_check_accepts_program_and_rejects_flipped_edge(small):
    data, graph, subgraphs = small
    node = 5
    gamma, mirrors = _mirrors(graph, subgraphs, node)
    parents = subgraphs[node].parent_indices
    pos, neg = mirrors.positive_adjacency, mirrors.negative_adjacency
    assert checks.check_mirror(data, parents, gamma, pos, neg) is None

    reference = checks.mirror_reference(data, parents, gamma)
    a, b = next((a, b) for a in range(len(parents)) for b in range(a + 1, len(parents))
                if len(reference["positive"][a, b]) == 1)
    corrupted = pos.copy()
    corrupted[a, b] = corrupted[b, a] = 1.0 - corrupted[a, b]
    assert "positive mirror" in checks.check_mirror(data, parents, gamma, corrupted, neg)
    # Swapping the polarities is caught as well.
    assert not np.array_equal(pos, neg)
    assert checks.check_mirror(data, parents, gamma, neg, pos) is not None


def test_symmetry_check_rejects_asymmetry_and_self_loops():
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    assert checks.check_symmetric_zero_diagonal("g", adj) is None
    lopsided = adj.copy()
    lopsided[0, 2] = 1.0
    assert "not symmetric" in checks.check_symmetric_zero_diagonal("g", lopsided)
    looped = adj.copy()
    looped[1, 1] = 1.0
    assert "diagonal" in checks.check_symmetric_zero_diagonal("g", looped)


def test_monotone_check_rejects_a_decrease():
    assert checks.check_non_decreasing("theta", [15.0, 32.5, 32.5]) is None
    assert "decreases" in checks.check_non_decreasing("theta", [15.0, 32.5, 20.0])
    assert checks.check_non_decreasing("gamma", []) is not None


def test_finite_check_rejects_nan_and_missing():
    good = [{"loss": 1.5}, {"loss": 0.0}]
    assert checks.check_finite_columns(good, ["loss"]) is None
    assert checks.check_finite_columns([{"loss": float("nan")}], ["loss"]) is not None
    assert checks.check_finite_columns([{"loss": None}], ["loss"]) is not None
    assert checks.check_finite_columns([{}], ["loss"]) is not None


def test_probe_checks_reject_weak_accuracy(small):
    data, _, _ = small
    baseline = checks.raw_feature_accuracy(data)
    assert 0.0 <= baseline <= 1.0
    assert checks.check_beats_baseline(baseline + 0.2, baseline, 0.15) is None
    assert checks.check_beats_baseline(baseline + 0.1, baseline, 0.15) is not None
    assert checks.check_above_chance("test_accuracy", 0.5, 6) is None
    assert checks.check_above_chance("test_accuracy", 1 / 6, 6) is not None


def test_topk_check_accepts_program_and_rejects_swapped_node(small):
    data, _, subgraphs = small
    nodes = [0, 17, 44]
    rows = checks.ppr_rows(data, 0.15, nodes)
    for node, scores in zip(nodes, rows):
        parents = subgraphs[node].parent_indices.tolist()
        assert checks.check_topk(node, scores, parents, 8, 1e-9) is None
        worst = int(np.argmin(scores))
        assert worst not in parents
        swapped = parents[:-1] + [worst]
        assert "top-8" in checks.check_topk(node, scores, swapped, 8, 1e-9)
        assert checks.check_topk(node, scores, [parents[1]] + parents[1:], 8, 1e-9) is not None


def test_embedding_check_accepts_program_and_rejects_perturbed_row(small):
    data, graph, subgraphs = small
    params = init_gcn_params(graph.feature_dim, 16, 2, seed=1)
    embeddings = compute_center_embeddings(params, subgraphs)
    weights = [w.value for w in params.weights]
    slopes = [float(s.value) for s in params.slopes]
    for node in (2, 31):
        expected = checks.numpy_gcn_center(data, subgraphs[node].parent_indices, weights, slopes)
        assert checks.check_embedding(node, embeddings[node], expected) is None
        bad = embeddings[node].copy()
        bad[3] += 1e-6
        assert checks.check_embedding(node, bad, expected) is not None


def test_identical_check_rejects_a_differing_repeat():
    assert checks.check_identical("runs", [b"x", b"x"]) is None
    assert checks.check_identical("runs", [b"x", b"y"]) is not None


def test_tracer_self_times_and_absent_names():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    times, calls = tracer.self_times(), tracer.call_counts()
    assert calls == {"outer": 1, "inner": 2}
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert times["outer"] + times["inner"] == pytest.approx(total, rel=1e-9, abs=1e-12)
    assert patch("acgcl.sampler", "no_such_function", lambda fn: fn) is False
