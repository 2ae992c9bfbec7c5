import numpy as np

from acgcl.augment import mirror_augment, semantic_assignment
from acgcl.sampler import sample_all_subgraphs
from acgcl.util import parallel_map, rng_for, worker_count
from conftest import random_graph


def test_rng_for_deterministic_and_role_separated():
    a = rng_for(7, 1, 3).random(4)
    b = rng_for(7, 1, 3).random(4)
    c = rng_for(7, 2, 3).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("ACGCL_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("ACGCL_THREADS", "junk")
    assert worker_count() == 1
    monkeypatch.delenv("ACGCL_THREADS")
    assert worker_count() == 1


def test_parallel_map_preserves_order():
    assert parallel_map(lambda x: x * x, range(20), workers=4) == [x * x for x in range(20)]


def test_threaded_pipeline_matches_serial(rng, monkeypatch):
    g = random_graph(rng, n=30)
    subs = sample_all_subgraphs(g, k=5)
    sem = semantic_assignment(g, "label")
    serial = [mirror_augment(s, 1.0, sem) for s in subs]
    threaded = parallel_map(lambda s: mirror_augment(s, 1.0, sem), subs, workers=3)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.positive_adjacency, b.positive_adjacency)
        assert np.array_equal(a.negative_adjacency, b.negative_adjacency)
