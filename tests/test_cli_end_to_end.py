"""Whole commands on small ``gen-sbm`` graphs: inputs that differ only in
their layout give the same output, ``evaluate`` prints a converged probe,
commands write only their caches into a dataset directory, a removed option
is a usage error, and the subgraph ids do not depend on the number of BLAS
threads."""

import contextlib
import io
import shutil

import pytest

from acgcl.cli import main
from acgcl.graph import CACHE_FILE, DATASET_FILES, INPUTS_FILE
from acgcl.sampler import INVERSE_LEAF
from acgcl.trainer import PROBE_TOL
from conftest import run_python

GEN_SBM = ["gen-sbm", "--blocks", "30,30", "--p-intra", "0.25", "--p-inter", "0.02",
           "--feature-dim", "4", "--seed", "1"]


def run_cli(argv):
    """(exit code, stdout text) of an in-process ``acgcl`` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    """A 60-node dataset, the checkpoint of a one-epoch ``train`` on it, and
    what ``evaluate`` prints for the two."""
    root = tmp_path_factory.mktemp("run")
    data, checkpoint = root / "data", root / "run" / "checkpoint.json"
    assert run_cli([*GEN_SBM, "--out", str(data)])[0] == 0
    config = root / "run.cfg"
    config.write_text(f"data_dir = {data}\nsubgraph_size = 5\nembedding_dim = 8\n"
                      "batch_size = 20\n")
    assert run_cli(["train", "--config", str(config), "--set", "epochs=1",
                    "--set", "inner_steps=2", "--out", str(root / "run")])[0] == 0
    code, printed = run_cli(["evaluate", "--checkpoint", str(checkpoint), "--data", str(data)])
    assert code == 0
    return data, checkpoint, printed


def test_crlf_comment_and_blank_feature_lines_evaluate_the_same(tmp_path, evaluated):
    """A ``features.csv`` with CRLF endings, a comment line and a
    whitespace-only line loads and evaluates to the same printed lines."""
    data, checkpoint, printed = evaluated
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    rows = (data / "features.csv").read_text().splitlines()
    lines = ["# comment", rows[0], "   ", *rows[1:]]
    (copy / "features.csv").write_bytes("".join(line + "\r\n" for line in lines).encode())
    assert run_cli(["evaluate", "--checkpoint", str(checkpoint), "--data", str(copy)]) == \
        (0, printed)


def test_cold_and_warm_evaluate_print_the_same(tmp_path, evaluated):
    """``evaluate`` in a fresh process that parses the dataset and writes its
    parsed-graph cache, then in one that reads the cache, prints the same
    lines as the in-process command."""
    data, checkpoint, printed = evaluated
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    cache = copy / CACHE_FILE
    cache.unlink()      # the fixture's commands wrote it
    outputs, caches = [], []
    for _ in range(2):
        done = run_python("-m", "acgcl.cli", "evaluate", "--checkpoint", str(checkpoint),
                          "--data", str(copy))
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
        caches.append((cache.stat().st_mtime_ns, cache.read_bytes()))
    assert caches[0] == caches[1]       # the second process did not write it again
    assert outputs == [printed, printed]


def test_commands_write_only_caches_into_the_dataset(tmp_path, monkeypatch):
    """``evaluate`` alone writes only the parsed-graph cache into a fresh
    dataset directory and samples its subgraphs itself: its call of
    ``sample_all_subgraphs`` is where a timed ``evaluate``'s main work
    begins. After ``train``, ``augment-inspect`` and ``validate-difficulty``
    too, the directory holds the dataset files and the two caches alone."""
    import acgcl.trainer
    data, config = tmp_path / "data", tmp_path / "run.cfg"
    assert run_cli([*GEN_SBM, "--out", str(data)])[0] == 0
    config.write_text(f"data_dir = {data}\nsubgraph_size = 5\nembedding_dim = 8\n"
                      "batch_size = 20\nepochs = 1\ninner_steps = 2\n")
    ckpt = tmp_path / "ckpt" / "checkpoint.json"
    assert run_cli(["train", "--config", str(config), "--set", "patience=0",
                    "--out", str(ckpt.parent)])[0] == 0
    sampled = []
    sample = acgcl.trainer.sample_all_subgraphs
    monkeypatch.setattr(acgcl.trainer, "sample_all_subgraphs",
                        lambda *args: sampled.append(args) or sample(*args))
    evaluate = ["evaluate", "--checkpoint", str(ckpt), "--data", str(data)]
    assert run_cli(evaluate)[0] == 0
    assert len(sampled) == 1
    assert sorted(path.name for path in data.iterdir()) == sorted([*DATASET_FILES, CACHE_FILE])
    for argv in (["train", "--config", str(config), "--out", str(tmp_path / "run")], evaluate,
                 ["augment-inspect", "--config", str(config), "--node", "3", "--theta", "30",
                  "--out", str(tmp_path / "inspect")],
                 ["validate-difficulty", "--config", str(config), "--checkpoint", str(ckpt),
                  "--out", str(tmp_path / "curve.csv")]):
        assert run_cli(argv)[0] == 0
    assert sorted(path.name for path in data.iterdir()) == sorted(
        [*DATASET_FILES, CACHE_FILE, INPUTS_FILE])


def test_evaluate_prints_a_probe_gradient_norm_within_tolerance(evaluated):
    printed = dict(line.split("=", 1) for line in evaluated[2].splitlines())
    assert float(printed["probe_grad_norm"]) <= PROBE_TOL


def test_gen_sbm_center_scale_is_a_usage_error(tmp_path, capsys):
    """``--center-scale`` is no ``gen-sbm`` option: the command exits 2 and
    writes nothing."""
    out = tmp_path / "data"
    with pytest.raises(SystemExit) as info:
        main([*GEN_SBM, "--center-scale", "2", "--out", str(out)])
    assert info.value.code == 2
    assert "unrecognized arguments: --center-scale 2" in capsys.readouterr().err
    assert not out.exists()


SAVE_SUBGRAPH_IDS = """
import sys
import numpy as np
from acgcl.graph import load_dataset
from acgcl.sampler import sample_all_subgraphs
np.save(sys.argv[2], sample_all_subgraphs(load_dataset(sys.argv[1]), 20, 0.15).parent_indices)
"""


def test_subgraph_ids_do_not_depend_on_blas_threads(tmp_path):
    """On a 600-node graph PageRank takes the recursive block inverse (a
    60-node graph is one leaf inverse); its subgraph ids, sampled in a fresh
    process at 1 and at 2 OpenBLAS threads, are the same bytes.

    The scores differ in their last bits between the two thread counts. At
    this density 38 of the 600 rows hold reachable nodes whose scores tie in
    their top 20 (twins such as two leaves on one node), so the ids also
    depend on the tie-break; at p-intra 0.03 no row does."""
    data = tmp_path / "data"
    assert run_cli(["gen-sbm", "--blocks", "200,200,200", "--p-intra", "0.015",
                    "--p-inter", "0.002", "--feature-dim", "4", "--seed", "1",
                    "--out", str(data)])[0] == 0
    assert INVERSE_LEAF < 600
    saved = []
    for threads in ("1", "2"):
        path = tmp_path / f"ids{threads}.npy"
        done = run_python("-c", SAVE_SUBGRAPH_IDS, str(data), str(path),
                          env={"OPENBLAS_NUM_THREADS": threads})
        assert done.returncode == 0, done.stderr
        saved.append(path.read_bytes())
    assert saved[0] == saved[1]
