import re
import shutil
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from acgcl import graph as graph_module, util
from acgcl.cli import main
from acgcl.errors import AcgclError, ConfigError, GraphParseError, NodeIdError, ShapeError
from acgcl.graph import (CACHE_FILE, DATASET_FILES, INPUTS_FILE, Graph, SbmConfig, Splits,
                         generate_sbm, load_dataset, make_splits, save_dataset, with_splits)
from conftest import refuse_writes
from oracles import dense_adjacency


def write_dataset(tmp_path, edges, features, labels=None):
    """``tmp_path`` with the dataset files of the given texts."""
    (tmp_path / "edges.txt").write_text(edges)
    (tmp_path / "features.csv").write_text(features)
    if labels is not None:
        (tmp_path / "labels.csv").write_text(labels)
    return tmp_path


class TestLoadGraph:
    """``load_dataset`` on edges, features and labels alone."""

    def test_minimal_two_node_graph(self, tmp_path):
        data = write_dataset(tmp_path, "0 1\n", "1.0\n2.0\n")
        g = load_dataset(data)
        assert g.n_nodes == 2
        assert np.array_equal(dense_adjacency(g), [[0, 1], [1, 0]])
        assert np.array_equal(g.features, [[1.0], [2.0]])

    def test_empty_edge_file_gives_edgeless_graph(self, tmp_path):
        data = write_dataset(tmp_path, "", "1\n2\n3\n")
        g = load_dataset(data)
        assert g.n_nodes == 3
        assert g.adjacency.size == 0

    def test_duplicate_edges_stay_binary(self, tmp_path):
        data = write_dataset(tmp_path, "0 1\n0 1\n1 0\n", "1\n2\n")
        g = load_dataset(data)
        assert g.adjacency.tolist() == [1, 2]

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        data = write_dataset(tmp_path, "# header\n\n0 1\n", "1\n2\n",
                             "# node,label\n\n0,1\n \n1,0\n")
        g = load_dataset(data)
        assert dense_adjacency(g)[0, 1] == 1
        assert np.array_equal(g.labels, [1, 0])

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
                                     "\x1e", "\x85", "\u2028", "\u2029"])
    def test_every_line_end_of_splitlines_ends_a_line(self, tmp_path, end):
        data = write_dataset(tmp_path, f"0 1{end}1 2{end}", f"1,2{end}3,4{end}5,6",
                             f"0,1{end}1,0{end}2,2{end}")
        g = load_dataset(data)
        assert np.array_equal(dense_adjacency(g), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        assert np.array_equal(g.features, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(g.labels, [1, 0, 2])

    def test_integer_fields_take_what_int_reads(self, tmp_path):
        # 1_0 reads as 10 and the Arabic-Indic digit \u0661 as 1
        labels = "".join(f"{node},0\n" for node in range(10)) + "1_0,\u0661\n"
        data = write_dataset(tmp_path, "1_0 \u0661\n", "0\n" * 11, labels)
        g = load_dataset(data)
        assert g.adjacency.tolist() == [1 * 11 + 10, 10 * 11 + 1]
        assert g.labels.tolist() == [0] * 10 + [1]

    def test_malformed_edge_line_names_the_line(self, tmp_path):
        data = write_dataset(tmp_path, "0 1\n0 x\n", "1\n2\n")
        with pytest.raises(GraphParseError, match="edges.txt:2"):
            load_dataset(data)

    @pytest.mark.parametrize("space", ["\x1f", "\t", "\xa0", "\u3000"])
    def test_whitespace_around_a_field_is_ignored_wherever_it_sits(self, tmp_path, space):
        data = write_dataset(tmp_path, f"{space}0{space}1{space}\n",
                             f"1{space},{space}2\n{space}3,4{space}\n",
                             f"0{space},{space}1\n{space}1,0{space}\n")
        g = load_dataset(data)
        assert g.adjacency.tolist() == [1, 2]
        assert np.array_equal(g.features, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(g.labels, [1, 0])

    def test_edge_endpoint_out_of_range(self, tmp_path):
        data = write_dataset(tmp_path, "0 1\n0 5\n", "1\n2\n")
        where = re.escape(str(data / "edges.txt"))
        with pytest.raises(NodeIdError, match=rf"^{where}:2: edge endpoint 5 >= 2 nodes$"):
            load_dataset(data)

    def test_ragged_feature_rows_rejected(self, tmp_path):
        data = write_dataset(tmp_path, "", "1,2\n3\n")
        with pytest.raises(ShapeError, match="features.csv:2"):
            load_dataset(data)

    @pytest.mark.parametrize("rows", ["1.0,,2.0\n3.0,,4.0\n", "1.0,2.0,\n3.0,4.0,\n"],
                             ids=["mid_row", "trailing_comma"])
    def test_empty_feature_field_rejected(self, tmp_path, rows):
        # every row has the same gap, so dropping empty fields would load a
        # consistent but shifted matrix
        data = write_dataset(tmp_path, "", rows)
        with pytest.raises(GraphParseError, match="features.csv:1: bad feature value"):
            load_dataset(data)

    def test_non_finite_feature_rejected(self, tmp_path):
        data = write_dataset(tmp_path, "", "1\nnan\n")
        with pytest.raises(GraphParseError, match="features.csv:2: non-finite feature value$"):
            load_dataset(data)

    def test_valid_splits_load_beside_a_self_loop(self, tmp_path):
        write_dataset(tmp_path, "0 0\n0 1\n", "1\n2\n3\n")
        (tmp_path / "splits.json").write_text('{"train": [0], "val": [1], "test": [2]}')
        g = load_dataset(tmp_path)
        assert dense_adjacency(g)[0, 0] == 1
        assert [list(part) for part in (g.splits.train, g.splits.val, g.splits.test)] == [[0], [1], [2]]

    def test_labels_loaded_and_gaps_rejected(self, tmp_path):
        data = write_dataset(tmp_path, "0 1\n", "1\n2\n", "0,1\n1,0\n")
        g = load_dataset(data)
        assert np.array_equal(g.labels, [1, 0])
        (tmp_path / "labels.csv").write_text("0,1\n")
        with pytest.raises(GraphParseError, match="missing label"):
            load_dataset(data)

    def test_duplicate_label_rejected(self, tmp_path):
        data = write_dataset(tmp_path, "", "1\n2\n", "0,1\n0,2\n")
        with pytest.raises(GraphParseError, match="duplicate"):
            load_dataset(data)

    @pytest.mark.parametrize("label", ["-1", "2", "1000000000", "99999999999999999999"])
    def test_label_outside_node_range_rejected(self, tmp_path, label):
        """A class id is below the node count: a larger one would size the
        probe's one-hot matrix, or overflow the int64 label array."""
        data = write_dataset(tmp_path, "0 1\n", "1\n2\n", f"0,0\n1,{label}\n")
        with pytest.raises(GraphParseError,
                           match=rf"labels\.csv:2: label {label} out of range \[0, 2\)$"):
            load_dataset(data)

    @pytest.mark.parametrize("label", ["1000000000", "99999999999999999999"])
    def test_train_rejects_out_of_range_label_in_one_line(self, tmp_path, capsys, label):
        data = tmp_path / "data"
        assert main(["gen-sbm", "--blocks", "20,20", "--p-intra", "0.3", "--p-inter", "0.02",
                     "--out", str(data)]) == 0
        lines = (data / "labels.csv").read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("7,"))
        lines[row] = f"7,{label}"
        (data / "labels.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        config = tmp_path / "run.cfg"
        config.write_text(f"data_dir = {data}\nepochs = 1\ninner_steps = 1\nsubgraph_size = 4\n")
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == [f"GraphParseError: {data / 'labels.csv'}:{row + 1}: label {label} "
                       "out of range [0, 40)"]

    @pytest.mark.parametrize("value", ["nan", "-inf", "1e400"])
    def test_train_names_the_line_of_a_non_finite_feature(self, tmp_path, capsys, value):
        data = tmp_path / "data"
        assert main(["gen-sbm", "--blocks", "20,20", "--p-intra", "0.3", "--p-inter", "0.02",
                     "--feature-dim", "3", "--out", str(data)]) == 0
        rows = (data / "features.csv").read_text().splitlines()
        rows[6] = f"{value},0.5,0.5"
        # a comment and a blank line put the seventh row on line 9
        (data / "features.csv").write_text("# features\n\n" + "\n".join(rows) + "\n")
        capsys.readouterr()
        config = tmp_path / "run.cfg"
        config.write_text(f"data_dir = {data}\nepochs = 1\ninner_steps = 1\nsubgraph_size = 4\n")
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"GraphParseError: {data / 'features.csv'}:9: non-finite feature value"]


class TestAdjacency:
    """``Graph`` holds the adjacency as sorted unique edge keys row * n + col,
    whether it is given keys or a sparse matrix; a dense array is refused."""

    def test_keys_and_sparse_forms_give_the_same_keys(self):
        dense = np.zeros((4, 4))
        dense[[0, 1, 1, 2, 3], [1, 0, 2, 1, 3]] = 1.0
        keys = np.array([1, 4, 6, 9, 15])
        for given in (sp.csr_array(dense), sp.coo_array(dense.astype(bool)), keys[::-1],
                      np.r_[keys, 4]):
            g = Graph(features=np.zeros((4, 1)), adjacency=given)
            assert g.adjacency.dtype == np.int64 and g.adjacency.tolist() == keys.tolist()
            assert not g.adjacency.flags.writeable
        assert np.array_equal(dense_adjacency(g), dense)
        assert g.degrees().tolist() == [1, 2, 1, 1]     # a self loop counts once

    @pytest.mark.parametrize("given, message", [
        (sp.csr_array(np.zeros((3, 3))), r"^adjacency is \(3, 3\), expected \(2, 2\)$"),
        (np.zeros((2, 2, 1)), r"^adjacency is a 3-d float64 array, expected 1-d integer edge keys"
                              r" or a sparse matrix \(anything with \.tocoo\(\)\)$"),
        (np.zeros((2, 2)), r"^adjacency is a 2-d float64 array, expected 1-d integer edge keys"),
        (np.zeros(2), "^adjacency is a 1-d float64 array"),
        (sp.csr_array(np.array([[0.0, 2.0], [2.0, 0.0]])), "entries must be 0 or 1"),
        (sp.csr_array(np.array([[0.0, 0.5], [0.5, 0.0]])), "entries must be 0 or 1"),
        (np.array([0, 4]), r"key out of range \[0, 4\)"),
        (np.array([-1]), "key out of range"),
    ], ids=["wrong-shape", "three-dims", "dense", "float-keys", "weight-2", "sparse-weight",
            "key-past-end", "negative-key"])
    def test_bad_adjacency_rejected(self, given, message):
        with pytest.raises(ShapeError, match=message):
            Graph(features=np.zeros((2, 1)), adjacency=given)

    @pytest.mark.parametrize("form", ["keys", "sparse"])
    def test_asymmetric_adjacency_rejected_when_built(self, form):
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 2] = dense[2, 1] = 1.0     # 0 -> 1 has no 1 -> 0
        given = {"keys": np.array([1, 5, 7]), "sparse": sp.csr_array(dense)}
        with pytest.raises(ShapeError, match="^adjacency is not symmetric$"):
            Graph(features=np.zeros((3, 1)), adjacency=given[form])

    def test_self_loop_builds(self):
        loop = Graph(features=np.zeros((3, 1)), adjacency=np.array([4]))
        assert loop.adjacency.tolist() == [4] and loop.degrees().tolist() == [0, 1, 0]

    def test_negative_label_and_non_finite_features_rejected_when_built(self):
        with pytest.raises(ShapeError, match="^negative label$"):
            Graph(features=np.zeros((2, 1)), adjacency=np.array([1, 2]), labels=np.array([0, -1]))
        with pytest.raises(ShapeError, match=r"^labels shape \(3,\), expected \(2,\)$"):
            Graph(features=np.zeros((2, 1)), adjacency=np.array([1, 2]), labels=np.zeros(3, int))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ShapeError, match="^features contain non-finite values$"):
                Graph(features=np.array([[0.0], [bad]]), adjacency=np.array([1, 2]))


class TestRoundTrip:
    def test_save_load_bit_exact(self, tmp_path, rng):
        g = generate_sbm(SbmConfig(block_sizes=(7, 5), p_intra=0.6, p_inter=0.2,
                                   feature_dim=3, feature_noise=1.3), seed=9)
        g = with_splits(g, make_splits(g, seed=9, train_frac=0.3, val_frac=0.2))
        save_dataset(g, tmp_path)
        back = load_dataset(tmp_path)
        assert np.array_equal(g.adjacency, back.adjacency)
        assert np.array_equal(g.features, back.features)
        assert np.array_equal(g.labels, back.labels)
        assert np.array_equal(g.splits.train, back.splits.train)
        assert np.array_equal(g.splits.test, back.splits.test)


    def test_failed_write_keeps_the_older_dataset(self, tmp_path, monkeypatch, capsys):
        """gen-sbm writes every file of a dataset before it moves any into
        place: a write that fails exits 1, the older dataset in ``--out``
        still loads as it was, and no temporary directory is left."""
        out = tmp_path / "data"
        argv = ["gen-sbm", "--p-intra", "0.3", "--p-inter", "0.02", "--out", str(out)]
        assert main([*argv, "--blocks", "30,30"]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        def full_disk(self, *args, **kwargs):
            raise OSError(28, "No space left on device")

        with monkeypatch.context() as patched:
            patched.setattr(Path, "write_text", full_disk)
            assert main([*argv, "--blocks", "20,20"]) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("OSError: ")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert load_dataset(out).n_nodes == 60
        assert [path.name for path in tmp_path.iterdir()] == ["data"]

    def test_gen_sbm_removes_both_caches(self, tmp_path, capsys):
        """A dataset directory with the parsed-graph cache and the run set-up
        cache holds neither after ``gen-sbm`` writes a new dataset there."""
        data, config = tmp_path / "data", tmp_path / "run.cfg"
        argv = ["gen-sbm", "--blocks", "20,20", "--p-intra", "0.3", "--p-inter", "0.02",
                "--out", str(data)]
        assert main(argv) == 0
        config.write_text(f"data_dir = {data}\nepochs = 1\ninner_steps = 1\nsubgraph_size = 4\n")
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        assert {CACHE_FILE, INPUTS_FILE} <= {path.name for path in data.iterdir()}
        assert main([*argv, "--seed", "2"]) == 0
        assert sorted(path.name for path in data.iterdir()) == sorted(DATASET_FILES)

    def test_saving_drops_the_parts_a_graph_lacks(self, tmp_path):
        g = generate_sbm(SbmConfig(block_sizes=(6, 6), p_intra=0.6, p_inter=0.1,
                                   feature_dim=2), seed=1)
        save_dataset(with_splits(g, make_splits(g, seed=1, train_frac=0.3, val_frac=0.2)),
                     tmp_path)
        load_dataset(tmp_path)
        assert (tmp_path / CACHE_FILE).is_file()
        (tmp_path / "notes.txt").write_text("kept")
        save_dataset(Graph(g.features, g.adjacency), tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "edges.txt", "features.csv", "notes.txt"]
        back = load_dataset(tmp_path)
        assert back.labels is None and back.splits is None


class TestGenerateSbm:
    def test_extreme_probabilities(self):
        g = generate_sbm(SbmConfig(block_sizes=(2, 2), p_intra=1.0, p_inter=0.0,
                                   feature_dim=2), seed=0)
        dense = dense_adjacency(g)
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = 1
        expected[2, 3] = expected[3, 2] = 1
        assert np.array_equal(dense, expected)

    def test_intra_edge_count_matches_binomial(self):
        # 2 blocks of 50 at p=0.2: mean 490, sigma = sqrt(490 * 0.8) ~ 19.8
        g = generate_sbm(SbmConfig(block_sizes=(50, 50), p_intra=0.2, p_inter=0.0,
                                   feature_dim=2), seed=3)
        n_edges = g.adjacency.size / 2
        assert abs(n_edges - 490) < 3 * np.sqrt(490 * 0.8)

    def test_same_seed_identical(self):
        cfg = SbmConfig(block_sizes=(10, 10), p_intra=0.5, p_inter=0.1, feature_dim=4)
        a, b = generate_sbm(cfg, seed=7), generate_sbm(cfg, seed=7)
        assert np.array_equal(a.adjacency, b.adjacency)
        assert np.array_equal(a.features, b.features)

    def test_labels_are_block_ids(self):
        g = generate_sbm(SbmConfig(block_sizes=(3, 4), p_intra=0.5, p_inter=0.0,
                                   feature_dim=2), seed=0)
        assert np.array_equal(g.labels, [0, 0, 0, 1, 1, 1, 1])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), p_intra=st.floats(0.0, 1.0), p_inter_frac=st.floats(0.0, 1.0))
    def test_output_always_valid(self, seed, p_intra, p_inter_frac):
        """A generated graph passes the checks of ``Graph`` and has no self loop."""
        cfg = SbmConfig(block_sizes=(6, 5), p_intra=p_intra,
                        p_inter=p_intra * p_inter_frac, feature_dim=3)
        g = generate_sbm(cfg, seed)
        rows, cols = np.divmod(g.adjacency, g.n_nodes)
        assert not (rows == cols).any()

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            SbmConfig(block_sizes=(5,), p_intra=0.1, p_inter=0.5, feature_dim=2)
        with pytest.raises(ConfigError):
            SbmConfig(block_sizes=(0, 3), p_intra=0.5, p_inter=0.1, feature_dim=2)


class TestSplits:
    def test_splits_disjoint_and_cover(self):
        g = generate_sbm(SbmConfig(block_sizes=(20, 20), p_intra=0.3, p_inter=0.05,
                                   feature_dim=2), seed=1)
        s = make_splits(g, seed=1, train_frac=0.3, val_frac=0.2)
        all_ids = np.concatenate([s.train, s.val, s.test])
        assert len(np.unique(all_ids)) == g.n_nodes
        assert with_splits(g, s).splits is s

    def test_overlapping_splits_rejected(self):
        g = generate_sbm(SbmConfig(block_sizes=(4,), p_intra=0.5, p_inter=0.0,
                                   feature_dim=2), seed=0)
        bad = Splits(train=np.array([0, 1]), val=np.array([1]), test=np.array([2, 3]))
        with pytest.raises(ShapeError, match="^split 'val' overlaps another split$"):
            with_splits(g, bad)

    @pytest.mark.parametrize("train, val, test, message", [
        ([0, 2, 0, 2], [1], [3], "split 'train' lists node 0 more than once"),
        ([0], [1], [2, 4], "split 'test' has out-of-range node ids"),
        ([-1, 0], [1], [2], "split 'train' has out-of-range node ids"),
    ], ids=["repeated", "past-the-end", "negative"])
    def test_bad_split_rejected_when_built(self, train, val, test, message):
        g = generate_sbm(SbmConfig(block_sizes=(4,), p_intra=0.5, p_inter=0.0,
                                   feature_dim=2), seed=0)
        bad = Splits(*(np.array(ids, dtype=np.int64) for ids in (train, val, test)))
        with pytest.raises(ShapeError, match=f"^{message}$"):
            with_splits(g, bad)


class TestFeatureReader:
    """``_read_features`` reads each field through ``float``, so syntax only
    it reads loads, and skips blank and ``#`` lines, whatever ends them."""

    @pytest.mark.parametrize("text, want", [
        ("1_0,2\n", [[10.0, 2.0]]),
        ("\u0661\u0662\n", [[12.0]]),
        ("1,2\n   \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("# header\r\n1,2\r\n\t\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    ], ids=["underscore", "arabic-indic-digits", "whitespace-line", "crlf-comment-blank"])
    def test_syntax_only_float_reads_still_loads(self, tmp_path, text, want):
        (tmp_path / "features.csv").write_bytes(text.encode())
        (tmp_path / "edges.txt").write_bytes(b"")
        assert np.array_equal(load_dataset(tmp_path).features, want)


def saved_graph(seed=4):
    """A 30-node graph with labels and splits."""
    g = generate_sbm(SbmConfig(block_sizes=(10, 20), p_intra=0.4, p_inter=0.05,
                               feature_dim=5), seed=seed)
    return with_splits(g, make_splits(g, seed=seed, train_frac=0.3, val_frac=0.2))


def saved_dataset(directory, seed=4):
    """``saved_graph`` written by ``save_dataset``."""
    save_dataset(saved_graph(seed), directory)
    return directory


def assert_same_graph(got, want):
    """Equal arrays, bit for bit, with equal dtypes, shapes and write flags."""
    names = ["features", "adjacency", "labels"]
    pairs = [(getattr(got, name), getattr(want, name)) for name in names]
    assert (got.splits is None) == (want.splits is None)
    if want.splits is not None:
        pairs += [(getattr(got.splits, name), getattr(want.splits, name))
                  for name in ("train", "val", "test")]
    for a, b in pairs:
        assert (a is None) == (b is None)
        if b is not None:
            assert (a.dtype, a.shape, a.flags.writeable, a.flags.c_contiguous, a.tobytes()) == \
                (b.dtype, b.shape, b.flags.writeable, b.flags.c_contiguous, b.tobytes())


def no_parse(monkeypatch):
    """Make a load that parses the dataset text fail."""
    def parse(directory, raw):
        raise AssertionError(f"{directory} was parsed")

    monkeypatch.setattr(graph_module, "_parse_dataset", parse)


def count_parses(monkeypatch) -> list:
    """The directories that later loads parse, in order."""
    parses, parse = [], graph_module._parse_dataset

    def counted(directory, raw):
        parses.append(directory)
        return parse(directory, raw)

    monkeypatch.setattr(graph_module, "_parse_dataset", counted)
    return parses


def load_error(directory) -> str:
    """The ``ErrorClass: message`` line a failing ``load_dataset`` prints."""
    with pytest.raises((AcgclError, OSError)) as info:
        load_dataset(directory)
    return f"{type(info.value).__name__}: {info.value}"


class TestDatasetCache:
    """``load_dataset`` keeps the parsed graph in ``CACHE_FILE``, keyed by
    the bytes of the dataset files, and rebuilds it through ``Graph``."""

    @pytest.mark.parametrize("parts", ["all", "no-splits", "no-labels"])
    def test_warm_load_equals_cold_load(self, tmp_path, monkeypatch, parts):
        data = saved_dataset(tmp_path / "data")
        if parts != "all":
            (data / "splits.json").unlink()
        if parts == "no-labels":
            (data / "labels.csv").unlink()
        saved = saved_graph()
        if parts != "all":
            saved = Graph(saved.features, saved.adjacency,
                          saved.labels if parts != "no-labels" else None)
        cold = load_dataset(data)
        assert (data / CACHE_FILE).is_file()
        no_parse(monkeypatch)
        warm = load_dataset(data)
        assert_same_graph(warm, cold)
        assert_same_graph(cold, saved)

    def test_same_length_edit_is_parsed_again(self, tmp_path):
        data = saved_dataset(tmp_path / "data")
        before = load_dataset(data)
        text = (data / "features.csv").read_bytes()
        at = text.index(b"1", 20)
        (data / "features.csv").write_bytes(text[:at] + b"2" + text[at + 1:])
        after = load_dataset(data)
        assert not np.array_equal(after.features, before.features)
        fresh = tmp_path / "fresh"      # the same bytes, with no cache beside them
        shutil.copytree(data, fresh, ignore=shutil.ignore_patterns(CACHE_FILE))
        assert_same_graph(after, load_dataset(fresh))

    def test_a_changed_source_byte_is_parsed_again(self, tmp_path, monkeypatch):
        """The key covers the package's code, so a changed parser never gets
        the graph an older one cached."""
        copy = tmp_path / "source"
        copy.mkdir()
        for path in util.PACKAGE_DIR.glob("*.py"):
            (copy / path.name).write_bytes(path.read_bytes())
        monkeypatch.setattr(util, "PACKAGE_DIR", copy)
        data = saved_dataset(tmp_path / "data")
        cold = load_dataset(data)
        parses = count_parses(monkeypatch)
        assert_same_graph(load_dataset(data), cold)
        assert parses == []
        source = copy / "graph.py"
        source.write_bytes(source.read_bytes().replace(b"#", b"%", 1))
        assert_same_graph(load_dataset(data), cold)
        assert parses == [data]
        assert_same_graph(load_dataset(data), cold)
        assert parses == [data]

    def test_warm_load_checks_the_graph_once(self, tmp_path, monkeypatch):
        """A warm load builds its graph and splits in one ``Graph``."""
        data = saved_dataset(tmp_path / "data")
        cold = load_dataset(data)
        checks, check = [], Graph.__post_init__

        def counted(graph):
            checks.append(graph)
            check(graph)

        monkeypatch.setattr(Graph, "__post_init__", counted)
        warm = load_dataset(data)
        assert checks == [warm]
        assert_same_graph(warm, cold)

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty", "mistyped", "missing",
                                        "unknown", "pickled", "bad-graph", "bad-split",
                                        "split-part"])
    def test_unreadable_cache_is_a_miss_and_rewritten(self, tmp_path, monkeypatch, damage):
        data = saved_dataset(tmp_path / "data")
        cold = load_dataset(data)
        cache = data / CACHE_FILE
        good = cache.read_bytes()
        with np.load(cache) as stored:
            arrays = dict(stored)
        if damage == "truncated":
            cache.write_bytes(good[:len(good) // 2])
        elif damage in ("garbage", "empty"):
            cache.write_bytes(b"not a cache" * (damage == "garbage"))
        else:
            if damage == "mistyped":
                arrays["features"] = arrays["features"].astype(np.float32)
            elif damage == "missing":
                del arrays["adjacency"]
            elif damage == "unknown":
                arrays["weights"] = np.zeros(3)
            elif damage == "pickled":
                arrays["labels"] = arrays["labels"].astype(object)
            elif damage == "bad-split":     # a node in two splits
                arrays["val"] = arrays["train"]
            elif damage == "split-part":
                del arrays["test"]
            else:           # an asymmetric adjacency under the right key
                arrays["adjacency"] = arrays["adjacency"][1:]
            with open(cache, "wb") as out:
                np.savez(out, **arrays)
        assert_same_graph(load_dataset(data), cold)
        assert cache.read_bytes() == good
        no_parse(monkeypatch)
        assert_same_graph(load_dataset(data), cold)

    def test_failed_cache_write_still_loads_and_leaves_no_file(self, tmp_path, monkeypatch):
        data = saved_dataset(tmp_path / "data")
        refuse_writes(monkeypatch)
        loaded = load_dataset(data)
        assert sorted(path.name for path in data.iterdir()) == sorted(DATASET_FILES)
        monkeypatch.undo()
        assert_same_graph(loaded, load_dataset(data))
        assert sorted(path.name for path in data.iterdir()) == sorted(
            [*DATASET_FILES, CACHE_FILE])

    @pytest.mark.parametrize("name, text, message", [
        ("features.csv", b"1.0,x\n", "GraphParseError: {}/features.csv:1: bad feature value"),
        ("edges.txt", b"0 1\n0 1 2\n", "GraphParseError: {}/edges.txt:2: expected 'src dst'"),
        ("edges.txt", b"0 1\n-1 2\n", "GraphParseError: {}/edges.txt:2: negative node id"),
        ("edges.txt", b"0 30\n", "NodeIdError: {}/edges.txt:1: edge endpoint 30 >= 30 nodes"),
        ("edges.txt", b"0 \xff\n", "GraphParseError: {}/edges.txt: not UTF-8 text"),
        ("labels.csv", b"0,1\n0,1\n", "GraphParseError: {}/labels.csv:2: duplicate label"),
        ("labels.csv", b"0,1\n", "GraphParseError: {}/labels.csv: missing label for node 1"),
        ("splits.json", b'{"train": [0], "val": [0], "test": []}',
         "GraphParseError: {}/splits.json: split 'val' overlaps another split"),
        ("features.csv", None, "FileNotFoundError: [Errno 2] No such file or directory: "
                               "'{}/features.csv'"),
    ], ids=["feature", "edge-fields", "edge-sign", "edge-range", "edge-utf8", "label-repeat",
            "label-missing", "splits", "no-features"])
    def test_bad_file_fails_the_same_with_a_stale_cache_and_without(self, tmp_path, name,
                                                                    text, message):
        data = saved_dataset(tmp_path / "data")
        load_dataset(data)
        cache = (data / CACHE_FILE).read_bytes()
        if text is None:
            (data / name).unlink()
        else:
            (data / name).write_bytes(text)
        with_stale = load_error(data)
        assert with_stale.startswith(message.format(data))
        assert (data / CACHE_FILE).read_bytes() == cache
        (data / CACHE_FILE).unlink()
        assert load_error(data) == with_stale
        assert not (data / CACHE_FILE).exists()

    def test_errors_keep_the_parse_order(self, tmp_path):
        """A bad ``features.csv`` is named before a missing ``edges.txt``, as
        the parse reads features first."""
        data = saved_dataset(tmp_path / "data")
        (data / "features.csv").write_bytes(b"1.0,x\n")
        (data / "edges.txt").unlink()
        assert load_error(data).startswith(f"GraphParseError: {data}/features.csv:1:")

    @pytest.mark.parametrize("name, features, message", [
        ("labels.csv", None, "IsADirectoryError: [Errno 21] Is a directory: '{}/labels.csv'"),
        ("labels.csv", b"1.0,x\n", "GraphParseError: {}/features.csv:1: bad feature value"),
        ("splits.json", None, "IsADirectoryError: [Errno 21] Is a directory: '{}/splits.json'"),
    ], ids=["labels", "labels-after-bad-features", "splits"])
    def test_a_file_that_cannot_be_read_fails_when_the_parse_reaches_it(self, tmp_path, name,
                                                                       features, message):
        """The read error is kept until the parse reaches the file, so a bad
        ``features.csv`` is named first; no cache is written either way."""
        data = saved_dataset(tmp_path / "data")
        (data / name).unlink()
        (data / name).mkdir()
        if features is not None:
            (data / "features.csv").write_bytes(features)
        assert load_error(data).startswith(message.format(data))
        assert not (data / CACHE_FILE).exists()
