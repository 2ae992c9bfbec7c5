import ctypes
import dataclasses
import inspect
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import acgcl
from acgcl.augment import semantic_assignment
from acgcl.cli import main
from acgcl.config import TrainConfig, parse_config
from acgcl.curriculum import pacing_difficulty
from acgcl.encoder import init_gcn_params
from acgcl.errors import ConfigError
from acgcl.graph import load_dataset
from acgcl.sampler import sample_all_subgraphs
from acgcl.trainer import save_checkpoint
from conftest import run_python
from oracles import per_pair_mirror_augment


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# just a comment\n\n")
        cfg = parse_config(path)
        assert cfg.subgraph_size == 20
        assert cfg.learning_rate == 0.001
        assert cfg.theta0 == 15.0
        assert cfg.max_difficulty == 50.0
        assert cfg.batch_size == 500
        assert cfg.acl_mode == "soft_acl"

    def test_file_values_and_override_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("subgraph_size = 12\nlearning_rate = 0.01\n")
        cfg = parse_config(path, overrides=["subgraph_size=5"])
        assert cfg.subgraph_size == 5
        assert cfg.learning_rate == 0.01

    def test_theta0_above_max_rejected_naming_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        for key, value in (("theta0", "60"), ("theta0", "0"), ("ramp_epochs", "0"),
                           ("split_train", "2.0"), ("sinkhorn_reg", "0"), ("sinkhorn_iters", "0"),
                           ("alpha", "-0.1"), ("probe_l2", "nan"), ("eta1", "nan"),
                           ("learning_rate", "inf"), ("seed", "-3")):
            path.write_text(f"{key} = {value}\n")
            with pytest.raises(ConfigError, match=rf"^{key}\b"):
                parse_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("subgraf_size = 5\n")
        with pytest.raises(ConfigError, match="subgraf_size"):
            parse_config(path)
        # quoted, so a control character in the key never reaches the terminal raw
        path.write_text("sub\x1bgraph = 3\n")
        with pytest.raises(ConfigError, match=r"unknown config key: 'sub\\x1bgraph'$") as caught:
            parse_config(path)
        assert "\x1b" not in str(caught.value)

    def test_type_mismatch_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("batch_size = many\n")
        with pytest.raises(ConfigError, match="batch_size"):
            parse_config(path)

    def test_auto_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("ramp_epochs = auto\nsinkhorn_reg = 0.05\n")
        cfg = parse_config(path)
        assert cfg.ramp_epochs is None
        assert cfg.sinkhorn_reg == 0.05
        assert pacing_difficulty(cfg.epochs, cfg) == cfg.max_difficulty

    def test_override_parsing_errors(self):
        with pytest.raises(ConfigError):
            parse_config(overrides=["no_equals_sign"])
        with pytest.raises(ConfigError):
            parse_config(overrides=["bogus_key=1"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.cfg")

    def test_round_trip_dict(self):
        cfg = TrainConfig(seed=7, subgraph_size=9)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("key, value", [
        ("subgraph_size", 20.5), ("embedding_dim", True), ("epochs", "3"),
        ("learning_rate", False), ("learning_rate", "0.1"), ("acl_mode", 1),
        ("seed", None), ("ramp_epochs", 4.0),
    ])
    def test_from_dict_rejects_a_value_of_the_wrong_type(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key}: expected"):
            TrainConfig.from_dict({**TrainConfig().to_dict(), key: value})

    def test_config_is_checked_when_built_and_frozen(self):
        """No TrainConfig breaks a range check: building one, or replacing a
        field of one, checks it, and no field can be assigned afterwards."""
        with pytest.raises(ConfigError, match="^batch_size: must be >= 2"):
            TrainConfig(batch_size=1)
        cfg = TrainConfig(seed=3)
        with pytest.raises(ConfigError, match=r"^teleport: must be in \(0, 1\)$"):
            dataclasses.replace(cfg, teleport=1.5)
        assert dataclasses.replace(cfg, teleport=0.5).teleport == 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.teleport = 1.5
        assert cfg.teleport == 0.15

    def test_from_dict_takes_ints_for_floats_and_none_where_admitted(self):
        cfg = TrainConfig.from_dict({"learning_rate": 1, "ramp_epochs": None,
                                     "sinkhorn_reg": None})
        assert type(cfg.learning_rate) is float and cfg.learning_rate == 1.0
        assert cfg.ramp_epochs is None and cfg.sinkhorn_reg is None


@pytest.fixture
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    code = main(["gen-sbm", "--blocks", "30,30", "--p-intra", "0.25", "--p-inter", "0.02",
                 "--feature-dim", "4", "--noise", "0.5", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture
def config_file(tmp_path, dataset_dir):
    path = tmp_path / "run.cfg"
    path.write_text(
        f"data_dir = {dataset_dir}\n"
        "subgraph_size = 5\n"
        "embedding_dim = 8\n"
        "epochs = 2\n"
        "inner_steps = 2\n"
        "batch_size = 20\n"
        "balance_max_points = 32\n"
        "sinkhorn_iters = 40\n"
        "seed = 1\n"
    )
    return path


class TestCli:
    def test_gen_sbm_writes_dataset(self, dataset_dir):
        assert (dataset_dir / "edges.txt").exists()
        assert (dataset_dir / "features.csv").exists()
        assert (dataset_dir / "labels.csv").exists()
        assert (dataset_dir / "splits.json").exists()

    def test_train_then_evaluate_reproduces_val_accuracy(self, tmp_path, config_file,
                                                         dataset_dir, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_file), "--out", str(out)]) == 0
        train_lines = capsys.readouterr().out.splitlines()
        reported = float(next(l for l in train_lines if l.startswith("final_val_accuracy=")).split("=")[1])
        assert (out / "checkpoint.json").exists()
        assert (out / "report.csv").exists()
        assert (out / "metrics.jsonl").exists()

        assert main(["evaluate", "--checkpoint", str(out / "checkpoint.json"),
                     "--data", str(dataset_dir)]) == 0
        eval_lines = capsys.readouterr().out.splitlines()
        val = float(next(l for l in eval_lines if l.startswith("val_accuracy=")).split("=")[1])
        assert val == reported

    def test_train_respects_set_overrides(self, tmp_path, config_file, capsys):
        out = tmp_path / "run2"
        assert main(["train", "--config", str(config_file), "--set", "epochs=1",
                     "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "epochs_run=1" in lines
        saved = json.loads((out / "checkpoint.json").read_text())
        assert saved["config"]["epochs"] == 1

    def test_augment_inspect_outputs(self, tmp_path, config_file, capsys):
        """Both adjacency CSVs and every replacement row equal the per-pair
        oracle at the printed gamma."""
        config = parse_config(config_file)
        graph = load_dataset(config.data_dir)
        subgraphs = sample_all_subgraphs(graph, config.subgraph_size, config.teleport)
        semantics = semantic_assignment(graph, config.semantics, config.degree_buckets)
        for node in (4, 35):   # both have positive and negative replacements at theta 40
            out = tmp_path / f"inspect-{node}"
            assert main(["augment-inspect", "--config", str(config_file), "--node", str(node),
                         "--theta", "40", "--out", str(out)]) == 0
            printed = dict(item.split("=", 1) for item in capsys.readouterr().out.split())
            sub = subgraphs[node]
            want = per_pair_mirror_augment(sub, float(printed["gamma"]), semantics)
            for name, adj in (("positive_adjacency.csv", want.positive_adjacency),
                              ("negative_adjacency.csv", want.negative_adjacency)):
                assert adj.shape == (5, 5)
                rows = [",".join(str(int(v)) for v in row) for row in adj]
                assert (out / name).read_text().splitlines() == rows
            parents = sub.parent_indices
            rows = ["polarity,a,b,a_parent,b_parent,c,d,c_parent,d_parent,"
                    "distance_sum,original_edge,mirror_edge"]
            for polarity, log in (("positive", want.stats.pos_replacements),
                                  ("negative", want.stats.neg_replacements)):
                assert log, f"node {node}: no {polarity} replacement to compare"
                rows += [",".join(map(str, (
                    polarity, r.a, r.b, parents[r.a], parents[r.b], r.c, r.d,
                    parents[r.c], parents[r.d], repr(float(r.distance_sum)),
                    r.original_edge, r.mirror_edge))) for r in log]
            assert (out / "replacements.csv").read_text().splitlines() == rows
            assert printed["positive_replacements"] == str(len(want.stats.pos_replacements))
            assert printed["negative_replacements"] == str(len(want.stats.neg_replacements))

    def test_augment_inspect_gamma_matches_training(self, tmp_path, config_file, capsys):
        """Both commands map a difficulty to gamma through the same run set-up."""
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_file), "--out", str(out)]) == 0
        records = map(json.loads, (out / "metrics.jsonl").read_text().splitlines())
        epochs = [r for r in records if r["kind"] == "epoch"]
        assert len(epochs) == 2
        capsys.readouterr()
        for record in epochs:
            assert main(["augment-inspect", "--config", str(config_file), "--node", "0",
                         "--theta", repr(record["theta"]), "--out", str(tmp_path / "inspect")]
                        ) == 0
            printed = dict(item.split("=", 1) for item in capsys.readouterr().out.split())
            assert float(printed["gamma"]) == record["gamma"]

    def test_validate_difficulty_single_theta_and_determinism(self, tmp_path, config_file,
                                                              capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["validate-difficulty", "--config", str(config_file), "--grid", "30",
                "--set", "epochs=1"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_text() == out_b.read_text()
        rows = out_a.read_text().splitlines()
        assert rows[0] == "theta,mean_loss,std"
        assert len(rows) == 2

    def test_errors_exit_nonzero_with_class_prefix(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        code = main(["train", "--config", str(missing), "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ConfigError:")

    def test_bad_override_reports_key(self, tmp_path, config_file, capsys):
        code = main(["train", "--config", str(config_file), "--set", "theta0=60",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "theta0" in capsys.readouterr().err

    def test_sinkhorn_reg_below_the_kernel_range_fails_with_one_line(self, tmp_path,
                                                                    config_file, capsys):
        code = main(["train", "--config", str(config_file), "--set", "sinkhorn_reg=1e-9",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("ConfigError: sinkhorn_reg: max cost / reg = ")
        assert err[0].endswith(" exceeds 600")
        assert not (tmp_path / "x" / "metrics.jsonl").exists()

    def test_failed_rerun_leaves_no_earlier_outputs(self, tmp_path, config_file, capsys):
        """A failed train into the directory of an earlier run leaves none of
        that run's outputs to pass for its own."""
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_file), "--out", str(out)]) == 0
        assert main(["train", "--config", str(config_file), "--set", "sinkhorn_reg=1e-9",
                     "--out", str(out)]) == 1
        for name in ("checkpoint.json", "report.csv", "metrics.jsonl"):
            assert not (out / name).exists()

    @pytest.mark.parametrize("argv, key", [
        (["validate-difficulty", "--grid", "10,150"], "grid"),
        (["validate-difficulty", "--grid", "nan"], "grid"),
        (["augment-inspect", "--node", "0", "--theta", "-1"], "theta"),
    ], ids=["grid-above", "grid-nan", "theta-below"])
    def test_difficulty_outside_0_100_fails_before_setup(self, tmp_path, config_file, capsys,
                                                         monkeypatch, argv, key):
        import acgcl.cli

        def no_setup(*args):
            raise AssertionError("the dataset was loaded")

        monkeypatch.setattr(acgcl.cli, "load_dataset", no_setup)
        assert main([argv[0], "--config", str(config_file), *argv[1:],
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"ConfigError: {key}: ")
        assert err[0].endswith(" is not in [0, 100]")

    @pytest.mark.parametrize("settings, key", [
        *[([f"--noise={value}"], "feature_noise") for value in ("nan", "inf", "-inf")],
        (["--noise=1e308"], "feature_noise"),
    ], ids=[*(f"{value}-noise" for value in ("nan", "inf", "-inf")), "overflow"])
    def test_gen_sbm_non_finite_feature_setting_fails_before_writing(self, tmp_path, settings,
                                                                     key):
        """In a fresh process, so that a numpy warning counts as a line."""
        out = tmp_path / "data"
        done = run_python("-m", "acgcl.cli", "gen-sbm", "--blocks", "20,20", "--p-intra", "0.3",
                          "--p-inter", "0.01", *settings, "--out", str(out))
        err = done.stderr.splitlines()
        assert done.returncode == 1
        assert len(err) == 1 and err[0].startswith(f"ConfigError: {key}: "), err
        assert not out.exists()

    def test_gen_sbm_negative_seed_fails_before_writing(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["gen-sbm", "--blocks", "20,20", "--p-intra", "0.3", "--p-inter", "0.01",
                     "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["ConfigError: seed: must be >= 0"]
        assert not out.exists()

    @pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "degree-bucket"])
    def test_report_is_the_epoch_records(self, tmp_path, config_file, dataset_dir, labeled):
        """report.csv is the report columns of the metrics.jsonl epoch
        records, null read as nan."""
        overrides = []
        if not labeled:
            data = tmp_path / "unlabeled"
            data.mkdir()
            for name in ("edges.txt", "features.csv"):
                (data / name).write_bytes((dataset_dir / name).read_bytes())
            overrides = ["--set", f"data_dir={data}", "--set", "semantics=degree-bucket"]
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_file), "--out", str(out)] + overrides) == 0
        records = map(json.loads, (out / "metrics.jsonl").read_text().splitlines())
        epochs = [r for r in records if r["kind"] == "epoch"]
        assert len(epochs) == 2
        assert all((r["val_accuracy"] is None) != labeled for r in epochs)
        header, *rows = (out / "report.csv").read_text().splitlines()
        columns = header.split(",")
        assert columns == ["epoch", "theta", "gamma", "lambda1", "lambda2", "mean_loss",
                           "active_fraction", "val_accuracy"]
        want = [[np.nan if r[c] is None else float(r[c]) for c in columns] for r in epochs]
        got = [[float(v) for v in row.split(",")] for row in rows]
        np.testing.assert_array_equal(got, want)


class TestCheckpointFeatureWidth:
    """A checkpoint trained on another feature width fails in one line that
    names the checkpoint and both widths."""

    @pytest.mark.parametrize("command", ["evaluate", "validate-difficulty"])
    def test_fails_with_one_line(self, tmp_path, config_file, dataset_dir, capsys, command):
        wide = tmp_path / "wide"
        assert main(["gen-sbm", "--blocks", "30,30", "--p-intra", "0.25", "--p-inter", "0.02",
                     "--feature-dim", "7", "--seed", "1", "--out", str(wide)]) == 0
        ckpt = tmp_path / "ckpt"
        assert main(["train", "--config", str(config_file), "--set", f"data_dir={wide}",
                     "--set", "patience=0", "--out", str(ckpt)]) == 0
        capsys.readouterr()
        path = ckpt / "checkpoint.json"
        if command == "evaluate":
            argv = ["evaluate", "--checkpoint", str(path), "--data", str(dataset_dir)]
        else:
            argv = ["validate-difficulty", "--config", str(config_file), "--checkpoint",
                    str(path), "--out", str(tmp_path / "curve.csv")]
        code = main(argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1, err
        assert err[0].startswith(f"ShapeError: {path}: ")
        assert "takes 7 features" in err[0] and "has 4" in err[0]


class TestMalformedCheckpoint:
    """A checkpoint that cannot be read fails ``evaluate`` and
    ``validate-difficulty --checkpoint`` with one ConfigError line that
    names the file."""

    @pytest.mark.parametrize("text, reason", [
        ('{"format_version": 1, "config": {}}', "'params'"),
        ("not a checkpoint", "Expecting value"),
        ('{"format_version": 2, "config": {}, "params": {}}', "format version 2"),
        ("[1, 2]", "format version None"),
        ('{"format_version": 1, "config": {"no_such_key": 1}, '
         '"params": {"weights": [[[1.0]]], "slopes": [0.25]}}', "no_such_key"),
        ('{"format_version": 1, "config": {}, '
         '"params": {"weights": [[[1.0, 2.0], [3.0]]], "slopes": [0.25]}}', "sequence"),
        ('{"format_version": 1, "config": {}, "params": {"weights": [], "slopes": []}}',
         "0 weight matrices"),
        ('{"format_version": 1, "config": {"subgraph_size": 20.5}, '
         '"params": {"weights": [[[1.0]]], "slopes": [0.25]}}', "subgraph_size: expected int"),
        ('{"format_version": 1, "config": {"embedding_dim": true}, '
         '"params": {"weights": [[[1.0]]], "slopes": [0.25]}}', "embedding_dim: expected int"),
    ], ids=["no-params", "not-json", "version-2", "not-an-object", "unknown-config-key",
            "ragged-weights", "no-layers", "fractional-int-config", "bool-int-config"])
    @pytest.mark.parametrize("command", ["evaluate", "validate-difficulty"])
    def test_fails_with_one_line(self, tmp_path, config_file, dataset_dir, capsys, command,
                                 text, reason):
        path = tmp_path / "checkpoint.json"
        path.write_text(text)
        if command == "evaluate":
            argv = ["evaluate", "--checkpoint", str(path), "--data", str(dataset_dir)]
        else:
            argv = ["validate-difficulty", "--config", str(config_file), "--checkpoint",
                    str(path), "--out", str(tmp_path / "curve.csv")]
        code = main(argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1, err
        assert err[0].startswith(f"ConfigError: {path}: ")
        assert reason in err[0]


class TestRetiredConfigKeys:
    """Checkpoints written while the probe had a step budget and a step size,
    or while TrainConfig had a patience margin, a loss normalisation, a
    Sinkhorn tolerance, a distance sample budget and a distance metric, echo
    those keys in their config; they still load, and the keys are gone
    everywhere else."""

    def test_checkpoint_with_the_retired_keys_evaluates_the_same(self, tmp_path, config_file,
                                                                 dataset_dir, capsys):
        assert main(["train", "--config", str(config_file), "--set", "epochs=1",
                     "--out", str(tmp_path / "run")]) == 0
        current = tmp_path / "run" / "checkpoint.json"
        payload = json.loads(current.read_text())
        payload["config"].update(probe_iters=500, probe_lr=0.5, improvement_tol=0.0001,
                                 normalize_weighted_loss=False, sinkhorn_tol=1e-6,
                                 dis_sample_budget=50000, distance_metric="manhattan")
        old = tmp_path / "old_checkpoint.json"
        old.write_text(json.dumps(payload))
        printed = []
        for path in (current, old):
            capsys.readouterr()
            assert main(["evaluate", "--checkpoint", str(path), "--data", str(dataset_dir)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert printed[0].splitlines()[2].startswith("probe_grad_norm=")

    @pytest.mark.parametrize("key", ["probe_iters", "probe_lr", "improvement_tol",
                                     "normalize_weighted_loss", "sinkhorn_tol",
                                     "dis_sample_budget", "distance_metric"])
    def test_config_file_and_set_reject_them(self, tmp_path, key, config_file, capsys):
        """``train`` exits 1 with one line naming the file and the key's line."""
        path = tmp_path / "retired.cfg"
        path.write_text(f"{config_file.read_text()}{key} = 1\n")
        line = len(path.read_text().splitlines())
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == \
            f"ConfigError: {path}:{line}: unknown config key: '{key}'\n"
        assert not (tmp_path / "run").exists()
        with pytest.raises(ConfigError, match=f"unknown config key: '{key}'$"):
            parse_config(overrides=[f"{key}=1"])
        assert key not in TrainConfig().to_dict()


class TestProbeL2MustBePositive:
    """At probe_l2 = 0 the probe objective has no minimiser when the train
    split is separable, so a config file, ``--set`` and a checkpoint's config
    echo all reject it in one line naming the key."""

    def test_config_file_and_set_reject_zero(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("probe_l2 = 0\n")
        with pytest.raises(ConfigError, match="^probe_l2: must be positive$"):
            parse_config(path)
        with pytest.raises(ConfigError, match="^probe_l2: must be positive$"):
            parse_config(overrides=["probe_l2=0.0"])

    def test_checkpoint_echo_rejects_zero(self, tmp_path, dataset_dir, capsys):
        path = tmp_path / "checkpoint.json"
        path.write_text('{"format_version": 1, "config": {"probe_l2": 0.0}, '
                        '"params": {"weights": [[[1.0]]], "slopes": [0.25]}}')
        code = main(["evaluate", "--checkpoint", str(path), "--data", str(dataset_dir)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"ConfigError: {path}: bad checkpoint: probe_l2: must be positive"]


@pytest.mark.parametrize("text", ["", "\n  \n\t\n", "# one\n# two\n"],
                         ids=["empty", "blank-lines", "comment-lines"])
def test_evaluate_without_feature_rows_prints_one_line(tmp_path, dataset_dir, text):
    """A ``features.csv`` with no rows fails a fresh ``evaluate`` process
    with one stderr line, and no warning from the one-call parse."""
    checkpoint = tmp_path / "checkpoint.json"
    config = TrainConfig(embedding_dim=8)
    save_checkpoint(init_gcn_params(4, config.embedding_dim, config.gcn_layers, config.seed),
                    config, checkpoint)
    features = dataset_dir / "features.csv"
    features.write_text(text)
    done = run_python("-m", "acgcl.cli", "evaluate", "--checkpoint", str(checkpoint),
                      "--data", str(dataset_dir))
    assert done.returncode == 1
    assert done.stderr.splitlines() == [f"GraphParseError: {features}: no feature rows"]


def _weights_checkpoint(weights, slopes):
    params = {"weights": [np.asarray(w).tolist() for w in weights], "slopes": slopes}
    return json.dumps({"format_version": 1, "config": {}, "params": params})


class TestMalformedWeights:
    """Weights that are not matrices, layer widths that do not chain,
    slopes that are not scalars and non-finite entries fail ``evaluate`` and
    ``validate-difficulty --checkpoint`` with one ConfigError line that
    names the file, before any matmul sees them (the data has 4 features)."""

    @pytest.mark.parametrize("text, reason", [
        (_weights_checkpoint([np.full(4, 0.1)], [0.25]), "weight 0 has shape (4,), not a matrix"),
        (_weights_checkpoint([np.full((4, 8, 1), 0.1)], [0.25]),
         "weight 0 has shape (4, 8, 1), not a matrix"),
        (_weights_checkpoint([np.full((4, 8), 0.1), np.full((5, 8), 0.1)], [0.25, 0.25]),
         "weight 0 gives 8 columns, weight 1 takes 5 rows"),
        (_weights_checkpoint([np.full((4, 8), 0.1)], [[0.25, 0.5]]),
         "slope 0 has shape (2,), not a scalar"),
        (_weights_checkpoint([np.full((4, 8), 0.1), np.full((8, 8), np.nan)], [0.25, 0.25]),
         "weight 1 has a non-finite entry"),
        (_weights_checkpoint([np.full((4, 8), 0.1)], [float("inf")]), "slope 0 is not finite"),
    ], ids=["vector-weight", "3d-weight", "widths-do-not-chain", "vector-slope", "nan-weight",
            "infinite-slope"])
    @pytest.mark.parametrize("command", ["evaluate", "validate-difficulty"])
    def test_fails_with_one_line(self, tmp_path, config_file, dataset_dir, capsys, command,
                                 text, reason):
        path = tmp_path / "checkpoint.json"
        path.write_text(text)
        if command == "evaluate":
            argv = ["evaluate", "--checkpoint", str(path), "--data", str(dataset_dir)]
        else:
            argv = ["validate-difficulty", "--config", str(config_file), "--checkpoint",
                    str(path), "--out", str(tmp_path / "curve.csv")]
        code = main(argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1, err
        assert err[0].startswith(f"ConfigError: {path}: ")
        assert reason in err[0]


class TestCheckpointContradictsItsConfig:
    """A checkpoint whose weights do not match its own config's layer count
    or embedding width fails ``evaluate`` and ``validate-difficulty
    --checkpoint`` with one ConfigError line."""

    @pytest.mark.parametrize("changed, reason", [
        ({"gcn_layers": 2}, "1 weight matrices with 8 output columns, but the config has "
                            "gcn_layers = 2 and embedding_dim = 8"),
        ({"embedding_dim": 64}, "1 weight matrices with 8 output columns, but the config has "
                                "gcn_layers = 1 and embedding_dim = 64"),
        ({"gcn_layers": 2, "embedding_dim": 64}, "gcn_layers = 2 and embedding_dim = 64"),
    ], ids=["layers", "width", "both"])
    @pytest.mark.parametrize("command", ["evaluate", "validate-difficulty"])
    def test_fails_with_one_line(self, tmp_path, config_file, dataset_dir, capsys, command,
                                 changed, reason):
        path = tmp_path / "checkpoint.json"
        config = TrainConfig(embedding_dim=8)
        save_checkpoint(init_gcn_params(4, 8, 1, config.seed), config, path)
        payload = json.loads(path.read_text())
        payload["config"].update(changed)
        path.write_text(json.dumps(payload))
        if command == "evaluate":
            argv = ["evaluate", "--checkpoint", str(path), "--data", str(dataset_dir)]
        else:
            argv = ["validate-difficulty", "--config", str(config_file), "--checkpoint",
                    str(path), "--out", str(tmp_path / "curve.csv")]
        code = main(argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"ConfigError: {path}: bad checkpoint: "), err
        assert reason in err[0]
        assert not (tmp_path / "curve.csv").exists()


class TestValidateDifficultySetUp:
    def test_trains_and_draws_the_curve_from_one_set_up(self, tmp_path, config_file,
                                                        monkeypatch):
        """Without a checkpoint, the run set-up and the mirror search run once
        and serve both the training and the curve."""
        import acgcl.cli
        import acgcl.trainer
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for module, name in ((acgcl.cli, "curriculum_inputs"),
                             (acgcl.trainer, "curriculum_inputs"),
                             (acgcl.trainer, "mirror_search")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        assert main(["validate-difficulty", "--config", str(config_file), "--grid", "20,40",
                     "--set", "epochs=1", "--out", str(tmp_path / "curve.csv")]) == 0
        assert sorted(calls) == ["curriculum_inputs", "mirror_search"]


@pytest.mark.parametrize("command, outputs", [
    (["validate-difficulty", "--grid", "20,40", "--set", "epochs=1",
      "--out", "{out}/difficulty_curve.csv"], ["difficulty_curve.csv"]),
    (["augment-inspect", "--node", "0", "--theta", "40", "--out", "{out}"],
     ["negative_adjacency.csv", "positive_adjacency.csv", "replacements.csv"]),
], ids=["validate-difficulty", "augment-inspect"])
def test_failed_write_keeps_the_previous_file(tmp_path, config_file, monkeypatch, capsys,
                                              command, outputs):
    """A write of any one output file that fails half-way exits 1 in one
    line and leaves every earlier output file whole, with no temp file
    beside it."""
    out = tmp_path / "out"
    argv = [a.replace("{out}", str(out)) for a in command] + ["--config", str(config_file)]
    assert main(argv) == 0
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    assert sorted(before) == outputs
    write_text = Path.write_text
    for failing in outputs:
        def half_then_full_disk(self, text, failing=failing):
            if failing not in self.name:
                return write_text(self, text)
            with open(self, "w") as fh:
                fh.write(text[:len(text) // 2])
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_text", half_then_full_disk)
        capsys.readouterr()
        assert main(argv + ["--set", "theta0=10"]) == 1
        assert capsys.readouterr().err == "OSError: no space left on device\n"
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before, failing


def _drop_val(raw):
    del raw["val"]


class TestMalformedSplits:
    """A bad ``splits.json`` fails ``evaluate`` with one line that names it."""

    @pytest.mark.parametrize("corrupt, reason", [
        (_drop_val, "'val'"),
        (lambda raw: raw["test"].append(999), "out-of-range"),     # 60-node graph
        (lambda raw: raw["train"].append(1.5), "integer"),
        (lambda raw: raw["test"].append(raw["train"][0]), "overlaps"),
        (lambda raw: raw["val"].append(raw["train"][0]), "overlaps"),
        (lambda raw: "truncated", "line 1"),
        (lambda raw: raw["test"].extend(raw["test"][:5]), "split 'test' lists node"),
    ], ids=["missing-val", "id-out-of-range", "non-integer-id", "train-id-in-test",
            "train-id-in-val", "truncated-json", "repeated-test-ids"])
    def test_evaluate_fails_with_one_line(self, tmp_path, config_file, dataset_dir,
                                          capsys, corrupt, reason):
        out = tmp_path / "ckpt"
        assert main(["train", "--config", str(config_file), "--set", "patience=0",
                     "--out", str(out)]) == 0
        path = dataset_dir / "splits.json"
        text = path.read_text()
        raw = json.loads(text)
        if corrupt(raw) == "truncated":
            path.write_text(text[:len(text) // 2])
        else:
            path.write_text(json.dumps(raw))
        capsys.readouterr()
        code = main(["evaluate", "--checkpoint", str(out / "checkpoint.json"),
                     "--data", str(dataset_dir)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"GraphParseError: {path}: "), err
        assert reason in err[0]


class TestEmptyProbeSplit:
    """A labeled run whose probe split has an empty part fails in one line
    that names the part, before sampling and before ``--out`` is touched."""

    @pytest.fixture
    def no_sampling(self, monkeypatch):
        import acgcl.trainer

        def refuse(*args):
            raise AssertionError("subgraphs were sampled")

        monkeypatch.setattr(acgcl.trainer, "sample_all_subgraphs", refuse)

    def test_gen_sbm_rejects_split_val_zero(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["gen-sbm", "--blocks", "20,20", "--p-intra", "0.3", "--p-inter", "0.02",
                     "--split-val", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ConfigError: split_train/split_val: "), err
        assert not out.exists()

    def test_config_split_val_zero_fails_before_training(self, tmp_path, config_file, capsys,
                                                         no_sampling):
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_file), "--set", "split_val=0",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ConfigError: split_train/split_val: "), err
        assert not out.exists()

    def test_rounded_away_config_split_fails_naming_it(self, tmp_path, config_file,
                                                       dataset_dir, capsys, no_sampling):
        (dataset_dir / "splits.json").unlink()
        out = tmp_path / "run"
        # 0.005 of 60 nodes rounds to an empty validation split
        assert main(["train", "--config", str(config_file), "--set", "split_val=0.005",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("ConfigError: split 'val' from split_train/split_val is empty")
        assert not out.exists()

    @pytest.mark.parametrize("part", ["train", "val", "test"])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_empty_part_of_splits_json_fails_naming_it(self, tmp_path, config_file,
                                                       dataset_dir, capsys, no_sampling,
                                                       command, part):
        ckpt = tmp_path / "ckpt"       # patience 0 stops before sampling
        assert main(["train", "--config", str(config_file), "--set", "patience=0",
                     "--out", str(ckpt)]) == 0
        path = dataset_dir / "splits.json"
        raw = json.loads(path.read_text())
        raw["val" if part == "test" else "test"] += raw[part]
        raw[part] = []
        path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        argv = (["train", "--config", str(config_file), "--out", str(out)] if command == "train"
                else ["evaluate", "--checkpoint", str(ckpt / "checkpoint.json"),
                      "--data", str(dataset_dir)])
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"ConfigError: split '{part}' from splits.json is empty")
        assert not out.exists()


class TestUnlabeledData:
    """Data without ``labels.csv`` fails in one line before any sampling when
    a command needs labels: the probe of ``evaluate``, or ``semantics =
    label`` in a run's set-up."""

    @pytest.fixture
    def unlabeled(self, tmp_path, dataset_dir, monkeypatch):
        import acgcl.trainer

        def refuse(*args):
            raise AssertionError("subgraphs were sampled")

        data = tmp_path / "unlabeled"
        data.mkdir()
        for name in ("edges.txt", "features.csv", "splits.json"):
            (data / name).write_bytes((dataset_dir / name).read_bytes())
        monkeypatch.setattr(acgcl.trainer, "sample_all_subgraphs", refuse)
        return data

    def test_evaluate(self, tmp_path, config_file, unlabeled, capsys):
        ckpt = tmp_path / "ckpt"       # patience 0 stops before sampling
        assert main(["train", "--config", str(config_file), "--set", "patience=0",
                     "--out", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(ckpt / "checkpoint.json"),
                     "--data", str(unlabeled)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"ContractError: {unlabeled}: no labels.csv; evaluate probes node labels"]

    @pytest.mark.parametrize("command", ["train", "augment-inspect", "validate-difficulty"])
    def test_label_semantics(self, tmp_path, config_file, unlabeled, capsys, command):
        argv = {"train": ["--out", str(tmp_path / "run")],
                "augment-inspect": ["--node", "0", "--theta", "30", "--out", str(tmp_path / "i")],
                "validate-difficulty": ["--out", str(tmp_path / "curve.csv")]}[command]
        assert main([command, "--config", str(config_file), "--set", f"data_dir={unlabeled}",
                     *argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["ConfigError: semantics: kind 'label' requires a labeled graph"]


class TestOneValuePerSetting:
    """A run setting takes its value from TrainConfig or SbmConfig alone. A
    library default restating it would give a caller who leaves the argument
    out a second copy; ``semantic_assignment``'s kind and buckets are the one
    exception, which the benchmark's own test relies on."""

    @pytest.mark.parametrize("module, function, parameter", [
        ("sampler", "compute_ppr_scores", "teleport"),
        ("sampler", "sample_all_subgraphs", "teleport"),
        ("augment", "mirror_augment", "metric"),
        ("encoder", "init_gcn_params", "n_layers"),
        ("encoder", "init_gcn_params", "seed"),
        ("graph", "make_splits", "train_frac"),
        ("graph", "make_splits", "val_frac"),
        ("trainer", "evaluate_probe", "l2"),
    ])
    def test_library_parameter_has_no_default(self, module, function, parameter):
        signature = inspect.signature(getattr(getattr(acgcl, module), function))
        assert signature.parameters[parameter].default is inspect.Parameter.empty
        assert not hasattr(acgcl.sampler, "DEFAULT_TELEPORT")


def test_commands_run_without_scipy(tmp_path):
    """Every command runs on numpy alone: after ``gen-sbm``, ``train``,
    ``evaluate``, ``augment-inspect`` and ``validate-difficulty`` no scipy
    module has been imported."""
    script = (
        "import sys\n"
        "from acgcl.cli import main\n"
        "data, run = sys.argv[1], sys.argv[2]\n"
        "keys = ['--set', 'data_dir=' + data, '--set', 'subgraph_size=5']\n"
        "assert main(['gen-sbm', '--blocks', '20,20', '--p-intra', '0.3', '--p-inter', '0.02',"
        " '--feature-dim', '4', '--seed', '1', '--out', data]) == 0\n"
        "assert main(['train', '--config', '/dev/null', *keys, '--set', 'embedding_dim=8',"
        " '--set', 'epochs=1', '--set', 'inner_steps=1', '--out', run]) == 0\n"
        "assert main(['evaluate', '--checkpoint', run + '/checkpoint.json', '--data', data]) == 0\n"
        "assert main(['augment-inspect', '--config', '/dev/null', *keys, '--node', '3',"
        " '--theta', '30', '--out', run + '/inspect']) == 0\n"
        "assert main(['validate-difficulty', '--config', '/dev/null', *keys, '--checkpoint',"
        " run + '/checkpoint.json', '--grid', '10,30', '--out', run + '/curve.csv']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    done = run_python("-c", script, str(tmp_path / "data"), str(tmp_path / "run"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_commands_run_without_numpy_ma(tmp_path):
    """No command imports ``numpy.ma``, whose import ``np.median``,
    ``np.percentile``, ``np.quantile`` and ``np.unique`` pay on their first
    call. The commands run in one process, each after the last, and the
    first to load it is named."""
    checkpoint = tmp_path / "checkpoint.json"
    save_checkpoint(init_gcn_params(4, 8, 1, 0), TrainConfig(embedding_dim=8), checkpoint)
    script = (
        "import sys\n"
        "from acgcl.cli import main\n"
        "data, checkpoint, out = sys.argv[1], sys.argv[2], sys.argv[3]\n"
        "config = out + '/run.cfg'\n"
        "commands = [\n"
        "    ['gen-sbm', '--blocks', '20,20', '--p-intra', '0.3', '--p-inter', '0.02',\n"
        "     '--feature-dim', '4', '--seed', '1', '--out', data],\n"
        "    ['evaluate', '--checkpoint', checkpoint, '--data', data],\n"
        "    ['train', '--config', config, '--out', out + '/run'],\n"
        "    ['augment-inspect', '--config', config, '--node', '0', '--theta', '30',\n"
        "     '--out', out + '/inspect'],\n"
        "    ['validate-difficulty', '--config', config, '--checkpoint', checkpoint,\n"
        "     '--grid', '10,30', '--out', out + '/curve.csv']]\n"
        "open(config, 'w').write(f'data_dir = {data}\\nsubgraph_size = 5\\nembedding_dim = 8\\n'\n"
        "                        'batch_size = 20\\nepochs = 1\\ninner_steps = 2\\n')\n"
        "for argv in commands:\n"
        "    assert main(argv) == 0, argv\n"
        "    if 'numpy.ma' in sys.modules:\n"
        "        print(argv[0])\n"
        "        break\n"
        "else:\n"
        "    print('none')\n")
    done = run_python("-c", script, str(tmp_path / "data"), str(checkpoint), str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "none"


def test_readme_key_table_names_every_config_field():
    """The README key table names exactly the TrainConfig fields, and its
    default column, read as ``--set`` values, gives the TrainConfig defaults."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| key | default | meaning |\n", 1)[1].split("\n\n", 1)[0]
    named, defaults = [], []
    for row in table.splitlines()[1:]:
        cells = row.split("|")
        keys = re.findall(r"`([a-z0-9_]+)`", cells[1])
        values = [v.strip() for v in cells[2].split(" / ")]
        assert len(keys) == len(values), row
        named += keys
        defaults += ["" if v == "–" else v for v in values]
    assert sorted(named) == sorted(f.name for f in fields(TrainConfig))
    documented = parse_config(overrides=[f"{k}={v}" for k, v in zip(named, defaults)])
    assert documented.to_dict() == TrainConfig().to_dict()


GLIBC_HEAP_BLOCKS = """
import ctypes, sys
import numpy as np
from acgcl.cli import main

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks",
        "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = Mallinfo2
assert main(["gen-sbm", "--blocks", "10,10", "--p-intra", "0.3", "--p-inter", "0.02",
             "--out", sys.argv[1]]) == 0
before = libc.mallinfo2().hblks
block = np.ones(1 << 19)            # 4 MiB
print(before, libc.mallinfo2().hblks)
"""


def test_main_keeps_multi_mb_blocks_on_the_heap(tmp_path):
    """Once ``main`` has run, a 4 MiB array comes from the heap, not from a
    fresh mmap, so freeing it does not hand it back to the kernel."""
    try:
        ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError, TypeError):
        pytest.skip("needs glibc 2.33 or later (mallinfo2)")
    done = run_python("-c", GLIBC_HEAP_BLOCKS, str(tmp_path / "data"))
    assert done.returncode == 0, done.stderr
    before, after = map(int, done.stdout.splitlines()[-1].split())
    assert after == before


class _NoMallopt:
    pass


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("fake_cdll", [lambda name: _NoMallopt(), _no_libc],
                         ids=["no-mallopt", "no-libc"])
def test_main_runs_without_mallopt(tmp_path, monkeypatch, capsys, fake_cdll):
    monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
    out = tmp_path / "data"
    assert main(["gen-sbm", "--blocks", "10,10", "--p-intra", "0.3", "--p-inter", "0.02",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("nodes=20 ")
    assert (out / "edges.txt").exists()
