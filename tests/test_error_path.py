"""One error path: a command that fails prints one ``ErrorClass: message``
line whose class is an ``AcgclError`` or an ``OSError``, and exits 1."""

import contextlib
import io
import json
import re
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from acgcl.augment import quantile
from acgcl.cli import main
from acgcl.config import TrainConfig
from acgcl.curriculum import pacing_difficulty
from acgcl.errors import AcgclError, ConfigError, NodeIdError, SizeError
from acgcl.graph import load_dataset
from acgcl.sampler import compute_ppr_scores
from conftest import graph_from_edges

DATA_FILES = ("edges.txt", "features.csv", "labels.csv", "splits.json")
CONFIG_FILE = "run.cfg"
CHECKPOINT_FILE = "checkpoint.json"
BASE_CONFIG = ("subgraph_size = 4\nembedding_dim = 4\nbatch_size = 8\nepochs = 1\n"
               "inner_steps = 1\nsinkhorn_iters = 10\nbalance_max_points = 16\n"
               "patience = 1\nseed = 1\n")


def config_for(data):
    """The bytes of a train config for the dataset directory ``data``."""
    return f"data_dir = {data}\n{BASE_CONFIG}".encode()


def file_in(root, name):
    """Where the file ``name`` lives under ``root``: data files in ``data``."""
    return root / "data" / name if name in DATA_FILES else root / name


def _subclass_names(cls):
    names = {cls.__name__}
    for sub in cls.__subclasses__():
        names |= _subclass_names(sub)
    return names


def run_cli(argv):
    """(exit code, stderr text) of an in-process ``acgcl`` command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_one_error_line(code, err):
    assert code == 1
    assert err.count("\n") == 1 and err.endswith("\n"), err
    name, sep, _ = err.partition(": ")
    assert sep and name in _subclass_names(AcgclError) | _subclass_names(OSError), err


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The bytes of each file of a 40-node ``gen-sbm`` dataset, and of the
    checkpoint that ``BASE_CONFIG`` trains on it."""
    root = tmp_path_factory.mktemp("base")
    assert run_cli(["gen-sbm", "--blocks", "20,20", "--p-intra", "0.3", "--p-inter", "0.03",
                    "--feature-dim", "4", "--seed", "1", "--out", str(root / "data")]) == (0, "")
    (root / CONFIG_FILE).write_bytes(config_for(root / "data"))
    assert run_cli(["train", "--config", str(root / CONFIG_FILE), "--out", str(root)]) == (0, "")
    return {name: file_in(root, name).read_bytes() for name in (*DATA_FILES, CHECKPOINT_FILE)}


@pytest.fixture
def dataset(tmp_path, base):
    """A fresh copy of ``base``: the data directory, the config pointing at
    it and the checkpoint."""
    (tmp_path / "data").mkdir()
    for name, content in {**base, CONFIG_FILE: config_for(tmp_path / "data")}.items():
        file_in(tmp_path, name).write_bytes(content)
    return tmp_path


def _write(tmp_path, texts):
    """``tmp_path`` with a file of each name and text in ``texts``."""
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    return tmp_path


@pytest.mark.parametrize("call, cls, builtin", [
    (lambda tmp: load_dataset(_write(tmp, {"edges.txt": "0 5\n", "features.csv": "1\n2\n"})),
     NodeIdError, IndexError),
    (lambda tmp: load_dataset(_write(tmp, {"edges.txt": "", "features.csv": "1\n2\n",
                                           "labels.csv": "0,0\n7,1\n"})),
     NodeIdError, IndexError),
    (lambda tmp: compute_ppr_scores(graph_from_edges(2, [(0, 1)]), teleport=1.0),
     ConfigError, ValueError),
    (lambda tmp: quantile(np.arange(3.0), 100.5),
     ConfigError, ValueError),
    (lambda tmp: pacing_difficulty(-1, TrainConfig()), SizeError, ValueError),
], ids=["edge-endpoint", "label-node-id", "teleport", "theta", "epoch"])
def test_range_errors_are_acgcl_errors_with_their_builtin_base(tmp_path, call, cls, builtin):
    with pytest.raises(cls) as info:
        call(tmp_path)
    assert isinstance(info.value, AcgclError) and isinstance(info.value, builtin)


@pytest.mark.parametrize("name", [*DATA_FILES, CONFIG_FILE, CHECKPOINT_FILE])
def test_a_byte_that_is_not_utf8_fails_in_one_line_naming_the_file(dataset, name):
    path = file_in(dataset, name)
    data = path.read_bytes()
    at = len(data) // 2
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    if name == CHECKPOINT_FILE:
        argv = ["evaluate", "--checkpoint", str(path), "--data", str(dataset / "data")]
    else:
        argv = ["train", "--config", str(dataset / CONFIG_FILE), "--out", str(dataset / "run")]
    code, err = run_cli(argv)
    assert_one_error_line(code, err)
    if name == CHECKPOINT_FILE:
        assert err.startswith(f"ConfigError: {path}: bad checkpoint: ")
    else:
        assert err == f"GraphParseError: {path}: not UTF-8 text: byte 0xff at offset {at}\n"


@pytest.mark.parametrize("name, cls", [("splits.json", "GraphParseError"),
                                       (CHECKPOINT_FILE, "ConfigError")])
def test_json_nested_too_deep_fails_in_one_line_naming_the_file(dataset, name, cls):
    path = file_in(dataset, name)
    path.write_text("[" * 100_000)
    code, err = run_cli(["evaluate", "--checkpoint", str(dataset / CHECKPOINT_FILE),
                         "--data", str(dataset / "data")])
    assert_one_error_line(code, err)
    assert err.startswith(f"{cls}: {path}: ") and "recursion" in err


def test_checkpoint_number_too_large_for_a_float_fails_in_one_line(dataset):
    path = dataset / CHECKPOINT_FILE
    raw = json.loads(path.read_text())
    raw["params"]["slopes"] = [10 ** 400]
    path.write_text(json.dumps(raw))
    code, err = run_cli(["evaluate", "--checkpoint", str(path), "--data", str(dataset / "data")])
    assert (code, err) == (1, f"ConfigError: {path}: bad checkpoint: "
                              "int too large to convert to float\n")


def test_nul_in_data_dir_fails_in_one_line(dataset):
    config = dataset / CONFIG_FILE
    config.write_bytes(config.read_bytes().replace(b"data_dir = ", b"data_dir = \0", 1))
    code, err = run_cli(["train", "--config", str(config), "--out", str(dataset / "run")])
    assert (code, err) == (1, "ConfigError: data_dir: must not contain a NUL character\n")


@pytest.mark.parametrize("command", ["train", "augment-inspect"])
def test_an_edgeless_graph_fails_in_one_line_with_no_outputs(dataset, command):
    """Without edges every subgraph is its centre padded, so no pair has two
    distinct parents and no difficulty has a gamma."""
    (dataset / "data" / "edges.txt").write_text("")
    out = dataset / "run"
    argv = {"train": ["train"],
            "augment-inspect": ["augment-inspect", "--node", "0", "--theta", "40"]}[command]
    code, err = run_cli([*argv, "--config", str(dataset / CONFIG_FILE), "--out", str(out)])
    assert (code, err) == (1, "EmptyDistributionError: no subgraph contains two distinct "
                              "nodes\n")
    assert not (out / "metrics.jsonl").exists()
    assert not (out / "positive_adjacency.csv").exists()


# Size keys and the largest value a mutated config or checkpoint may give
# them: more would take long or need a lot of memory.
SIZE_CAPS = {"subgraph_size": 12, "embedding_dim": 16, "batch_size": 64, "epochs": 3,
             "inner_steps": 3, "sinkhorn_iters": 50, "balance_max_points": 64,
             "degree_buckets": 8}
TOKENS = [b"0", b"1", b"2", b"3", b"-1", b"39", b"40", b"9999", b"9" * 20, b"9" * 400, b"0.5",
          b"-0.0", b"1e-300", b"1e300", b"-1e308", b"nan", b"inf", b"-inf", b"1e400", b"NaN",
          b"Infinity", b"x", b"", b"#", b"=", b",", b"auto", b"none", b"true", b"null", b"spl",
          b"degree-bucket", b"1_0", "١٢".encode(), "\xa0".encode(), b"\x1f", b"\xff",
          b"\xe3\x81", b"[", b"]", b"{}", b"[]", b'"x"', b"[" * 100_000]
LINES = [b"0 9999", b"9999,0", b"0,0", b"39 0", b"0 1 2", b"1.0,2.0,3.0,4.0", b"nan,1,2,3",
         b"1,2", b"#", b"  ", b"\xff\xfe", b"epochs = 2", b"subgraph_size = 3",
         b"teleport = 1", b"no_such_key = 1", b"acl_mode = spl", b"semantics = degree-bucket",
         b"gcn_layers = 2", b"probe_l2 = 0", b'{"train": [0], "val": [1], "test": [2]}']
NON_DIGIT_BYTES = st.integers(0, 255).filter(lambda b: not 0x30 <= b <= 0x39)
KINDS = ("token", "swap", "line-drop", "line-dup", "line-insert", "append", "byte-set",
         "byte-insert", "byte-drop", "truncate", "remove")
TOKEN = re.compile(rb'[^\s,:=\[\]{}"]+')


@st.composite
def cases(draw):
    """A command and one to three mutations of the files it reads, each
    (file, kind, position, second position, payload)."""
    command = draw(st.sampled_from(["train", "evaluate"]))
    files = (*DATA_FILES, CONFIG_FILE if command == "train" else CHECKPOINT_FILE)
    mutations = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(KINDS))
        if kind in ("byte-set", "byte-insert"):
            payload = bytes([draw(NON_DIGIT_BYTES)])
        elif kind in ("line-insert", "append"):
            payload = draw(st.sampled_from(LINES)) + b"\n"
        else:
            payload = draw(st.sampled_from(TOKENS))
        mutations.append((draw(st.sampled_from(files)), kind, draw(st.integers(0, 1 << 16)),
                          draw(st.integers(0, 1 << 16)), payload))
    return command, mutations


def mutate(data, kind, at, at2, payload):
    """``data`` after one mutation; None for a removed file."""
    tokens = list(TOKEN.finditer(data))
    lines = data.split(b"\n")
    if kind == "remove":
        return None
    if kind in ("token", "swap") and tokens:
        first, second = tokens[at % len(tokens)], tokens[at2 % len(tokens)]
        if kind == "token":
            return data[:first.start()] + payload + data[first.end():]
        first, second = sorted((first, second), key=lambda m: m.start())
        if first.start() == second.start():
            return data
        return (data[:first.start()] + second.group() + data[first.end():second.start()]
                + first.group() + data[second.end():])
    if kind == "line-drop":
        del lines[at % len(lines)]
    elif kind == "line-dup":
        lines.insert(at % len(lines), lines[at2 % len(lines)])
    elif kind == "line-insert":
        lines.insert(at % len(lines), payload.rstrip(b"\n"))
    elif kind == "append":
        return data + payload
    elif kind == "byte-set" and data:
        at %= len(data)
        return data[:at] + payload + data[at + 1:]
    elif kind == "byte-insert":
        at %= len(data) + 1
        return data[:at] + payload + data[at:]
    elif kind == "byte-drop" and data:
        at %= len(data)
        return data[:at] + data[at + 1:]
    elif kind == "truncate":
        return data[:at % (len(data) + 1)]
    return b"\n".join(lines)


def sizes_fit(files):
    """Whether every size key the config or the checkpoint's config echo
    sets is at most its cap."""
    values = []
    if files.get(CONFIG_FILE) is not None:
        for line in files[CONFIG_FILE].decode("utf-8", "replace").splitlines():
            key, _, value = line.partition("=")
            if key.strip() in SIZE_CAPS:
                values.append((key.strip(), value.strip()))
    if files.get(CHECKPOINT_FILE) is not None:
        try:
            config = json.loads(files[CHECKPOINT_FILE]).get("config")
        except (ValueError, RecursionError, AttributeError):
            config = None
        if isinstance(config, dict):
            values += [(key, value) for key, value in config.items() if key in SIZE_CAPS]
    for key, value in values:
        try:
            number = int(value)
        except (TypeError, ValueError):
            continue
        if number > SIZE_CAPS[key]:
            return False
    return True


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cases())
# an edge endpoint past the last node (to both commands), a byte that is not
# UTF-8, JSON nested too deep, a checkpoint slope (token 94) too large for a
# float, NUL in data_dir
@example(case=("train", [("edges.txt", "append", 0, 0, b"0 9999\n")]))
@example(case=("evaluate", [("edges.txt", "append", 0, 0, b"0 9999\n")]))
@example(case=("evaluate", [("labels.csv", "byte-set", 5, 0, b"\xff")]))
@example(case=("evaluate", [("splits.json", "token", 0, 0, b"[" * 100_000)]))
@example(case=("evaluate", [(CHECKPOINT_FILE, "token", 94, 0, b"9" * 400)]))
@example(case=("train", [(CONFIG_FILE, "byte-set", 12, 0, b"\x00")]))
def test_mutated_inputs_succeed_or_fail_in_one_line(tmp_path, base, case):
    """Mutations of the four data files, the config and the checkpoint, by
    token, line and byte (invalid UTF-8 included), through an in-process
    ``train`` or ``evaluate``: exit 0, or exit 1 with one line whose class
    is an ``AcgclError`` or an ``OSError``.

    A mutated size key (``SIZE_CAPS``) keeps a value that fits in memory and
    runs in seconds: byte mutations write no digit, and an example whose
    config or checkpoint sets a size key above its cap is skipped. What a
    command does at a size that does not fit is another question.
    """
    command, mutations = case
    work = tmp_path / "work"
    data = work / "data"
    files = {**base, CONFIG_FILE: config_for(data)}
    for name, *mutation in mutations:
        if files[name] is not None:
            files[name] = mutate(files[name], *mutation)
    assume(sizes_fit(files))
    shutil.rmtree(work, ignore_errors=True)
    data.mkdir(parents=True)
    for name, content in files.items():
        if content is not None:
            file_in(work, name).write_bytes(content)
    if command == "train":
        argv = ["train", "--config", str(work / CONFIG_FILE), "--out", str(work / "run")]
    else:
        argv = ["evaluate", "--checkpoint", str(work / CHECKPOINT_FILE), "--data", str(data)]
    code, err = run_cli(argv)
    if code != 0:
        assert_one_error_line(code, err)
