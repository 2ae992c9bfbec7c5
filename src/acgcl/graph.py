"""Graph data model, file ingestion and synthetic block-model generation.

A :class:`Graph` is an undirected graph held as edge keys plus a dense
feature matrix. The adjacency is the sorted unique int64 keys ``row * n + col``
of its nonzero entries, both directions of every edge included. Node ids are
0-based and contiguous; loaders reject out-of-range ids instead of remapping
them, which keeps index provenance explicit when debugging augmentations.

File formats (one directory per dataset):

* ``edges.txt``   : one ``src dst`` pair of decimal integers per line,
  whitespace separated; blank lines and lines starting with ``#`` ignored.
* ``features.csv``: one node per row, comma-separated reals; row count
  defines the number of nodes. An empty field (``1.0,,2.0`` or a trailing
  comma) is rejected, not skipped.
* ``labels.csv``  : optional, ``node_id,label`` with integer labels in
  [0, n_nodes) covering every node exactly once.
* ``splits.json`` : optional, ``{"train": [...], "val": [...], "test": [...]}``.

``load_dataset`` is the one reader: it reads each file once and parses
only those bytes. It keeps the parsed graph in ``.acgcl-cache.npz`` beside
the files, under ``util.cache_key`` of their bytes, and while neither they
nor the package's code change rebuilds the graph from the stored arrays
instead of parsing the text again. The run set-up keeps its subgraphs and
mirror search in ``.acgcl-inputs.npz`` in the same directory, under a key
of the same recipe (``trainer.curriculum_inputs``); ``save_dataset``
removes both caches.

A :class:`Graph` is a frozen dataclass checked once, when built;
``with_splits`` returns a new graph rather than changing its argument.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, GraphParseError, NodeIdError, ShapeError
from .util import ROLE_SPLITS, cache_key, read_keyed_npz, rng_for, write_keyed_npz

EDGE_FILE = "edges.txt"
FEATURE_FILE = "features.csv"
LABEL_FILE = "labels.csv"
SPLIT_FILE = "splits.json"
DATASET_FILES = (FEATURE_FILE, EDGE_FILE, LABEL_FILE, SPLIT_FILE)
CACHE_FILE = ".acgcl-cache.npz"
INPUTS_FILE = ".acgcl-inputs.npz"      # written by trainer.curriculum_inputs


@dataclass(frozen=True)
class Splits:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


@dataclass(frozen=True)
class Graph:
    """``adjacency`` is given as edge keys or a sparse 0/1 matrix (anything
    with ``.tocoo()``), and held as edge keys. Any other form, and a graph
    that breaks an invariant below, fails to build with a ShapeError."""
    features: np.ndarray            # (n_nodes, dim) float64
    adjacency: np.ndarray           # (n_edge_entries,) sorted unique row * n + col
    labels: np.ndarray | None = None
    splits: Splits | None = None

    def __post_init__(self):
        n = self.n_nodes
        keys = np.sort(_edge_keys(self.adjacency, n))   # np.unique would import numpy.ma
        object.__setattr__(self, "adjacency", keys[np.diff(keys, prepend=keys[:1] - 1) != 0])
        rows, cols = np.divmod(self.adjacency, n)
        if not np.array_equal(np.sort(cols * n + rows), self.adjacency):   # self loops allowed
            raise ShapeError("adjacency is not symmetric")
        if not np.isfinite(self.features).all():
            raise ShapeError("features contain non-finite values")
        if self.labels is not None:
            if self.labels.shape != (n,):
                raise ShapeError(f"labels shape {self.labels.shape}, expected ({n},)")
            if self.labels.min() < 0:
                raise ShapeError("negative label")
        if self.splits is not None:
            seen: set[int] = set()
            for name in ("train", "val", "test"):
                part = np.sort(getattr(self.splits, name))
                repeated = part[:-1][np.diff(part) == 0]
                if repeated.size:
                    raise ShapeError(f"split '{name}' lists node {repeated[0]} more than once")
                ids = set(part.tolist())
                if ids & seen:
                    raise ShapeError(f"split '{name}' overlaps another split")
                if part.size and (part[0] < 0 or part[-1] >= n):
                    raise ShapeError(f"split '{name}' has out-of-range node ids")
                seen |= ids
        self.adjacency.setflags(write=False)
        self.features.setflags(write=False)
        if self.labels is not None:
            self.labels.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        if self.labels is None:
            return 0
        return int(self.labels.max()) + 1

    def degrees(self) -> np.ndarray:
        """(n_nodes,) int64 entries per adjacency row; a self loop counts once."""
        return np.bincount(self.adjacency // self.n_nodes, minlength=self.n_nodes)


def _edge_keys(adjacency, n: int) -> np.ndarray:
    """Int64 keys row * n + col of the nonzero entries of an (n, n) 0/1
    adjacency given as keys (a 1-D integer array) or a sparse matrix
    (anything with ``.tocoo()``), in any order and maybe repeated."""
    if hasattr(adjacency, "tocoo"):
        coo = adjacency.tocoo()
        if tuple(coo.shape) != (n, n):
            raise ShapeError(f"adjacency is {tuple(coo.shape)}, expected ({n}, {n})")
        stored = coo.data != 0
        if not (coo.data[stored] == 1).all():
            raise ShapeError("adjacency entries must be 0 or 1")
        return coo.row[stored].astype(np.int64) * n + coo.col[stored]
    keys = np.asarray(adjacency)
    if keys.ndim != 1 or not (keys.size == 0 or np.issubdtype(keys.dtype, np.integer)):
        raise ShapeError(f"adjacency is a {keys.ndim}-d {keys.dtype} array, expected 1-d integer"
                         " edge keys or a sparse matrix (anything with .tocoo())")
    if keys.size and (keys.min() < 0 or keys.max() >= n * n):
        raise ShapeError(f"adjacency key out of range [0, {n * n}) for {n} nodes")
    return keys.astype(np.int64)


def _both_directions(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Edge keys of (possibly duplicated, directed) edge pairs in both
    directions; ``Graph`` sorts them and collapses the duplicates."""
    return np.concatenate([rows * n + cols, cols * n + rows])


def read_text(path: Path, data: bytes | None = None) -> str:
    """The text of an input file decoded as UTF-8, line ends as a text-mode
    read gives them; ``data`` is the file's bytes when the caller has already
    read them. Bytes that are not UTF-8 fail with a GraphParseError naming
    the file."""
    if data is None:
        data = path.read_bytes()
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"{path}: not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                              f"at offset {exc.start}") from None


def _text(path: Path, raw: dict) -> str:
    """The text of ``path``. ``raw`` maps each dataset path to its bytes, or
    to the OSError its read raised, which is raised here, so that a file
    fails when the parse reaches it. The bytes are taken out of ``raw``, so
    they are freed once decoded."""
    data = raw.pop(path)
    if isinstance(data, OSError):
        raise data
    return read_text(path, data)


def data_lines(path: Path, lines: list[str]):
    """(``path:lineno``, stripped text) of every one of a text file's
    ``lines`` that is neither blank nor a ``#`` comment, numbered from 1."""
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if text and not text.startswith("#"):
            yield f"{path}:{lineno}", text


def _read_features(path: Path, raw: dict) -> np.ndarray:
    """The (data lines, width) float64 features, filled row by row, so no
    more than one row of Python floats is alive at a time."""
    lines = _text(path, raw).splitlines()
    features = None
    for count, (where, text) in enumerate(data_lines(path, lines)):
        try:
            row = [float(p.strip()) for p in text.split(",")]
        except ValueError as exc:
            raise GraphParseError(f"{where}: bad feature value ({exc})") from None
        if features is None:
            features = np.empty((sum(1 for _ in data_lines(path, lines)), len(row)))
        elif len(row) != features.shape[1]:
            raise ShapeError(f"{where}: row has {len(row)} values, expected {features.shape[1]}")
        features[count] = row
    if features is None:
        raise GraphParseError(f"{path}: no feature rows")
    if not np.isfinite(features).all():
        first = int(np.isfinite(features).all(axis=1).argmin())
        where = [at for at, _ in data_lines(path, lines)][first]
        raise GraphParseError(f"{where}: non-finite feature value")
    return features


def _read_edges(path: Path, n_nodes: int, raw: dict) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = [], []
    for where, text in data_lines(path, _text(path, raw).splitlines()):
        parts = text.split()
        if len(parts) != 2:
            raise GraphParseError(f"{where}: expected 'src dst', got {text!r}")
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"{where}: non-integer endpoint in {text!r}") from None
        if src < 0 or dst < 0:
            raise GraphParseError(f"{where}: negative node id")
        if src >= n_nodes or dst >= n_nodes:
            raise NodeIdError(f"{where}: edge endpoint {max(src, dst)} >= {n_nodes} nodes")
        rows.append(src)
        cols.append(dst)
    return np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)


def _read_labels(path: Path, n_nodes: int, raw: dict) -> np.ndarray:
    labels = np.full(n_nodes, -1, dtype=np.int64)
    for where, text in data_lines(path, _text(path, raw).splitlines()):
        parts = text.split(",")
        if len(parts) != 2:
            raise GraphParseError(f"{where}: expected 'node_id,label', got {text!r}")
        try:
            node, label = int(parts[0].strip()), int(parts[1].strip())
        except ValueError:
            raise GraphParseError(f"{where}: non-integer field in {text!r}") from None
        if node < 0 or node >= n_nodes:
            raise NodeIdError(f"{where}: node id {node} out of range [0, {n_nodes})")
        if labels[node] != -1:
            raise GraphParseError(f"{where}: duplicate label for node {node}")
        if not 0 <= label < n_nodes:
            raise GraphParseError(f"{where}: label {label} out of range [0, {n_nodes})")
        labels[node] = label
    missing = np.flatnonzero(labels == -1)
    if missing.size:
        raise GraphParseError(f"{path}: missing label for node {missing[0]}")
    return labels


def load_dataset(directory) -> Graph:
    """The graph of a dataset directory, with its labels and splits if there.

    Each file is read once, and only those bytes are parsed. A read that
    fails is raised when the parse reaches that file, so the first bad file
    in parse order is named, and the cache is neither read nor written.
    Else ``cache_key`` of each file's name, presence and bytes, with no
    thread variable as the parse reads no BLAS, keys ``CACHE_FILE``: while
    it holds that key, the graph and its splits are rebuilt from its arrays
    in one ``Graph``, so every check runs again, once. On a miss the
    bytes are parsed and the cache written; a directory that cannot be
    written is parsed every time, and a cache that cannot be read is a miss."""
    directory = Path(directory)
    raw = {}
    for path in (directory / name for name in DATASET_FILES):
        try:            # labels and splits are optional: None when absent
            raw[path] = (path.read_bytes() if path.name in (FEATURE_FILE, EDGE_FILE)
                         or path.exists() else None)
        except OSError as exc:
            raw[path] = exc
    if any(isinstance(data, OSError) for data in raw.values()):
        return _parse_dataset(directory, raw)   # raises at the first bad file it reaches
    key = cache_key(*(part for path, data in raw.items()
                      for part in (f"{path.name} {data is not None}".encode(), data or b"")))
    graph = _cached_graph(directory / CACHE_FILE, key)
    if graph is None:
        graph = _parse_dataset(directory, raw)
        _write_cache(directory / CACHE_FILE, key, graph)
    return graph


def _parse_dataset(directory: Path, raw: dict) -> Graph:
    """The dataset parsed from ``raw`` (see ``_text``), features first, then
    edges, labels and splits; an optional file whose bytes are None is
    absent. The feature file defines the node count, and edge endpoints must
    stay below it. Directed input edges are symmetrized, duplicate edges
    collapse."""
    features = _read_features(directory / FEATURE_FILE, raw)
    n = features.shape[0]
    rows, cols = _read_edges(directory / EDGE_FILE, n, raw)
    label_path, split_path = directory / LABEL_FILE, directory / SPLIT_FILE
    labels = None if raw[label_path] is None else _read_labels(label_path, n, raw)
    graph = Graph(features=features, adjacency=_both_directions(n, rows, cols), labels=labels)
    if raw[split_path] is not None:
        text = _text(split_path, raw)
        try:   # bad JSON, nesting, keys or ids; ids out of range, repeated or in two splits
            graph = with_splits(graph, _parse_splits(json.loads(text)))
        except (ValueError, OverflowError, RecursionError) as exc:
            raise GraphParseError(f"{split_path}: {exc}") from None
    return graph


# The dtype and shape of each array a cache file may hold. Labels are
# optional, and the three splits are there together or not at all.
_CACHE_ARRAYS = {"features": (np.float64, (None, None)), "adjacency": (np.int64, (None,)),
                 "labels": (np.int64, (None,)), "train": (np.int64, (None,)),
                 "val": (np.int64, (None,)), "test": (np.int64, (None,))}


def _cached_graph(cache: Path, key: np.ndarray) -> Graph | None:
    """The graph stored in ``cache`` under ``key``; None when the file is
    missing, holds another key, or is not what ``_write_cache`` writes."""
    arrays = read_keyed_npz(cache, key, _CACHE_ARRAYS, optional=("labels", "train", "val", "test"))
    if arrays is None:
        return None
    try:
        splits = (Splits(arrays["train"], arrays["val"], arrays["test"])
                  if arrays.keys() & {"train", "val", "test"} else None)
        return Graph(arrays["features"], arrays["adjacency"], arrays.get("labels"), splits)
    except Exception:   # arrays that break a Graph invariant, or a split without the others
        return None


def _write_cache(cache: Path, key: np.ndarray, graph: Graph) -> None:
    arrays = {"features": graph.features, "adjacency": graph.adjacency,
              "labels": graph.labels, **(vars(graph.splits) if graph.splits else {})}
    write_keyed_npz(cache, key, {name: array for name, array in arrays.items()
                                 if array is not None})


def _parse_splits(raw) -> Splits:
    parts = {}
    for name in ("train", "val", "test"):
        ids = raw.get(name) if isinstance(raw, dict) else None
        if not isinstance(ids, list) or any(type(i) is not int for i in ids):
            raise GraphParseError(f"'{name}' must be a list of integer node ids")
        parts[name] = np.asarray(ids, dtype=np.int64)
    return Splits(**parts)


def save_dataset(graph: Graph, directory) -> None:
    """Write a graph in the load format; round-trips bit-exactly.

    The files are written into a temporary sibling of ``directory``, then
    moved into it, and a dataset file the graph has no part for is removed,
    as are both caches (``CACHE_FILE`` and ``INPUTS_FILE``).
    A write that fails therefore leaves the directory as it was, and no
    temporary directory; other files in the directory are not touched."""
    directory = Path(directory)
    directory.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{directory.name}.", suffix=".tmp",
                                    dir=directory.parent))
    try:
        rows, cols = np.divmod(graph.adjacency, graph.n_nodes)
        upper = rows <= cols
        (staging / EDGE_FILE).write_text(
            "".join(f"{i} {j}\n" for i, j in zip(rows[upper], cols[upper])))
        (staging / FEATURE_FILE).write_text(
            "".join(",".join(repr(float(v)) for v in row) + "\n" for row in graph.features))
        if graph.labels is not None:
            (staging / LABEL_FILE).write_text(
                "".join(f"{node},{int(label)}\n" for node, label in enumerate(graph.labels)))
        if graph.splits is not None:
            (staging / SPLIT_FILE).write_text(json.dumps(
                {name: [int(i) for i in getattr(graph.splits, name)]
                 for name in ("train", "val", "test")}))
        directory.mkdir(exist_ok=True)
        for name in (*DATASET_FILES, CACHE_FILE, INPUTS_FILE):
            if (staging / name).exists():
                os.replace(staging / name, directory / name)
            else:
                (directory / name).unlink(missing_ok=True)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


@dataclass(frozen=True)
class SbmConfig:
    """Stochastic block model: dense intra-block, sparse inter-block wiring,
    Gaussian features around a per-block center (1.0 at coordinate
    block % feature_dim), labels = block ids."""
    block_sizes: tuple[int, ...]
    p_intra: float
    p_inter: float
    feature_dim: int
    feature_noise: float = 1.0

    def __post_init__(self):
        if not self.block_sizes or any(b <= 0 for b in self.block_sizes):
            raise ConfigError("block_sizes: all block sizes must be positive")
        if not (0.0 <= self.p_inter <= self.p_intra <= 1.0):
            raise ConfigError("p_inter/p_intra: need 0 <= p_inter <= p_intra <= 1")
        if self.feature_dim <= 0:
            raise ConfigError("feature_dim: must be positive")
        if not (np.isfinite(self.feature_noise) and self.feature_noise >= 0):
            raise ConfigError(f"feature_noise: must be finite and >= 0, got {self.feature_noise}")


def generate_sbm(config: SbmConfig, seed: int) -> Graph:
    """Sample a block-model graph; identical seeds give identical graphs."""
    rng = np.random.default_rng(seed)
    sizes = np.asarray(config.block_sizes, dtype=np.int64)
    n = int(sizes.sum())
    starts = np.concatenate([[0], np.cumsum(sizes)])
    labels = np.repeat(np.arange(len(sizes)), sizes)

    rows, cols = [], []
    for bi in range(len(sizes)):
        for bj in range(bi, len(sizes)):
            p = config.p_intra if bi == bj else config.p_inter
            draw = rng.random((sizes[bi], sizes[bj]))
            hit = draw < p
            if bi == bj:
                hit = np.triu(hit, k=1)   # no self loops, each pair once
            r, c = np.nonzero(hit)
            rows.append(r + starts[bi])
            cols.append(c + starts[bj])
    rows = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    cols = np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)

    centers = np.zeros((len(sizes), config.feature_dim))
    centers[np.arange(len(sizes)), np.arange(len(sizes)) % config.feature_dim] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        features = centers[labels] + config.feature_noise * rng.standard_normal(
            (n, config.feature_dim))
    if not np.isfinite(features).all():
        raise ConfigError(f"feature_noise: {config.feature_noise} overflows the features")
    return Graph(
        features=features,
        adjacency=_both_directions(n, rows, cols),
        labels=labels,
    )


def check_split_fractions(train_frac: float, val_frac: float) -> None:
    if not (0 < train_frac and 0 < val_frac and train_frac + val_frac < 1):
        raise ConfigError(f"split_train/split_val: need 0 < split_train, 0 < split_val and "
                          f"split_train + split_val < 1, got {train_frac} and {val_frac}")


def make_splits(graph: Graph, seed: int, train_frac: float, val_frac: float) -> Splits:
    """Deterministic disjoint train/val/test node split via a seeded shuffle."""
    check_split_fractions(train_frac, val_frac)
    order = rng_for(seed, ROLE_SPLITS).permutation(graph.n_nodes)
    n_train = max(1, int(round(train_frac * graph.n_nodes)))
    n_val = int(round(val_frac * graph.n_nodes))
    return Splits(
        train=np.sort(order[:n_train]),
        val=np.sort(order[n_train:n_train + n_val]),
        test=np.sort(order[n_train + n_val:]),
    )


def with_splits(graph: Graph, splits: Splits) -> Graph:
    return Graph(graph.features, graph.adjacency, graph.labels, splits)
