"""Command-line surface.

Subcommands:
  train                full curriculum training on a dataset directory
  evaluate             probe a saved checkpoint on a dataset
  augment-inspect      dump mirror graphs and the replacement log for one node
  validate-difficulty  frozen-encoder loss across a difficulty grid
  gen-sbm              write a synthetic block-model dataset

On bad input or settings (an ``AcgclError``) or a failed file operation (an
``OSError``) every command exits 1, printing one "ErrorClass: message" line
to stderr. Any other exception is a bug and ends in a traceback. The
checkpoint, report and CSV files of train, augment-inspect and
validate-difficulty go through ``util.write_atomic``, so a failed write
leaves the previous file whole; gen-sbm's dataset goes through
``graph.save_dataset``, which moves its files into place only once all are
written.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from pathlib import Path

import numpy as np

from .augment import quantile
from .config import TrainConfig, parse_config
from .errors import AcgclError, ConfigError
from .graph import SbmConfig, generate_sbm, make_splits, save_dataset, with_splits, load_dataset
from .trainer import (check_feature_width, curriculum_inputs, difficulty_curve,
                      evaluate_checkpoint, load_checkpoint, probe_splits, save_checkpoint,
                      train, write_report)
from .util import write_atomic


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="acgcl")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train on the dataset named in the config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--set", dest="overrides", action="append", default=[],
                         metavar="KEY=VALUE")
    p_train.add_argument("--out", required=True, help="output directory")

    p_eval = sub.add_parser("evaluate", help="probe a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)

    p_inspect = sub.add_parser("augment-inspect",
                               help="dump mirror graphs for one node at a difficulty")
    p_inspect.add_argument("--config", required=True)
    p_inspect.add_argument("--node", type=int, required=True)
    p_inspect.add_argument("--theta", type=float, required=True)
    p_inspect.add_argument("--set", dest="overrides", action="append", default=[])
    p_inspect.add_argument("--out", default=".", help="output directory")

    p_diff = sub.add_parser("validate-difficulty",
                            help="frozen-encoder loss across a difficulty grid")
    p_diff.add_argument("--config", required=True)
    p_diff.add_argument("--grid", default="10,20,30,40,50")
    p_diff.add_argument("--checkpoint", default=None,
                        help="encoder to freeze; trains one from the config when absent")
    p_diff.add_argument("--set", dest="overrides", action="append", default=[])
    p_diff.add_argument("--out", default="difficulty_curve.csv")

    p_sbm = sub.add_parser("gen-sbm", help="write a synthetic block-model dataset")
    p_sbm.add_argument("--blocks", required=True, help="comma-separated block sizes")
    p_sbm.add_argument("--p-intra", type=float, required=True)
    p_sbm.add_argument("--p-inter", type=float, required=True)
    p_sbm.add_argument("--feature-dim", type=int, default=16)
    p_sbm.add_argument("--noise", type=float, default=SbmConfig.feature_noise)
    p_sbm.add_argument("--seed", type=int, default=0)
    p_sbm.add_argument("--split-train", type=float, default=TrainConfig.split_train)
    p_sbm.add_argument("--split-val", type=float, default=TrainConfig.split_val)
    p_sbm.add_argument("--out", required=True, help="output directory")
    return parser


def _load_config_and_graph(config_path, overrides) -> tuple[TrainConfig, object]:
    config = parse_config(config_path, overrides)
    if not config.data_dir:
        raise ConfigError("data_dir: config must name a dataset directory")
    return config, load_dataset(config.data_dir)


def _lines(rows) -> str:
    """CSV text: each row's fields joined by commas, one line per row."""
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def _check_difficulty(name: str, value: float) -> None:
    """Reject a difficulty percentile outside [0, 100] before any set-up."""
    if not (0.0 <= value <= 100.0):
        raise ConfigError(f"{name}: {value!r} is not in [0, 100]")


def _cmd_train(args) -> int:
    config, graph = _load_config_and_graph(args.config, args.overrides)
    if graph.labels is not None:
        probe_splits(graph, config)     # fail on an empty split before any work
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # a failed run must not leave an earlier run's outputs looking like its own
    for name in ("checkpoint.json", "report.csv", "metrics.jsonl"):
        (out / name).unlink(missing_ok=True)
    params, epochs = train(graph, config, metrics_path=out / "metrics.jsonl")
    save_checkpoint(params, config, out / "checkpoint.json")
    write_report(epochs, out / "report.csv")
    final = epochs[-1]["val_accuracy"] if epochs else None
    print(f"epochs_run={len(epochs)}")
    print(f"final_val_accuracy={float('nan') if final is None else final!r}")
    print(f"checkpoint={out / 'checkpoint.json'}")
    return 0


def _cmd_evaluate(args) -> int:
    scores = evaluate_checkpoint(args.checkpoint, args.data)
    print(f"val_accuracy={scores['val_accuracy']!r}")
    print(f"test_accuracy={scores['test_accuracy']!r}")
    print(f"probe_grad_norm={scores['probe_grad_norm']!r}")
    print(f"probe_steps={scores['probe_steps']}")
    return 0


def _cmd_augment_inspect(args) -> int:
    _check_difficulty("theta", args.theta)
    config, graph = _load_config_and_graph(args.config, args.overrides)
    if not (0 <= args.node < graph.n_nodes):
        raise ConfigError(f"node: {args.node} out of range [0, {graph.n_nodes})")
    subgraphs, search = curriculum_inputs(graph, config)
    gamma = quantile(search.distances, args.theta)
    search = search[args.node:args.node + 1]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (positive,), (negative,) = search.adjacencies(gamma)
    for name, adj in (("positive_adjacency.csv", positive), ("negative_adjacency.csv", negative)):
        write_atomic(out / name, _lines(adj.astype(np.int64).tolist()))
    parents = subgraphs.parent_indices[args.node]
    log = search.replacements(gamma)
    rows = [("polarity", "a", "b", "a_parent", "b_parent", "c", "d", "c_parent", "d_parent",
             "distance_sum", "original_edge", "mirror_edge")]
    for polarity, columns in zip(("positive", "negative"), log):
        for a, b, c, d, distance_sum, original, mirror in zip(*columns):
            rows.append((polarity, a, b, parents[a], parents[b], c, d, parents[c], parents[d],
                         repr(float(distance_sum)), original, mirror))
    write_atomic(out / "replacements.csv", _lines(rows))
    print(f"node={args.node} theta={args.theta} gamma={gamma!r}")
    print(f"positive_replacements={len(log[0][0])} negative_replacements={len(log[1][0])}")
    print(f"out={out}")
    return 0


def _cmd_validate_difficulty(args) -> int:
    try:
        grid = [float(v) for v in args.grid.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"grid: cannot parse {args.grid!r}") from None
    if not grid:
        raise ConfigError("grid: needs at least one difficulty value")
    for theta in grid:
        _check_difficulty("grid", theta)
    config, graph = _load_config_and_graph(args.config, args.overrides)
    if args.checkpoint:
        params, _ = load_checkpoint(args.checkpoint)
        check_feature_width(params, graph, args.checkpoint)
    subgraphs, search = curriculum_inputs(graph, config)
    if not args.checkpoint:
        params, _ = train(graph, config, inputs=(subgraphs, search))
    rows = difficulty_curve(params, subgraphs, search, grid, config.xi)
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(out, _lines([("theta", "mean_loss", "std"), *(map(repr, row) for row in rows)]))
    for theta, mean, std in rows:
        print(f"theta={theta} mean_loss={mean!r} std={std!r}")
    return 0


def _cmd_gen_sbm(args) -> int:
    try:
        blocks = tuple(int(v) for v in args.blocks.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"blocks: cannot parse {args.blocks!r}") from None
    if args.seed < 0:
        raise ConfigError("seed: must be >= 0")
    sbm = SbmConfig(block_sizes=blocks, p_intra=args.p_intra, p_inter=args.p_inter,
                    feature_dim=args.feature_dim, feature_noise=args.noise)
    graph = generate_sbm(sbm, args.seed)
    graph = with_splits(graph, make_splits(graph, args.seed, args.split_train, args.split_val))
    save_dataset(graph, args.out)
    n_edges = len(graph.adjacency) // 2
    print(f"nodes={graph.n_nodes} edges={n_edges} classes={graph.n_classes} out={args.out}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "augment-inspect": _cmd_augment_inspect,
    "validate-difficulty": _cmd_validate_difficulty,
    "gen-sbm": _cmd_gen_sbm,
}


def _fix_malloc_policy() -> None:
    """On glibc, keep blocks under 32 MiB on the heap and trim it only past
    1 GiB: freed training temporaries are reused, not faulted in again.
    Without a glibc ``mallopt`` (musl, macOS, Windows) nothing is set."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD: the most every 64-bit glibc takes
    mallopt(-1, 1 << 30)        # M_TRIM_THRESHOLD; either stops the dynamic threshold


def main(argv=None) -> int:
    _fix_malloc_policy()
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (AcgclError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
