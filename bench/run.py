"""Benchmark for acgcl: one seeded workload per run, driven through the CLI.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates its inputs from the seed, then starts a fresh process per
``acgcl`` command (``bench/child.py``) with the BLAS and OpenMP pools pinned
to one thread. Untraced runs repeat the command ``max(1, S // nominal)``
times, time set-up at least SETUP_SAMPLES times and report medians; traced runs make one untraced and one traced
command and report per-layer figures. Output checks run after the timed
commands. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 only
when every command and every check succeeded.

See bench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from inputs import Sbm, make_dataset, write_config, write_dataset

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
DEADLINE_S = 170.0
# Set-up is timed at least this often per untraced run: commands beyond the
# full ones stop as soon as their main work begins.
SETUP_SAMPLES = 3

# One BLAS/OpenMP thread, and the command's process bound to one CPU: on a
# 2-core machine either the pools or migrations between the cores made wall
# time wander by more than the effects the benchmark should resolve.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

TRAIN_SBM = Sbm(blocks=(100, 100, 100), p_intra=0.15, p_inter=0.005, feature_dim=16, noise=1.0)
EMBED_SBM = Sbm(blocks=(400,) * 6, p_intra=0.025, p_inter=0.001, feature_dim=256, noise=0.5)


@dataclass(frozen=True)
class Workload:
    command: str                  # "train" or "evaluate"
    sbm: Sbm
    config: dict = field(default_factory=dict)
    nominal_s: float = 10.0       # expected length of one command
    picks: int = 2                # nodes whose outputs are checked in detail


WORKLOADS = {
    # Default objective: Sinkhorn and the tape dominate, the sampler is idle.
    "train-sinkhorn": Workload("train", TRAIN_SBM, {"epochs": 2, "inner_steps": 4}),
    # k = 30 makes the per-epoch O(k^4) mirror search the main cost.
    "train-mirror": Workload("train", TRAIN_SBM, {
        "subgraph_size": 30, "epochs": 3, "inner_steps": 2,
        "balance_max_points": 64, "sinkhorn_iters": 50}),
    # n > DENSE_CUTOFF: PageRank takes the power-iteration path.
    "embed-2400": Workload("evaluate", EMBED_SBM, {"embedding_dim": 128}, nominal_s=20.0, picks=4),
}

# Metric names and units come from BENCHMARK.json, the benchmark's definition.
# A per-layer time "x.y_s" is the self time of the spans called "x.y".
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in DEFINITION["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DEFINITION["per_layer"]}
CALL_COUNTS = {"sampler.subgraphs": "sampler.extract", "augment.mirror_calls": "augment.mirror",
               "augment.distance_calls": "augment.distance",
               "losses.sinkhorn_calls": "losses.sinkhorn_fwd", "trainer.steps": "trainer.step"}

LOSS_COLUMNS = {"step": ("mean_sample_loss", "weighted_loss", "balance_loss", "mean_intra",
                         "mean_inter"),
                "epoch": ("mean_loss",)}
PROBE_MARGIN = 0.15       # trained probe over the raw-feature baseline
PPR_ATOL = 1e-6           # PageRank scores this close to the top-k cut are ties


class Tally:
    """Counts attempted and failed operations and keeps the failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ACGCL_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def run_command(run_dir: Path, name: str, spec: dict, deadline: float) -> dict:
    """Start ``child.py`` on ``spec`` and time it from spawn to exit."""
    spec = dict(spec, src=str(SRC), cpu=max(os.sched_getaffinity(0)),
                result=str(run_dir / f"{name}.json"),
                spans=str(run_dir / f"{name}.spans.jsonl"))
    spec_path = run_dir / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(run_dir / f"{name}.stdout", "w") as out, open(run_dir / f"{name}.stderr", "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                                stdout=out, stderr=err, env=child_env(), cwd=run_dir)
        try:
            proc.wait(timeout=max(1.0, deadline - start))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        end = time.monotonic()
    result = json.loads(Path(spec["result"]).read_text()) if proc.returncode == 0 else {}
    result.update(returncode=proc.returncode, start=start, end=end,
                  stdout=(run_dir / f"{name}.stdout").read_text())
    return result


def cli_in_process(argv: list[str]) -> str:
    """Run an untimed ``acgcl`` command here (checks, inputs); return stdout."""
    import acgcl.cli
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = acgcl.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"acgcl {' '.join(argv)} exited with {code}")
    return buffer.getvalue()


def parse_keys(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# Workload set-up and checks

def prepare(workload: Workload, seed: int, run_dir: Path):
    data = make_dataset(workload.sbm, seed)
    write_dataset(data, run_dir / "data")
    config = dict(seed=seed, data_dir=str(run_dir / "data"), **workload.config)
    write_config(run_dir / "run.cfg", config)
    picks = np.random.default_rng([seed, 0x9C]).choice(data.n_nodes, workload.picks, replace=False)
    picks = sorted(int(v) for v in picks)
    if workload.command == "train":
        argv = ["train", "--config", str(run_dir / "run.cfg"), "--out", "{out}"]
        marker = ["acgcl.trainer", "run_inner_step"]
    else:
        # A seeded, untrained checkpoint: train stops before its first epoch
        # at patience 0. Evaluation cost does not depend on the weights.
        cli_in_process(["train", "--config", str(run_dir / "run.cfg"), "--set", "patience=0",
                        "--out", str(run_dir / "ckpt")])
        argv = ["evaluate", "--checkpoint", str(run_dir / "ckpt" / "checkpoint.json"),
                "--data", str(run_dir / "data")]
        marker = ["acgcl.sampler", "sample_all_subgraphs"]
    return data, config, picks, argv, marker


def samples_of(workload: Workload, config: dict, data, out_dir: Path) -> int:
    if workload.command == "evaluate":
        return data.n_nodes
    epochs_run = sum(1 for r in read_jsonl(out_dir / "metrics.jsonl") if r.get("kind") == "epoch")
    return epochs_run * config["inner_steps"] * min(config.get("batch_size", 500), data.n_nodes)


def check_subgraphs(tally: Tally, data, config: dict, picks, captured: dict) -> None:
    parents = captured.get("parents", {})
    k = config.get("subgraph_size", 20)
    rows = checks.ppr_rows(data, config.get("teleport", 0.15), picks)
    for node, scores in zip(picks, rows):
        if str(node) not in parents:
            tally.check(f"subgraph of node {node} was not captured")
            continue
        tally.check(checks.check_topk(node, scores, parents[str(node)], k, PPR_ATOL))


def check_train(tally: Tally, data, config, picks, run_dir: Path, reps: list[dict]) -> float:
    out = run_dir / "rep0"
    records = read_jsonl(out / "metrics.jsonl")
    epochs = [r for r in records if r.get("kind") == "epoch"]
    steps = [r for r in records if r.get("kind") == "step"]
    tally.check(None if len(epochs) == config["epochs"] else
                f"{len(epochs)} epochs recorded, expected {config['epochs']}")
    tally.check(checks.check_non_decreasing("theta", [r.get("theta") for r in epochs]))
    tally.check(checks.check_non_decreasing("gamma", [r.get("gamma") for r in epochs]))
    tally.check(checks.check_finite_columns(steps, LOSS_COLUMNS["step"]))
    tally.check(checks.check_finite_columns(epochs, LOSS_COLUMNS["epoch"]))
    outputs = [tuple((run_dir / r["name"] / f).read_bytes()
                     for f in ("checkpoint.json", "metrics.jsonl", "report.csv")) for r in reps]
    tally.check(checks.check_identical("checkpoints and metrics", outputs))
    check_subgraphs(tally, data, config, picks, reps[0].get("captured", {}))

    # Mirror graphs of the picked nodes at every epoch's difficulty, dumped by
    # the CLI and compared with a brute-force search.
    parents = reps[0].get("captured", {}).get("parents", {})
    for epoch in epochs:
        for node in picks:
            inspect_dir = run_dir / "inspect" / f"{node}-{epoch['epoch']}"
            printed = parse_keys(cli_in_process([
                "augment-inspect", "--config", str(run_dir / "run.cfg"), "--node", str(node),
                "--theta", repr(epoch["theta"]), "--out", str(inspect_dir)]).replace(" ", "\n"))
            positive = np.loadtxt(inspect_dir / "positive_adjacency.csv", delimiter=",", ndmin=2)
            negative = np.loadtxt(inspect_dir / "negative_adjacency.csv", delimiter=",", ndmin=2)
            gamma = float(printed.get("gamma", "nan"))
            tally.check(None if gamma == epoch["gamma"] else
                        f"augment-inspect gamma {gamma!r} != epoch {epoch['epoch']} gamma {epoch['gamma']!r}")
            tally.check(checks.check_symmetric_zero_diagonal(f"positive mirror of {node}", positive)
                        or checks.check_symmetric_zero_diagonal(f"negative mirror of {node}", negative))
            if str(node) not in parents:
                tally.check(f"subgraph of node {node} was not captured")
                continue
            tally.check(checks.check_mirror(data, parents[str(node)], gamma, positive, negative))

    scores = parse_keys(cli_in_process(["evaluate", "--checkpoint", str(out / "checkpoint.json"),
                                        "--data", str(run_dir / "data")]))
    probe_acc = float(scores["test_accuracy"])
    tally.check(checks.check_beats_baseline(probe_acc, checks.raw_feature_accuracy(data), PROBE_MARGIN))
    return probe_acc


def check_evaluate(tally: Tally, data, config, picks, run_dir: Path, reps: list[dict]) -> float:
    from acgcl.trainer import load_checkpoint

    tally.check(checks.check_identical("evaluate outputs", [r["stdout"] for r in reps]))
    scores = parse_keys(reps[0]["stdout"])
    n_classes = int(data.labels.max()) + 1
    for split in ("val", "test"):
        tally.check(checks.check_above_chance(f"{split}_accuracy",
                                              float(scores.get(f"{split}_accuracy", "nan")), n_classes))
    captured = reps[0].get("captured", {})
    check_subgraphs(tally, data, config, picks, captured)
    params, _ = load_checkpoint(run_dir / "ckpt" / "checkpoint.json")
    weights = [w.value for w in params.weights]
    slopes = [float(s.value) for s in params.slopes]
    parents = captured.get("parents", {})
    embeddings = captured.get("embeddings", {})
    for node in picks:
        if str(node) not in parents or str(node) not in embeddings:
            tally.check(f"embedding of node {node} was not captured")
            continue
        expected = checks.numpy_gcn_center(data, parents[str(node)], weights, slopes)
        tally.check(checks.check_embedding(node, embeddings[str(node)], expected))
    return float(scores.get("test_accuracy", "nan"))


# ---------------------------------------------------------------------------
# Metrics

def end_to_end_metrics(workload, config, data, run_dir, reps, probe_acc) -> dict:
    full = [r for r in reps if r["mode"] == "full"]
    setup = [r["marks"]["main_work_start"] - r["start"] for r in reps if r["mode"] != "traced"]
    wall = [r["end"] - r["start"] for r in full]
    rate = [samples_of(workload, config, data, run_dir / r["name"])
            / (r["end"] - r["marks"]["main_work_start"]) for r in full]
    values = {"setup_s": statistics.median(setup), "wall_s": statistics.median(wall),
              "samples_per_s": statistics.median(rate),
              "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024.0 for r in full),
              "probe_acc": probe_acc}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(plain: dict, traced: dict) -> dict:
    self_times = traced.get("self_times", {})
    calls = traced.get("calls", {})
    counters = traced.get("counters", {})
    wall = traced["end"] - traced["start"]
    values = {}
    for name, unit in PER_LAYER.items():
        if unit == "s" and not name.startswith("trace."):
            values[name] = self_times.get(name[:-2], 0.0)
    for name, prefix in CALL_COUNTS.items():
        values[name] = calls.get(prefix, 0)
    values["encoder.rows"] = counters.get("encoder.rows", 0)
    for side in ("pos", "neg"):
        replaced = counters.get(f"{side}_replaced", 0)
        unmatched = counters.get(f"{side}_unmatched", 0)
        values[f"augment.{side}_match_rate"] = replaced / (replaced + unmatched) if replaced + unmatched else 0.0
    active_calls = counters.get("active_calls", 0)
    values["curriculum.active_fraction"] = counters.get("active_sum", 0.0) / active_calls if active_calls else 0.0
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - (plain["end"] - plain["start"])
    values["trace.coverage"] = sum(self_times.values()) / wall
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "acgcl" / "cli.py").is_file():
        print(f"error: {SRC / 'acgcl'} not found; run from the root of an acgcl checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import acgcl.cli           # also compiles the bytecode before the timed commands
    if not Path(acgcl.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: acgcl imported from {acgcl.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:        # the untimed in-process commands, too
        os.environ[var] = "1"

    workload = WORKLOADS[args.workload]
    run_dir = RUNS / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    data, config, picks, argv_template, marker = prepare(workload, args.seed, run_dir)

    tally = Tally()
    if args.trace:
        plan = [("rep0", "full"), ("traced", "traced")]
    else:
        n_full = max(1, int(args.seconds // workload.nominal_s))
        plan = [(f"rep{i}", "full") for i in range(n_full)]
        plan += [(f"setup{i}", "setup") for i in range(SETUP_SAMPLES - n_full)]
    reps = []
    for name, mode in plan:
        argv = [a.replace("{out}", str(run_dir / name)) for a in argv_template]
        rep = run_command(run_dir, name, {"argv": argv, "kind": workload.command, "mode": mode,
                                          "picks": picks, "marker": marker}, deadline)
        rep.update(name=name, mode=mode)
        tally.check(None if rep["returncode"] == 0 else
                    f"{name}: acgcl {argv[0]} exited with {rep['returncode']}: "
                    f"{(run_dir / f'{name}.stderr').read_text().strip()[-300:]}")
        if rep.get("absent"):
            print(f"absent: {', '.join(rep['absent'])}")
        reps.append(rep)

    metrics = {}
    if not tally.failures:
        check = check_train if workload.command == "train" else check_evaluate
        try:
            probe_acc = check(tally, data, config, picks, run_dir,
                              [r for r in reps if r["mode"] != "setup"])
        except Exception as exc:     # the program failed an untimed command
            traceback.print_exc()
            tally.check(f"checks stopped: {type(exc).__name__}: {exc}")
    if not tally.failures:
        if args.trace:
            metrics = per_layer_metrics(reps[0], reps[1])
        else:
            metrics = end_to_end_metrics(workload, config, data, run_dir, reps, probe_acc)
    for reason in tally.failures:
        print(f"FAILED: {reason}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    correct = not tally.failures
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
