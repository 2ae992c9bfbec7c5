"""Run one ``acgcl`` command in this fresh process, on behalf of ``run.py``.

Usage: python3 child.py SPEC.json

The spec names the checkout's ``src`` directory, the CPU to run on, the
command's arguments, the function whose first call ends set-up, the mode
("full", "traced", or "setup": stop where main work begins), which nodes to
capture for the output checks, and where to write the result. The command
runs through ``acgcl.cli.main``, exactly as the ``acgcl`` entry point does.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

from hooks import Tracer, patch

# (metric prefix, module, function). Every name is wrapped where it is looked
# up; a span's self time is charged to its prefix.
LAYERS = (
    ("graph.load", "acgcl.graph", "load_dataset"),
    ("sampler.ppr", "acgcl.sampler", "compute_ppr_scores"),
    ("sampler.rank", "acgcl.sampler", "sample_all_subgraphs"),
    ("sampler.extract", "acgcl.sampler", "extract_subgraph"),
    ("augment.mirror", "acgcl.augment", "mirror_augment"),
    ("augment.distance", "acgcl.augment", "estimate_distance_distribution"),
    ("encoder.forward", "acgcl.encoder", "gcn_forward_batched"),
    ("autodiff.backward", "acgcl.autodiff", "gradients"),
    ("autodiff.pairwise", "acgcl.autodiff", "pairwise_euclidean"),
    ("losses.sinkhorn_fwd", "acgcl.losses", "sinkhorn_w1"),
    ("curriculum.weights", "acgcl.curriculum", "weights_for_mode"),
    ("trainer.step", "acgcl.trainer", "run_inner_step"),
    ("trainer.adam", "acgcl.trainer", "adam_step"),
    ("trainer.views", "acgcl.trainer", "encoded_views"),
    ("trainer.views", "acgcl.trainer", "mirror_views"),
    ("trainer.embed", "acgcl.trainer", "compute_center_embeddings"),
    ("trainer.probe", "acgcl.trainer", "evaluate_probe"),
)


def _observe_rows(tracer, args, kwargs, result):
    tracer.counters["encoder.rows"] += getattr(result, "shape", (0,))[0]


def _observe_mirror(tracer, args, kwargs, result):
    stats = getattr(result, "stats", None)
    for side in ("pos", "neg"):
        tracer.counters[f"{side}_replaced"] += len(getattr(stats, f"{side}_replacements", ()))
        tracer.counters[f"{side}_unmatched"] += getattr(stats, f"{side}_unmatched", 0)


def _observe_weights(tracer, args, kwargs, result):
    active = getattr(result, "active_fraction", None)
    if callable(active):
        tracer.counters["active_sum"] += active()
        tracer.counters["active_calls"] += 1


def _observe_sinkhorn(tracer, args, kwargs, result):
    backward = getattr(result, "_backward_fn", None)
    if backward is not None:
        result._backward_fn = tracer.wrap("losses.sinkhorn_bwd", backward)


OBSERVERS = {
    "encoder.forward": _observe_rows,
    "augment.mirror": _observe_mirror,
    "curriculum.weights": _observe_weights,
    "losses.sinkhorn_fwd": _observe_sinkhorn,
}


def install_tracer(tracer: Tracer) -> list[str]:
    absent = []
    for prefix, module, name in LAYERS:
        if not patch(module, name, lambda fn, p=prefix: tracer.wrap(p, fn, OBSERVERS.get(p))):
            absent.append(f"{module}.{name}")
    return absent


def install_captures(kind: str, picks: list[int], captured: dict) -> list[str]:
    """Record, for the picked nodes, what the checks compare: the sampled
    subgraph ids and the embeddings handed to the probe."""
    absent = []

    def capture_subgraphs(fn):
        def wrapper(*args, **kwargs):
            subgraphs = fn(*args, **kwargs)
            captured.setdefault("parents", {
                str(v): [int(i) for i in subgraphs[v].parent_indices] for v in picks})
            return subgraphs
        return wrapper

    def capture_embeddings(fn):
        def wrapper(embeddings, *args, **kwargs):
            captured.setdefault("embeddings", {
                str(v): [float(x) for x in embeddings[v]] for v in picks})
            return fn(embeddings, *args, **kwargs)
        return wrapper

    hooks = [("acgcl.sampler", "sample_all_subgraphs", capture_subgraphs)]
    if kind == "evaluate":
        hooks.append(("acgcl.trainer", "evaluate_probe", capture_embeddings))
    for module, name, make in hooks:
        if not patch(module, name, make):
            absent.append(f"{module}.{name}")
    return absent


def install_marker(module: str, name: str, marks: dict, stop: bool, result_path: str) -> bool:
    """Record when main work begins; with ``stop``, end the process there."""
    def make(fn):
        def wrapper(*args, **kwargs):
            marks.setdefault("main_work_start", time.monotonic())
            if stop:
                Path(result_path).write_text(json.dumps({"exit_code": 0, "marks": marks}))
                os._exit(0)
            return fn(*args, **kwargs)
        return wrapper
    return patch(module, name, make)


def main() -> int:
    spec_path = Path(sys.argv[1])
    spec = json.loads(spec_path.read_text())
    os.sched_setaffinity(0, {spec["cpu"]})
    sys.path.insert(0, spec["src"])
    import acgcl.cli

    if not Path(acgcl.cli.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        print(f"acgcl imported from {acgcl.cli.__file__}, not from {spec['src']}", file=sys.stderr)
        return 2

    tracer = Tracer() if spec["mode"] == "traced" else None
    absent = install_tracer(tracer) if tracer else []
    captured: dict = {}
    absent += install_captures(spec["kind"], spec["picks"], captured)
    marks: dict = {}
    if not install_marker(*spec["marker"], marks, spec["mode"] == "setup", spec["result"]):
        absent.append(".".join(spec["marker"]))

    code = acgcl.cli.main(spec["argv"])
    marks["end"] = time.monotonic()
    result = {
        "exit_code": code,
        "marks": marks,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "captured": captured,
        "absent": absent,
    }
    if tracer is not None:
        result["self_times"] = tracer.self_times()
        result["calls"] = tracer.call_counts()
        result["counters"] = dict(tracer.counters)
        with open(spec["spans"], "w") as fh:
            for name, start, end, parent in tracer.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
    Path(spec["result"]).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
