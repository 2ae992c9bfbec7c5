"""Every package function the benchmark under ``bench/`` names still exists.

The benchmark wraps, marks and imports functions by name. A missing set-up
marker stops ``bench/run.py`` on ``marks["main_work_start"]``, and a missing
traced layer or capture silently reads 0, so a rename or deletion in the
package must fail here first. The bench sources are only read: ``child.py``
is imported for its ``LAYERS`` table, the rest is parsed. The other way
round, no package code calls a function that stays for the benchmark alone,
so deleting them with the benchmark's hooks touches no package path.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import child  # noqa: E402


def missing(pairs):
    return [f"{module}.{name}" for module, name in pairs
            if not callable(getattr(importlib.import_module(module), name, None))]


def named_functions(source, function):
    """("acgcl.<module>", "<name>") string pairs written inside ``function``."""
    tree = ast.parse((BENCH / source).read_text())
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == function)
    pairs = []
    for node in ast.walk(body):
        if isinstance(node, (ast.Tuple, ast.List)):
            values = [e.value if isinstance(e, ast.Constant) else None for e in node.elts]
            pairs += [(m, n) for m, n in zip(values, values[1:])
                      if isinstance(m, str) and m.startswith("acgcl.") and isinstance(n, str)]
    return pairs


def acgcl_imports(source):
    tree = ast.parse((BENCH / source).read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("acgcl")
            for alias in node.names]


def test_traced_layers_exist():
    assert len(child.LAYERS) > 10
    assert missing((module, name) for _, module, name in child.LAYERS) == []


def test_setup_markers_exist():
    markers = named_functions("run.py", "prepare")
    assert set(markers) == {("acgcl.trainer", "run_inner_step"),
                            ("acgcl.sampler", "sample_all_subgraphs")}
    assert missing(markers) == []


def test_captures_exist_and_take_embeddings_first():
    captures = named_functions("child.py", "install_captures")
    assert ("acgcl.trainer", "evaluate_probe") in captures
    assert missing(captures) == []
    from acgcl.trainer import evaluate_probe
    assert next(iter(inspect.signature(evaluate_probe).parameters)) == "embeddings"


def test_imported_names_exist():
    imports = acgcl_imports("test_bench_checks.py") + acgcl_imports("run.py")
    assert ("acgcl.augment", "mirror_augment") in imports
    assert missing(imports) == []


# Kept in the package for the benchmark alone: its definitions and the
# package's exports may name them, no package code calls them.
BENCH_ONLY = {"estimate_distance_distribution", "mirror_augment", "extract_subgraph"}


def test_no_package_code_calls_the_bench_only_names():
    package = Path(__file__).resolve().parent.parent / "src" / "acgcl"
    calls = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in BENCH_ONLY:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []
