"""Every package function the benchmark under ``bench/`` names still exists.

The benchmark wraps, marks and imports functions by name. A missing set-up
marker stops ``bench/run.py`` on ``marks["main_work_start"]``, and a missing
traced layer or capture silently reads 0, so a rename or deletion in the
package must fail here first; a traced layer the package has deleted on
purpose is listed in ``RETIRED_LAYERS``. The bench sources are only read:
``child.py`` is imported for its ``LAYERS`` table, the rest is parsed. The
other way round, no package code calls a function that stays for the
benchmark alone, so deleting them with the benchmark's hooks touches no
package path, and no test outside their own
(``test_augment.py::TestBenchShims`` and ``TestStackedDistanceEstimate``)
names them. Every package definition is named by package code or imported
by a bench file, and every member of a package class is read by package
code or a bench file, so no definition and no member stays for the tests
alone.
"""

import ast
import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
PACKAGE = BENCH.parent / "src" / "acgcl"
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


# Traced layers whose function the package has deleted. The benchmark
# reports each one absent and reads it as 0 until its harness drops the row.
RETIRED_LAYERS = {("acgcl.sampler", "extract_subgraph"), ("acgcl.trainer", "mirror_views"),
                  ("acgcl.trainer", "encoded_views")}


def test_traced_layers_exist():
    assert len(child.LAYERS) > 10
    assert set(missing((module, name) for _, module, name in child.LAYERS)) == {
        f"{module}.{name}" for module, name in RETIRED_LAYERS}


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
BENCH_ONLY = {"estimate_distance_distribution", "mirror_augment"}


def test_no_package_code_calls_the_bench_only_names():
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in BENCH_ONLY:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []


def test_every_package_definition_is_named_by_package_code_or_the_bench():
    """A module-level def or class that no package code outside
    ``__init__.py`` and its own definition names, and no bench file
    imports, is kept for the tests alone: the per-item references of
    batched code belong in ``tests/oracles.py``."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    names = Counter(identifier(node) for tree in trees.values() for node in ast.walk(tree))
    imported = {name for source in sorted(BENCH.glob("*.py"))
                for _, name in acgcl_imports(source.name)}
    unused = [f"{module}:{definition.lineno} {definition.name}"
              for module, tree in trees.items() for definition in tree.body
              if isinstance(definition, (ast.FunctionDef, ast.ClassDef))
              and definition.name not in imported
              and names[definition.name] == sum(identifier(node) == definition.name
                                                for node in ast.walk(definition))]
    assert unused == []


def members(cls):
    """(name, node) of each method, property, ``__slots__`` entry and
    dataclass or NamedTuple field of a class, dunders aside."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names = [node.name]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        elif isinstance(node, ast.Assign) and "__slots__" in map(identifier, node.targets):
            names = [e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node


def attribute_reads(node):
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def test_every_package_class_member_is_read_by_package_code_or_the_bench():
    """A member of a package class that no package code reads as an
    attribute outside its own definition, and no bench file reads, is kept
    for the tests alone. Members match by name, not by type, so a member
    named like an attribute read off an ndarray or another class, such as
    ``size`` or ``shape``, reads as used: this guard cannot flag it."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    reads = sum(map(attribute_reads, trees.values()), Counter())
    bench = set().union(*(attribute_reads(ast.parse(path.read_text()))
                          for path in sorted(BENCH.glob("*.py"))))
    unused = [f"{module}:{node.lineno} {cls.name}.{name}"
              for module, tree in trees.items() for cls in tree.body
              if isinstance(cls, ast.ClassDef)
              for name, node in members(cls)
              if name not in bench and reads[name] == attribute_reads(node)[name]]
    assert unused == []


# The bench-only names and the augment shims' result type. Tier-1 names these
# only here and, per test module, in the line that imports them from the
# package and in the classes and functions below, so deleting them deletes
# those tests and rewrites no other.
SHIMS = BENCH_ONLY | {"MirrorGraphs"}
SHIM_HOMES = {
    "test_augment.py": ("acgcl.augment", {"TestBenchShims", "TestStackedDistanceEstimate"}),
}


def identifier(node):
    """The name a node writes, if any: a name, an attribute, an imported
    alias, or a def or class."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)):
        return node.name
    return None


def test_tests_name_the_augment_shims_only_in_their_own_class():
    tests = Path(__file__).resolve().parent
    found = []
    for path in sorted(tests.glob("*.py")):
        if path.name == Path(__file__).name:
            continue
        tree = ast.parse(path.read_text())
        allowed = set()
        module, homes = SHIM_HOMES.get(path.name, (None, set()))
        for node in tree.body:
            if ((isinstance(node, ast.ImportFrom) and node.module == module)
                    or (isinstance(node, (ast.ClassDef, ast.FunctionDef))
                        and node.name in homes)):
                allowed.update(ast.walk(node))
        found += [f"{path.name}:{node.lineno} {identifier(node)}" for node in ast.walk(tree)
                  if identifier(node) in SHIMS and node not in allowed]
    assert found == []
