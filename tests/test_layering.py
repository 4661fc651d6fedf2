"""The layers import downwards only.  The math, data, dataset, metric and
seed modules stay below the protocol: the wire format, the party runners,
the experiment runner and the CLI may import them, never the other way
round.  The protocol in turn stays below the experiment runner and the
CLI.  And every top-level function and class serves the package itself,
not only its tests."""

import ast
import importlib.util
import pathlib
import sys

import pytest

import dccluster

PACKAGE = pathlib.Path(dccluster.__file__).parent
UPPER = {"federation", "experiment", "cli"}


def imported_modules(path):
    """The dccluster modules that `path`, a module of the package, imports."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import resolves against the package itself
            module = ".".join(filter(None, ["dccluster" * bool(node.level),
                                            node.module]))
            names += [module] + [f"{module}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in names if name.startswith("dccluster.")}


@pytest.mark.parametrize("module", ["collaboration", "clustering", "numerics",
                                    "data", "datasets", "metrics", "seeds"])
def test_math_modules_import_nothing_above_them(module):
    assert imported_modules(PACKAGE / f"{module}.py") & UPPER == set()


def test_federation_imports_neither_runner_nor_cli():
    assert imported_modules(PACKAGE / "federation.py") & UPPER == set()


def test_the_check_sees_every_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .federation import x\n"
                     "from . import experiment\n"
                     "import dccluster.cli\n"
                     "from dccluster.numerics import svd\n")
    assert imported_modules(probe) == {"federation", "experiment", "cli",
                                       "numerics"}


def called_names(path):
    """The names that `path` calls directly, as `name(...)`."""
    return {node.func.id
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_every_benchmark_hook_resolves(monkeypatch):
    """The benchmark's tracer swaps wrappers into the names it lists; a
    refactor that renames one, or stops importing it where its callers look
    it up, must fail here and not only under the benchmark's own tests.
    Each name must also be called where the hook patches it, or be an entry
    point of the package, which the benchmark calls itself: a name kept
    there only as an import would give its span a silent 0."""
    path = pathlib.Path(__file__).parent.parent / "benchmarks" / "tracing.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, name) for module, name, *_ in tracing.HOOKS
               if not hasattr(importlib.import_module(module), name)]
    assert tracing.HOOKS and missing == []
    dead = [(module, name) for module, name, *_ in tracing.HOOKS
            if name not in called_names(PACKAGE / f"{module.split('.')[1]}.py")
            and name not in dccluster.__all__]
    assert dead == []


def unreferenced_definitions(package):
    """The top-level functions and classes of `package`'s modules that no
    code in `package` names outside their own definition, as
    "module.name"."""
    definitions, references = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        definitions += [(path.stem, node.name, node.lineno, node.end_lineno)
                        for node in tree.body
                        if isinstance(node, (ast.FunctionDef,
                                             ast.AsyncFunctionDef,
                                             ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((node.id, path.stem, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((node.attr, path.stem, node.lineno))
            elif isinstance(node, ast.alias):
                references.append((node.name.rpartition(".")[2], path.stem,
                                   node.lineno))
    return [f"{module}.{name}" for module, name, first, last in definitions
            if not any(ref == name and (where != module
                                        or not first <= line <= last)
                       for ref, where, line in references)]


def test_every_definition_is_used_by_the_package():
    """A function or class that only tests call is dead code."""
    assert unreferenced_definitions(PACKAGE) == []


def test_the_dead_code_check_sees_self_reference_and_imports(tmp_path):
    (tmp_path / "a.py").write_text("def loop(n):\n"
                                   "    return loop(n - 1)\n"
                                   "class Used:\n"
                                   "    pass\n"
                                   "def caller():\n"
                                   "    return b.helper()\n")
    (tmp_path / "b.py").write_text("from .a import Used\n"
                                   "def helper():\n"
                                   "    return 1\n")
    assert unreferenced_definitions(tmp_path) == ["a.loop", "a.caller"]
