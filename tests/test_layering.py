"""The layers import downwards only.  The math, data, dataset, metric and
seed modules stay below the protocol: the wire format, the party runners,
the experiment runner and the CLI may import them, never the other way
round.  The protocol in turn stays below the experiment runner and the
CLI."""

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


def test_every_benchmark_hook_resolves(monkeypatch):
    """The benchmark's tracer swaps wrappers into the names it lists; a
    refactor that renames one, or stops importing it where its callers look
    it up, must fail here and not only under the benchmark's own tests."""
    path = pathlib.Path(__file__).parent.parent / "benchmarks" / "tracing.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, name) for module, name, *_ in tracing.HOOKS
               if not hasattr(importlib.import_module(module), name)]
    assert tracing.HOOKS and missing == []
