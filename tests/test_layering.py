"""The layers import downwards only.  The math, data, dataset, metric and
seed modules stay below the protocol: the wire format, the party runners,
the experiment runner and the CLI may import them, never the other way
round.  The protocol in turn stays below the experiment runner and the
CLI."""

import ast
import pathlib

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
