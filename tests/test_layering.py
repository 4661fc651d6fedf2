"""The layers import downwards only.  The math, data, dataset, metric and
seed modules stay below the protocol: the wire format, the party runners,
the experiment runner and the CLI may import them, never the other way
round.  The protocol in turn stays below the experiment runner and the
CLI.  scipy is imported only inside the functions that call it, and never
by the metrics, so a k-means process runs on numpy alone.  k-means takes
its squared distances from one kernel, so no other clustering function
squares a difference of its own.  And every top-level function and class,
and every method of one, serves the package itself, not only its tests.
No dataclass declares a field again that one of its bases declares, so each
setting has one declaration and one check."""

import ast
import dataclasses
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import dccluster
from dccluster.clustering import spectral_cluster
from dccluster.data import make_circles
from dccluster.experiment import ExperimentSpec, run_experiment
from dccluster.metrics import score_all

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


def redeclared_fields(module):
    """The fields, as "Class.field", that a dataclass defined in `module`
    declares although a dataclass among its bases already declares them."""
    found = []
    for cls in vars(module).values():
        if not (dataclasses.is_dataclass(cls) and isinstance(cls, type)
                and cls.__module__ == module.__name__):
            continue
        inherited = {f.name for base in cls.__mro__[1:]
                     if dataclasses.is_dataclass(base)
                     for f in dataclasses.fields(base)}
        found += [f"{cls.__name__}.{name}"
                  for name in vars(cls).get("__annotations__", {})
                  if name in inherited]
    return found


def test_no_dataclass_redeclares_a_field_of_its_bases():
    modules = [importlib.import_module(f"dccluster.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py"))
               if path.stem != "__init__"]
    assert [name for module in modules
            for name in redeclared_fields(module)] == []


def test_the_redeclaration_check_sees_every_base(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from dataclasses import dataclass\n"
                     "@dataclass(kw_only=True)\n"
                     "class Settings:\n"
                     "    algorithm: str = 'kmeans'\n"
                     "    c: int\n"
                     "@dataclass\n"
                     "class Config(Settings):\n"
                     "    k: int\n"
                     "@dataclass\n"
                     "class Spec(Settings):\n"
                     "    c: int\n"
                     "    name: str = ''\n"
                     "@dataclass\n"
                     "class Trial(Config):\n"
                     "    algorithm: str = 'spectral'\n"
                     "    k: int = 2\n"
                     "    seed: int = 0\n")
    spec = importlib.util.spec_from_file_location("probe", probe)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert redeclared_fields(module) == ["Spec.c", "Trial.algorithm",
                                         "Trial.k"]


# A fresh interpreter plays every k-means role, scores labels and runs a
# small k-means experiment, then takes the spectral path, reporting which
# modules each part loaded.
KMEANS_THEN_SPECTRAL = """\
import json, sys
import dccluster, dccluster.cli
from dccluster.clustering import spectral_cluster
from dccluster.data import (feature_bounds, generate_anchor, make_blobs,
                            make_circles, partition_lattice)
from dccluster.experiment import ExperimentSpec, run_experiment
from dccluster.federation import (SessionConfig, run_dc_clustering,
                                  run_tcp_session, user_step)
from dccluster.metrics import score_all

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m == "urllib.request")

ds = make_blobs(k=2, per_cluster=20, rng_seed=0)
part = partition_lattice(ds, c=2, d=2, assignment="iid-random", rng_seed=1)
anchor = generate_anchor(feature_bounds(ds.features), r=40, rng_seed=2)
cfg = SessionConfig(c=2, d=2, k=2, algorithm="kmeans", m_hat=2,
                    master_seed=0, timeout=20.0)
run_tcp_session(ds.features, part, anchor, cfg)
run_dc_clustering(ds.features, part, anchor, cfg)
user_step((0, 0), part.block(ds.features, 0, 0),
          anchor.features[:, part.col_index_sets[0]], cfg)
scores = score_all([0, 0, 1, 1, 2, 2], [1, 1, 0, 0, 0, 2])
report = run_experiment(ExperimentSpec(
    name="probe", dataset="blobs", c=2, d=2, clusters=3, per_cluster=15,
    trials=2, m_hat=2, master_seed=1, local="all", out_dir="unused"))
kmeans_loaded = loaded()
rings = make_circles(3, 60, rng_seed=4)
labels = spectral_cluster(rings.features, 3, rng_seed=5).labels
print(json.dumps({"kmeans": kmeans_loaded, "spectral": labels.tolist(),
                  "scores": scores, "values": report.values,
                  "after": loaded()}))
"""


def test_a_kmeans_party_loads_no_scipy():
    """Importing the package and the CLI, a k-means TCP session, the
    in-process run, an institution's step, the scores and a k-means
    experiment load neither scipy nor urllib.request; the spectral path
    loads scipy's sparse and graph modules, not its optimizer, on its first
    call, and every part gives what it gives in this process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", KMEANS_THEN_SPECTRAL],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["kmeans"] == []
    assert "scipy.sparse" in seen["after"]
    assert "scipy.optimize" not in seen["after"]
    rings = make_circles(3, 60, rng_seed=4)
    assert seen["spectral"] == spectral_cluster(rings.features, 3,
                                                rng_seed=5).labels.tolist()
    scores = score_all([0, 0, 1, 1, 2, 2], [1, 1, 0, 0, 0, 2])
    assert seen["scores"] == scores and scores["acc"] == 5 / 6
    report = run_experiment(ExperimentSpec(
        name="probe", dataset="blobs", c=2, d=2, clusters=3, per_cluster=15,
        trials=2, m_hat=2, master_seed=1, local="all", out_dir="unused"))
    assert seen["values"] == json.loads(json.dumps(report.values))


def scipy_imports(path):
    """(line, scope) of each scipy import in `path`, where scope is
    "function" for one inside a function body and "module" for one that
    runs on import, at module or class level."""
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {id(node) for function in ast.walk(tree)
              if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(function) if node is not function}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append((node.lineno,
                          "function" if id(node) in inside else "module"))
    return found


def scipy_rule_breaches(package):
    """The modules of `package` that break the scipy rule, as "module:line":
    no module imports scipy where its import runs with the module's own,
    and metrics imports it nowhere."""
    return [f"{path.stem}:{line}" for path in sorted(package.glob("*.py"))
            for line, scope in scipy_imports(path)
            if scope == "module" or path.stem == "metrics"]


def test_scipy_is_imported_only_inside_functions_and_never_by_metrics():
    assert scipy_rule_breaches(PACKAGE) == []


def test_the_scipy_rule_sees_every_placement(tmp_path):
    (tmp_path / "top.py").write_text("import scipy.sparse\n")
    (tmp_path / "guarded.py").write_text("try:\n"
                                         "    from scipy import linalg\n"
                                         "except ImportError:\n"
                                         "    pass\n")
    (tmp_path / "in_class.py").write_text("class A:\n"
                                          "    import scipy\n")
    (tmp_path / "lazy.py").write_text("def f():\n"
                                      "    import scipy.linalg\n"
                                      "    class B:\n"
                                      "        from scipy.sparse import eye\n")
    (tmp_path / "metrics.py").write_text("def f():\n"
                                         "    from scipy.optimize import x\n")
    (tmp_path / "fine.py").write_text("import numpy\n"
                                      "from .scipy_like import y\n")
    assert scipy_rule_breaches(tmp_path) == ["guarded:2", "in_class:2",
                                             "metrics:2", "top:1"]


# The clustering functions that may square a difference: the kernel every
# k-means distance comes from, the empty-cluster repair's own distances and
# the kNN graph's candidate distances.
SQUARING = {"_sqdist", "_repair", "build_affinity"}


def squares_a_difference(node):
    """Whether `node` is `(a - b) ** 2` or a call of a `square`, as
    np.square."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return (isinstance(node.left, ast.BinOp)
                and isinstance(node.left.op, ast.Sub)
                and isinstance(node.right, ast.Constant)
                and node.right.value == 2)
    return isinstance(node, ast.Call) and "square" in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None))


def squaring_breaches(path):
    """The top-level functions of `path` outside SQUARING that square a
    difference anywhere in their bodies."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name not in SQUARING
            and any(squares_a_difference(part) for part in ast.walk(node))]


def test_kmeans_squares_its_differences_in_one_kernel():
    assert squaring_breaches(PACKAGE / "clustering.py") == []


def test_the_squaring_rule_sees_every_form(tmp_path):
    probe = tmp_path / "clustering.py"
    probe.write_text("import numpy as np\n"
                     "from numpy import square\n"
                     "def _sqdist(a, b):\n"
                     "    return np.square(a - b)\n"
                     "def _inertia(x, c):\n"
                     "    return float(np.sum((x - c) ** 2))\n"
                     "def spelled(x, c, out):\n"
                     "    np.subtract(x, c, out=out)\n"
                     "    return np.square(out, out=out)\n"
                     "def bare(d):\n"
                     "    return square(d)\n"
                     "def nested(x, c):\n"
                     "    def inner():\n"
                     "        return (x - c) ** 2\n"
                     "    return inner()\n"
                     "class Holder:\n"
                     "    def method(self, x, c):\n"
                     "        return (x - c) ** 2\n"
                     "def norms(x, c):\n"
                     "    return x ** 2 + (x - c) ** 3 + (x + c) ** 2\n")
    assert squaring_breaches(probe) == ["_inertia", "spelled", "bare",
                                        "nested"]


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
    """The top-level functions and classes of `package`'s modules, and the
    methods of those classes other than dunder methods, that no code in
    `package` names outside their own definition, as "module.name" or
    "module.Class.name"."""
    definitions, references = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                definitions.append((path.stem, node.name, node))
            if isinstance(node, ast.ClassDef):
                definitions += [(path.stem, f"{node.name}.{method.name}", method)
                                for method in node.body
                                if isinstance(method, (ast.FunctionDef,
                                                       ast.AsyncFunctionDef))
                                and not method.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((node.id, path.stem, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((node.attr, path.stem, node.lineno))
            elif isinstance(node, ast.alias):
                references.append((node.name.rpartition(".")[2], path.stem,
                                   node.lineno))
    return [f"{module}.{name}" for module, name, node in definitions
            if not any(ref == node.name and (where != module or not
                                             node.lineno <= line <= node.end_lineno)
                       for ref, where, line in references)]


def test_every_definition_is_used_by_the_package():
    """A function, class or method that only tests call is dead code."""
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


def test_the_dead_code_check_sees_methods(tmp_path):
    (tmp_path / "a.py").write_text("class Report:\n"
                                   "    def __eq__(self, other):\n"
                                   "        return True\n"
                                   "    def used(self):\n"
                                   "        return self.helper()\n"
                                   "    def helper(self):\n"
                                   "        return 1\n"
                                   "    @classmethod\n"
                                   "    def parse(cls):\n"
                                   "        return cls.parse()\n"
                                   "def main():\n"
                                   "    return Report().used()\n"
                                   "main()\n")
    assert unreferenced_definitions(tmp_path) == ["a.Report.parse"]
