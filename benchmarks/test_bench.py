"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q benchmarks

The last test runs the real command on the cheapest workload, twice, and
takes about half a minute.
"""
from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads

workloads.import_program()

TINY = (
    workloads.SessionWorkload("tiny-tcp", "blobs", clusters=3, per_cluster=40,
                              c=2, d=2, algorithm="kmeans",
                              entry="run_tcp_session", variants=2),
    workloads.SessionWorkload("tiny-spectral", "circles", clusters=3,
                              per_cluster=30, c=2, d=2, algorithm="spectral",
                              entry="run_in_process_session"),
)


def _session_arrays(input_sets):
    return [array for inputs in input_sets for array in (
        inputs.features, inputs.truth, inputs.anchor.features,
        *inputs.partition.row_index_sets, *inputs.partition.col_index_sets,
        np.array([inputs.config.master_seed]))]


@pytest.mark.parametrize("name", ["blobs-tcp-10x2", "circles-spectral-2x2"])
def test_session_inputs_follow_the_seed(name):
    workload = workloads.WORKLOADS[name]
    a, b, other = (workload.make_inputs(s) for s in (7, 7, 8))
    assert len(a) == workload.variants
    assert all(np.array_equal(x, y) for x, y in
               zip(_session_arrays(a), _session_arrays(b)))
    for x, y in zip(a, other):
        assert not np.array_equal(x.features, y.features)
        assert not np.array_equal(x.partition.row_index_sets[0],
                                  y.partition.row_index_sets[0])
        assert x.config.master_seed != y.config.master_seed
    seeds = {x.config.master_seed for x in a}
    assert len(seeds) == workload.variants


def test_experiment_inputs_follow_the_seed():
    workload = workloads.WORKLOADS["iris-trials"]
    (a,), (b,), (other,) = (workload.make_inputs(s) for s in (7, 7, 8))
    assert a == b
    assert (a.master_seed, other.master_seed) == (7, 8)
    assert Path(a.csv_path).is_absolute() and Path(a.csv_path).is_file()


def test_adjusted_rand_matches_the_program():
    from dccluster.metrics import ari
    rng = np.random.default_rng(0)
    truth = rng.integers(0, 3, 200)
    for labels in (truth, (truth + 1) % 3, rng.integers(0, 4, 200)):
        assert workloads.adjusted_rand(truth, labels) == pytest.approx(
            ari(truth, labels), abs=1e-12)


def _hooked():
    return {(module, attr): getattr(importlib.import_module(module), attr)
            for module, attr, _, _ in tracing.HOOKS}


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_run_restores_every_wrapped_name(workload):
    before = _hooked()
    result = run.measure(workload, seed=3, seconds=0.0, trace=True)
    assert result["correct"] and result["failed"] == 0
    after = _hooked()
    assert all(after[key] is before[key] for key in before)
    layers = result["metrics"]
    parties = workload.c * workload.d
    assert layers["federation.frames"] == 2 * parties
    assert layers["collaboration.fit_calls"] == parties
    assert layers["clustering.recover_calls"] == parties
    assert layers["collaboration.align_pinv_calls"] == workload.c
    assert (layers["clustering.eigsolve_s"] > 0) == (
        workload.algorithm == "spectral")


def test_untraced_run_checks_every_call():
    result = run.measure(TINY[0], seed=3, seconds=0.0, trace=False)
    # one whole round: one call on each input set
    assert result["correct"] and result["attempted"] == TINY[0].variants
    assert result["metrics"]["wire_mb"] > 0
    assert 0.9 < result["metrics"]["ari"] <= 1.0


def test_a_call_that_differs_from_the_warm_up_fails():
    workload = TINY[0]
    inputs = workload.make_inputs(3)
    loop = run.Loop(workload, inputs, [workload.call(x) for x in inputs])
    outcome = workload.call(inputs[0])
    assert loop.problems(0, outcome) == []
    outcome.user_labels[(1, 1)] = outcome.user_labels[(1, 1)][:-1]
    assert loop.problems(0, outcome)


def _bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "iris-trials",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_is_declared(trace):
    done = _bench(run.HERE.parent, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = run.declared_metrics()["per_layer" if trace else "end_to_end"]
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if not line.startswith("#")}
    assert printed == declared
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
