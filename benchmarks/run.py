"""dc-cluster benchmark: one workload, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload blobs-tcp-10x2 --seed 1 \\
        --seconds 12 --trace 0

A closed loop with one client: one untimed warm-up call per input set, then
calls one after another, in rounds over the input sets, until --seconds have
passed and the round is complete.  Every call's outputs are checked against
its input set's warm-up.  --trace 0 reports the end-to-end metrics; --trace 1
follows each untraced call with a traced one on the same inputs and reports
the per-layer metrics.  Metric lines and host facts come first; the last line
of standard output is one JSON object.  The exit code is 1 when any check
fails.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 3
# One fresh interpreter doing a run's set-up: import, then make the inputs.
# It prints the monotonic clock, which all processes on a host share.
SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import workloads
workloads.import_program()
workloads.WORKLOADS[sys.argv[2]].make_inputs(int(sys.argv[3]))
print(time.monotonic())
"""


def declared_metrics() -> dict:
    """(name -> unit) for each list in BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def setup_seconds(workload_name: str, seed: int) -> float:
    """Median time from process start to inputs ready, over SETUP_RUNS
    fresh interpreters."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(HERE), workload_name,
             str(seed)], capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"benchmark: set-up failed\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times)


def cpu_ticks() -> list[int]:
    """The host's aggregate CPU tick counters; empty where unavailable."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def host_facts(ticks_at_start: list[int]) -> dict:
    """Host facts; `steal_share` is the share of CPU time the hypervisor
    took from this machine during the run, which slows every workload."""
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    now = cpu_ticks()
    delta = [b - a for a, b in zip(ticks_at_start, now)]
    # fields: user nice system idle iowait irq softirq steal ...
    steal = delta[7] / sum(delta) if len(delta) > 7 and sum(delta) else None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE")
                                  * os.sysconf("SC_PHYS_PAGES") / 1e6),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "thread_env": {k: os.environ[k] for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
            "steal_share": steal}


class Loop:
    """Checked calls of one workload, cycling through its input sets."""

    def __init__(self, workload, inputs: list, references: list):
        self.workload, self.inputs, self.references = (workload, inputs,
                                                       references)
        self.attempted = 0
        self.failed = 0

    def problems(self, index: int, output) -> list[str]:
        found = self.workload.check(self.inputs[index], output)
        if not self.workload.same(output, self.references[index]):
            found.append("labels differ from the warm-up call's")
        return found

    def call(self, index: int):
        """(wall seconds, output) of one checked call; None if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            output = self.workload.call(self.inputs[index])
        except Exception:  # noqa: BLE001 - a failed call is counted
            traceback.print_exc()
            self.failed += 1
            return None
        wall = time.perf_counter() - t0
        found = self.problems(index, output)
        if found:
            print(f"benchmark: call {self.attempted} failed its checks: "
                  f"{'; '.join(found)}", file=sys.stderr)
            self.failed += 1
            return None
        return wall, output


def traced_call(loop: Loop, index: int):
    """One call with every hook installed: (wall, per-layer metrics)."""
    tracer = tracing.Tracer()
    with warnings.catch_warnings(record=True) as caught, tracer.installed():
        warnings.simplefilter("always")
        done = loop.call(index)
    if done is None:
        return None
    wall, output = done
    layers = tracing.layer_metrics(tracer.spans)
    layers["collaboration.align_warnings"] = sum(
        1 for w in caught if issubclass(w.category, UserWarning)
        and Path(w.filename).name == "numerics.py")
    layers["experiment.aborted"] = len(getattr(output, "aborted", ()))
    return wall, layers


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object the benchmark prints.

    --trace 0 times plain calls.  --trace 1 makes pairs on one input set, a
    plain call then a traced one, and reports per-layer medians over the
    traced calls and the median pair difference as tracing overhead.
    """
    inputs = workload.make_inputs(seed)
    with tracing.wire_counter() as wire:
        references = [workload.call(x) for x in inputs]
    loop = Loop(workload, inputs, references)
    warmup_problems = [p for x, ref in zip(inputs, references)
                       for p in workload.check(x, ref)]
    for problem in warmup_problems:
        print(f"benchmark: warm-up call failed its checks: {problem}",
              file=sys.stderr)

    walls, per_call, overheads = [], [], []
    start = time.perf_counter()
    turn = 0
    # whole rounds, so that each input set weighs the same in the median
    while (turn == 0 or time.perf_counter() - start < seconds
           or turn % len(inputs)):
        index = turn % len(inputs)
        turn += 1
        plain = loop.call(index)
        if plain is not None:
            walls.append(plain[0])
        if trace:
            traced = traced_call(loop, index)
            if traced is not None:
                per_call.append(traced[1])
                if plain is not None:
                    overheads.append(traced[0] - plain[0])

    if not trace:
        metrics = {
            "wall_s": statistics.median(walls) if walls else float("nan"),
            "ari": statistics.fmean(workload.quality(x, ref) for x, ref
                                    in zip(inputs, references)),
            "wire_mb": wire["bytes"] / len(inputs) / 1e6,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
    else:
        metrics = {name: statistics.median(call[name] for call in per_call)
                   for name in (per_call[0] if per_call else ())}
        if overheads:
            metrics["trace.overhead_s"] = statistics.median(overheads)

    correct = not warmup_problems and loop.failed == 0
    return {"correct": correct, "attempted": loop.attempted,
            "failed": loop.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ticks = cpu_ticks()
    workloads.import_program()
    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    result = measure(workloads.WORKLOADS[args.workload], args.seed,
                     args.seconds, bool(args.trace))
    if setup_s is not None:
        result["metrics"]["setup_s"] = setup_s
    missing = set(declared) - set(result["metrics"])
    undeclared = set(result["metrics"]) - set(declared)
    if missing or undeclared:
        raise SystemExit(f"benchmark: metrics missing {sorted(missing)}, "
                         f"undeclared {sorted(undeclared)}")
    result["metrics"] = {name: {"value": result["metrics"][name],
                                "unit": unit}
                         for name, unit in declared.items()}

    print("# host " + json.dumps(host_facts(ticks), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} "
          f"attempted {result['attempted']} failed {result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
