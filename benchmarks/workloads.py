"""The benchmark's workloads: inputs made from a seed, one call, output checks.

Each workload drives one public entry point of dccluster (`run_tcp_session`,
`run_in_process_session` or `run_experiment`) and looks it up on its module
at call time, so a traced run's wrappers see the call.  `make_inputs` returns
a list of input sets; a run makes one warm-up call on each and then cycles
its timed calls through them.  README.md in this directory says why each
workload exists and which layers it exercises.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
COL_BLOCKS = ((0, 2, 3), (1, 4, 5))


def import_program():
    """Import dccluster from this checkout's src/ and nowhere else."""
    if not (SRC / "dccluster" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no dccluster sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dccluster
    if Path(dccluster.__file__).resolve().parent != SRC / "dccluster":
        raise SystemExit(f"benchmark: dccluster imported from {dccluster.__file__}, "
                         f"not from {SRC}")
    return dccluster


def adjusted_rand(truth, labels) -> float:
    """Adjusted Rand index by pair counting, independent of dccluster.metrics."""
    _, t = np.unique(truth, return_inverse=True)
    _, p = np.unique(labels, return_inverse=True)
    table = np.zeros((t.max() + 1, p.max() + 1))
    np.add.at(table, (t, p), 1.0)

    def pairs(counts):
        return float(np.sum(counts * (counts - 1.0) / 2.0))

    index = pairs(table)
    rows, cols = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / pairs(np.array([float(t.size)]))
    top = (rows + cols) / 2.0
    return 1.0 if top == expected else (index - expected) / (top - expected)


@dataclass
class SessionInputs:
    features: np.ndarray
    truth: np.ndarray          # ground truth in row-block order
    partition: object
    anchor: object
    config: object


@dataclass(frozen=True)
class SessionWorkload:
    """One federated session on a synthetic dataset, over one transport."""

    name: str
    dataset: str               # "blobs" | "circles"
    clusters: int
    per_cluster: int
    c: int
    d: int
    algorithm: str
    entry: str                 # "run_tcp_session" | "run_in_process_session"
    restarts: int = 10
    neighbors: int = 10
    m_hat: int = 2
    # Input sets per run.  More than one where the work a session does
    # depends on its inputs' luck, so that a run's median does not.
    variants: int = 1

    def make_inputs(self, seed: int) -> list[SessionInputs]:
        return [self._inputs(seq) for seq in
                np.random.SeedSequence(seed).spawn(self.variants)]

    def _inputs(self, seq) -> SessionInputs:
        from dccluster import data, federation
        data_seed, part_seed, anchor_seed, master_seed = (
            seq.generate_state(4, dtype=np.uint64) >> 1)
        gen = data.make_blobs if self.dataset == "blobs" else data.make_circles
        ds = gen(self.clusters, self.per_cluster, rng_seed=int(data_seed))
        part = data.partition_lattice(ds, self.c, self.d, "iid-random",
                                      rng_seed=int(part_seed),
                                      col_index_sets=COL_BLOCKS)
        n = ds.features.shape[0]
        anchor = data.generate_anchor(data.feature_bounds(ds.features), n,
                                      rng_seed=int(anchor_seed))
        cfg = federation.SessionConfig(
            c=self.c, d=self.d, k=self.clusters, algorithm=self.algorithm,
            neighbors=self.neighbors, master_seed=int(master_seed),
            m_hat=self.m_hat, restarts=self.restarts)
        return SessionInputs(features=ds.features,
                             truth=ds.labels[part.row_order()],
                             partition=part, anchor=anchor, config=cfg)

    def call(self, inputs: SessionInputs):
        from dccluster import federation
        return getattr(federation, self.entry)(
            inputs.features, inputs.partition, inputs.anchor, inputs.config)

    def labels(self, outcome) -> np.ndarray:
        return np.concatenate([outcome.user_labels[(i, 0)]
                               for i in range(self.c)])

    def check(self, inputs: SessionInputs, outcome) -> list[str]:
        """Problems with one session's outputs; empty when all is well."""
        parties = [(i, j) for i in range(self.c) for j in range(self.d)]
        problems = []
        bad = {p: outcome.user_counts.get(p) for p in parties
               if outcome.user_counts.get(p) != (1, 1)}
        if bad or len(outcome.user_counts) != len(parties):
            problems.append(f"institution (sent, received) counts {bad}")
        if outcome.analyst_counts != (len(parties), len(parties)):
            problems.append(f"analyst counts {outcome.analyst_counts}")
        if set(outcome.user_labels) != set(parties):
            return problems + ["not every institution recovered labels"]
        labels = self.labels(outcome)
        if labels.shape != inputs.truth.shape:
            problems.append(f"{labels.shape[0]} labels for "
                            f"{inputs.truth.shape[0]} rows")
        if not all(np.array_equal(outcome.user_labels[(i, j)],
                                  outcome.user_labels[(i, 0)])
                   for i, j in parties):
            problems.append("institutions of one row block disagree")
        if not np.array_equal(labels, outcome.report.labels):
            problems.append("institution labels differ from the analyst's")
        return problems

    def same(self, a, b) -> bool:
        return np.array_equal(self.labels(a), self.labels(b))

    def quality(self, inputs: SessionInputs, outcome) -> float:
        return adjusted_rand(inputs.truth, self.labels(outcome))


@dataclass(frozen=True)
class ExperimentWorkload:
    """A shipped experiment config run through `run_experiment`."""

    name: str
    config: str                # relative to the repository root

    def make_inputs(self, seed: int) -> list:
        from dccluster import experiment
        spec = experiment.load_config(str(ROOT / self.config))
        if spec.csv_path and not Path(spec.csv_path).is_absolute():
            spec.csv_path = str(ROOT / spec.csv_path)
        spec.master_seed = seed
        return [spec]

    def call(self, spec):
        from dccluster import experiment
        return experiment.run_experiment(spec)

    def check(self, spec, report) -> list[str]:
        problems = []
        if report.aborted:
            problems.append(f"{len(report.aborted)} aborted trials: "
                            f"{report.aborted[0]['error']}")
        for method in report.methods:
            got = len(report.values[method]["ari"])
            if got != spec.trials - len(report.aborted):
                problems.append(f"{method} has {got} scores for "
                                f"{spec.trials} trials")
        return problems

    def same(self, a, b) -> bool:
        return a == b

    def quality(self, spec, report) -> float:
        return float(np.mean(report.values["proposed"]["ari"]))


WORKLOADS = {w.name: w for w in (
    # The Lloyd passes of k-means's 10 restarts ranged from 20 to 366 over
    # 45 input sets, at about 50 ms a pass; the median over five input sets
    # keeps one unlucky set from setting a run's wall_s.
    SessionWorkload("blobs-tcp-10x2", "blobs", clusters=3, per_cluster=100_000,
                    c=10, d=2, algorithm="kmeans", entry="run_tcp_session",
                    variants=5),
    SessionWorkload("circles-spectral-2x2", "circles", clusters=3,
                    per_cluster=1_500, c=2, d=2, algorithm="spectral",
                    entry="run_in_process_session"),
    ExperimentWorkload("iris-trials", "configs/iris_kmeans.cfg"),
)}
