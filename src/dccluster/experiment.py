"""Config-driven trial runner with baselines and report emission.

An experiment compares three ways of clustering the same lattice-partitioned
dataset: the collaborative method run over the in-process federation, a
centralized run on the pooled data, and local runs on single blocks.  Every
trial derives its own seed from the master seed, so a report is reproducible
bit for bit from its config.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from .clustering import kmeans, spectral_cluster
from .data import (LabeledDataset, make_blobs, make_circles, load_csv,
                   partition_lattice, feature_bounds, generate_anchor,
                   ASSIGNMENTS)
from .errors import ConfigurationError
from .federation import SessionConfig, run_in_process_session
from .metrics import score_all
from .seeds import derive_seed

METRICS = ("ari", "nmi", "acc")
ALGORITHMS = ("kmeans", "spectral")
LOCAL_CHOICES = ("none", "first", "all")


@dataclass
class ExperimentSpec:
    name: str
    dataset: str                      # blobs | circles | csv
    c: int
    d: int
    algorithm: str = "kmeans"
    mode: str = "affine"
    k: int | None = None              # None: ground-truth cluster count
    neighbors: int = 10
    max_iter: int = 300
    trials: int = 1
    master_seed: int = 0
    assignment: str = "iid-random"
    cluster_map: dict | None = None
    col_blocks: tuple | None = None   # fixed feature split, else per-trial random
    csv_path: str | None = None
    label_column: str | None = None
    clusters: int = 3                 # synthetic generators
    per_cluster: int = 500
    anchor_size: int | None = None    # None: matches the row count
    m_hat: int | None = None
    scale: bool = False
    restarts: int = 10
    centralized: bool = True
    local: str = "first"              # none | first | all
    out_dir: str = "reports"
    formats: tuple = ("csv", "json", "markdown-table")

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigurationError("trials must be at least 1")
        if self.dataset not in ("blobs", "circles", "csv"):
            raise ConfigurationError(f"unknown dataset kind {self.dataset!r}")
        if self.dataset == "csv" and not self.csv_path:
            raise ConfigurationError("csv dataset needs csv_path")
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(f"algorithm must be one of {ALGORITHMS}")
        if self.assignment not in ASSIGNMENTS:
            raise ConfigurationError(f"assignment must be one of {ASSIGNMENTS}")
        if self.local not in LOCAL_CHOICES:
            raise ConfigurationError(f"local must be one of {LOCAL_CHOICES}")

    def echo(self) -> dict:
        out = asdict(self)
        if out["cluster_map"] is not None:
            out["cluster_map"] = {str(kk): list(v) if not np.isscalar(v) else [v]
                                  for kk, v in out["cluster_map"].items()}
        if out["col_blocks"] is not None:
            out["col_blocks"] = [list(b) for b in out["col_blocks"]]
        out["formats"] = list(out["formats"])
        return out


@dataclass
class TrialReport:
    spec: dict
    methods: list
    trial_seeds: list
    values: dict                      # method -> metric -> per-trial list
    aborted: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def aggregate(self) -> dict:
        out = {}
        for method in self.methods:
            out[method] = {}
            for metric in METRICS:
                vals = np.asarray(self.values[method][metric], dtype=float)
                # single trial: variability is undefined, reported as 0
                std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
                out[method][metric] = {"mean": float(vals.mean()), "std": std}
        return out

    def completed_trials(self) -> int:
        return len(self.trial_seeds) - len(self.aborted)

    def to_json(self) -> str:
        payload = {"spec": self.spec, "methods": self.methods,
                   "trial_seeds": self.trial_seeds, "values": self.values,
                   "aborted": self.aborted, "extras": self.extras,
                   "aggregate": self.aggregate()}
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrialReport":
        raw = json.loads(text)
        return cls(spec=raw["spec"], methods=raw["methods"],
                   trial_seeds=raw["trial_seeds"], values=raw["values"],
                   aborted=raw["aborted"], extras=raw["extras"])

    def __eq__(self, other):
        if not isinstance(other, TrialReport):
            return NotImplemented
        return (self.spec == other.spec and self.methods == other.methods
                and self.trial_seeds == other.trial_seeds
                and self.values == other.values and self.aborted == other.aborted
                and self.extras == other.extras)


def trial_inputs(spec: ExperimentSpec, trial_seed: int,
                 loaded: LabeledDataset | None = None):
    """Dataset, partition, anchor and session config of one trial.

    Everything derives from the spec and the trial seed, so every role of a
    session re-derives identical inputs.  A csv dataset is read from
    spec.csv_path unless `loaded` already holds it.
    Returns (dataset, partition, anchor, SessionConfig).
    """
    if spec.dataset == "csv":
        ds = loaded if loaded is not None else load_csv(
            spec.csv_path, label_column=spec.label_column)
    else:
        gen = make_blobs if spec.dataset == "blobs" else make_circles
        ds = gen(spec.clusters, spec.per_cluster,
                 rng_seed=derive_seed(trial_seed, "data"))
    part = partition_lattice(ds, spec.c, spec.d, spec.assignment,
                             rng_seed=derive_seed(trial_seed, "partition"),
                             cluster_map=spec.cluster_map,
                             col_index_sets=spec.col_blocks)
    r = spec.anchor_size if spec.anchor_size else ds.features.shape[0]
    anchor = generate_anchor(feature_bounds(ds.features), r,
                             rng_seed=derive_seed(trial_seed, "anchor"))
    cfg = SessionConfig(c=spec.c, d=spec.d,
                        k=spec.k if spec.k is not None else ds.n_clusters,
                        algorithm=spec.algorithm, mode=spec.mode,
                        neighbors=spec.neighbors, max_iter=spec.max_iter,
                        master_seed=trial_seed, m_hat=spec.m_hat,
                        scale=spec.scale, restarts=spec.restarts)
    return ds, part, anchor, cfg


def _local_parties(spec: ExperimentSpec):
    if spec.local == "none":
        return []
    if spec.local == "first":
        return [(0, 0)]
    return [(i, j) for i in range(spec.c) for j in range(spec.d)]


def _cluster_plain(x, k, algorithm, neighbors, max_iter, seed, restarts):
    if algorithm == "kmeans":
        return kmeans(x, k, max_iter=max_iter, rng_seed=seed, restarts=restarts)
    return spectral_cluster(x, k, neighbors=neighbors, max_iter=max_iter,
                            rng_seed=seed, restarts=restarts)


def run_experiment(spec: ExperimentSpec) -> TrialReport:
    """Run every trial, collect per-method metrics, never stop on one failure.

    Aborted trials keep their seed slot but contribute no values; the report
    lists them with the error text so a rerun can target them.
    """
    loaded = None
    if spec.dataset == "csv":
        loaded = load_csv(spec.csv_path, label_column=spec.label_column)

    methods = ["proposed"]
    if spec.centralized:
        methods.append("centralized")
    locals_wanted = _local_parties(spec)
    methods += [f"local({i},{j})" for i, j in locals_wanted]

    values = {m: {metric: [] for metric in METRICS} for m in methods}
    trial_seeds, aborted = [], []
    m_hats, residuals = [], []

    for t in range(spec.trials):
        trial_seed = derive_seed(spec.master_seed, "trial", t)
        trial_seeds.append(trial_seed)
        try:
            ds, part, anchor, cfg = trial_inputs(spec, trial_seed, loaded)
            outcome = run_in_process_session(ds.features, part, anchor, cfg)
            labels = np.concatenate([outcome.user_labels[(i, 0)]
                                     for i in range(spec.c)])
            y_rows = ds.labels[part.row_order()]
            scores = {"proposed": score_all(y_rows, labels)}
            m_hats.append(outcome.report.m_hat)
            residuals.append(outcome.report.residual)

            if spec.centralized:
                model = _cluster_plain(ds.features, cfg.k, spec.algorithm,
                                       spec.neighbors, spec.max_iter,
                                       derive_seed(trial_seed, "centralized"),
                                       spec.restarts)
                scores["centralized"] = score_all(ds.labels, model.labels)

            for i, j in locals_wanted:
                block = part.block(ds.features, i, j)
                y_block = ds.labels[part.row_index_sets[i]]
                k_local = min(cfg.k, block.shape[0])
                model = _cluster_plain(block, k_local, spec.algorithm,
                                       min(spec.neighbors, block.shape[0] - 1),
                                       spec.max_iter,
                                       derive_seed(trial_seed, "local", i, j),
                                       spec.restarts)
                scores[f"local({i},{j})"] = score_all(y_block, model.labels)
        except Exception as exc:   # noqa: BLE001 - trial isolation is the point
            aborted.append({"trial": t, "seed": trial_seed, "error": repr(exc)})
            continue

        for method, s in scores.items():
            for metric in METRICS:
                values[method][metric].append(s[metric])

    extras = {"neighbors": spec.neighbors,
              "m_hat_used": sorted(set(m_hats)),
              "mean_residual": float(np.mean(residuals)) if residuals else None}
    return TrialReport(spec=spec.echo(), methods=methods,
                       trial_seeds=trial_seeds, values=values,
                       aborted=aborted, extras=extras)


# --- report emission ---------------------------------------------------------

def emit_report(report: TrialReport, formats=None, out_dir=None):
    """Write the aggregate table and per-trial values; returns written paths."""
    spec = report.spec
    formats = list(formats if formats is not None else spec["formats"])
    out_dir = out_dir if out_dir is not None else spec["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    name = spec["name"]
    agg = report.aggregate()
    written = []

    if "csv" in formats:
        path = os.path.join(out_dir, f"{name}_aggregate.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["method", "metric", "mean", "std", "trials"])
            for method in report.methods:
                for metric in METRICS:
                    cell = agg[method][metric]
                    w.writerow([method, metric, repr(cell["mean"]),
                                repr(cell["std"]), report.completed_trials()])
        written.append(path)
        path = os.path.join(out_dir, f"{name}_trials.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["trial", "seed", "method", "metric", "value"])
            aborted_slots = {a["trial"] for a in report.aborted}
            live = [t for t in range(len(report.trial_seeds))
                    if t not in aborted_slots]
            for pos, t in enumerate(live):
                for method in report.methods:
                    for metric in METRICS:
                        w.writerow([t, report.trial_seeds[t], method, metric,
                                    repr(report.values[method][metric][pos])])
        written.append(path)

    if "json" in formats:
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w") as fh:
            fh.write(report.to_json())
        written.append(path)

    if "markdown-table" in formats or "md" in formats:
        path = os.path.join(out_dir, f"{name}.md")
        lines = [f"# {name}", "",
                 f"trials: {report.completed_trials()} "
                 f"(aborted: {len(report.aborted)}), "
                 f"algorithm: {spec['algorithm']}, "
                 f"neighbors: {report.extras.get('neighbors')}", "",
                 "| method | " + " | ".join(m.upper() for m in METRICS) + " |",
                 "|---" * (len(METRICS) + 1) + "|"]
        for method in report.methods:
            cells = [f"{agg[method][m]['mean']:.3f} ({agg[method][m]['std']:.3f})"
                     for m in METRICS]
            lines.append("| " + " | ".join([method] + cells) + " |")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        written.append(path)

    return written


# --- flat key-value configs --------------------------------------------------

_BOOL_KEYS = {"scale", "centralized"}
_INT_KEYS = {"c", "d", "k", "neighbors", "max_iter", "trials", "master_seed",
             "clusters", "per_cluster", "anchor_size", "m_hat", "restarts"}
_NONE_OK = {"k", "anchor_size", "m_hat"}


def _parse_cluster_map(text: str) -> dict:
    # "0:0 1:0,1 2:1" reads as cluster id -> row block(s)
    out = {}
    for entry in text.split():
        cluster, _, blocks = entry.partition(":")
        if not blocks:
            raise ConfigurationError(f"bad cluster_map entry {entry!r}")
        out[int(cluster)] = tuple(int(b) for b in blocks.split(","))
    return out


def _parse_col_blocks(text: str) -> tuple:
    # "0,2,3|1,4,5" reads as one comma list of feature indices per column block
    return tuple(tuple(int(i) for i in grp.split(",")) for grp in text.split("|"))


def parse_config(text: str, name: str = "experiment") -> ExperimentSpec:
    """Flat `key = value` lines; # starts a comment; later keys win."""
    raw: dict = {"name": name}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigurationError(f"line {lineno}: expected key = value")
        key, value = key.strip(), value.strip()
        if key in _BOOL_KEYS:
            if value.lower() not in ("true", "false"):
                raise ConfigurationError(f"line {lineno}: {key} must be true/false")
            raw[key] = value.lower() == "true"
        elif key in _INT_KEYS:
            if value.lower() == "none" and key in _NONE_OK:
                raw[key] = None
            else:
                raw[key] = int(value)
        elif key == "cluster_map":
            raw[key] = _parse_cluster_map(value)
        elif key == "col_blocks":
            raw[key] = _parse_col_blocks(value)
        elif key == "formats":
            raw[key] = tuple(v.strip() for v in value.split(","))
        elif key in ("name", "dataset", "algorithm", "mode", "assignment",
                     "csv_path", "label_column", "local", "out_dir"):
            raw[key] = value
        else:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
    try:
        return ExperimentSpec(**raw)
    except TypeError as exc:
        raise ConfigurationError(str(exc)) from None


def load_config(path: str) -> ExperimentSpec:
    with open(path) as fh:
        text = fh.read()
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_config(text, name=name)
