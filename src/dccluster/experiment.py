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
import math
import os
import typing
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .clustering import kmeans, spectral_cluster
from .data import (LabeledDataset, make_blobs, make_circles, load_csv,
                   partition_lattice, feature_bounds, generate_anchor,
                   read_text, ASSIGNMENTS, MAX_BLOB_CLUSTERS)
from .errors import ConfigurationError
from .federation import (SessionConfig, SessionSettings, check_at_least_one,
                         run_in_process_session)
from .metrics import score_all
from .seeds import derive_seed

METRICS = ("ari", "nmi", "acc")
LOCAL_CHOICES = ("none", "first", "all")
FORMATS = ("csv", "json", "markdown-table")
FORMAT_ALIASES = {"md": "markdown-table"}


def _report_formats(names) -> tuple:
    """Canonical report format names, aliases resolved; unknown names raise."""
    out = tuple(FORMAT_ALIASES.get(n, n) for n in names)
    unknown = [n for n in out if n not in FORMATS]
    if unknown:
        raise ConfigurationError(f"unknown report formats {unknown}")
    return out


@dataclass
class ExperimentSpec(SessionSettings):
    name: str
    dataset: str                      # blobs | circles | csv
    c: int
    d: int
    k: int | None = None              # None: ground-truth cluster count
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
    centralized: bool = True
    local: str = "first"              # none | first | all
    out_dir: str = "reports"
    formats: tuple = FORMATS

    def __post_init__(self):
        super().__post_init__()
        self.formats = _report_formats(self.formats)
        check_at_least_one(self, "c", "d", "k", "trials", "anchor_size",
                           "clusters", "per_cluster")
        if self.dataset not in ("blobs", "circles", "csv"):
            raise ConfigurationError(f"unknown dataset kind {self.dataset!r}")
        if self.dataset == "circles" and self.clusters < 2:
            raise ConfigurationError("circles dataset needs at least 2 clusters")
        if self.dataset == "blobs" and self.clusters > MAX_BLOB_CLUSTERS:
            raise ConfigurationError(f"blobs dataset places at most "
                                     f"{MAX_BLOB_CLUSTERS} clusters")
        if self.dataset == "csv" and not self.csv_path:
            raise ConfigurationError("csv dataset needs csv_path")
        if self.assignment not in ASSIGNMENTS:
            raise ConfigurationError(f"assignment must be one of {ASSIGNMENTS}")
        if self.local not in LOCAL_CHOICES:
            raise ConfigurationError(f"local must be one of {LOCAL_CHOICES}")
        if self.col_blocks is not None and len(self.col_blocks) != self.d:
            raise ConfigurationError(f"col_blocks has {len(self.col_blocks)} "
                                     f"groups, expected d = {self.d}")
        for cluster, blocks in (self.cluster_map or {}).items():
            if not all(0 <= b < self.c for b in np.atleast_1d(blocks)):
                raise ConfigurationError(f"cluster_map sends cluster {cluster}"
                                         f" outside row blocks 0 to {self.c - 1}")
        by_map = self.assignment == "by-cluster-map"
        if by_map and self.cluster_map is None:
            raise ConfigurationError("by-cluster-map assignment needs cluster_map")
        if not by_map and self.cluster_map is not None:
            raise ConfigurationError(
                f"cluster_map is read only by assignment = by-cluster-map, "
                f"not {self.assignment}")

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
                # one trial: spread undefined, reported as 0; none: both NaN
                std = (float(vals.std(ddof=1)) if vals.size > 1
                       else 0.0 if vals.size else np.nan)
                mean = float(vals.mean()) if vals.size else np.nan
                out[method][metric] = {"mean": mean, "std": std}
        return out

    def completed_trials(self) -> int:
        return len(self.trial_seeds) - len(self.aborted)

    def to_json(self) -> str:
        """The report and its aggregate as strict JSON: a NaN or infinite
        number, which RFC 8259 cannot express, is written as null."""
        payload = {**asdict(self), "aggregate": self.aggregate()}
        return json.dumps(_finite_or_null(payload), indent=2, sort_keys=True,
                          allow_nan=False)


def _finite_or_null(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def trial_seed_for(spec: ExperimentSpec, t: int) -> int:
    """The seed of trial t, from which all of that trial's inputs derive."""
    return derive_seed(spec.master_seed, "trial", t)


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
    r = spec.anchor_size if spec.anchor_size is not None else ds.features.shape[0]
    anchor = generate_anchor(feature_bounds(ds.features), r,
                             rng_seed=derive_seed(trial_seed, "anchor"))
    settings = {f.name: getattr(spec, f.name) for f in fields(SessionSettings)}
    cfg = SessionConfig(c=spec.c, d=spec.d,
                        k=spec.k if spec.k is not None else ds.n_clusters,
                        master_seed=trial_seed, **settings)
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
        trial_seed = trial_seed_for(spec, t)
        trial_seeds.append(trial_seed)
        try:
            ds, part, anchor, cfg = trial_inputs(spec, trial_seed, loaded)
            outcome = run_in_process_session(ds.features, part, anchor, cfg)
            y_rows = ds.labels[part.row_order()]
            scores = {"proposed": score_all(y_rows, outcome.report.labels)}
            m_hats.append(outcome.report.model.m_hat)
            residuals.append(outcome.report.model.residual)

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

def emit_report(report: TrialReport):
    """Write the aggregate table and per-trial values in the formats and
    under the `out_dir` of the report's spec; returns written paths."""
    spec = report.spec
    formats = _report_formats(spec["formats"])
    out_dir = spec["out_dir"]
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

    if "markdown-table" in formats:
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

def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError("must be true/false")
    return text.lower() == "true"


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


# Every ExperimentSpec field is a config key, parsed by its declared type
# unless it has a parser of its own.
_TYPE_PARSERS = {bool: _parse_bool, int: int, str: str, str | None: str,
                 int | None: lambda t: None if t.lower() == "none" else int(t)}
_KEY_PARSERS = {"cluster_map": _parse_cluster_map,
                "col_blocks": _parse_col_blocks,
                "formats": lambda text: tuple(v.strip() for v in text.split(","))}
_PARSERS = {key: _KEY_PARSERS.get(key) or _TYPE_PARSERS[hint]
            for key, hint in typing.get_type_hints(ExperimentSpec).items()}


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
        if key not in _PARSERS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        try:
            raw[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ConfigurationError(f"line {lineno}: {key}: {exc}") from None
    try:
        return ExperimentSpec(**raw)
    except TypeError as exc:
        raise ConfigurationError(str(exc)) from None


def load_config(path: str) -> ExperimentSpec:
    """The spec of a UTF-8 config file, a byte-order mark dropped, named
    after the file unless it names itself."""
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_config(read_text(path, ConfigurationError), name=name)
