"""Datasets, lattice partitioning, and anchor generation.

A dataset is split across institutions along both axes: row blocks hold
disjoint records, column blocks hold disjoint features, and institution
(i, j) sees only the intersection.  The anchor is a shareable random
dataset drawn inside the per-feature bounds of the real data; every
institution can apply its own feature map to it, which is what lets the
analyst align their outputs later.
"""
from __future__ import annotations

from dataclasses import dataclass
import csv
import io
import math

import numpy as np

from .errors import ConfigurationError, ContractViolationError, IngestionError
from .numerics import as_matrix

# Minor (nuisance) features attached to the synthetic generators: 4-D
# Gaussian noise, variance 0.1 per feature, covariance 0.01 across features.
MINOR_FEATURES = 4
MINOR_VAR = 0.1
MINOR_COV = 0.01
# Blob centers are drawn inside this box, at least MIN_CENTER_DIST apart.
CENTER_BOX = (-10.0, 10.0)
MIN_CENTER_DIST = 9.0
# Ring j of the circles generator has radius OUTER_RADIUS * RING_DECAY**j.
OUTER_RADIUS = 6.0
RING_DECAY = 0.6

ASSIGNMENTS = ("iid-random", "contiguous", "by-cluster-map")
# feature_bounds copies rows this many doubles at a time, 256 KiB, into a
# coordinate-major block, so each feature reduces along contiguous memory.
# On 300 000 x 6 rows, on 2 cores with numpy 2.4.6, that took 3.3 ms,
# against 23 ms for the row-major reduction and 6.6 ms for one copy of the
# whole matrix, whose freeing raised glibc's mmap threshold and blobs'
# benchmark peak RSS from about 660 to 720 MB.
BOUNDS_BLOCK = 2 ** 15


@dataclass
class LabeledDataset:
    """Feature matrix plus integer ground-truth labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = as_matrix(self.features, "features")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise ContractViolationError(
                f"labels shape {self.labels.shape} does not match "
                f"{self.features.shape[0]} rows")

    @property
    def n_clusters(self) -> int:
        return int(np.unique(self.labels).size)


@dataclass
class LatticePartition:
    """Index sets describing a c-by-d grid split of a dataset."""

    row_index_sets: list[np.ndarray]
    col_index_sets: list[np.ndarray]

    @property
    def c(self) -> int:
        return len(self.row_index_sets)

    @property
    def d(self) -> int:
        return len(self.col_index_sets)

    def block(self, x: np.ndarray, i: int, j: int) -> np.ndarray:
        # rows, then columns: equal to x[np.ix_(rows, cols)], and the 20
        # blobs blocks take 12 ms instead of 18 ms on a 2-core Xeon
        rows = np.take(x, self.row_index_sets[i], axis=0)
        return np.take(rows, self.col_index_sets[j], axis=1)

    def row_order(self) -> np.ndarray:
        """Original row indices in row-block order (block 0 first)."""
        return np.concatenate(self.row_index_sets)


@dataclass
class AnchorDataset:
    """Random shareable dataset drawn within per-feature bounds."""

    features: np.ndarray


def partition_lattice(ds: LabeledDataset, c: int, d: int, assignment: str,
                      rng_seed: int = 0, cluster_map=None,
                      col_index_sets=None) -> LatticePartition:
    """Split a dataset into a c-by-d lattice of institution blocks.

    assignment picks how rows (and, for iid-random, features) are allocated:
      iid-random      seeded shuffle of rows and features, then equal splits
      contiguous      input order, equal splits
      by-cluster-map  rows routed by cluster_map {cluster id -> row block(s)};
                      a cluster listed with several blocks is split across
                      them at random
    col_index_sets, when given, overrides the feature allocation with
    explicit index lists (one per column block).
    """
    n, m = ds.features.shape
    if not 1 <= c <= n:
        raise ContractViolationError(f"c must be in [1, {n}], got {c}")
    if not 1 <= d <= m:
        raise ContractViolationError(f"d must be in [1, {m}], got {d}")
    if assignment not in ASSIGNMENTS:
        raise ConfigurationError(f"unknown assignment {assignment!r}")
    rng = np.random.default_rng(rng_seed)

    if assignment == "iid-random":
        rows = np.array_split(rng.permutation(n), c)
    elif assignment == "contiguous":
        rows = np.array_split(np.arange(n), c)
    else:
        rows = _rows_by_cluster_map(ds.labels, c, cluster_map, rng)

    if col_index_sets is not None:
        cols = [np.asarray(s, dtype=np.int64) for s in col_index_sets]
        if len(cols) != d:
            raise ConfigurationError(
                f"col_index_sets has {len(cols)} blocks, expected {d}")
        flat = np.concatenate(cols) if cols else np.array([], dtype=np.int64)
        if not np.array_equal(np.sort(flat), np.arange(m)):
            raise ConfigurationError(
                "col_index_sets must cover every feature exactly once")
    elif assignment == "iid-random":
        cols = np.array_split(rng.permutation(m), d)
    else:
        cols = np.array_split(np.arange(m), d)

    for i, r in enumerate(rows):
        if len(r) == 0:
            raise ConfigurationError(f"row block {i} is empty")
    for j, s in enumerate(cols):
        if len(s) == 0:
            raise ConfigurationError(f"column block {j} is empty")
    return LatticePartition(row_index_sets=[np.asarray(r, dtype=np.int64) for r in rows],
                            col_index_sets=[np.asarray(s, dtype=np.int64) for s in cols])


def _rows_by_cluster_map(labels, c, cluster_map, rng):
    if cluster_map is None:
        raise ConfigurationError("by-cluster-map assignment needs cluster_map")
    present = np.unique(labels)
    missing = [int(k) for k in present if int(k) not in cluster_map]
    if missing:
        raise ConfigurationError(f"cluster_map lacks entries for clusters {missing}")
    buckets: list[list[np.ndarray]] = [[] for _ in range(c)]
    for cluster in present:
        target = cluster_map[int(cluster)]
        blocks = [target] if np.isscalar(target) else list(target)
        for b in blocks:
            if not 0 <= int(b) < c:
                raise ConfigurationError(
                    f"cluster {int(cluster)} mapped to invalid row block {b}")
        idx = np.flatnonzero(labels == cluster)
        if len(blocks) == 1:
            buckets[int(blocks[0])].append(idx)
        else:
            for b, part in zip(blocks, np.array_split(rng.permutation(idx), len(blocks))):
                buckets[int(b)].append(part)
    return [np.sort(np.concatenate(parts)) if parts else np.array([], dtype=np.int64)
            for parts in buckets]


def _minor_features(n: int, rng) -> np.ndarray:
    cov = np.full((MINOR_FEATURES, MINOR_FEATURES), MINOR_COV)
    np.fill_diagonal(cov, MINOR_VAR)
    return rng.multivariate_normal(np.zeros(MINOR_FEATURES), cov, size=n)


def make_blobs(k: int, per_cluster: int, rng_seed: int = 0) -> LabeledDataset:
    """Isotropic Gaussian blobs in 2 major features plus 4 minor features.

    Centers are rejection-sampled uniformly inside CENTER_BOX until every
    pair is at least MIN_CENTER_DIST apart, which keeps the clusters well
    separated relative to their unit variance.
    """
    if k < 1 or per_cluster < 1:
        raise ConfigurationError("k and per_cluster must be positive")
    rng = np.random.default_rng(rng_seed)
    lo, hi = CENTER_BOX
    centers = []
    for _ in range(k):
        for _attempt in range(10000):
            cand = rng.uniform(lo, hi, size=2)
            if all(np.linalg.norm(cand - c) >= MIN_CENTER_DIST for c in centers):
                centers.append(cand)
                break
        else:
            raise ConfigurationError(
                f"could not place {k} centers {MIN_CENTER_DIST} apart in {CENTER_BOX}")
    n = k * per_cluster
    major = np.vstack([c + rng.standard_normal((per_cluster, 2)) for c in centers])
    features = np.hstack([major, _minor_features(n, rng)])
    labels = np.repeat(np.arange(k), per_cluster)
    return LabeledDataset(features=features, labels=labels)


def make_circles(rings: int, per_cluster: int, noise_std: float = 0.05,
                 rng_seed: int = 0) -> LabeledDataset:
    """Concentric rings in 2 major features plus 4 minor features.

    Ring j has radius OUTER_RADIUS * RING_DECAY**j; angles are uniform and both
    major coordinates get Gaussian noise of scale noise_std.  Rings are
    separable by a neighborhood graph but not by centroid distance, so they
    discriminate spectral clustering from plain k-means.
    """
    if rings < 2 or per_cluster < 1:
        raise ConfigurationError("need at least 2 rings and 1 point per ring")
    if noise_std < 0:
        raise ConfigurationError("noise_std must be nonnegative")
    rng = np.random.default_rng(rng_seed)
    majors = []
    for j in range(rings):
        radius = OUTER_RADIUS * RING_DECAY ** j
        theta = rng.uniform(0.0, 2.0 * np.pi, size=per_cluster)
        ring = radius * np.column_stack([np.cos(theta), np.sin(theta)])
        ring += noise_std * rng.standard_normal((per_cluster, 2))
        majors.append(ring)
    n = rings * per_cluster
    features = np.hstack([np.vstack(majors), _minor_features(n, rng)])
    labels = np.repeat(np.arange(rings), per_cluster)
    return LabeledDataset(features=features, labels=labels)


def read_text(path, error=IngestionError) -> str:
    """A UTF-8 file's text, newlines as written and a byte-order mark
    dropped; a file that cannot be read or decoded raises `error`."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise error(f"cannot read {path}: {reason}") from exc


def load_csv(path, label_column: str) -> LabeledDataset:
    """Load a headered numeric CSV, factor-encoding the label column.

    Label codes follow first appearance order.  A cell that is not a finite
    number raises IngestionError with the 1-based file row and the column
    name.  A UTF-8 byte-order mark before the header is dropped.
    """
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise IngestionError(f"{path} is empty") from None
    header = [h.strip() for h in header]
    if label_column not in header:
        raise ConfigurationError(
            f"label column {label_column!r} not in header {header}")
    label_idx = header.index(label_column)

    rows, raw_labels = [], []
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise IngestionError(
                f"{path}: expected {len(header)} cells, got {len(row)}",
                row=row_no, column=len(header))
        vals = []
        for i, cell in enumerate(row):
            if i == label_idx:
                raw_labels.append(cell.strip())
                continue
            try:
                vals.append(float(cell))
                if not math.isfinite(vals[-1]):
                    raise ValueError
            except ValueError:
                raise IngestionError(
                    f"{path}: cannot parse {cell!r} as a finite number",
                    row=row_no, column=header[i]) from None
        rows.append(vals)
    if not rows:
        raise IngestionError(f"{path} has a header but no data rows")
    codes: dict[str, int] = {}
    labels = np.array([codes.setdefault(lab, len(codes)) for lab in raw_labels])
    return LabeledDataset(features=np.array(rows, dtype=np.float64),
                          labels=labels)


def feature_bounds(x) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature (min, max) of a matrix, reduced block by block over
    coordinate-major copies of its rows (see BOUNDS_BLOCK)."""
    x = as_matrix(x)
    if x.shape[0] == 0:
        raise ContractViolationError("bounds need at least one row")
    rows = max(1, BOUNDS_BLOCK // max(1, x.shape[1]))
    mins, maxs = np.full(x.shape[1], np.inf), np.full(x.shape[1], -np.inf)
    for start in range(0, x.shape[0], rows):
        xt = np.ascontiguousarray(x[start:start + rows].T)
        np.minimum(mins, xt.min(axis=1), out=mins)
        np.maximum(maxs, xt.max(axis=1), out=maxs)
    return mins, maxs


def generate_anchor(bounds: tuple[np.ndarray, np.ndarray], r: int,
                    rng_seed: int = 0) -> AnchorDataset:
    """Draw r rows uniformly inside per-feature [min, max] bounds."""
    mins, maxs = (np.asarray(b, dtype=np.float64) for b in bounds)
    if mins.shape != maxs.shape or mins.ndim != 1:
        raise ContractViolationError("bounds must be two equal-length vectors")
    if np.any(maxs < mins):
        raise ContractViolationError("max bound below min bound")
    if r < 1:
        raise ContractViolationError("anchor needs at least one row")
    rng = np.random.default_rng(rng_seed)
    features = rng.uniform(mins, maxs, size=(r, mins.size))
    return AnchorDataset(features=features)
