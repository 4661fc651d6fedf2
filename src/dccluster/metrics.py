"""External clustering quality indices: ARI, NMI, and accuracy.

All three compare a predicted labeling against ground truth and are
invariant to label renaming.  Degenerate single-cluster cases take the
conventional values noted on each function.  Only accuracy's label
matching uses scipy, and scipy.optimize loads most of scipy, so _acc imports
it on its first call rather than with this module.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractViolationError


def _check_pair(y_true, y_pred):
    yt = np.asarray(y_true).ravel()
    yp = np.asarray(y_pred).ravel()
    if yt.size == 0 or yt.size != yp.size:
        raise ContractViolationError(
            f"label vectors must be equal-length and nonempty, got {yt.size} and {yp.size}")
    return yt, yp


def contingency(y_true, y_pred) -> np.ndarray:
    """Cluster co-occurrence counts; rows follow y_true, columns y_pred."""
    yt, yp = _check_pair(y_true, y_pred)
    _, ti = np.unique(yt, return_inverse=True)
    _, pi = np.unique(yp, return_inverse=True)
    rows, cols = ti.max() + 1, pi.max() + 1
    return np.bincount(ti * cols + pi, minlength=rows * cols).reshape(
        rows, cols).astype(np.int64, copy=False)


def _comb2(x):
    return x * (x - 1) / 2.0


def ari(y_true, y_pred) -> float:
    """Adjusted Rand index via pair counting.

    1.0 for partitions identical up to renaming, ~0 for independent ones,
    and negative for worse-than-chance agreement.  When the chance-corrected
    denominator is zero (both partitions all-in-one or all-singletons, which
    forces agreement) the value is defined as 1.0.
    """
    return _ari(contingency(y_true, y_pred))


def _ari(table) -> float:
    n = table.sum()
    sum_cells = _comb2(table).sum()
    sum_rows = _comb2(table.sum(axis=1)).sum()
    sum_cols = _comb2(table.sum(axis=0)).sum()
    expected = sum_rows * sum_cols / _comb2(n) if n >= 2 else 0.0
    denom = 0.5 * (sum_rows + sum_cols) - expected
    if denom == 0.0:
        return 1.0
    return float((sum_cells - expected) / denom)


def _entropy(counts, n):
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(y_true, y_pred) -> float:
    """Mutual information normalized by the geometric mean of entropies.

    Natural logarithms throughout.  If either labeling has zero entropy the
    value is 1.0 when both are single-cluster (forced agreement) and 0.0
    otherwise.
    """
    return _nmi(contingency(y_true, y_pred))


def _nmi(table) -> float:
    n = table.sum()
    h_true = _entropy(table.sum(axis=1), n)
    h_pred = _entropy(table.sum(axis=0), n)
    if h_true == 0.0 or h_pred == 0.0:
        return 1.0 if table.shape == (1, 1) else 0.0
    outer = np.outer(table.sum(axis=1), table.sum(axis=0))
    nz = table > 0
    mi = float((table[nz] / n * np.log(n * table[nz] / outer[nz])).sum())
    return float(mi / np.sqrt(h_true * h_pred))


def acc(y_true, y_pred) -> float:
    """Clustering accuracy under the best one-to-one label matching.

    The contingency table is padded to square and an optimal assignment
    maximizes the matched count; surplus clusters match nothing.
    """
    return _acc(contingency(y_true, y_pred))


def _acc(table) -> float:
    from scipy.optimize import linear_sum_assignment
    size = max(table.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    rows, cols = linear_sum_assignment(padded.max() - padded)
    return float(padded[rows, cols].sum() / table.sum())


def score_all(y_true, y_pred) -> dict[str, float]:
    """The three indices in one call, keyed by short name, from one
    contingency table."""
    table = contingency(y_true, y_pred)
    return {"ari": _ari(table), "nmi": _nmi(table), "acc": _acc(table)}
