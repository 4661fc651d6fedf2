"""Deterministic dense linear algebra kernels.

Thin wrappers around LAPACK (via numpy/scipy) that pin down the conventions
the rest of the package relies on: a fixed sign convention for factor
columns, ascending eigenvalue order with stable tie handling, and a
documented singular-value cutoff for the pseudoinverse.  Repeated calls on
identical input are bit-identical.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ContractViolationError, NumericFailureError

# Asymmetry beyond this is treated as a caller bug rather than roundoff.
SYMMETRY_ATOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float64 array with finite entries."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ContractViolationError(f"{name} must be 2-D, got shape {out.shape}")
    if out.size and not np.all(np.isfinite(out)):
        raise ContractViolationError(f"{name} contains NaN or Inf")
    return out


def _fix_signs(u: np.ndarray, vt: np.ndarray | None = None):
    """Flip factor columns so the largest-magnitude entry is nonnegative.

    Ties on magnitude are broken by the lowest row index (np.argmax).  When
    vt is given its rows are flipped together with u's columns so the
    product is unchanged.
    """
    if u.shape[0] == 0 or u.shape[1] == 0:
        return u, vt
    lead = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[lead, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    u = u * signs
    if vt is not None:
        vt = vt * signs[:, None]
    return u, vt


@dataclass(frozen=True)
class SvdResult:
    """Factors a = u @ diag(s) @ vt with s nonincreasing and sign-fixed u."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray


def svd(a, top_k: int | None = None) -> SvdResult:
    """Singular value decomposition with deterministic column signs.

    top_k truncates to the leading singular triplets after the sign fix.
    """
    a = as_matrix(a)
    if top_k is not None and not 1 <= top_k <= min(a.shape):
        raise ContractViolationError(
            f"top_k must be in [1, {min(a.shape)}], got {top_k}")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError("svd", str(exc)) from exc
    u, vt = _fix_signs(u, vt)
    if top_k is not None:
        u, s, vt = u[:, :top_k], s[:top_k], vt[:top_k]
    return SvdResult(u=u, s=s, vt=vt)


def pinv(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values at or below eps * max(n_rows, n_cols) * sigma_max are
    treated as zero, so rank-deficient input degrades gracefully and a zero
    matrix maps to its transposed-shape zero matrix.
    """
    a = as_matrix(a)
    if a.size == 0:
        return np.zeros((a.shape[1], a.shape[0]))
    res = svd(a)
    cutoff = np.finfo(np.float64).eps * max(a.shape) * (res.s[0] if res.s.size else 0.0)
    inv_s = np.zeros_like(res.s)
    np.divide(1.0, res.s, out=inv_s, where=res.s > cutoff)
    return (res.vt.T * inv_s) @ res.u.T


@dataclass(frozen=True)
class EigResult:
    """Eigenpairs of a symmetric matrix, eigenvalues ascending."""

    values: np.ndarray
    vectors: np.ndarray


def eig_symmetric(a, top_k: int | None = None) -> EigResult:
    """Eigendecomposition of a symmetric matrix.

    The input must be square and symmetric within SYMMETRY_ATOL; it is
    symmetrized exactly before the solve.  Eigenvalues come back ascending.
    Vector columns are sign-fixed, and exactly-tied eigenvalues keep a
    stable order: their columns are sorted lexicographically by entries.
    top_k keeps only the smallest top_k eigenpairs (computed directly by a
    subset solver, which is much cheaper on large matrices).
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ContractViolationError(f"matrix is not square: {a.shape}")
    if a.size and np.max(np.abs(a - a.T)) > SYMMETRY_ATOL:
        raise ContractViolationError("matrix is not symmetric within 1e-10")
    if top_k is not None and not 1 <= top_k <= a.shape[0]:
        raise ContractViolationError(
            f"top_k must be in [1, {a.shape[0]}], got {top_k}")
    sym = (a + a.T) / 2.0
    try:
        if top_k is None or top_k == a.shape[0]:
            values, vectors = np.linalg.eigh(sym)
        else:
            values, vectors = scipy.linalg.eigh(sym, subset_by_index=[0, top_k - 1])
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericFailureError("eig_symmetric", str(exc)) from exc
    vectors, _ = _fix_signs(vectors)
    # Stable order inside groups of exactly equal eigenvalues.
    start = 0
    for end in range(1, values.size + 1):
        if end == values.size or values[end] != values[start]:
            if end - start > 1:
                order = np.lexsort(np.flipud(vectors[:, start:end]))
                vectors[:, start:end] = vectors[:, start:end][:, order]
            start = end
    return EigResult(values=values, vectors=vectors)


def standardize(x):
    """Center columns and divide by their population standard deviation.

    Returns (standardized, means, scales).  Zero-variance columns get scale
    1.0 so they pass through as zeros instead of dividing by zero.
    """
    x = as_matrix(x)
    if x.shape[0] < 1:
        raise ContractViolationError("standardize needs at least one row")
    means = x.mean(axis=0)
    scales = x.std(axis=0)  # population std, divisor n
    scales = np.where(scales == 0.0, 1.0, scales)
    return (x - means) / scales, means, scales
