"""Deterministic linear algebra kernels.

Thin wrappers around LAPACK and ARPACK (via numpy/scipy) that pin down the
conventions the rest of the package relies on: a fixed sign convention for
factor columns, ascending eigenvalue order, and a
documented singular-value cutoff for the pseudoinverse.  Repeated calls on
identical input are bit-identical.  Only eig_symmetric, which serves the
spectral path, uses scipy, so it imports scipy itself: the alignment and
k-means run on numpy alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, NumericFailureError

# Asymmetry beyond this is treated as a caller bug rather than roundoff.
SYMMETRY_ATOL = 1e-10
# Shift-invert point for the sparse solver.  Below 0 so that a - sigma*I is
# positive definite for the positive semidefinite Laplacians it serves, and
# close to 0 so that the 1 / (lambda - sigma) transform still separates the
# null space from eigenvalues near 1e-5, which ring graphs have: -1e-3 took
# about three times as long as -1e-6 on a three-ring kNN graph of 4 500
# points whose fourth eigenvalue is 2.5e-5.
EIGSH_SIGMA = -1e-6
# Entries this close to a column's largest magnitude tie with it when the
# column's sign is chosen, so that roundoff cannot pick the sign of, say, an
# antisymmetric eigenvector: dense and sparse solvers differ by about 1e-13
# relative on path-graph eigenvectors of 1 000 nodes.
SIGN_TIE_RTOL = 1e-8
# leading_left_vectors takes a tall matrix's leading left singular vectors
# from its Gram matrix g = a.T @ a, eigenvalues lam_1 >= lam_2 >= ..., only
# when the relative gap (lam_m - lam_{m+1}) / lam_1, m = top_k, is at least
# this; since lam_{m+1} >= 0, that also makes lam_m / lam_1 at least this.
# Forming and solving g perturb it by about eps * lam_1, so:
# - the span of the m leading eigenvectors turns by at most about
#   eps * lam_1 / (lam_m - lam_{m+1}) <= eps / GRAM_RTOL (Davis-Kahan);
# - each u_j = a @ v_j / sqrt(lam_j) is off unit norm, and off orthogonal
#   to the others, by at most about eps * lam_1 / lam_m <= eps / GRAM_RTOL;
# and eps / GRAM_RTOL = 2.2e-11.  A rotation inside that span rotates
# everything aligned to it alike, leaving distances and residuals as they
# are, so the gaps between the leading eigenvalues need no test.
# well_conditioned_gram applies the same bound to a whole Gram matrix g =
# a.T @ a, as lam_min / lam_max >= GRAM_RTOL: solving least squares through
# g then loses about eps * cond(g) <= eps / GRAM_RTOL, and a's singular
# values have sigma_min / sigma_max >= sqrt(GRAM_RTOL) = 3.2e-3, above
# pinv's cutoff eps * max(a.shape) for any a of fewer than 1e13 rows, so
# a's rank is its width without factoring a.  The alignment takes its Gram
# route only where both bounds hold, every design's Gram block passing
# well_conditioned_gram and the stack's Gram matrix leading_left_vectors;
# it factors every other input by svd.
# Neither bound holds for eigenvalues in the subnormal range, below
# tiny = 2.2e-308, whose spacing is fixed at 4.9e-324 instead of eps
# relative: both checks decline a g whose smallest eigenvalue in use is
# below GRAM_FLOOR = tiny / eps = 1.0e-292.  At or above it, roundoff of
# about eps * lam is itself a normal number, so the relative bounds above
# hold, and 1 / lam <= eps / tiny = 1e292 stays finite where pinv inverts
# g's singular values: shares scaled by 1e-157 gave a Gram block near
# 1e-310, whose 1 / s overflowed into a NaN x_hat.
GRAM_RTOL = 1e-5
GRAM_FLOOR = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float64 array with finite entries."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ContractViolationError(f"{name} must be 2-D, got shape {out.shape}")
    if out.size and not np.all(np.isfinite(out)):
        raise ContractViolationError(f"{name} contains NaN or Inf")
    return out


def _fix_signs(u: np.ndarray, vt: np.ndarray | None = None) -> np.ndarray:
    """Flip factor columns in place so each one's leading entry is >= 0, and
    return the signs applied, one per column.

    The leading entry is the lowest-index one within a relative
    SIGN_TIE_RTOL of the column's largest magnitude.  Each column is
    searched on its own, along its length.  When vt is given its rows are
    flipped together with u's columns so the product is unchanged.
    """
    signs = np.ones(u.shape[1])
    if u.shape[0] == 0:
        return signs
    for j in range(u.shape[1]):
        mag = np.abs(u[:, j])
        lead = np.argmax(mag >= mag.max() * (1.0 - SIGN_TIE_RTOL))
        if u[lead, j] < 0.0:
            signs[j] = -1.0
            u[:, j] *= -1.0
            if vt is not None:
                vt[j] *= -1.0
    return signs


@dataclass(frozen=True)
class SvdResult:
    """Factors a = u @ diag(s) @ vt with s nonincreasing and sign-fixed u."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray


def _svd_factors(a: np.ndarray):
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError("svd", str(exc)) from exc


def svd(a, top_k: int | None = None) -> SvdResult:
    """Singular value decomposition with deterministic column signs.

    top_k truncates to the leading singular triplets before the sign fix,
    which gives each kept column the sign a full factorization would.
    """
    a = as_matrix(a)
    if top_k is not None and not 1 <= top_k <= min(a.shape):
        raise ContractViolationError(
            f"top_k must be in [1, {min(a.shape)}], got {top_k}")
    u, s, vt = _svd_factors(a)
    if top_k is not None:
        u, s, vt = u[:, :top_k], s[:top_k], vt[:top_k]
    _fix_signs(u, vt)
    return SvdResult(u=u, s=s, vt=vt)


def leading_left_vectors(gram, top_k: int, rows: int):
    """The Gram route to the top_k leading left singular vectors u of a
    matrix a of `rows` rows, from its Gram matrix gram = a.T @ a alone.

    With gram's leading eigenpairs (v, s**2), u = (a @ v) / s and
    a.T @ u = gram @ v / s.  Returns (v, s, a.T @ u), with no column sign
    fixed: the caller, who holds a, forms u and fixes its signs as svd's
    with `_fix_signs(u)`, whose returned signs a.T @ u's columns take too.
    Returns None where the route does not hold, and `svd_left_vectors(a,
    top_k)` is the route left: an a not taller than it is wide, a gram
    that is not finite (an a holding NaN or Inf, which svd refuses, or a
    finite a whose product overflowed), a relative eigengap
    (lam_m - lam_{m+1}) / lam_1 below GRAM_RTOL, or a lam_m below
    GRAM_FLOOR.
    """
    gram = np.asarray(gram, dtype=np.float64)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ContractViolationError(
            f"gram must be a square 2-D matrix, got shape {gram.shape}")
    if not 1 <= top_k <= min(rows, gram.shape[0]):
        raise ContractViolationError(
            f"top_k must be in [1, {min(rows, gram.shape[0])}], got {top_k}")
    if rows <= gram.shape[0] or not np.all(np.isfinite(gram)):
        return None
    try:
        lam, v = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError("eigh", str(exc)) from exc
    lam, v = lam[::-1], v[:, ::-1]
    below = max(lam[top_k], 0.0) if top_k < lam.size else 0.0
    if not (lam[top_k - 1] - below >= GRAM_RTOL * lam[0]
            and lam[top_k - 1] >= GRAM_FLOOR):
        return None
    s = np.sqrt(lam[:top_k])
    return v[:, :top_k], s, gram @ v[:, :top_k] / s


def svd_left_vectors(a, top_k: int) -> np.ndarray:
    """The route `leading_left_vectors` declines: the top_k leading left
    singular vectors of a, signs fixed."""
    return svd(a, top_k).u


def well_conditioned_gram(g) -> bool:
    """Whether a Gram matrix g = a.T @ a is finite, with eigenvalue ratio
    lam_min / lam_max at least GRAM_RTOL and lam_min at least GRAM_FLOOR,
    which proves a full column rank under pinv's cutoff and bounds what
    least squares through g loses (see GRAM_RTOL)."""
    if not np.all(np.isfinite(g)):
        return False
    try:
        lam = np.linalg.eigvalsh(g)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError("eigvalsh", str(exc)) from exc
    return bool(lam[0] >= max(GRAM_RTOL * lam[-1], GRAM_FLOOR))


def pinv(a) -> tuple[np.ndarray, int]:
    """Moore-Penrose pseudoinverse via SVD, and the rank it used.

    Singular values at or below eps * max(n_rows, n_cols) * sigma_max are
    treated as zero, so rank-deficient input degrades gracefully and a zero
    matrix maps to its transposed-shape zero matrix.  The rank counts the
    values above the cutoff, as numpy's matrix_rank does by default.  The
    factors' signs cancel exactly in the product, so they are not fixed.
    """
    a = as_matrix(a)
    if a.size == 0:
        return np.zeros((a.shape[1], a.shape[0])), 0
    u, s, vt = _svd_factors(a)
    cutoff = np.finfo(np.float64).eps * max(a.shape) * s[0]
    kept = s > cutoff
    inv_s = np.zeros_like(s)
    np.divide(1.0, s, out=inv_s, where=kept)
    return (vt.T * inv_s) @ u.T, int(np.count_nonzero(kept))


@dataclass(frozen=True)
class EigResult:
    """Eigenpairs of a symmetric matrix, eigenvalues ascending."""

    values: np.ndarray
    vectors: np.ndarray


def eig_symmetric(a, top_k: int | None = None) -> EigResult:
    """Eigendecomposition of a symmetric matrix, dense or scipy sparse.

    The input must be square, finite and symmetric within SYMMETRY_ATOL; it
    is symmetrized exactly before the solve.  Eigenvalues come back
    ascending, and vector columns are sign-fixed.  top_k keeps only the
    smallest top_k eigenpairs.  For sparse
    input with top_k < n - 1 they come from ARPACK in shift-invert mode
    around EIGSH_SIGMA, started from a fixed vector so that repeated calls
    agree.  It finds the eigenvalues nearest EIGSH_SIGMA, which are the
    smallest only when the matrix is positive semidefinite, as a graph
    Laplacian is.  Otherwise the input, densified if sparse, is solved in
    full by LAPACK and its first top_k pairs are kept, so they are exactly
    the prefix of the full solve.
    """
    import scipy.sparse
    import scipy.sparse.linalg
    if scipy.sparse.issparse(a):
        a = scipy.sparse.csr_array(a, dtype=np.float64)
        if not np.all(np.isfinite(a.data)):
            raise ContractViolationError("matrix contains NaN or Inf")
    else:
        a = as_matrix(a)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ContractViolationError(f"matrix is not square: {a.shape}")
    if n and abs(a - a.T).max() > SYMMETRY_ATOL:
        raise ContractViolationError("matrix is not symmetric within 1e-10")
    if top_k is not None and not 1 <= top_k <= n:
        raise ContractViolationError(
            f"top_k must be in [1, {n}], got {top_k}")
    sym = (a + a.T) / 2.0
    try:
        if scipy.sparse.issparse(sym) and top_k is not None and top_k < n - 1:
            # ARPACK's own start vector comes from a generator whose state
            # carries over between calls, so it is fixed here.
            v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
            values, vectors = scipy.sparse.linalg.eigsh(
                sym, k=top_k, sigma=EIGSH_SIGMA, which="LM", v0=v0)
            order = np.argsort(values, kind="stable")
            values, vectors = values[order], vectors[:, order]
        else:
            if scipy.sparse.issparse(sym):
                sym = sym.toarray()
            values, vectors = np.linalg.eigh(sym)
    except (np.linalg.LinAlgError, scipy.sparse.linalg.ArpackError) as exc:
        raise NumericFailureError("eig_symmetric", str(exc)) from exc
    _fix_signs(vectors)
    return EigResult(values=values[:top_k], vectors=vectors[:, :top_k])
