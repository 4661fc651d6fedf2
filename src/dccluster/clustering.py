"""k-means and spectral clustering primitives.

Both algorithms are deterministic given a seed: k-means uses squared-distance
weighted seeding with cumulative-probability sampling, Lloyd updates with an
explicit empty-cluster repair, and an early stop when assignments repeat.
Each assignment pass holds its distances centroid-major, as a k x n array
whose rows run over the points, and labels a point by a strict `<` compare
of each centroid's row against the running minimum, so a tie goes to the
lowest centroid index.

Spectral clustering never forms an n x n dense array.  A kd-tree finds each
point's nearest neighbours, ranked by (squared distance, index) so that ties
at the neighbourhood boundary go to the lower index; the binary kNN graph is
OR-symmetrized into a CSR matrix; its symmetric normalized Laplacian stays
sparse; and a shift-invert ARPACK solve gives the bottom eigenvectors.  The
eigenvalue 0 repeats once per graph component, so that null space is not
taken from the solver but built as sqrt(degree)-scaled component indicators,
in component order; the solve runs only when the graph has fewer than k
components.  k-means then runs on the embedding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import ContractViolationError
from .numerics import _fix_signs, as_matrix, eig_symmetric

# A neighbour query is widened until the farthest point it returned is
# farther than the neighbourhood boundary by more than roundoff, so every
# point tied with the boundary is among the candidates.
_BOUNDARY_RTOL = 1e-9


@dataclass
class ClusterModel:
    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iter: int = 0
    converged: bool = False


@dataclass
class SpectralEmbedding:
    vectors: np.ndarray
    eigenvalues: np.ndarray
    components: int


def sqdist(a: np.ndarray, b: np.ndarray, aa: np.ndarray | None = None,
           out: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Pairwise squared Euclidean distances aa + bb - 2 a b^T, clipped at zero.

    The n x k result is the transpose of a k x n array, so every step after
    the product runs along rows of length n rather than k.  The product
    stays the BLAS call a @ b.T, whose bits b @ a.T does not always repeat
    (it differed in the last bits at k = 16, n = 4500 on OpenBLAS 0.3.31).
    aa, a's squared row norms, may be passed in when a is used again, and
    out, a k x n and an n x k scratch array, when the shapes repeat.
    """
    # the method is np.sum's add.reduce without its dispatch, which costs
    # more than the sum itself at a few centroids
    if aa is None:
        aa = (a * a).sum(axis=1)
    bb = (b * b).sum(axis=1)[:, None]
    if out is None:
        out = _scratch(a.shape[0], b.shape[0])
    d2, ab = out
    np.matmul(a, b.T, out=ab)
    ab *= 2.0
    np.add(aa, bb, out=d2)
    d2 -= ab.T
    np.maximum(d2, 0.0, out=d2)
    return d2.T


def _scratch(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    return np.empty((k, n)), np.empty((n, k))


def _nearest(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest centroid, ties to the lowest index as argmin's,
    and its distance, from sqdist's n x k view.

    The k x n base is compared one centroid row at a time against a running
    minimum, kept in (and overwriting) its first row.
    """
    rows = d2.T
    k, n = rows.shape
    best = rows[0]
    kind = np.uint8 if k <= 256 else np.intp
    labels, pick = np.zeros(n, kind), np.empty(n, kind)
    closer = np.empty(n, bool)
    step = closer.view(np.uint8)
    for j in range(1, k):
        row = rows[j]
        np.less(row, best, out=closer)
        np.minimum(best, row, out=best)
        # every label is below j, so the max sets j exactly where closer
        # holds; an arithmetic select, where a masked store would branch
        np.multiply(step, kind(j), out=pick)
        np.maximum(labels, pick, out=labels)
    return labels.astype(np.intp), best


def assign_nearest(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid per row; ties go to the lowest index."""
    centroids = as_matrix(centroids)
    if not centroids.shape[0]:
        raise ContractViolationError("no centroids to assign rows to")
    return _nearest(sqdist(as_matrix(x), centroids))[0]


def _sample_next_center(d2: np.ndarray, rng) -> int:
    # Draw an index with probability d2 / d2.sum(); uniform if all mass is 0.
    total = d2.sum()
    if total <= 0.0:
        return int(rng.integers(d2.size))
    r = rng.random() * total
    return min(int(np.searchsorted(np.cumsum(d2), r, side="right")), d2.size - 1)


def _sqdist_to(xt: np.ndarray, point: np.ndarray) -> np.ndarray:
    # Squared distance from every row to one point, summed one coordinate at
    # a time in order, as numpy sums a row of fewer than 8 terms.
    d2 = np.square(xt[0] - point[0])
    for j in range(1, xt.shape[0]):
        d2 += np.square(xt[j] - point[j])
    return d2


def _seed_centers(x: np.ndarray, xt: np.ndarray, k: int, rng) -> np.ndarray:
    n = x.shape[0]
    chosen = [int(rng.integers(n))]  # first center uniform
    d2 = _sqdist_to(xt, x[chosen[0]])
    for _ in range(1, k):
        idx = _sample_next_center(d2, rng)
        chosen.append(idx)
        np.minimum(d2, _sqdist_to(xt, x[idx]), out=d2)
    return x[np.array(chosen)].copy()


def _update_centroids(x, xt, labels, k, centroids):
    counts = np.bincount(labels, minlength=k)
    full = counts > 0
    if xt.shape[0] == 1:
        # numpy sums one contiguous column pairwise, not row by row
        for c in np.flatnonzero(full):
            centroids[c] = x[labels == c].mean(axis=0)
    else:
        # row by row, the order x[labels == c].mean(axis=0) sums in
        for j, column in enumerate(xt):
            sums = np.bincount(labels, weights=column, minlength=k)
            np.divide(sums, counts, out=centroids[:, j], where=full)
    # Empty-cluster repair: the point farthest from its centroid (among
    # clusters that can spare one) becomes a singleton centroid.  It works
    # on a copy, so the caller keeps the assignment it passed in.  The
    # distances are taken once; a move changes only the donor's and those
    # of its old cluster, whose centroid moves.
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        labels = labels.copy()
        dist = np.sum((x - centroids[labels]) ** 2, axis=1)
    for e in empty:
        donor = int(np.argmax(np.where(counts[labels] < 2, -np.inf, dist)))
        old = labels[donor]
        labels[donor] = e
        counts[old] -= 1
        counts[e] += 1
        centroids[e] = x[donor]
        members = labels == old
        if counts[old]:
            centroids[old] = x[members].mean(axis=0)
        moved = np.append(np.flatnonzero(members), donor)
        dist[moved] = np.sum((x[moved] - centroids[labels[moved]]) ** 2,
                             axis=1)
    return centroids, labels


def _lloyd(x, xt, aa, scratch, k: int, max_iter: int, rng) -> ClusterModel:
    centroids = _seed_centers(x, xt, k, rng)
    labels = assigned = None
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        new_labels, nearest = _nearest(sqdist(x, centroids, aa, scratch))
        if labels is not None and (new_labels == labels).all():
            inertia = float(nearest.sum())
            return ClusterModel(centroids=centroids, labels=labels,
                                inertia=inertia, n_iter=it, converged=True)
        if assigned is not labels and (new_labels == assigned).all():
            # this pass undid the last one's empty-cluster repair, which
            # every later pass would redo: the repaired pair is final
            converged = True
            break
        assigned = new_labels
        centroids, labels = _update_centroids(x, xt, assigned, k, centroids)
    # the last pass measured centroids it then moved, or labels it undid
    inertia = float(np.sum((x - centroids[labels]) ** 2))
    return ClusterModel(centroids=centroids, labels=labels, inertia=inertia,
                        n_iter=it, converged=converged)


def kmeans(x, k: int, max_iter: int = 300, rng_seed: int = 0,
           restarts: int = 1) -> ClusterModel:
    """Lloyd's algorithm with distance-weighted seeding.

    Stops early once an assignment pass repeats the previous labels, which
    makes the final (labels, centroids) pair a fixed point: every label is
    the nearest centroid and every centroid is the mean of its members.  It
    also stops once a pass repeats the previous pass's assignment, which
    undoes an empty-cluster repair (fewer distinct points than k): the
    repaired pair, whose moved point is tied with its old centroid, is then
    what every later pass would return.
    With restarts > 1 the whole procedure reruns on a continuing stream
    from the same seed and the lowest-inertia run wins (first on ties), so
    restarts=1 reproduces the plain single-run behaviour bit for bit.

    Each assignment pass is one sqdist into a k x n array: the product
    x @ centroids.T, then aa + bb - 2 ab along rows of length n.  Each
    label comes from a k-way strict `<` compare against a running minimum,
    so a tie goes to the lowest centroid index, as argmin's does, and a
    converged run's inertia is that minimum's sum.  The row norms, a
    coordinate-major copy of x and sqdist's scratch are made once per call.
    """
    x = as_matrix(x)
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ContractViolationError(f"k must be in [1, {n}], got {k}")
    if max_iter < 1:
        raise ContractViolationError("max_iter must be positive")
    if restarts < 1:
        raise ContractViolationError("restarts must be positive")
    aa = (x * x).sum(axis=1)
    xt = np.ascontiguousarray(x.T)
    scratch = _scratch(n, k)
    rng = np.random.default_rng(rng_seed)
    best = None
    for _ in range(restarts):
        model = _lloyd(x, xt, aa, scratch, k, max_iter, rng)
        if best is None or model.inertia < best.inertia:
            best = model
    return best


def build_affinity(x, neighbors: int) -> scipy.sparse.csr_array:
    """Binary kNN affinity: w[i, j] = 1 if j is among i's nearest neighbors.

    Self is excluded by index, neighbours are ranked by squared Euclidean
    distance (summed coordinate differences) and then by index, so equal
    distances at the neighborhood boundary resolve to the lower index.  The
    matrix is symmetrized with an OR so an edge from either side survives.
    Diagonal is zero.  Returned as CSR.
    """
    x = as_matrix(x)
    n = x.shape[0]
    if not 1 <= neighbors < n:
        raise ContractViolationError(
            f"neighbors must be in [1, {n - 1}], got {neighbors}")
    tree = cKDTree(x)
    cols = np.empty((n, neighbors), dtype=np.intp)
    rows = np.arange(n)
    width = neighbors + 2
    while rows.size:
        width = min(width, n)
        _, cand = tree.query(x[rows], k=width)
        d2 = ((x[cand] - x[rows, None, :]) ** 2).sum(axis=2)
        farthest = d2.max(axis=1)
        d2[cand == rows[:, None]] = np.inf
        order = np.lexsort((cand, d2))
        d2 = np.take_along_axis(d2, order, axis=1)
        cand = np.take_along_axis(cand, order, axis=1)
        done = (width == n) | (
            farthest > d2[:, neighbors - 1] * (1.0 + _BOUNDARY_RTOL))
        cols[rows[done]] = cand[done, :neighbors]
        rows = rows[~done]
        width *= 2
    w = scipy.sparse.csr_array(
        (np.ones(n * neighbors), (np.repeat(np.arange(n), neighbors),
                                  cols.ravel())), shape=(n, n))
    return w.maximum(w.T).tocsr()


def laplacian_sym(w) -> scipy.sparse.csr_array:
    """Symmetric normalized Laplacian D^-1/2 (D - W) D^-1/2, as CSR.

    Zero-degree nodes take 0 in D^-1/2, leaving their rows zero.
    """
    w = scipy.sparse.csr_array(w, dtype=np.float64)
    deg = w.sum(axis=1)
    with np.errstate(divide="ignore"):
        dinv = scipy.sparse.diags_array(
            np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0))
    lap = (dinv @ (scipy.sparse.diags_array(deg) - w) @ dinv).tocsr()
    lap.eliminate_zeros()
    return lap


def spectral_embedding(x, k: int, neighbors: int = 10) -> SpectralEmbedding:
    """Bottom-k eigenvectors of the normalized Laplacian of the kNN graph.

    The first min(k, components) columns span the null space: unit
    sqrt(degree)-scaled indicators of the graph components, in component
    order, with eigenvalue exactly 0.  The Laplacian is built and solved
    only when the graph has fewer than k components; the other columns
    then come from the eigensolve, orthogonalized against the indicators
    and sign-fixed.
    """
    x = as_matrix(x)
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ContractViolationError(f"k must be in [1, {n}], got {k}")
    w = build_affinity(x, neighbors)
    components, member = connected_components(w, directed=False)
    null = min(k, components)
    root_deg = np.sqrt(w.sum(axis=1))
    indicators = np.zeros((n, null))
    keep = member < null
    indicators[keep, member[keep]] = root_deg[keep]
    indicators /= np.linalg.norm(indicators, axis=0)
    if null == k:
        # column-major, as the solve returns it, so k-means rounds the same
        return SpectralEmbedding(vectors=np.asfortranarray(indicators),
                                 eigenvalues=np.zeros(k),
                                 components=components)
    res = eig_symmetric(laplacian_sym(w), top_k=k)
    values, vectors = res.values, res.vectors
    values[:null] = 0.0
    rest = vectors[:, null:]
    rest -= indicators @ (indicators.T @ rest)
    rest /= np.linalg.norm(rest, axis=0)
    vectors[:, :null] = indicators
    _fix_signs(rest)
    return SpectralEmbedding(vectors=vectors, eigenvalues=values,
                             components=components)


def spectral_cluster(x, k: int, neighbors: int = 10, max_iter: int = 300,
                     rng_seed: int = 0, restarts: int = 1) -> ClusterModel:
    """k-means in the spectral embedding of the kNN graph."""
    z = spectral_embedding(x, k, neighbors).vectors
    return kmeans(z, k, max_iter=max_iter, rng_seed=rng_seed, restarts=restarts)
