"""k-means and spectral clustering primitives.

Both algorithms are deterministic given a seed: k-means uses squared-distance
weighted seeding with cumulative-probability sampling, Lloyd updates with an
explicit empty-cluster repair, and an early stop when assignments repeat;
spectral clustering builds a mutual-or kNN graph, takes the symmetric
normalized Laplacian, and runs k-means on its bottom eigenvectors.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError
from .numerics import as_matrix, eig_symmetric


@dataclass
class ClusterModel:
    centroids: np.ndarray
    labels: np.ndarray
    space_tag: str
    inertia: float
    n_iter: int = 0
    converged: bool = False
    inertia_history: list[float] = field(default_factory=list)


@dataclass
class SpectralEmbedding:
    vectors: np.ndarray
    eigenvalues: np.ndarray
    neighbors: int


def sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, clipped at zero."""
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)


def assign_nearest(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid per row; ties go to the lowest index."""
    return np.argmin(sqdist(as_matrix(x), as_matrix(centroids)), axis=1)


def _sample_next_center(d2: np.ndarray, rng) -> int:
    # Draw an index with probability d2 / d2.sum(); uniform if all mass is 0.
    total = d2.sum()
    if total <= 0.0:
        return int(rng.integers(d2.size))
    r = rng.random() * total
    return min(int(np.searchsorted(np.cumsum(d2), r, side="right")), d2.size - 1)


def _seed_centers(x: np.ndarray, k: int, rng) -> np.ndarray:
    n = x.shape[0]
    chosen = [int(rng.integers(n))]  # first center uniform
    d2 = np.sum((x - x[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        idx = _sample_next_center(d2, rng)
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((x - x[idx]) ** 2, axis=1))
    return x[np.array(chosen)].copy()


def _update_centroids(x, labels, k, centroids):
    counts = np.bincount(labels, minlength=k)
    for c in range(k):
        if counts[c]:
            centroids[c] = x[labels == c].mean(axis=0)
    # Empty-cluster repair: the point farthest from its centroid (among
    # clusters that can spare one) becomes a singleton centroid.
    for e in np.flatnonzero(counts == 0):
        dist = np.sum((x - centroids[labels]) ** 2, axis=1)
        dist[counts[labels] < 2] = -np.inf
        donor = int(np.argmax(dist))
        old = labels[donor]
        labels[donor] = e
        counts[old] -= 1
        counts[e] += 1
        centroids[e] = x[donor]
        if counts[old]:
            centroids[old] = x[labels == old].mean(axis=0)
    return centroids, labels


def _lloyd(x, k: int, max_iter: int, rng, space_tag: str) -> ClusterModel:
    centroids = _seed_centers(x, k, rng)
    n = x.shape[0]
    labels = None
    history: list[float] = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        d2 = sqdist(x, centroids)
        new_labels = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), new_labels].sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
        centroids, labels = _update_centroids(x, labels, k, centroids)

    return ClusterModel(centroids=centroids, labels=labels, space_tag=space_tag,
                        inertia=history[-1], n_iter=it, converged=converged,
                        inertia_history=history)


def kmeans(x, k: int, max_iter: int = 300, rng_seed: int = 0,
           space_tag: str = "raw", restarts: int = 1) -> ClusterModel:
    """Lloyd's algorithm with distance-weighted seeding.

    Stops early once an assignment pass repeats the previous labels, which
    makes the final (labels, centroids) pair a fixed point: every label is
    the nearest centroid and every centroid is the mean of its members.
    With restarts > 1 the whole procedure reruns on a continuing stream
    from the same seed and the lowest-inertia run wins (first on ties), so
    restarts=1 reproduces the plain single-run behaviour bit for bit.
    """
    x = as_matrix(x)
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ContractViolationError(f"k must be in [1, {n}], got {k}")
    if max_iter < 1:
        raise ContractViolationError("max_iter must be positive")
    if restarts < 1:
        raise ContractViolationError("restarts must be positive")
    rng = np.random.default_rng(rng_seed)
    best = None
    for _ in range(restarts):
        model = _lloyd(x, k, max_iter, rng, space_tag)
        if best is None or model.inertia < best.inertia:
            best = model
    return best


def build_affinity(x, neighbors: int) -> np.ndarray:
    """Binary kNN affinity: w[i, j] = 1 if j is among i's nearest neighbors.

    Self is excluded, equal distances at the neighborhood boundary resolve
    to the lower index, and the matrix is symmetrized with an OR so an edge
    from either side survives.  Diagonal is zero.
    """
    x = as_matrix(x)
    n = x.shape[0]
    if not 1 <= neighbors < n:
        raise ContractViolationError(
            f"neighbors must be in [1, {n - 1}], got {neighbors}")
    d2 = sqdist(x, x)
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")[:, :neighbors]
    w = np.zeros((n, n))
    w[np.repeat(np.arange(n), neighbors), order.ravel()] = 1.0
    w = np.maximum(w, w.T)
    np.fill_diagonal(w, 0.0)
    return w


def laplacian_sym(w: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian D^-1/2 (D - W) D^-1/2.

    Zero-degree nodes take 0 in D^-1/2, leaving their rows zero.
    """
    w = as_matrix(w)
    deg = w.sum(axis=1)
    lap = np.diag(deg) - w
    with np.errstate(divide="ignore"):
        dinv = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
    return dinv[:, None] * lap * dinv[None, :]


def spectral_embedding(x, k: int, neighbors: int = 10) -> SpectralEmbedding:
    """Bottom-k eigenvectors of the normalized Laplacian of the kNN graph."""
    x = as_matrix(x)
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ContractViolationError(f"k must be in [1, {n}], got {k}")
    res = eig_symmetric(laplacian_sym(build_affinity(x, neighbors)), top_k=k)
    return SpectralEmbedding(vectors=res.vectors, eigenvalues=res.values,
                             neighbors=neighbors)


def spectral_cluster(x, k: int, neighbors: int = 10, max_iter: int = 300,
                     rng_seed: int = 0, restarts: int = 1) -> ClusterModel:
    """k-means in the spectral embedding of the kNN graph."""
    z = spectral_embedding(x, k, neighbors).vectors
    return kmeans(z, k, max_iter=max_iter, rng_seed=rng_seed,
                  space_tag="spectral-embedding", restarts=restarts)
