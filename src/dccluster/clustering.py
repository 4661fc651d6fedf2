"""k-means and spectral clustering primitives.

Both algorithms are deterministic given a seed: k-means uses squared-distance
weighted seeding with cumulative-probability sampling, Lloyd updates with an
explicit empty-cluster repair, and a stop on an assignment pass: the one
that repeats the labels, or else the one after max_iter updates, whose own
minima give the run its labels and inertia.
Its restarts run in lockstep batches, as wide as BUDGET allows at the
input's size.  One routine seeds a batch of any width: each restart makes
the same draws, integers(n) and then random(k - 1), in restart order, and
where its distance mass is zero (every row already a seed) it picks a row
uniformly from the same draw, so a batch's seeds are those of its
restarts seeded one by one.  Each pass is one stacked computation over the
batch's centroid sets, from which a restart leaves once it stops, so every
result is bit for bit that of the restarts run one by one.  Seeding, each
pass and assign_nearest take every squared distance from one kernel, which
sums squared coordinate differences, BLOCK_ROWS rows at a time, so that a
pass holds its distances as a k x block array per restart and reads them
back from cache; a point's label comes from a strict `<` compare of each
centroid's row against the running minimum, so a tie goes to the lowest
centroid index.  Each row's distances, label and minimum come from that
row alone, and a seeding step's cumulative sums run on across the blocks
as one cumsum, so no block size moves a bit.  A centroid is its members'
coordinates summed in row order, whatever the width, over their count.
x's memory layout moves no bit: distances and centroid sums read a
coordinate-major copy of x, and the repair's differences from x come out
row-major.
Input whose squared distances could overflow float64 is refused by name.

Spectral clustering never forms an n x n dense array.  A kd-tree finds each
point's nearest neighbours, ranked by (squared distance, index) so that ties
at the neighbourhood boundary go to the lower index; the binary kNN graph is
OR-symmetrized into a CSR matrix; its symmetric normalized Laplacian stays
sparse; and a shift-invert ARPACK solve gives the bottom eigenvectors.  The
eigenvalue 0 repeats once per graph component, so that null space is not
taken from the solver but built as sqrt(degree)-scaled component indicators,
in component order; the solve runs only when the graph has fewer than k
components.  k-means then runs on the embedding.  This path alone needs
scipy, so its imports sit inside the functions that call it: a process that
runs only k-means, as every institution does, never loads scipy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .numerics import _fix_signs, as_matrix, eig_symmetric

# A neighbour query is widened until the farthest point it returned is
# farther than the neighbourhood boundary by more than roundoff, so every
# point tied with the boundary is among the candidates.
_BOUNDARY_RTOL = 1e-9
# k-means runs its restarts in lockstep batches of BUDGET // (k * n), so
# that a batch's (width, k, n) distances hold at most this many doubles,
# 128 KiB, and stay in cache; a batch of more than one restart has fewer
# rows than BLOCK_ROWS, and so is one row block.  Ten restarts at k = 3
# took, on 2 cores with numpy 2.4.6 and OpenBLAS 0.3.31: 1.8 ms in one
# batch against 5.4 ms one at a time on 150 x 2 iris rows; 4.7 ms at width
# 2 against 4.8 ms on 2 000 x 3 blob rows (k * n = 6 000); and, on
# circles' 4 500 x 3 embedding, 4.4 ms in one batch against 2.9 ms, its
# arrays out of cache.
BUDGET = 2 ** 14
# k-means takes its squared distances BLOCK_ROWS rows at a time, so that a
# pass's (width, k, block) distances and a seeding step's (width, block)
# ones are read back from cache; an input of at most one block is one
# block.  One Lloyd pass on blobs' 300 000 x 2 representation, k = 3,
# medians of 9 on 2 cores with numpy 2.4.6: 3.3-3.4 ms over all rows,
# 4.9-5.2 ms in 2 048-row blocks, 2.6-2.8 in 4 096, 2.1-2.3 in 8 192,
# 1.8-2.0 in 16 384 and 2.0-2.2 in 32 768 (a first prototype read 3.8 ms
# whole, 6.6 at 2 048, 2.68 at 8 192 and 2.5 at 16 384).
BLOCK_ROWS = 2 ** 14


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


def _sqdist(xt: np.ndarray, points: np.ndarray,
            out: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Squared distances, (..., n), from a (..., m) stack of points to the
    n rows of x, given coordinate-major as xt, (m, n), written into out, a
    pair of (..., n) arrays for the result and the difference.

    Each is the sum of the squared coordinate differences, added one
    coordinate at a time (numpy's order for a row of fewer than 8 terms),
    so it is never negative and keeps near points apart far from the
    origin, where aa + bb - 2 ab cancels.
    """
    d2, diff = out
    np.subtract(xt[0], points[..., 0, None], out=d2)
    np.square(d2, out=d2)
    for j in range(1, xt.shape[0]):
        np.subtract(xt[j], points[..., j, None], out=diff)
        np.square(diff, out=diff)
        d2 += diff
    return d2


def _blocks(n: int, scratch=()):
    """Yield (start, stop, scratch cut to the block) for each BLOCK_ROWS-row
    block of n rows; scratch is a pair from _scratch, or nothing."""
    for a in range(0, n, BLOCK_ROWS):
        b = min(a + BLOCK_ROWS, n)
        yield a, b, tuple(buf[..., :b - a] for buf in scratch)


def _scratch(lead: tuple, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A pair of (*lead, block) arrays for _sqdist's result and difference
    over a block of n rows."""
    shape = (*lead, min(n, BLOCK_ROWS))
    return np.empty(shape), np.empty(shape)


def sqdist(xt: np.ndarray, points: np.ndarray, scratch, nearest=None
           ) -> np.ndarray:
    """One assignment pass: for each (k, m) set of the (..., k, m) stack
    points, the index of the nearest of its k points to each of the n rows
    of xt, ties to the lowest index as argmin's, as a (..., n) array; where
    nearest, a (..., n) array, is given, each row's squared distance to
    that point is written into it.

    _sqdist takes the distances BLOCK_ROWS rows at a time into scratch, a
    pair from _scratch((..., k), n), and _nearest reads them while they are
    in cache.  A row's label and distance come from its own distances
    alone, so the blocks move no bit.  A Lloyd pass and assign_nearest call
    this once each, by this name, which benchmarks/tracing.py counts passes
    by.
    """
    labels = np.empty((*points.shape[:-2], xt.shape[1]), np.intp)
    for a, b, cut in _blocks(xt.shape[1], scratch):
        _nearest(_sqdist(xt[:, a:b], points, cut), labels[..., a:b],
                 None if nearest is None else nearest[..., a:b])
    return labels


def _refuse_overflow(xt: np.ndarray, terms: int) -> None:
    """Refuse, with a ContractViolationError, coordinate-major rows xt
    without a coordinate, or whose squared distances, or a sum of terms of
    them, could overflow.

    Every squared distance formed is |x_i - c|^2 <= (|x_i| + |c|)^2 <= 4 M,
    M the largest squared row norm of x or of the centroids: a centroid is
    a row or a mean of rows, and so within M.  A seeding cumsum or an
    inertia adds at most n of them, 4 n M.  Rounding raises none of these
    by more than a relative n * eps, so refusing 8 terms M above the
    float64 maximum leaves a factor of two, and nothing formed from finite
    input overflows.  The norms are _sqdist's distances to the origin,
    taken in row blocks, as a pass takes its distances.
    """
    if not xt.shape[0]:
        raise ContractViolationError("rows have no coordinates")
    n, origin, top = xt.shape[1], np.zeros(xt.shape[0]), 0.0
    with np.errstate(over="ignore"):
        for a, b, cut in _blocks(n, _scratch((), n)):
            norms = _sqdist(xt[:, a:b], origin, cut)
            top = max(top, norms.max())
        if not 8.0 * terms * top <= np.finfo(np.float64).max:
            raise ContractViolationError(
                f"squared distances overflow: rows of squared norm up to "
                f"{top:.3g} among {n} rows")


def _nearest(d2: np.ndarray, labels: np.ndarray, nearest=None) -> None:
    """Write each row's nearest centroid, ties to the lowest index as
    argmin's, into labels, (..., n), from _sqdist's (..., k, n) distances
    d2.  The running minimum is kept in nearest, (..., n), when given, and
    otherwise in (overwriting) the first centroid's row.
    """
    k = d2.shape[-2]
    best = d2[..., 0, :]
    if nearest is None:
        nearest = best
    kind = np.uint8 if k <= 256 else np.intp
    mark, pick = np.zeros(best.shape, kind), np.empty(best.shape, kind)
    closer = np.empty(best.shape, bool)
    step = closer.view(np.uint8)
    for j in range(1, k):
        row = d2[..., j, :]
        np.less(row, best, out=closer)
        best = np.minimum(best, row, out=nearest)
        # every label is below j, so the max sets j exactly where closer
        # holds; an arithmetic select, where a masked store would branch
        np.multiply(step, kind(j), out=pick)
        np.maximum(mark, pick, out=mark)
    if best is not nearest:
        np.copyto(nearest, best)
    np.copyto(labels, mark)


def assign_nearest(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid per row by sqdist's distances; ties go
    to the lowest index.  Rows or centroids whose squared distances could
    overflow are refused with a ContractViolationError, by kmeans's bound.
    """
    x, centroids = as_matrix(x), as_matrix(centroids)
    if not centroids.shape[0]:
        raise ContractViolationError("no centroids to assign rows to")
    if centroids.shape[1] != x.shape[1]:
        raise ContractViolationError("centroid and row widths differ")
    xt = np.ascontiguousarray(x.T)
    _refuse_overflow(centroids.T, x.shape[0])
    _refuse_overflow(xt, x.shape[0])
    return sqdist(xt, centroids, _scratch(centroids.shape[:1], x.shape[0]))


def _seed_batch(x: np.ndarray, xt: np.ndarray, k: int, rng,
                width: int) -> np.ndarray:
    """The seeded centroid sets of the next width restarts, (width, k, m).

    Each restart draws integers(n) for its first seed and then random(k - 1),
    in restart order and before any distance is taken, so every restart
    makes the same draws whatever its rows.  The next seed for a draw u is
    the first row whose cumulative distance mass passes u times the total,
    the count of cumsum entries <= u * total, as searchsorted(cumsum,
    u * total, "right") finds it, and at most n - 1 (see _count_below).  A
    zero total means every row coincides with a seed, so any row will do,
    and u picks row int(u * n).  Each step's distances are taken and
    folded into the running minima block by block; the total is one sum
    over all n of them.
    """
    n = x.shape[0]
    chosen = np.empty((width, k), np.intp)
    u = np.empty((width, k - 1))
    for b in range(width):
        chosen[b, 0] = rng.integers(n)
        u[b] = rng.random(k - 1)
    d2, scratch = np.empty((width, n)), _scratch((width,), n)
    for s in range(1, k):
        points = x[chosen[:, s - 1]]
        for a, b, (near, diff) in _blocks(n, scratch):
            if s == 1:
                _sqdist(xt[:, a:b], points, (d2[:, a:b], diff))
            else:
                _sqdist(xt[:, a:b], points, (near, diff))
                np.minimum(d2[:, a:b], near, out=d2[:, a:b])
        total = d2.sum(axis=1)
        picks = np.where(total > 0.0, _count_below(d2, u[:, s - 1] * total),
                         (u[:, s - 1] * n).astype(np.intp))
        chosen[:, s] = np.minimum(picks, n - 1)
    return x[chosen]


def _count_below(d2: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """(cumsum(d2, axis=1) <= thr[:, None]).sum(axis=1) for d2, (width, n),
    never negative, taken block by block, bit for bit.

    Each block's cumsum starts from the last block's last sum added into
    its first entry, so its sums are those of the whole cumsum, and the
    count is the sum of the blocks' counts.  The sums never decrease, so
    once every row's last sum passes its thr, no later block adds to it.
    """
    count = 0
    for a, b, _ in _blocks(d2.shape[1]):
        part = d2[:, a:b]
        if a:
            part = part.copy()
            part[:, 0] += sums[:, -1]
        sums = np.cumsum(part, axis=1)
        count = count + (sums <= thr[:, None]).sum(axis=1)
        if (sums[:, -1] > thr).all():
            break
    return count


def _repair(x, labels, counts, centroids) -> None:
    # Empty-cluster repair of one restart, in place: the point farthest from
    # its centroid (among clusters that can spare one) becomes a singleton
    # centroid.  Distances are taken once; a move changes only the donor's and
    # its old cluster's, whose centroid moves to a row-order mean, as in Lloyd.
    dist = np.sum((x - centroids[labels]) ** 2, axis=1)
    for e in np.flatnonzero(counts == 0):
        donor = int(np.argmax(np.where(counts[labels] < 2, -np.inf, dist)))
        old = labels[donor]
        labels[donor] = e
        counts[old] -= 1
        counts[e] += 1
        centroids[e] = x[donor]
        members = labels == old
        if counts[old]:
            centroids[old] = np.cumsum(x[members], axis=0)[-1] / counts[old]
        moved = np.append(np.flatnonzero(members), donor)
        dist[moved] = np.sum((x[moved] - centroids[labels[moved]]) ** 2,
                             axis=1)


def _update_centroids(x, xtb, labels, centroids) -> dict:
    """Move each centroid set of a (width, k, m) stack to the means of its
    members under labels, (width, n), and repair its empty clusters, all in
    place.  Returns each repaired set's labels from before its repair.

    One bincount over the labels offset by b * k counts every set's
    clusters, and one per coordinate sums them in row order, at every width
    m; xtb holds each column of x width times over.
    """
    width, k, m = centroids.shape
    flat = labels.ravel()
    if width > 1:
        flat = (labels + np.arange(0, width * k, k)[:, None]).ravel()
    counts = np.bincount(flat, minlength=width * k)
    full = counts > 0
    sets = centroids.reshape(width * k, m)
    for j in range(m):
        sums = np.bincount(flat, weights=xtb[j, :flat.size],
                           minlength=width * k)
        np.divide(sums, counts, out=sets[:, j], where=full)
    undone = {}
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        for b in np.unique(empty // k):
            undone[b] = labels[b].copy()
            _repair(x, labels[b], counts[b * k:(b + 1) * k], centroids[b])
    return undone


def _lloyd_batch(x, xtb, buffers, centroids, max_iter: int
                 ) -> list[ClusterModel]:
    """Lloyd passes for a stack of restarts' centroid sets, (width, k, m),
    in lockstep; returns each restart's ClusterModel, in stack order.

    A pass is one sqdist over the stack's sets, then, for the sets that go
    on, one _update_centroids.  A restart leaves the stack on the pass that
    repeats its labels (converged), that undoes its last repair, which it
    leaves with the repaired labels (converged), or that follows its
    max_iter-th update, which moves nothing (n_iter max_iter, not
    converged), and the others go on.  A leaving restart's labels and
    inertia are that pass's: the nearest centroids, the repaired labels on
    an undo, and the sum of the rows' minima.  Nothing here draws a number.
    buffers, made once per kmeans call, are the pass's scratch pair and a
    (width, n) array for its distances to the nearest centroids.
    """
    ids = list(range(centroids.shape[0]))   # each row's place in the stack
    xt = xtb[:, :x.shape[0]]
    scratch, minima = buffers
    stack = [buf[:len(ids)] for buf in scratch]
    models = [None] * len(ids)
    labels, undone = None, {}
    for it in range(1, max_iter + 2):
        assigned = sqdist(xt, centroids, stack, minima[:len(ids)])
        if labels is not None:
            stop = (assigned == labels).all(axis=1)
            if it > max_iter:
                stop[:] = True
            # a pass that undid the last one's empty-cluster repair, which
            # every later pass would redo: the repaired pair is final
            for b, before in undone.items():
                if (assigned[b] == before).all():
                    assigned[b], stop[b] = labels[b], True
            if stop.any():
                for b in np.flatnonzero(stop):
                    models[ids[b]] = ClusterModel(
                        centroids=centroids[b], labels=assigned[b],
                        inertia=float(minima[b].sum()),
                        n_iter=min(it, max_iter), converged=it <= max_iter)
                keep = np.flatnonzero(~stop)
                if not keep.size:
                    return models
                centroids, assigned = centroids[keep], assigned[keep]
                ids = [ids[b] for b in keep]
                stack = [buf[:len(ids)] for buf in scratch]
        undone = _update_centroids(x, xtb, assigned, centroids)
        labels = assigned


def kmeans(x, k: int, max_iter: int = 300, rng_seed: int = 0,
           restarts: int = 1) -> ClusterModel:
    """Lloyd's algorithm with distance-weighted seeding.

    Stops early once an assignment pass repeats the previous labels, which
    makes the final (labels, centroids) pair a fixed point: every label is
    the nearest centroid and every centroid is the mean of its members.  It
    also stops once a pass repeats the previous pass's assignment, which
    undoes an empty-cluster repair (fewer distinct points than k): the
    repaired pair, whose moved point is tied with its old centroid, is then
    what every later pass would return.  A run that does neither within
    max_iter updates takes one more pass, which measures the last centroids
    and moves nothing: it returns that pass's labels, every one the nearest
    centroid (or the repaired ones, if the pass only undid the last
    repair), with n_iter = max_iter and converged False.
    With restarts > 1 the whole procedure reruns on a continuing stream
    from the same seed and the lowest-inertia run wins (first on ties), so
    restarts=1 reproduces the plain single-run behaviour bit for bit.

    Restarts run in lockstep batches of min(restarts, BUDGET // (k * n)),
    at least one.  Each restart draws integers(n) and then random(k - 1),
    whatever its rows, and a batch draws them first, in restart order (see
    _seed_batch); its Lloyd passes draw nothing, so every result is that of
    the restarts run one by one.  Where a restart's distance mass is zero,
    every row already coincides with a seed, and its next seed is row
    int(u * n) of its draw u, uniform over the rows.  Seeding and each
    pass take their squared distances, sums of squared coordinate
    differences, from one kernel (see _sqdist), BLOCK_ROWS rows at a time;
    a pass writes them into a (batch, k, block) array.  Each label comes
    from a k-way strict `<` compare against a running minimum, so a tie
    goes to the lowest centroid index, as argmin's does, and every run's
    inertia is the sum of that minimum over all n rows on the pass that
    stops it.  The centroid sums, too, run over all n rows at once, in row
    order.  A coordinate-major copy of x, the pass's scratch and the array
    of its minima are made once per call.  Input whose squared distances could
    overflow float64 is refused with a ContractViolationError (see
    _refuse_overflow).
    """
    x = as_matrix(x)
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ContractViolationError(f"k must be in [1, {n}], got {k}")
    if max_iter < 1:
        raise ContractViolationError("max_iter must be positive")
    if restarts < 1:
        raise ContractViolationError("restarts must be positive")
    xt = np.ascontiguousarray(x.T)
    _refuse_overflow(xt, n)
    width = min(restarts, max(1, BUDGET // (k * n)))
    xtb = np.tile(xt, width) if width > 1 else xt
    buffers = _scratch((width, k), n), np.empty((width, n))
    rng = np.random.default_rng(rng_seed)
    best = None
    for done in range(0, restarts, width):
        seeds = _seed_batch(x, xt, k, rng, min(width, restarts - done))
        for model in _lloyd_batch(x, xtb, buffers, seeds, max_iter):
            if best is None or model.inertia < best.inertia:
                best = model
    return best


def build_affinity(x, neighbors: int):
    """Binary kNN affinity: w[i, j] = 1 if j is among i's nearest neighbors.

    Self is excluded by index, neighbours are ranked by squared Euclidean
    distance (summed coordinate differences) and then by index, so equal
    distances at the neighborhood boundary resolve to the lower index.  The
    matrix is symmetrized with an OR so an edge from either side survives.
    Diagonal is zero.  Returned as CSR.  A squared distance is at most 4 M,
    M the largest squared row norm, and none is summed over rows, so rows
    with 8 M above the float64 maximum are refused before the search.
    """
    import scipy.sparse
    from scipy.spatial import cKDTree
    x = as_matrix(x)
    n = x.shape[0]
    if not 1 <= neighbors < n:
        raise ContractViolationError(
            f"neighbors must be in [1, {n - 1}], got {neighbors}")
    _refuse_overflow(x.T, 1)
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


def laplacian_sym(w):
    """Symmetric normalized Laplacian D^-1/2 (D - W) D^-1/2, as CSR.

    Zero-degree nodes take 0 in D^-1/2, leaving their rows zero.
    """
    import scipy.sparse
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
    from scipy.sparse.csgraph import connected_components
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
        return SpectralEmbedding(vectors=indicators, eigenvalues=np.zeros(k),
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
