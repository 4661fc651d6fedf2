import itertools
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.csgraph import connected_components

from dccluster import clustering
from dccluster.clustering import (kmeans, build_affinity, laplacian_sym,
                                  spectral_embedding, spectral_cluster,
                                  assign_nearest, sqdist, _nearest,
                                  _update_centroids, _seed_batch,
                                  SpectralEmbedding)
from dccluster.data import load_csv, make_blobs, make_circles
from dccluster.errors import ContractViolationError
from dccluster.metrics import ari
from dccluster.numerics import _fix_signs, as_matrix, eig_symmetric

IRIS = Path(__file__).resolve().parent.parent / "data" / "iris.csv"


def dense_affinity(x, neighbors):
    """Reference kNN affinity: difference-based squared distances, self
    excluded by index, a stable sort so that ties go to the lower index,
    then an OR."""
    n = x.shape[0]
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")[:, :neighbors]
    w = np.zeros((n, n))
    w[np.repeat(np.arange(n), neighbors), order.ravel()] = 1.0
    return np.maximum(w, w.T)


def best_partition_inertia(x, k):
    """Exhaustive minimum over all assignments of points to k groups."""
    n = x.shape[0]
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        labels = np.array(labels)
        if len(set(labels.tolist())) < k:
            continue
        total = 0.0
        for c in range(k):
            pts = x[labels == c]
            total += ((pts - pts.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


def reference_sqdist(a, b):
    """Squared distances as an n x k array of summed squared coordinate
    differences, frozen here so that a change to sqdist cannot move both
    sides; for fewer than 8 columns numpy sums each in column order."""
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def reference_repair(x, labels, counts, centroids):
    """The empty-cluster repair that takes every distance again for each
    empty cluster; updates its arguments in place, returns the repairs."""
    empty = np.flatnonzero(counts == 0)
    for e in empty:
        dist = np.sum((x - centroids[labels]) ** 2, axis=1)
        dist[counts[labels] < 2] = -np.inf
        donor = int(np.argmax(dist))
        old = labels[donor]
        labels[donor] = e
        counts[old] -= 1
        counts[e] += 1
        centroids[e] = x[donor]
        if counts[old]:
            centroids[old] = (np.cumsum(x[labels == old], axis=0)[-1]
                              / counts[old])
    return empty.size


def reference_next_center(d2, u):
    """The row a draw u in [0, 1) seeds next: row i with probability
    d2[i] / d2.sum(), by the first cumulative mass past u * total, or, when
    every distance is zero, row int(u * n), uniform over the rows."""
    n = d2.size
    total = d2.sum()
    if total <= 0.0:
        return min(int(u * n), n - 1)
    return min(int(np.searchsorted(np.cumsum(d2), u * total, side="right")),
               n - 1)


def reference_seeds(x, k, rng):
    """One restart's seed rows, seeded serially: integers(n) for the first,
    then one random() for each next, each seeding distance a row sum."""
    chosen = [int(rng.integers(x.shape[0]))]
    d2 = np.sum((x - x[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        idx = reference_next_center(d2, rng.random())
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((x - x[idx]) ** 2, axis=1))
    return chosen


def reference_kmeans(x, k, max_iter=300, rng_seed=0, restarts=1):
    """The plain Lloyd, kept as the reference: serial seeding, each centroid
    its masked members summed one row after another over their count, each
    inertia read through arange(n), and a run that stops at max_iter scored
    by the pair it returns.  Returns (labels, centroids, inertia,
    empty-cluster repairs)."""
    n = x.shape[0]
    rng = np.random.default_rng(rng_seed)
    best, repairs = None, 0
    for _ in range(restarts):
        chosen = reference_seeds(x, k, rng)
        centroids = x[np.array(chosen)].copy()
        labels, converged = None, False
        for _ in range(max_iter):
            d2 = reference_sqdist(x, centroids)
            new_labels = np.argmin(d2, axis=1)
            inertia = float(d2[np.arange(n), new_labels].sum())
            if labels is not None and np.array_equal(new_labels, labels):
                converged = True
                break
            labels = new_labels
            counts = np.bincount(labels, minlength=k)
            for c in range(k):
                if counts[c]:
                    centroids[c] = (np.cumsum(x[labels == c], axis=0)[-1]
                                    / counts[c])
            repairs += reference_repair(x, labels, counts, centroids)
        if not converged:
            inertia = float(np.sum((x - centroids[labels]) ** 2))
        if best is None or inertia < best[2]:
            best = (labels, centroids, inertia)
    return best + (repairs,)


def reference_spectral_embedding(x, k: int, neighbors: int = 10
                                 ) -> SpectralEmbedding:
    """The embedding that always solves, kept as the reference: the
    Laplacian's bottom-k eigenpairs, with the first min(k, components)
    columns then replaced by the unit sqrt(degree) component indicators."""
    x = as_matrix(x)
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ContractViolationError(f"k must be in [1, {n}], got {k}")
    w = build_affinity(x, neighbors)
    components, member = connected_components(w, directed=False)
    res = eig_symmetric(laplacian_sym(w), top_k=k)
    null = min(k, components)
    values, vectors = res.values, res.vectors
    values[:null] = 0.0
    root_deg = np.sqrt(w.sum(axis=1))
    indicators = np.zeros((n, null))
    keep = member < null
    indicators[keep, member[keep]] = root_deg[keep]
    indicators /= np.linalg.norm(indicators, axis=0)
    rest = vectors[:, null:]
    rest -= indicators @ (indicators.T @ rest)
    rest /= np.linalg.norm(rest, axis=0)
    vectors[:, :null] = indicators
    _fix_signs(rest)
    return SpectralEmbedding(vectors=vectors, eigenvalues=values,
                             components=components)


def four_blobs(m, seed, n=400):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, m))
            + 4.0 * rng.normal(size=(4, m))[rng.integers(0, 4, n)])


class TestKmeansMatchesReference:
    @pytest.mark.parametrize("max_iter", [2, 300])
    @pytest.mark.parametrize("restarts", [1, 10])
    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_bit_for_bit(self, m, restarts, max_iter):
        x = four_blobs(m, seed=m)
        model = kmeans(x, 4, max_iter=max_iter, rng_seed=m, restarts=restarts)
        labels, centroids, inertia, _ = reference_kmeans(
            x, 4, max_iter=max_iter, rng_seed=m, restarts=restarts)
        assert np.array_equal(model.labels, labels)
        assert np.array_equal(model.centroids, centroids)
        assert model.inertia == inertia

    @pytest.mark.parametrize("restarts", [1, 10])
    def test_empty_cluster_repair_bit_for_bit(self, restarts):
        # two distinct points for three clusters: every seeding repeats a
        # centre, and the copy with the higher index comes up empty
        x = np.vstack([np.zeros((8, 2)), np.ones((1, 2))])
        model = kmeans(x, 3, rng_seed=2, restarts=restarts)
        labels, centroids, inertia, repairs = reference_kmeans(
            x, 3, rng_seed=2, restarts=restarts)
        assert repairs > 0
        assert np.array_equal(model.labels, labels)
        assert np.array_equal(model.centroids, centroids)
        assert model.inertia == inertia

    @pytest.mark.parametrize("restarts", [1, 10])
    def test_two_empty_clusters_repaired_bit_for_bit(self, restarts):
        # four clusters over two distinct points: the first pass leaves the
        # two repeated centres empty, and one repair fills both
        x = np.vstack([np.zeros((8, 2)), np.ones((1, 2))])
        model = kmeans(x, 4, rng_seed=2, restarts=restarts)
        labels, centroids, inertia, repairs = reference_kmeans(
            x, 4, rng_seed=2, restarts=restarts)
        assert repairs >= 2 * restarts
        assert np.array_equal(model.labels, labels)
        assert np.array_equal(model.centroids, centroids)
        assert model.inertia == inertia

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_repair_of_several_empty_clusters_matches_the_full_recompute(
            self, seed, m):
        # spread-out points in three clusters out of eight: each donor
        # moves its old centroid, so the next donor depends on the moved
        # distances; at m = 1 too, every centroid is its members summed in
        # row order, which a pairwise sum of one column would not give
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(40, m)) * rng.uniform(0.5, 2.0, m)
        labels = rng.integers(0, 3, 40)
        centroids = rng.normal(size=(8, m))
        # a stack of one set, updated in place
        got_labels, got_centroids = labels[None].copy(), centroids[None].copy()
        undone = _update_centroids(x, np.ascontiguousarray(x.T), got_labels,
                                   got_centroids)
        assert list(undone) == [0] and np.array_equal(undone[0], labels)
        got_labels, got_centroids = got_labels[0], got_centroids[0]
        want_labels, want_centroids = labels.copy(), centroids.copy()
        counts = np.bincount(want_labels, minlength=8)
        for c in range(3):
            want_centroids[c] = (np.cumsum(x[want_labels == c], axis=0)[-1]
                                 / counts[c])
        assert reference_repair(x, want_labels, counts, want_centroids) == 5
        assert np.array_equal(got_labels, want_labels)
        assert np.array_equal(got_centroids, want_centroids)

    def test_twelve_columns_sum_pairwise_but_agree(self):
        # numpy sums a row of 8 or more terms pairwise, so the reference's
        # distances may differ in the last bits from the kernel's
        # column-by-column sums
        x = four_blobs(12, seed=12)
        model = kmeans(x, 4, rng_seed=12, restarts=10)
        labels, _, inertia, _ = reference_kmeans(x, 4, rng_seed=12,
                                                 restarts=10)
        assert np.array_equal(model.labels, labels)
        assert model.inertia == pytest.approx(inertia, rel=1e-12, abs=0)


def force_width(monkeypatch, width, k, n):
    """Patch BUDGET so that kmeans on n rows and k clusters runs its
    restarts width at a time; width None runs them all at once."""
    monkeypatch.setattr(clustering, "BUDGET", k * n * (width or 10 ** 6))


def batch_cases():
    """(x, k, max_iter, rng_seed) for ten restarts run in batches."""
    cases = {
        "m2": (four_blobs(2, seed=21, n=120), 4, 300, 21),
        "m1": (four_blobs(1, seed=22, n=90), 3, 300, 22),
        "m12": (four_blobs(12, seed=23, n=80), 4, 300, 23),
        "max-iter-2": (four_blobs(3, seed=24, n=100), 4, 2, 24),
        # two distinct points for three clusters: every seeding meets a
        # zero distance mass, and every restart repairs
        "few-distinct": (np.vstack([np.zeros((8, 2)), np.ones((1, 2))]), 3,
                         300, 2),
    }
    # heavy-tailed rows where one restart of a batch empties a cluster
    # while the others go on without a repair
    x = np.exp(2.0 * np.random.default_rng(758).normal(size=(30, 2)))
    cases["one-repair"] = (x, 5, 300, 758)
    return cases


BATCH_CASES = batch_cases()
# the batch cases, whose ten restarts share each pass, and inputs of
# k * n above BUDGET, whose restarts run one at a time
LAYOUT_KMEANS_CASES = dict(
    BATCH_CASES,
    **{"m1-serial": (four_blobs(1, seed=25, n=6000), 3, 300, 25),
       "m8-serial": (four_blobs(8, seed=26, n=2100), 8, 300, 26),
       "max-iter-1-serial": (four_blobs(3, seed=27, n=6000), 4, 1, 27)})


class TestRestartBatches:
    """Restarts run in lockstep batches of BUDGET // (k * n).  Every width,
    one at a time included, gives what reference_kmeans gives, and what one
    restart at a time gives, n_iter and converged included."""

    @staticmethod
    def run(monkeypatch, case, width):
        x, k, max_iter, seed = BATCH_CASES[case]
        force_width(monkeypatch, width, k, x.shape[0])
        return kmeans(x, k, max_iter=max_iter, rng_seed=seed, restarts=10)

    @staticmethod
    def record(monkeypatch, name):
        """Each call's (arguments, result) of clustering.<name>."""
        original, seen = getattr(clustering, name), []

        def recorded(*args):
            result = original(*args)
            seen.append((args, result))
            return result

        monkeypatch.setattr(clustering, name, recorded)
        return seen

    @pytest.mark.parametrize("width", [1, 2, 3, None])
    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_matches_reference(self, monkeypatch, case, width):
        x, k, max_iter, seed = BATCH_CASES[case]
        one = self.run(monkeypatch, case, 1)
        model = self.run(monkeypatch, case, width)
        assert np.array_equal(model.labels, one.labels)
        assert np.array_equal(model.centroids, one.centroids)
        assert model.inertia == one.inertia
        assert (model.n_iter, model.converged) == (one.n_iter, one.converged)
        labels, centroids, inertia, _ = reference_kmeans(
            x, k, max_iter=max_iter, rng_seed=seed, restarts=10)
        assert np.array_equal(model.labels, labels)
        if x.shape[1] < 8:
            assert np.array_equal(model.centroids, centroids)
            assert model.inertia == inertia
        else:
            # see test_twelve_columns_sum_pairwise_but_agree
            assert model.inertia == pytest.approx(inertia, rel=1e-12, abs=0)

    def test_restarts_leave_the_batch_on_different_passes(self, monkeypatch):
        batches = self.record(monkeypatch, "_lloyd_batch")
        self.run(monkeypatch, "m2", None)
        assert len(batches) == 1
        passes = [model.n_iter for model in batches[0][1]]
        assert len(passes) == 10 and len(set(passes)) > 2

    def test_max_iter_stops_some_restarts_and_not_others(self, monkeypatch):
        batches = self.record(monkeypatch, "_lloyd_batch")
        self.run(monkeypatch, "max-iter-2", None)
        converged = {model.converged for model in batches[0][1]}
        assert converged == {True, False}

    def test_one_restart_of_a_batch_repairs(self, monkeypatch):
        updates = self.record(monkeypatch, "_update_centroids")
        self.run(monkeypatch, "one-repair", None)
        repairs = [(args[2].shape[0], len(undone))
                   for args, undone in updates if undone]
        assert any(repaired < rows for rows, repaired in repairs)

    def test_zero_mass_seeds_in_one_batch(self, monkeypatch):
        # two distinct rows for three seeds: every restart's third seed
        # meets a zero mass, and the whole batch is still seeded in one call
        x, k, max_iter, seed = BATCH_CASES["few-distinct"]
        seedings = self.record(monkeypatch, "_seed_batch")
        model = self.run(monkeypatch, "few-distinct", None)
        assert [args[-1] for args, _ in seedings] == [10]
        # each restart drew integers(n) and random(k - 1), and nothing else
        want = np.random.default_rng(seed)
        for _ in range(10):
            want.integers(x.shape[0])
            want.random(k - 1)
        assert seedings[0][0][3].bit_generator.state == want.bit_generator.state
        labels, centroids, inertia, _ = reference_kmeans(
            x, k, max_iter=max_iter, rng_seed=seed, restarts=10)
        assert np.array_equal(model.labels, labels)
        assert np.array_equal(model.centroids, centroids)
        assert model.inertia == inertia

    @pytest.mark.parametrize("width", [1, 2, 40])
    def test_zero_mass_seeds_are_the_serial_seeds(self, width):
        # the zero-mass pick lands on the lone ones row about one time in
        # nine, so a batch of 40 seeds a third centroid of each kind
        x = BATCH_CASES["few-distinct"][0]
        serial, batch = np.random.default_rng(5), np.random.default_rng(5)
        want = x[[reference_seeds(x, 3, serial) for _ in range(width)]]
        got = _seed_batch(x, np.ascontiguousarray(x.T), 3, batch, width)
        assert np.array_equal(got, want)
        if width == 40:
            assert len(np.unique(got[:, 2], axis=0)) == 2

    @pytest.mark.parametrize("m", [1, 3, 12])
    def test_seeds_drawn_together_are_the_serial_seeds(self, m):
        x = four_blobs(m, seed=m, n=200)
        xt = np.ascontiguousarray(x.T)
        serial, batch = np.random.default_rng(m), np.random.default_rng(m)
        for width in (1, 2, 7):
            want = x[[reference_seeds(x, 5, serial) for _ in range(width)]]
            assert np.array_equal(_seed_batch(x, xt, 5, batch, width), want)
            assert batch.bit_generator.state == serial.bit_generator.state

    def test_stacked_passes_match_one_set_at_a_time(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n, m = int(rng.integers(1, 3000)), int(rng.integers(1, 8))
            k, sets = int(rng.integers(1, 20)), int(rng.integers(2, 12))
            x = rng.normal(size=(n, m))
            if rng.random() < 0.5:
                x = np.asfortranarray(x)
            stack = rng.normal(size=(sets, k, m))
            d2 = sqdist(x.T, stack)
            # _nearest keeps its running minimum in its input's first row
            labels, nearest = _nearest(d2.copy())
            for b in range(sets):
                one = sqdist(x.T, stack[b])
                assert np.array_equal(d2[b], one)
                want_labels, want_nearest = _nearest(one)
                assert np.array_equal(labels[b], want_labels)
                assert np.array_equal(nearest[b], want_nearest)

    def test_ten_restarts_hold_no_more_than_one(self):
        """The width cap keeps a large input to one restart at a time: ten
        restarts' allocations peak less than one restart's sqdist scratch
        above those of a single restart."""
        x = np.random.default_rng(4).normal(size=(100_000, 2))
        scratch = 2 * 3 * x.shape[0] * x.itemsize

        def peak(restarts):
            tracemalloc.start()
            try:
                kmeans(x, 3, max_iter=3, restarts=restarts)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(10) < peak(1) + scratch

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    @pytest.mark.parametrize("case", sorted(LAYOUT_KMEANS_CASES))
    def test_memory_layout_changes_nothing(self, case, layout):
        x, k, max_iter, seed = LAYOUT_KMEANS_CASES[case]
        assert (k * x.shape[0] > clustering.BUDGET) == case.endswith("serial")
        if layout == "fortran":
            other = np.asfortranarray(x)
            assert other.flags.f_contiguous
        else:
            # every other column of a wider array: neither C nor F
            # contiguous, unlike an m = 1 array, which is always both
            other = np.repeat(x, 2, axis=1)[:, ::2]
            assert not (other.flags.c_contiguous or other.flags.f_contiguous)
        plain = kmeans(np.ascontiguousarray(x), k, max_iter=max_iter,
                       rng_seed=seed, restarts=10)
        model = kmeans(other, k, max_iter=max_iter, rng_seed=seed,
                       restarts=10)
        assert np.array_equal(model.labels, plain.labels)
        assert np.array_equal(model.centroids, plain.centroids)
        assert model.inertia == plain.inertia
        assert (model.n_iter, model.converged) == (plain.n_iter,
                                                   plain.converged)


class TestOverflow:
    """Rows whose squared distances could overflow float64 are refused by
    name, before any arithmetic warns; the bound is 8 n M at most the float64
    maximum for k-means, M the largest squared row norm summed one
    coordinate at a time, and 8 M for the kNN graph, which sums no
    distances over rows."""

    @staticmethod
    def rows(m=2):
        return np.random.default_rng(0).standard_normal((20, m))

    @staticmethod
    def largest_scale(x, terms):
        """The largest power of two s with 8 terms M s^2 within the
        maximum."""
        norms = x[:, 0] ** 2
        for j in range(1, x.shape[1]):
            norms = norms + x[:, j] ** 2
        bound = 8.0 * terms * norms.max()
        e = math.floor(math.log2(np.finfo(np.float64).max / bound) / 2)
        while bound * 4.0 ** e > np.finfo(np.float64).max:
            e -= 1
        return 2.0 ** e

    def test_kmeans_refuses(self):
        with pytest.raises(ContractViolationError, match="overflow"):
            kmeans(self.rows() * 1e155, 3, restarts=2)

    def test_assign_nearest_refuses_rows_and_centroids(self):
        x = self.rows()
        with pytest.raises(ContractViolationError, match="overflow"):
            assign_nearest(x * 1e155, x[:3] * 1e155)
        with pytest.raises(ContractViolationError, match="overflow"):
            assign_nearest(x, x[:3] * 1e155)

    def test_the_largest_accepted_scale_scales_every_result_exactly(self):
        # a power of two scales every sum and product exactly, so the
        # labels repeat and the inertia scales by its square; at m = 12 the
        # guard's one-coordinate-at-a-time norms set the boundary, which
        # numpy's pairwise row sum need not repeat
        for m in (2, 12):
            x = self.rows(m)
            s = self.largest_scale(x, x.shape[0])
            plain = kmeans(x, 3, restarts=4)
            model = kmeans(x * s, 3, restarts=4)
            assert np.array_equal(model.labels, plain.labels)
            assert np.array_equal(model.centroids, plain.centroids * s)
            assert model.inertia == plain.inertia * s * s
            assert np.array_equal(assign_nearest(x * s, model.centroids),
                                  plain.labels)
            with pytest.raises(ContractViolationError, match="overflow"):
                kmeans(x * (2.0 * s), 3)

    def test_the_knn_graph_refuses_by_name(self):
        # the tree's squared distances overflowed and it returned the
        # missing-neighbour index n, which indexing then refused
        x = self.rows() * 1e155
        with pytest.raises(ContractViolationError, match="overflow"):
            build_affinity(x, 5)
        with pytest.raises(ContractViolationError, match="overflow"):
            spectral_cluster(x, 2, neighbors=5)

    def test_rows_without_coordinates_are_refused_by_name(self):
        # the guard that reads every row refuses them first; the kernel
        # has no coordinate to start its sum from
        x = np.zeros((6, 0))
        for call in (lambda: kmeans(x, 2),
                     lambda: assign_nearest(x, np.zeros((2, 0))),
                     lambda: build_affinity(x, 2)):
            with pytest.raises(ContractViolationError, match="coordinates"):
                call()

    def test_the_largest_accepted_scale_gives_the_same_graph(self):
        for m in (2, 12):
            x = self.rows(m)
            s = self.largest_scale(x, 1)
            plain = build_affinity(x, 5).toarray()
            assert np.array_equal(build_affinity(x * s, 5).toarray(), plain)
            with pytest.raises(ContractViolationError, match="overflow"):
                build_affinity(x * (2.0 * s), 5)


class TestFarFromTheOrigin:
    """Near points far from the origin: each distance is about 1 against
    squared norms of 2e16, where aa + bb - 2 ab cancels away every digit
    that tells the centroids apart."""

    @staticmethod
    def rows():
        rng = np.random.default_rng(6)
        centres = 1e8 + np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        x = centres[np.repeat(np.arange(3), 1000)] + rng.normal(
            scale=0.1, size=(3000, 2))
        return x, centres

    def test_assign_nearest_keeps_the_differences(self):
        x, centres = self.rows()
        want = np.argmin(reference_sqdist(x, centres), axis=1)
        assert np.array_equal(want, np.repeat(np.arange(3), 1000))
        assert np.array_equal(assign_nearest(x, centres), want)

    def test_kmeans_keeps_the_differences(self):
        x, _ = self.rows()
        model = kmeans(x, 3, rng_seed=0, restarts=10)
        d2 = reference_sqdist(x, model.centroids)
        assert np.array_equal(model.labels, np.argmin(d2, axis=1))
        assert model.inertia == np.take_along_axis(
            d2, model.labels[:, None], axis=1).sum()
        assert model.inertia < 1.1 * 3000 * 2 * 0.1 ** 2
        assert ari(model.labels, np.repeat(np.arange(3), 1000)) == 1.0


def test_seeding_and_every_pass_call_one_kernel(monkeypatch):
    """Seeding calls the kernel as _sqdist, each Lloyd pass and
    assign_nearest as sqdist, the name a count of passes wraps: one
    function under two names."""
    assert clustering.sqdist is clustering._sqdist
    calls = Counter()

    def count(name):
        kernel = getattr(clustering, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(clustering, name, counted)

    count("_sqdist")
    count("sqdist")
    x = four_blobs(2, seed=2)
    model = kmeans(x, 4, rng_seed=2)
    # the overflow guard's norms, then k - 1 seeding distances
    assert calls == {"_sqdist": 1 + 3, "sqdist": model.n_iter}
    calls.clear()
    assign_nearest(x, model.centroids)
    assert calls == {"_sqdist": 2, "sqdist": 1}


def tie_grid(k):
    """Integer grid points and k integer centroids, in an order that puts
    the lower-indexed centroid of a tied pair on either side.  Every
    product and sum is an exact integer, so ties are exact."""
    g = np.arange(-4.0, 5.0)
    x = np.array([(a, b) for a in g for b in g])
    spots = np.array([(2.0, 0.0), (-2.0, 0.0), (0.0, 2.0), (0.0, -2.0),
                      (2.0, 2.0), (-2.0, -2.0)])
    return x, spots[:k][::-1 if k % 2 else 1].copy()


def layout_cases():
    """(x, centroids) pairs that a k x n pass must treat as the n x k one."""
    rng = np.random.default_rng(11)
    cases = {f"ties-k{k}": tie_grid(k) for k in range(2, 7)}
    z = np.asfortranarray(rng.normal(size=(300, 3)))
    cases["f-order"] = (z, z[[3, 70, 150]].copy())
    x = rng.normal(size=(50, 1))
    cases["m1"] = (x, np.array([[-1.0], [0.0], [0.5]]))
    cases["k1"] = (rng.normal(size=(40, 4)), rng.normal(size=(1, 4)))
    # more labels than a byte holds
    x = rng.normal(size=(300, 2))
    cases["k-equals-n"] = (x, x[::-1].copy())
    # at this width c @ x.T is not always bit-identical to x @ c.T's transpose
    x = rng.normal(size=(4500, 5))
    cases["k16"] = (x, x[rng.choice(4500, 16, replace=False)]
                    + rng.normal(size=(16, 5)) * 0.1)
    return cases


LAYOUT_CASES = layout_cases()


class TestAssignmentPass:
    """The k x n pass against argmin over the frozen n x k distances."""

    @pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
    def test_labels_and_minimum_match_argmin(self, case):
        x, centroids = LAYOUT_CASES[case]
        want_d2 = reference_sqdist(x, centroids)
        want = np.argmin(want_d2, axis=1)
        d2 = sqdist(np.ascontiguousarray(x.T), centroids)
        assert d2.shape == want_d2.T.shape
        assert np.array_equal(d2, want_d2.T)
        labels, nearest = _nearest(d2)
        assert labels.dtype == np.intp
        assert np.array_equal(labels, want)
        assert nearest.sum() == np.take_along_axis(
            want_d2, want[:, None], axis=1).sum()
        assert np.array_equal(assign_nearest(x, centroids), want)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_the_tie_grid_ties_two_and_more_centroids(self, k):
        x, centroids = tie_grid(k)
        d2 = reference_sqdist(x, centroids)
        tied = (d2 == d2.min(axis=1, keepdims=True)).sum(axis=1)
        assert np.count_nonzero(tied >= 2) > 0
        if k >= 4:
            assert np.count_nonzero(tied >= 3) > 0

    @pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
    def test_kmeans_matches_reference(self, case):
        x, centroids = LAYOUT_CASES[case]
        k = centroids.shape[0]
        model = kmeans(x, k, rng_seed=3, restarts=3)
        labels, centroids, inertia, _ = reference_kmeans(x, k, rng_seed=3,
                                                         restarts=3)
        assert np.array_equal(model.labels, labels)
        assert np.array_equal(model.centroids, centroids)
        assert model.inertia == inertia

    def test_no_centroids_is_refused(self):
        with pytest.raises(ContractViolationError, match="no centroids"):
            assign_nearest(np.zeros((3, 2)), np.zeros((0, 2)))

    @pytest.mark.parametrize("m", [1, 3])
    def test_centroids_of_another_width_are_refused(self, m):
        # the kernel reads the rows' coordinates only, so wider centroids
        # would be cut short without a word
        with pytest.raises(ContractViolationError, match="widths differ"):
            assign_nearest(np.zeros((3, 2)), np.zeros((2, m)))


class TestKmeans:
    def test_k1_is_column_means(self):
        x = np.random.default_rng(0).normal(size=(12, 3))
        model = kmeans(x, 1)
        assert np.allclose(model.centroids[0], x.mean(axis=0))
        assert set(model.labels.tolist()) == {0}

    def test_k_equals_n(self):
        x = np.arange(10.0).reshape(5, 2) * 3
        model = kmeans(x, 5, rng_seed=1)
        assert model.inertia < 1e-20

    def test_two_tight_triples(self):
        rng = np.random.default_rng(3)
        x = np.vstack([rng.normal(0, 0.01, (3, 2)),
                       rng.normal(50, 0.01, (3, 2))])
        model = kmeans(x, 2, rng_seed=0)
        assert len(set(model.labels[:3].tolist())) == 1
        assert len(set(model.labels[3:].tolist())) == 1
        assert model.labels[0] != model.labels[3]
        assert np.isclose(model.inertia, best_partition_inertia(x, 2))

    def test_fixed_point(self):
        x = np.random.default_rng(5).normal(size=(40, 2))
        model = kmeans(x, 3, rng_seed=2)
        # labels are nearest centroids and centroids are member means
        assert np.array_equal(model.labels,
                              assign_nearest(x, model.centroids))
        for c in range(3):
            members = x[model.labels == c]
            assert members.size > 0
            assert np.allclose(model.centroids[c], members.mean(axis=0))

    def test_every_cluster_nonempty(self):
        x = np.vstack([np.zeros((8, 2)), np.ones((1, 2))])
        model = kmeans(x, 3, rng_seed=7)
        assert sorted(set(model.labels.tolist())) == [0, 1, 2]

    @pytest.mark.parametrize("restarts", [1, 10])
    @pytest.mark.parametrize("seed", range(4))
    def test_fewer_distinct_points_than_k_converges(self, seed, restarts):
        # the empty-cluster repair moves a duplicate point and the next
        # assignment moves it back; that must end the run, not max_iter
        x = np.vstack([np.zeros((8, 2)), np.ones((1, 2))])
        model = kmeans(x, 3, rng_seed=seed, restarts=restarts)
        assert model.converged and model.n_iter < 5
        # every label is a nearest centroid, ties included, and every
        # non-empty centroid is its members' mean
        d2 = ((x[:, None, :] - model.centroids[None]) ** 2).sum(axis=2)
        assert np.array_equal(d2[np.arange(len(x)), model.labels],
                              d2.min(axis=1))
        for c in np.unique(model.labels):
            assert np.array_equal(model.centroids[c],
                                  x[model.labels == c].mean(axis=0))
        assert model.inertia == 0.0

    def test_inertia_non_increasing(self):
        for seed in range(8):
            x = np.random.default_rng(seed).normal(size=(60, 3))
            # Lloyd's first t passes do not depend on max_iter, so this is
            # the inertia of the pair each pass leaves, in turn; a pass never
            # raises it
            hist = np.array([kmeans(x, 4, rng_seed=seed, max_iter=t).inertia
                             for t in range(1, 30)])
            assert np.all(np.diff(hist) <= 1e-9)

    def test_inertia_is_that_of_the_returned_pair(self):
        # stopped at max_iter before converging: the last pass measured the
        # centroids it then moved (the stale value read 88.09, not 85.87)
        x = np.random.default_rng(0).standard_normal((60, 3))
        model = kmeans(x, 4, rng_seed=0, max_iter=2)
        assert not model.converged
        own = np.sum((x - model.centroids[model.labels]) ** 2)
        assert model.inertia == pytest.approx(own, rel=1e-12)

    def test_deterministic_per_seed(self):
        x = np.random.default_rng(8).normal(size=(30, 2))
        a, b = kmeans(x, 3, rng_seed=4), kmeans(x, 3, rng_seed=4)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centroids, b.centroids)

    def test_restarts_keep_best(self):
        rng = np.random.default_rng(9)
        x = np.vstack([rng.normal(c, 0.3, (20, 2)) for c in (0, 6, 12, 18)])
        single = [kmeans(x, 4, rng_seed=s).inertia for s in range(10)]
        multi = kmeans(x, 4, rng_seed=0, restarts=10).inertia
        assert multi <= min(kmeans(x, 4, rng_seed=0).inertia, np.median(single))

    def test_restarts_one_matches_plain(self):
        x = np.random.default_rng(10).normal(size=(25, 2))
        a = kmeans(x, 3, rng_seed=6)
        b = kmeans(x, 3, rng_seed=6, restarts=1)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia

    def test_k_bounds(self):
        x = np.zeros((3, 2))
        with pytest.raises(ContractViolationError):
            kmeans(x, 4)
        with pytest.raises(ContractViolationError):
            kmeans(x, 0)

    def test_duplicate_points_survive(self):
        x = np.zeros((6, 2))
        model = kmeans(x, 2, rng_seed=0)
        assert sorted(set(model.labels.tolist())) == [0, 1]
        assert model.inertia == 0.0

    @staticmethod
    def pick_counts(d2, draws, seed):
        rng = np.random.default_rng(seed)
        counts = np.zeros(d2.size)
        for _ in range(draws):
            counts[reference_next_center(d2, rng.random())] += 1
        return counts

    @staticmethod
    def within_three_sigma(counts, probs):
        draws = counts.sum()
        sigma = np.sqrt(draws * probs * (1 - probs))
        return np.all(np.abs(counts - draws * probs) <= 3 * sigma + 1)

    def test_seeding_frequency_matches_squared_distance(self):
        # second-center draw follows the squared-distance weights
        x = np.array([[0.0], [1.0], [2.0], [3.0], [10.0]])
        first = x[0:1]
        d2 = sqdist(x.T, first).min(axis=0)
        counts = self.pick_counts(d2, 10000, 123)
        assert self.within_three_sigma(counts, d2 / d2.sum())

    def test_zero_mass_pick_is_uniform_over_the_rows(self):
        counts = self.pick_counts(np.zeros(7), 10000, 321)
        assert self.within_three_sigma(counts, np.full(7, 1 / 7))


class TestLloydVsExhaustive:
    def test_small_instances_reach_global_optimum(self):
        # best-of-10 seedings, the same configuration the analyst runs
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 9))
            k = int(rng.integers(2, 4))
            x = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0)
            model = kmeans(x, k, rng_seed=seed, restarts=10)
            if np.isclose(model.inertia, best_partition_inertia(x, k),
                          rtol=1e-9, atol=1e-9):
                hits += 1
        assert hits >= 18


class TestAffinity:
    def test_two_points(self):
        w = build_affinity(np.array([[0.0], [1.0]]), 1).toarray()
        assert np.array_equal(w, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_collinear_symmetrization(self):
        x = np.array([[0.0], [1.0], [2.0], [10.0]])
        w = build_affinity(x, 1)
        # the far point reaches back to 2 only via symmetrization
        assert w[3, 2] == 1.0 and w[2, 3] == 1.0
        assert w[0, 1] == 1.0 and w[1, 0] == 1.0

    def test_structure(self):
        x = np.random.default_rng(3).normal(size=(30, 4))
        w = build_affinity(x, 5).toarray()
        assert np.array_equal(w, w.T)
        assert np.all(np.diag(w) == 0)
        assert set(np.unique(w).tolist()) <= {0.0, 1.0}

    def test_neighbor_bounds(self):
        x = np.zeros((4, 1))
        with pytest.raises(ContractViolationError):
            build_affinity(x, 0)
        with pytest.raises(ContractViolationError):
            build_affinity(x, 4)

    @pytest.mark.parametrize("neighbors", [1, 3, 8, 20])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_oracle_on_integer_grid(self, neighbors, dim):
        # every distance is exact, so the ties and duplicates are real; the
        # 30 copies of one row outnumber any first query, and a copy can
        # come before self
        rng = np.random.default_rng(10 * neighbors + dim)
        x = np.vstack([rng.integers(0, 4, size=(90, dim)),
                       np.full((30, dim), 2)]).astype(float)
        x = x[rng.permutation(x.shape[0])]
        assert np.array_equal(build_affinity(x, neighbors).toarray(),
                              dense_affinity(x, neighbors))

    @pytest.mark.parametrize("neighbors", [1, 5, 10])
    def test_matches_oracle_on_gaussian(self, neighbors):
        x = np.random.default_rng(neighbors).normal(size=(150, 4))
        assert np.array_equal(build_affinity(x, neighbors).toarray(),
                              dense_affinity(x, neighbors))

    def test_matches_oracle_on_iris(self):
        # measurements to one decimal give many exactly tied distances
        x = load_csv(IRIS, label_column="species").features
        assert np.array_equal(build_affinity(x, 10).toarray(),
                              dense_affinity(x, 10))


class TestLaplacian:
    def test_matches_dense_formula(self):
        w = build_affinity(np.random.default_rng(2).normal(size=(40, 3)), 4)
        # one extra node without edges
        w = scipy.sparse.block_diag((w, scipy.sparse.csr_array((1, 1))))
        dense = w.toarray()
        deg = dense.sum(axis=1)
        dinv = np.zeros_like(deg)
        dinv[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
        expected = dinv[:, None] * (np.diag(deg) - dense) * dinv[None, :]
        lap = laplacian_sym(w)
        assert lap.format == "csr"
        assert np.allclose(lap.toarray(), expected, rtol=1e-15, atol=0.0)
        assert lap[[40]].nnz == 0


class TestSpectralEmbedding:
    def test_disconnected_cliques(self):
        # neighbors = clique size - 1 makes both components complete graphs,
        # so degrees are equal and each clique collapses to one point
        rng = np.random.default_rng(1)
        x = np.vstack([rng.normal(0, 0.1, (5, 2)),
                       rng.normal(100, 0.1, (5, 2))])
        emb = spectral_embedding(x, 2, neighbors=4)
        assert np.all(np.abs(emb.eigenvalues[:2]) < 1e-10)
        rows = emb.vectors
        assert np.abs(rows[:5] - rows[:5].mean(axis=0)).max() < 1e-8
        assert np.abs(rows[5:] - rows[5:].mean(axis=0)).max() < 1e-8
        assert np.linalg.norm(rows[0] - rows[5]) > 1e-3

    def test_eigenvalue_range(self):
        for seed in range(5):
            x = np.random.default_rng(seed).normal(size=(25, 3))
            emb = spectral_embedding(x, 25, neighbors=4)
            assert emb.eigenvalues.min() > -1e-10
            assert emb.eigenvalues.max() < 2 + 1e-10

    def test_single_edge_pair(self):
        emb = spectral_embedding(np.array([[0.0], [1.0]]), 1, neighbors=1)
        assert np.allclose(np.abs(emb.vectors[:, 0]), 1 / np.sqrt(2), atol=1e-10)

    def test_unit_norm_columns(self):
        x = np.random.default_rng(9).normal(size=(40, 3))
        emb = spectral_embedding(x, 4, neighbors=6)
        assert np.allclose(np.linalg.norm(emb.vectors, axis=0), 1, atol=1e-8)

    @pytest.mark.parametrize("k", [2, 6])
    def test_component_indicators_are_the_null_space(self, k):
        # four far-apart 6-point cliques: neighbors = 5 makes each complete
        rng = np.random.default_rng(4)
        x = np.vstack([rng.normal(c, 0.1, (6, 2)) for c in (0, 50, 100, 150)])
        emb = spectral_embedding(x, k, neighbors=5)
        null = min(k, 4)
        assert emb.components == 4
        assert np.all(emb.eigenvalues[:null] == 0.0)
        # the other eigenvalue of a complete graph on 6 nodes is 6/5
        assert np.allclose(emb.eigenvalues[null:], 1.2, atol=1e-10)
        clique = np.arange(24) // 6
        for c in range(null):
            assert np.allclose(emb.vectors[:, c],
                               np.where(clique == c, 1 / np.sqrt(6), 0.0),
                               rtol=0.0, atol=1e-15)
        assert np.allclose(emb.vectors.T @ emb.vectors, np.eye(k), atol=1e-10)

    def test_repeat_calls_are_bit_identical(self):
        x = make_circles(2, 150, rng_seed=3).features[:, :2]
        first = spectral_embedding(x, 4, neighbors=8)
        # an unrelated solve with ARPACK's own start vector in between
        other = scipy.sparse.random_array((80, 80), density=0.1, rng=0)
        scipy.sparse.linalg.eigsh(other + other.T, k=3)
        second = spectral_embedding(x, 4, neighbors=8)
        assert np.array_equal(first.vectors, second.vectors)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)

    @pytest.mark.parametrize("separated", [False, True])
    @pytest.mark.parametrize("k", [2, 5])
    def test_span_matches_dense_oracle(self, k, separated):
        x = np.random.default_rng(k).normal(size=(200, 3))
        if separated:
            x[100:] += 100.0
        w = build_affinity(x, 6)
        ref = eig_symmetric(laplacian_sym(w).toarray(), top_k=k + 1)
        # the bottom-k span is only defined across a gap
        assert ref.values[k] - ref.values[k - 1] > 1e-6
        emb = spectral_embedding(x, k, neighbors=6)
        assert emb.components == (2 if separated else 1)
        v = ref.vectors[:, :k]
        assert np.abs(emb.vectors @ emb.vectors.T - v @ v.T).max() < 1e-8
        assert np.allclose(emb.eigenvalues, ref.values[:k], rtol=0, atol=1e-12)


def far_groups(groups, seed, size=40):
    rng = np.random.default_rng(seed)
    return np.vstack([rng.normal(50.0 * g, 1.0, (size, 2))
                      for g in range(groups)])


def noisy_ring(seed, n=200):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    return (np.column_stack([np.cos(t), np.sin(t)])
            + rng.normal(0.0, 0.01, (n, 2)))


class TestSpectralSkipsTheKnownNullSpace:
    """With at least k components the embedding is the k indicators, so
    the Laplacian is neither built nor solved; with fewer it is, once.
    Either way every bit matches the embedding that always solves."""

    CASES = {
        # name: (points, components, Laplacian and eigensolve calls)
        "more-components-than-k": (far_groups(4, seed=1), 4, 0),
        "as-many-components-as-k": (far_groups(3, seed=2), 3, 0),
        "one-ring": (noisy_ring(seed=3), 1, 1),
    }

    @staticmethod
    def counted_calls(monkeypatch):
        calls = Counter()
        for name in ("laplacian_sym", "eig_symmetric"):
            original = getattr(clustering, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(clustering, name, counted)
        return calls

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_solves_only_below_k_components(self, case, monkeypatch):
        x, components, solves = self.CASES[case]
        calls = self.counted_calls(monkeypatch)
        emb = spectral_embedding(x, 3, neighbors=6)
        assert emb.components == components
        assert (calls["laplacian_sym"], calls["eig_symmetric"]) == (solves,
                                                                    solves)
        spectral_cluster(x, 3, neighbors=6, rng_seed=1)
        assert calls["laplacian_sym"] == calls["eig_symmetric"] == 2 * solves

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bit_for_bit_with_the_reference(self, case):
        x, _, _ = self.CASES[case]
        emb = spectral_embedding(x, 3, neighbors=6)
        ref = reference_spectral_embedding(x, 3, neighbors=6)
        assert emb.components == ref.components
        assert np.array_equal(emb.eigenvalues, ref.eigenvalues)
        assert np.array_equal(emb.vectors, ref.vectors)
        labels = spectral_cluster(x, 3, neighbors=6, rng_seed=1,
                                  restarts=5).labels
        assert np.array_equal(
            labels, kmeans(ref.vectors, 3, rng_seed=1, restarts=5).labels)


class TestSpectralCluster:
    def test_rings_beat_plain_kmeans(self):
        ds = make_circles(2, 250, noise_std=0.0, rng_seed=0)
        x = ds.features[:, :2]
        sc = spectral_cluster(x, 2, neighbors=10, rng_seed=1)
        km = kmeans(x, 2, rng_seed=1, restarts=10)
        assert ari(ds.labels, sc.labels) == pytest.approx(1.0)
        assert ari(ds.labels, km.labels) < 0.5

    def test_blobs(self):
        ds = make_blobs(3, 120, rng_seed=2)
        sc = spectral_cluster(ds.features, 3, neighbors=10, rng_seed=0,
                              restarts=5)
        assert ari(ds.labels, sc.labels) == pytest.approx(1.0)
