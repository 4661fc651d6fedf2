import numpy as np
import pytest
import scipy.sparse

from dccluster import numerics
from dccluster.errors import ContractViolationError
from dccluster.numerics import (as_matrix, svd, pinv, eig_symmetric,
                                leading_left_vectors)


def rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


class TestAsMatrix:
    def test_accepts_lists(self):
        out = as_matrix([[1, 2], [3, 4]])
        assert out.dtype == np.float64 and out.shape == (2, 2)

    def test_rejects_vector(self):
        with pytest.raises(ContractViolationError):
            as_matrix(np.arange(3.0))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ContractViolationError):
            as_matrix([[1.0, np.nan]])
        with pytest.raises(ContractViolationError):
            as_matrix([[np.inf, 1.0]])

    def test_error_names_the_argument(self):
        with pytest.raises(ContractViolationError, match="weights"):
            as_matrix([1.0, 2.0], "weights")


class TestSvd:
    def test_reconstruction(self):
        for seed, shape in enumerate([(8, 5), (5, 8), (6, 6)]):
            a = rand(shape, seed)
            r = svd(a)
            assert np.allclose(r.u * r.s @ r.vt, a, atol=1e-10)

    def test_singular_values_descending_nonnegative(self):
        r = svd(rand((10, 4), 3))
        assert np.all(r.s >= 0)
        assert np.all(np.diff(r.s) <= 1e-12)

    def test_sign_convention(self):
        # largest-magnitude entry of each left singular vector is nonnegative
        for seed in range(6):
            r = svd(rand((7, 4), seed))
            for col in r.u.T:
                assert col[np.argmax(np.abs(col))] >= 0

    def test_sign_flip_applied_to_both_factors(self):
        a = rand((6, 4), 9)
        r = svd(a)
        assert np.allclose(r.u * r.s @ r.vt, a, atol=1e-10)

    def test_top_k_matches_full_prefix(self):
        a = rand((9, 6), 11)
        full, top = svd(a), svd(a, top_k=3)
        assert np.array_equal(top.u, full.u[:, :3])
        assert np.array_equal(top.s, full.s[:3])
        assert np.array_equal(top.vt, full.vt[:3])

    def test_deterministic(self):
        a = rand((20, 7), 5)
        r1, r2 = svd(a), svd(a)
        assert np.array_equal(r1.u, r2.u) and np.array_equal(r1.vt, r2.vt)


class TestPinv:
    def test_moore_penrose_identities(self):
        # the four defining identities, random sizes up to 50x50
        rng = np.random.default_rng(0)
        for _ in range(20):
            shape = rng.integers(2, 51, size=2)
            a = rng.normal(size=shape)
            p, _ = pinv(a)
            assert np.allclose(a @ p @ a, a, atol=1e-8)
            assert np.allclose(p @ a @ p, p, atol=1e-8)
            assert np.allclose((a @ p).T, a @ p, atol=1e-8)
            assert np.allclose((p @ a).T, p @ a, atol=1e-8)

    def test_rank_deficient(self):
        a = np.vstack([np.eye(3), np.eye(3)])[:, :2] @ rand((2, 4), 7)
        p, _ = pinv(a)
        assert np.allclose(a @ p @ a, a, atol=1e-8)

    def test_inverse_on_square_full_rank(self):
        a = rand((5, 5), 13) + 5 * np.eye(5)
        assert np.allclose(pinv(a)[0], np.linalg.inv(a), atol=1e-8)

    @pytest.mark.parametrize("a", [
        rand((12, 5), 17),                                   # full rank
        rand((12, 2), 18) @ rand((2, 5), 19),                # rank 2
        np.hstack([np.ones((12, 3)), rand((12, 1), 20)]),    # repeated columns
        np.zeros((6, 4)),
        np.zeros((0, 3)),
        np.zeros((3, 0)),
    ], ids=["full", "rank-2", "repeated", "zero", "no-rows", "no-columns"])
    def test_rank_matches_matrix_rank(self, a):
        p, rank = pinv(a)
        assert rank == np.linalg.matrix_rank(a)
        assert p.shape == a.shape[::-1]


def signed_pinv(a):
    """pinv from sign-fixed factors, kept as the reference."""
    a = as_matrix(a)
    res = svd(a)
    kept = res.s > np.finfo(np.float64).eps * max(a.shape) * res.s[0]
    inv_s = np.zeros_like(res.s)
    np.divide(1.0, res.s, out=inv_s, where=kept)
    return (res.vt.T * inv_s) @ res.u.T, int(np.count_nonzero(kept))


class TestPinvMatchesSignFixedReference:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_and_rank_deficient(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 40, size=2)
        a = rng.normal(size=(rows, cols))
        if seed % 2:
            rank = int(rng.integers(1, min(rows, cols) + 1))
            a = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
        if seed % 3 == 0:
            a = np.asfortranarray(a)
        p, rank = pinv(a)
        ref, ref_rank = signed_pinv(a)
        assert p.tobytes() == ref.tobytes() and rank == ref_rank

    def test_column_view_of_a_tall_buffer(self):
        # a design as alignment passes it: columns of a column-major buffer
        buf = np.asfortranarray(rand((3000, 9), 21))
        view = buf[:, 2:6]
        p, rank = pinv(view)
        ref, ref_rank = signed_pinv(view)
        assert p.tobytes() == ref.tobytes() and rank == ref_rank == 4


def with_singular_values(s, rows, cols, seed):
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(rows, len(s))))[0]
    v = np.linalg.qr(rng.normal(size=(cols, len(s))))[0]
    return (u * s) @ v.T


class TestLeadingLeftVectors:
    """Where the Gram route holds, u = (a @ v) / s with its signs fixed by
    `_fix_signs` matches svd(a, top_k).u within 1e-12, which also pins the
    column signs (a flipped column is off by twice its largest entry), and
    the returned a.T @ u, given the same signs, matches that product within
    1e-12 of a's scale.  A route of None sends the caller to svd."""

    def takes_gram_route(self, a, top_k):
        with np.errstate(over="ignore", invalid="ignore"):
            gram = a.T @ a
        route = leading_left_vectors(gram, top_k, a.shape[0])
        if route is None:
            return False
        v, s, at_u = route
        u = a @ v / s
        at_u = at_u * numerics._fix_signs(u)
        assert u.shape == (a.shape[0], top_k)
        assert np.abs(u - svd(a, top_k).u).max() <= 1e-12
        assert np.abs(at_u - a.T @ u).max() <= 1e-12 * np.abs(a).max()
        return True

    def test_tall_well_separated_stack_takes_the_gram_route(self):
        a = with_singular_values(np.geomspace(10.0, 0.1, 12), 500, 12, 0)
        assert self.takes_gram_route(a, 4)

    def test_affine_stack_with_repeated_ones_columns(self):
        # three row blocks' designs, each with its own copy of the ones
        # column, so the stack is rank-deficient by two
        rng = np.random.default_rng(1)
        ones = np.ones((300, 1))
        a = np.hstack([part for _ in range(3) for part in (
            rng.normal(size=(300, 3)) + rng.normal(size=3), ones)])
        assert np.linalg.matrix_rank(a) == a.shape[1] - 2
        assert self.takes_gram_route(a, 4)

    def test_tie_at_top_k_falls_back_to_svd(self):
        a = with_singular_values([3.0, 2.0, 1.0, 1.0, 0.5], 200, 5, 2)
        assert not self.takes_gram_route(a, 3)

    def test_small_trailing_eigenvalue_falls_back_to_svd(self):
        # lam_2 / lam_1 = 1e-6, below GRAM_RTOL
        a = with_singular_values([1.0, 1e-3, 1e-6, 1e-7], 200, 4, 3)
        assert numerics.GRAM_RTOL > 1e-6
        assert not self.takes_gram_route(a, 2)

    def test_wide_matrix_falls_back_to_svd(self):
        assert not self.takes_gram_route(rand((5, 8), 4), 3)

    def test_top_k_bounds(self):
        a = rand((8, 5), 6)
        for top_k in (0, 6):
            with pytest.raises(ContractViolationError):
                leading_left_vectors(a.T @ a, top_k, 8)
        with pytest.raises(ContractViolationError):
            leading_left_vectors(a.T @ a, 5, 4)

    def test_finite_stack_whose_gram_overflows_takes_svd(self):
        # each a.T @ a entry is about 50e400: no Gram matrix, but a finite
        # stack that svd factors
        a = np.random.default_rng(0).standard_normal((50, 4)) * 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            gram = a.T @ a
        assert not np.all(np.isfinite(gram))
        assert not self.takes_gram_route(a, 2)
        assert np.array_equal(numerics.svd_left_vectors(a, 2), svd(a, 2).u)

    @pytest.mark.parametrize("scale,gram_route", [(1e-140, True),
                                                  (1e-150, False),
                                                  (1e-157, False)])
    def test_gram_below_the_floor_takes_svd(self, scale, gram_route):
        # a.T @ a is about 30 * scale**2: 3e-279, 3e-299 and 3e-313, of
        # which only the first is at or above GRAM_FLOOR
        a = rand((30, 3), 8) * scale
        assert self.takes_gram_route(a, 2) == gram_route

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("shape", [(40, 5), (5, 40)])
    def test_rejects_nan_and_inf_with_and_without_gram(self, bad, shape):
        # the Gram matrix of a stack holding NaN or Inf is not finite, so
        # the route declines it, and the svd route refuses the stack
        a = rand(shape, 7)
        a[3, 2] = bad
        with np.errstate(invalid="ignore"):
            gram = a.T @ a
        assert leading_left_vectors(gram, 2, a.shape[0]) is None
        with pytest.raises(ContractViolationError, match="NaN or Inf"):
            numerics.svd_left_vectors(a, 2)

    def test_rejects_a_vector(self):
        with pytest.raises(ContractViolationError, match="2-D"):
            leading_left_vectors(np.ones(5), 1, 5)
        with pytest.raises(ContractViolationError, match="square"):
            leading_left_vectors(np.ones((5, 4)), 1, 5)


class TestWellConditionedGram:
    def test_ratio_and_floor(self):
        floor = numerics.GRAM_FLOOR
        assert numerics.well_conditioned_gram(np.diag([1.0, 1e-5]))
        assert not numerics.well_conditioned_gram(np.diag([1.0, 0.99e-5]))
        assert numerics.well_conditioned_gram(np.eye(3) * floor)
        # a subnormal Gram matrix, whose ratio alone would pass: pinv's
        # 1 / s of it overflows
        assert not numerics.well_conditioned_gram(np.eye(3) * 1e-310)
        assert not numerics.well_conditioned_gram(np.eye(3) * floor * 0.99)

    def test_not_finite_and_zero(self):
        assert not numerics.well_conditioned_gram(np.diag([np.inf, 1.0]))
        assert not numerics.well_conditioned_gram(np.zeros((2, 2)))


def old_rule_signs(u):
    """The sign rule as first written, over the whole matrix at once: each
    column's lead is the lowest-index entry within SIGN_TIE_RTOL of its
    largest magnitude, and a zero lead counts as positive."""
    mag = np.abs(u)
    lead = np.argmax(mag >= mag.max(axis=0) * (1.0 - numerics.SIGN_TIE_RTOL),
                     axis=0)
    signs = np.sign(u[lead, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return signs


class TestFixSigns:
    def columns(self, seed):
        """Tie-heavy columns (small integers, so the largest magnitude
        repeats, with either sign first), antisymmetric columns nudged by
        roundoff, a zero column and a column of one negative entry."""
        rng = np.random.default_rng(seed)
        ties = rng.integers(-2, 3, size=(40, 4)).astype(float)
        half = rng.normal(size=(20, 3))
        antisymmetric = np.vstack([half, -half[::-1]])
        antisymmetric *= 1.0 + rng.uniform(-1e-12, 1e-12, size=(40, 3))
        single = np.zeros((40, 1))
        single[17] = -3.0
        return np.hstack([ties, antisymmetric, np.zeros((40, 1)), single])

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_old_rule_bit_for_bit(self, seed, order):
        u = np.asarray(self.columns(seed), order=order)
        vt = rand((u.shape[1], 6), seed)
        want = old_rule_signs(u)
        fixed, fixed_vt = u.copy(order=order), vt.copy()
        signs = numerics._fix_signs(fixed, fixed_vt)
        assert np.array_equal(signs, want)
        assert np.array_equal(fixed, u * want)
        assert np.array_equal(np.signbit(fixed), np.signbit(u * want))
        assert np.array_equal(fixed_vt, vt * want[:, None])

    def test_empty_factors_keep_every_sign(self):
        for shape in ((0, 3), (4, 0)):
            u = np.zeros(shape)
            assert np.array_equal(numerics._fix_signs(u), np.ones(shape[1]))


class TestEigSymmetric:
    def test_ascending_and_orthonormal(self):
        a = rand((8, 8), 2)
        a = (a + a.T) / 2
        r = eig_symmetric(a)
        assert np.all(np.diff(r.values) >= -1e-12)
        assert np.allclose(r.vectors.T @ r.vectors, np.eye(8), atol=1e-10)

    def test_reconstruction(self):
        a = rand((6, 6), 4)
        a = (a + a.T) / 2
        r = eig_symmetric(a)
        assert np.allclose(r.vectors * r.values @ r.vectors.T, a, atol=1e-9)

    def test_rejects_asymmetric(self):
        a = rand((5, 5), 6)
        a[0, 1] += 1.0
        with pytest.raises(ContractViolationError):
            eig_symmetric(a)

    def test_top_k_is_prefix_of_full(self):
        for seed in range(8, 58):
            a = rand((10, 10), seed)
            a = (a + a.T) / 2
            full, top = eig_symmetric(a), eig_symmetric(a, top_k=4)
            assert np.array_equal(top.values, full.values[:4])
            assert np.array_equal(top.vectors, full.vectors[:, :4])

    def test_known_eigenvalues(self):
        # single graph edge: Laplacian-style matrix with eigenvalues {0, 2}
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        r = eig_symmetric(a)
        assert np.allclose(r.values, [0.0, 2.0], atol=1e-12)
        v = r.vectors[:, 0]
        assert np.allclose(np.abs(v), [1 / np.sqrt(2)] * 2, atol=1e-12)

    @staticmethod
    def path_laplacian(n):
        # combinatorial Laplacian of a path: simple eigenvalues, 0 included
        a = scipy.sparse.diags_array([-np.ones(n - 1), np.full(n, 2.0),
                                      -np.ones(n - 1)], offsets=[-1, 0, 1])
        a = a.tolil()
        a[0, 0] = a[n - 1, n - 1] = 1.0
        return a.tocsr()

    def test_sparse_matches_dense(self):
        a = self.path_laplacian(60)
        sparse, dense = eig_symmetric(a, top_k=4), eig_symmetric(a.toarray(),
                                                                  top_k=4)
        assert np.allclose(sparse.values, dense.values, atol=1e-12)
        assert np.abs(sparse.vectors - dense.vectors).max() < 1e-8

    @pytest.mark.parametrize("n", [10, 11, 50])
    def test_signs_of_roundoff_ties_follow_the_lowest_index(self, n):
        # a path's antisymmetric eigenvectors have equal and opposite
        # largest entries (the two ends, for the Fiedler vector), so which
        # one is larger in magnitude is up to roundoff
        a = self.path_laplacian(n)
        sparse, dense = eig_symmetric(a, top_k=5), eig_symmetric(a.toarray(),
                                                                 top_k=5)
        for res in (sparse, dense):
            fiedler = res.vectors[:, 1]
            assert abs(fiedler[0]) == pytest.approx(abs(fiedler[-1]), rel=1e-10)
            assert fiedler[0] > 0 > fiedler[-1]
        assert np.abs(sparse.vectors - dense.vectors).max() < 1e-8

    def test_sparse_top_k_near_n_is_solved_dense(self):
        a = self.path_laplacian(12)
        for top_k in (11, 12, None):
            sparse = eig_symmetric(a, top_k=top_k)
            dense = eig_symmetric(a.toarray(), top_k=top_k)
            assert np.array_equal(sparse.values, dense.values)
            assert np.array_equal(sparse.vectors, dense.vectors)

    def test_sparse_input_checked_like_dense(self):
        a = self.path_laplacian(8).tolil()
        a[0, 1] += 1.0
        with pytest.raises(ContractViolationError, match="symmetric"):
            eig_symmetric(a.tocsr(), top_k=2)
        a[0, 1] = np.nan
        with pytest.raises(ContractViolationError, match="NaN"):
            eig_symmetric(a.tocsr(), top_k=2)
        with pytest.raises(ContractViolationError, match="square"):
            eig_symmetric(scipy.sparse.csr_array((4, 5)), top_k=2)
        with pytest.raises(ContractViolationError, match="top_k"):
            eig_symmetric(self.path_laplacian(8), top_k=9)
