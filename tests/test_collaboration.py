import dataclasses
import itertools
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from dccluster import clustering, collaboration, numerics
from dccluster.clustering import assign_nearest, kmeans
from dccluster.collaboration import (fit_intermediate,
                                     build_collaboration,
                                     make_clustering_representation,
                                     analyst_cluster)
from dccluster.data import (make_blobs, make_circles, partition_lattice,
                            feature_bounds, generate_anchor)
from dccluster.errors import ConfigurationError, ContractViolationError
from dccluster.federation import (AnalystResultMsg, SessionConfig,
                                  UserShareMsg, _session_inputs, analyst_step,
                                  run_dc_clustering, user_step)
from dccluster.metrics import ari
from dccluster.numerics import _fix_signs, leading_left_vectors, pinv, svd


def equal_range_shares(c, m_tilde, seed, with_offsets, n=40, r=30, m=None):
    """Institutions whose private maps share one column space.

    Every map is the same base projection composed with an invertible mix,
    plus an optional per-institution shift. Exact alignment is achievable
    in affine mode by construction.
    """
    rng = np.random.default_rng(seed)
    m = m or m_tilde + 3
    base = rng.normal(size=(m, m_tilde))
    anchor = rng.uniform(-1, 1, size=(r, m))
    shares = []
    for i in range(c):
        mix = rng.normal(size=(m_tilde, m_tilde))
        mix += m_tilde * np.eye(m_tilde)        # keep it far from singular
        mu = rng.normal(size=m) * (1.0 if with_offsets else 0.0)
        x = rng.normal(size=(n, m))
        f = base @ mix
        shares.append(UserShareMsg(party=(i, 0),
                                   x_tilde=(x - mu) @ f,
                                   anchor_tilde=(anchor - mu) @ f))
    return shares


def aligned_anchor_images(shares, model):
    """Each row block's anchor images mapped by its g: block @ g[:w], plus
    the offset row g[w] where the map has one (affine mode)."""
    rows = {}
    for s in shares:
        rows.setdefault(s.party[0], []).append(s.anchor_tilde)
    out = []
    for i in sorted(rows):
        block = np.hstack(rows[i])
        g, w = model.g_maps[i], block.shape[1]
        out.append(block @ g[:w] + g[w] if len(g) > w else block @ g)
    return out


def left_vectors(a, top_k):
    """a's top_k leading left singular vectors, signs fixed as svd's: from
    the whole of a through its Gram matrix where that route holds, else from
    svd."""
    with np.errstate(over="ignore", invalid="ignore"):
        route = leading_left_vectors(a.T @ a, top_k, a.shape[0])
    if route is None:
        return svd(a, top_k).u
    v, s, _ = route
    u = a @ v / s
    _fix_signs(u)
    return u


def reference_alignment(shares, mode, m_hat=None):
    """The plain alignment, kept as the reference: one hstack copy of the
    anchor images per row block, another per design and a third stacked,
    each design's rank from matrix_rank, u1 from the whole stack, and every
    mapped anchor image held at once."""
    rows = {}
    for s in sorted(shares, key=lambda s: s.party):
        rows.setdefault(s.party[0], []).append(s)
    x_tilde = [np.hstack([s.x_tilde for s in rows[i]]) for i in sorted(rows)]
    anchors = [np.hstack([s.anchor_tilde for s in rows[i]]) for i in sorted(rows)]
    widths = [a.shape[1] for a in anchors]
    m_hat = min(widths) if m_hat is None else m_hat
    ones = np.ones((anchors[0].shape[0], 1))
    design = ([np.hstack([a, ones]) for a in anchors] if mode == "affine"
              else anchors)
    stacked = np.hstack(design)
    ranks = [np.linalg.matrix_rank(a) for a in design]
    clamped = min(ranks) < m_hat
    m_hat = int(min(ranks)) if clamped else m_hat
    u1 = left_vectors(stacked, m_hat)
    x_hat, images = [], []
    for i, anchor in enumerate(anchors):
        coeff = pinv(design[i])[0] @ u1
        linear, offset = ((coeff[:-1], coeff[-1]) if mode == "affine"
                          else (coeff, np.zeros(m_hat)))
        x_hat.append(x_tilde[i] @ linear + offset)
        images.append(anchor @ linear + offset)
    scale = max(np.linalg.norm(img) for img in images)
    residual = 0.0
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            gap = np.linalg.norm(images[i] - images[j])
            residual = max(residual, gap / scale if scale > 0 else 0.0)
    return np.vstack(x_hat), m_hat, clamped, residual


# A row block on the Gram route is solved through D.T @ D, whose condition
# number that route's guard keeps below 1 / GRAM_RTOL, so x_hat and the
# residual may differ from the plain pinv's by about eps / GRAM_RTOL =
# 2.2e-11 relative (the residual is already relative to the images' scale);
# ranks, m_hat and the clamp stay exact.
ALIGN_RTOL = np.finfo(np.float64).eps / numerics.GRAM_RTOL


def assert_matches_reference(model, reference):
    x_hat, m_hat, clamped, residual = reference
    assert (model.m_hat, model.m_hat_clamped) == (m_hat, clamped)
    assert (np.linalg.norm(model.x_hat - x_hat)
            <= ALIGN_RTOL * np.linalg.norm(x_hat))
    assert abs(model.residual - residual) <= ALIGN_RTOL


def pinv_inputs(monkeypatch):
    """Record the shape of every matrix build_collaboration hands to pinv,
    with the rank pinv counts: (r, w) is a row block's own design, (w, w)
    its Gram block."""
    seen, original = [], collaboration.pinv

    def recorded(a):
        inverse, rank = original(a)
        seen.append((np.shape(a), rank))
        return inverse, rank

    monkeypatch.setattr(collaboration, "pinv", recorded)
    return seen


def lattice_shares(c, d, seed, r=60, deficient=()):
    """Random shares on a c x d lattice with widths 1-3; the parties in
    `deficient` send anchor images that are multiples of one column."""
    rng = np.random.default_rng(seed)
    column = rng.normal(size=(r, 1))
    shares = []
    for i in range(c):
        n = 20 + 3 * i
        for j in range(d):
            width = 1 + (i + 2 * j) % 3
            anchor = rng.normal(size=(r, width)) + rng.normal(size=width)
            if (i, j) in deficient:
                anchor = column * rng.normal(size=width)
            shares.append(UserShareMsg(party=(i, j),
                                       x_tilde=rng.normal(size=(n, width)),
                                       anchor_tilde=anchor))
    return shares


def reference_fit(x, anchor, target_dim):
    """The fit as first written, kept as the reference: the block is
    centred, and the private map is the three-field
    (x - pre_offset) @ linear + post_offset, with a zero post_offset,
    applied to the block and to the anchor."""
    pre_offset = x.mean(axis=0)
    linear = svd(x - pre_offset, top_k=target_dim).vt.T
    post_offset = np.zeros(target_dim)
    return ((x - pre_offset) @ linear + post_offset,
            (anchor - pre_offset) @ linear + post_offset)


def fit_inputs(m, seed):
    """(kind, block, anchor) triples of width m: real-valued features of
    mixed scales, one of them constant, and integer-valued features whose
    block holds a row equal to its mean, as the anchor does.  The tall
    anchor spans three ANCHOR_BLOCK_ROWS blocks, the last one short, and
    holds the block's mean on both sides of the first edge and last."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    x = rng.normal(size=(n, m)) * rng.uniform(0.1, 5.0, m) + rng.normal(size=m)
    anchor = rng.uniform(-4, 4, size=(int(rng.integers(2, 30)), m))
    constant = x.copy()
    constant[:, rng.integers(m)] = rng.normal()
    half = rng.integers(-5, 6, size=(n // 2 + 1, m)).astype(float)
    integer = np.vstack([half, -half, np.zeros((1, m))]) + rng.integers(-3, 4, m)
    integer_anchor = np.vstack([anchor.round(), integer.mean(axis=0)])
    edge = collaboration.ANCHOR_BLOCK_ROWS
    tall = rng.uniform(-4, 4, size=(2 * edge + 37, m))
    tall[[edge - 1, edge, -1]] = x.mean(axis=0)
    return [("real", x, anchor), ("constant", constant, anchor),
            ("integer", integer, integer_anchor), ("tall", x, tall)]


class TestFitIntermediate:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(30, 5)) * [3, 2, 1, 0.5, 0.1]
        self.anchor = rng.uniform(-4, 4, size=(20, 5))

    def test_share_shapes(self):
        x_tilde, anchor_tilde = fit_intermediate(self.x, self.anchor, 3)
        assert x_tilde.shape == (30, 3)
        assert anchor_tilde.shape == (20, 3)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_matches_the_reference_fit_bit_for_bit(self, m):
        for seed in range(5):
            for kind, x, anchor in fit_inputs(m, seed):
                for target_dim in range(1, m):
                    got = fit_intermediate(x, anchor, target_dim)
                    want = reference_fit(x, anchor, target_dim)
                    for g, w in zip(got, want):
                        assert np.array_equal(g, w), (kind, seed, target_dim)
                        assert np.array_equal(np.signbit(g), np.signbit(w)), (
                            kind, seed, target_dim)

    def test_maps_the_anchor_without_an_anchor_sized_temporary(self):
        """The anchor is centred and mapped ANCHOR_BLOCK_ROWS rows at a
        time, so the fit's allocations peak below its outputs plus half of
        one r x m array; one centred copy of the anchor would pass that."""
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 6))
        anchor = rng.uniform(-4, 4, size=(3 * collaboration.ANCHOR_BLOCK_ROWS
                                          + 5, 6))
        tracemalloc.start()
        try:
            outputs = fit_intermediate(x, anchor, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sum(o.nbytes for o in outputs) + anchor.nbytes / 2

    def test_same_fitted_map_for_anchor(self):
        # the anchor goes through the block's map, fitted on the block
        # alone: an anchor that repeats the block comes back as the block's
        # own image, and the rest as the plain anchor's
        x_tilde, anchor_tilde = fit_intermediate(
            self.x, np.vstack([self.x, self.anchor]), 2)
        _, plain = fit_intermediate(self.x, self.anchor, 2)
        assert np.allclose(anchor_tilde[:30], x_tilde)
        assert np.allclose(anchor_tilde[30:], plain)

    def test_must_reduce_dimension(self):
        with pytest.raises(ContractViolationError):
            fit_intermediate(self.x, self.anchor, 5)
        with pytest.raises(ContractViolationError):
            fit_intermediate(self.x, self.anchor, 0)

    def test_anchor_width_must_match(self):
        with pytest.raises(ContractViolationError):
            fit_intermediate(self.x, self.anchor[:, :4], 2)

    def test_center_only_keeps_a_line_on_one_axis(self):
        # (1, 2, 3) centres to (-1, 0, 1); one axis, of either sign, keeps
        # it all, and the anchor row 4 lands one step past the last row
        x = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        x_tilde, anchor_tilde = fit_intermediate(x, [[4.0, 0.0]], 1)
        sign = np.sign(x_tilde[2, 0])
        assert np.allclose(sign * x_tilde[:, 0], [-1, 0, 1])
        assert np.allclose(sign * anchor_tilde, 2)

    def test_center_only_passes_a_constant_feature_through(self):
        # a constant feature centres to all zeros, so the fit is the one
        # without it
        x = self.x.copy()
        x[:, 2] = 5.0
        x_tilde, anchor_tilde = fit_intermediate(x, self.anchor, 3)
        assert np.isfinite(x_tilde).all() and np.isfinite(anchor_tilde).all()
        kept = [0, 1, 3, 4]
        without = fit_intermediate(x[:, kept], self.anchor[:, kept], 3)
        assert np.allclose(x_tilde, without[0], atol=1e-12)
        assert np.allclose(anchor_tilde, without[1], atol=1e-12)

    def test_takes_no_scale_keyword(self):
        # institutions always fit the centre-only map
        with pytest.raises(TypeError, match="scale"):
            fit_intermediate(self.x, self.anchor, 2, scale=False)

    def test_center_only_variant(self):
        x_tilde, anchor_tilde = fit_intermediate(self.x, self.anchor, 2)
        mu = self.x.mean(axis=0)
        # the map subtracts the block mean, then projects onto the
        # orthonormal principal axes of the centred block, anchor included
        axes = svd(self.x - mu, top_k=2).vt.T
        assert np.allclose(x_tilde, (self.x - mu) @ axes)
        assert np.allclose(anchor_tilde, (self.anchor - mu) @ axes)
        assert np.allclose(x_tilde.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(x_tilde.T @ x_tilde,
                           np.diag(svd(self.x - mu).s[:2] ** 2))

    def test_center_only_keeps_dominant_variance(self):
        x_tilde, _ = fit_intermediate(self.x, self.anchor, 1)
        total = ((self.x - self.x.mean(axis=0)) ** 2).sum()
        kept = (x_tilde ** 2).sum()
        assert kept / total > 0.5

    def test_private_map_not_in_share(self):
        assert {f.name for f in dataclasses.fields(UserShareMsg)} == {
            "party", "x_tilde", "anchor_tilde", "config"}


class TestBuildCollaboration:
    def test_default_common_dimension_is_min_width(self):
        rng = np.random.default_rng(3)
        anchor = rng.uniform(size=(25, 1))
        shares = [UserShareMsg(party=(0, 0), x_tilde=rng.normal(size=(10, 3)),
                               anchor_tilde=rng.normal(size=(25, 3))),
                  UserShareMsg(party=(1, 0), x_tilde=rng.normal(size=(12, 2)),
                               anchor_tilde=rng.normal(size=(25, 2)))]
        model = build_collaboration(shares)
        assert model.m_hat == 2
        assert model.x_hat.shape == (22, 2)
        assert model.row_sizes == [10, 12]

    def test_explicit_common_dimension(self):
        shares = equal_range_shares(2, 3, seed=4, with_offsets=False)
        model = build_collaboration(shares, m_hat=2)
        assert model.m_hat == 2 and model.x_hat.shape[1] == 2

    def test_common_dimension_bounds(self):
        shares = equal_range_shares(2, 2, seed=5, with_offsets=False)
        with pytest.raises(ConfigurationError):
            build_collaboration(shares, m_hat=3)

    def test_rank_deficient_anchor_clamps(self):
        rng = np.random.default_rng(6)
        col = rng.normal(size=(25, 1))
        shares = [UserShareMsg(party=(i, 0), x_tilde=rng.normal(size=(10, 2)),
                               anchor_tilde=np.hstack([col, col * (i + 2.0)]))
                  for i in range(2)]
        with pytest.warns(RuntimeWarning, match="clamped"):
            model = build_collaboration(shares, mode="linear")
        assert model.m_hat == 1 and model.m_hat_clamped

    def test_rank_zero_anchor_raises_without_a_clamp_warning(self):
        # a zero anchor image has rank 0 in linear mode: a configuration
        # error, not a clamp to 0 announced first
        rng = np.random.default_rng(6)
        shares = [UserShareMsg(party=(i, 0), x_tilde=rng.normal(size=(2, 2)),
                               anchor_tilde=np.zeros((2, 2)))
                  for i in range(2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="rank 0"):
                build_collaboration(shares, mode="linear")

    @pytest.mark.parametrize("mode", ["affine", "linear"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("c", [1, 2, 3, 5])
    def test_matches_reference_bit_for_bit(self, c, d, mode):
        shares = lattice_shares(c, d, seed=10 * c + d)
        model = build_collaboration(shares, mode=mode)
        assert_matches_reference(model, reference_alignment(shares, mode))

    @pytest.mark.parametrize("mode", ["affine", "linear"])
    def test_clamp_matches_reference_bit_for_bit(self, mode):
        # row block 1's images (widths 2 + 1) span one dimension, two with
        # the ones column
        shares = lattice_shares(3, 2, seed=8, deficient={(1, 0), (1, 1)})
        with pytest.warns(RuntimeWarning, match="clamped"):
            model = build_collaboration(shares, mode=mode, m_hat=3)
        reference = reference_alignment(shares, mode, 3)
        assert reference[1:3] == ((2 if mode == "affine" else 1), True)
        assert_matches_reference(model, reference)

    @pytest.mark.parametrize("mode", ["affine", "linear"])
    @pytest.mark.parametrize("r", [1, 2])
    def test_short_anchor_matches_reference_bit_for_bit(self, r, mode):
        # row-block widths 4 and 3 exceed the r anchor rows, so every rank
        # is at most r and the default common dimension clamps to r
        shares = lattice_shares(2, 2, seed=9, r=r)
        with pytest.warns(RuntimeWarning, match="clamped"):
            model = build_collaboration(shares, mode=mode)
        reference = reference_alignment(shares, mode)
        assert reference[1:3] == (r, True)
        assert_matches_reference(model, reference)

    def test_gram_ratio_just_below_the_bound_factors_the_design(
            self, monkeypatch):
        # two row blocks whose Gram blocks have eigenvalue ratio 0.99 and
        # 1.01 times GRAM_RTOL: the first fails the bound, so the alignment
        # takes the reference route, both designs are factored, and both
        # still match the plain pinv
        rng = np.random.default_rng(21)
        r = 80
        shares = []
        for i, ratio in enumerate((0.99, 1.01)):
            q = np.linalg.qr(rng.normal(size=(r, 2)))[0]
            turn = np.linalg.qr(rng.normal(size=(2, 2)))[0]
            s = np.sqrt([1.0, ratio * numerics.GRAM_RTOL])
            shares.append(UserShareMsg(party=(i, 0),
                                       x_tilde=rng.normal(size=(10, 2)),
                                       anchor_tilde=(q * s) @ turn))
        seen = pinv_inputs(monkeypatch)
        model = build_collaboration(shares, mode="linear")
        assert [shape for shape, _ in seen] == [(r, 2), (r, 2)]
        assert_matches_reference(model, reference_alignment(shares, "linear"))

    def test_stack_without_an_eigengap_takes_the_reference_route(
            self, monkeypatch):
        # one row block whose anchor image q * [1, 1] has two equal singular
        # values: its Gram block is well conditioned, but the stack has no
        # eigengap at m_hat = 1, so the design is factored and u1 comes
        # from svd
        rng = np.random.default_rng(23)
        q = np.linalg.qr(rng.normal(size=(40, 2)))[0]
        shares = [UserShareMsg(party=(0, 0), x_tilde=rng.normal(size=(10, 2)),
                               anchor_tilde=q * [1.0, 1.0])]
        assert numerics.well_conditioned_gram(q.T @ q)
        seen = pinv_inputs(monkeypatch)
        svds = []
        monkeypatch.setattr(numerics, "svd",
                            lambda a, k: svds.append(np.shape(a)) or svd(a, k))
        model = build_collaboration(shares, mode="linear", m_hat=1)
        assert [shape for shape, _ in seen] == [(40, 2)]
        assert svds == [(40, 2)]
        assert_matches_reference(model,
                                 reference_alignment(shares, "linear", 1))

    @pytest.mark.parametrize("mode", ["affine", "linear"])
    def test_deficient_block_keeps_its_singular_value_rank(self, monkeypatch,
                                                           mode):
        shares = lattice_shares(3, 2, seed=8, deficient={(1, 0), (1, 1)})
        seen = pinv_inputs(monkeypatch)
        with pytest.warns(RuntimeWarning, match="clamped"):
            model = build_collaboration(shares, mode=mode, m_hat=3)
        ones = [np.ones((60, 1))] if mode == "affine" else []
        design = np.hstack([s.anchor_tilde for s in shares[2:4]] + ones)
        rank = np.linalg.matrix_rank(design)
        assert seen[1] == (design.shape, rank)
        assert (model.m_hat, model.m_hat_clamped) == (rank, True)
        # one deficient design sends every design to be factored
        assert [shape[0] for shape, _ in seen] == [60, 60, 60]

    def test_rank_counted_where_the_gram_block_would_lose_it(self):
        # singular values 1 and 1e-10: pinv's cutoff on the design, about
        # 1e-14, keeps both, while the Gram block's 1e-20 is below its own
        # cutoff; the rank is the design's, so nothing clamps
        rng = np.random.default_rng(22)
        q = np.linalg.qr(rng.normal(size=(50, 2)))[0]
        shares = [UserShareMsg(party=(0, 0), x_tilde=rng.normal(size=(10, 2)),
                               anchor_tilde=q * [1.0, 1e-10]),
                  UserShareMsg(party=(1, 0), x_tilde=rng.normal(size=(10, 2)),
                               anchor_tilde=rng.normal(size=(50, 2)))]
        model = build_collaboration(shares, mode="linear")
        assert (model.m_hat, model.m_hat_clamped) == (2, False)

    @pytest.mark.parametrize("mode", ["affine", "linear"])
    def test_shares_whose_gram_overflows_align_without_warning(
            self, monkeypatch, mode):
        # anchor entries near 1e160 square past float64's range: no Gram
        # block is finite, so the alignment takes the reference route, each
        # design is factored, still one pinv per row block, and u1 comes
        # from the stack's svd
        shares = lattice_shares(2, 2, seed=3)
        big = [dataclasses.replace(s, x_tilde=s.x_tilde * 1e160,
                                   anchor_tilde=s.anchor_tilde * 1e160)
               for s in shares]
        seen = pinv_inputs(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = build_collaboration(big, mode=mode)
        assert [shape[0] for shape, _ in seen] == [60, 60]
        assert np.all(np.isfinite(model.x_hat))
        if mode == "linear":
            plain = build_collaboration(shares, mode=mode).x_hat
            assert (np.linalg.norm(model.x_hat - plain)
                    <= 1e-12 * np.linalg.norm(plain))

    @pytest.mark.parametrize("scale", [1e-150, 1e-155, 1e-157, 1e-160,
                                       1e-162, 1e-199])
    @pytest.mark.parametrize("c,d", [(1, 1), (2, 2), (3, 2)])
    def test_shares_whose_gram_is_subnormal_align_without_warning(
            self, c, d, scale):
        # anchor entries near 1e-157 give Gram blocks near 1e-310, below
        # GRAM_FLOOR: each design and the stack are factored themselves,
        # and in linear mode the maps absorb the scale, so x_hat is the
        # unscaled shares' within roundoff
        shares = lattice_shares(c, d, seed=3, r=30)
        small = [dataclasses.replace(s, x_tilde=s.x_tilde * scale,
                                     anchor_tilde=s.anchor_tilde * scale)
                 for s in shares]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = build_collaboration(small, mode="linear")
        plain = build_collaboration(shares, mode="linear").x_hat
        assert (np.linalg.norm(model.x_hat - plain)
                <= 1e-14 * np.linalg.norm(plain))

    @pytest.mark.parametrize("mode", ["affine", "linear"])
    @pytest.mark.parametrize("route", ["gram", "factored"])
    def test_x_hat_is_each_row_blocks_map_applied(self, monkeypatch, route,
                                                  mode):
        # row block i's rows of x_hat are x_tilde_i @ g[:w] + g[w], the
        # offset g's last row, bit for bit (x_tilde_i @ g in linear mode).
        # Blobs shares take the Gram route; a major feature in units 100
        # times smaller sends them to the factored one
        ds = make_blobs(3, 200, rng_seed=0)
        if route == "factored":
            ds.features[:, 0] *= 100.0
        part = partition_lattice(ds, 2, 2, "iid-random", rng_seed=1)
        anchor = generate_anchor(feature_bounds(ds.features), 600, rng_seed=2)
        cfg = SessionConfig(c=2, d=2, k=3)
        blocks, anchor_blocks = _session_inputs(ds.features, part, anchor, cfg)
        shares = [user_step(p, blocks[p], anchor_blocks[p[1]], cfg)
                  for p in sorted(blocks)]
        factored, original = [], collaboration.svd_left_vectors
        monkeypatch.setattr(collaboration, "svd_left_vectors",
                            lambda *a: factored.append(a) or original(*a))
        model = build_collaboration(shares, mode=mode)
        assert bool(factored) == (route == "factored")
        ends = np.cumsum(model.row_sizes)
        for i, g in enumerate(model.g_maps):
            x = np.hstack([s.x_tilde for s in shares if s.party[0] == i])
            w = x.shape[1]
            expected = x @ g[:w] + g[w] if mode == "affine" else x @ g
            assert g.shape == (w + (mode == "affine"), model.m_hat)
            assert np.array_equal(model.x_hat[ends[i] - len(x):ends[i]],
                                  expected)

    def test_bad_mode(self):
        shares = equal_range_shares(2, 2, seed=7, with_offsets=False)
        with pytest.raises(ConfigurationError):
            build_collaboration(shares, mode="projective")


class TestAnchorBlocks:
    """The alignment walks the anchor ANCHOR_BLOCK_ROWS rows at a time.  With
    blocks of 7 rows, so that 60 anchor rows take 9 blocks, the last one
    short, every case still matches the reference within ALIGN_RTOL."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(collaboration, "ANCHOR_BLOCK_ROWS", 7)

    @pytest.mark.parametrize("mode", ["affine", "linear"])
    @pytest.mark.parametrize("c,d", [(1, 1), (2, 2), (3, 2), (5, 3)])
    def test_matches_reference(self, c, d, mode):
        shares = lattice_shares(c, d, seed=10 * c + d)
        model = build_collaboration(shares, mode=mode)
        assert_matches_reference(model, reference_alignment(shares, mode))

    @pytest.mark.parametrize("mode", ["affine", "linear"])
    def test_rank_deficient_row_block(self, monkeypatch, mode):
        # row block 1 is deficient, so the alignment takes the reference
        # route: every design is factored and u1 comes from one svd of the
        # stack
        shares = lattice_shares(3, 2, seed=8, deficient={(1, 0), (1, 1)})
        seen = pinv_inputs(monkeypatch)
        svds = []
        monkeypatch.setattr(numerics, "svd",
                            lambda *a, **k: svds.append(a) or svd(*a, **k))
        with pytest.warns(RuntimeWarning, match="clamped"):
            model = build_collaboration(shares, mode=mode, m_hat=3)
        assert [shape[0] for shape, _ in seen] == [60, 60, 60]
        assert [args[0].shape[0] for args in svds] == [60]
        assert_matches_reference(model, reference_alignment(shares, mode, 3))

    @pytest.mark.parametrize("mode", ["affine", "linear"])
    def test_gram_overflow(self, monkeypatch, mode):
        # no Gram block is finite: the stack is copied once, each design's
        # columns of it and then the whole copy are factored, and the
        # residual takes its own walk
        shares = [dataclasses.replace(s, x_tilde=s.x_tilde * 1e160,
                                      anchor_tilde=s.anchor_tilde * 1e160)
                  for s in lattice_shares(3, 2, seed=3)]
        seen = pinv_inputs(monkeypatch)
        svds = []
        monkeypatch.setattr(numerics, "svd",
                            lambda a, k: svds.append(np.shape(a)) or svd(a, k))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = build_collaboration(shares, mode=mode)
        assert [shape[0] for shape, _ in seen] == [60, 60, 60]
        assert [shape[0] for shape in svds] == [60]
        assert_matches_reference(model, reference_alignment(shares, mode))


@pytest.mark.parametrize("deficient", [False, True], ids=["walk-2", "walk-3"])
@pytest.mark.parametrize("mode", ["affine", "linear"])
@pytest.mark.parametrize("c", [1, 2, 5])
def test_residual_is_that_of_the_whole_images(monkeypatch, c, mode, deficient):
    """Summed over blocks of 7 anchor rows, the walk's residual is the
    largest norm of a difference of two row blocks' whole anchor images,
    D_i @ coeffs[i], over the largest image's norm, within 1e-14 relative,
    and 0 with one row block.  Either route takes one walk with every map:
    the Gram route's also makes u1's rows, and a deficient last row block
    sends the alignment to the reference route, whose walk makes only the
    residual."""
    monkeypatch.setattr(collaboration, "ANCHOR_BLOCK_ROWS", 7)
    seen, walk = [], collaboration._walk_anchor
    monkeypatch.setattr(collaboration, "_walk_anchor",
                        lambda parts, r, lead, blocks, coeffs:
                        seen.append((lead, coeffs)) or walk(parts, r, lead,
                                                            blocks, coeffs))
    shares = lattice_shares(c, 2, seed=c + 7 * deficient,
                            deficient={(c - 1, 0), (c - 1, 1)} if deficient
                            else ())
    if deficient:
        with pytest.warns(RuntimeWarning, match="clamped"):
            model = build_collaboration(shares, mode=mode)
    else:
        model = build_collaboration(shares, mode=mode)
    assert [lead is None for lead, _ in seen] == [deficient]
    ones = [np.ones((60, 1))] if mode == "affine" else []
    images = [np.hstack([s.anchor_tilde for s in shares if s.party[0] == i]
                        + ones) @ coeff for i, coeff in enumerate(seen[0][1])]
    gap = max((np.linalg.norm(a - b)
               for a, b in itertools.combinations(images, 2)), default=0.0)
    direct = gap / max(np.linalg.norm(image) for image in images)
    assert abs(model.residual - direct) <= 1e-14 * direct
    assert (model.residual == 0.0) == (c == 1)


def test_share_layout_does_not_change_a_bit():
    shares = lattice_shares(3, 2, seed=6)
    fortran = [dataclasses.replace(s, x_tilde=np.asfortranarray(s.x_tilde),
                                   anchor_tilde=np.asfortranarray(s.anchor_tilde))
               for s in shares]
    a, b = build_collaboration(shares), build_collaboration(fortran)
    assert np.array_equal(a.x_hat, b.x_hat) and a.residual == b.residual


def test_alignment_holds_no_copy_of_the_anchor_images():
    """Walked in blocks of ANCHOR_BLOCK_ROWS anchor rows, 50 000 rows here,
    the alignment's allocations peak below the bytes of the shares' own
    anchor images, which one stacked copy of them would already pass."""
    shares = lattice_shares(2, 2, seed=5, r=50_000)
    assert collaboration.ANCHOR_BLOCK_ROWS < 50_000
    anchor_bytes = sum(s.anchor_tilde.nbytes for s in shares)
    tracemalloc.start()
    try:
        build_collaboration(shares, m_hat=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < anchor_bytes


def test_the_call_counts_the_benchmark_pins(monkeypatch):
    """One pinv per row block and, on a tall well-conditioned anchor stack,
    no svd in the alignment; one sqdist per Lloyd pass of a batch of k-means
    restarts, and one per assign_nearest call."""
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((collaboration, "pinv"), (collaboration, "svd"),
                         (numerics, "svd"), (clustering, "sqdist")):
        count(module, name)
    shares = lattice_shares(3, 2, seed=4, r=200)
    model = build_collaboration(shares)
    assert (calls["pinv"], calls["svd"]) == (3, 0)
    # a deficient row block sends the alignment to the reference route:
    # still one pinv per row block, each of its design, and one svd for u1
    calls.clear()
    seen = pinv_inputs(monkeypatch)
    with pytest.warns(RuntimeWarning, match="clamped"):
        build_collaboration(lattice_shares(3, 2, seed=4, r=200,
                                           deficient={(1, 0), (1, 1)}))
    assert [shape[0] for shape, _ in seen] == [200, 200, 200]
    assert (calls["pinv"], calls["svd"]) == (3, 1)
    calls.clear()
    fit = kmeans(model.x_hat, 3, rng_seed=0, restarts=1)
    assert calls["sqdist"] == fit.n_iter > 1
    # three restarts run in one batch, one sqdist per pass until the
    # slowest restart leaves it, not only the winner's passes
    batches = []
    lloyd = clustering._lloyd_batch

    def recorded(*args, **kwargs):
        models = lloyd(*args, **kwargs)
        batches.append([model.n_iter for model in models])
        return models

    monkeypatch.setattr(clustering, "_lloyd_batch", recorded)
    calls.clear()
    kmeans(model.x_hat, 3, rng_seed=0, restarts=3)
    assert len(batches) == 1 and len(batches[0]) == 3
    assert calls["sqdist"] == max(batches[0]) > 1
    calls.clear()
    assign_nearest(model.x_hat, fit.centroids)
    assert calls["sqdist"] == 1


class TestAlignmentTheory:
    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_equal_range_affine_alignment_is_exact(self, c):
        for seed in range(5):
            shares = equal_range_shares(c, 3, seed=seed, with_offsets=True)
            model = build_collaboration(shares, mode="affine")
            images = aligned_anchor_images(shares, model)
            for img in images[1:]:
                assert np.abs(img - images[0]).max() < 1e-8
            assert model.residual < 1e-8

    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_equal_range_linear_alignment_without_offsets(self, c):
        shares = equal_range_shares(c, 2, seed=11, with_offsets=False)
        model = build_collaboration(shares, mode="linear")
        assert model.residual < 1e-8

    def test_affine_beats_linear_under_offsets(self):
        for seed in range(10):
            shares = equal_range_shares(3, 2, seed=seed, with_offsets=True)
            affine = build_collaboration(shares, mode="affine")
            linear = build_collaboration(shares, mode="linear")
            assert affine.residual < linear.residual

    def test_residual_improves_and_saturates_at_latent_rank(self):
        # shared rank-3 structure, anchor inside the shared span: more
        # intermediate dimensions help until the rank, then alignment is exact
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n, m, rank = 100, 6, 3
            mix = rng.normal(size=(rank, m))
            x = rng.normal(size=(n, rank)) @ mix
            anchor = rng.uniform(-2, 2, size=(50, rank)) @ mix
            rows = np.array_split(np.arange(n), 2)
            resid = {}
            for dim in (1, rank):
                shares = []
                for i, idx in enumerate(rows):
                    x_tilde, anchor_tilde = fit_intermediate(
                        x[idx], anchor, dim)
                    shares.append(UserShareMsg(party=(i, 0), x_tilde=x_tilde,
                                               anchor_tilde=anchor_tilde))
                resid[dim] = build_collaboration(shares, mode="affine").residual
            assert resid[rank] <= resid[1] + 1e-12
            assert resid[rank] < 1e-8


class TestAnalystAndUsers:
    def test_representation_kinds(self):
        shares = equal_range_shares(2, 3, seed=8, with_offsets=True)
        model = build_collaboration(shares)
        z_km = make_clustering_representation(model, "kmeans", 3)
        assert z_km is model.x_hat
        z_sc = make_clustering_representation(model, "spectral", 3, neighbors=5)
        assert z_sc.shape == (model.x_hat.shape[0], 3)
        assert np.allclose(np.linalg.norm(z_sc, axis=0), 1, atol=1e-8)

    def test_row_split_and_recovery(self):
        rng = np.random.default_rng(9)
        z = np.vstack([rng.normal(0, 0.2, (12, 2)),
                       rng.normal(8, 0.2, (10, 2))])
        model, z_blocks = analyst_cluster(z, 2, [12, 10], max_iter=300,
                                          rng_seed=0, restarts=10)
        assert [b.shape[0] for b in z_blocks] == [12, 10]
        joined = np.concatenate([assign_nearest(b, model.centroids)
                                 for b in z_blocks])
        assert np.array_equal(joined, model.labels)

    def test_row_sizes_must_sum(self, monkeypatch):
        # checked before k-means runs on rows that cannot be split
        def refuse(*args, **kwargs):
            raise AssertionError("kmeans ran on a split that cannot hold")

        monkeypatch.setattr(collaboration, "kmeans", refuse)
        with pytest.raises(ConfigurationError, match="do not sum"):
            analyst_cluster(np.zeros((5, 2)), 1, [2, 2], max_iter=300,
                            rng_seed=0, restarts=10)

    def test_user_step_builds_the_whole_share(self):
        cfg = SessionConfig(c=2, d=3, k=2)
        rng = np.random.default_rng(13)
        share = user_step((1, 2), rng.normal(size=(10, 4)),
                          rng.normal(size=(6, 4)), cfg)
        assert share.party == (1, 2)
        assert share.config == cfg.echo()
        assert share.x_tilde.shape == (10, 3)
        assert share.anchor_tilde.shape == (6, 3)

    def test_analyst_step_answers_each_row_block(self):
        shares = equal_range_shares(2, 2, seed=8, with_offsets=True)
        cfg = SessionConfig(c=2, d=1, k=2, m_hat=2)
        report, results = analyst_step(shares, cfg)
        assert [r.row_block for r in results] == [0, 1]
        assert [r.z_block.shape[0] for r in results] == report.model.row_sizes
        # one clustering answers every block: the same k centroids in z's space
        assert results[0].centroids.shape == (2, results[0].z_block.shape[1])
        assert all(np.array_equal(r.centroids, results[0].centroids)
                   for r in results)
        # the analyst's labels are those its institutions recover
        assert np.array_equal(report.labels, np.concatenate(
            [assign_nearest(r.z_block, r.centroids) for r in results]))

    def test_user_step_fits_the_centre_only_map(self):
        # a share is the reference's centre-only fit one dimension below
        # the block width, bit for bit
        cfg = SessionConfig(c=1, d=1, k=2)
        rng = np.random.default_rng(14)
        block = rng.normal(size=(10, 4)) * [5, 1, 0.2, 3] + 7
        anchor = rng.normal(size=(6, 4))
        share = user_step((0, 0), block, anchor, cfg)
        x_tilde, anchor_tilde = reference_fit(block, anchor, 3)
        assert np.array_equal(share.x_tilde, x_tilde)
        assert np.array_equal(share.anchor_tilde, anchor_tilde)

    def test_analyst_step_aligns_in_affine_mode(self):
        # institutions with their own shifts: the analyst's x_hat is affine
        # mode's, bit for bit, and not linear mode's
        shares = equal_range_shares(2, 2, seed=8, with_offsets=True)
        cfg = SessionConfig(c=2, d=1, k=2, m_hat=2)
        report = analyst_step(shares, cfg)[0]
        affine = build_collaboration(shares, m_hat=2, mode="affine")
        linear = build_collaboration(shares, m_hat=2, mode="linear")
        assert np.array_equal(report.model.x_hat, affine.x_hat)
        assert report.model.residual == affine.residual
        assert not np.allclose(report.model.x_hat, linear.x_hat)

    def test_analyst_result_carries_no_private_fields(self):
        assert {f.name for f in dataclasses.fields(AnalystResultMsg)} == {
            "row_block", "centroids", "z_block"}


class TestTargetDim:
    cfg = SessionConfig(c=1, d=1, k=2)

    def test_default_is_one_below_width(self):
        rng = np.random.default_rng(12)
        share = user_step((0, 0), rng.normal(size=(10, 4)),
                          rng.normal(size=(6, 4)), self.cfg)
        assert share.x_tilde.shape[1] == 3

    def test_single_feature_block_rejected(self):
        with pytest.raises(ConfigurationError):
            user_step((0, 0), np.ones((10, 1)), np.ones((6, 1)), self.cfg)


class TestEndToEnd:
    def test_pipeline_recovers_blob_clusters(self):
        ds = make_blobs(3, 120, rng_seed=1)
        part = partition_lattice(ds, 2, 2, "iid-random", rng_seed=2,
                                 col_index_sets=[[0, 2, 3], [1, 4, 5]])
        anchor = generate_anchor(feature_bounds(ds.features), 360, rng_seed=3)
        report = run_dc_clustering(
            ds.features, part, anchor,
            SessionConfig(c=2, d=2, k=3, master_seed=4, m_hat=2))
        y = ds.labels[part.row_order()]
        assert ari(y, report.labels) > 0.99
        assert report.model.row_sizes == [len(r) for r in part.row_index_sets]
        assert report.labels.size == sum(report.model.row_sizes)

    def test_single_party_matches_centralized_quality(self):
        ds = make_blobs(3, 100, rng_seed=5)
        part = partition_lattice(ds, 1, 1, "contiguous")
        anchor = generate_anchor(feature_bounds(ds.features), 300, rng_seed=6)
        report = run_dc_clustering(ds.features, part, anchor,
                                   SessionConfig(c=1, d=1, k=3, master_seed=7))
        assert ari(ds.labels[part.row_order()], report.labels) > 0.99

    def test_reduction_enforced_everywhere(self):
        ds = make_blobs(3, 80, rng_seed=8)
        part = partition_lattice(ds, 2, 2, "iid-random", rng_seed=9)
        anchor = generate_anchor(feature_bounds(ds.features), 240, rng_seed=10)
        report = run_dc_clustering(ds.features, part, anchor,
                                   SessionConfig(c=2, d=2, k=3, master_seed=11))
        # every map's rows but the offset, one per intermediate column
        for g in report.model.g_maps:
            assert g.shape[0] - 1 < ds.features.shape[1]


# ---------------------------------------------------------------------------
# library contract refusals
# ---------------------------------------------------------------------------

BLOBS = make_blobs(3, 5, rng_seed=0)        # 15 rows of 6 features
ROWS = np.random.default_rng(0).normal(size=(6, 3))

# Each call breaks one contract of a library function that no session,
# config or workload reaches; each refusal names what it refused.
REFUSALS = {
    "kmeans-max-iter": (lambda: kmeans(ROWS, 2, max_iter=0),
                        ContractViolationError, "max_iter must be positive"),
    "kmeans-restarts": (lambda: kmeans(ROWS, 2, restarts=0),
                        ContractViolationError, "restarts must be positive"),
    "spectral-k-zero": (lambda: clustering.spectral_embedding(ROWS, 0),
                        ContractViolationError, r"k must be in \[1, 6\], got 0"),
    "spectral-k-above": (lambda: clustering.spectral_embedding(ROWS, 7),
                         ContractViolationError, r"k must be in \[1, 6\], got 7"),
    "svd-top-k-zero": (lambda: svd(ROWS, top_k=0),
                       ContractViolationError, r"top_k must be in \[1, 3\]"),
    "svd-top-k-above": (lambda: svd(ROWS, top_k=4),
                        ContractViolationError, r"top_k must be in \[1, 3\]"),
    "fit-one-row": (lambda: fit_intermediate(ROWS[:1], ROWS, 2),
                    ContractViolationError, "fit needs at least 2 rows"),
    "unknown-algorithm": (lambda: make_clustering_representation(
                              None, "dbscan", 2),
                          ConfigurationError, "algorithm must be one of"),
    "unknown-assignment": (lambda: partition_lattice(BLOBS, 1, 1, "striped"),
                           ConfigurationError, "assignment must be one of .*, "
                                               "got 'striped'"),
    "col-sets-count": (lambda: partition_lattice(
                           BLOBS, 1, 2, "contiguous", col_index_sets=[range(6)]),
                       ConfigurationError, "expected d = 2 column sets, got 1"),
    "col-sets-repeat": (lambda: partition_lattice(
                            BLOBS, 1, 2, "contiguous",
                            col_index_sets=[[0, 1, 2], [2, 3, 4, 5]]),
                        ConfigurationError, r"name features \[2\] below 0 "
                                            "or more than once"),
    "col-sets-negative": (lambda: partition_lattice(
                              BLOBS, 1, 2, "contiguous",
                              col_index_sets=[[0, 1, -2], [3, 4, 5]]),
                          ConfigurationError, r"name features \[-2\] below 0 "
                                              "or more than once"),
    "empty-row-block": (lambda: partition_lattice(
                            BLOBS, 2, 1, "by-cluster-map",
                            cluster_map={0: 0, 1: 0, 2: 0}),
                        ConfigurationError, "row block 1 is empty"),
    "empty-col-block": (lambda: partition_lattice(
                            BLOBS, 1, 2, "contiguous",
                            col_index_sets=[range(6), []]),
                        ConfigurationError, "column block 1 is empty"),
    "no-cluster-map": (lambda: partition_lattice(BLOBS, 1, 1, "by-cluster-map"),
                       ConfigurationError, "needs cluster_map"),
    "cluster-map-block": (lambda: partition_lattice(
                              BLOBS, 2, 1, "by-cluster-map",
                              cluster_map={0: 0, 1: 5, 2: 1}),
                          ConfigurationError, "cluster_map sends cluster 1 "
                                              "outside row blocks 0 to 1"),
    "unread-cluster-map": (lambda: partition_lattice(
                               make_blobs(3, 10), 2, 2, "iid-random",
                               cluster_map={0: 0, 1: 0, 2: 0}),
                           ConfigurationError, "cluster_map is read only by "
                           "assignment = by-cluster-map, not iid-random"),
    "blobs-count": (lambda: make_blobs(0, 5), ConfigurationError,
                    "k and per_cluster must be positive"),
    "blobs-centers": (lambda: make_blobs(8, 1), ConfigurationError,
                      "could not place 8 centers"),
    "circles-rings": (lambda: make_circles(1, 5), ConfigurationError,
                      "need at least 2 rings"),
    "circles-noise": (lambda: make_circles(2, 5, noise_std=-0.1),
                      ConfigurationError, "noise_std must be nonnegative"),
    "bounds-no-rows": (lambda: feature_bounds(np.zeros((0, 3))),
                       ContractViolationError, "bounds need at least one row"),
    "anchor-bound-lengths": (lambda: generate_anchor((np.zeros(2), np.ones(3)),
                                                     5),
                             ContractViolationError,
                             "bounds must be two equal-length vectors"),
    "anchor-bound-order": (lambda: generate_anchor((np.ones(2), np.zeros(2)),
                                                   5),
                           ContractViolationError, "max bound below min bound"),
    "anchor-no-rows": (lambda: generate_anchor((np.zeros(2), np.ones(2)), 0),
                       ContractViolationError, "anchor needs at least one row"),
}


@pytest.mark.parametrize("call, error, match", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_library_contract_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()
