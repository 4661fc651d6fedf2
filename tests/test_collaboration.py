import dataclasses

import numpy as np
import pytest

from dccluster.clustering import assign_nearest
from dccluster.collaboration import (AffineMap, UserShareMsg, fit_intermediate,
                                     build_collaboration,
                                     make_clustering_representation,
                                     analyst_cluster)
from dccluster.data import (make_blobs, partition_lattice, feature_bounds,
                            generate_anchor)
from dccluster.errors import ConfigurationError, ContractViolationError
from dccluster.federation import SessionConfig, run_dc_clustering, user_step
from dccluster.metrics import ari


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
    rows = {}
    for s in shares:
        rows.setdefault(s.party[0], []).append(s.anchor_tilde)
    out = []
    for i in sorted(rows):
        block = np.hstack(rows[i])
        out.append(model.g_maps[i].apply(block))
    return out


class TestFitIntermediate:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(30, 5)) * [3, 2, 1, 0.5, 0.1]
        self.anchor = rng.uniform(-4, 4, size=(20, 5))

    def test_share_shapes(self):
        f, share = fit_intermediate(self.x, self.anchor, 3, party=(1, 2))
        assert share.x_tilde.shape == (30, 3)
        assert share.anchor_tilde.shape == (20, 3)
        assert share.party == (1, 2)

    def test_same_fitted_map_for_anchor(self):
        f, share = fit_intermediate(self.x, self.anchor, 2)
        assert np.allclose(f.apply(self.x), share.x_tilde)
        assert np.allclose(f.apply(self.anchor), share.anchor_tilde)

    def test_must_reduce_dimension(self):
        with pytest.raises(ContractViolationError):
            fit_intermediate(self.x, self.anchor, 5)
        with pytest.raises(ContractViolationError):
            fit_intermediate(self.x, self.anchor, 0)

    def test_anchor_width_must_match(self):
        with pytest.raises(ContractViolationError):
            fit_intermediate(self.x, self.anchor[:, :4], 2)

    def test_scaled_variant_standardizes(self):
        _, share = fit_intermediate(self.x, self.anchor, 4, scale=True)
        # projected through unit-variance axes: coordinates stay O(1)
        assert share.x_tilde.std(axis=0).max() < 3

    def test_center_only_variant(self):
        f, share = fit_intermediate(self.x, self.anchor, 2, scale=False)
        mu = self.x.mean(axis=0)
        # the map subtracts the block mean, then projects orthonormally
        assert np.allclose(f.pre_offset, mu)
        assert np.allclose(f.linear.T @ f.linear, np.eye(2), atol=1e-10)
        proj = (self.x - mu) @ f.linear
        assert np.allclose(proj, share.x_tilde)

    def test_center_only_keeps_dominant_variance(self):
        _, share = fit_intermediate(self.x, self.anchor, 1, scale=False)
        total = ((self.x - self.x.mean(axis=0)) ** 2).sum()
        kept = (share.x_tilde ** 2).sum()
        assert kept / total > 0.5

    def test_private_map_not_in_share(self):
        assert {f.name for f in dataclasses.fields(UserShareMsg)} == {
            "party", "x_tilde", "anchor_tilde", "config"}


class TestBuildCollaboration:
    def test_requires_full_lattice(self):
        shares = equal_range_shares(3, 2, seed=1, with_offsets=False)
        # parties (0,0) and (2,0) imply a 3-row lattice with row 1 missing
        with pytest.raises(ConfigurationError):
            build_collaboration([shares[0], shares[2]])
        dup = [shares[0], shares[0]]
        with pytest.raises(ConfigurationError):
            build_collaboration(dup)

    def test_anchor_row_mismatch(self):
        shares = equal_range_shares(2, 2, seed=2, with_offsets=False)
        bad = UserShareMsg(party=(1, 0), x_tilde=shares[1].x_tilde,
                           anchor_tilde=shares[1].anchor_tilde[:-1])
        with pytest.raises(ConfigurationError):
            build_collaboration([shares[0], bad])

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

    def test_bad_mode(self):
        shares = equal_range_shares(2, 2, seed=7, with_offsets=False)
        with pytest.raises(ConfigurationError):
            build_collaboration(shares, mode="projective")


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
                    _, s = fit_intermediate(x[idx], anchor, dim,
                                            party=(i, 0), scale=False)
                    shares.append(s)
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
        model, results = analyst_cluster(z, 2, rng_seed=0, row_sizes=[12, 10])
        assert [r.row_block for r in results] == [0, 1]
        joined = np.concatenate([assign_nearest(r.z_block, r.centroids)
                                 for r in results])
        assert np.array_equal(joined, model.labels)

    def test_row_sizes_must_sum(self):
        z = np.zeros((5, 2))
        with pytest.raises(ConfigurationError):
            analyst_cluster(z, 1, row_sizes=[2, 2])

    def test_analyst_result_carries_no_private_fields(self):
        from dccluster.collaboration import AnalystResultMsg
        assert {f.name for f in dataclasses.fields(AnalystResultMsg)} == {
            "row_block", "centroids", "z_block", "algorithm", "config"}


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
        labels, per_block, model = run_dc_clustering(
            ds.features, part, anchor,
            SessionConfig(c=2, d=2, k=3, master_seed=4, m_hat=2))
        y = ds.labels[part.row_order()]
        assert ari(y, labels) > 0.99
        assert [len(b) for b in per_block] == model.row_sizes

    def test_single_party_matches_centralized_quality(self):
        ds = make_blobs(3, 100, rng_seed=5)
        part = partition_lattice(ds, 1, 1, "contiguous")
        anchor = generate_anchor(feature_bounds(ds.features), 300, rng_seed=6)
        labels, _, _ = run_dc_clustering(ds.features, part, anchor,
                                         SessionConfig(c=1, d=1, k=3,
                                                       master_seed=7))
        assert ari(ds.labels[part.row_order()], labels) > 0.99

    def test_reduction_enforced_everywhere(self):
        ds = make_blobs(3, 80, rng_seed=8)
        part = partition_lattice(ds, 2, 2, "iid-random", rng_seed=9)
        anchor = generate_anchor(feature_bounds(ds.features), 240, rng_seed=10)
        _, _, model = run_dc_clustering(ds.features, part, anchor,
                                        SessionConfig(c=2, d=2, k=3,
                                                      master_seed=11))
        for g in model.g_maps:
            assert g.in_dim < ds.features.shape[1]
