"""Oracles that hold whatever the roundoff: properties of alignment, k-means
and the spectral embedding that a correct implementation satisfies to
within a tolerance, so a change that moves bits honestly can be checked
without a reference copy of the old code."""
import dataclasses

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from dccluster.clustering import (assign_nearest, build_affinity, kmeans,
                                  laplacian_sym, spectral_embedding)
from dccluster.data import (feature_bounds, generate_anchor, make_blobs,
                            partition_lattice)
from dccluster.federation import (SessionConfig, UserShareMsg, analyst_report,
                                  analyst_step, user_step, _session_inputs)


def lattice_shares(c, d, seed):
    """The shares of a c-by-d lattice over 3 blobs, 12·c + 24 rows."""
    ds = make_blobs(k=3, per_cluster=4 * c + 8, rng_seed=seed)
    part = partition_lattice(ds, c=c, d=d, assignment="iid-random",
                             rng_seed=seed + 1)
    anchor = generate_anchor(feature_bounds(ds.features), r=40,
                             rng_seed=seed + 2)
    cfg = SessionConfig(c=c, d=d, k=3, master_seed=seed, timeout=1.0)
    blocks, anchor_blocks = _session_inputs(ds.features, part, anchor)
    return [user_step(p, blocks[p], anchor_blocks[p[1]], cfg)
            for p in sorted(blocks)], cfg


def rotated(share, rng):
    """The share with x_tilde and anchor_tilde turned by one random
    orthogonal matrix."""
    q, _ = np.linalg.qr(rng.normal(size=(share.x_tilde.shape[1],) * 2))
    return UserShareMsg(party=share.party, x_tilde=share.x_tilde @ q,
                        anchor_tilde=share.anchor_tilde @ q,
                        config=share.config)


def relative(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("mode", ["affine", "linear"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("c", [1, 2, 3, 5])
def test_alignment_is_blind_to_each_partys_rotation(c, d, mode):
    # u1 spans the stacked anchor images' column space, which a rotation of
    # each party's columns leaves as it is; so do the least-squares maps
    # onto it, and with them x_hat
    shares, cfg = lattice_shares(c, d, seed=10 * c + d)
    cfg = dataclasses.replace(cfg, mode=mode)
    rng = np.random.default_rng(c * d)
    plain = analyst_report(*analyst_step(shares, cfg))
    turned = analyst_report(*analyst_step([rotated(s, rng) for s in shares],
                                          cfg))
    assert relative(turned.model.x_hat, plain.model.x_hat) <= 1e-12
    assert np.array_equal(turned.labels, plain.labels)


@pytest.mark.parametrize("seed", range(20))
def test_converged_kmeans_is_a_fixed_point(seed):
    rng = np.random.default_rng(seed)
    k = 2 + seed % 4
    x = rng.normal(size=(60, 3)) + rng.integers(-4, 5, size=(60, 1))
    model = kmeans(x, k, rng_seed=seed, restarts=2)
    assert model.converged
    # every label is its row's nearest centroid
    assert np.array_equal(model.labels, assign_nearest(x, model.centroids))
    # every non-empty centroid is its members' mean
    for c in np.unique(model.labels):
        mean = x[model.labels == c].mean(axis=0)
        assert relative(model.centroids[c], mean) <= 1e-12
    # the inertia reported is that of the returned pair
    inertia = np.sum((x - model.centroids[model.labels]) ** 2)
    assert abs(model.inertia - inertia) <= 1e-12 * inertia


@pytest.mark.parametrize("seed", range(6))
def test_spectral_embedding_solves_the_laplacian(seed):
    # groups far apart give a graph of several components, whose count the
    # null space of the normalized Laplacian must match
    rng = np.random.default_rng(seed)
    groups = 2 + seed % 3
    x = np.vstack([rng.normal(size=(15, 2)) + 50.0 * g
                   for g in range(groups)])
    k = groups + 2
    w = build_affinity(x, 4)
    components, member = connected_components(w, directed=False)
    lap = laplacian_sym(w)
    dense = np.linalg.eigvalsh(lap.toarray())
    assert np.sum(dense < 1e-10) == components

    emb = spectral_embedding(x, k, neighbors=4)
    assert emb.components == components
    assert np.sum(emb.eigenvalues == 0.0) == min(k, components)
    assert np.allclose(emb.eigenvalues, dense[:k], rtol=0, atol=1e-8)
    indicators = np.zeros((x.shape[0], components))
    indicators[np.arange(x.shape[0]), member] = np.sqrt(w.sum(axis=1))
    indicators /= np.linalg.norm(indicators, axis=0)
    for v, value in zip(emb.vectors.T, emb.eigenvalues):
        assert np.linalg.norm(lap @ v - value * v) <= 1e-8
        if value > 0:
            assert np.abs(indicators.T @ v).max() <= 1e-8
