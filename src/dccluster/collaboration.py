"""Collaborative representation learning over a lattice partition.

Each institution reduces its block with a privately fitted affine map
(standardization followed by principal axes, strictly fewer output than
input dimensions) and shares only the transformed block plus the transformed
anchor.  The analyst aligns the per-row-block representations by factoring
the stacked anchor images: the leading left singular vectors give a common
target, and each row block gets the least-squares (affine or linear) map of
its anchor image onto that target.  Applying those maps to the data blocks
yields one coherent matrix the analyst can cluster centrally.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .clustering import kmeans, spectral_embedding
from .errors import ConfigurationError, ContractViolationError, ProtocolError
from .numerics import as_matrix, pinv, standardize, svd


@dataclass
class AffineMap:
    """x -> (x - pre_offset) @ linear + post_offset."""

    pre_offset: np.ndarray
    linear: np.ndarray
    post_offset: np.ndarray

    def apply(self, x) -> np.ndarray:
        x = as_matrix(x)
        if x.shape[1] != self.linear.shape[0]:
            raise ContractViolationError(
                f"map expects {self.linear.shape[0]} columns, got {x.shape[1]}")
        return (x - self.pre_offset) @ self.linear + self.post_offset

    @property
    def in_dim(self) -> int:
        return self.linear.shape[0]

    @property
    def out_dim(self) -> int:
        return self.linear.shape[1]


@dataclass
class UserShareMsg:
    """Everything an institution reveals: its party id, two transformed
    matrices and the echo of its session config.  Raw features, means,
    scales, and axes stay local by construction; no field can carry them."""

    party: tuple[int, int]
    x_tilde: np.ndarray
    anchor_tilde: np.ndarray
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        self.party = (int(self.party[0]), int(self.party[1]))
        if self.party[0] < 0 or self.party[1] < 0:
            raise ProtocolError(f"party indices must be nonnegative: {self.party}")
        self.x_tilde = as_matrix(self.x_tilde, "x_tilde")
        self.anchor_tilde = as_matrix(self.anchor_tilde, "anchor_tilde")
        if self.x_tilde.shape[1] != self.anchor_tilde.shape[1]:
            raise ProtocolError("x_tilde and anchor_tilde widths differ")

    def __eq__(self, other):
        return (isinstance(other, UserShareMsg) and self.party == other.party
                and np.array_equal(self.x_tilde, other.x_tilde)
                and np.array_equal(self.anchor_tilde, other.anchor_tilde)
                and self.config == other.config)


@dataclass
class CollaborationModel:
    mode: str
    m_hat: int
    g_maps: list[AffineMap]
    x_hat: np.ndarray
    row_sizes: list[int]
    residual: float
    m_hat_clamped: bool = False


@dataclass
class AnalystResultMsg:
    """Per-row-block payload the analyst returns to its institutions."""

    row_block: int
    centroids: np.ndarray
    z_block: np.ndarray
    algorithm: str = "kmeans"
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        self.row_block = int(self.row_block)
        self.centroids = as_matrix(self.centroids, "centroids")
        self.z_block = as_matrix(self.z_block, "z_block")

    def __eq__(self, other):
        return (isinstance(other, AnalystResultMsg)
                and self.row_block == other.row_block
                and np.array_equal(self.centroids, other.centroids)
                and np.array_equal(self.z_block, other.z_block)
                and self.algorithm == other.algorithm
                and self.config == other.config)


def fit_intermediate(x_block, anchor_block, target_dim: int,
                     party: tuple[int, int] = (0, 0), scale: bool = True):
    """Fit an institution's private map and produce its share.

    The map standardizes the block (population std, fitted locally) and
    projects onto the top target_dim principal axes.  target_dim must be
    strictly below the block's feature count; the reduction is what keeps
    the raw block unrecoverable.  The fit is deterministic.

    scale=False keeps the centering but skips the per-feature variance
    rescaling, so the principal axes follow raw covariance.  When features
    share a unit and informativeness tracks variance, rescaling levels the
    spectrum and the fitted axes stop agreeing across institutions; the
    centre-only map keeps them consistent.

    Returns (map, share) where share carries the transformed block and the
    transformed anchor restricted to this institution's columns.
    """
    x_block = as_matrix(x_block, "x_block")
    anchor_block = as_matrix(anchor_block, "anchor_block")
    n, m = x_block.shape
    if anchor_block.shape[1] != m:
        raise ContractViolationError(
            f"anchor has {anchor_block.shape[1]} columns, block has {m}")
    if not 1 <= target_dim < m:
        raise ContractViolationError(
            f"target_dim must be in [1, {m - 1}] to reduce dimension, got {target_dim}")
    if n < 2:
        raise ContractViolationError("fit needs at least 2 rows")
    x_std, means, scales = standardize(x_block)
    if not scale:
        scales = np.ones_like(scales)
        x_std = x_block - means
    axes = svd(x_std, top_k=target_dim).vt.T
    f = AffineMap(pre_offset=means, linear=axes / scales[:, None],
                  post_offset=np.zeros(target_dim))
    share = UserShareMsg(party=party, x_tilde=f.apply(x_block),
                         anchor_tilde=f.apply(anchor_block))
    return f, share


def _grouped_by_row(shares) -> list[list[UserShareMsg]]:
    parties = [s.party for s in shares]
    if len(set(parties)) != len(parties):
        raise ConfigurationError("duplicate party in shares")
    c = max(i for i, _ in parties) + 1
    d = max(j for _, j in parties) + 1
    expected = {(i, j) for i in range(c) for j in range(d)}
    if set(parties) != expected or len(parties) != c * d:
        raise ConfigurationError(
            f"shares must cover a full {c}x{d} lattice exactly once")
    by_row = []
    lookup = {s.party: s for s in shares}
    for i in range(c):
        by_row.append([lookup[(i, j)] for j in range(d)])
    return by_row


def build_collaboration(shares, mode: str = "affine",
                        m_hat: int | None = None) -> CollaborationModel:
    """Align per-row-block representations through the shared anchor.

    The stacked anchor images (with a ones column appended per block in
    affine mode) are factored once; each row block then gets the
    least-squares map of its own anchor image onto the leading left singular
    vectors.  The common dimension defaults to the smallest row-block width
    and is clamped (with a warning) if some anchor image is rank-deficient.
    """
    if mode not in ("linear", "affine"):
        raise ConfigurationError(f"mode must be 'linear' or 'affine', got {mode!r}")
    by_row = _grouped_by_row(shares)
    anchor_rows = {s.anchor_tilde.shape[0] for row in by_row for s in row}
    if len(anchor_rows) != 1:
        raise ConfigurationError(f"anchor row counts differ across shares: {anchor_rows}")
    x_rows = [{s.x_tilde.shape[0] for s in row} for row in by_row]
    for i, sizes in enumerate(x_rows):
        if len(sizes) != 1:
            raise ConfigurationError(f"row block {i} has inconsistent row counts {sizes}")

    x_tilde = [np.hstack([s.x_tilde for s in row]) for row in by_row]
    anchors = [np.hstack([s.anchor_tilde for s in row]) for row in by_row]
    widths = [a.shape[1] for a in anchors]
    if m_hat is None:
        m_hat = min(widths)
    if not 1 <= m_hat <= min(widths):
        raise ConfigurationError(f"m_hat must be in [1, {min(widths)}], got {m_hat}")

    r = anchors[0].shape[0]
    ones = np.ones((r, 1))
    if mode == "affine":
        design = [np.hstack([a, ones]) for a in anchors]
        stacked = np.hstack(design)
    else:
        design = anchors
        stacked = np.hstack(anchors)

    ranks = [np.linalg.matrix_rank(a) for a in design]
    clamped = False
    if min(ranks) < m_hat:
        m_hat = int(min(ranks))
        clamped = True
        warnings.warn(f"anchor representation rank-deficient; common dimension "
                      f"clamped to {m_hat}", RuntimeWarning, stacklevel=2)
        if m_hat < 1:
            raise ConfigurationError("anchor representations have rank 0")

    u1 = svd(stacked, top_k=m_hat).u
    g_maps, x_hat_blocks, anchor_images = [], [], []
    for i, row_anchor in enumerate(anchors):
        coeff = pinv(design[i]) @ u1
        if mode == "affine":
            g = AffineMap(pre_offset=np.zeros(widths[i]), linear=coeff[:-1],
                          post_offset=coeff[-1])
        else:
            g = AffineMap(pre_offset=np.zeros(widths[i]), linear=coeff,
                          post_offset=np.zeros(m_hat))
        g_maps.append(g)
        x_hat_blocks.append(g.apply(x_tilde[i]))
        anchor_images.append(g.apply(row_anchor))

    scale = max(np.linalg.norm(img) for img in anchor_images)
    residual = 0.0
    for i in range(len(anchor_images)):
        for j in range(i + 1, len(anchor_images)):
            gap = np.linalg.norm(anchor_images[i] - anchor_images[j])
            residual = max(residual, gap / scale if scale > 0 else 0.0)

    return CollaborationModel(mode=mode, m_hat=m_hat, g_maps=g_maps,
                              x_hat=np.vstack(x_hat_blocks),
                              row_sizes=[x.shape[0] for x in x_tilde],
                              residual=residual, m_hat_clamped=clamped)


def make_clustering_representation(model: CollaborationModel, algorithm: str,
                                   k: int, neighbors: int = 10) -> np.ndarray:
    """The matrix the analyst actually clusters: the aligned representation
    itself for k-means, or its spectral embedding for spectral clustering."""
    if algorithm == "kmeans":
        return model.x_hat
    if algorithm == "spectral":
        return spectral_embedding(model.x_hat, k, neighbors).vectors
    raise ConfigurationError(f"unknown algorithm {algorithm!r}")


def analyst_cluster(z, k: int, max_iter: int = 300, rng_seed: int = 0,
                    row_sizes=None, algorithm: str = "kmeans",
                    restarts: int = 10):
    """Cluster the joint representation and split results per row block.

    Returns (model, results) where results[i] carries the centroids plus
    row block i's own rows of z, which is all an institution needs to
    recover labels for its records.  restarts defaults to 10 here (unlike
    the core kmeans) because a single seeding is too jumpy for a result
    the whole federation shares.
    """
    z = as_matrix(z)
    space = "collaboration" if algorithm == "kmeans" else "spectral-embedding"
    model = kmeans(z, k, max_iter=max_iter, rng_seed=rng_seed, space_tag=space,
                   restarts=restarts)
    if row_sizes is None:
        row_sizes = [z.shape[0]]
    if sum(row_sizes) != z.shape[0]:
        raise ConfigurationError(
            f"row_sizes {row_sizes} do not sum to {z.shape[0]} rows")
    results, start = [], 0
    for i, size in enumerate(row_sizes):
        results.append(AnalystResultMsg(row_block=i, centroids=model.centroids,
                                        z_block=z[start:start + size],
                                        algorithm=algorithm))
        start += size
    return model, results
