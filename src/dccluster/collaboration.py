"""Collaborative representation learning over a lattice partition.

Each institution reduces its block with a privately fitted affine map f
(centring, a per-feature rescaling only when asked, then principal axes,
strictly fewer output than input dimensions) and shares only the
transformed block plus the transformed anchor; f itself never leaves the
fit.  The analyst aligns the per-row-block representations by factoring
the stacked anchor images: the leading left singular vectors give a common
target, and each row block gets the least-squares (affine or linear) map of
its anchor image onto that target.  Applying those maps to the data blocks
yields one coherent matrix the analyst can cluster centrally.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .clustering import kmeans, spectral_embedding
from .errors import ConfigurationError, ContractViolationError
from .numerics import (as_matrix, leading_left_vectors, pinv, svd,
                       well_conditioned_gram)

# the choices the analyst's dispatchers below accept
ALGORITHMS = ("kmeans", "spectral")
MODES = ("linear", "affine")


@dataclass
class AffineMap:
    """The analyst's map of a row block: x -> x @ linear + offset."""

    linear: np.ndarray
    offset: np.ndarray

    def apply(self, x) -> np.ndarray:
        x = as_matrix(x)
        if x.shape[1] != self.linear.shape[0]:
            raise ContractViolationError(
                f"map expects {self.linear.shape[0]} columns, got {x.shape[1]}")
        return x @ self.linear + self.offset


@dataclass
class CollaborationModel:
    m_hat: int
    g_maps: list[AffineMap]
    x_hat: np.ndarray
    row_sizes: list[int]
    residual: float
    m_hat_clamped: bool = False


def fit_intermediate(x_block, anchor_block, target_dim: int, *, scale: bool):
    """Fit an institution's private map f and transform its block and anchor.

    f centres the block on its own means and projects onto the top
    target_dim principal axes.  scale=False, the default of every config,
    fits those axes to the raw covariance.  scale=True first divides each
    feature by its population std (a constant feature by 1), fitted
    locally, so the axes follow the correlation matrix instead.  When
    features share a unit and informativeness tracks variance, rescaling
    levels the spectrum and the fitted axes stop agreeing across
    institutions; the centre-only map keeps them consistent.  target_dim
    must be strictly below the block's feature count; the reduction is what
    keeps the raw block unrecoverable.  The fit is deterministic.

    Returns (x_tilde, anchor_tilde): the transformed block and the
    transformed anchor restricted to this institution's columns, the two
    matrices its share carries.  f itself is never returned.
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
    means = x_block.mean(axis=0)
    centred = x_block - means
    scales = np.ones(m)   # dividing by 1.0 is exact
    if scale:
        scales = np.sqrt(np.mean(centred * centred, axis=0))  # population std
        scales[scales == 0.0] = 1.0
    linear = svd(centred / scales, top_k=target_dim).vt.T / scales[:, None]
    return centred @ linear, (anchor_block - means) @ linear


def _grouped_by_row(shares) -> list[list]:
    parties = [s.party for s in shares]
    if len(set(parties)) != len(parties):
        raise ConfigurationError("duplicate party in shares")
    c = max(i for i, _ in parties) + 1
    d = max(j for _, j in parties) + 1
    expected = {(i, j) for i in range(c) for j in range(d)}
    if set(parties) != expected or len(parties) != c * d:
        raise ConfigurationError(
            f"shares must cover a full {c}x{d} lattice exactly once")
    lookup = {s.party: s for s in shares}
    return [[lookup[(i, j)] for j in range(d)] for i in range(c)]


def build_collaboration(shares, mode: str = "affine",
                        m_hat: int | None = None) -> CollaborationModel:
    """Align per-row-block representations through the shared anchor.

    The stacked anchor images (with a ones column appended per block in
    affine mode) are multiplied out once into their Gram matrix G, whose
    eigenpairs give the common target u1, the stack's leading left singular
    vectors, unless G overflowed, when svd gives u1.  Each row block then
    gets the least-squares map of its own anchor image, its design D, onto
    u1: pinv(D) @ u1.  A design whose Gram block G_bb passes
    `well_conditioned_gram` takes that map as pinv(G_bb) @ D.T @ u1, with
    D.T @ u1 from the factorization that gave u1, and has full column rank;
    any other design, one whose G_bb overflowed included, is factored
    itself, and its rank is counted by pinv's singular-value cutoff.  The
    common dimension defaults to the smallest row-block width and is
    clamped (with a warning) to the smallest rank.  The residual is the
    largest distance between two row blocks' mapped anchor images, over the
    largest image's norm.  A share is read only through its `party`,
    `x_tilde` and `anchor_tilde`.
    """
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
    by_row = _grouped_by_row(shares)
    anchor_rows = {s.anchor_tilde.shape[0] for row in by_row for s in row}
    if len(anchor_rows) != 1:
        raise ConfigurationError(f"anchor row counts differ across shares: {anchor_rows}")
    x_rows = [{s.x_tilde.shape[0] for s in row} for row in by_row]
    for i, sizes in enumerate(x_rows):
        if len(sizes) != 1:
            raise ConfigurationError(f"row block {i} has inconsistent row counts {sizes}")

    x_tilde = [np.hstack([s.x_tilde for s in row]) for row in by_row]
    widths = [sum(s.anchor_tilde.shape[1] for s in row) for row in by_row]
    if m_hat is None:
        m_hat = min(widths)
    if not 1 <= m_hat <= min(widths):
        raise ConfigurationError(f"m_hat must be in [1, {min(widths)}], got {m_hat}")

    # One column-major copy of the anchor images, each row block's followed
    # by a ones column in affine mode, so that every design is a column view.
    (r,) = anchor_rows
    ones = [np.ones((r, 1))] if mode == "affine" else []
    parts = []
    for row in by_row:
        parts += [s.anchor_tilde for s in row] + ones
    design_widths = [w + 1 for w in widths] if mode == "affine" else widths
    stacked = np.concatenate(parts, axis=1,
                             out=np.empty((r, sum(design_widths)), order="F"))
    with np.errstate(over="ignore", invalid="ignore"):
        gram = stacked.T @ stacked
    ends = np.cumsum(design_widths)
    blocks = [slice(end - w, end) for end, w in zip(ends, design_widths)]

    # pinv(D) = pinv(D.T @ D) @ D.T for any D, so a design whose Gram block
    # is well conditioned is solved through that small block; its rank is
    # then its width, as its singular values would count it.  Any other
    # design is factored itself, which also counts its rank.
    solve_small = [well_conditioned_gram(gram[b, b]) for b in blocks]
    inverses, ranks = zip(*(pinv(gram[b, b] if small else stacked[:, b])
                            for b, small in zip(blocks, solve_small)))
    clamped = min(ranks) < m_hat
    if clamped:
        m_hat = min(ranks)
        warnings.warn(f"anchor representation rank-deficient; common dimension "
                      f"clamped to {m_hat}", RuntimeWarning, stacklevel=2)
        if m_hat < 1:
            raise ConfigurationError("anchor representations have rank 0")
    # every rank is at most r, so m_hat is too
    u1, projected = leading_left_vectors(stacked, m_hat, gram)

    g_maps, x_hat_blocks, anchor_images = [], [], []
    for x, b, small, inverse in zip(x_tilde, blocks, solve_small, inverses):
        # projected[b] is the design's own D.T @ u1
        coeff = inverse @ (projected[b] if small else u1)
        if mode == "affine":
            linear, offset = coeff[:-1], coeff[-1]
        else:
            linear, offset = coeff, np.zeros(m_hat)
        g = AffineMap(linear=linear, offset=offset)
        g_maps.append(g)
        x_hat_blocks.append(g.apply(x))
        anchor_images.append(stacked[:, b] @ coeff)

    scale = max(np.linalg.norm(img) for img in anchor_images)
    gaps = [np.linalg.norm(a - b) for a, b in combinations(anchor_images, 2)]
    residual = max(gaps, default=0.0) / scale if scale > 0 else 0.0

    return CollaborationModel(m_hat=m_hat, g_maps=g_maps,
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
    raise ConfigurationError(
        f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")


def analyst_cluster(z, k: int, row_sizes, *, max_iter: int, rng_seed: int,
                    restarts: int):
    """Cluster the joint representation and split it per row block.

    Returns (model, z_blocks): with the model's centroids, z_blocks[i], row
    block i's own rows of z, is all an institution needs to recover labels
    for its records.
    """
    z = as_matrix(z)
    model = kmeans(z, k, max_iter=max_iter, rng_seed=rng_seed,
                   restarts=restarts)
    if sum(row_sizes) != z.shape[0]:
        raise ConfigurationError(
            f"row_sizes {row_sizes} do not sum to {z.shape[0]} rows")
    return model, np.split(z, np.cumsum(row_sizes)[:-1])
