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

import numpy as np

from .clustering import kmeans, spectral_embedding
from .errors import ConfigurationError, ContractViolationError
from .numerics import (_fix_signs, as_matrix, leading_left_vectors, pinv,
                       svd, svd_left_vectors, well_conditioned_gram)

# the choices the analyst's dispatchers below accept
ALGORITHMS = ("kmeans", "spectral")
MODES = ("linear", "affine")
# Anchor rows the alignment copies into its buffer and multiplies at a
# time, and the rows an institution centres and maps at a time.  Aligning
# the blobs shares (r = 300k, W = 50, ten row blocks) on a 2-core Xeon with
# 4 MB of L2 per core took about as long with blocks of 2 048 to 8 192 rows
# (medians 140-186 ms) and longer with larger ones: 151-201 ms at 16 384,
# 179-246 ms at 32 768, 244-303 ms at 65 536.  8 192 is the largest of the
# fast sizes, so that every anchor of up to 8 192 rows, circles' 4 500 and
# iris's 150 among them, is one block, whose G and u1 come from single
# products over the whole stack.  In the fit, a block bounds the centred
# temporary at 8 192 x m instead of r x m (7.2 MB on blobs, m = 3), and
# the blocks are faster too: on blobs seed 1, two runs a side, the 20 fits,
# one after another, took 74.5-74.7 ms in blocks against 81.8-83.4 ms as
# one product each (medians of 15 rounds), with a peak RSS of 229 against
# 236 MB, and whole sessions 0.64-0.68 s against 0.68-0.77 s (medians of
# 15 calls), with a peak RSS of 276-282 MB either way.
ANCHOR_BLOCK_ROWS = 8_192


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
    matrices its share carries.  f itself is never returned.  The anchor,
    r rows, is centred and mapped ANCHOR_BLOCK_ROWS rows at a time into
    anchor_tilde, so no r x m temporary is made (see ANCHOR_BLOCK_ROWS).
    The blocks' rows are those of one whole product, bit for bit, which the
    reference-fit tests check across block edges.
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
    anchor_tilde = np.empty((anchor_block.shape[0], target_dim))
    for start in range(0, anchor_block.shape[0], ANCHOR_BLOCK_ROWS):
        rows = slice(start, start + ANCHOR_BLOCK_ROWS)
        np.matmul(anchor_block[rows] - means, linear, out=anchor_tilde[rows])
    return centred @ linear, anchor_tilde


def _grouped_by_row(shares) -> list[list]:
    shares = sorted(shares, key=lambda s: s.party)
    d = shares[-1].party[1] + 1
    return [shares[start:start + d] for start in range(0, len(shares), d)]


def _side_by_side(parts, rows: slice = slice(None), out=None) -> np.ndarray:
    """Rows `rows` of the matrices in `parts`, side by side in out's columns,
    or in a new column-major array when out is None."""
    if out is None:
        out = np.empty((parts[0][rows].shape[0],
                        sum(p.shape[1] for p in parts)), order="F")
    start = 0
    for part in parts:
        out[:, start:start + part.shape[1]] = part[rows]
        start += part.shape[1]
    return out


def _anchor_blocks(parts, r: int):
    """(rows, b) for each run of ANCHOR_BLOCK_ROWS anchor rows, where b holds
    those rows of `parts` side by side in one column-major buffer that every
    block reuses."""
    buffer = np.empty((min(ANCHOR_BLOCK_ROWS, r), sum(p.shape[1] for p in parts)),
                      order="F")
    for start in range(0, r, ANCHOR_BLOCK_ROWS):
        rows = slice(start, min(start + ANCHOR_BLOCK_ROWS, r))
        yield rows, _side_by_side(parts, rows, buffer[:rows.stop - start])


def _walk_anchor(parts, r: int, lead, blocks, coeffs):
    """One walk over the stack of designs `parts`, r rows: (stack @ lead, or
    None where lead is None, and the residual).

    The residual is that of the row blocks' anchor images D_i @ coeffs[i],
    D_i the stack's columns blocks[i], none of which is kept whole.  Each
    block of rows maps every design by its own product and subtracts every
    pair of the images; only the squared norms of both are summed.
    """
    led = None if lead is None else np.empty((r, lead.shape[1]), order="F")
    c = len(coeffs)
    pairs = [(a, b) for a in range(c) for b in range(a + 1, c)]
    norms, gaps = np.zeros(c), np.zeros(len(pairs))
    for rows, stack in _anchor_blocks(parts, r):
        if lead is not None:
            led[rows] = stack @ lead
        images = [stack[:, cols] @ coeff for cols, coeff in zip(blocks, coeffs)]
        norms += [np.vdot(image, image) for image in images]
        gaps += [np.vdot(diff, diff) for diff
                 in (images[a] - images[b] for a, b in pairs)]
    scale = np.sqrt(norms.max())
    gap = np.sqrt(gaps.max(initial=0.0))
    return led, float(gap / scale) if scale > 0 else 0.0


def build_collaboration(shares, mode: str = "affine",
                        m_hat: int | None = None) -> CollaborationModel:
    """Align per-row-block representations through the shared anchor.

    Row block i's design D_i is its shares' anchor images side by side,
    plus a ones column in affine mode; the stack is every design side by
    side, r × W.  Its rows are walked ANCHOR_BLOCK_ROWS at a time through
    one reused buffer.  The first walk sums the blocks' Gram products into
    the stack's Gram matrix G.  Row block i's map is the least-squares map
    of D_i onto the common target u1, the stack's leading left singular
    vectors: pinv(D_i) @ u1.  One condition picks the route to every map.
    The Gram route is taken when every design's block G_ii passes
    `well_conditioned_gram`, which proves D_i's full column rank, and G has
    the eigengap `numerics.leading_left_vectors` asks for: G's eigenpairs
    give u1 and every D_i.T @ u1, each map is pinv(G_ii) @ D_i.T @ u1, and a
    second walk makes u1's rows and the residual, so the stack is never
    copied whole.  Every other input, one whose G overflowed included, takes
    the factored reference route: the stack is copied once, pinv of each
    design's columns counts its rank, svd gives u1, and a second walk makes
    the residual.  The residual is the largest distance between two row
    blocks' mapped anchor images, over the largest image's norm.  The common
    dimension defaults to the smallest row-block width and is clamped (with
    a warning) to the smallest rank.  A share is read only through its
    `party`, `x_tilde` and `anchor_tilde`.  The shares are a full lattice,
    with one anchor row count and one row count per row block, as
    `federation.admit` ensures; nothing here checks that again.
    """
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
    by_row = _grouped_by_row(shares)

    x_tilde = [np.hstack([s.x_tilde for s in row]) for row in by_row]
    widths = [sum(s.anchor_tilde.shape[1] for s in row) for row in by_row]
    if m_hat is None:
        m_hat = min(widths)
    if not 1 <= m_hat <= min(widths):
        raise ConfigurationError(f"m_hat must be in [1, {min(widths)}], got {m_hat}")

    r = by_row[0][0].anchor_tilde.shape[0]
    ones = [np.broadcast_to(1.0, (r, 1))] if mode == "affine" else []
    designs = [[s.anchor_tilde for s in row] + ones for row in by_row]
    parts = [part for design in designs for part in design]
    design_widths = [w + len(ones) for w in widths]
    ends = np.cumsum(design_widths)
    blocks = [slice(end - w, end) for end, w in zip(ends, design_widths)]
    with np.errstate(over="ignore", invalid="ignore"):
        gram = sum((b.T @ b for _, b in _anchor_blocks(parts, r)),
                   np.zeros((ends[-1], ends[-1])))

    # pinv(D) = pinv(D.T @ D) @ D.T for any D, so where every design's Gram
    # block is well conditioned, each design is solved through that small
    # block and its rank is its width, as its singular values would count
    # it; m_hat, at most every width, needs no clamp, and is at most r
    # because no such block is wider than r.
    gram_route = (leading_left_vectors(gram, m_hat, r)
                  if all(well_conditioned_gram(gram[b, b]) for b in blocks)
                  else None)
    clamped = False
    if gram_route is not None:
        # u1 = stack @ v / s, its signs fixed once all its rows are made;
        # flipping a column of u1 flips the same column of every image,
        # which leaves the residual as it is
        v, s, projected = gram_route
        inverses = [pinv(gram[b, b])[0] for b in blocks]
        unsigned = [inverse @ projected[b] for b, inverse in zip(blocks, inverses)]
        u1, residual = _walk_anchor(parts, r, v, blocks, unsigned)
        u1 /= s
        projected *= _fix_signs(u1)
        # projected[b] is the design's own D.T @ u1
        coeffs = [inverse @ projected[b] for b, inverse in zip(blocks, inverses)]
    else:
        # the reference route: factoring each design counts its rank
        stack = _side_by_side(parts)
        inverses, ranks = zip(*(pinv(stack[:, b]) for b in blocks))
        clamped = min(ranks) < m_hat
        if clamped:
            m_hat = min(ranks)
            if m_hat < 1:
                raise ConfigurationError("anchor representations have rank 0")
            warnings.warn("anchor representation rank-deficient; common dimension "
                          f"clamped to {m_hat}", RuntimeWarning, stacklevel=2)
        # every rank is at most r, so m_hat is too
        u1 = svd_left_vectors(stack, m_hat)
        coeffs = [inverse @ u1 for inverse in inverses]
        residual = _walk_anchor(parts, r, None, blocks, coeffs)[1]

    g_maps = []
    for coeff in coeffs:
        if mode == "affine":
            g_maps.append(AffineMap(linear=coeff[:-1], offset=coeff[-1]))
        else:
            g_maps.append(AffineMap(linear=coeff, offset=np.zeros(m_hat)))
    return CollaborationModel(m_hat=m_hat, g_maps=g_maps,
                              x_hat=np.vstack([g.apply(x) for g, x
                                               in zip(g_maps, x_tilde)]),
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
    if sum(row_sizes) != z.shape[0]:
        raise ConfigurationError(
            f"row_sizes {row_sizes} do not sum to {z.shape[0]} rows")
    model = kmeans(z, k, max_iter=max_iter, rng_seed=rng_seed,
                   restarts=restarts)
    return model, np.split(z, np.cumsum(row_sizes)[:-1])
