"""Terrain-aware additive attention penalty.

A query patch at elevation h_i attending to a key patch at elevation h_j
pays -alpha * max(0, (h_j - h_i) / h0): looking uphill is penalized in
proportion to the climb, downhill and level attention are free. Entries
are clamped to [BIAS_LO, 0]; the clamp is hard, so saturated pairs stop
contributing gradient to the learnable scale alpha.

`bias_tensor` is the one place the penalty is computed: one (N, N)
matrix between the patches in raster order, as a single tape node whose
only parent is alpha. The `dump bias` matrix is that table, rows the
query patches. The model's is its transpose, keys x queries as the
attention node takes it, which `bias_tensor` of the negated elevations
gives bit for bit; the tokens stay in raster order, so every sample
shares that one table as it is.

Elevations enter in meters (pre-normalization) because the reference
height h0 = 1000 m is dimensional; the [0, 1]-scaled elevation channel the
model consumes as input plays no role here.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import DataError, ShapeError
from .fields import GridSpec

H0_METERS = 1000.0    # reference climb normalizer
BIAS_LO = -10.0       # clamp floor; ceiling is 0
ALPHA_INIT = 2.0


def patch_elevations(elevation: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Mean elevation per patch of an (H, W) grid, raster order, meters."""
    elev = np.asarray(elevation, dtype=np.float64)
    if elev.shape != (spec.height, spec.width):
        raise ShapeError(f"elevation shape {elev.shape}, expected {(spec.height, spec.width)}")
    p = spec.patch
    blocks = elev.reshape(spec.patches_y, p, spec.patches_x, p)
    return blocks.mean(axis=(1, 3)).reshape(spec.n_patches)


def uphill_matrix(patch_elev: np.ndarray) -> np.ndarray:
    """ReLU((h_j - h_i) / h0) for all patch pairs; row i = query, col j = key."""
    h = np.asarray(patch_elev, dtype=np.float64)
    if h.ndim != 1:
        raise ShapeError("patch elevations must be a flat vector")
    return np.maximum(0.0, (h[None, :] - h[:, None]) / H0_METERS)


def bias_tensor(patch_elev: np.ndarray, alpha) -> ad.Tensor:
    """The clamped penalty clip(-alpha * uphill, BIAS_LO, 0) as one tape node.

    `patch_elev` is the flat vector of patch elevations in meters, raster
    order. `alpha` is a scalar Tensor, whose dtype the result takes, or a
    plain number, taken as float64. The result is the (N, N) penalty
    between the patches in raster order; row i is the query patch,
    column j the key patch.

    The backward gives alpha -sum(g * uphill) over the entries strictly
    inside the clamp. Those are exactly the entries the forward left
    strictly between BIAS_LO and 0, so the mask is recomputed from the
    output instead of being stored.
    """
    alpha = ad.as_tensor(alpha, dtype=np.float64)
    if not np.isfinite(alpha.data).all():
        raise DataError(f"alpha must be finite, got {alpha.data}")
    up = uphill_matrix(patch_elev).astype(alpha.dtype, copy=False)
    out = (-alpha.data) * up
    np.clip(out, BIAS_LO, 0.0, out=out)

    def vjp(g):
        inside = (out > BIAS_LO) & (out < 0.0)
        return (-((g * inside) * up).sum(),)

    return ad.Tensor._op(out, (alpha,), vjp)
