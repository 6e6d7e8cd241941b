"""Terrain-aware additive attention penalty.

A query patch at elevation h_i attending to a key patch at elevation h_j
pays -alpha * max(0, (h_j - h_i) / h0): looking uphill is penalized in
proportion to the climb, downhill and level attention are free. Entries
are clamped to [BIAS_LO, 0]; the clamp is hard, so saturated pairs stop
contributing gradient to the learnable scale alpha.

`bias_tensor` is the one place the penalty is computed: for one patch
order (the `dump bias` matrix) or for a batch of wind-sorted orders (the
model's logit bias), as a single tape node whose only parent is alpha.

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


def bias_tensor(terrain: np.ndarray, alpha, orders: np.ndarray | None = None) -> ad.Tensor:
    """The clamped penalty clip(-alpha * uphill, BIAS_LO, 0) as one tape node.

    `terrain` is the flat vector of patch elevations in meters, raster
    order, or its (N, N) `uphill_matrix`, which a caller that builds
    several penalties on one terrain computes once. `alpha` is a scalar
    Tensor, whose dtype the result takes, or a plain number, taken as
    float64. Without `orders` the result is the (N, N) penalty between
    the patches in raster order. `orders` is a (B, N) array of slot ->
    patch indices; sample b then gets the penalty of its patches in that
    order, gathered from the raster matrix (entry (i, j) is
    uphill[order[i], order[j]]), and the result is (B, 1, N, N), which
    broadcasts over attention heads.

    The backward gives alpha -sum(g * uphill) over the entries strictly
    inside the clamp. Those are exactly the entries the forward left
    strictly between BIAS_LO and 0, so the mask is recomputed from the
    output instead of being stored.
    """
    alpha = ad.as_tensor(alpha, dtype=np.float64)
    if not np.isfinite(alpha.data).all():
        raise DataError(f"alpha must be finite, got {alpha.data}")
    h = np.asarray(terrain)
    square = h.ndim == 2 and h.shape[0] == h.shape[1]
    up = (h if square else uphill_matrix(h)).astype(alpha.dtype, copy=False)
    if orders is not None:
        orders = np.asarray(orders)
        b, n = orders.shape
        raster, up = up, np.empty((b, 1, n, n), dtype=alpha.dtype)
        for i, order in enumerate(orders):
            up[i, 0] = raster.take(order, axis=0).take(order, axis=1)
    out = (-alpha.data) * up
    np.clip(out, BIAS_LO, 0.0, out=out)

    def vjp(g):
        inside = (out > BIAS_LO) & (out < 0.0)
        return (-((g * inside) * up).sum(),)

    return ad.Tensor._op(out, (alpha,), vjp)
