"""Terrain-aware additive attention penalty.

A query patch at elevation h_i attending to a key patch at elevation h_j
pays -alpha * max(0, (h_j - h_i) / h0): looking uphill is penalized in
proportion to the climb, downhill and level attention are free. Entries
are clamped to [BIAS_LO, 0]; the clamp is hard, so saturated pairs stop
contributing gradient to the learnable scale alpha.

Elevations enter in meters (pre-normalization) because the reference
height h0 = 1000 m is dimensional; the [0, 1]-scaled elevation channel the
model consumes as input plays no role here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DataError, ShapeError
from .fields import Field, GridSpec

H0_METERS = 1000.0    # reference climb normalizer
BIAS_LO = -10.0       # clamp floor; ceiling is 0
ALPHA_INIT = 2.0


@dataclass(frozen=True)
class ElevationBias:
    """The N x N additive logit penalty and the pieces it was built from."""

    patch_elev: np.ndarray   # (N,) meters
    alpha: float
    h0: float
    matrix: np.ndarray       # (N, N), entries in [BIAS_LO, 0]


def patch_elevations(elevation, spec: GridSpec) -> np.ndarray:
    """Mean elevation per patch, raster order, meters.

    `elevation` is either an (H, W) array or a Field with an "elev" channel.
    """
    if isinstance(elevation, Field):
        elevation = elevation.channel("elev")
    elev = np.asarray(elevation, dtype=np.float64)
    if elev.shape != (spec.height, spec.width):
        raise ShapeError(f"elevation shape {elev.shape}, expected {(spec.height, spec.width)}")
    p = spec.patch
    blocks = elev.reshape(spec.patches_y, p, spec.patches_x, p)
    return blocks.mean(axis=(1, 3)).reshape(spec.n_patches)


def uphill_matrix(patch_elev: np.ndarray, h0: float = H0_METERS) -> np.ndarray:
    """ReLU((h_j - h_i) / h0) for all patch pairs; row i = query, col j = key."""
    h = np.asarray(patch_elev, dtype=np.float64)
    if h.ndim != 1:
        raise ShapeError("patch elevations must be a flat vector")
    return np.maximum(0.0, (h[None, :] - h[:, None]) / h0)


def build_bias(
    patch_elev: np.ndarray, alpha: float = ALPHA_INIT, h0: float = H0_METERS
) -> ElevationBias:
    """Assemble the clamped penalty matrix for a fixed alpha value."""
    if not np.isfinite(alpha):
        raise DataError(f"alpha must be finite, got {alpha}")
    uphill = uphill_matrix(patch_elev, h0)
    raw = -float(alpha) * uphill
    matrix = np.clip(raw, BIAS_LO, 0.0)
    return ElevationBias(np.asarray(patch_elev, dtype=np.float64), float(alpha), h0, matrix)


def bias_tensor(uphill_perm: np.ndarray, alpha: ad.Tensor) -> ad.Tensor:
    """Differentiable bias from a precomputed (possibly permuted) uphill matrix.

    The permutation of rows/columns does not involve alpha, so callers
    permute the constant uphill matrix first and this stays a plain
    elementwise chain: clip(-alpha * uphill, BIAS_LO, 0).
    """
    return ad.clip((-alpha) * ad.as_tensor(uphill_perm), BIAS_LO, 0.0)


def bias_gradient_alpha(
    patch_elev: np.ndarray, alpha: float, h0: float = H0_METERS
) -> np.ndarray:
    """Analytic d(bias)/d(alpha) per entry.

    -ReLU((h_j - h_i) / h0) wherever the clamp is inactive, 0 where the
    entry sits at or beyond a clamp boundary (subgradient 0 at the edge).
    """
    uphill = uphill_matrix(patch_elev, h0)
    raw = -float(alpha) * uphill
    interior = (raw > BIAS_LO) & (raw < 0.0)
    return np.where(interior, -uphill, 0.0)
