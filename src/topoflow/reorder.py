"""Wind-guided patch reordering: sector decomposition and projection sort.

Coordinate convention used throughout the package: +x runs along grid
columns, +y along grid rows, and the wind components (u, v) point along
(+x, +y). Patch coordinates are sector-local and normalized, with patch
centers at ((col_in_sector + 0.5) / c, (row_in_sector + 0.5) / r).

Each sector computes one dominant wind angle from its cells, projects its
patch centers onto that direction, and sorts patches by ascending
projection (ties broken by ascending raster index, stable). The k-th patch
along the wind then occupies the k-th of that sector's raster slots, so
the permutation never crosses sector boundaries and degenerates to the
identity when every sector keeps raster order. Sectors whose cells carry
exactly zero wind skip the projection sort and keep raster order outright;
a literal sort under the sentinel angle 0 would order such sectors
column-major, which is not the raster baseline the degenerate case is
defined to preserve. No token moves: `train.prepare_arrays` turns each
sample's slot order into each patch's rank along the wind inside its
sector once (`sector_ranks`), which is all `model.forward` and its
attention node read of it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError
from .fields import GridSpec


def patch_wind_direction(u: np.ndarray, v: np.ndarray) -> float:
    """Dominant wind angle over one region, in radians.

    The components are averaged with weights w = sqrt(u^2 + v^2), so strong
    cells steer the direction. Returns the sentinel angle 0.0 when the
    region carries no wind at all.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.size == 0 or u.shape != v.shape:
        raise ShapeError(f"wind component shapes {u.shape} vs {v.shape}")
    w = np.hypot(u, v)
    sw = w.sum()
    if sw == 0.0:
        return 0.0
    return math.atan2(float((v * w).sum() / sw), float((u * w).sum() / sw))


def projection(x, y, theta: float):
    """Coordinate along the wind direction: x*cos(theta) + y*sin(theta)."""
    return np.asarray(x) * math.cos(theta) + np.asarray(y) * math.sin(theta)


def _sector_layout(spec: GridSpec):
    """Raster patch indices grouped per sector, (K, M), rows in raster order."""
    idx = np.arange(spec.n_patches).reshape(spec.patches_y, spec.patches_x)
    blocks = idx.reshape(
        spec.sectors_y, spec.sector_rows, spec.sectors_x, spec.sector_cols
    )
    return blocks.transpose(0, 2, 1, 3).reshape(spec.n_sectors, spec.patches_per_sector)


def build_permutation(
    spec: GridSpec, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The wind-guided slot order from per-cell winds over the grid.

    Returns (order, angles): order[k] is the raster patch index of the
    token at sequence slot k, an (N,) int64 permutation, and angles[s] is
    the wind angle used for sector s (raster sector order), with the
    sentinel 0.0 for zero-wind sectors.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    want = (spec.height, spec.width)
    if u.shape != want or v.shape != want:
        raise ShapeError(f"wind shapes {u.shape}/{v.shape}, expected {want}")

    c, r, p = spec.sector_cols, spec.sector_rows, spec.patch
    sectors = _sector_layout(spec)
    # Sector-local normalized patch centers, same order as _sector_layout rows.
    lx = (np.tile(np.arange(c), r) + 0.5) / c
    ly = (np.repeat(np.arange(r), c) + 0.5) / r

    order = np.empty(spec.n_patches, dtype=np.int64)
    angles = np.zeros(spec.n_sectors)
    for s in range(spec.n_sectors):
        sy, sx = divmod(s, spec.sectors_x)
        rows = slice(sy * r * p, (sy + 1) * r * p)
        cols = slice(sx * c * p, (sx + 1) * c * p)
        us, vs = u[rows, cols], v[rows, cols]
        slots = sectors[s]
        if not us.any() and not vs.any():
            # zero-wind sentinel: keep raster order
            order[slots] = slots
            continue
        theta = patch_wind_direction(us, vs)
        angles[s] = theta
        pi = projection(lx, ly, theta)
        ranked = np.argsort(pi, kind="stable")  # ties keep raster order
        order[slots] = slots[ranked]
    return order, angles


def sector_ranks(orders: np.ndarray, layout: np.ndarray) -> np.ndarray:
    """(B, N) int32 ranks along the wind from (B, N) slot orders that keep
    each patch inside its sector of the (K, M) `layout`, such as
    `build_permutation`'s: entry (i, p) is raster patch p's rank inside its
    sector under sample i's order. Slot layout[s, j] has rank j, and patch
    orders[i, k] takes slot k's rank (`unapply`), so identity rows rank the
    patches in raster order."""
    slot_ranks = np.empty((layout.size, 1), dtype=np.int32)
    slot_ranks[layout, 0] = np.arange(layout.shape[1])
    ranks = np.empty(orders.shape, dtype=np.int32)
    for row, order in zip(ranks, orders):
        row[:] = unapply(order, slot_ranks)[:, 0]
    return ranks


def unapply(order: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Return (N, C) rows in the slot order `order` (such as the slot
    ranks) to their raster positions: raster patch order[k] takes the row
    of slot k."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[0] != len(order):
        raise ShapeError(f"tokens shape {tokens.shape} is not (N, C), N = {len(order)}")
    return np.take(tokens, np.argsort(order), axis=0)
