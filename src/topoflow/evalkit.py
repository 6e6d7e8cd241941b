"""Denormalized forecast metrics and attention diagnostics.

Metrics are computed in physical units: predictions come out of the model
in normalized space and are mapped back through the dataset's stats before
any error is taken. The report table is channels x horizons with per-row,
per-column, and overall averages; averaging across channels with different
units is dimensionally questionable, so the text rendering carries a
footnote saying exactly that.

The attention summary statistic mu is the mean of each query row's maximum
weight (a row-concentration measure); reference values from large-scale
runs are qualitative anchors, not reproduction targets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .errors import DataError, FitError, ShapeError
from .fields import Field, mask_array
from .model import ModelConfig, ParamStore, forward
from .synthdata import DatasetBundle
from .train import prepare_arrays

ATTN_BINS = 50  # fixed histogram binning over [0, 1]


def _grid(x) -> np.ndarray:
    arr = x.data if isinstance(x, Field) else x
    return np.asarray(arr, dtype=np.float64)


def rmse(pred, target, mask) -> float:
    """Root mean squared error over masked cells, physical units."""
    p, t, m = _grid(pred), _grid(target), mask_array(mask)
    if p.shape != t.shape or p.shape[-2:] != m.shape:
        raise ShapeError(f"shapes {p.shape} / {t.shape} / mask {m.shape}")
    se = np.subtract(p, t)[..., m]
    np.square(se, out=se)
    return float(np.sqrt(se.sum() / se.size))


def mae(pred, target, mask) -> float:
    p, t, m = _grid(pred), _grid(target), mask_array(mask)
    err = np.subtract(p, t)
    np.abs(err, out=err)
    return float(err[..., m].mean())


def correlation(pred, target, mask) -> float:
    """Masked sample Pearson correlation."""
    p, t, m = _grid(pred), _grid(target), mask_array(mask)
    x = p[..., m].ravel()
    y = t[..., m].ravel()
    if x.size < 2:
        raise DataError("correlation needs at least two masked cells")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt((xc * xc).sum()))
    sy = float(np.sqrt((yc * yc).sum()))
    if sx == 0.0 or sy == 0.0:
        raise FitError("correlation undefined for a constant field")
    return float((xc * yc).sum() / (sx * sy))


# ---------------------------------------------------------------------------
# attention diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttnDiagnostics:
    histogram: np.ndarray    # (ATTN_BINS,) mass per bin, sums to 1
    bin_edges: np.ndarray    # (ATTN_BINS + 1,)
    mu: float                # mean row-max weight
    entropy: np.ndarray      # per query row, nats
    n_rows: int


def attn_diagnostics(weights: np.ndarray) -> AttnDiagnostics:
    """Summarize one or more row-stochastic attention matrices."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim < 2:
        raise ShapeError("attention weights must be at least 2-D")
    rows = w.reshape(-1, w.shape[-1])
    sums = rows.sum(axis=1)
    if not np.allclose(sums, 1.0, atol=1e-5):
        raise DataError("attention rows must sum to 1")
    if (rows < -1e-9).any():
        raise DataError("attention weights must be nonnegative")
    hist, edges = np.histogram(rows.ravel(), bins=ATTN_BINS, range=(0.0, 1.0))
    mass = hist / rows.size
    safe = np.where(rows > 0.0, rows, 1.0)
    entropy = -(rows * np.log(safe)).sum(axis=1)
    mu = float(rows.max(axis=1).mean())
    return AttnDiagnostics(mass, edges, mu, entropy, rows.shape[0])


def render_attn_text(diag: AttnDiagnostics) -> str:
    lines = [
        f"rows {diag.n_rows}",
        f"mu_row_max {diag.mu!r}",
        f"entropy_mean {float(diag.entropy.mean())!r}",
        "bin_lo bin_hi mass",
    ]
    for i in range(len(diag.histogram)):
        lines.append(
            f"{diag.bin_edges[i]:.3f} {diag.bin_edges[i + 1]:.3f} {float(diag.histogram[i])!r}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricCell:
    rmse: float
    mae: float
    r: float
    n: int

    def __post_init__(self):
        if not (self.rmse >= self.mae >= 0.0):
            raise DataError(f"invalid cell: rmse {self.rmse} < mae {self.mae}")
        if not -1.0 <= self.r <= 1.0 + 1e-12 or self.n <= 0:
            raise DataError("correlation out of range or empty cell")


@dataclass(frozen=True)
class MetricsReport:
    channels: tuple[str, ...]
    horizons: tuple[int, ...]
    cells: dict[tuple[str, int], MetricCell]

    def channel_average(self, channel: str) -> float:
        return float(np.mean([self.cells[channel, h].rmse for h in self.horizons]))

    def horizon_average(self, horizon: int) -> float:
        return float(np.mean([self.cells[c, horizon].rmse for c in self.channels]))

    def overall(self) -> float:
        return float(np.mean([self.horizon_average(h) for h in self.horizons]))

    def render_text(self) -> str:
        width = max(len(c) for c in self.channels + ("overall",)) + 2
        head = "channel".ljust(width) + "".join(f"{f'+{h}h':>12}" for h in self.horizons)
        head += f"{'avg':>12}"
        lines = ["RMSE by channel and horizon (physical units)", head]
        for c in self.channels:
            row = c.ljust(width)
            row += "".join(f"{self.cells[c, h].rmse:>12.4f}" for h in self.horizons)
            row += f"{self.channel_average(c):>12.4f}"
            lines.append(row)
        row = "overall".ljust(width)
        row += "".join(f"{self.horizon_average(h):>12.4f}" for h in self.horizons)
        row += f"{self.overall():>12.4f}"
        lines.append(row)
        lines.append("")
        lines.append("note: channel averages mix units when channels differ; they")
        lines.append("mirror the reference table layout and are not dimensionally sound.")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["channel,horizon,rmse,mae,r,n"]
        for c in self.channels:
            for h in self.horizons:
                cell = self.cells[c, h]
                lines.append(f"{c},{h},{cell.rmse!r},{cell.mae!r},{cell.r!r},{cell.n}")
        return "\n".join(lines) + "\n"


def predict_grids(
    store: ParamStore,
    config: ModelConfig,
    bundle: DatasetBundle,
    batch: int = 16,
    collect_attention: bool = False,
):
    """Normalized prediction grids for every sample, plus optional attention.

    Returns (preds, attention) with preds shaped (S, n_horizons*v_out, H, W)
    and attention a list of head-averaged matrices from the final layer,
    one per sample, in raster token order as `model.forward` returns
    them. Each batch's inputs are prepared on their own, so the
    predictions are the only array that spans the dataset. The forwards
    build no autodiff tape, so `model.forward` runs each batch sample by
    sample and memory does not grow with `batch`; each batch is still one
    `forward` call.
    """
    preds = None
    attn: list[np.ndarray] = []
    for start in range(0, len(bundle.samples), batch):
        rows = slice(start, start + batch)
        arrays = prepare_arrays(replace(bundle, samples=bundle.samples[rows]), config)
        with ad.no_grad():
            res = forward(
                store,
                config,
                arrays.inputs,
                elev_patch_m=arrays.elev_patch,
                orders=arrays.orders,
                collect_attention=collect_attention,
            )
        grid = res.to_grid()
        if preds is None:
            preds = np.empty((len(bundle.samples),) + grid.shape[1:], dtype=grid.dtype)
        preds[rows] = grid
        if collect_attention and res.attention:
            attn.extend(res.attention[-1])
    return preds, attn


def report(
    store: ParamStore,
    config: ModelConfig,
    bundle: DatasetBundle,
    batch: int = 16,
) -> MetricsReport:
    """Denormalized RMSE/MAE/correlation per (channel, horizon)."""
    preds_norm = predict_grids(store, config, bundle, batch=batch)[0]
    channels = bundle.samples[0].targets[0].channels
    horizons = bundle.horizons
    mask = bundle.mask
    cells: dict[tuple[str, int], MetricCell] = {}
    for hi, horizon in enumerate(horizons):
        for ci, channel in enumerate(channels):
            st = bundle.stats.for_channel(channel)
            plane = _grid(st.apply(preds_norm[:, hi * len(channels) + ci], forward=False))
            truth = np.empty(plane.shape, dtype=np.float64)
            for i, s in enumerate(bundle.samples):
                truth[i] = s.targets[hi].channel(channel)
            cells[channel, horizon] = MetricCell(
                rmse(plane, truth, mask),
                mae(plane, truth, mask),
                correlation(plane, truth, mask),
                mask.count * len(bundle.samples),
            )
    return MetricsReport(tuple(channels), tuple(horizons), cells)
