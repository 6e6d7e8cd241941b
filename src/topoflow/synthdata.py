"""Procedural terrain, winds, and labeled transport samples.

The generator exists so the full pipeline is trainable and verifiable
without any external datasets. A dataset is built from:

  * a terrain archetype (flat, a single ridge, an enclosed basin, or a
    basin+ridge composite), in meters;
  * a divergence-reduced wind field derived from a streamfunction with
    three parts: uniform base flow at some bearing, a terrain term that
    steers flow along elevation contours (so wind goes around, not over,
    high ground), and smooth random variability;
  * a finite-difference integrator for the linear transport equation
    dc/dt + u.grad(c) = kappa*lap(c) + Q - D*c, discretized as flux-form
    donor-cell advection plus central diffusion. Flux form conserves mass
    exactly under periodic boundaries; the sink is applied as a
    multiplicative decay exp(-D*dt) so nonnegativity is unconditional.
    One integrator call advances many steps under fixed winds, doing the
    wind-dependent set-up once; a sample makes one call per horizon
    segment, bitwise equal to stepping one call at a time.

Forecast horizons are nominal labels: `hours_per_step` hours of label time
correspond to one model step of `substeps` integrator steps, so horizon
hours map to integer step counts regardless of the CFL-constrained dt.

Per-sample randomness is drawn from numpy SeedSequence([root, 1, index]),
so datasets are order-independent and reproducible sample by sample.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FitError, ShapeError, StabilityError
from .fields import (
    TEMPORAL_CHANNELS,
    Field,
    GridSpec,
    LandMask,
    NormStats,
    Sample,
    read_grid,
    temporal_encoding,
    write_atomic,
    write_grid,
)
from .reorder import patch_wind_direction

SAMPLE_STREAM = 1          # SeedSequence lane for per-sample draws
TERRAIN_STREAM = 0         # SeedSequence lane for terrain/wind synthesis

INPUT_CHANNELS = ("u", "v", "c", "x", "y", "elev") + TEMPORAL_CHANNELS
INPUT_UNITS = ("m/s", "m/s", "ug/m3", "", "", "m") + ("",) * 4
TARGET_CHANNELS = ("c",)
ARCHETYPES = ("flat", "ridge", "basin", "basin_ridge")


@dataclass(frozen=True)
class PhysicsConfig:
    """Integrator constants; CFL bounds are enforced at construction."""

    kappa: float = 40.0            # diffusivity, m^2/s
    dt: float = 150.0              # integrator step, s
    dx: float = 2000.0             # cell size, m
    boundary: str = "periodic"     # periodic | clamped
    sources: tuple = ()            # ((row, col), rate conc/s), ...
    sink: float = 6.7e-5           # decay rate, 1/s
    max_wind: float = 6.0          # CFL wind bound, m/s
    hours_per_step: float = 12.0   # nominal label hours per model step
    substeps: int = 12             # integrator steps per model step

    def __post_init__(self):
        if self.kappa < 0 or self.dt <= 0 or self.dx <= 0 or self.sink < 0:
            raise ConfigError("kappa/sink must be >= 0, dt/dx > 0")
        if self.boundary not in ("periodic", "clamped"):
            raise ConfigError(f"unknown boundary {self.boundary!r}")
        if self.hours_per_step <= 0 or self.substeps < 1:
            raise ConfigError("hours_per_step must be > 0 and substeps >= 1")
        adv = self.max_wind * self.dt / self.dx
        if adv > 0.5:
            raise StabilityError(f"advective CFL {adv:.3f} > 0.5 for max_wind")
        dif = self.kappa * self.dt / self.dx**2
        if dif > 0.25:
            raise StabilityError(f"diffusive CFL {dif:.3f} > 0.25")

    def steps_for_hours(self, hours: float) -> int:
        n = hours / self.hours_per_step
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ConfigError(
                f"horizon {hours} h is not a positive multiple of {self.hours_per_step} h"
            )
        return int(round(n)) * self.substeps


@dataclass(frozen=True)
class TerrainWind:
    """Static elevation plus the reference wind field it was generated with."""

    elevation: np.ndarray   # (H, W) meters
    u: np.ndarray           # (H, W) m/s
    v: np.ndarray           # (H, W) m/s
    seed: int
    archetype: str
    base_speed: float       # m/s, uniform component magnitude
    bearing: float          # radians, uniform component direction

    def __post_init__(self):
        for name in ("elevation", "u", "v"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if not np.isfinite(arr).all():
                raise DataError(f"terrain {name} contains non-finite values")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.u.shape != self.elevation.shape or self.v.shape != self.elevation.shape:
            raise ShapeError("terrain and wind shapes differ")


@dataclass(frozen=True)
class CovarianceFit:
    """Exponential decay lengths of |cov| along and across the wind."""

    along_decay: float      # cells
    cross_decay: float      # cells
    residual: float         # rms log-residual of the along-wind fit
    l_adv: float            # advective length |u|*tau, cells

    def __post_init__(self):
        if not (self.along_decay > 0 and self.cross_decay > 0):
            raise FitError("decay lengths must be positive")


# ---------------------------------------------------------------------------
# terrain + wind synthesis
# ---------------------------------------------------------------------------

def _smooth_noise(shape, corr_cells: float, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance smooth random field via spectral low-pass synthesis."""
    white = rng.standard_normal(shape)
    ky = np.fft.fftfreq(shape[0])[:, None]
    kx = np.fft.fftfreq(shape[1])[None, :]
    k2 = ky**2 + kx**2
    filt = np.exp(-0.5 * k2 * (2.0 * math.pi * corr_cells / 2.355) ** 2)
    smooth = np.fft.ifft2(np.fft.fft2(white) * filt).real
    sd = smooth.std()
    return smooth / sd if sd > 0 else smooth


def _elevation(spec: GridSpec, archetype: str, rng: np.random.Generator) -> np.ndarray:
    h, w = spec.height, spec.width
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    elev = np.zeros((h, w))
    if archetype == "flat":
        return elev
    if archetype in ("ridge", "basin_ridge"):
        # meridional ridge blocking zonal flow
        x0 = 0.70 * w if archetype == "basin_ridge" else 0.55 * w
        width = 0.06 * w
        elev += 1800.0 * np.exp(-((cols - x0) / width) ** 2) * np.ones((h, 1))
    if archetype in ("basin", "basin_ridge"):
        # ring-shaped rim enclosing a low interior
        cy, cx = 0.5 * h, (0.32 * w if archetype == "basin_ridge" else 0.5 * w)
        radius = 0.30 * min(h, w if archetype == "basin" else 0.64 * w)
        rim_w = 0.35 * radius
        r = np.hypot(rows - cy, cols - cx)
        elev += 1400.0 * np.exp(-(((r - radius) / rim_w) ** 2))
    elev += 60.0 * np.abs(_smooth_noise((h, w), 0.08 * min(h, w), rng))
    return elev


def synth_wind(
    elevation: np.ndarray,
    dx: float,
    bearing: float,
    speed: float,
    rng: np.random.Generator,
    max_speed: float,
    terrain_coupling: float = 1.6,
    noise_coupling: float = 0.35,
) -> tuple[np.ndarray, np.ndarray]:
    """Divergence-reduced wind from a streamfunction over the given terrain.

    u = d(psi)/dy, v = -d(psi)/dx; iso-lines of the terrain term follow
    elevation contours, so the flow deflects around high ground instead of
    crossing it. The whole field is rescaled if any cell exceeds max_speed
    (uniform rescale keeps the divergence reduction intact).
    """
    h, w = elevation.shape
    y = np.arange(h)[:, None] * dx
    x = np.arange(w)[None, :] * dx
    psi = speed * (y * math.cos(bearing) - x * math.sin(bearing))
    span = elevation.max() - elevation.min()
    char_len = 0.33 * min(h, w) * dx
    if span > 0:
        psi += terrain_coupling * speed * char_len * (elevation - elevation.min()) / span
    noise_corr = 0.25 * min(h, w)
    psi += noise_coupling * speed * (noise_corr * dx) * _smooth_noise((h, w), noise_corr, rng)
    u = np.gradient(psi, dx, axis=0)
    v = -np.gradient(psi, dx, axis=1)
    top = np.hypot(u, v).max()
    if top > max_speed:
        u *= max_speed / top
        v *= max_speed / top
    return u, v


def gen_terrain(
    spec: GridSpec,
    seed: int,
    archetype: str = "basin_ridge",
    base_speed: float = 2.0,
    bearing: float | None = None,
    max_speed: float = 6.0,
) -> TerrainWind:
    """Deterministic terrain + reference wind for one dataset."""
    if archetype not in ARCHETYPES:
        raise ConfigError(f"unknown archetype {archetype!r}; pick from {ARCHETYPES}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), TERRAIN_STREAM]))
    elev = _elevation(spec, archetype, rng)
    if bearing is None:
        bearing = float(rng.uniform(0.0, 2.0 * math.pi))
    u, v = synth_wind(elev, 2000.0, bearing, base_speed, rng, max_speed)
    return TerrainWind(elev, u, v, int(seed), archetype, base_speed, float(bearing))


def study_mask(spec: GridSpec) -> LandMask:
    """Deterministic inset-rectangle study region (~half the grid)."""
    m = np.zeros((spec.height, spec.width), dtype=np.uint8)
    my, mx = spec.height // 6, spec.width // 6
    m[my : spec.height - my, mx : spec.width - mx] = 1
    return LandMask(spec, m)


# ---------------------------------------------------------------------------
# transport integrator
# ---------------------------------------------------------------------------

def _check_cfl(u: np.ndarray, v: np.ndarray, cfg: PhysicsConfig) -> None:
    adv = max(np.abs(u).max(), np.abs(v).max()) * cfg.dt / cfg.dx
    if adv > 0.5 + 1e-12:
        raise StabilityError(f"advective CFL {adv:.3f} > 0.5 for supplied winds")


def _step_array(
    c: np.ndarray, u: np.ndarray, v: np.ndarray, cfg: PhysicsConfig, steps: int = 1
) -> np.ndarray:
    """Advance `steps` explicit steps: donor-cell advection, central diffusion, Q, decay.

    Periodic boundaries wrap (and conserve mass exactly, since face fluxes
    telescope). Clamped boundaries see a zero-concentration exterior:
    advective outflow leaves the domain, nothing advects in, and diffusion
    is Neumann (no diffusive flux through the wall).

    What the fixed winds determine is set up once per call: the velocity on
    every face (w+1 per row, h+1 per column; a boundary face takes the
    wrapped average when periodic and the edge cell's velocity when
    clamped), the upwind donor of each face as an index into a halo-padded
    copy of the field (a clamped donor outside the domain reads a zero
    cell), and the scalar constants. Each step fills the one-cell halo
    (wrap or edge copy), gathers the donors, and updates the interior in
    preallocated buffers, so both boundaries share one loop. The arithmetic
    per element is that of a single step, so one call of k steps equals k
    calls of one step bit for bit. The field is integrated in float64; `c`
    is not modified and the result is a new array (a copy of `c` when
    `steps` is 0).
    """
    h, w = c.shape
    periodic = cfg.boundary == "periodic"
    # face k of a row lies between cells k-1 and k; likewise down a column
    uf = np.empty((h, w + 1))
    uf[:, 1:-1] = 0.5 * (u[:, :-1] + u[:, 1:])
    vf = np.empty((h + 1, w))
    vf[1:-1] = 0.5 * (v[:-1] + v[1:])
    if periodic:
        uf[:, 0] = uf[:, -1] = 0.5 * (u[:, -1] + u[:, 0])
        vf[0] = vf[-1] = 0.5 * (v[-1] + v[0])
    else:
        uf[:, 0], uf[:, -1] = u[:, 0], u[:, -1]
        vf[0], vf[-1] = v[0], v[-1]

    # the field lives inside a halo-padded grid; one extra cell stays zero
    buf = np.zeros((h + 2) * (w + 2) + 1)
    grid = buf[:-1].reshape(h + 2, w + 2)
    cur = grid[1:-1, 1:-1]
    cur[...] = c
    rows, cols = np.arange(h + 2)[:, None], np.arange(w + 2)[None, :]
    xcol = np.where(uf > 0, cols[:, :-1], cols[:, 1:])   # padded donor column
    yrow = np.where(vf > 0, rows[:-1], rows[1:])         # padded donor row
    xdonor = rows[1:-1] * (w + 2) + xcol
    ydonor = yrow * (w + 2) + cols[:, 1:-1]
    if not periodic:
        xdonor[(xcol == 0) | (xcol == w + 1)] = buf.size - 1
        ydonor[(yrow == 0) | (yrow == h + 1)] = buf.size - 1
    donors = np.concatenate([xdonor.ravel(), ydonor.ravel()])
    face_speed = np.concatenate([uf.ravel(), vf.ravel()])
    flux = np.empty(donors.size)
    fx = flux[: uf.size].reshape(uf.shape)
    fy = flux[uf.size :].reshape(vf.shape)

    top, bottom, left, right = (h, 1, w, 1) if periodic else (1, h, 1, w)
    halo = (
        (grid[0, 1:-1], grid[top, 1:-1]),
        (grid[-1, 1:-1], grid[bottom, 1:-1]),
        (grid[1:-1, 0], grid[1:-1, left]),
        (grid[1:-1, -1], grid[1:-1, right]),
    )
    north, south = grid[:-2, 1:-1], grid[2:, 1:-1]
    west, east = grid[1:-1, :-2], grid[1:-1, 2:]
    lam = cfg.dt / cfg.dx
    diff = cfg.kappa * cfg.dt / cfg.dx**2
    emissions = [(row, col, rate * cfg.dt) for (row, col), rate in cfg.sources]
    decay = math.exp(-cfg.sink * cfg.dt) if cfg.sink > 0 else None
    adv = np.empty((h, w))
    ady = np.empty((h, w))
    lap = np.empty((h, w))
    scratch = np.empty((h, w))

    for _ in range(steps):
        for dst, src in halo:
            np.copyto(dst, src)
        np.take(buf, donors, out=flux, mode="clip")
        np.multiply(flux, face_speed, out=flux)
        # adv = -lam * (fx east - fx west) - lam * (fy south - fy north)
        np.subtract(fx[:, 1:], fx[:, :-1], out=adv)
        np.multiply(adv, -lam, out=adv)
        np.subtract(fy[1:], fy[:-1], out=ady)
        np.multiply(ady, lam, out=ady)
        np.subtract(adv, ady, out=adv)
        # lap = north + south + west + east - 4 c
        np.add(north, south, out=lap)
        np.add(lap, west, out=lap)
        np.add(lap, east, out=lap)
        np.multiply(cur, 4.0, out=scratch)
        np.subtract(lap, scratch, out=lap)
        # c <- c + adv + diff * lap, then sources, then decay
        np.add(cur, adv, out=adv)
        np.multiply(lap, diff, out=lap)
        np.add(adv, lap, out=cur)
        for row, col, amount in emissions:
            cur[row, col] += amount
        if decay is not None:
            np.multiply(cur, decay, out=cur)
    return cur.copy()


def step(c: Field, tw: TerrainWind, cfg: PhysicsConfig) -> Field:
    """Advance a single-channel concentration field by one integrator step."""
    if len(c.channels) != 1:
        raise ShapeError(f"step expects a 1-channel field, got {c.channels}")
    if tw.elevation.shape != (c.spec.height, c.spec.width):
        raise ShapeError("terrain grid does not match the field grid")
    _check_cfl(tw.u, tw.v, cfg)
    out = _step_array(c.data[0], tw.u, tw.v, cfg)
    return c.with_data(out[None].astype(np.float32))


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------

def _coordinate_channels(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    x = (np.arange(spec.width)[None, :] + 0.5) / spec.width * np.ones((spec.height, 1))
    y = (np.arange(spec.height)[:, None] + 0.5) / spec.height * np.ones((1, spec.width))
    return x, y


def _initial_blobs(spec: GridSpec, rng: np.random.Generator, textured: bool = False) -> np.ndarray:
    rows = np.arange(spec.height)[:, None]
    cols = np.arange(spec.width)[None, :]
    c0 = np.zeros((spec.height, spec.width))
    for _ in range(int(rng.integers(1, 4))):
        cy = rng.uniform(0.1, 0.9) * spec.height
        cx = rng.uniform(0.1, 0.9) * spec.width
        sigma = rng.uniform(1.5, 4.0)
        amp = rng.uniform(20.0, 80.0)
        c0 += amp * np.exp(-((rows - cy) ** 2 + (cols - cx) ** 2) / (2 * sigma**2))
    if textured:
        # smooth nonnegative background so every patch carries signal to move
        c0 += rng.uniform(10.0, 25.0) * np.abs(
            _smooth_noise((spec.height, spec.width), 3.0, rng)
        )
    return c0


def _sample_sources(spec: GridSpec, rng: np.random.Generator) -> tuple:
    out = []
    for _ in range(int(rng.integers(1, 4))):
        row = int(rng.integers(2, spec.height - 2))
        col = int(rng.integers(2, spec.width - 2))
        rate = float(rng.uniform(1.0e-3, 4.0e-3))
        out.append(((row, col), rate))
    return tuple(out)


def make_sample(
    index: int,
    root_seed: int,
    spec: GridSpec,
    tw: TerrainWind,
    cfg: PhysicsConfig,
    horizons: tuple[int, ...],
    wind_mode: str = "rotate",
    source_mode: str = "random",
    init_mode: str = "blobs",
) -> Sample:
    """Generate one sample from its own seed stream (order-independent)."""
    rng = np.random.default_rng(np.random.SeedSequence([int(root_seed), SAMPLE_STREAM, index]))
    if wind_mode == "rotate":
        bearing = float(rng.uniform(0.0, 2.0 * math.pi))
        speed = tw.base_speed * float(rng.uniform(0.7, 1.3))
        u, v = synth_wind(tw.elevation, cfg.dx, bearing, speed, rng, cfg.max_wind)
    elif wind_mode == "fixed":
        u, v = tw.u, tw.v
    else:
        raise ConfigError(f"unknown wind mode {wind_mode!r}")
    _check_cfl(u, v, cfg)
    if source_mode == "random":
        cfg_i = dataclasses.replace(cfg, sources=_sample_sources(spec, rng))
    elif source_mode == "none":
        cfg_i = dataclasses.replace(cfg, sources=())
    else:
        raise ConfigError(f"unknown source mode {source_mode!r}")
    if init_mode not in ("blobs", "textured"):
        raise ConfigError(f"unknown init mode {init_mode!r}")
    c0 = _initial_blobs(spec, rng, textured=init_mode == "textured")
    hour = int(rng.integers(0, 24))
    doy = int(rng.integers(1, 366))

    snapshots = []
    c = c0
    done = 0
    for h in horizons:
        target = cfg.steps_for_hours(h)
        c = _step_array(c, u, v, cfg_i, steps=target - done)
        done = target
        snapshots.append(c)

    xg, yg = _coordinate_channels(spec)
    tenc = temporal_encoding(hour, doy)
    ones = np.ones((spec.height, spec.width))
    stack = np.stack(
        [u, v, c0, xg, yg, tw.elevation] + [t * ones for t in tenc]
    ).astype(np.float32)
    inp = Field(spec, INPUT_CHANNELS, stack, INPUT_UNITS)
    targets = tuple(
        Field(spec, TARGET_CHANNELS, s[None].astype(np.float32), ("ug/m3",)) for s in snapshots
    )
    return Sample(inp, targets, tuple(horizons), hour, doy)


def make_dataset(
    spec: GridSpec,
    tw: TerrainWind,
    cfg: PhysicsConfig,
    horizons: tuple[int, ...],
    count: int,
    seed: int,
    wind_mode: str = "rotate",
    source_mode: str = "random",
    init_mode: str = "blobs",
) -> list[Sample]:
    """Generate `count` labeled samples; same seed always yields the same list."""
    if count < 0:
        raise ConfigError("count must be >= 0")
    return [
        make_sample(
            i, seed, spec, tw, cfg, tuple(horizons),
            wind_mode=wind_mode, source_mode=source_mode, init_mode=init_mode,
        )
        for i in range(count)
    ]


def norm_kinds() -> dict[str, str]:
    """Default per-channel normalization map for synthetic samples."""
    kinds = {"u": "zscore", "v": "zscore", "c": "zscore", "elev": "minmax"}
    kinds.update({name: "none" for name in ("x", "y") + TEMPORAL_CHANNELS})
    return kinds


# ---------------------------------------------------------------------------
# covariance anisotropy
# ---------------------------------------------------------------------------

def fit_covariance_decay(
    samples: list[Sample],
    tw: TerrainWind,
    cfg: PhysicsConfig | None = None,
    timescale_s: float | None = None,
    max_lag: int | None = None,
) -> CovarianceFit:
    """Exponential decay of |cov| with lag, along vs across the mean wind.

    Ensemble covariance is estimated from the most-evolved tracer field of
    each sample (the last target; the input when a sample has none) at
    integer cell shifts along the wind direction and perpendicular to it,
    then log-linearly fit. The advective length uses tau = timescale_s if
    given, else 1/sink when the physics config carries a positive sink.
    """
    if len(samples) < 32:
        raise ConfigError(f"need >= 32 samples for a covariance fit, got {len(samples)}")
    spec = samples[0].input.spec
    tracer = np.stack(
        [
            (s.targets[-1] if s.targets else s.input).channel("c").astype(np.float64)
            for s in samples
        ]
    )
    anomaly = tracer - tracer.mean(axis=0, keepdims=True)
    var0 = float((anomaly * anomaly).mean())
    if var0 <= 0:
        raise FitError("constant fields: covariance is degenerate")

    theta = patch_wind_direction(tw.u, tw.v)
    along = (math.cos(theta), math.sin(theta))
    cross = (-math.sin(theta), math.cos(theta))
    if max_lag is None:
        max_lag = min(spec.height, spec.width) // 3

    def cov_at(direction, lag):
        dcol = int(round(direction[0] * lag))
        drow = int(round(direction[1] * lag))
        shifted = np.roll(anomaly, (-drow, -dcol), axis=(1, 2))
        return float((anomaly * shifted).mean())

    def decay_length(direction):
        lags, logs = [], []
        for lag in range(1, max_lag + 1):
            c = abs(cov_at(direction, lag)) / var0
            if c > 1e-3:
                lags.append(float(lag))
                logs.append(math.log(c))
        if len(lags) < 3:
            raise FitError("too few usable lags for an exponential fit")
        a = np.stack([np.asarray(lags), np.ones(len(lags))], axis=1)
        coef, *_ = np.linalg.lstsq(a, np.asarray(logs), rcond=None)
        slope = float(coef[0])
        resid = float(np.sqrt(np.mean((a @ coef - np.asarray(logs)) ** 2)))
        length = math.inf if slope >= 0 else -1.0 / slope
        return length, resid

    l_along, resid = decay_length(along)
    l_cross, _ = decay_length(cross)

    if timescale_s is None and cfg is not None and cfg.sink > 0:
        timescale_s = 1.0 / cfg.sink
    if timescale_s is not None and cfg is not None:
        speed = float(np.hypot(tw.u, tw.v).mean())
        l_adv = speed * timescale_s / cfg.dx
    else:
        l_adv = math.nan
    return CovarianceFit(l_along, l_cross, resid, l_adv)


# ---------------------------------------------------------------------------
# on-disk datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetBundle:
    """Everything a training or evaluation run needs, loaded in memory."""

    spec: GridSpec
    samples: tuple[Sample, ...]
    terrain: TerrainWind
    mask: LandMask
    stats: NormStats
    horizons: tuple[int, ...]


def write_dataset(
    out_dir,
    samples: list[Sample],
    tw: TerrainWind,
    mask: LandMask,
    stats: NormStats,
    seed: int,
) -> None:
    """Persist a dataset directory. The manifest, whose header names the
    sample count, is written last and atomically, so a killed writer leaves
    no `manifest.txt` and `read_dataset` refuses the directory."""
    out = Path(out_dir)
    (out / "samples").mkdir(parents=True, exist_ok=True)
    spec = samples[0].input.spec if samples else mask.spec
    terrain_field = Field(
        spec,
        ("elev", "u", "v"),
        np.stack([tw.elevation, tw.u, tw.v]).astype(np.float32),
        ("m", "m/s", "m/s"),
    )
    write_grid(terrain_field, out / "terrain.gfd")
    write_grid(mask, out / "mask.gfd")
    stats.save(out / "stats.txt")
    lines = [f"# topoflow dataset v1 seed={seed} count={len(samples)}\n"]
    for i, s in enumerate(samples):
        in_rel = f"samples/{i:06d}.in.gfd"
        write_grid(s.input, out / in_rel)
        target_rels = []
        for h, t in zip(s.lead_times, s.targets):
            rel = f"samples/{i:06d}.h{h:03d}.gfd"
            write_grid(t, out / rel)
            target_rels.append(rel)
        lines.append(
            " ".join(
                [
                    in_rel,
                    ",".join(target_rels),
                    ",".join(str(h) for h in s.lead_times),
                    str(i),
                    str(s.hour),
                    str(s.doy),
                ]
            )
            + "\n"
        )
    write_atomic(out / "manifest.txt", "".join(lines).encode("utf-8"))


def read_dataset(in_dir) -> DatasetBundle:
    """Load a dataset directory written by :func:`write_dataset`; a manifest
    with other than `count=` sample rows (a cut file) raises DataError."""
    root = Path(in_dir)
    manifest = root / "manifest.txt"
    if not manifest.exists():
        raise DataError(f"{root}: no manifest.txt (incomplete or missing dataset)")
    terrain_field = read_grid(root / "terrain.gfd")
    if not isinstance(terrain_field, Field) or terrain_field.channels != ("elev", "u", "v"):
        raise DataError(f"{root}/terrain.gfd: expected channels (elev, u, v)")
    mask = read_grid(root / "mask.gfd")
    if not isinstance(mask, LandMask):
        raise DataError(f"{root}/mask.gfd is not a mask file")
    stats = NormStats.load(root / "stats.txt")
    tw = TerrainWind(
        terrain_field.channel("elev").astype(np.float64),
        terrain_field.channel("u").astype(np.float64),
        terrain_field.channel("v").astype(np.float64),
        seed=0,
        archetype="loaded",
        base_speed=0.0,
        bearing=0.0,
    )
    samples: list[Sample] = []
    horizons: tuple[int, ...] = ()
    count = None
    with open(manifest, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            if ln == 1:
                count = next((w[6:] for w in line.split() if w.startswith("count=")), None)
            if line.startswith("#") or not line.strip():
                continue
            parts = line.split()
            if len(parts) != 6:
                raise DataError(f"{manifest}:{ln}: expected 6 columns, got {len(parts)}")
            in_rel, target_rels, hours_s, _seed, hour, doy = parts
            inp = read_grid(root / in_rel)
            targets = tuple(read_grid(root / rel) for rel in target_rels.split(","))
            horizons = tuple(int(h) for h in hours_s.split(","))
            samples.append(Sample(inp, targets, horizons, int(hour), int(doy)))
    if not samples:
        raise DataError(f"{manifest}: dataset is empty")
    if count != str(len(samples)):
        raise DataError(f"{manifest}: {len(samples)} sample rows, header says count={count}")
    return DatasetBundle(
        samples[0].input.spec, tuple(samples), tw, mask, stats, horizons
    )
