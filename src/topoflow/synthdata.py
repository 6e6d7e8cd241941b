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
    PhysicsConfig holds the constants, DataConfig the dataset's choices;
    the point sources Q are drawn per sample and passed to each
    integrator call. One call advances many steps under fixed winds,
    doing the wind-dependent set-up once; a sample makes one call per
    horizon segment, bitwise equal to stepping one call at a time.

Forecast horizons are nominal labels: `hours_per_step` hours of label time
correspond to one model step of `substeps` integrator steps, so horizon
hours map to integer step counts regardless of the CFL-constrained dt.

Per-sample randomness is drawn from numpy SeedSequence([root, 1, index]),
so datasets are order-independent and reproducible sample by sample.

On disk a dataset is one terrain file (elevation, reference wind and the
study mask), one file per sample and a `key = value` manifest that states
the `data.*` values, the normalization stats and the `train.val_fraction`
of the training split they were fit on once (`write_dataset`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import INPUT_CHANNELS, TARGET_CHANNELS, TEMPORAL_CHANNELS, DataConfig, PhysicsConfig
from .config import TrainConfig, decode, encode, format_kv, read_kv, read_lines, write_atomic
from .errors import ConfigError, DataError, FormatError, ShapeError, StabilityError
from .fields import (
    ChannelStats,
    Field,
    GridSpec,
    LandMask,
    NormStats,
    Sample,
    read_grid,
    temporal_encoding,
    write_grid,
)

SAMPLE_STREAM = 1          # SeedSequence lane for per-sample draws
TERRAIN_STREAM = 0         # SeedSequence lane for terrain/wind synthesis
SOURCE_MARGIN = 2          # cells between a random point source and the grid's edge

INPUT_UNITS = ("m/s", "m/s", "ug/m3", "", "", "m") + ("",) * 4
TERRAIN_COUPLING = 1.6     # streamfunction weight of the contour-following term
NOISE_COUPLING = 0.35      # streamfunction weight of the smooth random term


@dataclass(frozen=True)
class TerrainWind:
    """Static elevation plus the reference wind field it was generated with."""

    elevation: np.ndarray   # (H, W) meters
    u: np.ndarray           # (H, W) m/s
    v: np.ndarray           # (H, W) m/s
    base_speed: float       # m/s, uniform component magnitude

    def __post_init__(self):
        for name in ("elevation", "u", "v"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if not np.isfinite(arr).all():
                raise DataError(f"terrain {name} contains non-finite values")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.u.shape != self.elevation.shape or self.v.shape != self.elevation.shape:
            raise ShapeError("terrain and wind shapes differ")


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
        psi += TERRAIN_COUPLING * speed * char_len * (elevation - elevation.min()) / span
    noise_corr = 0.25 * min(h, w)
    psi += NOISE_COUPLING * speed * (noise_corr * dx) * _smooth_noise((h, w), noise_corr, rng)
    u = np.gradient(psi, dx, axis=0)
    v = -np.gradient(psi, dx, axis=1)
    top = np.hypot(u, v).max()
    if top > max_speed:
        u *= max_speed / top
        v *= max_speed / top
    return u, v


def gen_terrain(
    spec: GridSpec, seed: int, data: DataConfig, physics: PhysicsConfig
) -> TerrainWind:
    """Deterministic terrain + reference wind (at a random bearing) for one dataset."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), TERRAIN_STREAM]))
    elev = _elevation(spec, data.archetype, rng)
    bearing = float(rng.uniform(0.0, 2.0 * math.pi))
    u, v = synth_wind(elev, physics.dx, bearing, data.base_speed, rng, physics.max_wind)
    return TerrainWind(elev, u, v, data.base_speed)


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
    c: np.ndarray, u: np.ndarray, v: np.ndarray, cfg: PhysicsConfig, sources: tuple,
    steps: int = 1,
) -> np.ndarray:
    """Advance `steps` explicit steps: donor-cell advection, central diffusion, Q, decay.

    `sources` holds ((row, col), rate) point emissions, rate in conc/s.

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
    (wrap or edge copy), gathers the donors, and updates the field in
    preallocated buffers, so both boundaries share one loop.

    Every ufunc of a step runs on one contiguous 1-D span: rows 1..h of the
    padded grid, pad columns included, so a row of the span is w+2 long.
    The cell itself is the span; its north and south neighbours are the
    span shifted by one padded row, west and east by one element. The x
    face flux of a span slot is that of its west face, the y flux that of
    its north face, so east and south faces are the same arrays shifted by
    one slot and one row. A slot at a pad column has face speed 0 and the
    zero cell as donor, so its update is some finite value that no interior
    cell reads, and the next halo fill overwrites it. Each interior cell
    keeps its operands and their order, so the arithmetic per element is
    that of a single step and one call of k steps equals k calls of one
    step bit for bit. Emissions go through the 2-D interior view, so a
    negative index counts from the domain's edge and an index out of range
    raises IndexError. The field is integrated in float64; `c` is not
    modified and the result is a new array (a copy of `c` when `steps` is
    0).
    """
    h, w = c.shape
    row = w + 2                     # the padded grid's row length
    n = h * row                     # the span: padded rows 1..h
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
    buf = np.zeros((h + 2) * row + 1)
    zero = buf.size - 1
    grid = buf[:-1].reshape(h + 2, row)
    interior = grid[1:-1, 1:-1]
    interior[...] = c
    rows, cols = np.arange(h + 2)[:, None], np.arange(row)[None, :]
    xcol = np.where(uf > 0, cols[:, :-1], cols[:, 1:])   # padded donor column
    yrow = np.where(vf > 0, rows[:-1], rows[1:])         # padded donor row
    xdonor = rows[1:-1] * row + xcol
    ydonor = yrow * row + cols[:, 1:-1]
    if not periodic:
        xdonor[(xcol == 0) | (xcol == w + 1)] = zero
        ydonor[(yrow == 0) | (yrow == h + 1)] = zero
    # faces in span order: n+1 x faces (west of each slot, then one more),
    # then n+row y faces (north of each slot, then the south row's)
    face_speed = np.zeros(2 * n + row + 1)
    donors = np.full(face_speed.size, zero)
    for faces, x, y in ((face_speed, uf, vf), (donors, xdonor, ydonor)):
        faces[:n].reshape(h, row)[:, 1:] = x
        faces[n + 1 :].reshape(h + 1, row)[:, 1:-1] = y
    flux = np.empty(face_speed.size)
    fx, fy = flux[: n + 1], flux[n + 1 :]
    east_face, west_face = fx[1:], fx[:-1]
    south_face, north_face = fy[row:], fy[:n]

    top, bottom, left, right = (h, 1, w, 1) if periodic else (1, h, 1, w)
    halo = (
        (grid[0, 1:-1], grid[top, 1:-1]),
        (grid[-1, 1:-1], grid[bottom, 1:-1]),
        (grid[1:-1, 0], grid[1:-1, left]),
        (grid[1:-1, -1], grid[1:-1, right]),
    )
    cur = buf[row : row + n]
    north, south = buf[:n], buf[2 * row : 2 * row + n]
    west, east = buf[row - 1 : row - 1 + n], buf[row + 1 : row + 1 + n]
    lam = cfg.dt / cfg.dx
    diff = cfg.kappa * cfg.dt / cfg.dx**2
    emissions = [(r, col, rate * cfg.dt) for (r, col), rate in sources]
    decay = math.exp(-cfg.sink * cfg.dt) if cfg.sink > 0 else None
    adv = np.empty(n)
    ady = np.empty(n)
    lap = np.empty(n)
    scratch = np.empty(n)

    for _ in range(steps):
        for dst, src in halo:
            np.copyto(dst, src)
        np.take(buf, donors, out=flux, mode="clip")
        np.multiply(flux, face_speed, out=flux)
        # adv = -lam * (fx east - fx west) - lam * (fy south - fy north)
        np.subtract(east_face, west_face, out=adv)
        np.multiply(adv, -lam, out=adv)
        np.subtract(south_face, north_face, out=ady)
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
        for r, col, amount in emissions:
            interior[r, col] += amount
        if decay is not None:
            np.multiply(cur, decay, out=cur)
    return interior.copy()


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------

def _coordinate_channels(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    x = (np.arange(spec.width)[None, :] + 0.5) / spec.width * np.ones((spec.height, 1))
    y = (np.arange(spec.height)[:, None] + 0.5) / spec.height * np.ones((1, spec.width))
    return x, y


def _initial_blobs(spec: GridSpec, rng: np.random.Generator, textured: bool) -> np.ndarray:
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


def check_sources(spec: GridSpec, data: DataConfig) -> None:
    """ConfigError if `data.source_mode = random` finds no cell SOURCE_MARGIN
    cells from every edge to place its point sources on."""
    for key, cells in (("grid.height", spec.height), ("grid.width", spec.width)):
        if data.source_mode == "random" and cells <= 2 * SOURCE_MARGIN:
            raise ConfigError(f"{key} = {cells} leaves data.source_mode = random no cell "
                              f"{SOURCE_MARGIN} cells from each edge")


def _sample_sources(spec: GridSpec, rng: np.random.Generator) -> tuple:
    out = []
    for _ in range(int(rng.integers(1, 4))):
        row = int(rng.integers(SOURCE_MARGIN, spec.height - SOURCE_MARGIN))
        col = int(rng.integers(SOURCE_MARGIN, spec.width - SOURCE_MARGIN))
        rate = float(rng.uniform(1.0e-3, 4.0e-3))
        out.append(((row, col), rate))
    return tuple(out)


def make_sample(
    index: int,
    seed: int,
    spec: GridSpec,
    tw: TerrainWind,
    physics: PhysicsConfig,
    data: DataConfig,
) -> Sample:
    """Generate one sample from its own seed stream (order-independent)."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), SAMPLE_STREAM, index]))
    if data.wind_mode == "rotate":
        bearing = float(rng.uniform(0.0, 2.0 * math.pi))
        speed = tw.base_speed * float(rng.uniform(0.7, 1.3))
        u, v = synth_wind(tw.elevation, physics.dx, bearing, speed, rng, physics.max_wind)
    else:
        u, v = tw.u, tw.v
    _check_cfl(u, v, physics)
    sources = _sample_sources(spec, rng) if data.source_mode == "random" else ()
    c0 = _initial_blobs(spec, rng, textured=data.init_mode == "textured")
    hour = int(rng.integers(0, 24))
    doy = int(rng.integers(1, 366))

    snapshots = []
    c = c0
    done = 0
    for h in data.horizons:
        target = physics.steps_for_hours(h)
        c = _step_array(c, u, v, physics, sources, steps=target - done)
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
    return Sample(inp, targets, data.horizons)


def make_dataset(
    spec: GridSpec, tw: TerrainWind, physics: PhysicsConfig, data: DataConfig, seed: int
) -> list[Sample]:
    """Generate `data.count` labeled samples; same seed always yields the same list."""
    return [make_sample(i, seed, spec, tw, physics, data) for i in range(data.count)]


def norm_kinds() -> dict[str, str]:
    """Default per-channel normalization map for synthetic samples."""
    kinds = {"u": "zscore", "v": "zscore", "c": "zscore", "elev": "minmax"}
    kinds.update({name: "none" for name in ("x", "y") + TEMPORAL_CHANNELS})
    return kinds


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
    val_fraction: float     # the `train.val_fraction` whose training split fit `stats`


TERRAIN_CHANNELS = ("elev", "u", "v", "mask")
DATASET_FORMAT = "topoflow dataset v3"
REGENERATE = "regenerate it with `topoflow gen`, which rebuilds a dataset from its seed"
# every key of a manifest: the `data.*` values a dataset fixes, and the
# normalization stats of each input channel with the split they were fit on
MANIFEST_KEYS = ("format", "seed", "data.count", "data.base_speed", "data.horizons",
                 "train.val_fraction") + tuple(
    key for name in INPUT_CHANNELS for key in encode(ChannelStats("none"), f"stats.{name}")
)


def sample_channels(horizons) -> tuple[str, ...]:
    """The channels of a sample file: `INPUT_CHANNELS`, then each
    horizon's `TARGET_CHANNELS` tagged with its lead time (`c@12h`)."""
    return INPUT_CHANNELS + tuple(f"{n}@{h}h" for h in horizons for n in TARGET_CHANNELS)


def write_dataset(
    out_dir,
    samples: list[Sample],
    tw: TerrainWind,
    mask: LandMask,
    stats: NormStats,
    seed: int,
    *,
    val_fraction: float,
) -> None:
    """Persist a dataset directory on the mask's grid: `terrain.gfd` with
    channels `TERRAIN_CHANNELS`, one `samples/{index:06d}.gfd` per sample
    holding `sample_channels`, and `manifest.txt`, the `key = value` lines
    of `MANIFEST_KEYS`; `val_fraction` is the `train.val_fraction` whose
    training split `stats` were fit on. Every sample must share the first
    one's lead times, and the `data.*` values, the split and the stats must
    make a manifest `read_dataset` takes; all are checked before any file
    is touched. Any old manifest is removed first, and the new one is
    written last and atomically, so a killed writer leaves no
    `manifest.txt` (not even over an older dataset) and `read_dataset`
    refuses the directory. Files in `samples/`
    other than the new samples', such as an older and larger dataset's,
    are removed before it is written."""
    horizons = samples[0].lead_times if samples else ()
    if any(s.lead_times != horizons for s in samples):
        raise DataError(f"samples differ in lead times; sample 0 has {horizons}")
    data = DataConfig(count=len(samples), base_speed=tw.base_speed, horizons=horizons)
    split = TrainConfig(val_fraction=val_fraction)
    kv = {k: v for k, v in {**encode(data, "data"), **encode(split, "train")}.items()
          if k in MANIFEST_KEYS}
    kv.update(format=DATASET_FORMAT, seed=str(int(seed)))
    for name in INPUT_CHANNELS:
        kv.update(encode(stats.for_channel(name), f"stats.{name}"))
    out = Path(out_dir)
    (out / "samples").mkdir(parents=True, exist_ok=True)
    (out / "manifest.txt").unlink(missing_ok=True)
    spec = mask.spec
    terrain = np.stack([tw.elevation, tw.u, tw.v, mask.mask]).astype(np.float32)
    write_grid(Field(spec, TERRAIN_CHANNELS, terrain, ("m", "m/s", "m/s", "")),
               out / "terrain.gfd")
    channels = sample_channels(horizons)
    for i, s in enumerate(samples):
        parts = (s.input, *s.targets)
        stack = np.concatenate([f.data for f in parts])
        units = tuple(u for f in parts for u in f.units)
        write_grid(Field(spec, channels, stack, units), out / f"samples/{i:06d}.gfd")
    named = {f"{i:06d}.gfd" for i in range(len(samples))}
    for path in (out / "samples").iterdir():
        if path.name not in named:
            path.unlink()
    write_atomic(out / "manifest.txt", format_kv(kv).encode("utf-8"))


def read_dataset(in_dir) -> DatasetBundle:
    """Load a dataset directory written by :func:`write_dataset`; each
    sample's input and targets are views of its one file's payload. A
    manifest with an older header or without one of `MANIFEST_KEYS` (both
    refused with a note to regenerate it), a line that is not UTF-8 or
    `key = value`, a key outside `MANIFEST_KEYS`, another `format`,
    `data.*` values that `DataConfig` refuses, a `train.val_fraction` that
    `TrainConfig` refuses or stats that `ChannelStats` refuses raises
    FormatError naming the manifest and the line or key. A missing
    file, a `terrain.gfd` without channels `TERRAIN_CHANNELS` or whose mask
    is not 0 and 1 or selects no cell, and a sample file whose channels
    are not `sample_channels(horizons)` or whose grid is not
    `terrain.gfd`'s raise DataError naming the file."""
    root = Path(in_dir)
    manifest = root / "manifest.txt"
    if not manifest.exists():
        raise DataError(f"{root}: no manifest.txt (incomplete or missing dataset)")
    if next(read_lines(manifest, FormatError), (1, ""))[1].startswith("# topoflow dataset "):
        raise FormatError(f"{manifest}:1: an older topoflow dataset header; {REGENERATE}")
    kv = read_kv(manifest, FormatError, known=MANIFEST_KEYS)
    # decode fills a key left out with its default, so each is checked here
    for key in MANIFEST_KEYS:
        if key not in kv:
            raise FormatError(f"{manifest}: missing key {key!r}; {REGENERATE}")
    if kv["format"] != DATASET_FORMAT:
        raise FormatError(f"{manifest}: format = {kv['format']}, not {DATASET_FORMAT}; "
                          f"{REGENERATE}")
    try:
        data = decode(DataConfig, kv, "data")
        split = decode(TrainConfig, kv, "train")
    except ConfigError as err:
        raise FormatError(f"{manifest}: {err}") from None
    entries = {}
    for name in INPUT_CHANNELS:
        try:
            entries[name] = decode(ChannelStats, kv, f"stats.{name}")
        except ConfigError as err:   # StatsError included
            raise FormatError(f"{manifest}: stats.{name}: {err}") from None
    terrain = read_grid(root / "terrain.gfd")
    if terrain.channels != TERRAIN_CHANNELS:
        raise DataError(f"{root}/terrain.gfd: expected channels {TERRAIN_CHANNELS}")
    spec = terrain.spec
    try:
        mask = LandMask(spec, terrain.channel("mask"))
    except DataError as err:   # MaskError included
        raise DataError(f"{root}/terrain.gfd: channel 'mask': {err}") from None
    channels = sample_channels(data.horizons)
    n_in, n_out = len(INPUT_CHANNELS), len(TARGET_CHANNELS)
    samples = []
    for index in range(data.count):
        path = root / f"samples/{index:06d}.gfd"
        grid = read_grid(path)
        if grid.channels != channels:
            raise DataError(f"{path}: holds {grid.channels}, expected channels {channels}")
        if grid.spec != spec:
            raise DataError(f"{path}: on {grid.spec}, terrain.gfd on {spec}")
        inp = Field(spec, INPUT_CHANNELS, grid.data[:n_in], grid.units[:n_in])
        targets = tuple(
            Field(spec, TARGET_CHANNELS, grid.data[k : k + n_out], grid.units[k : k + n_out])
            for k in range(n_in, len(channels), n_out)
        )
        samples.append(Sample(inp, targets, data.horizons))
    tw = TerrainWind(*terrain.data[:3], base_speed=data.base_speed)
    return DatasetBundle(spec, tuple(samples), tw, mask, NormStats(entries), data.horizons,
                         split.val_fraction)
