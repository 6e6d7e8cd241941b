"""Config dataclasses, their `section.field = value` text, and the file reader.

GridSpec, PhysicsConfig, DataConfig, ModelConfig and TrainConfig live here
with their checks and without numpy, so the CLI derives its defaults from
them before it caps threads. One codec serves the CLI's config and the
checkpoint sidecar. Keys are the dataclass field names under a section
prefix; a nested dataclass field such as `ModelConfig.spec` adds one more
level (`model.spec.height`). Values are parsed by the field's annotation:
bool (`true`/`false`), int, float, str, or a comma-separated
`tuple[T, ...]`. A value that does not parse, and an absent key for a
field without a default, raise ConfigError naming the key.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import typing
from dataclasses import dataclass

from .errors import ConfigError, StabilityError

TEMPORAL_CHANNELS = ("hour_sin", "hour_cos", "doy_sin", "doy_cos")
INPUT_CHANNELS = ("u", "v", "c", "x", "y", "elev") + TEMPORAL_CHANNELS
TARGET_CHANNELS = ("c",)


@dataclass(frozen=True)
class GridSpec:
    """Grid geometry: cell counts plus patch and sector tiling."""

    height: int       # H, grid rows (cells)
    width: int        # W, grid cols (cells)
    patch: int        # p, cells per patch edge
    sector_cols: int  # c, patches per sector edge along x
    sector_rows: int  # r, patches per sector edge along y

    def __post_init__(self):
        for name in ("height", "width", "patch", "sector_cols", "sector_rows"):
            v = getattr(self, name)
            if not hasattr(v, "__index__") or operator.index(v) <= 0:
                raise ConfigError(f"GridSpec.{name} must be a positive integer, got {v!r}")
        if self.height % self.patch or self.width % self.patch:
            raise ConfigError(
                f"grid {self.height}x{self.width} not divisible by patch {self.patch}"
            )
        if self.patches_y % self.sector_rows or self.patches_x % self.sector_cols:
            raise ConfigError(
                f"patch grid {self.patches_y}x{self.patches_x} not divisible by "
                f"sector {self.sector_rows}x{self.sector_cols}"
            )

    @property
    def patches_y(self) -> int:
        return self.height // self.patch

    @property
    def patches_x(self) -> int:
        return self.width // self.patch

    @property
    def n_patches(self) -> int:
        """N, total patch (token) count."""
        return self.patches_y * self.patches_x

    @property
    def sectors_y(self) -> int:
        return self.patches_y // self.sector_rows

    @property
    def sectors_x(self) -> int:
        return self.patches_x // self.sector_cols

    @property
    def n_sectors(self) -> int:
        """K, number of sectors."""
        return self.sectors_y * self.sectors_x

    @property
    def patches_per_sector(self) -> int:
        """M = c * r."""
        return self.sector_cols * self.sector_rows


# the desk grid (N = 512 tokens); a constant, not GridSpec field defaults,
# so a checkpoint sidecar missing a `model.spec.*` key still fails to decode
DESK_GRID = GridSpec(32, 64, 2, 8, 8)


def _check_fields(cfg, section: str, positive=(), nonnegative=()) -> None:
    """ConfigError naming `section.field` for a float field that is NaN
    (which passes every comparison) or infinite, a `positive` field <= 0,
    or a `nonnegative` field < 0."""
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigError(f"{section}.{f.name} = {v} is not finite")
        if (f.name in positive and v <= 0) or (f.name in nonnegative and v < 0):
            raise ConfigError(
                f"{section}.{f.name} = {v} must be {'>' if f.name in positive else '>='} 0"
            )


@dataclass(frozen=True)
class PhysicsConfig:
    """Integrator constants; CFL bounds are enforced at construction."""

    kappa: float = 40.0            # diffusivity, m^2/s
    dt: float = 150.0              # integrator step, s
    dx: float = 2000.0             # cell size, m
    boundary: str = "periodic"     # periodic | clamped
    sink: float = 6.7e-5           # decay rate, 1/s
    max_wind: float = 6.0          # CFL wind bound, m/s
    hours_per_step: float = 12.0   # nominal label hours per model step
    substeps: int = 12             # integrator steps per model step

    def __post_init__(self):
        _check_fields(self, "physics", nonnegative=("kappa", "sink"),
                      positive=("dt", "dx", "max_wind", "hours_per_step", "substeps"))
        if self.boundary not in ("periodic", "clamped"):
            raise ConfigError(f"unknown physics.boundary {self.boundary!r}")
        adv = self.max_wind * self.dt / self.dx
        if adv > 0.5:
            raise StabilityError(f"advective CFL {adv:.3f} > 0.5 for physics.max_wind")
        dif = self.kappa * self.dt / self.dx**2
        if dif > 0.25:
            raise StabilityError(f"diffusive CFL {dif:.3f} > 0.25 for physics.kappa")

    def steps_for_hours(self, hours: float) -> int:
        n = hours / self.hours_per_step
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ConfigError(
                f"data.horizons: {hours} h is not a positive multiple of "
                f"physics.hours_per_step = {self.hours_per_step} h"
            )
        return int(round(n)) * self.substeps


ARCHETYPES = ("flat", "ridge", "basin", "basin_ridge")


@dataclass(frozen=True)
class DataConfig:
    """The synthetic dataset `gen` writes; the defaults are the desk dataset.
    `PhysicsConfig.steps_for_hours` checks each horizon against its step."""

    archetype: str = "basin_ridge"          # one of ARCHETYPES
    base_speed: float = 2.0                 # reference wind speed, m/s
    count: int = 200                        # samples
    horizons: tuple[int, ...] = (12, 24, 48, 96)   # lead times, hours
    wind_mode: str = "rotate"               # rotate (a bearing per sample) | fixed
    source_mode: str = "random"             # random point sources | none
    init_mode: str = "textured"             # blobs | textured (blobs on a background)

    def __post_init__(self):
        for name, allowed in (
            ("archetype", ARCHETYPES),
            ("wind_mode", ("rotate", "fixed")),
            ("source_mode", ("random", "none")),
            ("init_mode", ("blobs", "textured")),
        ):
            given = getattr(self, name)
            if given not in allowed:
                raise ConfigError(f"unknown data.{name} {given!r}; pick from {allowed}")
        _check_fields(self, "data", positive=("count",), nonnegative=("base_speed",))
        h = self.horizons
        if not h or h[0] <= 0 or any(b <= a for a, b in zip(h, h[1:])):
            raise ConfigError(f"data.horizons must be positive and strictly increasing, got {h}")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture plus the two physics toggles (the ablation axes)."""

    spec: GridSpec
    d: int = 64                 # embedding width
    layers: int = 2             # transformer depth L
    heads: int = 4
    mlp_hidden: int = 256
    head_hidden: int = 256
    dropout: float = 0.1
    n_horizons: int = 4
    wind_reorder: bool = True
    elev_bias: bool = True

    def __post_init__(self):
        _check_fields(self, "model", positive=("d", "heads", "mlp_hidden", "head_hidden",
                                                "n_horizons"), nonnegative=("layers",))
        if self.d % self.heads:
            raise ConfigError(f"width {self.d} not divisible by {self.heads} heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"model.dropout = {self.dropout} is outside [0, 1)")

    @property
    def v_in(self) -> int:
        return len(INPUT_CHANNELS)

    @property
    def v_out(self) -> int:
        return len(TARGET_CHANNELS)

    @property
    def token_dim(self) -> int:
        return self.v_in * self.spec.patch**2

    @property
    def out_dim(self) -> int:
        return self.n_horizons * self.v_out * self.spec.patch**2


@dataclass(frozen=True)
class TrainConfig:
    """Optimization constants; the defaults are the desk schedule."""

    lr_base: float = 1e-4        # positional table, alpha
    lr_embed: float = 2e-4       # patch embedding
    lr_head: float = 5e-5        # prediction head
    lr_backbone: float = 1e-5    # transformer blocks
    weight_decay: float = 0.01
    warmup: int = 60
    total_steps: int = 600
    eta_min: float = 1e-6
    clip_norm: float = 1.0
    batch_size: int = 8
    patience: int = 10
    val_interval: int = 25
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        _check_fields(
            self, "train",
            positive=("lr_base", "lr_embed", "lr_head", "lr_backbone", "clip_norm",
                      "batch_size", "val_interval"),
            nonnegative=("warmup", "total_steps", "weight_decay", "eta_min", "patience", "seed"),
        )
        if self.warmup > self.total_steps:
            raise ConfigError(
                f"train.warmup = {self.warmup} > train.total_steps = {self.total_steps}"
            )
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"train.val_fraction = {self.val_fraction} is outside (0, 1)")

_EXPECTED = {bool: "true or false", int: "an integer", float: "a number"}


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_format(x) for x in value)
    return str(value)


def _parse(text: str, tp, key: str):
    if typing.get_origin(tp) is tuple:
        item = typing.get_args(tp)[0]
        return tuple(_parse(x, item, key) for x in text.split(",") if x)
    if tp is bool:
        if text.lower() not in ("true", "false"):
            raise ConfigError(f"{key} must be true or false, got {text!r}")
        return text.lower() == "true"
    try:
        return tp(text)
    except ValueError:
        raise ConfigError(f"{key} must be {_EXPECTED.get(tp, tp)}, got {text!r}") from None


def value(cfg: dict[str, str], key: str, tp):
    """One config value parsed as `tp` (a scalar type or `tuple[T, ...]`)."""
    return _parse(cfg[key], tp, key)


def encode(obj, section: str) -> dict[str, str]:
    """Every field of a config dataclass as `section.field` -> text."""
    out: dict[str, str] = {}
    for f in dataclasses.fields(obj):
        key = f"{section}.{f.name}"
        field_value = getattr(obj, f.name)
        if dataclasses.is_dataclass(field_value):
            out.update(encode(field_value, key))
        else:
            out[key] = _format(field_value)
    return out


def decode(cls, kv: dict[str, str], section: str, **given):
    """Build `cls` from `section.*` keys; `given` fields bypass the lookup.

    A key absent from `kv` leaves its field at the dataclass default.
    """
    hints = typing.get_type_hints(cls)
    args = dict(given)
    for f in dataclasses.fields(cls):
        if f.name in args:
            continue
        key = f"{section}.{f.name}"
        tp = hints[f.name]
        if dataclasses.is_dataclass(tp):
            args[f.name] = decode(tp, kv, key)
        elif key in kv:
            args[f.name] = _parse(kv[key], tp, key)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing config key {key!r}")
    return cls(**args)


def read_bytes(path, error) -> bytes:
    """The whole file; one that cannot be read raises `error` naming it."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror or exc})") from None


def read_lines(path, error):
    """(number, line with its end) per line; one not UTF-8 raises `error`."""
    for ln, raw in enumerate(read_bytes(path, error).splitlines(True), 1):
        try:
            yield ln, raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{path}:{ln}: not UTF-8 at column {exc.start}") from None


def read_kv(path, error, known=None) -> dict[str, str]:
    """The `key = value` lines of a file, less blank and `#` lines; any other
    line, or a key outside a given `known`, raises `error` at `file:line`."""
    out: dict[str, str] = {}
    for ln, line in read_lines(path, error):
        key, eq, text = (part.strip() for part in line.partition("="))
        if key.startswith("#") or not (key or eq):
            continue
        if not (key and eq):
            raise error(f"{path}:{ln}: expected 'key = value'")
        if known is not None and key not in known:
            raise error(f"{path}:{ln}: unknown key {key!r}")
        out[key] = text
    return out


def format_kv(kv: dict[str, str]) -> str:
    """The text `read_kv` reads back: one sorted `key = value` line per key."""
    return "".join(f"{key} = {kv[key]}\n" for key in sorted(kv))
