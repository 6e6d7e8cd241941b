"""Dimensioned gridded fields, masks, normalization, and the .gfd tensor file.

Every other module moves data around as `Field` objects: a stack of named
2D channels over a common `GridSpec`. The grid spec also fixes the patch
and sector geometry used by the transformer, so it travels inside every
file written by this package.

Channel order convention (fixed, part of the format contract): meteorology
first (u, v), then pollutant/tracer channels, then coordinates (x, y), then
static fields (elevation), then the four temporal encodings. The synthetic
datasets carry 10 input channels; the four temporal encodings are appended
beyond the tabulated variable count, a deliberate convention noted here
rather than resolved.

.gfd container layout (all integers little-endian):
    bytes 0..3    magic b"GFD1"
    u32           version (currently 1)
    u32 x 6       channel count C, grid H, grid W, patch p, sector cols c,
                  sector rows r
    C records     u16 name length, UTF-8 name, u16 unit length, UTF-8 unit
    payload       C*H*W IEEE-754 binary32 values, little-endian, row-major
                  within a channel, channels concatenated in order

A dataset's study mask is the `mask` channel of its terrain container,
next to elevation and the reference wind, with values exactly 0.0 or 1.0.
A dataset sample is one container too: the input channels, then each
horizon's target channels tagged with its lead time (`c@12h`, see
`synthdata.sample_channels`), which the reader slices back into views of
the one payload. Round trips are bitwise exact for every
finite binary32 value including signed zeros; non-finite payloads are
rejected at load time.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import GridSpec, read_bytes
from .errors import ConfigError, DataError, FormatError, MaskError, ShapeError, StatsError

GFD_MAGIC = b"GFD1"
GFD_VERSION = 1


@dataclass(frozen=True)
class Field:
    """Named 2D channels over one grid. Immutable after construction."""

    spec: GridSpec
    channels: tuple[str, ...]
    data: np.ndarray              # (C, H, W) float32
    units: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(self, "units", tuple(self.units))
        data = np.ascontiguousarray(self.data, dtype=np.float32)
        object.__setattr__(self, "data", data)
        c = len(self.channels)
        if len(self.units) != c:
            raise ShapeError(f"{c} channels but {len(self.units)} unit tags")
        if len(set(self.channels)) != c:
            raise DataError(f"duplicate channel names in {self.channels}")
        want = (c, self.spec.height, self.spec.width)
        if data.shape != want:
            raise ShapeError(f"field data shape {data.shape}, expected {want}")
        if not np.isfinite(data).all():
            raise DataError("field contains non-finite values")
        data.flags.writeable = False

    def index(self, name: str) -> int:
        try:
            return self.channels.index(name)
        except ValueError:
            raise ConfigError(f"no channel {name!r}; have {self.channels}") from None

    def channel(self, name: str) -> np.ndarray:
        """Read-only (H, W) view of one channel."""
        return self.data[self.index(name)]

    def with_data(self, data: np.ndarray) -> "Field":
        return Field(self.spec, self.channels, data, self.units)


@dataclass(frozen=True)
class LandMask:
    """Binary study-region mask restricting loss and metrics."""

    spec: GridSpec
    mask: np.ndarray   # (H, W), values in {0, 1}

    def __post_init__(self):
        m = np.ascontiguousarray(self.mask)
        if m.shape != (self.spec.height, self.spec.width):
            raise ShapeError(
                f"mask shape {m.shape}, expected {(self.spec.height, self.spec.width)}"
            )
        if not np.isin(m, (0, 1)).all():
            raise DataError("mask values must be 0 or 1")
        m = m.astype(np.uint8)
        if m.sum() == 0:
            raise MaskError("mask selects no cells")
        m.flags.writeable = False
        object.__setattr__(self, "mask", m)

    @property
    def count(self) -> int:
        """Number of selected cells, the loss normalizer."""
        return int(self.mask.sum())


def mask_array(mask, dtype=bool) -> np.ndarray:
    """(H, W) cell selection of a LandMask or plain array, cast to `dtype`."""
    m = mask.mask if isinstance(mask, LandMask) else np.asarray(mask)
    if m.sum() == 0:
        raise MaskError("mask selects no cells")
    return m.astype(dtype)


@dataclass(frozen=True)
class ChannelStats:
    """Normalization rule for one channel.

    kind "zscore": a = mean, b = std; "minmax": a = lo, b = hi; "none"
    passes through unchanged.
    """

    kind: str
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zscore", "minmax", "none"):
            raise StatsError(f"unknown normalization kind {self.kind!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise StatsError(f"a = {self.a} and b = {self.b} must be finite")
        if self.kind == "zscore" and not self.b > 0:
            raise StatsError(f"zscore sigma must be > 0, got {self.b}")
        if self.kind == "minmax" and not self.b > self.a:
            raise StatsError(f"minmax needs hi > lo, got lo={self.a}, hi={self.b}")

    def apply(self, x: np.ndarray, forward: bool = True) -> np.ndarray:
        """Map raw values into model space, or back with forward=False."""
        if self.kind == "zscore":
            return (x - self.a) / self.b if forward else x * self.b + self.a
        if self.kind == "minmax":
            span = self.b - self.a
            return (x - self.a) / span if forward else x * span + self.a
        return x


@dataclass(frozen=True)
class NormStats:
    """Per-channel normalization statistics, fit on the training split only."""

    entries: Mapping[str, ChannelStats]

    def __post_init__(self):
        object.__setattr__(self, "entries", dict(self.entries))

    def for_channel(self, name: str) -> ChannelStats:
        try:
            return self.entries[name]
        except KeyError:
            raise ConfigError(f"no normalization stats for channel {name!r}") from None

    @classmethod
    def fit(cls, fields: Sequence[Field], kinds: Mapping[str, str]) -> "NormStats":
        """Compute stats over `fields` with the per-channel kind map.

        Channels absent from `kinds` default to "none". Constant channels
        degrade to "none" as well (their zscore/minmax maps are undefined).
        Statistics are computed in float64 over all fields concatenated.
        """
        if not fields:
            raise ConfigError("cannot fit stats on an empty field list")
        entries: dict[str, ChannelStats] = {}
        for name in fields[0].channels:
            kind = kinds.get(name, "none")
            values = np.concatenate(
                [f.channel(name).ravel() for f in fields]
            ).astype(np.float64)
            if kind == "zscore" and values.std() > 0:
                entries[name] = ChannelStats("zscore", float(values.mean()), float(values.std()))
            elif kind == "minmax" and values.max() > values.min():
                entries[name] = ChannelStats("minmax", float(values.min()), float(values.max()))
            else:
                entries[name] = ChannelStats("none")
        return cls(entries)


def normalize(field: Field, stats: NormStats) -> Field:
    """Map each channel into model space per its stats entry."""
    out = np.empty_like(field.data, dtype=np.float32)
    for i, name in enumerate(field.channels):
        out[i] = stats.for_channel(name).apply(field.data[i])
    return field.with_data(out)


def temporal_encoding(hour: int, doy: int) -> np.ndarray:
    """Sinusoidal encoding of hour-of-day (0..23) and day-of-year (1..365).

    Returns [sin(2*pi*hour/24), cos(2*pi*hour/24), sin(2*pi*doy/365),
    cos(2*pi*doy/365)] as float64.
    """
    if not 0 <= int(hour) <= 23 or int(hour) != hour:
        raise DataError(f"hour must be an integer in 0..23, got {hour!r}")
    if not 1 <= int(doy) <= 365 or int(doy) != doy:
        raise DataError(f"day-of-year must be an integer in 1..365, got {doy!r}")
    th = 2.0 * math.pi * hour / 24.0
    td = 2.0 * math.pi * doy / 365.0
    return np.array([math.sin(th), math.cos(th), math.sin(td), math.cos(td)])



@dataclass(frozen=True)
class Sample:
    """One forecasting example: input field plus one target per lead time."""

    input: Field
    targets: tuple[Field, ...]
    lead_times: tuple[int, ...]   # hours, strictly increasing

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "lead_times", tuple(int(t) for t in self.lead_times))
        if len(self.targets) != len(self.lead_times):
            raise ShapeError(
                f"{len(self.targets)} targets for {len(self.lead_times)} lead times"
            )
        if any(b <= a for a, b in zip(self.lead_times, self.lead_times[1:])):
            raise DataError(f"lead times must be strictly increasing: {self.lead_times}")
        for t in self.targets:
            if t.spec != self.input.spec:
                raise ShapeError("sample input and targets must share one grid spec")


# ---------------------------------------------------------------------------
# .gfd read/write
# ---------------------------------------------------------------------------

def write_grid(field: Field, path) -> None:
    """Serialize a Field to the .gfd container, atomically."""
    spec = field.spec
    parts = [GFD_MAGIC]
    parts.append(
        struct.pack(
            "<7I",
            GFD_VERSION,
            len(field.channels),
            spec.height,
            spec.width,
            spec.patch,
            spec.sector_cols,
            spec.sector_rows,
        )
    )
    for name, unit in zip(field.channels, field.units):
        nb, ub = name.encode("utf-8"), unit.encode("utf-8")
        parts.append(struct.pack("<H", len(nb)) + nb + struct.pack("<H", len(ub)) + ub)
    parts.append(field.data.astype("<f4").tobytes())
    write_atomic(path, b"".join(parts))


def write_atomic(path, data: bytes) -> None:
    """Write `<path>.tmp`, then rename it over `path`: a killed writer
    leaves the old file whole. Not fsynced, so not proof against power loss."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def read_grid(path) -> Field:
    """Parse a .gfd container; an unreadable file raises DataError, a
    malformed one FormatError with its offset."""
    raw = read_bytes(path, DataError)

    def malformed(message: str, offset: int) -> FormatError:
        return FormatError(f"{path}: {message}", offset=offset)

    def need(n: int, offset: int, what: str) -> None:
        if offset + n > len(raw):
            raise malformed(f"truncated file while reading {what}", len(raw))

    need(4, 0, "magic")
    if raw[:4] != GFD_MAGIC:
        raise malformed(f"bad magic {raw[:4]!r}, expected {GFD_MAGIC!r}", 0)
    need(28, 4, "header")
    version, n_ch, h, w, p, sc, sr = struct.unpack_from("<7I", raw, 4)
    if version != GFD_VERSION:
        raise malformed(f"unsupported version {version}", 4)
    offset = 32
    try:
        spec = GridSpec(h, w, p, sc, sr)
    except ConfigError as exc:
        raise malformed(f"invalid grid header: {exc}", 8) from None
    channels: list[str] = []
    units: list[str] = []
    for i in range(n_ch):
        for dest, what in ((channels, "name"), (units, "unit")):
            need(2, offset, f"channel {i} {what} length")
            (ln,) = struct.unpack_from("<H", raw, offset)
            offset += 2
            need(ln, offset, f"channel {i} {what}")
            try:
                dest.append(raw[offset : offset + ln].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise malformed(f"channel {i} {what} is not UTF-8", offset + exc.start) from None
            offset += ln
    count = n_ch * h * w
    need(4 * count, offset, "payload")
    if len(raw) != offset + 4 * count:
        raise malformed("trailing bytes after payload", offset + 4 * count)
    data = np.frombuffer(raw, dtype="<f4", count=count, offset=offset).reshape(n_ch, h, w)
    if not np.isfinite(data).all():
        raise DataError(f"{path}: non-finite values in payload")
    return Field(spec, tuple(channels), data, tuple(units))
