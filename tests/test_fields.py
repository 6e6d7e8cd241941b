import math
import struct

import numpy as np
import pytest

from topoflow import fields
from topoflow.config import decode, encode, format_kv, read_kv
from topoflow.errors import ConfigError, DataError, FormatError, MaskError, ShapeError, StatsError
from topoflow.fields import ChannelStats, Field, GridSpec, LandMask, NormStats, Sample


def tiny_spec():
    return GridSpec(2, 2, 1, 1, 1)


def make_field(values, channels=("c",), units=("ug/m3",), spec=None):
    spec = spec or tiny_spec()
    data = np.asarray(values, dtype=np.float32).reshape(len(channels), spec.height, spec.width)
    return Field(spec, channels, data, units)


# -- GridSpec ---------------------------------------------------------------

def test_gridspec_counts():
    spec = GridSpec(32, 64, 2, 8, 8)
    assert spec.n_patches == (32 // 2) * (64 // 2) == 512
    assert spec.n_sectors == 8
    assert spec.patches_per_sector == 64


@pytest.mark.parametrize(
    "args",
    [
        (31, 64, 2, 8, 8),   # H not divisible by p
        (32, 66, 2, 8, 8),   # W not divisible by p
        (32, 64, 2, 8, 5),   # patch rows not divisible by sector rows
        (32, 64, 2, 5, 8),   # patch cols not divisible by sector cols
        (32, 64, 0, 8, 8),
    ],
)
def test_gridspec_rejects_bad_geometry(args):
    with pytest.raises(ConfigError):
        GridSpec(*args)


# -- normalization ----------------------------------------------------------

def test_zscore_centering_identity():
    f = make_field([10.0, 10.0, 10.0, 10.0])
    stats = NormStats({"c": ChannelStats("zscore", 10.0, 4.0)})
    assert np.all(fields.normalize(f, stats).data == 0.0)


def test_zscore_hand_value():
    f = make_field([12.0, 10.0, 14.0, 6.0])
    stats = NormStats({"c": ChannelStats("zscore", 10.0, 4.0)})
    out = fields.normalize(f, stats)
    assert out.data[0, 0, 0] == pytest.approx(0.5)
    back = stats.for_channel("c").apply(out.data, forward=False)
    assert back[0, 0, 0] == pytest.approx(12.0)


def test_minmax_endpoints():
    f = make_field([0.0, 5698.0, 2849.0, 0.0])
    stats = NormStats({"c": ChannelStats("minmax", 0.0, 5698.0)})
    out = fields.normalize(f, stats)
    assert out.data[0, 0, 0] == 0.0
    assert out.data[0, 0, 1] == 1.0
    back = stats.for_channel("c").apply(out.data, forward=False)
    assert back[0, 0, 1] == pytest.approx(5698.0)


def test_round_trip_identity_within_tolerance():
    rng = np.random.default_rng(7)
    f = make_field(rng.normal(50.0, 20.0, 4))
    stats = NormStats({"c": ChannelStats("zscore", 47.3, 19.1)})
    # back to physical units as evalkit.report maps its predictions
    c = stats.for_channel("c")
    back = c.apply(fields.normalize(f, stats).data, forward=False)
    rel = np.abs(back - f.data) / np.maximum(np.abs(f.data), 1e-6)
    assert rel.max() < 1e-6
    fwd = fields.normalize(f.with_data(c.apply(f.data, forward=False)), stats)
    assert np.abs(fwd.data - f.data).max() < 1e-5


def test_missing_stats_entry_is_config_error():
    f = make_field([1, 2, 3, 4])
    with pytest.raises(ConfigError):
        fields.normalize(f, NormStats({"other": ChannelStats("none")}))


def test_invalid_stats_rejected():
    with pytest.raises(StatsError):
        ChannelStats("zscore", 0.0, 0.0)
    with pytest.raises(StatsError):
        ChannelStats("minmax", 5.0, 5.0)
    with pytest.raises(StatsError):
        ChannelStats("quantile", 0.0, 1.0)
    for a, b in ((math.nan, 1.0), (0.0, math.inf), (-math.inf, math.inf)):
        with pytest.raises(StatsError, match="must be finite"):
            ChannelStats("minmax", a, b)


def test_fit_stats_from_training_fields():
    rng = np.random.default_rng(3)
    fs = [make_field(rng.normal(4.0, 2.0, 4)) for _ in range(8)]
    stats = NormStats.fit(fs, {"c": "zscore"})
    st = stats.for_channel("c")
    values = np.concatenate([f.data.ravel() for f in fs]).astype(np.float64)
    assert st.a == pytest.approx(values.mean())
    assert st.b == pytest.approx(values.std())


def test_stats_save_load_round_trip(tmp_path):
    # stats are saved as `stats.<channel>.*` lines, the form a dataset manifest holds
    stats = NormStats({
        "c": ChannelStats("zscore", 1.25, 0.1),
        "elev": ChannelStats("minmax", -10.0, 5698.0),
        "hour_sin": ChannelStats("none"),
    })
    kv = {}
    for name, st in stats.entries.items():
        kv.update(encode(st, f"stats.{name}"))
    path = tmp_path / "stats.txt"
    path.write_text(format_kv(kv))
    back = read_kv(path, FormatError)
    loaded = NormStats({name: decode(ChannelStats, back, f"stats.{name}") for name in stats.entries})
    assert loaded.entries == stats.entries


# -- temporal encoding ------------------------------------------------------

def test_temporal_encoding_phase_zero_and_full_period():
    enc = fields.temporal_encoding(0, 365)
    assert enc[0] == 0.0 and enc[1] == 1.0
    assert abs(enc[2]) < 1e-9 and enc[3] == pytest.approx(1.0)


def test_temporal_encoding_quarter_period():
    enc = fields.temporal_encoding(6, 100)
    assert enc[0] == pytest.approx(1.0)
    assert abs(enc[1]) < 1e-12


def test_temporal_encoding_hand_value():
    enc = fields.temporal_encoding(3, 50)
    assert enc[0] == pytest.approx(math.sqrt(2) / 2)
    assert enc[1] == pytest.approx(math.sqrt(2) / 2)


def test_temporal_encoding_unit_circle():
    for hour in range(24):
        for doy in (1, 73, 200, 365):
            enc = fields.temporal_encoding(hour, doy)
            assert abs(enc[0] ** 2 + enc[1] ** 2 - 1.0) < 1e-12
            assert abs(enc[2] ** 2 + enc[3] ** 2 - 1.0) < 1e-12


@pytest.mark.parametrize("hour,doy", [(-1, 10), (24, 10), (5, 0), (5, 366)])
def test_temporal_encoding_range_errors(hour, doy):
    with pytest.raises(DataError):
        fields.temporal_encoding(hour, doy)


# -- Field / LandMask / Sample validation ------------------------------------

def test_field_rejects_nan_and_duplicates():
    spec = tiny_spec()
    with pytest.raises(DataError):
        Field(spec, ("a",), np.full((1, 2, 2), np.nan, dtype=np.float32), ("",))
    with pytest.raises(DataError):
        Field(spec, ("a", "a"), np.zeros((2, 2, 2), dtype=np.float32), ("", ""))
    with pytest.raises(ShapeError):
        Field(spec, ("a",), np.zeros((1, 3, 2), dtype=np.float32), ("",))


def test_mask_validation():
    spec = tiny_spec()
    with pytest.raises(MaskError):
        LandMask(spec, np.zeros((2, 2)))
    with pytest.raises(MaskError):
        fields.mask_array(np.zeros((2, 2)))
    with pytest.raises(DataError):
        LandMask(spec, np.full((2, 2), 0.5))
    m = LandMask(spec, np.array([[1, 0], [1, 1]]))
    assert m.count == 3


def test_sample_validation():
    f = make_field([1, 2, 3, 4])
    t = make_field([1, 1, 1, 1])
    s = Sample(f, (t, t), (12, 24))
    assert s.lead_times == (12, 24)
    with pytest.raises(DataError):
        Sample(f, (t, t), (24, 12))
    with pytest.raises(ShapeError):
        Sample(f, (t,), (12, 24))


# -- .gfd container ----------------------------------------------------------

def test_gfd_round_trip_bitwise(tmp_path):
    spec = GridSpec(4, 8, 2, 2, 2)
    rng = np.random.default_rng(11)
    data = rng.normal(size=(3, 4, 8)).astype(np.float32)
    data[0, 0, 0] = -0.0  # signed zero survives
    data[1, 2, 3] = np.float32(1.17549435e-38)
    f = Field(spec, ("u", "v", "c"), data, ("m/s", "m/s", "ug/m3"))
    path = tmp_path / "f.gfd"
    fields.write_grid(f, path)
    g = fields.read_grid(path)
    assert g.channels == f.channels and g.units == f.units and g.spec == f.spec
    assert g.data.tobytes() == f.data.tobytes()
    fields.write_grid(g, tmp_path / "g.gfd")
    assert (tmp_path / "f.gfd").read_bytes() == (tmp_path / "g.gfd").read_bytes()


def test_gfd_mask_round_trip(tmp_path):
    # a mask is stored as a "mask" channel of a container, as in a dataset's terrain.gfd
    spec = tiny_spec()
    mask = LandMask(spec, np.array([[1, 0], [1, 1]]))
    field = Field(spec, ("mask",), mask.mask[None].astype(np.float32), ("",))
    fields.write_grid(field, tmp_path / "m.gfd")
    back = fields.read_grid(tmp_path / "m.gfd")
    assert back.channels == ("mask",)
    restored = LandMask(spec, back.channel("mask"))
    assert np.array_equal(restored.mask, mask.mask) and restored.count == mask.count


def test_gfd_hand_layout(tmp_path):
    # 1 channel, 2x2 grid: header + one channel record + 16 payload bytes
    f = make_field([1.0, 2.0, 3.0, 4.0], channels=("c",), units=("",))
    path = tmp_path / "hand.gfd"
    fields.write_grid(f, path)
    raw = path.read_bytes()
    expect = b"GFD1"
    expect += struct.pack("<7I", 1, 1, 2, 2, 1, 1, 1)
    expect += struct.pack("<H", 1) + b"c" + struct.pack("<H", 0)
    payload = (
        b"\x00\x00\x80\x3f"   # 1.0
        b"\x00\x00\x00\x40"   # 2.0
        b"\x00\x00\x40\x40"   # 3.0
        b"\x00\x00\x80\x40"   # 4.0
    )
    assert raw == expect + payload
    assert len(payload) == 16


def test_gfd_bad_magic(tmp_path):
    path = tmp_path / "bad.gfd"
    path.write_bytes(b"XGFD" + b"\x00" * 40)
    with pytest.raises(FormatError) as err:
        fields.read_grid(path)
    assert err.value.offset == 0


def test_gfd_bad_version(tmp_path):
    f = make_field([1, 2, 3, 4])
    path = tmp_path / "v.gfd"
    fields.write_grid(f, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as err:
        fields.read_grid(path)
    assert err.value.offset == 4


def test_gfd_truncation_reports_offset(tmp_path):
    f = make_field([1, 2, 3, 4])
    path = tmp_path / "t.gfd"
    fields.write_grid(f, path)
    raw = path.read_bytes()
    for cut in (2, 10, 33, len(raw) - 3):
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError) as err:
            fields.read_grid(path)
        assert err.value.offset == cut
    path.write_bytes(raw + b"\x00")
    with pytest.raises(FormatError):
        fields.read_grid(path)


def test_gfd_rejects_non_finite_payload(tmp_path):
    f = make_field([1, 2, 3, 4])
    path = tmp_path / "n.gfd"
    fields.write_grid(f, path)
    raw = bytearray(path.read_bytes())
    raw[-4:] = struct.pack("<f", np.inf)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        fields.read_grid(path)
