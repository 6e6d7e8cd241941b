import dataclasses
import math
import os
import zlib
from pathlib import Path

import numpy as np
import pytest

from topoflow import config, synthdata
from topoflow.config import DataConfig, decode, read_kv
from topoflow.errors import ConfigError, DataError, FitError, FormatError, StabilityError
from topoflow.fields import GridSpec, NormStats, read_grid
from topoflow.synthdata import PhysicsConfig, TerrainWind

import oracles


SPEC = GridSpec(32, 64, 2, 8, 8)


def uniform_terrain(spec, u=2.0, v=0.0):
    shape = (spec.height, spec.width)
    return TerrainWind(np.zeros(shape), np.full(shape, u), np.full(shape, v))


def quiet_config(**over):
    base = dict(kappa=0.0, dt=200.0, dx=1000.0, sink=0.0, max_wind=2.5, substeps=1)
    base.update(over)
    return PhysicsConfig(**base)


# -- terrain ------------------------------------------------------------------

def test_flat_terrain_is_exactly_zero():
    tw = synthdata.gen_terrain(SPEC, 1, DataConfig(archetype="flat"), PhysicsConfig())
    assert np.all(tw.elevation == 0.0)


def test_terrain_determinism_bitwise():
    a = synthdata.gen_terrain(SPEC, 7, DataConfig(), PhysicsConfig())
    b = synthdata.gen_terrain(SPEC, 7, DataConfig(), PhysicsConfig())
    assert a.elevation.tobytes() == b.elevation.tobytes()
    assert a.u.tobytes() == b.u.tobytes() and a.v.tobytes() == b.v.tobytes()
    c = synthdata.gen_terrain(SPEC, 8, DataConfig(), PhysicsConfig())
    assert a.elevation.tobytes() != c.elevation.tobytes()


def test_basin_interior_below_rim():
    tw = synthdata.gen_terrain(SPEC, 3, DataConfig(archetype="basin"), PhysicsConfig())
    h, w = SPEC.height, SPEC.width
    interior = tw.elevation[h // 2 - 2 : h // 2 + 2, w // 2 - 2 : w // 2 + 2]
    assert interior.min() < tw.elevation.max() * 0.5


def test_wind_bounded_and_unknown_archetype():
    tw = synthdata.gen_terrain(SPEC, 4, DataConfig(archetype="ridge"), PhysicsConfig(max_wind=5.0))
    assert np.hypot(tw.u, tw.v).max() <= 5.0 + 1e-9
    with pytest.raises(ConfigError, match="archetype"):
        DataConfig(archetype="volcano")


def test_study_mask_fraction():
    mask = synthdata.study_mask(SPEC)
    frac = mask.count / (SPEC.height * SPEC.width)
    assert 0.35 < frac < 0.60


# -- physics config -------------------------------------------------------------

def test_cfl_enforced_at_construction():
    with pytest.raises(StabilityError):
        PhysicsConfig(dt=600.0, dx=1000.0, max_wind=2.0)  # 1.2 > 0.5
    with pytest.raises(StabilityError):
        PhysicsConfig(kappa=2000.0, dt=200.0, dx=1000.0)  # 0.4 > 0.25
    with pytest.raises(ConfigError):
        PhysicsConfig(dt=-1.0)


def test_horizon_step_mapping():
    cfg = quiet_config(substeps=3)
    assert cfg.steps_for_hours(12) == 3
    assert cfg.steps_for_hours(96) == 24
    with pytest.raises(ConfigError):
        cfg.steps_for_hours(13)


# -- integrator ------------------------------------------------------------------

def test_step_no_dynamics_is_identity():
    tw = uniform_terrain(SPEC, 0.0, 0.0)
    cfg = quiet_config()
    rng = np.random.default_rng(0)
    c = rng.uniform(0, 10, (32, 64)).astype(np.float32)
    out = synthdata._step_array(c.astype(np.float64), tw.u, tw.v, cfg, ())
    np.testing.assert_array_equal(out, c)


def test_step_rejects_cfl_violation():
    cfg = quiet_config(dt=100.0, max_wind=4.0)
    tw = uniform_terrain(SPEC, 3.0, 0.0)
    fast = uniform_terrain(SPEC, 8.0, 0.0)  # exceeds the bound at step time
    c = np.zeros((32, 64))
    synthdata._check_cfl(tw.u, tw.v, cfg)
    synthdata._step_array(c, tw.u, tw.v, cfg, ())
    with pytest.raises(StabilityError):
        synthdata._check_cfl(fast.u, fast.v, cfg)


def gaussian_blob(spec, row, col, sigma=2.5, amp=50.0):
    rows = np.arange(spec.height)[:, None]
    cols = np.arange(spec.width)[None, :]
    return amp * np.exp(-((rows - row) ** 2 + (cols - col) ** 2) / (2 * sigma**2))


def test_mass_conserved_over_100_periodic_steps():
    rng = np.random.default_rng(1)
    tw = TerrainWind(
        np.zeros((32, 64)),
        rng.normal(0.0, 0.6, (32, 64)),
        rng.normal(0.0, 0.6, (32, 64)),
    )
    cfg = quiet_config(kappa=100.0)
    c = gaussian_blob(SPEC, 16, 20).astype(np.float64)
    total0 = c.sum()
    for _ in range(100):
        c = synthdata._step_array(c, tw.u, tw.v, cfg, ())
    assert abs(c.sum() - total0) / total0 < 1e-5


def test_gaussian_peak_advected_by_expected_cells():
    u = 2.0
    cfg = quiet_config()
    tw = uniform_terrain(SPEC, u, 0.0)
    start = (16, 10)
    c = gaussian_blob(SPEC, *start).astype(np.float64)
    n = 30
    for _ in range(n):
        c = synthdata._step_array(c, tw.u, tw.v, cfg, ())
    expected_cols = round(n * u * cfg.dt / cfg.dx)  # 12 cells east
    peak = np.unravel_index(np.argmax(c), c.shape)
    assert abs(peak[1] - (start[1] + expected_cols)) <= 1
    assert peak[0] == start[0]


def test_nonnegativity_preserved():
    rng = np.random.default_rng(2)
    tw = uniform_terrain(SPEC, 1.5, -1.0)
    cfg = quiet_config(kappa=30.0, sink=1e-4)
    sources = (((8, 8), 2e-3),)
    c = gaussian_blob(SPEC, 16, 32).astype(np.float64)
    for _ in range(200):
        c = synthdata._step_array(c, tw.u, tw.v, cfg, sources)
        assert c.min() >= 0.0


def test_clamped_boundary_does_not_wrap():
    tw = uniform_terrain(SPEC, 2.0, 0.0)
    cfg = quiet_config(boundary="clamped")
    c = gaussian_blob(SPEC, 16, 60).astype(np.float64)  # near the east edge
    total0 = c.sum()
    for _ in range(40):
        c = synthdata._step_array(c, tw.u, tw.v, cfg, ())
    assert c.sum() < total0 * 0.6          # mass left the domain
    assert c[:, :5].max() < 1e-6           # nothing reappeared in the west


def test_sink_is_multiplicative_decay():
    tw = uniform_terrain(SPEC, 0.0, 0.0)
    cfg = quiet_config(sink=1e-4)
    c = np.full((32, 64), 10.0)
    out = synthdata._step_array(c, tw.u, tw.v, cfg, ())
    np.testing.assert_allclose(out, 10.0 * math.exp(-1e-4 * cfg.dt), rtol=1e-12)


def reference_step(c, u, v, cfg, sources):
    """The one-step integrator as first written (np.roll / np.pad per step),
    kept here as the reference for the multi-step one."""
    lam = cfg.dt / cfg.dx
    if cfg.boundary == "periodic":
        uf = 0.5 * (u + np.roll(u, -1, axis=1))
        vf = 0.5 * (v + np.roll(v, -1, axis=0))
        fx = np.where(uf > 0, c, np.roll(c, -1, axis=1)) * uf
        fy = np.where(vf > 0, c, np.roll(c, -1, axis=0)) * vf
        adv = -lam * (fx - np.roll(fx, 1, axis=1)) - lam * (fy - np.roll(fy, 1, axis=0))
        lap = (
            np.roll(c, 1, 0) + np.roll(c, -1, 0) + np.roll(c, 1, 1) + np.roll(c, -1, 1) - 4.0 * c
        )
    else:
        h, w = c.shape
        ufx = np.empty((h, w + 1))
        ufx[:, 1:-1] = 0.5 * (u[:, :-1] + u[:, 1:])
        ufx[:, 0] = u[:, 0]
        ufx[:, -1] = u[:, -1]
        left = np.concatenate([np.zeros((h, 1)), c], axis=1)
        right = np.concatenate([c, np.zeros((h, 1))], axis=1)
        fx = np.where(ufx > 0, left, right) * ufx
        vfy = np.empty((h + 1, w))
        vfy[1:-1, :] = 0.5 * (v[:-1, :] + v[1:, :])
        vfy[0, :] = v[0, :]
        vfy[-1, :] = v[-1, :]
        top = np.concatenate([np.zeros((1, w)), c], axis=0)
        bottom = np.concatenate([c, np.zeros((1, w))], axis=0)
        fy = np.where(vfy > 0, top, bottom) * vfy
        adv = -lam * (fx[:, 1:] - fx[:, :-1]) - lam * (fy[1:, :] - fy[:-1, :])
        cp = np.pad(c, 1, mode="edge")
        lap = cp[:-2, 1:-1] + cp[2:, 1:-1] + cp[1:-1, :-2] + cp[1:-1, 2:] - 4.0 * c
    out = c + adv + (cfg.kappa * cfg.dt / cfg.dx**2) * lap
    for (row, col), rate in sources:
        out[row, col] += rate * cfg.dt
    if cfg.sink > 0:
        out *= math.exp(-cfg.sink * cfg.dt)
    return out


def awkward_winds(seed):
    """Winds with sign flips, exact-zero faces and both signs on every edge."""
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, 1.5, (32, 64))
    v = rng.normal(0.0, 1.5, (32, 64))
    u[:, 20] = -u[:, 21]            # x faces between columns 20 and 21 are 0
    u[:, 40:43] = 0.0               # a calm band: zero faces inside it
    v[10] = -v[11]                  # y faces between rows 10 and 11 are 0
    v[0, :32], v[-1, 32:] = 1.0, -1.0   # edges flow both ways
    u[:16, 0], u[16:, -1] = -1.0, 1.0
    u[:, 50:] *= -1.0               # a sign flip across a column
    return np.clip(u, -5.0, 5.0), np.clip(v, -5.0, 5.0)


@pytest.mark.parametrize("boundary", ["periodic", "clamped"])
def test_multi_step_call_equals_per_step_reference_bitwise(boundary):
    u, v = awkward_winds(3)
    cfg = PhysicsConfig(
        kappa=40.0, dt=150.0, dx=2000.0, boundary=boundary, sink=6.7e-5, max_wind=6.0
    )
    sources = (((5, 7), 3e-3), ((0, 63), 1e-3), ((-1, 0), 2e-3), ((5, 7), 1e-3))
    rng = np.random.default_rng(4)
    c0 = gaussian_blob(SPEC, 16, 3) + rng.uniform(0.0, 5.0, (32, 64))
    for k in (1, 2, 13, 48):
        ref = c0
        for _ in range(k):
            ref = reference_step(ref, u, v, cfg, sources)
        out = synthdata._step_array(c0, u, v, cfg, sources, steps=k)
        assert out.dtype == np.float64 and out.shape == c0.shape
        assert out.tobytes() == ref.tobytes(), (boundary, k)



@pytest.mark.parametrize("boundary", ["periodic", "clamped"])
@pytest.mark.parametrize("shape", [(5, 7), (3, 64)])
def test_span_edges_equal_per_step_reference_bitwise(shape, boundary):
    """Odd grids put the pad columns of the padded span next to every
    edge cell, and negative indices put sources on the last row and column."""
    h, w = shape
    rng = np.random.default_rng(h * w)
    u = np.clip(rng.normal(0.0, 1.5, shape), -5.0, 5.0)
    v = np.clip(rng.normal(0.0, 1.5, shape), -5.0, 5.0)
    u[0, 0], u[-1, -1], v[0, -1], v[-1, 0] = 1.0, -1.0, -1.0, 1.0
    cfg = PhysicsConfig(
        kappa=40.0, dt=150.0, dx=2000.0, boundary=boundary, sink=6.7e-5, max_wind=6.0
    )
    sources = (((2, -1), 3e-3), ((-1, 3), 2e-3), ((0, 0), 1e-3))
    c0 = rng.uniform(0.0, 30.0, shape)
    for k in (1, 13):
        ref = c0
        for _ in range(k):
            ref = reference_step(ref, u, v, cfg, sources)
        out = synthdata._step_array(c0, u, v, cfg, sources, steps=k)
        assert out.tobytes() == ref.tobytes(), (shape, boundary, k)
    for source in ((h, 0), (0, w), (-h - 1, 0)):
        with pytest.raises(IndexError):
            synthdata._step_array(c0, u, v, cfg, ((source, 1e-3),))

@pytest.mark.parametrize("boundary", ["periodic", "clamped"])
def test_integrator_leaves_input_alone_and_zero_steps_is_identity(boundary):
    u, v = awkward_winds(5)
    cfg = PhysicsConfig(boundary=boundary)
    sources = (((3, 3), 2e-3),)
    c = np.random.default_rng(6).uniform(0.0, 30.0, (32, 64))
    before = c.copy()
    same = synthdata._step_array(c, u, v, cfg, sources, steps=0)
    assert same.tobytes() == c.tobytes() and not np.shares_memory(same, c)
    out = synthdata._step_array(c, u, v, cfg, sources, steps=5)
    assert c.tobytes() == before.tobytes()
    assert out.flags.c_contiguous
    out[...] = 0.0                  # the result owns its memory
    assert c.tobytes() == before.tobytes()


def test_tiny_dataset_pinned_crc32():
    """Datasets stay bitwise what the one-step-per-call integrator made.

    The values hold for one numpy build: exp and the FFT feed the
    initial fields and winds, so a numpy whose kernels round differently
    moves them without any change here. They moved once, when a sample
    stopped holding x, y and elevation: they are the CRCs of the earlier
    samples' bytes less those three planes, so every plane a sample still
    holds kept its bits.
    """
    tw = synthdata.gen_terrain(SPEC, 5, DataConfig(), PhysicsConfig())
    data = DataConfig(count=3, horizons=(12, 24), init_mode="blobs")
    for boundary, pinned in (("periodic", "1b957239"), ("clamped", "a43a674b")):
        cfg = PhysicsConfig(boundary=boundary)
        crc = 0
        for s in synthdata.make_dataset(SPEC, tw, cfg, data, seed=9):
            for f in (s.input,) + s.targets:
                crc = zlib.crc32(f.data.tobytes(), crc)
        assert f"{crc:08x}" == pinned, boundary


# -- datasets -----------------------------------------------------------------------

def test_make_dataset_count_zero():
    # a dataset of no samples is refused when its config is built
    with pytest.raises(ConfigError, match="data.count"):
        DataConfig(count=0)


def test_zero_dynamics_target_equals_input():
    tw = uniform_terrain(SPEC, 0.0, 0.0)
    cfg = quiet_config()
    data = DataConfig(count=1, horizons=(12,), wind_mode="fixed", source_mode="none")
    (s,) = synthdata.make_dataset(SPEC, tw, cfg, data, seed=5)
    np.testing.assert_array_equal(s.targets[0].channel("c"), s.input.channel("c"))


def test_dataset_determinism():
    tw = synthdata.gen_terrain(SPEC, 11, DataConfig(), PhysicsConfig())
    cfg = PhysicsConfig(substeps=2)
    data = DataConfig(count=3, horizons=(12, 24))
    a = synthdata.make_dataset(SPEC, tw, cfg, data, seed=42)
    b = synthdata.make_dataset(SPEC, tw, cfg, data, seed=42)
    for sa, sb in zip(a, b):
        assert sa.input.data.tobytes() == sb.input.data.tobytes()
        for ta, tb in zip(sa.targets, sb.targets):
            assert ta.data.tobytes() == tb.data.tobytes()
    c = synthdata.make_dataset(SPEC, tw, cfg, data, seed=43)
    assert a[0].input.data.tobytes() != c[0].input.data.tobytes()


def test_sample_channels_and_winds_vary_when_rotating():
    tw = synthdata.gen_terrain(SPEC, 11, DataConfig(archetype="ridge"), PhysicsConfig())
    cfg = PhysicsConfig(substeps=1)
    data = DataConfig(count=2, horizons=(12,), wind_mode="rotate")
    samples = synthdata.make_dataset(SPEC, tw, cfg, data, seed=1)
    assert samples[0].input.channels == synthdata.SAMPLE_CHANNELS
    u0 = samples[0].input.channel("u")
    u1 = samples[1].input.channel("u")
    assert not np.array_equal(u0, u1)


def test_norm_kinds_cover_all_channels():
    kinds = synthdata.norm_kinds()
    assert set(kinds) == set(synthdata.INPUT_CHANNELS)


def small_dataset(count, seed=9, horizons=(12, 24)):
    """(samples, terrain, mask, stats), the positional arguments of
    `write_dataset` but the directory and seed, and its `data` and
    `physics` keywords: the configs that made them."""
    tw = synthdata.gen_terrain(SPEC, 2, DataConfig(archetype="basin"), PhysicsConfig())
    cfg = PhysicsConfig(substeps=1)
    data = DataConfig(count=count, horizons=horizons)
    samples = synthdata.make_dataset(SPEC, tw, cfg, data, seed=seed)
    stats = NormStats.fit([s.input for s in samples], synthdata.norm_kinds())
    return (samples, tw, synthdata.study_mask(SPEC), stats), {"data": data, "physics": cfg}


def write_small(out, count, seed=9, horizons=(12, 24)):
    """`small_dataset` written to `out`; its positional arguments."""
    args, made = small_dataset(count, seed, horizons)
    synthdata.write_dataset(out, *args, seed=seed, val_fraction=0.1, **made)
    return args


def test_dataset_write_read_round_trip(tmp_path):
    samples, tw, mask, stats = write_small(tmp_path / "ds", 3)
    bundle = synthdata.read_dataset(tmp_path / "ds")
    assert bundle.horizons == (12, 24)
    assert len(bundle.samples) == 3
    for orig, back in zip(samples, bundle.samples):
        assert orig.input.data.tobytes() == back.input.data.tobytes()
        for t0, t1 in zip(orig.targets, back.targets):
            assert t0.data.tobytes() == t1.data.tobytes()
            assert t1.channels == ("c",) and t1.units == ("ug/m3",)
            # every part is a view of the sample file's one payload
            assert t1.data.base is back.input.data.base is not None
    # the stats ride in the manifest, bit for bit
    assert bundle.stats.entries == stats.entries
    assert set(stats.entries) == set(synthdata.SAMPLE_CHANNELS)
    # terrain and mask ride in one float32 container
    assert read_grid(tmp_path / "ds" / "terrain.gfd").channels == synthdata.TERRAIN_CHANNELS
    assert np.array_equal(bundle.mask.mask, mask.mask) and bundle.mask.mask.dtype == np.uint8
    assert np.array_equal(bundle.terrain.elevation, tw.elevation.astype(np.float32))


def test_read_dataset_requires_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(DataError):
        synthdata.read_dataset(tmp_path / "empty")


def test_read_dataset_reads_the_manifest_once(tmp_path, monkeypatch):
    # the older-header, `format` and key checks all run on one read of it
    write_small(tmp_path / "ds", 2)
    read = []

    def counted(path, error, _fn=config.read_bytes):
        read.append(Path(path).name)
        return _fn(path, error)

    monkeypatch.setattr(config, "read_bytes", counted)
    synthdata.read_dataset(tmp_path / "ds")
    assert read.count("manifest.txt") == 1


# every write `write_dataset` makes, in order, for two samples
DATASET_WRITES = ("terrain.gfd", "000000.gfd", "000001.gfd", "manifest.txt")


@pytest.mark.parametrize("victim", DATASET_WRITES)
@pytest.mark.parametrize("older", [False, True], ids=["fresh", "over an older dataset"])
def test_killed_dataset_write_leaves_no_manifest(victim, older, tmp_path, monkeypatch):
    """A writer killed at any of its writes, after the temp file and before
    the rename, leaves no manifest, not even an older dataset's naming a mix
    of old and new files, so the directory does not load."""
    if older:
        write_small(tmp_path / "ds", 3, seed=1)
    real_replace = os.replace
    renamed = []

    def killed_replace(src, dst):
        renamed.append(Path(dst).name)
        if renamed[-1] == victim:
            raise KeyboardInterrupt
        real_replace(src, dst)

    with monkeypatch.context() as m:
        m.setattr(os, "replace", killed_replace)
        with pytest.raises(KeyboardInterrupt):
            write_small(tmp_path / "ds", 2, seed=2)
    assert renamed == list(DATASET_WRITES[: DATASET_WRITES.index(victim) + 1])
    assert not (tmp_path / "ds" / "manifest.txt").exists()
    with pytest.raises(DataError, match="no manifest"):
        synthdata.read_dataset(tmp_path / "ds")


def test_smaller_dataset_over_a_larger_one_leaves_no_stale_samples(tmp_path):
    horizons = (12, 24, 36, 48)   # still one file per sample
    samples = tmp_path / "ds" / "samples"
    write_small(tmp_path / "ds", 6, 1, horizons)
    assert len(list(samples.iterdir())) == 6
    (samples / "000000.h012.gfd").write_bytes(b"")   # a file of an older layout
    write_small(tmp_path / "ds", 3, 2, horizons)
    left = sorted(p.name for p in samples.iterdir())
    assert left == ["000000.gfd", "000001.gfd", "000002.gfd"]
    assert "data.count = 3\n" in (tmp_path / "ds" / "manifest.txt").read_text()
    assert len(synthdata.read_dataset(tmp_path / "ds").samples) == 3


def test_manifest_header_carries_base_speed(tmp_path):
    write_small(tmp_path / "ds", 2)
    speed = DataConfig().base_speed   # the speed `small_dataset` makes its samples at
    assert synthdata.read_dataset(tmp_path / "ds").data.base_speed == speed
    manifest = tmp_path / "ds" / "manifest.txt"
    text = manifest.read_text()
    line = f"data.base_speed = {speed!r}\n"
    assert line in text
    manifest.write_text(text.replace(line, line.replace("data.", "")))
    with pytest.raises(FormatError, match="unknown key 'base_speed'"):
        synthdata.read_dataset(tmp_path / "ds")


def test_manifest_cut_at_a_row_boundary_raises(tmp_path):
    write_small(tmp_path / "ds", 4)
    manifest = tmp_path / "ds" / "manifest.txt"
    lines = manifest.read_text().splitlines(True)
    assert len(lines) == len(synthdata.MANIFEST_KEYS)
    manifest.write_text("".join(lines[:-1]))  # cut before its last line
    with pytest.raises(FormatError, match="missing key 'train.val_fraction'; regenerate"):
        synthdata.read_dataset(tmp_path / "ds")


def test_write_dataset_refuses_stats_without_a_channel_before_writing(tmp_path):
    (samples, tw, mask, stats), made = small_dataset(2)
    synthdata.write_dataset(tmp_path / "ds", samples, tw, mask, stats, seed=9,
                            val_fraction=0.1, **made)
    before = {p: p.read_bytes() for p in (tmp_path / "ds").rglob("*") if p.is_file()}
    partial = NormStats({k: v for k, v in stats.entries.items() if k != "c"})
    with pytest.raises(ConfigError, match="'c'"):
        synthdata.write_dataset(tmp_path / "ds", samples, tw, mask, partial, seed=9,
                                val_fraction=0.1, **made)
    after = {p: p.read_bytes() for p in (tmp_path / "ds").rglob("*") if p.is_file()}
    assert after == before


@pytest.mark.parametrize("field, value", [("count", 3), ("horizons", (12, 24, 48))])
def test_write_dataset_refuses_configs_its_samples_do_not_match(field, value, tmp_path):
    # the manifest states the configs once, so samples they did not make
    # (another count or number of targets) are refused before any file is
    # touched
    (samples, tw, mask, stats), made = small_dataset(2)
    data = dataclasses.replace(made["data"], **{field: value})
    with pytest.raises(DataError, match="data.count" if field != "horizons" else "horizons"):
        synthdata.write_dataset(tmp_path / "ds", samples, tw, mask, stats, seed=9,
                                val_fraction=0.1, data=data, physics=made["physics"])
    assert not (tmp_path / "ds").exists()


def test_manifest_states_every_data_and_physics_key(tmp_path):
    # a dataset says how it was made: the manifest decodes to the very
    # configs `write_dataset` was given, `read_dataset` returns them, and
    # the manifest holds no stats of x, y or elev
    args, made = small_dataset(2)
    synthdata.write_dataset(tmp_path / "ds", *args, seed=9, val_fraction=0.1, **made)
    kv = read_kv(tmp_path / "ds" / "manifest.txt", FormatError)
    assert decode(DataConfig, kv, "data") == made["data"]
    assert decode(PhysicsConfig, kv, "physics") == made["physics"]
    bundle = synthdata.read_dataset(tmp_path / "ds")
    assert (bundle.data, bundle.physics) == (made["data"], made["physics"])
    assert kv["format"] == "topoflow dataset v4"
    assert not [k for k in kv if k.startswith(("stats.x.", "stats.y.", "stats.elev."))]


# -- covariance anisotropy -------------------------------------------------------

def plume_samples(seed, u=2.0, v=0.0, count=40):
    spec = GridSpec(32, 64, 2, 8, 8)
    tw = uniform_terrain(spec, u, v)
    cfg = PhysicsConfig(
        kappa=40.0, dt=150.0, dx=2000.0, sink=6.7e-5, max_wind=6.0, substeps=96
    )
    data = DataConfig(
        count=count, horizons=(12,), wind_mode="fixed", source_mode="random", init_mode="blobs"
    )
    samples = synthdata.make_dataset(spec, tw, cfg, data, seed=seed)
    return samples, tw, cfg


def test_isotropic_fields_have_comparable_decay():
    spec = GridSpec(32, 64, 2, 8, 8)
    tw = uniform_terrain(spec, 2.0, 1.0)
    cfg = quiet_config()
    data = DataConfig(
        count=40, horizons=(12,), wind_mode="fixed", source_mode="none", init_mode="blobs"
    )
    samples = synthdata.make_dataset(spec, tw, cfg, data, seed=3)
    # zero dynamics: targets are the isotropic initial blobs
    fit = oracles.fit_covariance_decay(samples, tw, cfg)
    ratio = fit.along_decay / fit.cross_decay
    assert 0.6 < ratio < 1.67


def test_advection_dominated_fields_decay_slower_along_wind():
    samples, tw, cfg = plume_samples(seed=0)
    peclet = 2.0 * cfg.dx / cfg.kappa
    assert peclet >= 10.0
    fit = oracles.fit_covariance_decay(samples, tw, cfg)
    assert fit.along_decay > fit.cross_decay
    assert fit.l_adv == pytest.approx(2.0 / 6.7e-5 / 2000.0, rel=1e-6)


def test_lag_zero_covariance_equals_variance():
    samples, tw, cfg = plume_samples(seed=1, count=32)
    fields = np.stack([s.targets[-1].channel("c").astype(np.float64) for s in samples])
    anomaly = fields - fields.mean(axis=0, keepdims=True)
    assert (anomaly * anomaly).mean() == pytest.approx(float(anomaly.var()), rel=1e-9)


def test_covariance_fit_needs_samples_and_variance():
    spec = GridSpec(32, 64, 2, 8, 8)
    tw = uniform_terrain(spec)
    cfg = quiet_config()
    few = synthdata.make_dataset(
        spec, tw, cfg, DataConfig(count=4, horizons=(12,), source_mode="none"), seed=0
    )
    with pytest.raises(ConfigError):
        oracles.fit_covariance_decay(few, tw)
    flat = [
        dataclasses.replace(
            s,
            input=s.input,
            targets=(s.targets[0].with_data(np.zeros_like(s.targets[0].data)),),
        )
        for s in synthdata.make_dataset(
            spec, tw, cfg, DataConfig(count=32, horizons=(12,), source_mode="none"), seed=0
        )
    ]
    with pytest.raises(FitError):
        oracles.fit_covariance_decay(flat, tw)
