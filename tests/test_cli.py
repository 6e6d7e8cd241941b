"""End-to-end command tests driving topoflow.cli.main in-process."""

import argparse
import math

import numpy as np
import pytest

from topoflow import synthdata
from topoflow.cli import DEFAULTS, build_parser, main
from topoflow.fields import GridSpec, NormStats, read_grid


def run(*argv):
    return main(list(argv))


def write_config(path, **over):
    base = {
        "grid.height": "8",
        "grid.width": "16",
        "grid.patch": "2",
        "grid.sector_cols": "4",
        "grid.sector_rows": "2",
        "physics.substeps": "2",
        "data.count": "12",
        "data.horizons": "12,24",
        "model.d": "16",
        "model.layers": "1",
        "model.heads": "2",
        "model.mlp_hidden": "32",
        "model.head_hidden": "32",
        "train.total_steps": "4",
        "train.warmup": "2",
        "train.val_interval": "2",
        "train.batch_size": "4",
        "train.val_fraction": "0.25",
        "ablate.tiles": "global,2x2,4x4",
    }
    base.update(over)
    path.write_text(
        "\n".join(f"{k} = {v}" for k, v in base.items()) + "\n", encoding="utf-8"
    )
    return path


@pytest.fixture()
def config_path(tmp_path):
    return write_config(tmp_path / "desk.cfg")


@pytest.fixture()
def dataset(tmp_path, config_path):
    out = tmp_path / "data"
    assert run("gen", "--config", str(config_path), "--out", str(out)) == 0
    return out


def test_gen_writes_dataset_layout(dataset):
    assert (dataset / "manifest.txt").exists()
    assert (dataset / "terrain.gfd").exists()
    assert (dataset / "mask.gfd").exists()
    assert (dataset / "stats.txt").exists()
    assert (dataset / "resolved_config.txt").exists()
    assert len(list((dataset / "samples").glob("*.in.gfd"))) == 12


def test_gen_is_reproducible(tmp_path, config_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run("gen", "--config", str(config_path), "--out", str(a)) == 0
    assert run("gen", "--config", str(config_path), "--out", str(b)) == 0
    assert (a / "manifest.txt").read_bytes() == (b / "manifest.txt").read_bytes()
    for rel in sorted(p.relative_to(a) for p in (a / "samples").iterdir()):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()
    c = tmp_path / "c"
    assert run("gen", "--config", str(config_path), "--out", str(c), "--seed", "5") == 0
    assert (a / "samples" / "000000.in.gfd").read_bytes() != (
        c / "samples" / "000000.in.gfd"
    ).read_bytes()


def test_train_eval_pipeline(tmp_path, config_path, dataset):
    run_dir = tmp_path / "run"
    assert run(
        "train", "--config", str(config_path), "--data", str(dataset), "--out", str(run_dir)
    ) == 0
    assert (run_dir / "best.gfd").exists()
    assert (run_dir / "last.gfd").exists()
    assert (run_dir / "loss_log.txt").exists()
    report_dir = tmp_path / "report"
    assert run(
        "eval",
        "--config", str(config_path),
        "--data", str(dataset),
        "--checkpoint", str(run_dir / "best.gfd"),
        "--out", str(report_dir),
    ) == 0
    assert (report_dir / "report.txt").exists()
    csv = (report_dir / "report.csv").read_text().splitlines()
    assert csv[0] == "channel,horizon,rmse,mae,r,n"
    assert len(csv) == 3  # one channel, two horizons


def test_eval_idempotent(tmp_path, config_path, dataset):
    run_dir = tmp_path / "run"
    run("train", "--config", str(config_path), "--data", str(dataset), "--out", str(run_dir))
    r1 = tmp_path / "r1"
    r2 = tmp_path / "r2"
    for r in (r1, r2):
        assert run(
            "eval", "--config", str(config_path), "--data", str(dataset),
            "--checkpoint", str(run_dir / "best.gfd"), "--out", str(r),
        ) == 0
    assert (r1 / "report.csv").read_bytes() == (r2 / "report.csv").read_bytes()
    assert (r1 / "report.txt").read_bytes() == (r2 / "report.txt").read_bytes()


def test_train_toggle_flags(tmp_path, config_path, dataset):
    base = tmp_path / "base"
    assert run(
        "train", "--config", str(config_path), "--data", str(dataset), "--out", str(base),
        "--no-wind-reorder", "--no-elev-bias",
    ) == 0
    echoed = (base / "resolved_config.txt").read_text()
    assert "model.wind_reorder = false" in echoed
    assert "model.elev_bias = false" in echoed


def test_train_resume_flag(tmp_path, config_path, dataset, monkeypatch):
    """`train --resume` after a kill in step 4 of 6 matches an uninterrupted
    run byte for byte; a resume with another step budget exits 2."""
    from topoflow import train

    full = tmp_path / "full"
    killed = tmp_path / "killed"
    args = ("train", "--config", str(config_path), "--data", str(dataset), "--steps")
    assert run(*args, "6", "--out", str(full)) == 0
    real_step = train.optimize_step

    def killed_step(store, state, config):
        if state.step == 3:
            raise KeyboardInterrupt
        real_step(store, state, config)

    with monkeypatch.context() as m:
        m.setattr(train, "optimize_step", killed_step)
        with pytest.raises(KeyboardInterrupt):
            run(*args, "6", "--out", str(killed))
    assert run(*args, "6", "--out", str(killed), "--resume") == 0
    for name in ("last.gfd", "last.gfd.txt", "best.gfd", "loss_log.txt"):
        assert (full / name).read_bytes() == (killed / name).read_bytes(), name
    assert run(*args, "8", "--out", str(killed), "--resume") == 2


def test_ablate_two_variants_two_rows(tmp_path, config_path, dataset):
    out = tmp_path / "ablate"
    assert run(
        "ablate", "--config", str(config_path), "--data", str(dataset), "--out", str(out),
        "--seeds", "0", "--variants", "baseline,wind", "--steps", "2",
    ) == 0
    text = (out / "ablation.txt").read_text().splitlines()
    assert text[0].split() == [
        "variant", "scanning", "wind_tiles", "elevation_alpha", "median_best_val"
    ]
    assert len([ln for ln in text if ln and not ln.startswith("#")]) == 3
    assert any("full-scale reference" in ln for ln in text)
    csv = (out / "ablation.csv").read_text().splitlines()
    assert len(csv) == 3  # header + 2 variant rows


def test_ablate_tiles_schema(tmp_path, config_path, dataset):
    out = tmp_path / "tiles"
    assert run(
        "ablate", "--config", str(config_path), "--data", str(dataset), "--out", str(out),
        "--mode", "tiles", "--steps", "2",
    ) == 0
    rows = (out / "tiles.csv").read_text().splitlines()
    assert rows[0] == "strategy,tiles,loss,delta"
    assert [r.split(",")[0] for r in rows[1:]] == ["global", "2x2", "4x4"]
    assert float(rows[1].split(",")[3]) == 0.0


def test_dump_perm_uniform_east_wind(tmp_path, config_path):
    # build a dataset whose terrain wind is exactly eastward
    spec = GridSpec(8, 16, 2, 4, 2)
    shape = (8, 16)
    tw = synthdata.TerrainWind(
        np.zeros(shape), np.ones(shape), np.zeros(shape),
        seed=0, archetype="flat", base_speed=1.0, bearing=0.0,
    )
    cfg = synthdata.PhysicsConfig(substeps=1)
    samples = synthdata.make_dataset(spec, tw, cfg, (12,), 2, seed=0, wind_mode="fixed")
    stats = NormStats.fit([s.input for s in samples], synthdata.norm_kinds())
    data = tmp_path / "east"
    synthdata.write_dataset(data, samples, tw, synthdata.study_mask(spec), stats, seed=0)
    out = tmp_path / "dump"
    assert run("dump", "perm", "--data", str(data), "--out", str(out)) == 0
    lines = (out / "perm.txt").read_text().splitlines()
    forward = [int(ln.split()[1]) for ln in lines[1 : 1 + spec.n_patches]]
    # first sector (patch rows 0-1, cols 0-3): west-to-east, top-before-bottom
    assert forward[:4] == [0, 8, 1, 9][:4] or forward[0] == 0
    sector0 = [forward[i] for i in (0, 1, 2, 3, 8, 9, 10, 11)]
    assert sector0 == [0, 8, 1, 9, 2, 10, 3, 11]


def test_dump_bias_and_attn(tmp_path, config_path, dataset):
    run_dir = tmp_path / "run"
    run("train", "--config", str(config_path), "--data", str(dataset), "--out", str(run_dir))
    out_b = tmp_path / "dump_bias"
    assert run(
        "dump", "bias", "--config", str(config_path), "--data", str(dataset),
        "--checkpoint", str(run_dir / "best.gfd"), "--out", str(out_b),
    ) == 0
    bias = read_grid(out_b / "bias.gfd")
    n = 4 * 8
    assert bias.data.shape == (1, n, n)
    assert bias.data.min() >= -10.0 and bias.data.max() <= 0.0
    out_a = tmp_path / "dump_attn"
    assert run(
        "dump", "attn", "--config", str(config_path), "--data", str(dataset),
        "--checkpoint", str(run_dir / "best.gfd"), "--out", str(out_a),
    ) == 0
    attn = read_grid(out_a / "attn.gfd")
    assert attn.data.shape == (1, n, n)
    text = (out_a / "attn.txt").read_text()
    assert text.startswith("rows ")


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run() == 1
    assert run("frobnicate") == 1
    assert run("train") == 1  # missing --data/--out
    capsys.readouterr()


def test_config_errors_exit_two(tmp_path, dataset, capsys):
    for i, text in enumerate(
        ("no.such.key = 1", "just words", "model.bias_combine = identity",
         "train.val_fraction = 1.5")
    ):
        bad = tmp_path / f"bad{i}.cfg"
        bad.write_text(text + "\n", encoding="utf-8")
        assert run("gen", "--config", str(bad), "--out", str(tmp_path / f"x{i}")) == 2
    for key, value in (("model.d", "abc"), ("model.elev_bias", "maybe")):
        cfg = write_config(tmp_path / f"{key}.cfg", **{key: value})
        capsys.readouterr()
        assert run(
            "train", "--config", str(cfg), "--data", str(dataset), "--out", str(tmp_path / key)
        ) == 2
        assert key in capsys.readouterr().err


def test_every_flag_dest_is_a_config_key():
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            if action.dest not in ("help", "config", "resume", "mode", "what"):
                assert action.dest in DEFAULTS, (command, action.option_strings)


def test_train_steps_below_warmup_exits_two(tmp_path, dataset, capsys):
    cfg = write_config(tmp_path / "warm.cfg", **{"train.warmup": "60"})
    capsys.readouterr()
    code = run(
        "train", "--config", str(cfg), "--data", str(dataset), "--out", str(tmp_path / "run"),
        "--steps", "10",
    )
    assert code == 2
    assert "train.warmup = 60 > train.total_steps = 10" in capsys.readouterr().err


def test_corrupted_magic_exits_three(tmp_path, config_path, dataset):
    victim = dataset / "samples" / "000000.in.gfd"
    raw = bytearray(victim.read_bytes())
    raw[:4] = b"XXXX"
    victim.write_bytes(bytes(raw))
    run_dir = tmp_path / "run"
    code = run(
        "train", "--config", str(config_path), "--data", str(dataset), "--out", str(run_dir)
    )
    assert code == 3


def test_eval_torn_checkpoint_exits_three(tmp_path, config_path, dataset):
    from topoflow import model

    run_dir = tmp_path / "run"
    assert run("train", "--config", str(config_path), "--data", str(dataset),
               "--out", str(run_dir), "--steps", "2") == 0
    store, mconfig, _moments, extras = model.load_checkpoint(run_dir / "best.gfd")
    store["alpha"].data = store["alpha"].data + 1.0
    model.save_checkpoint(tmp_path / "other.gfd", store, mconfig, extras=extras)
    torn = tmp_path / "torn.gfd"
    torn.write_bytes((run_dir / "best.gfd").read_bytes())
    (tmp_path / "torn.gfd.txt").write_bytes((tmp_path / "other.gfd.txt").read_bytes())
    assert run("eval", "--config", str(config_path), "--data", str(dataset),
               "--checkpoint", str(torn), "--out", str(tmp_path / "report")) == 3


def test_resolved_config_echo_is_sorted(dataset):
    lines = (dataset / "resolved_config.txt").read_text().splitlines()
    keys = [ln.split(" = ")[0] for ln in lines]
    assert keys == sorted(keys)
    assert "seed = 0" in lines


def test_gen_budget_100_samples_default_grid(tmp_path):
    # 100 samples on the default 32x64 grid in well under a minute
    import time

    out = tmp_path / "budget"
    t0 = time.monotonic()
    assert run("gen", "--out", str(out), "--count", "100") == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    assert len(list((out / "samples").glob("*.in.gfd"))) == 100


def test_thread_cap_env(monkeypatch):
    import os

    from topoflow.cli import _apply_thread_cap

    monkeypatch.setenv("TOPOFLOW_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    _apply_thread_cap()
    assert os.environ["OMP_NUM_THREADS"] == "1"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
