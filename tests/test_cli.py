"""End-to-end command tests driving topoflow.cli.main in-process."""

import argparse
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from topoflow import synthdata
from topoflow.cli import DEFAULTS, build_parser, main
from topoflow.config import DataConfig, read_kv
from topoflow.errors import ConfigError
from topoflow.fields import GridSpec, NormStats, read_grid, write_grid


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
    assert (dataset / "resolved_config.txt").exists()
    assert read_grid(dataset / "terrain.gfd").channels == ("elev", "u", "v", "mask")
    # one file per sample, plus terrain, manifest and config echo
    assert len(list((dataset / "samples").glob("*.gfd"))) == 12
    assert len([p for p in dataset.rglob("*") if p.is_file()]) == 12 + 3
    lines = (dataset / "manifest.txt").read_text(encoding="utf-8").splitlines()
    assert [ln.split(" = ")[0] for ln in lines] == sorted(synthdata.MANIFEST_KEYS)
    for line in ("format = topoflow dataset v4", "seed = 0", "data.count = 12",
                 "data.base_speed = 2.0", "data.horizons = 12,24",
                 "data.archetype = basin_ridge", "physics.substeps = 2",
                 "stats.hour_sin.kind = none", "train.val_fraction = 0.25"):
        assert line in lines
    # a sample holds what varies; x, y and elev are the grid's and the terrain's
    sample = read_grid(dataset / "samples" / "000005.gfd")
    assert sample.channels == synthdata.SAMPLE_CHANNELS + ("c@12h", "c@24h")


def test_manifest_states_how_the_dataset_was_made(tmp_path):
    # two datasets of one seed on different terrain archetypes: their
    # manifests name the archetype, not only stats that differ by its effect
    texts = {}
    for archetype in ("flat", "ridge"):
        cfg = write_config(tmp_path / f"{archetype}.cfg", **{"data.archetype": archetype})
        assert run("gen", "--config", str(cfg), "--out", str(tmp_path / archetype)) == 0
        lines = (tmp_path / archetype / "manifest.txt").read_text(encoding="utf-8").splitlines()
        texts[archetype] = [ln for ln in lines if not ln.startswith("stats.")]
    assert texts["flat"] != texts["ridge"]
    assert "data.archetype = flat" in texts["flat"]
    assert "data.archetype = ridge" in texts["ridge"]


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
    assert (a / "samples" / "000000.gfd").read_bytes() != (
        c / "samples" / "000000.gfd"
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


def test_eval_refuses_bad_config_before_writing(tmp_path, config_path, dataset, capsys):
    # `eval` reads `train.val_fraction` for its split line, and `seed` is
    # checked with the train keys: both before it scores or writes anything
    run_dir = tmp_path / "run"
    assert run("train", "--config", str(config_path), "--data", str(dataset),
               "--out", str(run_dir), "--steps", "2") == 0
    for i, (key, text) in enumerate((("seed", "-1"), ("train.val_fraction", "1.5"))):
        cfg = write_config(tmp_path / f"bad{i}.cfg", **{key: text})
        out = tmp_path / f"report{i}"
        capsys.readouterr()
        assert run("eval", "--config", str(cfg), "--data", str(dataset),
                   "--checkpoint", str(run_dir / "best.gfd"), "--out", str(out)) == 2, key
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err, err
        assert not out.exists()


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


def test_eval_prints_the_samples_it_scored(tmp_path, config_path, dataset, capsys):
    # the report covers all 12 samples, the 9 that `train` fits on included
    run_dir = tmp_path / "run"
    common = ["--config", str(config_path), "--data", str(dataset)]
    assert run("train", *common, "--out", str(run_dir), "--steps", "2") == 0
    capsys.readouterr()
    assert run("eval", *common, "--checkpoint", str(run_dir / "best.gfd"),
               "--out", str(tmp_path / "report")) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "scored samples 0-11: training split 0-8, validation split 9-11 "
        "(train.val_fraction = 0.25)")


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
    assert not any("full-scale reference" in ln for ln in text)
    csv = (out / "ablation.csv").read_text().splitlines()
    assert len(csv) == 3  # header + 2 variant rows


def test_ablate_medians_and_run_directories(tmp_path, config_path, dataset):
    """Each variant's median is the median of its rows' best_val, and every
    (variant, seed) run leaves its log and checkpoints under runs/."""
    out = tmp_path / "ablate"
    assert run(
        "ablate", "--config", str(config_path), "--data", str(dataset), "--out", str(out),
        "--seeds", "0,1,2", "--variants", "baseline,wind", "--steps", "2",
    ) == 0
    rows = [r.split(",") for r in (out / "ablation.csv").read_text().splitlines()[1:]]
    medians = {ln.split()[0]: float(ln.split()[-1])
               for ln in (out / "ablation.txt").read_text().splitlines()[1:]}
    assert list(medians) == ["baseline", "wind"]
    for variant, median in medians.items():
        best = [float(r[4]) for r in rows if r[0] == variant]
        assert len(best) == 3 and median == statistics.median(best)
    names = {f"{v}-seed{k}" for v in medians for k in (0, 1, 2)}
    assert {p.name for p in (out / "runs").iterdir()} == names
    for name in names:
        for file in ("loss_log.txt", "best.gfd", "last.gfd"):
            assert (out / "runs" / name / file).exists(), (name, file)


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


def test_ablate_bad_lists_exit_two(tmp_path, config_path, dataset, capsys):
    cases = (
        ("components", "ablate.seeds", "0,0,1"),
        ("components", "ablate.seeds", "0,-1"),
        ("components", "ablate.variants", "baseline,wind,baseline"),
        ("components", "ablate.variants", ","),
        ("tiles", "ablate.tiles", "global,0x2"),
        ("tiles", "ablate.tiles", "2x0"),
    )
    for i, (mode, key, text) in enumerate(cases):
        cfg = write_config(tmp_path / f"bad{i}.cfg", **{key: text})
        out = tmp_path / f"out{i}"
        capsys.readouterr()
        assert run(
            "ablate", "--config", str(cfg), "--data", str(dataset), "--out", str(out),
            "--mode", mode, "--steps", "2",
        ) == 2, (key, text)
        assert key in capsys.readouterr().err
        assert list(out.iterdir()) == []  # no rows written


def test_ablate_tiles_checked_before_any_fit(tmp_path, config_path, dataset, capsys,
                                             monkeypatch):
    # 3x3 does not divide the 4x8 patch grid, 'global' is the 1x1 grid, and
    # an empty list names no granularity: each list is refused before its
    # first granularity is trained
    from topoflow import train

    fits = []
    monkeypatch.setattr(train, "fit", lambda *a, **k: fits.append(a))
    cases = (("global,3x3", None), ("global,2x2,2x2", "ablate.tiles"),
             ("1x1,2x2,global", "ablate.tiles"), ("", "ablate.tiles"))
    for i, (tiles, key) in enumerate(cases):
        cfg = write_config(tmp_path / f"tiles{i}.cfg", **{"ablate.tiles": tiles})
        out = tmp_path / f"tiles{i}"
        capsys.readouterr()
        assert run(
            "ablate", "--config", str(cfg), "--data", str(dataset), "--out", str(out),
            "--mode", "tiles", "--steps", "2",
        ) == 2, tiles
        err = capsys.readouterr().err
        assert key is None or key in err, err
        assert not (out / "tiles.txt").exists()
    assert fits == []


def test_dump_perm_uniform_east_wind(tmp_path, config_path):
    # build a dataset whose terrain wind is exactly eastward
    spec = GridSpec(8, 16, 2, 4, 2)
    shape = (8, 16)
    tw = synthdata.TerrainWind(np.zeros(shape), np.ones(shape), np.zeros(shape))
    cfg = synthdata.PhysicsConfig(substeps=1)
    fixed = DataConfig(count=2, horizons=(12,), wind_mode="fixed", base_speed=1.0)
    samples = synthdata.make_dataset(spec, tw, cfg, fixed, seed=0)
    stats = NormStats.fit([s.input for s in samples], synthdata.norm_kinds())
    data = tmp_path / "east"
    synthdata.write_dataset(data, samples, tw, synthdata.study_mask(spec), stats, seed=0,
                            data=fixed, physics=cfg, val_fraction=0.25)
    out = tmp_path / "dump"
    assert run("dump", "perm", "--config", str(config_path), "--data", str(data),
               "--out", str(out)) == 0
    lines = (out / "perm.txt").read_text().splitlines()
    forward = [int(ln.split()[1]) for ln in lines[1 : 1 + spec.n_patches]]
    # first sector (patch rows 0-1, cols 0-3): west-to-east, top-before-bottom
    assert forward[:4] == [0, 8, 1, 9][:4] or forward[0] == 0
    sector0 = [forward[i] for i in (0, 1, 2, 3, 8, 9, 10, 11)]
    assert sector0 == [0, 8, 1, 9, 2, 10, 3, 11]


def dump_numbers(path):
    """Every field of a dump text file that is not a word (a label such as
    `alpha` or `bin_lo`) or on a `#` line, parsed with `float()`, which a
    numpy repr such as `np.float64(-2.2)` fails."""
    return [float(field) for ln in path.read_text().splitlines() if not ln.startswith("#")
            for field in ln.split() if not field.replace("_", "").isalpha()]


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
    _alpha, low, high = dump_numbers(out_b / "bias.txt")
    assert -10.0 <= low <= high <= 0.0
    out_a = tmp_path / "dump_attn"
    assert run(
        "dump", "attn", "--config", str(config_path), "--data", str(dataset),
        "--checkpoint", str(run_dir / "best.gfd"), "--out", str(out_a),
    ) == 0
    attn = read_grid(out_a / "attn.gfd")
    assert attn.data.shape == (1, n, n)
    text = (out_a / "attn.txt").read_text()
    assert text.startswith("rows ")
    assert text.splitlines()[3] == "bin_lo bin_hi mass"
    # rows, mu_row_max, entropy_mean, then (bin_lo, bin_hi, mass) per bin
    mass = dump_numbers(out_a / "attn.txt")[3:][2::3]
    assert len(mass) == 50 and math.isclose(sum(mass), 1.0)
    out_p = tmp_path / "dump_perm"
    assert run("dump", "perm", "--config", str(config_path), "--data", str(dataset),
               "--out", str(out_p)) == 0
    # (slot, forward, inverse) per patch, then (sector, angle) per sector
    values = dump_numbers(out_p / "perm.txt")
    assert len(values) == 3 * n + 2 * 4
    assert all(abs(angle) <= math.pi for angle in values[3 * n + 1::2])


def test_dump_bias_is_the_queries_by_keys_penalty(tmp_path, config_path, dataset):
    # `dump bias` writes the raster penalty queries x keys, row the query
    # patch and column the key patch: the transpose of the keys x queries
    # table that the model hands the attention node
    from topoflow import model, topo_bias

    out = tmp_path / "dump_bias"
    assert run("dump", "bias", "--config", str(config_path), "--data", str(dataset),
               "--out", str(out)) == 0
    dumped = read_grid(out / "bias.gfd").data[0]
    bundle = synthdata.read_dataset(dataset)
    elev = topo_bias.patch_elevations(bundle.terrain.elevation, bundle.spec)
    want = topo_bias.bias_tensor(elev, topo_bias.ALPHA_INIT).data.astype(np.float32)
    assert dumped.tobytes() == want.tobytes()
    low, high = int(np.argmin(elev)), int(np.argmax(elev))
    assert dumped[low, high] < 0.0 and dumped[high, low] == 0.0
    mconfig = model.ModelConfig(bundle.spec, d=16, heads=2, n_horizons=2)
    store = model.init_params(mconfig, seed=0, dtype=np.float64)
    penalty = model._attention_tables(store, mconfig, elev).penalty
    assert dumped.tobytes() == np.ascontiguousarray(penalty.data.T, np.float32).tobytes()


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run() == 1
    assert run("frobnicate") == 1
    assert run("train") == 1  # missing --data/--out
    capsys.readouterr()


def test_config_errors_exit_two(tmp_path, dataset, capsys):
    # train.epochs is a retired key: the step budget is train.total_steps
    for i, text in enumerate(
        ("no.such.key = 1", "just words", "model.bias_combine = identity",
         "train.val_fraction = 1.5", "train.epochs = 60")
    ):
        bad = tmp_path / f"bad{i}.cfg"
        bad.write_text(text + "\n", encoding="utf-8")
        assert run("gen", "--config", str(bad), "--out", str(tmp_path / f"x{i}")) == 2
    for key, value in (("model.d", "abc"), ("model.elev_bias", "maybe"), ("model.heads", "0"),
                       ("model.dropout", "1.0"), ("model.dropout", "-0.1")):
        cfg = write_config(tmp_path / f"{key}.cfg", **{key: value})
        capsys.readouterr()
        assert run(
            "train", "--config", str(cfg), "--data", str(dataset), "--out", str(tmp_path / key)
        ) == 2
        assert key in capsys.readouterr().err


def test_readme_commands_parse():
    """Every `topoflow ...` line of README's CLI block is a valid command line."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI")[1].split("```sh")[1]
    commands = [ln.split() for ln in block.split("```")[0].splitlines()
                if ln.startswith("topoflow ")]
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {' '.join(argv)}")


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
    victim = dataset / "samples" / "000000.gfd"
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


BROKEN_INPUTS = (
    "gfd channel name not UTF-8",
    "manifest v1 header",
    "manifest v2 header",
    "manifest not UTF-8",
    "manifest key unknown",
    "manifest key repeated",
    "manifest format not v4",
    "manifest v3",
    "manifest physics unstable",
    "stats value not a number",
    "stats value not finite",
    "stats not UTF-8",
    "terrain.gfd missing",
    "sample file missing",
    "eval checkpoint sidecar missing",
    "dump checkpoint sidecar missing",
    "resume state.rng missing",
    "resume state.stopped missing",
    "resume state.stopped yes",
    "config file missing",
    "config file not UTF-8",
    "eval checkpoint sidecar not UTF-8",
    "eval baseline sidecar line not key = value",
    "resume loss_log row step not an integer",
    "resume loss_log not UTF-8",
    "manifest header without base_speed",
    "manifest header base_speed not finite",
    "config file is a directory",
    "config file key repeated",
    "eval baseline sidecar without model.wind_reorder",
    "eval sidecar value not an integer",
    "stats kind unknown",
    "mask value not 0 or 1",
    "mask selects no cell",
    "sample on another grid",
    "input channels out of order",
    "target channel renamed",
)


@pytest.mark.parametrize("case", BROKEN_INPUTS)
def test_broken_inputs_exit_with_their_codes(case, tmp_path, config_path, dataset, capsys):
    # each reader maps its fault to the error of its exit code, so the
    # command prints one line naming the file or key and no traceback
    common = ["--config", str(config_path), "--data", str(dataset)]
    out = ["--out", str(tmp_path / "out")]

    def trained():
        run_dir = tmp_path / "run"
        assert run("train", *common, "--out", str(run_dir), "--steps", "2") == 0
        return run_dir

    def rewrite(path, old, new):
        raw = path.read_bytes()
        assert old in raw
        path.write_bytes(raw.replace(old, new, 1))

    manifest = dataset / "manifest.txt"
    keys = [ln.split(b" = ")[0] for ln in manifest.read_bytes().splitlines()]
    code = 3
    if case == "gfd channel name not UTF-8":
        sample = dataset / "samples" / "000001.gfd"
        raw = bytearray(sample.read_bytes())
        raw[34] = 0xFF  # the first channel name's first byte
        sample.write_bytes(bytes(raw))
        argv, named = ["train", *common, *out], "000001.gfd"
    elif case in ("manifest v1 header", "manifest v2 header"):
        # the older layouts: a header line, then one row per sample; v1 named
        # an input and a file per horizon on every row, v2 its hour and day
        if case.startswith("manifest v1"):
            manifest.write_text("# topoflow dataset v1 seed=0 count=12 base_speed=2.0\n" + "".join(
                f"samples/{i:06d}.in.gfd samples/{i:06d}.h012.gfd,samples/{i:06d}.h024.gfd "
                f"12,24 {i} 5 100\n" for i in range(12)))
        else:
            manifest.write_text("# topoflow dataset v2 seed=0 count=12 base_speed=2.0 "
                                "horizons=12,24\n" + "".join(f"{i} 5 100\n" for i in range(12)))
        argv = ["train", *common, *out]
        named = ("manifest.txt:1: an older topoflow dataset header; "
                 "regenerate it with `topoflow gen`")
    elif case == "manifest not UTF-8":
        line = manifest.read_bytes().splitlines()[2]
        rewrite(manifest, line, line + b"\xff")
        argv, named = ["train", *common, *out], "manifest.txt:3"
    elif case == "manifest key unknown":
        # a v3 manifest's stats of a plane that samples no longer hold
        rewrite(manifest, b"data.count = 12\n", b"data.count = 12\nstats.x.kind = none\n")
        ln = keys.index(b"data.count") + 2
        argv = ["train", *common, *out]
        named = f"manifest.txt:{ln}: unknown key 'stats.x.kind'"
    elif case == "manifest key repeated":
        rewrite(manifest, b"data.count = 12\n", b"data.count = 12\ndata.count = 13\n")
        ln = keys.index(b"data.count") + 2
        argv = ["train", *common, *out]
        named = f"manifest.txt:{ln}: repeated key 'data.count'"
    elif case == "manifest format not v4":
        rewrite(manifest, b"format = topoflow dataset v4", b"format = topoflow dataset v5")
        argv = ["train", *common, *out]
        named = ("manifest.txt: format = topoflow dataset v5, not topoflow dataset v4; "
                 "regenerate it with `topoflow gen`")
    elif case == "manifest v3":
        # the v3 layout: the same seed, split and stats keys plus those of
        # x, y and elev, and of the data keys only count, base speed and
        # horizons; its format is checked before its keys are
        v3 = [ln for ln in manifest.read_bytes().splitlines(True)
              if not ln.startswith((b"physics.", b"data.archetype", b"data.wind_mode",
                                    b"data.source_mode", b"data.init_mode"))]
        v3 += [f"stats.{name}.{k} = {v}\n".encode()
               for name, stats in (("x", ("none", 0.0, 1.0)), ("y", ("none", 0.0, 1.0)),
                                   ("elev", ("minmax", 6.0, 1834.0)))
               for k, v in zip(("kind", "a", "b"), stats)]
        manifest.write_bytes(b"".join(sorted(v3)).replace(b"dataset v4", b"dataset v3"))
        argv = ["train", *common, *out]
        named = ("manifest.txt: format = topoflow dataset v3, not topoflow dataset v4; "
                 "regenerate it with `topoflow gen`")
    elif case == "manifest physics unstable":
        # PhysicsConfig refuses the CFL bound with a StabilityError, whose
        # own exit code is 4; in a manifest it is a format fault
        rewrite(manifest, b"physics.max_wind = 6.0\n", b"physics.max_wind = 600.0\n")
        argv = ["train", *common, *out]
        named = "manifest.txt: advective CFL 45.000 > 0.5 for physics.max_wind"
    elif case == "stats value not a number":
        line = next(ln for ln in manifest.read_bytes().splitlines()
                    if ln.startswith(b"stats.u.a = "))
        rewrite(manifest, line, b"stats.u.a = abc")
        argv = ["train", *common, *out]
        named = "manifest.txt: stats.u: stats.u.a must be a number, got 'abc'"
    elif case == "stats value not finite":
        line = next(ln for ln in manifest.read_bytes().splitlines()
                    if ln.startswith(b"stats.u.a = "))
        rewrite(manifest, line, b"stats.u.a = nan")
        argv = ["train", *common, *out]
        named = "manifest.txt: stats.u: a = nan and b = "
    elif case == "stats not UTF-8":
        rewrite(manifest, b"stats.u.kind = zscore", b"stats.u.kind = zscore\xff")
        ln = keys.index(b"stats.u.kind") + 1
        argv, named = ["train", *common, *out], f"manifest.txt:{ln}"
    elif case == "terrain.gfd missing":
        (dataset / "terrain.gfd").unlink()
        argv, named = ["train", *common, *out], "terrain.gfd"
    elif case == "sample file missing":
        (dataset / "samples" / "000003.gfd").unlink()
        argv, named = ["train", *common, *out], "000003.gfd"
    elif case in ("eval checkpoint sidecar missing", "dump checkpoint sidecar missing"):
        ckpt = trained() / "best.gfd"
        (tmp_path / "run" / "best.gfd.txt").unlink()
        cmd = ["eval"] if case.startswith("eval") else ["dump", "attn"]
        argv, named = [*cmd, *common, "--checkpoint", str(ckpt), *out], "best.gfd.txt"
    elif case.startswith("resume state."):
        # a resume of the full budget fits no step, so it fails only if it
        # refuses the state key
        named, fault = case.split()[1:]
        sidecar = trained() / "last.gfd.txt"
        kept = [ln for ln in sidecar.read_text().splitlines(True)
                if not ln.startswith(f"{named} = ")]
        assert len(kept) < len(sidecar.read_text().splitlines())
        kept += [] if fault == "missing" else [f"{named} = {fault}\n"]
        sidecar.write_text("".join(kept))
        argv = ["train", *common, "--out", str(tmp_path / "run"), "--steps", "2", "--resume"]
    elif case == "config file missing":
        missing = str(tmp_path / "missing.cfg")
        argv, named, code = ["gen", "--config", missing, *out], "missing.cfg", 2
    elif case == "eval checkpoint sidecar not UTF-8":
        sidecar = trained() / "best.gfd.txt"
        line = sidecar.read_bytes().splitlines()[1]
        rewrite(sidecar, line, line + b"\xff")
        argv = ["eval", *common, "--checkpoint", str(tmp_path / "run" / "best.gfd"), *out]
        named = "best.gfd.txt:2"
    elif case == "eval baseline sidecar line not key = value":
        run_dir = tmp_path / "run"
        assert run("train", *common, "--out", str(run_dir), "--steps", "2",
                   "--no-wind-reorder", "--no-elev-bias") == 0
        sidecar = run_dir / "best.gfd.txt"
        lines = sidecar.read_bytes().splitlines()
        ln = lines.index(b"model.wind_reorder = false") + 1
        rewrite(sidecar, b"model.wind_reorder = false", b"model.wind_reorder: false")
        argv = ["eval", *common, "--checkpoint", str(run_dir / "best.gfd"), *out]
        named = f"best.gfd.txt:{ln}"
    elif case.startswith("resume loss_log"):
        log = trained() / "loss_log.txt"
        row = log.read_bytes().splitlines()[2]   # the step-2 row
        garbled = b"two" + row[1:] if "integer" in case else row + b"\xff"
        rewrite(log, row, garbled)
        argv = ["train", *common, "--out", str(tmp_path / "run"), "--steps", "2", "--resume"]
        named = "loss_log.txt:3"
    elif case == "manifest header without base_speed":
        rewrite(manifest, b"data.base_speed = 2.0\n", b"")
        argv = ["train", *common, *out]
        named = "manifest.txt: missing key 'data.base_speed'"
    elif case == "manifest header base_speed not finite":
        rewrite(manifest, b"data.base_speed = 2.0\n", b"data.base_speed = inf\n")
        argv = ["train", *common, *out]
        named = "manifest.txt: data.base_speed = inf is not finite"
    elif case == "eval baseline sidecar without model.wind_reorder":
        # left out, the key would load at its default: the wind variant
        run_dir = tmp_path / "run"
        assert run("train", *common, "--out", str(run_dir), "--steps", "2",
                   "--no-wind-reorder", "--no-elev-bias") == 0
        rewrite(run_dir / "best.gfd.txt", b"model.wind_reorder = false\n", b"")
        argv = ["eval", *common, "--checkpoint", str(run_dir / "best.gfd"), *out]
        named = "best.gfd.txt: missing key 'model.wind_reorder'"
    elif case == "eval sidecar value not an integer":
        sidecar = trained() / "best.gfd.txt"
        rewrite(sidecar, b"model.d = 16\n", b"model.d = abc\n")
        argv = ["eval", *common, "--checkpoint", str(tmp_path / "run" / "best.gfd"), *out]
        named = "best.gfd.txt: model.d must be an integer"
    elif case == "stats kind unknown":
        rewrite(manifest, b"stats.u.kind = zscore", b"stats.u.kind = quantile")
        argv = ["train", *common, *out]
        named = "manifest.txt: stats.u: unknown normalization kind 'quantile'"
    elif case in ("mask value not 0 or 1", "mask selects no cell"):
        terrain = read_grid(dataset / "terrain.gfd")
        data = terrain.data.copy()
        if case == "mask selects no cell":
            data[3] = 0.0
            named = "terrain.gfd: channel 'mask': mask selects no cells"
        else:
            data[3, 4, 8] = 0.5
            named = "terrain.gfd: channel 'mask': mask values must be 0 or 1"
        write_grid(terrain.with_data(data), dataset / "terrain.gfd")
        argv = ["train", *common, *out]
    elif case == "sample on another grid":
        wide = tmp_path / "wide"
        wide_cfg = write_config(tmp_path / "wide.cfg", **{"grid.width": "24"})
        assert run("gen", "--config", str(wide_cfg), "--out", str(wide)) == 0
        rel = "samples/000001.gfd"
        (dataset / rel).write_bytes((wide / rel).read_bytes())
        argv, named = ["train", *common, *out], f"{rel}: on GridSpec(height=8, width=24"
    elif case == "input channels out of order":
        # the names of u and v swapped, their lengths and the data kept
        rewrite(dataset / "samples" / "000001.gfd",
                b"\x01\x00u\x03\x00m/s\x01\x00v", b"\x01\x00v\x03\x00m/s\x01\x00u")
        argv, named = ["train", *common, *out], "samples/000001.gfd: holds"
    elif case == "target channel renamed":
        rewrite(dataset / "samples" / "000001.gfd", b"\x05\x00c@24h", b"\x05\x00x@24h")
        argv, named = ["train", *common, *out], "samples/000001.gfd: holds"
    elif case == "config file is a directory":
        (tmp_path / "cfgdir").mkdir()
        argv, named, code = ["gen", "--config", str(tmp_path / "cfgdir"), *out], "cfgdir", 2
    elif case == "config file key repeated":
        twice = write_config(tmp_path / "twice.cfg")
        ln = len(twice.read_bytes().splitlines()) + 1
        twice.write_bytes(twice.read_bytes() + b"model.d = 32\n")
        argv = ["gen", "--config", str(twice), *out]
        named, code = f"twice.cfg:{ln}: repeated key 'model.d'", 2
    else:
        latin = write_config(tmp_path / "latin.cfg")
        ln = len(latin.read_bytes().splitlines()) + 1
        latin.write_bytes(latin.read_bytes() + b"data.archetype = basin\xe9\n")
        argv, named, code = ["gen", "--config", str(latin), *out], f"latin.cfg:{ln}", 2
    capsys.readouterr()
    assert run(*argv) == code
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"topoflow {argv[0]}: "), err
    assert named in lines[0] and "Traceback" not in err



@pytest.mark.parametrize("fault", ["fewer targets than hours", "hours not increasing"])
def test_manifest_row_that_makes_no_sample_names_its_line(fault, tmp_path, config_path,
                                                          dataset, capsys):
    # the manifest's `data.horizons` line states the hours once: a sample
    # file whose targets do not match them fails at that file, and hours
    # `DataConfig` refuses fail at the manifest, naming the key
    manifest = dataset / "manifest.txt"
    text = manifest.read_text(encoding="utf-8")
    assert "data.horizons = 12,24\n" in text
    if fault == "fewer targets than hours":
        where, message = "samples/000000.gfd", "holds"
        text = text.replace("data.horizons = 12,24", "data.horizons = 12,24,48")
    else:
        where, message = "manifest.txt", "data.horizons must be positive and strictly increasing"
        text = text.replace("data.horizons = 12,24", "data.horizons = 24,12")
    manifest.write_text(text, encoding="utf-8")
    capsys.readouterr()
    argv = ["train", "--config", str(config_path), "--data", str(dataset),
            "--out", str(tmp_path / "out")]
    assert run(*argv) == 3
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and f"{where}: {message}" in lines[0], err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A config and the dataset `gen` makes from it, shared by a module's
    tests: each copies the dataset before it changes a file."""
    root = tmp_path_factory.mktemp("pristine")
    config = write_config(root / "desk.cfg")
    assert run("gen", "--config", str(config), "--out", str(root / "data")) == 0
    return root


@pytest.mark.parametrize("key", synthdata.MANIFEST_KEYS)
def test_manifest_without_a_key_exits_three(key, pristine, tmp_path, capsys):
    # every key `gen` writes is required, and its absence names it with
    # the note to regenerate the dataset
    dataset = tmp_path / "data"
    shutil.copytree(pristine / "data", dataset)
    manifest = dataset / "manifest.txt"
    lines = manifest.read_text(encoding="utf-8").splitlines(True)
    kept = [ln for ln in lines if ln.split(" = ")[0] != key]
    assert len(kept) == len(lines) - 1
    manifest.write_text("".join(kept), encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("train", "--config", str(pristine / "desk.cfg"), "--data", str(dataset),
               "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert f"manifest.txt: missing key {key!r}; regenerate it" in err, err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command", ["train", "eval", "ablate", "dump"])
def test_config_grid_other_than_the_dataset_exits_two(command, pristine, tmp_path, capsys):
    # each command runs on the dataset's grid, so a config naming another
    # one is refused before anything is written, not echoed beside it
    common = ["--data", str(pristine / "data")]
    argv = {"train": ["train"], "eval": ["eval"], "ablate": ["ablate", "--seeds", "0"],
            "dump": ["dump", "perm"]}[command]
    if command == "eval":
        run_dir = tmp_path / "run"
        assert run("train", "--config", str(pristine / "desk.cfg"), *common,
                   "--out", str(run_dir), "--steps", "2") == 0
        argv += ["--checkpoint", str(run_dir / "best.gfd")]
    cfg = write_config(tmp_path / "patch4.cfg", **{"grid.patch": "4"})
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*argv, "--config", str(cfg), *common, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "grid.patch = 4" in err and "grid.patch = 2" in err and "Traceback" not in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval", "ablate", "dump"])
def test_run_echoes_the_datasets_data_and_physics_keys(command, pristine, tmp_path):
    # only `gen` reads `data.*` and `physics.*`: a run on a dataset echoes
    # the values its manifest states (12 basin_ridge samples at 2
    # substeps), not the config's
    common = ["--data", str(pristine / "data")]
    argv = {"train": ["train", "--steps", "2"], "eval": ["eval"],
            "ablate": ["ablate", "--seeds", "0", "--variants", "wind", "--steps", "2"],
            "dump": ["dump", "perm"]}[command]
    if command == "eval":
        run_dir = tmp_path / "run"
        assert run("train", "--config", str(pristine / "desk.cfg"), *common,
                   "--out", str(run_dir), "--steps", "2") == 0
        argv += ["--checkpoint", str(run_dir / "best.gfd")]
    cfg = write_config(tmp_path / "other.cfg", **{
        "data.count": "500", "data.archetype": "flat", "physics.substeps": "7"})
    out = tmp_path / "out"
    assert run(*argv, "--config", str(cfg), *common, "--out", str(out)) == 0
    echoed = read_kv(out / "resolved_config.txt", ConfigError)
    stated = read_kv(pristine / "data" / "manifest.txt", ConfigError)
    assert (echoed["data.count"], echoed["data.archetype"], echoed["physics.substeps"]) == (
        "12", "basin_ridge", "2")
    assert {k: v for k, v in echoed.items() if k.startswith(("data.", "physics."))} == {
        k: v for k, v in stated.items() if k.startswith(("data.", "physics."))}


@pytest.mark.parametrize("command", ["train", "eval", "ablate"])
def test_config_split_other_than_the_dataset_exits_two(command, pristine, tmp_path, capsys):
    # `gen` fit the stats on the training split of train.val_fraction =
    # 0.25, and the manifest says so; a run on another split would
    # validate on samples the stats were fit on, so it is refused before
    # anything is written
    common = ["--data", str(pristine / "data")]
    argv = {"train": ["train", "--steps", "2"], "eval": ["eval"],
            "ablate": ["ablate", "--seeds", "0", "--steps", "2"]}[command]
    if command == "eval":
        run_dir = tmp_path / "run"
        assert run("train", "--config", str(pristine / "desk.cfg"), *common,
                   "--out", str(run_dir), "--steps", "2") == 0
        argv += ["--checkpoint", str(run_dir / "best.gfd")]
    cfg = write_config(tmp_path / "half.cfg", **{"train.val_fraction": "0.5"})
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*argv, "--config", str(cfg), *common, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "train.val_fraction = 0.5" in err and "train.val_fraction = 0.25" in err, err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("grid", [{"grid.width": "24"}, {"grid.patch": "4"}],
                         ids=["wider", "patch4"])
@pytest.mark.parametrize("command", ["eval", "dump attn"])
def test_checkpoint_from_another_grid_exits_two(command, grid, pristine, tmp_path, capsys):
    # a checkpoint trained on the 8x16, patch-2 dataset, run on a dataset
    # of another width or patch size with a config that matches it, is
    # refused before anything is written, naming the checkpoint and the
    # first key that differs
    run_dir = tmp_path / "run"
    assert run("train", "--config", str(pristine / "desk.cfg"), "--data",
               str(pristine / "data"), "--out", str(run_dir), "--steps", "2") == 0
    cfg = write_config(tmp_path / "other.cfg", **grid)
    other = tmp_path / "other"
    assert run("gen", "--config", str(cfg), "--out", str(other)) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*command.split(), "--config", str(cfg), "--data", str(other),
               "--checkpoint", str(run_dir / "best.gfd"), "--out", str(out)) == 2
    err = capsys.readouterr().err
    key = "model.spec.width = 16" if "grid.width" in grid else "model.spec.patch = 2"
    assert f"best.gfd: {key}, but the dataset at" in err and "Traceback" not in err, err
    assert not out.exists()


def test_dump_attn_without_an_attention_layer_exits_two(pristine, tmp_path, capsys):
    # `model.layers = 0` is a depth the config accepts, and its checkpoint
    # has no attention map to dump
    cfg = write_config(tmp_path / "flat.cfg", **{"model.layers": "0"})
    common = ["--config", str(cfg), "--data", str(pristine / "data")]
    run_dir = tmp_path / "run"
    assert run("train", *common, "--out", str(run_dir), "--steps", "2") == 0
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("dump", "attn", *common, "--checkpoint", str(run_dir / "best.gfd"),
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "model.layers = 0" in err and "no attention layer" in err, err
    assert err.count("\n") == 1 and "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("key, text", [
    ("data.horizons", ""),
    ("data.horizons", "24,12"),
    ("data.horizons", "12,12"),
    ("data.count", "0"),
    ("data.archetype", "volcano"),
    ("data.wind_mode", "gusty"),
    ("data.base_speed", "nan"),
    ("data.base_speed", "-1"),
    ("train.val_fraction", "1.5"),
    ("physics.sink", "nan"),
    ("physics.hours_per_step", "nan"),
    ("physics.kappa", "nan"),
    ("physics.dt", "nan"),
    ("physics.max_wind", "nan"),
    ("physics.max_wind", "-6"),
    ("physics.max_wind", "0"),
    ("data.horizons", "6,12"),
    ("seed", "-1"),
    ("grid.height", "4"),
])
def test_gen_refuses_bad_data_config_before_writing(key, text, tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path / "bad.cfg", **{key: text})
    out = tmp_path / "out"

    def no_terrain(*args, **kwargs):
        raise AssertionError("terrain built before the config was checked")

    # refused before any terrain is built or sample integrated
    monkeypatch.setattr(synthdata, "gen_terrain", no_terrain)
    capsys.readouterr()
    assert run("gen", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err, err
    assert key != "grid.height" or "data.source_mode = random" in err, err
    assert not out.exists()


@pytest.mark.parametrize("key, text", [
    ("train.lr_base", "nan"),
    ("train.weight_decay", "nan"),
    ("train.weight_decay", "-0.1"),
    ("train.clip_norm", "nan"),
    ("train.clip_norm", "0"),
    ("train.eta_min", "-1.0"),
    ("model.d", "0"),
    ("model.mlp_hidden", "0"),
    ("model.head_hidden", "-4"),
    ("seed", "-1"),
    ("train.patience", "-3"),
    ("train.total_steps", "-1"),
])
def test_train_refuses_bad_config_before_writing(key, text, tmp_path, dataset, capsys):
    cfg = write_config(tmp_path / "bad.cfg", **{key: text})
    out = tmp_path / "run"
    capsys.readouterr()
    assert run("train", "--config", str(cfg), "--data", str(dataset), "--out", str(out)) == 2
    err = capsys.readouterr().err
    # the message opens with the key at fault, not another one its value upsets
    assert err.startswith(f"topoflow train: {key} = ") and "Traceback" not in err, err
    assert not out.exists()


def test_dump_perm_lists_sample_zero_order(tmp_path, config_path, dataset):
    # under the default rotating wind each sample has its own wind, and the
    # listing is the order whose sector ranks the model gives sample 0
    from topoflow import reorder, train
    from topoflow.model import ModelConfig

    assert DEFAULTS["data.wind_mode"] == "rotate"
    out = tmp_path / "dump"
    assert run("dump", "perm", "--config", str(config_path), "--data", str(dataset),
               "--out", str(out)) == 0
    lines = (out / "perm.txt").read_text().splitlines()
    bundle = synthdata.read_dataset(dataset)
    config = ModelConfig(bundle.spec, n_horizons=len(bundle.horizons))
    want = train.prepare_arrays(bundle, config).ranks[0]
    forward = [int(ln.split()[1]) for ln in lines[1 : 1 + bundle.spec.n_patches]]
    layout = reorder._sector_layout(bundle.spec)
    assert sorted(forward) == list(range(bundle.spec.n_patches))
    np.testing.assert_array_equal(reorder.sector_ranks(np.array([forward]), layout)[0], want)


def test_loaded_dataset_regenerates_its_samples(dataset, config_path):
    # the manifest states the configs the samples were made with, so
    # make_sample on a loaded bundle's own configs draws the stored winds;
    # only the float32 round trip of the stored terrain is left between the two
    from topoflow import cli

    cfg = cli.resolve_config(argparse.Namespace(config=str(config_path)))
    bundle = synthdata.read_dataset(dataset)
    assert (bundle.data, bundle.physics) == (cli.build_data(cfg), cli.build_physics(cfg))
    for i, stored in enumerate(bundle.samples):
        again = synthdata.make_sample(
            i, 0, bundle.spec, bundle.terrain, bundle.physics, bundle.data
        )
        for name in ("u", "v"):
            np.testing.assert_allclose(
                again.input.channel(name), stored.input.channel(name), rtol=0, atol=2e-6
            )
        for t0, t1 in zip(again.targets, stored.targets):
            np.testing.assert_allclose(t0.data, t1.data, rtol=0, atol=5e-5)


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
    assert len(list((out / "samples").glob("*.gfd"))) == 100


def test_thread_cap_env(monkeypatch):
    from topoflow.cli import _apply_thread_cap

    monkeypatch.setenv("TOPOFLOW_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    _apply_thread_cap()
    assert os.environ["OMP_NUM_THREADS"] == "1"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    # the cap is applied in main(), so it only reaches BLAS if the CLI
    # loads no numpy before then: DEFAULTS is derived from the config
    # dataclasses, so topoflow.config must stay numpy-free too
    src = os.path.dirname(os.path.dirname(os.path.abspath(synthdata.__file__)))
    code = (
        "import sys, topoflow.config, topoflow.cli as cli; "
        "cli.DEFAULTS['train.warmup']; cli.build_parser(); "
        "sys.exit('numpy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
