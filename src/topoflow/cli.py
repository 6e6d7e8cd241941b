"""Command-line harness: gen, train, eval, ablate, dump.

Configuration is a flat UTF-8 text file of `key = value` lines with dotted
section prefixes (`model.d = 64`). Resolution order: built-in desk-scale
defaults, then the config file, then command-line flags; the fully
resolved configuration is echoed verbatim into every output directory so
a run can always be reproduced from its artifacts. The defaults are those
of the five config dataclasses (`grid.*`, `physics.*`, `data.*`, `model.*`,
`train.*`); only `seed`, `ablate.*` and `paths.*` are written here.

Exit codes: 0 success, 1 usage, 2 configuration, 3 data/format, 4 numeric.
The TOPOFLOW_THREADS environment variable caps worker/BLAS thread counts
and is applied before the numeric stack loads.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import statistics
import sys
from pathlib import Path

from .config import (
    DESK_GRID,
    DataConfig,
    GridSpec,
    ModelConfig,
    PhysicsConfig,
    TrainConfig,
    decode,
    encode,
    format_kv,
    read_kv,
    value,
    write_atomic,
)
from .errors import ConfigError, TopoflowError, UsageError


def _desk_defaults() -> dict[str, str]:
    """Every config key at the desk scale: the config dataclasses' defaults
    over the desk grid, less the fields a caller fills in (`model.spec` and
    `model.n_horizons` come from the dataset, `train.seed` is `seed`), plus
    `seed`, `ablate.*` and `paths.*`, the keys that name no dataclass field."""
    model = encode(ModelConfig(DESK_GRID), "model")
    del model["model.n_horizons"]
    train = encode(TrainConfig(), "train")
    return {
        "seed": train.pop("train.seed"),
        **encode(DESK_GRID, "grid"),
        **encode(PhysicsConfig(), "physics"),
        **encode(DataConfig(), "data"),
        **{k: v for k, v in model.items() if not k.startswith("model.spec.")},
        **train,
        "ablate.seeds": "0,1,2,3,4",
        "ablate.variants": "baseline,wind,wind_elev",
        "ablate.tiles": "global,2x2,4x4,8x8",
        "paths.data": "",
        "paths.out": "",
        "paths.checkpoint": "",
    }


DEFAULTS: dict[str, str] = _desk_defaults()


def resolve_config(args) -> dict[str, str]:
    """DEFAULTS, then the --config file, then every given flag, whose
    argparse dest is the config key it sets; empty strings are ignored."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(read_kv(args.config, ConfigError, DEFAULTS))
    for key, given in vars(args).items():
        if key in DEFAULTS and given is not None and given != "":
            cfg[key] = ("true" if given else "false") if isinstance(given, bool) else str(given)
    return cfg


def echo_config(cfg: dict[str, str], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(out_dir / "resolved_config.txt", format_kv(cfg).encode("utf-8"))


def build_grid(cfg):
    return decode(GridSpec, cfg, "grid")


def build_physics(cfg):
    return decode(PhysicsConfig, cfg, "physics")


def build_data(cfg):
    return decode(DataConfig, cfg, "data")


def build_model_config(cfg, spec, n_horizons):
    return decode(ModelConfig, cfg, "model", spec=spec, n_horizons=n_horizons)


def build_train_config(cfg):
    seed = value(cfg, "seed", int)
    if seed < 0:
        raise ConfigError(f"seed = {seed} must be >= 0")
    return decode(TrainConfig, cfg, "train", seed=seed)


def _need_dir(cfg, key, what) -> Path:
    value = cfg[key]
    if not value:
        raise UsageError(f"{what} required (flag --{key.split('.')[1]} or config {key})")
    return Path(value)


def read_dataset(cfg):
    """The dataset at `paths.data`. A `grid.*` key or `train.val_fraction`
    other than the dataset's raises ConfigError naming the first: the run
    takes its grid from the dataset and would echo another, and a split
    other than the one its stats were fit on would validate on samples
    they have seen."""
    from . import synthdata

    bundle = synthdata.read_dataset(_need_dir(cfg, "paths.data", "dataset directory"))
    recorded = [(key, int(text)) for key, text in encode(bundle.spec, "grid").items()]
    for key, want in recorded + [("train.val_fraction", bundle.val_fraction)]:
        if value(cfg, key, type(want)) != want:
            raise ConfigError(f"{key} = {cfg[key]}, but the dataset at {cfg['paths.data']} "
                              f"has {key} = {want!r}")
    return bundle


def load_checkpoint(cfg, bundle):
    """`model.load_checkpoint` of `paths.checkpoint`, for a run on `bundle`.
    A grid size, patch size or horizon count other than the dataset's
    raises ConfigError naming the checkpoint and the first such key; the
    sectors may differ, as a tile ablation cuts the patch grid its own way."""
    from . import model

    path = _need_dir(cfg, "paths.checkpoint", "checkpoint path")
    loaded = model.load_checkpoint(path)
    have = encode(loaded[1], "model")
    want = encode(dataclasses.replace(loaded[1], spec=bundle.spec,
                                      n_horizons=len(bundle.horizons)), "model")
    for key in ("model.spec.height", "model.spec.width", "model.spec.patch", "model.n_horizons"):
        if have[key] != want[key]:
            raise ConfigError(f"{path}: {key} = {have[key]}, but the dataset at "
                              f"{cfg['paths.data']} needs {key} = {want[key]}")
    return loaded


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(cfg: dict[str, str]) -> int:
    from .fields import NormStats
    from . import synthdata, train

    out = _need_dir(cfg, "paths.out", "output directory")
    spec = build_grid(cfg)
    physics = build_physics(cfg)
    data = build_data(cfg)
    tconfig = build_train_config(cfg)
    synthdata.check_sources(spec, data)
    for hours in data.horizons:
        physics.steps_for_hours(hours)
    seed = tconfig.seed
    tw = synthdata.gen_terrain(spec, seed, data, physics)
    samples = synthdata.make_dataset(spec, tw, physics, data, seed)
    # stats come from the training split only
    train_idx, _ = train.split_indices(len(samples), tconfig.val_fraction)
    train_inputs = [samples[i].input for i in train_idx] or [samples[0].input]
    stats = NormStats.fit(train_inputs, synthdata.norm_kinds())
    mask = synthdata.study_mask(spec)
    synthdata.write_dataset(out, samples, tw, mask, stats, seed,
                            val_fraction=tconfig.val_fraction)
    echo_config(cfg, out)
    print(f"wrote {len(samples)} samples to {out}")
    return 0


def cmd_train(cfg: dict[str, str], resume: bool) -> int:
    from . import train

    out = _need_dir(cfg, "paths.out", "output directory")
    bundle = read_dataset(cfg)
    mconfig = build_model_config(cfg, spec=bundle.spec, n_horizons=len(bundle.horizons))
    tconfig = build_train_config(cfg)
    result = train.fit(bundle, mconfig, tconfig, out_dir=out, resume=resume)
    echo_config(cfg, out)
    print(
        f"trained {result.state.step} steps in {result.seconds:.1f}s; "
        f"best val {result.best_val!r} (checkpoint {result.best_path})"
    )
    return 0


def cmd_eval(cfg: dict[str, str]) -> int:
    from . import evalkit, train

    out = _need_dir(cfg, "paths.out", "output directory")
    val_fraction = build_train_config(cfg).val_fraction
    bundle = read_dataset(cfg)
    store, mconfig, _moments, _extras = load_checkpoint(cfg, bundle)
    rep = evalkit.report(store, mconfig, bundle)
    out.mkdir(parents=True, exist_ok=True)
    write_atomic(out / "report.txt", rep.render_text().encode("utf-8"))
    write_atomic(out / "report.csv", rep.to_csv().encode("utf-8"))
    echo_config(cfg, out)
    # the report covers every sample, the ones `train` fits on included
    n = len(bundle.samples)
    fit_idx, val_idx = train.split_indices(n, val_fraction)
    print(f"scored samples {_span(range(n))}: training split {_span(fit_idx)}, "
          f"validation split {_span(val_idx)} (train.val_fraction = "
          f"{cfg['train.val_fraction']})")
    print(f"overall rmse {rep.overall()!r}; wrote {out / 'report.txt'}")
    return 0


def _span(idx) -> str:
    """`first-last` of a run of consecutive indices, or `none`."""
    return f"{idx[0]}-{idx[-1]}" if len(idx) else "none"


ABLATION_VARIANTS = {
    "baseline": (False, False),
    "wind": (True, False),
    "wind_elev": (True, True),
}


def _tile_grid(label: str) -> tuple[int, int]:
    if label == "global":
        return (1, 1)
    try:
        ty, tx = (int(x) for x in label.split("x"))
        if ty < 1 or tx < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(
            f"ablate.tiles: bad tile label {label!r}; use 'global' or 'RxC' with R, C >= 1"
        ) from None
    return (ty, tx)


def _distinct(cfg: dict[str, str], key: str, tp) -> tuple:
    """A non-empty comma list from the config, each entry once."""
    items = value(cfg, key, tuple[tp, ...])
    if not items or len(set(items)) < len(items):
        raise ConfigError(f"{key} must list distinct entries, got {cfg[key]!r}")
    return items


def _component_runs(cfg, mconfig, tconfig) -> list[tuple]:
    """(run name, variant, ModelConfig, TrainConfig) for every variant and
    seed, variant-major."""
    seeds = _distinct(cfg, "ablate.seeds", int)
    if min(seeds) < 0:
        raise ConfigError(f"ablate.seeds must be >= 0, got {cfg['ablate.seeds']!r}")
    variants = _distinct(cfg, "ablate.variants", str)
    unknown = set(variants) - set(ABLATION_VARIANTS)
    if unknown:
        raise ConfigError(f"unknown ablation variants {sorted(unknown)}")
    runs = []
    for variant in variants:
        wind, elev = ABLATION_VARIANTS[variant]
        m = dataclasses.replace(mconfig, wind_reorder=wind, elev_bias=elev)
        runs += [(f"{variant}-seed{seed}", variant, m, dataclasses.replace(tconfig, seed=seed))
                 for seed in seeds]
    return runs


def _tile_runs(cfg, mconfig, tconfig) -> list[tuple]:
    """(run name, "RxC", ModelConfig, TrainConfig) for every tile label: the
    wind-reorder variant with the patch grid cut into R x C sectors."""
    labels = _distinct(cfg, "ablate.tiles", str)
    grids = [_tile_grid(label) for label in labels]
    # 'global' is the 1x1 grid: each granularity may be trained once
    if len(set(grids)) < len(grids):
        raise ConfigError(
            f"ablate.tiles must list distinct granularities ('global' is 1x1), "
            f"got {cfg['ablate.tiles']!r}"
        )
    spec = mconfig.spec
    runs = []
    for label, (ty, tx) in zip(labels, grids):
        # the sector sizes below floor, and GridSpec accepts them, so a grid
        # that does not divide the patch grid would train another granularity
        if spec.patches_y % ty or spec.patches_x % tx:
            raise ConfigError(
                f"tile grid {ty}x{tx} does not divide the "
                f"{spec.patches_y}x{spec.patches_x} patch grid"
            )
        sectors = dataclasses.replace(
            spec, sector_rows=spec.patches_y // ty, sector_cols=spec.patches_x // tx
        )
        m = dataclasses.replace(mconfig, spec=sectors, wind_reorder=True)
        runs.append((label, f"{ty}x{tx}", m, tconfig))
    return runs


def _write_table(out: Path, stem: str, text: list[str], csv: list[str]) -> None:
    table = "\n".join(text) + "\n"
    write_atomic(out / f"{stem}.txt", table.encode("utf-8"))
    write_atomic(out / f"{stem}.csv", ("\n".join(csv) + "\n").encode("utf-8"))
    print(table, end="")


def cmd_ablate(cfg: dict[str, str], mode: str) -> int:
    """Train each run of the mode's list into `runs/<name>/` under the
    output directory, then write the mode's tables. The whole list is
    checked before the first fit."""
    from . import train

    out = _need_dir(cfg, "paths.out", "output directory")
    bundle = read_dataset(cfg)
    mconfig = build_model_config(cfg, spec=bundle.spec, n_horizons=len(bundle.horizons))
    tconfig = build_train_config(cfg)
    out.mkdir(parents=True, exist_ok=True)
    if mode == "components":
        runs = _component_runs(cfg, mconfig, tconfig)
    elif mode == "tiles":
        runs = _tile_runs(cfg, mconfig, tconfig)
    else:
        raise UsageError(f"unknown ablate mode {mode!r}")
    results = [train.fit(bundle, m, t, out / "runs" / name) for name, _key, m, t in runs]
    if mode == "components":
        tiles = f"{bundle.spec.sectors_y}x{bundle.spec.sectors_x}"
        text = ["variant scanning wind_tiles elevation_alpha median_best_val"]
        csv = ["variant,seed,wind_reorder,elev_bias,best_val,final_val"]
        best = {}
        for (_name, variant, m, t), r in zip(runs, results):
            best.setdefault((variant, m), []).append(r.best_val)
            csv.append(
                f"{variant},{t.seed},{m.wind_reorder},{m.elev_bias},{r.best_val!r},{r.final_val!r}"
            )
        for (variant, m), values in best.items():
            text.append(
                f"{variant} {'wind-directed' if m.wind_reorder else 'row-major'} "
                f"{tiles if m.wind_reorder else 'none'} "
                f"{'yes' if m.elev_bias else 'no'} {statistics.median(values)!r}"
            )
        _write_table(out, "ablation", text, csv)
    else:
        text = ["strategy tiles loss delta"]
        csv = ["strategy,tiles,loss,delta"]
        for (label, grid, _m, _t), r in zip(runs, results):
            delta = r.best_val - results[0].best_val
            text.append(f"{label} {grid} {r.best_val!r} {delta!r}")
            csv.append(f"{label},{grid},{r.best_val!r},{delta!r}")
        _write_table(out, "tiles", text, csv)
    echo_config(cfg, out)
    return 0


def cmd_dump(cfg: dict[str, str], what: str) -> int:
    import numpy as np

    from . import evalkit, model, reorder, topo_bias
    from .fields import Field, write_grid

    out = _need_dir(cfg, "paths.out", "output directory")
    bundle = read_dataset(cfg)
    spec = bundle.spec
    if what == "attn":
        store, mconfig, _m, _e = load_checkpoint(cfg, bundle)
        if mconfig.layers == 0:
            raise ConfigError(f"{cfg['paths.checkpoint']}: model.layers = 0, so the model has "
                              f"no attention layer to dump")
    out.mkdir(parents=True, exist_ok=True)
    if what == "perm":
        # the order the model gives sample 0, the first sample `dump attn`
        # previews: each sample is ordered by its own input winds
        first = bundle.samples[0].input
        order, angles = reorder.build_permutation(spec, first.channel("u"), first.channel("v"))
        inverse = np.argsort(order)
        lines = ["# slot forward inverse"]
        lines += [f"{i} {order[i]} {inverse[i]}" for i in range(spec.n_patches)]
        lines.append("# sector angles (radians)")
        lines += [f"sector {s} {float(angles[s])!r}" for s in range(spec.n_sectors)]
        write_atomic(out / "perm.txt", ("\n".join(lines) + "\n").encode("utf-8"))
        print(f"wrote {out / 'perm.txt'}")
    elif what == "bias":
        alpha = topo_bias.ALPHA_INIT
        ckpt = cfg["paths.checkpoint"]
        if ckpt:
            store, _mcfg, _m, _e = model.load_checkpoint(Path(ckpt))
            alpha = float(store["alpha"].data)
        elev = topo_bias.patch_elevations(bundle.terrain.elevation, spec)
        bias = topo_bias.bias_tensor(elev, alpha).data
        n = spec.n_patches
        container = Field(
            GridSpec(n, n, 1, 1, 1), ("bias_elev",), bias[None].astype(np.float32), ("",)
        )
        write_grid(container, out / "bias.gfd")
        write_atomic(out / "bias.txt", (
            f"alpha {float(alpha)!r}\nmin {float(bias.min())!r}\nmax {float(bias.max())!r}\n"
        ).encode("utf-8"))
        print(f"wrote {out / 'bias.gfd'} (alpha={alpha})")
    elif what == "attn":
        preview = dataclasses.replace(bundle, samples=bundle.samples[:4])
        _preds, attn = evalkit.predict_grids(
            store, mconfig, preview, batch=4, collect_attention=True
        )
        mean_attn = np.mean(attn, axis=0)
        n = spec.n_patches
        container = Field(
            GridSpec(n, n, 1, 1, 1), ("attn_mean",), mean_attn[None].astype(np.float32), ("",)
        )
        write_grid(container, out / "attn.gfd")
        diag = evalkit.attn_diagnostics(np.asarray(attn))
        write_atomic(out / "attn.txt", evalkit.render_attn_text(diag).encode("utf-8"))
        print(f"wrote {out / 'attn.gfd'} (mu={diag.mu:.4f})")
    else:
        raise UsageError(f"unknown dump target {what!r}")
    echo_config(cfg, out)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _apply_thread_cap() -> None:
    threads = os.environ.get("TOPOFLOW_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topoflow",
        description="wind-guided patch reordering + terrain-aware attention, desk scale",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p, checkpoint=False):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--seed", type=int, help="root random seed")
        p.add_argument("--out", dest="paths.out", help="output directory")
        p.add_argument("--data", dest="paths.data", help="dataset directory")
        if checkpoint:
            p.add_argument("--checkpoint", dest="paths.checkpoint", help="checkpoint .gfd path")

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    common(p_gen)
    p_gen.add_argument("--count", type=int, dest="data.count", help="sample count override")

    p_train = sub.add_parser("train", help="train a forecaster")
    common(p_train)
    warmup = DEFAULTS["train.warmup"]
    steps_help = (
        f"total optimization steps override; a budget below train.warmup ({warmup} at the"
        " desk defaults) needs train.warmup lowered too, in a --config file"
    )
    p_train.add_argument("--steps", type=int, dest="train.total_steps", help=steps_help)
    p_train.add_argument("--resume", action="store_true", help="continue from last checkpoint")
    p_train.add_argument(
        "--wind-reorder", action=argparse.BooleanOptionalAction, dest="model.wind_reorder"
    )
    p_train.add_argument(
        "--elev-bias", action=argparse.BooleanOptionalAction, dest="model.elev_bias"
    )

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p_eval, checkpoint=True)

    p_ablate = sub.add_parser("ablate", help="component or tile-granularity ablations")
    common(p_ablate)
    p_ablate.add_argument("--mode", choices=("components", "tiles"), default="components")
    p_ablate.add_argument("--seeds", dest="ablate.seeds", help="comma list of seeds")
    p_ablate.add_argument(
        "--variants", dest="ablate.variants", help="comma list of component variants"
    )
    p_ablate.add_argument("--steps", type=int, dest="train.total_steps", help=steps_help)

    p_dump = sub.add_parser("dump", help="debug artifacts")
    p_dump.add_argument("what", choices=("attn", "bias", "perm"))
    common(p_dump, checkpoint=True)
    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else UsageError.exit_code
    if not args.command:
        parser.print_usage(sys.stderr)
        return UsageError.exit_code
    try:
        cfg = resolve_config(args)
        if args.command == "gen":
            return cmd_gen(cfg)
        if args.command == "train":
            return cmd_train(cfg, resume=args.resume)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "ablate":
            return cmd_ablate(cfg, args.mode)
        if args.command == "dump":
            return cmd_dump(cfg, args.what)
        parser.print_usage(sys.stderr)
        return UsageError.exit_code
    except TopoflowError as exc:
        print(f"topoflow {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
