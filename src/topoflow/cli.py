"""Command-line harness: gen, train, eval, ablate, dump.

Configuration is a flat UTF-8 text file of `key = value` lines with dotted
section prefixes (`model.d = 64`). Resolution order: built-in desk-scale
defaults, then the config file, then command-line flags; the fully
resolved configuration is echoed verbatim into every output directory so
a run can always be reproduced from its artifacts.

Exit codes: 0 success, 1 usage, 2 configuration, 3 data/format, 4 numeric.
The TOPOFLOW_THREADS environment variable caps worker/BLAS thread counts
and is applied before the numeric stack loads.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import decode, value
from .errors import ConfigError, TopoflowError, UsageError

DEFAULTS: dict[str, str] = {
    "seed": "0",
    "grid.height": "32",
    "grid.width": "64",
    "grid.patch": "2",
    "grid.sector_cols": "8",
    "grid.sector_rows": "8",
    "physics.kappa": "40.0",
    "physics.dt": "150.0",
    "physics.dx": "2000.0",
    "physics.boundary": "periodic",
    "physics.sink": "6.7e-05",
    "physics.max_wind": "6.0",
    "physics.hours_per_step": "12.0",
    "physics.substeps": "12",
    "data.archetype": "basin_ridge",
    "data.base_speed": "2.0",
    "data.count": "200",
    "data.horizons": "12,24,48,96",
    "data.wind_mode": "rotate",
    "data.source_mode": "random",
    "data.init_mode": "textured",
    "model.d": "64",
    "model.layers": "2",
    "model.heads": "4",
    "model.mlp_hidden": "256",
    "model.head_hidden": "256",
    "model.dropout": "0.1",
    "model.wind_reorder": "true",
    "model.elev_bias": "true",
    "model.wind_mean": "weighted",
    "train.lr_base": "0.0001",
    "train.lr_embed": "0.0002",
    "train.lr_head": "5e-05",
    "train.lr_backbone": "1e-05",
    "train.weight_decay": "0.01",
    "train.warmup": "60",
    "train.total_steps": "600",
    "train.eta_min": "1e-06",
    "train.clip_norm": "1.0",
    "train.batch_size": "8",
    "train.epochs": "60",
    "train.patience": "10",
    "train.val_interval": "25",
    "train.val_fraction": "0.1",
    "ablate.seeds": "0,1,2,3,4",
    "ablate.variants": "baseline,wind,wind_elev",
    "ablate.tiles": "global,2x2,4x4,8x8",
    "paths.data": "",
    "paths.out": "",
    "paths.checkpoint": "",
}

FULL_SCALE_REFERENCE = (
    "# full-scale reference val losses: baseline 0.264, wind 0.257, wind+elev 0.249\n"
)


def parse_config_file(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
            out[key] = value
    return out


def resolve_config(args) -> dict[str, str]:
    """DEFAULTS, then the --config file, then every given flag, whose
    argparse dest is the config key it sets; empty strings are ignored."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    for key, given in vars(args).items():
        if key in DEFAULTS and given is not None and given != "":
            cfg[key] = ("true" if given else "false") if isinstance(given, bool) else str(given)
    return cfg


def echo_config(cfg: dict[str, str], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"{key} = {cfg[key]}\n" for key in sorted(cfg)]
    (out_dir / "resolved_config.txt").write_text("".join(lines), encoding="utf-8")


def build_grid(cfg):
    from .fields import GridSpec

    return decode(GridSpec, cfg, "grid")


def build_physics(cfg):
    from .synthdata import PhysicsConfig

    return decode(PhysicsConfig, cfg, "physics")


def build_model_config(cfg, spec=None, n_horizons=None):
    from .model import ModelConfig

    if n_horizons is None:
        n_horizons = len(value(cfg, "data.horizons", tuple[int, ...]))
    return decode(ModelConfig, cfg, "model", spec=spec or build_grid(cfg), n_horizons=n_horizons)


def build_train_config(cfg):
    from .train import TrainConfig

    return decode(TrainConfig, cfg, "train", seed=value(cfg, "seed", int))


def _need_dir(cfg, key, what) -> Path:
    value = cfg[key]
    if not value:
        raise UsageError(f"{what} required (flag --{key.split('.')[1]} or config {key})")
    return Path(value)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(cfg: dict[str, str]) -> int:
    from .fields import NormStats
    from . import synthdata, train

    out = _need_dir(cfg, "paths.out", "output directory")
    spec = build_grid(cfg)
    physics = build_physics(cfg)
    seed = value(cfg, "seed", int)
    tw = synthdata.gen_terrain(
        spec,
        seed,
        archetype=cfg["data.archetype"],
        base_speed=value(cfg, "data.base_speed", float),
        max_speed=physics.max_wind,
    )
    samples = synthdata.make_dataset(
        spec,
        tw,
        physics,
        value(cfg, "data.horizons", tuple[int, ...]),
        value(cfg, "data.count", int),
        seed,
        wind_mode=cfg["data.wind_mode"],
        source_mode=cfg["data.source_mode"],
        init_mode=cfg["data.init_mode"],
    )
    if not samples:
        raise ConfigError("data.count must be >= 1 to write a dataset")
    # stats come from the training split only
    train_idx, _ = train.split_indices(len(samples), build_train_config(cfg).val_fraction)
    train_inputs = [samples[i].input for i in train_idx] or [samples[0].input]
    stats = NormStats.fit(train_inputs, synthdata.norm_kinds())
    mask = synthdata.study_mask(spec)
    synthdata.write_dataset(out, samples, tw, mask, stats, seed)
    echo_config(cfg, out)
    print(f"wrote {len(samples)} samples to {out}")
    return 0


def cmd_train(cfg: dict[str, str], resume: bool) -> int:
    from . import synthdata, train

    data = _need_dir(cfg, "paths.data", "dataset directory")
    out = _need_dir(cfg, "paths.out", "output directory")
    bundle = synthdata.read_dataset(data)
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
    from . import evalkit, model, synthdata

    data = _need_dir(cfg, "paths.data", "dataset directory")
    ckpt = _need_dir(cfg, "paths.checkpoint", "checkpoint path")
    out = _need_dir(cfg, "paths.out", "output directory")
    bundle = synthdata.read_dataset(data)
    store, mconfig, _moments, _extras = model.load_checkpoint(ckpt)
    rep = evalkit.report(store, mconfig, bundle)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(rep.render_text(), encoding="utf-8")
    (out / "report.csv").write_text(rep.to_csv(), encoding="utf-8")
    echo_config(cfg, out)
    print(f"overall rmse {rep.overall()!r}; wrote {out / 'report.txt'}")
    return 0


def _tiles_from_label(label: str) -> tuple[str, int, int]:
    if label == "global":
        return ("global", 1, 1)
    try:
        ty, tx = (int(x) for x in label.split("x"))
    except ValueError:
        raise ConfigError(f"bad tile label {label!r}; use 'global' or 'RxC'") from None
    return (label, ty, tx)


def cmd_ablate(cfg: dict[str, str], mode: str) -> int:
    from . import synthdata, train

    data = _need_dir(cfg, "paths.data", "dataset directory")
    out = _need_dir(cfg, "paths.out", "output directory")
    bundle = synthdata.read_dataset(data)
    mconfig = build_model_config(cfg, spec=bundle.spec, n_horizons=len(bundle.horizons))
    tconfig = build_train_config(cfg)
    out.mkdir(parents=True, exist_ok=True)
    if mode == "components":
        seeds = value(cfg, "ablate.seeds", tuple[int, ...])
        wanted = [x for x in cfg["ablate.variants"].split(",") if x]
        unknown = set(wanted) - set(train.ABLATION_VARIANTS)
        if unknown:
            raise ConfigError(f"unknown ablation variants {sorted(unknown)}")
        variants = {name: train.ABLATION_VARIANTS[name] for name in wanted}
        rows = train.ablation_run(bundle, seeds, mconfig, tconfig, variants=variants)
        medians = train.median_best_by_variant(rows)
        scanning = {"baseline": "row-major", "wind": "wind-directed", "wind_elev": "wind-directed"}
        tiles = f"{bundle.spec.sectors_y}x{bundle.spec.sectors_x}"
        text = ["variant scanning wind_tiles elevation_alpha median_best_val"]
        csv = ["variant,seed,wind_reorder,elev_bias,best_val,final_val"]
        for name in wanted:
            if name not in medians:
                continue
            text.append(
                f"{name} {scanning[name]} "
                f"{tiles if name != 'baseline' else 'none'} "
                f"{'yes' if name == 'wind_elev' else 'no'} {medians[name]!r}"
            )
        for r in rows:
            csv.append(
                f"{r.variant},{r.seed},{r.wind_reorder},{r.elev_bias},{r.best_val!r},{r.final_val!r}"
            )
        (out / "ablation.txt").write_text(
            "\n".join(text) + "\n" + FULL_SCALE_REFERENCE, encoding="utf-8"
        )
        (out / "ablation.csv").write_text("\n".join(csv) + "\n", encoding="utf-8")
        print((out / "ablation.txt").read_text(), end="")
    elif mode == "tiles":
        labels = [x for x in cfg["ablate.tiles"].split(",") if x]
        tiles_list = [_tiles_from_label(label) for label in labels]
        rows = train.sector_sweep(bundle, tiles_list, mconfig, tconfig)
        text = ["strategy tiles loss delta"]
        csv = ["strategy,tiles,loss,delta"]
        for r in rows:
            text.append(f"{r['strategy']} {r['tiles']} {r['loss']!r} {r['delta']!r}")
            csv.append(f"{r['strategy']},{r['tiles']},{r['loss']!r},{r['delta']!r}")
        (out / "tiles.txt").write_text("\n".join(text) + "\n", encoding="utf-8")
        (out / "tiles.csv").write_text("\n".join(csv) + "\n", encoding="utf-8")
        print((out / "tiles.txt").read_text(), end="")
    else:
        raise UsageError(f"unknown ablate mode {mode!r}")
    echo_config(cfg, out)
    return 0


def cmd_dump(cfg: dict[str, str], what: str) -> int:
    import numpy as np

    from . import evalkit, model, reorder, synthdata, topo_bias
    from .fields import Field, GridSpec, write_grid

    data = _need_dir(cfg, "paths.data", "dataset directory")
    out = _need_dir(cfg, "paths.out", "output directory")
    bundle = synthdata.read_dataset(data)
    spec = bundle.spec
    out.mkdir(parents=True, exist_ok=True)
    if what == "perm":
        perm = reorder.build_permutation(
            spec, bundle.terrain.u, bundle.terrain.v, wind_mean=cfg["model.wind_mean"]
        )
        lines = ["# slot forward inverse"]
        lines += [f"{i} {perm.forward[i]} {perm.inverse[i]}" for i in range(spec.n_patches)]
        lines.append("# sector angles (radians)")
        lines += [f"sector {s} {perm.angles[s]!r}" for s in range(spec.n_sectors)]
        (out / "perm.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
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
        (out / "bias.txt").write_text(
            f"alpha {alpha!r}\nmin {bias.min()!r}\nmax {bias.max()!r}\n",
            encoding="utf-8",
        )
        print(f"wrote {out / 'bias.gfd'} (alpha={alpha})")
    elif what == "attn":
        ckpt = _need_dir(cfg, "paths.checkpoint", "checkpoint path")
        store, mconfig, _m, _e = model.load_checkpoint(ckpt)
        preview = synthdata.DatasetBundle(
            bundle.spec, bundle.samples[: min(4, len(bundle.samples))], bundle.terrain,
            bundle.mask, bundle.stats, bundle.horizons,
        )
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
        (out / "attn.txt").write_text(evalkit.render_attn_text(diag), encoding="utf-8")
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
    steps_help = (
        "total optimization steps override; a budget below train.warmup "
        "(60 at the desk defaults) needs train.warmup lowered too, in a --config file"
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
