"""The flat config codec against the desk defaults and the config dataclasses."""

import dataclasses
from pathlib import Path

import pytest

from topoflow import cli
from topoflow.config import decode, value
from topoflow.errors import ConfigError
from topoflow.fields import GridSpec
from topoflow.model import ModelConfig
from topoflow.synthdata import PhysicsConfig
from topoflow.train import TrainConfig

SECTIONS = {"grid": GridSpec, "physics": PhysicsConfig, "model": ModelConfig, "train": TrainConfig}


def test_defaults_keys_name_dataclass_fields():
    for key in cli.DEFAULTS:
        section, _, name = key.partition(".")
        if section in SECTIONS:
            assert name in {f.name for f in dataclasses.fields(SECTIONS[section])}, key
    assert cli.build_grid(cli.DEFAULTS) == GridSpec(32, 64, 2, 8, 8)
    assert cli.build_physics(cli.DEFAULTS) == PhysicsConfig()
    assert cli.build_model_config(cli.DEFAULTS) == ModelConfig(GridSpec(32, 64, 2, 8, 8))
    assert cli.build_train_config(cli.DEFAULTS) == TrainConfig()
    assert cli.build_train_config(cli.DEFAULTS).total_steps == 600


def test_readme_table_is_defaults():
    """README's configuration table has one row per key, with its default."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Configuration reference")[1]
    rows = {}
    for line in section.split("\n## ")[0].splitlines():
        cells = [c.strip().strip("`") for c in line.split("|")[1:-1]]
        if len(cells) == 3 and cells[0] not in ("key", "---"):
            assert cells[0] not in rows, cells[0]
            rows[cells[0]] = cells[1]
    assert rows == cli.DEFAULTS


def test_dataclass_fields_are_defaults_keys():
    """Every config field has a key, except those the caller supplies."""
    given = {"model.spec", "model.n_horizons", "train.seed"}
    for section, cls in SECTIONS.items():
        for f in dataclasses.fields(cls):
            key = f"{section}.{f.name}"
            assert key in cli.DEFAULTS or key in given, key


def test_codec_errors_are_config_errors():
    with pytest.raises(ConfigError, match="grid.height"):
        decode(GridSpec, {}, "grid")
    with pytest.raises(ConfigError, match="model.spec.patch"):
        decode(ModelConfig, {"model.spec.height": "4", "model.spec.width": "8"}, "model")
    bad = {
        "seed": ("x1", int),
        "train.lr_base": ("fast", float),
        "model.wind_reorder": ("yes", bool),
        "data.horizons": ("12,a", tuple[int, ...]),
    }
    for key, (text, tp) in bad.items():
        with pytest.raises(ConfigError, match=key):
            value({key: text}, key, tp)
