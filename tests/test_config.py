"""The flat config codec against the desk defaults and the config dataclasses."""

import ast
import dataclasses
from pathlib import Path

import pytest

from topoflow import cli
from topoflow.config import DataConfig, decode, encode, value
from topoflow.errors import ConfigError
from topoflow.fields import GridSpec
from topoflow.model import ModelConfig
from topoflow.synthdata import PhysicsConfig
from topoflow.train import TrainConfig

SECTIONS = {
    "grid": GridSpec,
    "physics": PhysicsConfig,
    "data": DataConfig,
    "model": ModelConfig,
    "train": TrainConfig,
}


def test_defaults_keys_name_dataclass_fields():
    for key in cli.DEFAULTS:
        section, _, name = key.partition(".")
        if section in SECTIONS:
            assert name in {f.name for f in dataclasses.fields(SECTIONS[section])}, key
    assert cli.build_grid(cli.DEFAULTS) == GridSpec(32, 64, 2, 8, 8)
    assert cli.build_physics(cli.DEFAULTS) == PhysicsConfig()
    data = cli.build_data(cli.DEFAULTS)
    assert data == DataConfig()
    model = cli.build_model_config(cli.DEFAULTS, cli.build_grid(cli.DEFAULTS), len(data.horizons))
    assert model == ModelConfig(GridSpec(32, 64, 2, 8, 8))
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


def test_decode_refuses_an_absent_key_whose_field_has_a_default():
    # a default is never filled in, so whatever a file decodes to, it stated
    kv = encode(PhysicsConfig(), "physics")
    del kv["physics.substeps"]
    with pytest.raises(ConfigError, match="missing key 'physics.substeps'"):
        decode(PhysicsConfig, kv, "physics")


def _file_calls(tree):
    """(name, mode, call) for each call in a syntax tree of `open` or of a
    `.read_text()`, `.read_bytes()`, `.write_text()` or `.write_bytes()`
    method: `open`'s mode as text ("r" when not given), None when it is
    not a literal."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("read_text", "read_bytes", "write_text", "write_bytes"):
            if isinstance(func, ast.Attribute):
                yield name, None, node
        elif name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            yield name, str(mode.value) if isinstance(mode, ast.Constant) else None, node


def _read_calls(tree):
    """Calls in a module's syntax tree that read a file: `open` in a mode
    without w, a or x (or a mode that is not a literal), `.read_text()`
    and `.read_bytes()`."""
    for name, mode, node in _file_calls(tree):
        if name in ("read_text", "read_bytes") or (
                name == "open" and not (mode and set(mode) & set("wax"))):
            yield node


def test_files_are_read_only_in_config():
    """Every file the package reads goes through `topoflow.config`, so each
    fault is reported one way."""
    src = Path(__file__).resolve().parents[1] / "src" / "topoflow"
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in _read_calls(tree)]
    assert found and all(site.startswith("config.py:") for site in found), found


def _write_calls(tree):
    """(enclosing module-level function or None, call) for each call in a
    module's syntax tree that writes a whole file: `open` in a mode with w
    or x (or a mode that is not a literal), `.write_text()` and
    `.write_bytes()`."""
    for top in tree.body:
        for name, mode, node in _file_calls(top):
            if name in ("write_text", "write_bytes") or (
                    name == "open" and (mode is None or set(mode) & set("wx"))):
                yield getattr(top, "name", None), node


def test_files_are_written_whole_only_by_write_atomic():
    """Every whole file the package writes goes through
    `config.write_atomic`, so a killed writer leaves the old file whole;
    appends (the loss log) are the callers'."""
    src = Path(__file__).resolve().parents[1] / "src" / "topoflow"
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, fn) for fn, _node in _write_calls(tree)]
    assert found == [("config.py", "write_atomic")]


def test_write_calls_finder_sees_each_form():
    tree = ast.parse(
        "open(p, 'w')\nopen(p, 'wb')\nopen(p, mode='x')\nopen(p, m)\np.write_text(t)\n"
        "def f():\n    p.write_bytes(b)\n"
        "open(p)\nopen(p, 'rb')\nopen(p, 'ab')\nfh.write(t)\n"
    )
    assert [(fn, node.lineno) for fn, node in _write_calls(tree)] == [
        (None, 1), (None, 2), (None, 3), (None, 4), (None, 5), ("f", 7)]


def test_read_calls_finder_sees_each_form():
    tree = ast.parse(
        "open(p)\nopen(p, 'rb')\nopen(p, mode='r')\nopen(p, m)\np.read_text()\n"
        "p.read_bytes()\nopen(p, 'w')\nopen(p, 'ab')\nopen(p, mode='x')\nfh.read()\n"
    )
    assert [node.lineno for node in _read_calls(tree)] == [1, 2, 3, 4, 5, 6]
