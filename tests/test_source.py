"""Checks on the package's source text."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mutants

SRC = Path(__file__).resolve().parents[1] / "src" / "topoflow"


def _unused_imports(tree):
    """(line, name) of each name a module's imports bind that no name in the
    module reads. `from __future__` imports set compiler flags and bind
    nothing read later, so they are left out."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_every_import_is_used():
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        found = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            unused[path.name] = found
    assert unused == {}


def test_unused_import_finder_sees_each_form():
    tree = ast.parse(
        "from __future__ import annotations\nimport os\nimport numpy as np\n"
        "import os.path\nfrom typing import Iterable\nfrom .model import forward as fw\n"
        "from . import reorder\n"
        "def f(x: Iterable):\n    from .cli import main\n    return np.sum(x)\n"
    )
    assert _unused_imports(tree) == [(4, "os"), (6, "fw"), (7, "reorder"), (9, "main")]


def _read_names(trees):
    """Every name that a `Name` or an attribute reads in the `{module: tree}`
    modules."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _unread_definitions(trees):
    """(module, name) of each module-level function or class, and each
    non-dunder method (`Class.method`), whose name no `Name` or attribute
    in any of the `{module: tree}` modules reads."""
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (module, f"{node.name}.{item.name}") for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
    read = _read_names(trees)
    return sorted((m, name) for m, name in defined if name.rpartition(".")[2] not in read)


def test_every_definition_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert _unread_definitions(trees) == []


def test_unread_definition_finder_sees_each_form():
    trees = {
        "a.py": ast.parse(
            "def used(): pass\ndef lonely(): pass\nasync def stray(): pass\n"
            "class Kept:\n    def __init__(self): pass\n    def run(self): pass\n"
            "    def save(self): pass\n    @property\n    def size(self): return 1\n"
            "class Gone:\n    pass\n"
            "def outer():\n    def inner(): pass\n    return inner\n"
        ),
        "b.py": ast.parse(
            "from a import used, Kept\nsave = 1\n"
            "def main():\n    used()\n    Kept().run()\n    return Kept().size + outer()\n"
        ),
    }
    assert _unread_definitions(trees) == [
        ("a.py", "Gone"), ("a.py", "Kept.save"), ("a.py", "lonely"), ("a.py", "stray"),
        ("b.py", "main"),
    ]


def _unread_constants(trees):
    """(module, name) of each module-level ALL-CAPS name that a `{module:
    tree}` module assigns and no `Name` or attribute in any of them reads."""
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined += [(module, name.id) for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name) and name.id.isupper()]
    read = _read_names(trees)
    return sorted((m, name) for m, name in defined if name not in read)


def test_every_module_constant_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert _unread_constants(trees) == []


def test_unread_constant_finder_sees_each_form():
    trees = {
        "a.py": ast.parse(
            "USED = 1\nLONELY = 2\n_HIDDEN: int = 3\nA, (B, C) = 4, (5, 6)\nlower = 7\n"
            "SELF = 8\nSELF = SELF + 1\n"
            "def f():\n    INNER = 9\n    return INNER\n"
            "class K:\n    FIELD = 10\n"
        ),
        "b.py": ast.parse("import a\nx = a.USED + B\n"),
    }
    assert _unread_constants(trees) == [
        ("a.py", "A"), ("a.py", "C"), ("a.py", "LONELY"), ("a.py", "_HIDDEN"),
    ]


# Imports every module of the package in a fresh interpreter and prints the
# top-level names of the modules that loaded, leaving out those that were
# loaded before (`site` loads some at start-up, such as `_distutils_hack`).
IMPORT_PROBE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import topoflow
for info in pkgutil.iter_modules(topoflow.__path__):
    if info.name != "__main__":
        importlib.import_module("topoflow." + info.name)
print(" ".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_importing_the_package_loads_only_the_standard_library_and_numpy():
    # a run's set-up time starts with these imports, so a new third-party
    # import shows up there first
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True)
    loaded = set(proc.stdout.split())
    assert loaded - set(sys.stdlib_module_names) == {"numpy", "topoflow"}


def test_model_and_attention_read_neither_toggle():
    # `train.prepare_arrays` turns `wind_reorder` and `elev_bias` into the
    # sector ranks and the patch elevations; the network reads neither
    toggles = ("wind_reorder", "elev_bias")
    for name in ("model.py", "attention.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        reads = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load) and node.attr in toggles]
        assert reads == [], name


def test_every_mutant_line_occurs_once_in_src():
    # tests/mutants.py applies each mutant by its whole line; a change that
    # rewrites a mutated line must restate the mutant, and the runner
    # (`python tests/mutants.py`) shows the suite still kills it
    assert len({(m.file, m.line, m.mutant) for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    assert {m.name: mutants.occurrences(m) for m in mutants.MUTANTS} == {
        m.name: 1 for m in mutants.MUTANTS}
