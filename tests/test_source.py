"""Checks on the package's source text."""

import ast
from pathlib import Path

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
