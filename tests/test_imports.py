"""Every name a module under src/rkcodes/ imports is used in that module.

Deleting a function often leaves its imports behind; this guard finds them
with the standard library's ast module alone.  A name counts as used when
it appears as a Name node (attribute access such as json.dumps included)
or is listed in the module's __all__.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCE_DIR = Path(__file__).resolve().parents[1] / "src" / "rkcodes"
MODULES = sorted(SOURCE_DIR.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_guard_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import json\n"
        "from typing import Sequence as Seq, Iterator\n"
        "from x import exported\n"
        "__all__ = ['exported']\n"
        "def f(v: Seq) -> None:\n"
        "    json.dumps(v)\n"
    )
    assert unused_imports(source) == ["Iterator", "os"]


def test_modules_found():
    assert {"codes.py", "graymap.py", "polyqt.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
