"""Every name a module under src/rkcodes/ imports is used in that module,
every module-level _private function or class is used in the package,
every import names rkcodes or a module of the standard library, and no
error message the package raises names a Python identifier.

Deleting a function often leaves its imports or its private helpers
behind; these guards find them with the standard library's ast module
alone.  An import counts as used when it appears as a Name node (attribute
access such as json.dumps included) or is listed in the module's __all__.
A private definition counts as used when its name appears as a Name or an
attribute outside its own definition, in any module of the package.  A
public one counts as used the same way, or when a module under perfbench/
names it or the package's __all__ lists it, so code that only the tests
reach lives under tests/ (oracles.py), not in the package.  The
package has no dependencies: numpy, hypothesis and pytest are installed for
the tests only, so a kernel that imports one would break a plain install.
Error messages reach CLI users as "error: ..." lines, so the literal text
of a raise X(...) message may not name a snake_case or CONSTANT_CASE
identifier (any word with an underscore); ring names such as R_1 or R_{k}
are the paper's notation and stay allowed.  Importing the package, its
analysis module or its CLI loads no process pool: only search with more
than one job needs multiprocessing, so search imports it.  No module calls
object.__setattr__ or declares a ClassVar, so frozen values stay frozen.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE_DIR = Path(__file__).resolve().parents[1] / "src" / "rkcodes"
MODULES = sorted(SOURCE_DIR.glob("*.py"))
BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


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
    return sorted(imported - used - _listed_in_all(tree))


def _listed_in_all(tree: ast.AST) -> set[str]:
    """The names that an __all__ assignment in the tree lists."""
    return {
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }


def _names(tree: ast.AST) -> set[str]:
    """Every Name and attribute name in the tree."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def unreferenced_defs(sources: dict[str, str], callers: dict[str, str] | None = None) -> list[str]:
    """'module:name' of every module-level def or class, dunders aside, that no other statement
    of the package, no caller module and not the package's __all__ (in __init__) names.

    The scan goes by name, so a local variable of the same name hides a def,
    and methods are not checked.
    """
    defined: list[str] = []
    used = _listed_in_all(ast.parse(sources.get("__init__", "")))
    for source in (callers or {}).values():
        used |= _names(ast.parse(source))
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("__"):
                    defined.append(f"{module}:{own}")
            used |= _names(stmt) - {own}  # a recursive call is not a use
    return sorted(d for d in defined if d.partition(":")[2] not in used)


def unused_private_defs(sources: dict[str, str]) -> list[str]:
    return [d for d in unreferenced_defs(sources) if ":_" in d]


def uncalled_public_defs(sources: dict[str, str], callers: dict[str, str]) -> list[str]:
    return [d for d in unreferenced_defs(sources, callers) if ":_" not in d]


def foreign_imports(source: str) -> list[str]:
    """Top-level modules imported that are neither rkcodes nor in the standard library."""
    roots: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return sorted(r for r in roots if r != "rkcodes" and r not in sys.stdlib_module_names)


def test_guard_finds_foreign_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from collections import Counter\n"
        "from rkcodes.gf2 import F2Span\n"
        "from . import ring\n"
        "def f():\n"
        "    import hypothesis.strategies\n"
    )
    assert foreign_imports(source) == ["hypothesis", "numpy"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text()) == []


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


def test_importing_the_package_loads_no_process_pool():
    # only search with jobs > 1 starts a pool; multiprocessing was about a third of import time
    script = (
        "import sys, rkcodes, rkcodes.analysis, rkcodes.cli\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SOURCE_DIR.parent)}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_finds_unused_private_defs():
    sources = {
        "a": (
            "def _used(): pass\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "class _Orphan: pass\n"
            "def __getattr__(name): pass\n"
            "def public(): return _used()\n"
        ),
        "b": "import a\ndef _via_attribute(): pass\nx = a._elsewhere\n"
              "def _elsewhere(): pass\nfrom a import _imported_only\n",
    }
    assert unused_private_defs(sources) == ["a:_Orphan", "a:_recursive", "b:_via_attribute"]


def test_no_unused_private_defs():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unused_private_defs(sources) == []


def test_guard_finds_test_only_public_defs():
    sources = {
        "a": (
            "def used(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Orphan: pass\n"
            "def exported(): pass\n"
            "def benched(): pass\n"
            "def _private(): return used()\n"
            "def listed_in_a_module_all(): pass\n"
            "__all__ = ['listed_in_a_module_all']\n"
        ),
        "b": "import a\nx = a.via_attribute\ndef via_attribute(): pass\n"
              "from a import imported_only\ndef imported_only(): pass\n",
        "__init__": "__all__ = ['exported']\n",
    }
    callers = {"bench": "from a import benched\nbenched()\n"}
    assert uncalled_public_defs(sources, callers) == [
        "a:Orphan", "a:listed_in_a_module_all", "a:recursive", "b:imported_only",
    ]


def test_no_test_only_public_defs():
    sources = {path.stem: path.read_text() for path in MODULES}
    callers = {path.stem: path.read_text() for path in sorted(BENCH_DIR.glob("*.py"))}
    assert callers
    assert uncalled_public_defs(sources, callers) == []


def _literal_text(node: ast.expr) -> str:
    """The literal characters of a message argument; each f-string field reads as a space."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_literal_text(part) if isinstance(part, ast.Constant) else " "
                       for part in node.values)
    return ""


def identifiers_in_raise_messages(source: str) -> list[str]:
    """'line:word' of every word with an underscore, other than a ring name R_k, in a raise message."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            for arg in node.exc.args:
                found += [
                    f"{node.lineno}:{word}"
                    for word in re.findall(r"\w+", _literal_text(arg))
                    if "_" in word and not re.fullmatch(r"R_\d*", word)
                ]
    return found


def test_guard_finds_identifiers_in_raise_messages():
    source = (
        "def f(k, e):\n"
        "    raise ValueError(f'element of R_{e.k} fed to a k={k} map, not R_2')\n"
        "    raise ValueError('pass allow_above_k_max=True to force')\n"
        "    raise ValueError(f'exceeds K_MAX={k}', f'see {e._cache} and _cache')\n"
        "    raise NotInImageError\n"
        "    raise ValueError(message_of(e))\n"
        "    log('a_logged_name')\n"
    )
    assert identifiers_in_raise_messages(source) == [
        "3:allow_above_k_max", "4:K_MAX", "4:_cache",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_raise_messages_name_no_identifiers(path):
    assert identifiers_in_raise_messages(path.read_text()) == []


def frozen_value_bypasses(source: str) -> list[str]:
    """'line:name' of every object.__setattr__ call and every ClassVar annotation.

    A frozen dataclass is written only by its own __init__: a value that one
    of its makers knows goes in a field, not in a class default patched per
    instance.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        func = node.func if isinstance(node, ast.Call) else None
        if (
            isinstance(func, ast.Attribute) and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name) and func.value.id == "object"
        ):
            found.append(f"{node.lineno}:object.__setattr__")
        elif isinstance(node, ast.AnnAssign) and "ClassVar" in ast.unparse(node.annotation):
            found.append(f"{node.lineno}:ClassVar")
    return found


def test_guard_finds_frozen_value_bypasses():
    source = (
        "import typing\n"
        "from typing import ClassVar\n"
        "class C:\n"
        "    a: ClassVar[int] = 1\n"
        "    b: typing.ClassVar[int] = 2\n"
        "    c: 'ClassVar[int]' = 3\n"
        "    d: int = 4\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'd', 5)\n"
        "        setattr(self, 'd', 6)\n"
        "        super().__setattr__('d', 7)\n"
    )
    assert frozen_value_bypasses(source) == [
        "4:ClassVar", "5:ClassVar", "6:ClassVar", "9:object.__setattr__",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_frozen_values_stay_frozen(path):
    assert frozen_value_bypasses(path.read_text()) == []
