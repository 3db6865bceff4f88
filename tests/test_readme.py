"""The README's library quick start runs as written, and the code it names exists."""

from __future__ import annotations

import doctest
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("ring", "gf2", "graymap", "polyqt", "codes", "analysis")


def test_readme_examples_run():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def stale_references(text: str) -> list[str]:
    """Every backticked `module.name`, module an rkcodes module, that the module does not define."""
    pattern = rf"`({'|'.join(MODULES)})\.(\w+)`"
    return [
        f"{module}.{name}"
        for module, name in re.findall(pattern, text)
        if not hasattr(importlib.import_module(f"rkcodes.{module}"), name)
    ]


def test_guard_finds_stale_references():
    text = (
        "`codes.no_such_function` and `gf2.F2Span`, `ring.mul_calls > 0`,\n"
        "`other.thing`, codes.unquoted_name and `analysis.no_such_name`.\n"
    )
    assert stale_references(text) == ["codes.no_such_function", "analysis.no_such_name"]


def test_readme_names_existing_code():
    text = README.read_text()
    assert re.search(r"`codes\.\w+`", text)
    assert stale_references(text) == []
