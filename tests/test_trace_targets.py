"""Every rkcodes name that perfbench's tracer patches exists.

perfbench/trace.py wraps functions and methods of the package by name for
the traced benchmark run (python3 perfbench/run.py --trace 1).  Deleting
or renaming one of them breaks that run alone, which no other test of the
package runs; attaching a fresh tracer here, which patches every target and
puts the originals back, fails on it instead.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from rkcodes import analysis

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def trace(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    from perfbench import trace

    return trace


def test_tracer_patch_targets_exist(trace):
    search = analysis.search
    with trace.Tracer().attached():
        assert analysis.search is not search
    assert analysis.search is search


def test_guard_finds_a_missing_patch_target(trace, monkeypatch):
    monkeypatch.delattr(analysis, "_orbit_min_string")
    tracer = trace.Tracer()
    try:
        with pytest.raises(AttributeError, match="_orbit_min_string"):
            trace.install(tracer)
    finally:
        tracer.restore()
