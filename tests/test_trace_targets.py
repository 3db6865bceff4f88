"""Every rkcodes name that perfbench's tracer patches exists.

perfbench/trace.py wraps functions and methods of the package by name for
the traced benchmark run (python3 perfbench/run.py --trace 1).  Deleting
or renaming one of them breaks that run alone, which no other test of the
package runs; attaching a fresh tracer here, which patches every target and
puts the originals back, fails on it instead.

The traced run also checks that two traced runs of pass 0 count the same
work.  A cache that lets a traced pass reuse work done by the untraced
pass before it, or by the untimed drawing of its inputs, breaks that
check.  The same sequence runs here on the two workloads that read
hom_split, and again after pass 1 and after resetting codes.last_code.
A traced search must count each sampled candidate once: as all-zero, as
an orbit duplicate, as skipped for the budget, or as evaluated.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from rkcodes import analysis, codes

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


def test_traced_search_counts_every_candidate_once(trace):
    # evaluated counts BinaryCode.min_distance calls: one per orbit-least candidate
    config = analysis.SearchConfig(
        k=1, lam="3", ell=3, m_values=(2, 3), mode="random", samples=300, seed=5
    )
    tracer = trace.Tracer()
    with tracer.attached():
        analysis.search(config)
    assert tracer.search_identity_holds()
    assert tracer.counts["search.generated"] == 600
    assert tracer.counts["search.evaluated"] > 0


@pytest.mark.parametrize("name", ["enumerate", "tables"])
def test_traced_counts_do_not_depend_on_what_ran_before(trace, name):
    from perfbench.calibrate import Clock
    from perfbench.workloads import WORKLOADS, Checks

    workload, clock, checks = WORKLOADS[name], Clock(), Checks()

    def traced(inputs) -> dict:
        tracer = trace.Tracer()
        with tracer.attached():
            result = workload.run(inputs, clock)
        workload.check(inputs, result, checks)
        return tracer.count_snapshot()

    inputs = workload.inputs(7, 0)
    workload.run(inputs, clock)  # untraced, then traced twice, as the traced run does
    counts = traced(inputs)
    assert traced(workload.inputs(7, 0)) == counts
    workload.run(workload.inputs(7, 1), clock)
    assert traced(workload.inputs(7, 0)) == counts
    codes.last_code.reset()
    assert traced(workload.inputs(7, 0)) == counts
    assert checks.attempted and not checks.failed, checks.messages
