"""Tests of the benchmark itself: pure inputs, clean tracing, a strict oracle.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import signal
import sys

import pytest

from perfbench import bench
from perfbench.calibrate import Clock
from perfbench.trace import Tracer
from perfbench.workloads import WORKLOADS, Checks, check_search_record, search_run
from rkcodes import analysis, codes, gf2, graymap, ring

SMALL_SEARCH = analysis.SearchConfig(
    k=1, lam="3", ell=3, m_values=(3,), mode="random", samples=400, seed=5
)


def rkcodes_bindings() -> dict:
    """Every attribute of every rkcodes module and of the patched classes."""
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "rkcodes"]
    owners += [ring.RingElement, graymap.GrayMap, gf2.F2Span, codes.BinaryCode]
    return {(id(o), attr): value for o in owners for attr, value in vars(o).items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_pure_in_the_seed(name):
    workload = WORKLOADS[name]
    assert workload.inputs(3, 1) == workload.inputs(3, 1)
    assert workload.inputs(3, 1) != workload.inputs(4, 1)
    assert workload.inputs(3, 1) != workload.inputs(3, 2)


def test_traced_run_restores_every_original():
    before = rkcodes_bindings()
    tracer = Tracer()
    with tracer.attached():
        assert analysis.code_span is not before[(id(analysis), "code_span")]
        search_run(SMALL_SEARCH, Clock())
    after = rkcodes_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    spans, counts = len(tracer.spans), dict(tracer.counts)
    search_run(SMALL_SEARCH, Clock())
    assert (len(tracer.spans), dict(tracer.counts)) == (spans, counts)


def test_search_counts_add_up_and_repeat_for_the_same_seed():
    snapshots = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.attached():
            search_run(SMALL_SEARCH, Clock())
        assert tracer.search_identity_holds()
        assert tracer.counts["search.generated"] == SMALL_SEARCH.samples
        assert tracer.counts["search.evaluated"] > 0
        snapshots.append(tracer.count_snapshot())
    assert snapshots[0] == snapshots[1]


def traced_counts(capsys, seconds: float) -> dict:
    assert bench.run("tables", 7, seconds, trace=True) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"]
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] in ("count", "ratio") and name != "search.pool_speedup"
    }


def test_traced_counts_do_not_depend_on_seconds(capsys):
    counts = traced_counts(capsys, 0.01)
    assert counts["ring.mul_calls"] > 0
    assert traced_counts(capsys, 5.0) == counts


def test_oracle_rejects_a_wrong_distance():
    record = search_run(SMALL_SEARCH, Clock()).outputs[0]
    checks = Checks()
    check_search_record(SMALL_SEARCH, record, checks)
    assert checks.failed == 0

    wrong = dict(record, image=dict(record["image"], min_distance=record["image"]["min_distance"] + 1))
    check_search_record(SMALL_SEARCH, wrong, checks)
    assert checks.failed == 1
    assert "reported d=" in checks.messages[0]


def test_tables_oracle_accepts_a_pass_and_rejects_a_hidden_misprint():
    workload = WORKLOADS["tables"]
    inputs = workload.inputs(0, 0)
    result = workload.run(inputs, Clock())
    checks = Checks()
    workload.check(inputs, result, checks)
    assert checks.failed == 0, checks.messages

    reports, answers = result.outputs
    for report in reports:
        if report["status"] == "MISMATCH":
            report["status"] = "MATCH"
    workload.check(inputs, result, checks)
    assert checks.failed == 1


def test_clock_sampling_leaves_no_timer_or_handler_behind():
    previous = signal.getsignal(signal.SIGALRM)
    clock = Clock()
    start = clock.now()
    assert clock.sampled(lambda: sum(range(2_000_000))) > 0
    assert clock.probe_s > 0 and clock.now() > start
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
