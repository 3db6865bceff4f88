"""Runs workload passes and turns them into end-to-end or per-layer metrics."""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from perfbench.calibrate import Clock
from perfbench.trace import Tracer
from perfbench.workloads import (
    MISPRINT_COMPUTED,
    MISPRINT_GENERATOR,
    WORKLOADS,
    Checks,
    Workload,
    search_run,
)
from rkcodes.analysis import load_table_rows

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 11
SETUP_CODE = """
from perfbench.calibrate import Clock

def setup():
    start = clock.now()
    import rkcodes
    from rkcodes.analysis import load_table_rows
    from rkcodes.graymap import GrayMap
    [GrayMap(k) for k in (1, 2, 3)]
    load_table_rows()
    return clock.now() - start

clock = Clock()
print(clock.sampled(setup))
"""
SUBPROCESS_TIMEOUT_S = 120
ALL_TIMEOUT_S = 600
TRACE_PASSES = 3

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC), str(ROOT), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    return env


def measure_setup() -> float:
    """Median scaled seconds a fresh interpreter takes to import and load rkcodes.

    Timed inside the child, so interpreter start-up, which no change to
    rkcodes can move, is left out.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def percentile_90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def checked_pass(workload: Workload, inputs, clock: Clock, checks: Checks, tracer=None):
    """One pass timed on a sampling clock, traced when a tracer is given, then checked."""

    def timed():
        with tracer.attached() if tracer else nullcontext():
            return workload.run(inputs, clock)

    result = clock.sampled(timed)
    workload.check(inputs, result, checks)
    result.outputs = None  # checked; keeping them would grow peak_rss_mb
    return result


def run_passes(workload: Workload, seed: int, seconds: float, checks: Checks) -> tuple[list, float]:
    """Passes 0, 1, ... until they have taken `seconds`; also their unscaled seconds."""
    clock = Clock()
    passes = []
    elapsed = 0.0
    while elapsed < seconds:
        inputs = workload.inputs(seed, len(passes))
        start = perf_counter()
        passes.append(checked_pass(workload, inputs, clock, checks))
        elapsed += perf_counter() - start
    return passes, elapsed


def end_to_end(workload: Workload, seed: int, seconds: float, setup_s: float, checks: Checks):
    """End-to-end metrics from scaled times (see perfbench/calibrate.py)."""
    passes, elapsed = run_passes(workload, seed, seconds, checks)
    walls = [p.seconds for p in passes]
    latencies = [s for p in passes for s in p.code_seconds]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "codes_per_s": statistics.median(p.units / p.seconds for p in passes),
        "code_ms_p50": 1000 * statistics.median(latencies),
        "code_ms_p90": 1000 * percentile_90(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"passes {len(passes)} of {passes[0].units} units, latency samples {len(latencies)}, "
        f"{elapsed:.3f} s unscaled for {sum(walls):.3f} s scaled"
    ]
    for phase in sorted(passes[0].phases):
        value = statistics.median(p.phases[phase] for p in passes)
        notes.append(f"{phase} {value:.6f} s median per pass")
    return metrics, notes


def cli_verify_tables(checks: Checks) -> float:
    """Seconds for `python -m rkcodes verify-tables --format json`, output checked."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "rkcodes", "verify-tables", "--format", "json"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    seconds = perf_counter() - start
    # Exit 1 is the contract here: the misprinted row is a mismatch.
    checks.expect(proc.returncode == 1, f"verify-tables exited {proc.returncode}")
    rows = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    mismatched = [(r["generator"], r["computed"]) for r in rows if r["status"] != "MATCH"]
    checks.expect(
        len(rows) == len(load_table_rows()) and mismatched == [(MISPRINT_GENERATOR, MISPRINT_COMPUTED)],
        f"verify-tables printed {len(rows)} rows, mismatches {mismatched}",
    )
    return seconds


def pool_speedup(config, checks: Checks) -> float:
    """jobs=1 seconds over jobs=2 seconds (capped at the CPU count), same output."""
    jobs = min(2, os.cpu_count() or 1)
    single = search_run(config, Clock(), jobs=1)
    pooled = search_run(config, Clock(), jobs=jobs)
    checks.expect(
        json.dumps(pooled.outputs, sort_keys=True) == json.dumps(single.outputs, sort_keys=True),
        f"search output with jobs={jobs} differs from jobs=1",
    )
    return single.seconds / pooled.seconds


def per_layer(workload: Workload, seed: int, checks: Checks):
    """Per-layer metrics of passes 0 .. TRACE_PASSES-1, each run untraced, then traced.

    The pass count is fixed, not set by --seconds, so that every count is
    the same for the same seed on any machine, however fast.
    """
    clock = Clock()
    tracer = Tracer()
    untraced, traced = [], []
    for index in range(TRACE_PASSES):
        inputs = workload.inputs(seed, index)
        untraced.append(checked_pass(workload, inputs, clock, checks).seconds)
        tracer.run_id = index
        traced.append(checked_pass(workload, inputs, clock, checks, tracer).seconds)
        if index == 0:
            repeat = Tracer()
            checked_pass(workload, workload.inputs(seed, 0), clock, checks, repeat)
            checks.expect(
                repeat.count_snapshot() == tracer.count_snapshot(),
                "per-layer counts differ between two traced runs of pass 0",
            )
    checks.expect(
        tracer.search_identity_holds(), f"search counts do not add up: {dict(tracer.counts)}"
    )
    metrics = tracer.per_layer()
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["cli.verify_tables_s"] = cli_verify_tables(checks)
    # The pool only exists in search; elsewhere the speed-up is not measured.
    metrics["search.pool_speedup"] = 0.0
    if workload.name == "search":
        metrics["search.pool_speedup"] = pool_speedup(workload.inputs(seed, 0), checks)
    path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write_spans(path)
    notes = [f"passes {TRACE_PASSES} untraced + {TRACE_PASSES} traced, spans in {path}"]
    return metrics, notes


def print_result(checks_attempted: int, checks_failed: int, metrics: dict) -> None:
    ratio = checks_failed / checks_attempted if checks_attempted else 0.0
    print(f"  {'failed_ratio':32s} {ratio:>18.6f} ({checks_failed} of {checks_attempted} checks)")
    print(
        json.dumps(
            {
                "correct": checks_failed == 0,
                "attempted": checks_attempted,
                "failed": checks_failed,
                "metrics": metrics,
            }
        )
    )


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a child process of its own, so that peak_rss_mb is its own."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=ALL_TIMEOUT_S,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print_result(attempted, failed, metrics)
    return 0


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    if workload_name == "all":
        return run_all(seed, seconds, trace)
    workload = WORKLOADS[workload_name]
    checks = Checks()
    if trace:
        metrics, notes = per_layer(workload, seed, checks)
        units = LAYER_UNITS
    else:
        metrics, notes = end_to_end(workload, seed, seconds, measure_setup(), checks)
        units = E2E_UNITS
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    print(f"== {workload_name} seed={seed} trace={int(trace)}: " + "; ".join(notes))
    for key, value in metrics.items():
        print(f"  {key:32s} {value:>18.6f} {units[key]}")
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print_result(
        checks.attempted,
        checks.failed,
        {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    )
    return 0
