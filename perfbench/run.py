"""Benchmark of the rkcodes library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

The workloads are described in perfbench/workloads.py.  A run repeats
passes of the workload until the passes have taken --seconds, checks every
output, prints a readable summary and, as its last line, one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
without tracing; times are scaled for the machine's speed at the moment
they were taken (perfbench/calibrate.py).  --trace 1 runs a fixed number
of passes (TRACE_PASSES in perfbench/bench.py), each untraced and then
traced, whatever --seconds says, so that its counts depend on the seed
alone; it reports the per-layer metrics and writes its spans to
.perfbench_out/.  --workload all runs every workload in turn, each in a
child process of its own, and prefixes each metric with its workload.

The library is imported from src/ of the checkout and nowhere else; the
benchmark exits 2 without a result when it is missing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tables", "search", "enumerate", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "rkcodes" / "__init__.py").is_file():
        print(f"error: no rkcodes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.bench import run

    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
