"""Benchmark of the rkcodes library: workloads, oracles and an outside-in tracer."""
