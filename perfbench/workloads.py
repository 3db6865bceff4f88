"""Workload inputs, timed passes and correctness oracles.

A run repeats passes of one workload.  Pass i of seed s always gets the same
inputs, drawn from ``random.Random(f"{workload}:{s}:{i}")``, and every pass
holds the same mix of work (shapes and ranks), so that passes, runs and
seeds are comparable and latency percentiles do not jump between rank
groups from one run to the next.

tables     The 45 fixture rows through ``verify_tables``, then
           ``code_record``, ``hom_weight_enumerator`` and ``bound_check``
           per row (what the ``image``, ``wd`` and ``bounds`` commands do),
           then the same three calls on one random code per cell of
           TABLE_CELLS.  Many small codes: per-call overhead and the
           repeated ``code_span`` rebuilds dominate.
search     One random-mode ``search`` of the Table-1 shape (k=1, lambda=1+u,
           ell=3, m=3).  Code building and orbit canonicalisation dominate;
           enumeration is at most 64 words per code.
enumerate  One random [80, r] code over R_2 (ell=2, m=5) per rank r in
           ENUM_RANKS: ``binary_image(code).min_distance()``, then
           ``hom_weight_enumerator`` and ``bound_check``.  Nearly all time
           is codeword enumeration.

The library is called through its module attributes (``analysis.search``,
``codes.code_record``), the names the traced run replaces.

Every check goes through a ``Checks`` object: a failed check is counted and
reported, and the run goes on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from perfbench.calibrate import Clock
from rkcodes import analysis, codes
from rkcodes.codes import QTCode
from rkcodes.ring import RingElement, parse_element

MAX_DRAWS = 5000  # per shape; its rarest rank is hit by at least 1 draw in 160

# Fixture findings that are the expected outcome, not mismatches.
MISPRINT_GENERATOR = "aaa2|4e4e"  # published as [64,5,32]
MISPRINT_COMPUTED = [64, 6, 16]
COUNTEREXAMPLE_GENERATOR = "135"  # breaks the literal residue lower bound

# Image dimensions of the random tables codes, per fixture shape
# (k, lambda, ell, m).  Each is at most 11, the largest fixture dimension,
# and each is reached by at least 4% of draw_generator tuples of its shape.
TABLE_CELLS = {
    (1, "3", 3, 2): (1, 2, 4),
    (1, "3", 3, 3): (2, 3, 6),
    (1, "3", 3, 4): (3, 4, 8),
    (1, "3", 3, 5): (4, 5, 10),
    (1, "3", 3, 6): (5, 6),
    (1, "3", 3, 7): (6, 7),
    (2, "1", 1, 2): (1, 2, 4, 8),
    (2, "1", 1, 3): (2, 3, 6, 10),
    (2, "1", 1, 4): (3, 4, 8),
    (2, "1", 1, 5): (4, 5, 10),
    (2, "1", 1, 6): (4, 5, 6, 10),
    (2, "1", 1, 7): (6, 7),
    (2, "1", 1, 8): (7, 8),
    (2, "1", 2, 2): (2, 4, 5, 6, 8),
    (2, "1", 2, 3): (2, 3, 6, 8, 9),
    (2, "1", 2, 4): (4, 8, 11),
    (2, "1", 3, 2): (2, 4, 5, 6, 8),
    (2, "1", 3, 3): (3, 6, 8, 9),
}

SEARCH_SAMPLES = 10000
ENUM_RANKS = (16, 17, 18)
ENUM_K, ENUM_ELL, ENUM_M = 2, 2, 5


class Checks:
    """Counts correctness checks; keeps the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


@dataclass
class PassResult:
    """One timed pass: its seconds, its units of work and its outputs.

    Times are read from a calibrate.Clock, so they are scaled for machine
    speed when the clock samples it.
    """

    seconds: float
    units: int  # codes answered; sampled candidate tuples on search
    code_seconds: list[float]  # per-code latency; per-candidate cost on search
    outputs: object
    phases: dict[str, float] = field(default_factory=dict)


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def draw_generator(rng: random.Random, k: int, ell: int, m: int):
    """A random generator tuple of ell blocks of length m over R_k.

    Entries come from all of R_k, from its nonunits or from {0, top
    monomial}, and a random share of them is zeroed, so that the image
    dimensions of a shape spread from 1 up to the maximum.
    """
    size = 1 << (1 << k)
    alphabet = rng.choice((range(size), range(0, size, 2), (0, size >> 1)))
    zero_rate = rng.choice((0.0, 0.5, 0.8))
    return tuple(
        tuple(
            RingElement(k, 0 if rng.random() < zero_rate else rng.choice(alphabet))
            for _ in range(m)
        )
        for _ in range(ell)
    )


def codes_of_ranks(rng, k: int, lam: str, ell: int, m: int, ranks, draw) -> list:
    """One code per wanted rank, from tuples draw(rng, k, ell, m), in rank order."""
    lam_elem = parse_element(lam, k)
    found: dict[int, QTCode] = {}
    for _ in range(MAX_DRAWS):
        code = QTCode(lam_elem, ell, m, (draw(rng, k, ell, m),))
        rank = codes.code_span(code).rank
        if rank in ranks and rank not in found:
            found[rank] = code
            if len(found) == len(ranks):
                return [(rank, found[rank]) for rank in ranks]
    raise RuntimeError(f"no code of ranks {ranks} for shape {(k, lam, ell, m)}")


def uniform_generator(rng: random.Random, k: int, ell: int, m: int):
    size = 1 << (1 << k)
    return tuple(
        tuple(RingElement(k, rng.randrange(size)) for _ in range(m)) for _ in range(ell)
    )


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


@dataclass
class TablesInput:
    rows: tuple  # fixture TableRow objects
    codes: list  # (expected [n, dim, d] or None, rank or None, generator, QTCode)


def tables_inputs(seed: int, index: int) -> TablesInput:
    rng = pass_rng("tables", seed, index)
    rows = analysis.load_table_rows()
    items = []
    for row in rows:
        expected = [row.n, row.dim, row.d]
        if row.generator == MISPRINT_GENERATOR:
            expected = MISPRINT_COMPUTED
        items.append((expected, None, row.generator, analysis.build_row_code(row)))
    for (k, lam, ell, m), ranks in TABLE_CELLS.items():
        for rank, code in codes_of_ranks(rng, k, lam, ell, m, ranks, draw_generator):
            items.append((None, rank, None, code))
    return TablesInput(rows, items)


def tables_run(inp: TablesInput, clock: Clock) -> PassResult:
    start = clock.now()
    reports = analysis.verify_tables()
    answers = []
    latencies = []
    for _, _, _, code in inp.codes:
        t0 = clock.now()
        answers.append(
            (
                codes.code_record(code),
                codes.hom_weight_enumerator(code),
                analysis.bound_check(code),
            )
        )
        latencies.append(clock.now() - t0)
    seconds = clock.now() - start
    return PassResult(seconds, len(inp.codes), latencies, (reports, answers))


def tables_check(inp: TablesInput, result: PassResult, checks: Checks) -> None:
    reports, answers = result.outputs
    checks.expect(len(reports) == len(inp.rows), f"verify_tables gave {len(reports)} rows")
    for report in reports:
        gen = report["generator"]
        if gen == MISPRINT_GENERATOR:
            ok = report["status"] == "MISMATCH" and report["computed"] == MISPRINT_COMPUTED
        else:
            ok = report["status"] == "MATCH"
        checks.expect(ok, f"verify_tables row {gen}: {report['status']} {report['computed']}")
    for (expected, rank, gen, code), (rec, hom, bounds) in zip(inp.codes, answers):
        name = gen or code.generator_strings()[0]
        check_code_answer(name, rec, hom, bounds, checks)
        img = rec["image"]
        if expected is not None:
            got = [img["length"], img["dimension"], img["min_distance"]]
            checks.expect(got == expected, f"{name}: image {got}, expected {expected}")
        else:
            checks.expect(img["dimension"] == rank, f"{name}: dimension {img['dimension']} != {rank}")
        if gen == COUNTEREXAMPLE_GENERATOR:
            checks.expect(
                bounds["lemma_lower_holds"] is False,
                f"{name}: literal residue lower bound unexpectedly holds",
            )


def check_code_answer(name: str, rec: dict, hom, bounds: dict, checks: Checks) -> None:
    """The Gray map is an isometry, and the sound bounds hold."""
    img = rec["image"]
    checks.expect(
        img["weight_enumerator"] == [list(p) for p in hom.pairs()],
        f"{name}: image weight enumerator differs from the homogeneous one",
    )
    checks.expect(
        img["min_distance"] == hom.min_nonzero(),
        f"{name}: d={img['min_distance']}, smallest homogeneous weight {hom.min_nonzero()}",
    )
    checks.expect(1 << img["dimension"] == hom.total(), f"{name}: 2^dim != codeword count")
    checks.expect(bounds["ok"] is True, f"{name}: bound_check not ok: {bounds}")


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def search_inputs(seed: int, index: int) -> analysis.SearchConfig:
    rng = pass_rng("search", seed, index)
    return analysis.SearchConfig(
        k=1, lam="3", ell=3, m_values=(3,), mode="random",
        samples=SEARCH_SAMPLES, seed=rng.randrange(1 << 31),
    )


def search_run(config: analysis.SearchConfig, clock: Clock, jobs: int = 1) -> PassResult:
    start = clock.now()
    records = analysis.search(config, jobs=jobs)
    seconds = clock.now() - start
    units = config.samples * len(config.m_values)
    return PassResult(seconds, units, [seconds / units], records)


def search_check(config: analysis.SearchConfig, result: PassResult, checks: Checks) -> None:
    records = result.outputs
    checks.expect(bool(records), "search returned no records")
    for rec in records:
        check_search_record(config, rec, checks)


def check_search_record(config: analysis.SearchConfig, rec: dict, checks: Checks) -> None:
    """Recompute a reported d from the homogeneous enumerator of its generator."""
    code = QTCode.from_strings(
        config.k, rec["generators"], lam=config.lam, ell=config.ell, m=rec["m"]
    )
    hom = codes.hom_weight_enumerator(code)
    img = rec["image"]
    name = "|".join(rec["generators"])
    checks.expect(
        img["min_distance"] == hom.min_nonzero(),
        f"search {name}: reported d={img['min_distance']}, homogeneous d={hom.min_nonzero()}",
    )
    checks.expect(1 << img["dimension"] == hom.total(), f"search {name}: 2^dim != codeword count")


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def enumerate_inputs(seed: int, index: int) -> list:
    rng = pass_rng("enumerate", seed, index)
    return codes_of_ranks(rng, ENUM_K, "1", ENUM_ELL, ENUM_M, ENUM_RANKS, uniform_generator)


def enumerate_run(items: list, clock: Clock) -> PassResult:
    answers = []
    latencies = []
    distance_s = distribution_s = 0.0
    for _, code in items:
        t0 = clock.now()
        img = codes.binary_image(code)
        d = img.min_distance()
        t1 = clock.now()
        hom = codes.hom_weight_enumerator(code)
        bounds = analysis.bound_check(code)
        t2 = clock.now()
        distance_s += t1 - t0
        distribution_s += t2 - t1
        latencies.append(t2 - t0)
        answers.append((img.length, img.rank, d, hom, bounds))
    return PassResult(
        sum(latencies), len(items), latencies, answers,
        {"distance_s": distance_s, "distribution_s": distribution_s},
    )


def enumerate_check(items: list, result: PassResult, checks: Checks) -> None:
    image_len = 1 << ((1 << ENUM_K) - 1)
    for (rank, code), (length, img_rank, d, hom, bounds) in zip(items, result.outputs):
        name = code.generator_strings()[0]
        checks.expect(
            [length, img_rank] == [ENUM_ELL * ENUM_M * image_len, rank],
            f"{name}: image [{length},{img_rank}], expected rank {rank}",
        )
        checks.expect(d == hom.min_nonzero(), f"{name}: d={d}, smallest homogeneous weight {hom.min_nonzero()}")
        checks.expect(hom.total() == 1 << img_rank, f"{name}: enumerator total {hom.total()} != 2^{img_rank}")
        checks.expect(bounds["ok"] is True, f"{name}: bound_check not ok: {bounds}")
        checks.expect(bounds["hom_distance"] == d, f"{name}: bound_check d_hom {bounds['hom_distance']} != {d}")


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable  # (seed, index) -> pass input
    run: Callable  # (pass input, Clock) -> PassResult
    check: Callable  # (pass input, PassResult, Checks) -> None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tables", tables_inputs, tables_run, tables_check),
        Workload("search", search_inputs, search_run, search_check),
        Workload("enumerate", enumerate_inputs, enumerate_run, enumerate_check),
    )
}
