"""Table verification, residue-distance bounds, and generator search."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
from dataclasses import asdict, dataclass
from importlib import resources
from itertools import compress, islice, product
from typing import Sequence

from rkcodes.codes import (
    DEFAULT_BUDGET_LOG2,
    BinaryCode,
    BudgetError,
    QTCode,
    _check_budget,
    binary_image,
    code_minima,
    code_record,
    code_span,
    generator_rows,
    module_image,
    module_image_words,
    qc_index,
)
from rkcodes.gf2 import min_weight
from rkcodes.graymap import GrayMap
from rkcodes.polyqt import format_generator
from rkcodes.ring import RingElement, elements, gamma, parse_element

# code_span is re-exported: perfbench's tracer patches every rkcodes module that binds it,
# and its tests check the binding here.
__all__ = [
    "SearchConfig", "TableRow", "bound_check", "build_row_code", "code_span", "config_hash",
    "load_table_rows", "search", "verify_tables",
]


@dataclass(frozen=True)
class TableRow:
    """One fixture row: ring parameters, generator string, expected image data."""

    table: int
    k: int
    lam: str
    ell: int
    m: int
    generator: str
    n: int
    dim: int
    d: int
    notes: str


def load_table_rows(tables: Sequence[int] = (1, 2, 3)) -> tuple[TableRow, ...]:
    text = resources.files("rkcodes").joinpath("data/tables.csv").read_text()
    wanted = set(tables)
    known = set()
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        t = int(rec["table"])
        known.add(t)
        if t not in wanted:
            continue
        rows.append(
            TableRow(
                t,
                int(rec["k"]),
                rec["lambda"],
                int(rec["ell"]),
                int(rec["m"]),
                rec["generator"],
                int(rec["n"]),
                int(rec["dim"]),
                int(rec["d"]),
                rec["notes"],
            )
        )
    if not wanted or not wanted <= known:
        raise ValueError(f"table ids must be among {sorted(known)}, got {sorted(wanted)}")
    return tuple(rows)


def build_row_code(row: TableRow) -> QTCode:
    return QTCode.from_strings(row.k, [row.generator], lam=row.lam, ell=row.ell, m=row.m)


def verify_tables(
    tables: Sequence[int] = (1, 2, 3), budget: int = DEFAULT_BUDGET_LOG2
) -> list[dict]:
    """Rebuild every fixture row and compare computed image parameters.

    Mismatches are reported, never raised: detecting a typo in a published
    table is a valid outcome of running the tool.
    """
    reports = []
    for row in load_table_rows(tables):
        code = build_row_code(row)
        img = binary_image(code)
        computed = [img.length, img.rank, img.min_distance(budget) if img.rank else None]
        expected = [row.n, row.dim, row.d]
        reports.append(
            {
                "table": row.table,
                "k": row.k,
                "lambda": row.lam,
                "ell": row.ell,
                "m": row.m,
                "generator": row.generator,
                "expected": expected,
                "computed": computed,
                "status": "MATCH" if computed == expected else "MISMATCH",
                "self_orthogonal": img.is_self_orthogonal(),
                "qc_index": qc_index(code, img),
                "notes": row.notes,
            }
        )
    return reports


def bound_check(code: QTCode, budget: int = DEFAULT_BUDGET_LOG2) -> dict:
    """Residue-distance bounds on the minimum homogeneous distance.

    With d the minimum distance of the residue projection, every codeword
    with a nonzero residue has at least d unit coordinates and hence
    homogeneous weight >= gamma*d; the top-monomial multiple of a codeword
    with exactly d unit coordinates gives d_hom <= 2*gamma*d.  Codewords
    inside the residue kernel are not constrained, so the lower bound binds
    d_hom itself only when the minimum is attained outside the kernel;
    `lemma_lower_holds` reports that literal comparison separately (the
    (135) cyclic code over R_2, image [24,8,8], residue distance 3, is a
    counterexample to the literal reading).  Vacuous bounds (zero residue
    code, or no unit generator coefficient for the one-generator bound)
    are reported as None.
    """
    residues, d_kernel, d_nonkernel = code_minima(code, budget)
    g = gamma(code.k)
    d_hom = min((d for d in (d_kernel, d_nonkernel) if d is not None), default=None)
    d_res = min_weight(residues) if residues else None  # at most the span's rank: within budget
    lower = g * d_res if d_res is not None else None
    upper = 2 * g * d_res if d_res is not None else None
    lemma_lower_holds = upper_ok = sound_lower_ok = None
    if d_res is not None and d_hom is not None:
        lemma_lower_holds = lower <= d_hom
        upper_ok = d_hom <= upper
        sound_lower_ok = d_nonkernel >= lower
    gen_bound = gen_ok = None
    if len(code.generators) == 1 and d_hom is not None:
        unit_coeffs = sum(
            sum(1 for c in block if c.is_unit) for block in code.generators[0]
        )
        if unit_coeffs:
            gen_bound = 2 * g * unit_coeffs
            gen_ok = d_hom <= gen_bound
    ok = all(flag is not False for flag in (sound_lower_ok, upper_ok, gen_ok))
    return {
        "residue_distance": d_res,
        "hom_distance": d_hom,
        "nonkernel_distance": d_nonkernel,
        "lower_bound": lower,
        "upper_bound": upper,
        "generator_bound": gen_bound,
        "lemma_lower_holds": lemma_lower_holds,
        "ok": ok,
    }


# ---------------------------------------------------------------------------
# Generator search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchConfig:
    """Deterministic single-generator search over R_k^(ell*m) tuples."""

    k: int
    lam: str = "1"
    ell: int = 1
    m_values: tuple[int, ...] = (2,)
    mode: str = "exhaustive"  # or "random"
    samples: int = 1000
    seed: int = 0
    budget: int = DEFAULT_BUDGET_LOG2
    max_candidates_log2: int = 28
    notation: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        GrayMap(self.k)  # search needs Gray images; GrayMap states their k rule
        if not self.m_values:
            raise ValueError("need at least one coindex value")
        if self.ell < 1 or min(self.m_values) < 1:
            raise ValueError("index ell and coindex m must be positive")
        _check_budget(0, self.budget)  # a negative budget is a usage error
        if self.max_candidates_log2 < 0:
            raise ValueError(
                f"the candidate cap 2^{self.max_candidates_log2} needs an exponent of at least 0"
            )
        if self.mode == "random" and self.samples < 1:
            raise ValueError("random search needs at least one sample")
        if not parse_element(self.lam, self.k, self.notation).is_unit:
            raise ValueError(f"twist lambda {self.lam!r} must be a unit of R_{self.k}")


def config_hash(config: SearchConfig) -> str:
    blob = json.dumps(asdict(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _orbit_min_string(shifts: Sequence[Sequence[bytes]]) -> tuple[bytes, bytes]:
    """(candidate key, least key over the simultaneous-shift orbit).

    shifts[b][s] is block b's key after s twisted shifts, from _BlockParts;
    shift s of the candidate joins them, and keys compare as its strings do.
    """
    keys = shifts[0] if len(shifts) == 1 else list(map(b"".join, zip(*shifts)))
    return keys[0], min(keys)


_MEMO_ENTRIES = 1 << 12  # blocks a memo of _BlockParts holds before it is cleared


class _BlockParts:
    """Shift keys and Gray-image words of a candidate's blocks, memoised per position.

    The twisted shift acts per block, u_A and the Gray map per coordinate,
    and block b owns the coordinates i*ell + b.  So a candidate's orbit
    keys join its blocks', and the Gray images of all u_A * x^i * g,
    which span the image of g's module, are sums of its blocks' words.  A
    block's words are made once a candidate holding it is evaluated.

    A key holds a rank byte per element: its place among format_generator's
    texts of every element followed in its block, ending a block, or ending
    the string.  No element text holds "," or "|", so keys compare as the
    generator strings do.
    """

    def __init__(self, k: int, lam: RingElement, ell: int, m: int, notation: str | None):
        self.k, self.lam, self.ell, self.m = k, lam.coeffs, ell, m
        self.lam_table = bytes((lam * e).coeffs for e in elements(k)).ljust(256, b"\0")
        z, ranks = RingElement(k, 0), []
        for probe in (lambda e: [[e, z]], lambda e: [[e], [z]], lambda e: [[e]]):
            texts = [format_generator(probe(e), notation) for e in elements(k)]
            place = {text: rank for rank, text in enumerate(sorted(texts))}
            ranks.append(bytes(map(place.get, texts)).ljust(256, b"\0"))
        self.inner, self.block_end, self.string_end = ranks
        self.memos = [{} for _ in range(ell)]

    def blocks(self, digits: Sequence[int]) -> list[list]:
        """[shift keys, image words or None] of each block of the digits."""
        m = self.m
        if self.ell == 1:  # no block recurs, so no memo
            return [[self._shifts(bytes(digits), self.string_end), None]]
        parts = []
        for b, memo in enumerate(self.memos):
            block = bytes(digits[b * m:b * m + m])
            part = memo.get(block)
            if part is None:
                if len(memo) >= _MEMO_ENTRIES:
                    memo.clear()
                end = self.block_end if b < self.ell - 1 else self.string_end
                part = memo[block] = [self._shifts(block, end), None]
            parts.append(part)
        return parts

    def _shifts(self, block: bytes, end: bytes) -> list[bytes]:
        """The block's keys after 0..m-1 twisted shifts; end ranks its last element.

        Shift s is the window of lambda*block + block at m - s: elements
        m - s to 2m - s - 2 ranked as inner ones, then element 2m - s - 1.
        """
        m, both = self.m, block.translate(self.lam_table) + block
        inner, last = both.translate(self.inner), both.translate(end)
        return [inner[m - s:2 * m - s - 1] + last[2 * m - s - 1:2 * m - s] for s in range(m)]

    def image(self, digits: Sequence[int], parts: list[list]) -> BinaryCode:
        """module_image of the module of the candidate digits, given their blocks()."""
        k, ell, m, n = self.k, self.ell, self.m, self.ell * self.m
        for b, part in enumerate(parts):
            if part[1] is None:  # block b alone: zeros before it, no digits after
                alone = bytes(b * m) + bytes(digits[b * m:b * m + m])
                part[1] = module_image_words(k, n, generator_rows(k, self.lam, ell, m, alone))
        # blocks own disjoint coordinates, so the sum of their words is their OR
        rows = parts[0][1] if ell == 1 else map(sum, zip(*(part[1] for part in parts)))
        return module_image(k, n, rows)


def _keep_best(best: dict, cell: tuple[int, int], key: tuple[int, bytes, bytes]) -> None:
    """Keep the smaller (-d, orbit key, digits) per (length, dimension) cell; keys never tie."""
    best[cell] = min(best.get(cell, key), key)


def _evaluate_chunk(payload: dict) -> tuple[dict, int]:
    """Best (-d, orbit key, digits) per (length, dimension) cell, and budget skips, of a chunk.

    payload: {"config": SearchConfig, "m": coindex, "tuples" or "index_range": candidates}.
    Each candidate asks min_distance for at least the d that would beat its
    cell's best so far, so most stop at a basis row; every kept d is exact.
    """
    config, m = payload["config"], payload["m"]
    k, ell, notation = config.k, config.ell, config.notation
    parts_of = _BlockParts(k, parse_element(config.lam, k, notation), ell, m, notation)
    if "index_range" in payload:
        lo, hi = payload["index_range"]
        every = product(range(1 << (1 << k)), repeat=ell * m)
        candidates = islice(every, lo, hi)
    else:
        candidates = payload["tuples"]

    best: dict[tuple[int, int], tuple[int, bytes, bytes]] = {}
    skipped = 0
    for digits in candidates:
        if not any(digits):
            continue
        parts = parts_of.blocks(digits)
        key, least = _orbit_min_string([part[0] for part in parts])
        if key != least:
            continue  # a shift-equivalent candidate was or will be seen
        img = parts_of.image(digits, parts)
        cell = (img.length, img.rank)
        held = best.get(cell)
        # the least d that beats the cell's best; an answer below it loses there, exact or not
        at_least = 0 if held is None else (key > held[1]) - held[0]
        try:
            d = img.min_distance(config.budget, at_least)
        except BudgetError:
            skipped += 1
            continue
        _keep_best(best, cell, (-d, key, bytes(digits)))
    return best, skipped


def _draw_digits(rng: random.Random, size: int, count: int) -> bytes:
    """[rng.randrange(size) for _ in range(count)] for size = 2^(2^k) <= 256, in bulk.

    randrange(size) reads the top size.bit_length() bits of one 32-bit
    Mersenne Twister word, drawing again while the top bit is set, and
    getrandbits(32*N) is the next N words, the first lowest.  A round draws
    at most the digits still needed, so rng ends where the loop would.
    """
    bits, out = size.bit_length(), bytearray()
    while len(out) < count:
        words = min(count - len(out), 1 << 16)  # bounds a round's memory
        raw = rng.getrandbits(32 * words)
        top = raw.to_bytes(4 * words, "little")[3::4]
        if bits <= 8:  # the digit is in the top byte: delete bytes >= 128, shift the rest
            out += top.translate(bytes(x >> 8 - bits for x in range(256)), bytes(range(128, 256)))
        else:  # size 256: bits 23..30 of each word whose top byte is below 128
            kept = top.translate(bytes(x < 128 for x in range(256)))
            out.extend(compress((raw >> 23).to_bytes(4 * words, "little")[::4], kept))
    return bytes(out)


def search(config: SearchConfig, jobs: int = 1) -> list[dict]:
    """Best minimum distance per (length, dimension) cell; pure in (config, seed).

    Candidates are single-generator tuples keyed by rank bytes that sort as
    their generator strings.  Only the least key of each simultaneous-shift
    orbit is evaluated, and only winners are formatted.  Output is
    independent of the worker count.  jobs > 1 spawns min(jobs, chunks,
    CPUs) workers, so a script calling it needs the if __name__ ==
    "__main__" guard.  Raises BudgetError above the candidate cap (tuples
    or samples) or when candidates were skipped for the codeword budget and
    none was evaluated, and ValueError when none was evaluated otherwise.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    size = 1 << (1 << config.k)
    payloads = []
    rng = random.Random(config.seed)
    for m in config.m_values:
        positions = config.ell * m
        if config.mode == "exhaustive":
            total = size**positions
            if total > 1 << config.max_candidates_log2:
                raise BudgetError(
                    f"2^{positions << config.k} candidate tuples exceed the "
                    f"2^{config.max_candidates_log2} exhaustive cap"
                )
        elif config.samples > 1 << config.max_candidates_log2:  # checked before any digit is drawn
            raise BudgetError(
                f"{config.samples} random samples exceed the 2^{config.max_candidates_log2} cap"
            )
        else:
            digits = _draw_digits(rng, size, positions * config.samples)
            tuples = [digits[i:i + positions] for i in range(0, len(digits), positions)]
            total = len(tuples)
        # one job takes one chunk per coindex, so one _BlockParts memo serves every candidate
        step = -(-total // min(jobs * 4 if jobs > 1 else 1, total))
        for lo in range(0, total, step):
            hi = min(lo + step, total)
            part = (
                {"tuples": tuples[lo:hi]} if config.mode == "random" else {"index_range": (lo, hi)}
            )
            payloads.append({"config": config, "m": m, **part})

    workers = min(jobs, len(payloads), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")  # the same on every platform; fork warns
        with ProcessPoolExecutor(workers, mp_context=spawn) as pool:
            results = list(pool.map(_evaluate_chunk, payloads))
    else:
        results = map(_evaluate_chunk, payloads)
    best: dict[tuple[int, int], tuple[int, bytes, bytes]] = {}
    skipped = 0
    for cells, chunk_skipped in results:
        for cell, key in cells.items():
            _keep_best(best, cell, key)
        skipped += chunk_skipped
    if skipped and not best:
        raise BudgetError(
            f"all {skipped} candidate codes skipped: each has over 2^{config.budget} codewords"
        )
    if not best:
        raise ValueError(
            "no candidate evaluated: every sample is zero or not the least of its shift orbit"
        )

    h = config_hash(config)
    lam, ell = parse_element(config.lam, config.k, config.notation), config.ell
    records = []
    for _, (_, _, digits) in sorted(best.items()):
        m = len(digits) // ell
        gen = tuple(tuple(RingElement(lam.k, c) for c in digits[b * m:b * m + m]) for b in range(ell))
        rec = code_record(QTCode(lam, ell, m, (gen,)), config.budget, config.notation)
        rec["provenance"] = {"seed": config.seed, "config_hash": h}
        records.append(rec)
    return records
