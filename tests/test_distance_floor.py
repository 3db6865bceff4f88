"""The floor of BinaryCode.min_distance, and search's use of it.

min_distance(budget, at_least) is exact whenever d >= at_least.  Below
that it may return at once a weight under at_least of a nonzero codeword,
which is never below d.  Search passes each candidate the least d that
would beat its cell's best so far, so an early answer always loses there:
its records and skip counts must equal those of the same search with every
floor ignored.
"""

from __future__ import annotations

import random

import pytest

from oracles import units
from rkcodes import analysis, gf2
from rkcodes.analysis import SearchConfig, _evaluate_chunk, _keep_best, search
from rkcodes.codes import (
    DEFAULT_BUDGET_LOG2,
    BinaryCode,
    BudgetError,
    module_image,
    module_image_words,
)
from rkcodes.gf2 import LOW_ROWS
from rkcodes.ring import format_element

RANKS = range(1, 15)


def row_codes(rng: random.Random, count: int) -> list[BinaryCode]:
    """BinaryCode.from_rows of random rows, count of each rank in RANKS."""
    out = []
    for rank in RANKS:
        while sum(code.rank == rank for code in out) < count:
            length = rng.randint(rank, 40)
            out.append(BinaryCode.from_rows(length, [rng.getrandbits(length) for _ in range(rank)]))
            if out[-1].rank != rank:
                out.pop()
    return out


def module_codes(rng: random.Random, k: int, count: int) -> list[BinaryCode]:
    """module_image of random R_k-modules of 1 to 16 >> k rows (a row spans at most 2^k
    dimensions), images of a rank in RANKS; about half of them inside the maximal ideal
    (every coefficient word even), for more ranks."""
    most_n = {1: 7, 2: 4, 3: 2}[k]
    out = []
    while len(out) < count:
        n = rng.randint(1, most_n)
        mask = even_mask(k, n) if rng.random() < 0.5 else -1
        rows = [rng.getrandbits(n << k) & mask for _ in range(rng.randint(1, 16 >> k))]
        img = module_image(k, n, module_image_words(k, n, rows))
        if img.rank in RANKS:
            out.append(img)
    return out


def even_mask(k: int, n: int) -> int:
    """Every bit but bit 0 of each coordinate's coefficient word: the maximal ideal."""
    coordinate = (1 << (1 << k)) - 2
    return sum(coordinate << (i << k) for i in range(n))


@pytest.fixture
def paths(monkeypatch) -> dict[str, int]:
    """Counts of the walks and of the information-set searches that built sets."""
    seen = {"walk": 0, "sets": 0}
    walk, sets_of = gf2.span_min_weight, gf2.information_sets

    def counted_walk(basis):
        seen["walk"] += 1
        return walk(basis)

    def counted_sets(*args):
        found = sets_of(*args)
        seen["sets"] += bool(found[0])
        return found

    monkeypatch.setattr(gf2, "span_min_weight", counted_walk)
    monkeypatch.setattr(gf2, "information_sets", counted_sets)
    return seen


def check_floors(code: BinaryCode) -> None:
    d = code.min_distance()
    weights = {w for w, _ in code.weight_enumerator().pairs() if w}
    for floor in range(d + 3):
        got = code.min_distance(at_least=floor)
        if floor <= d:
            assert got == d, (code, floor)
        else:
            assert d <= got < floor and got in weights, (code, floor, got)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_floor_keeps_d_exact_and_any_early_answer_a_codeword_weight(k, paths):
    rng = random.Random(f"floor {k}")
    codes = row_codes(rng, 2) + module_codes(rng, k, 40)
    for code in codes:
        check_floors(code)
    images = codes[2 * len(RANKS):]
    assert {img.rank > LOW_ROWS for img in images} == {False, True}, [c.rank for c in images]
    assert paths["walk"] and paths["sets"]


def test_floor_of_the_zero_span_still_raises():
    with pytest.raises(ValueError, match="zero span"):
        gf2.min_weight([], at_least=3)
    with pytest.raises(ValueError, match="zero code"):
        BinaryCode(4, ()).min_distance(at_least=3)


@pytest.mark.parametrize("floor", [0, 1, 5, 100])
def test_floor_does_not_get_round_the_budget(floor):
    code = BinaryCode.from_rows(12, [0b1, 0b10, 0b100, 0b1000])  # d = 1, rank 4
    assert code.min_distance(4, at_least=floor) == 1
    with pytest.raises(BudgetError):
        code.min_distance(3, at_least=floor)


# ---------------------------------------------------------------------------
# search with floors against search with floors ignored
# ---------------------------------------------------------------------------


def twist_text(k: int, index: int) -> str:
    """The index-th unit of R_k (cyclically), as its text in k's default notation."""
    twists = list(units(k))
    return format_element(twists[index % len(twists)])


def exhaustive_shapes() -> list[SearchConfig]:
    """Every (k, ell, m) at k = 1, 2 with at most 2^16 tuples; the twist runs through the units."""
    configs = []
    for k in (1, 2):
        positions = 16 >> k  # 2^(2^k) digits per position
        shapes = [(ell, m) for ell in range(1, positions + 1) for m in range(1, positions // ell + 1)]
        for index, (ell, m) in enumerate(shapes):
            configs.append(SearchConfig(k=k, lam=twist_text(k, index), ell=ell, m_values=(m,)))
    return configs


RANDOM_SHAPES = [
    SearchConfig(k=1, lam="3", ell=3, m_values=(2, 3, 4), mode="random", samples=1500, seed=41),
    SearchConfig(k=2, lam="3", ell=2, m_values=(2, 3), mode="random", samples=600, seed=42),
    SearchConfig(k=3, ell=1, m_values=(1, 2), mode="random", samples=150, seed=43),
    SearchConfig(k=2, ell=1, m_values=(3,), mode="random", samples=400, seed=44, budget=9),
]


def chunk_results(monkeypatch, config: SearchConfig, floors: bool) -> tuple[list, list]:
    """(records, [(cells, skipped) of each chunk]) of search(config, jobs=1)."""
    chunks = []
    with monkeypatch.context() as patch:
        if not floors:
            exact = BinaryCode.min_distance
            patch.setattr(
                BinaryCode, "min_distance",
                lambda self, budget=DEFAULT_BUDGET_LOG2, at_least=0: exact(self, budget),
            )
        patch.setattr(analysis, "_evaluate_chunk", lambda p: chunks.append(_evaluate_chunk(p)) or chunks[-1])
        try:
            records = search(config, jobs=1)
        except BudgetError as err:
            records = [str(err)]
    return records, chunks


@pytest.mark.parametrize(
    "config", exhaustive_shapes() + RANDOM_SHAPES,
    ids=lambda c: f"{c.mode}-k{c.k}-lam{c.lam}-ell{c.ell}-m{','.join(map(str, c.m_values))}"
    f"-budget{c.budget}",
)
def test_search_with_floors_equals_search_without(config, monkeypatch):
    floored = chunk_results(monkeypatch, config, floors=True)
    assert floored == chunk_results(monkeypatch, config, floors=False)


def test_the_budget_shape_skips_some_ranks_and_keeps_others(monkeypatch):
    _, chunks = chunk_results(monkeypatch, RANDOM_SHAPES[-1], floors=True)
    cells, skipped = chunks[0]
    assert skipped and cells and max(rank for _, rank in cells) <= 9


@pytest.mark.parametrize(
    "config, edges",
    [
        (SearchConfig(k=1, lam="3", ell=2, m_values=(4,)), (0, 1, 777, 20000, 40001, 65536)),
        (SearchConfig(k=2, ell=1, m_values=(3,), budget=9), (0, 100, 2048, 4096)),
    ],
    ids=["k1", "k2-budget"],
)
def test_split_chunks_merged_equal_one_chunk(config, edges):
    # a pooled chunk prunes against its own cells only, yet every cell it keeps is exact
    m = config.m_values[0]
    whole = _evaluate_chunk({"config": config, "m": m, "index_range": (edges[0], edges[-1])})
    merged, skipped = {}, 0
    for lo, hi in zip(edges, edges[1:]):
        cells, chunk_skipped = _evaluate_chunk({"config": config, "m": m, "index_range": (lo, hi)})
        for cell, key in cells.items():
            _keep_best(merged, cell, key)
        skipped += chunk_skipped
    assert (merged, skipped) == whole


def test_split_sample_chunks_merged_equal_one_chunk():
    config = RANDOM_SHAPES[0]
    rng = random.Random(7)
    tuples = [bytes(rng.randrange(4) for _ in range(9)) for _ in range(3000)]
    whole = _evaluate_chunk({"config": config, "m": 3, "tuples": tuples})
    merged, skipped = {}, 0
    for lo in range(0, 3000, 700):
        cells, chunk_skipped = _evaluate_chunk({"config": config, "m": 3, "tuples": tuples[lo:lo + 700]})
        for cell, key in cells.items():
            _keep_best(merged, cell, key)
        skipped += chunk_skipped
    assert (merged, skipped) == whole
