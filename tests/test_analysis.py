from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import random
import threading
import warnings

import pytest

from oracles import repetition_code_family, six_m_family, table1_qc6_report
from rkcodes import analysis
from rkcodes.analysis import (
    SearchConfig,
    bound_check,
    build_row_code,
    config_hash,
    load_table_rows,
    search,
    verify_tables,
)
from rkcodes.codes import BudgetError, QTCode, binary_image, code_record, hom_weight_enumerator

MISPRINT_GENERATOR = "aaa2|4e4e"  # published as [64,5,32]; actually [64,6,16]


def test_fixture_row_counts_and_notes():
    rows = load_table_rows()
    assert len(rows) == 45
    assert sum(1 for r in rows if r.table == 1) == 21
    assert sum(1 for r in rows if r.table == 2) == 14
    assert sum(1 for r in rows if r.table == 3) == 10
    assert sum(1 for r in rows if r.notes == "---") == 3  # blanks preserved
    assert any(r.notes == "best-known" for r in rows if r.table == 1)
    assert load_table_rows((2,)) == tuple(r for r in rows if r.table == 2)
    for unknown in ((), (9,), (1, 9)):
        with pytest.raises(ValueError):
            load_table_rows(unknown)


def test_verify_tables_matches_except_known_misprint():
    reports = verify_tables()
    assert len(reports) == 45
    mismatched = [r for r in reports if r["status"] != "MATCH"]
    assert [r["generator"] for r in mismatched] == [MISPRINT_GENERATOR]
    assert mismatched[0]["computed"] == [64, 6, 16]
    for r in reports:
        if r["k"] == 2:
            assert r["self_orthogonal"]
            assert r["qc_index"] == 8 * r["ell"]
        else:
            assert r["qc_index"] is None  # twist != 1: only QC up to equivalence


def test_six_m_matches_table_rows():
    code, _ = six_m_family(2)
    assert code.generator_strings() == ["0u|0u|uu"]
    code, _ = six_m_family(5)
    table_row = build_row_code(load_table_rows((1,))[13])  # (13131|uuuuu|13131)
    img = binary_image(code)
    img_row = binary_image(table_row)
    assert (img.length, img.rank, img.min_distance()) == \
        (img_row.length, img_row.rank, img_row.min_distance()) == (30, 2, 20)


def test_bound_check_reports():
    code, _ = repetition_code_family(2, 1)
    report = bound_check(code)
    assert report == {
        "residue_distance": 1,
        "hom_distance": 4,
        "nonkernel_distance": 4,
        "lower_bound": 4,
        "upper_bound": 8,
        "generator_bound": 8,
        "lemma_lower_holds": True,
        "ok": True,
    }
    degenerate = QTCode.from_strings(1, ["0u|0u|uu"], lam="3")
    report = bound_check(degenerate)
    assert report["residue_distance"] is None
    assert report["lower_bound"] is None and report["upper_bound"] is None
    assert report["generator_bound"] is None  # no unit coefficients
    assert report["ok"]
    report = bound_check(QTCode.from_strings(2, ["231|f87|bc7"]))
    assert report["hom_distance"] == 32 and report["lemma_lower_holds"] and report["ok"]


def test_bound_check_all_fixture_rows():
    for row in load_table_rows():
        assert bound_check(build_row_code(row))["ok"], row.generator


def test_literal_lower_bound_counterexample_from_table_2():
    # The (135) cyclic code's image is the published [24,8,8], but its
    # residue code has distance 3: the weight-8 words lie in the residue
    # kernel, so the literal gamma*d lower bound fails while the sound
    # bound (over codewords with nonzero residue) is met with equality.
    report = bound_check(QTCode.from_strings(2, ["135"]))
    assert report["hom_distance"] == 8
    assert report["lower_bound"] == 12
    assert report["lemma_lower_holds"] is False
    assert report["nonkernel_distance"] == 12
    assert report["ok"]


def test_table1_qc6_report():
    report = table1_qc6_report()
    assert len(report) == 21
    assert all(qc6 for m, qc6 in report if m % 2 == 1)  # the QC form at odd coindex


def test_search_exhaustive_recovers_table_cells():
    cfg = SearchConfig(k=1, lam="3", ell=3, m_values=(2,), seed=1)
    records = search(cfg)
    by_cell = {(r["image"]["length"], r["image"]["dimension"]): r for r in records}
    assert by_cell[(12, 2)]["image"]["min_distance"] == 8
    assert by_cell[(12, 4)]["image"]["min_distance"] == 6
    for r in records:
        assert r["provenance"] == {"seed": 1, "config_hash": config_hash(cfg)}


def test_search_exhaustive_recovers_cyclic_16_4_8():
    cfg = SearchConfig(k=2, lam="1", ell=1, m_values=(2,), seed=0)
    records = search(cfg)
    by_cell = {(r["image"]["length"], r["image"]["dimension"]): r for r in records}
    assert by_cell[(16, 4)]["image"]["min_distance"] == 8


def test_search_determinism_and_jobs_independence():
    cfg = SearchConfig(k=1, lam="3", ell=3, m_values=(2,), seed=7)
    assert search(cfg, jobs=1) == search(cfg, jobs=1)
    assert search(cfg, jobs=1) == search(cfg, jobs=4)
    rnd = SearchConfig(k=1, lam="3", ell=3, m_values=(3,), mode="random",
                       samples=150, seed=9)
    assert search(rnd, jobs=1) == search(rnd, jobs=4)
    different_seed = SearchConfig(k=1, lam="3", ell=3, m_values=(3,),
                                  mode="random", samples=150, seed=10)
    assert config_hash(rnd) != config_hash(different_seed)


@pytest.mark.parametrize(
    "config",
    [
        SearchConfig(k=2, lam="1", ell=1, m_values=(2, 3)),
        SearchConfig(k=1, lam="3", ell=3, m_values=(4,), mode="random", samples=200, seed=4),
    ],
    ids=["exhaustive", "random"],
)
def test_search_output_does_not_depend_on_chunking(config):
    # jobs=1 evaluates one chunk per coindex in this process, jobs=2 evaluates 8 in two workers.
    one_job, two_jobs = (json.dumps(search(config, jobs=j), sort_keys=True) for j in (1, 2))
    assert one_job == two_jobs


def test_exhaustive_search_output_does_not_depend_on_chunk_edges():
    # 4^6 tuples: one chunk with jobs=1, 12 of 342 (the last 334) with jobs=3.
    config = SearchConfig(k=1, lam="3", ell=2, m_values=(3,))
    one_job, three_jobs = (json.dumps(search(config, jobs=j), sort_keys=True) for j in (1, 3))
    assert one_job == three_jobs


def test_one_job_evaluates_one_chunk_per_coindex(monkeypatch):
    # each chunk makes its own block memo, so one job makes one per coindex
    chunks = []
    evaluate = analysis._evaluate_chunk
    monkeypatch.setattr(analysis, "_evaluate_chunk", lambda p: chunks.append(p["m"]) or evaluate(p))
    search(SearchConfig(k=1, lam="3", ell=3, m_values=(2, 3), mode="random", samples=50, seed=1))
    assert chunks == [2, 3]


# sha256 of json.dumps(search(config), sort_keys=True), recorded from the
# string-based orbit check and RingElement code construction, so any change
# to candidate order, orbit canonicalisation or tie-breaking shows here.
PINNED_SEARCHES = [
    (
        SearchConfig(k=1, lam="3", ell=3, m_values=(2,)),
        "e1ef6751e8793a3cf7dd0e8ef03b43d17c5014778f0f2e1828f507e547f7acb2",
    ),
    (
        SearchConfig(k=2, lam="1", ell=1, m_values=(3,)),
        "641e0b04ac15bbc9152f7cb79f7a8847b0b6526c3dfa00b533d4af1b0cd3caa5",
    ),
    (
        SearchConfig(k=2, lam="1+u1+u1u2", ell=2, m_values=(3,), mode="random",
                     samples=300, seed=3, notation="generic"),  # lambda = b
        "cd56afe1c61494fc7afb16021ba98c84d31b823573876ed7e316f3094ff49050",
    ),
]


@pytest.mark.parametrize("config, digest", PINNED_SEARCHES)
def test_search_output_pinned(config, digest):
    blob = json.dumps(search(config), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


# sha256 of the JSON of verify_tables() and of [code_record, hom_weight_enumerator pairs,
# bound_check] on each of the 45 fixture rows: the aaa2|4e4e misprint and the 135
# counterexample stay fixed byte for byte with every other figure.
PINNED_TABLES = "44cefd3e65b5c79da6302a78a4b6e87ab5c0ba659e05292251c147a929208b02"
PINNED_ROW_RECORDS = "988af8345a3a87ccf4a1e2c07fcea40371bda9780dac1827835a79de11eb823c"


def test_fixture_outputs_pinned():
    sha = lambda value: hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
    assert sha(verify_tables()) == PINNED_TABLES
    records = []
    for row in load_table_rows():
        code = build_row_code(row)
        records.append([code_record(code), hom_weight_enumerator(code).pairs(), bound_check(code)])
    assert sha(records) == PINNED_ROW_RECORDS


def reference_draw(rng: random.Random, size: int, count: int) -> list[int]:
    return [rng.randrange(size) for _ in range(count)]


@pytest.mark.parametrize("size", [4, 16, 256])
@pytest.mark.parametrize("seed", [0, 1, 7, 2021])
@pytest.mark.parametrize("count", [1, 9, 3000, 150_000])  # 150,000 digits take several rounds
def test_bulk_draw_equals_randrange_and_leaves_the_same_state(size, seed, count):
    bulk, loop = random.Random(seed), random.Random(seed)
    assert list(analysis._draw_digits(bulk, size, count)) == reference_draw(loop, size, count)
    assert bulk.getstate() == loop.getstate()


def test_bulk_draw_rounds_are_capped():
    calls = []

    class Counting(random.Random):
        def getrandbits(self, k: int) -> int:
            calls.append(k)
            return super().getrandbits(k)

    assert len(analysis._draw_digits(Counting(5), 4, 150_000)) == 150_000
    assert len(calls) > 2 and max(calls) == 32 << 16


@pytest.mark.parametrize(
    "config",
    [
        SearchConfig(k=1, lam="3", ell=3, m_values=(2, 3), mode="random", samples=500, seed=21),
        SearchConfig(k=2, lam="1", ell=2, m_values=(2, 3), mode="random", samples=300, seed=22),
        SearchConfig(k=3, ell=1, m_values=(2,), mode="random", samples=60, seed=23),
        SearchConfig(k=1, ell=1, m_values=(1,), mode="random", samples=1, seed=3),
    ],
    ids=["k1-two-coindices", "k2-two-coindices", "k3", "one-sample"],
)
def test_random_search_equals_the_randrange_draw(config, monkeypatch):
    # every coindex draws from one rng, so the second coindex's samples follow the first's
    bulk = json.dumps(search(config), sort_keys=True)
    monkeypatch.setattr(analysis, "_draw_digits", reference_draw)
    assert json.dumps(search(config), sort_keys=True) == bulk


def test_search_reports_candidates_all_skipped_for_budget():
    with pytest.raises(BudgetError, match="all 9 candidate"):
        search(SearchConfig(k=1, ell=1, m_values=(2,), budget=0))


def test_search_rejects_jobs_below_one():
    cfg = SearchConfig(k=1, ell=1, m_values=(2,))
    for jobs in (0, -2):
        with pytest.raises(ValueError, match="jobs"):
            search(cfg, jobs=jobs)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its workers and start method, maps in-process."""

    made: list = []

    def __init__(self, max_workers=None, mp_context=None):
        self.made.append((max_workers, mp_context.get_start_method()))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "cpus, pools", [(2, [(2, "spawn")]), (None, [])], ids=["two-cpus", "unknown-cpus"]
)
def test_search_pool_spawns_no_more_workers_than_cpus(cpus, pools, monkeypatch):
    # 4^6 tuples in 256 chunks with jobs=64; no process is started
    config = SearchConfig(k=1, lam="3", ell=2, m_values=(3,))
    one_job = search(config, jobs=1)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "made", [])
    assert search(config, jobs=64) == one_job
    assert RecordingPool.made == pools


def test_pooled_search_does_not_fork_beside_a_second_thread():
    # Python 3.12 and later warn when fork() runs in a process with a second thread; the pool
    # must not fork.  An "error" warnings filter would not catch it: CPython drops that warning.
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, daemon=True)
    thread.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            search(SearchConfig(k=1, lam="3", ell=3, m_values=(2,), seed=7), jobs=2)
    finally:
        stop.set()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert [str(w.message) for w in caught if "fork()" in str(w.message)] == []


def test_search_exhaustive_cap():
    cfg = SearchConfig(k=2, lam="1", ell=1, m_values=(8,), max_candidates_log2=28)
    with pytest.raises(BudgetError):
        search(cfg)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(k=1, mode="stochastic")
    with pytest.raises(ValueError):
        SearchConfig(k=1, m_values=())
    with pytest.raises(ValueError):
        SearchConfig(k=1, ell=0)
    with pytest.raises(ValueError):
        SearchConfig(k=1, m_values=(2, 0))
    with pytest.raises(ValueError):
        SearchConfig(k=1, mode="random", samples=0)
    for k in (0, 4):
        with pytest.raises(ValueError, match="Gray images"):
            SearchConfig(k=k)
    for k, lam in ((1, "u"), (1, "0"), (2, "2"), (2, "e")):
        with pytest.raises(ValueError, match="must be a unit"):
            SearchConfig(k=k, lam=lam)
    for k, lam, notation in ((1, "zz", None), (2, "g", None), (2, "1+u9", "generic")):
        with pytest.raises(ValueError):
            SearchConfig(k=k, lam=lam, notation=notation)


def test_search_that_evaluates_nothing_is_an_error():
    # The only sample is the zero tuple.
    cfg = SearchConfig(k=1, ell=1, m_values=(1,), mode="random", samples=1, seed=2)
    with pytest.raises(ValueError, match="no candidate evaluated"):
        search(cfg)
