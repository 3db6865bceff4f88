"""codes.last_code: back-to-back calls on one code object build its span once.

binary_image (and so code_record), hom_weight_enumerator and bound_check
read the span of the code object last asked about, and bound_check reads
the split hom_weight_enumerator made of it.  The span is still built
through the module attribute codes.code_span, which these tests count.
"""

from __future__ import annotations

import pytest

from rkcodes import codes
from rkcodes.analysis import bound_check, build_row_code, load_table_rows
from rkcodes.cli import main
from rkcodes.codes import BudgetError, QTCode, code_record, hom_weight_enumerator
from rkcodes.gf2 import LOW_ROWS


@pytest.fixture
def builds(monkeypatch) -> list:
    """The codes given to codes.code_span from here on, starting from an empty memo."""
    calls = []
    build = codes.code_span
    monkeypatch.setattr(codes, "code_span", lambda code: calls.append(code) or build(code))
    codes.last_code.reset()
    return calls


def answers(code: QTCode) -> tuple:
    return code_record(code), hom_weight_enumerator(code), bound_check(code)


def test_record_enumerator_and_bounds_build_one_span(builds):
    code = QTCode.from_strings(1, ["10|11|3u"], lam="3")
    answers(code)
    assert builds == [code]


def test_wd_builds_one_span(builds, capsys):
    assert main(["wd", "--k", "1", "--lambda", "3", "--gen", "0u|0u|uu"]) == 0
    assert capsys.readouterr().out == "1 + 3z^8\n"
    assert len(builds) == 1


def test_an_equal_but_distinct_code_builds_again(builds):
    # the memo is keyed by identity: hashing a frozen QTCode walks every entry
    code, twin = (QTCode.from_strings(2, ["135"]) for _ in range(2))
    assert code == twin and code is not twin
    assert answers(code) == answers(twin)
    assert builds == [code, twin]


def test_every_call_checks_the_budget(builds):
    code = QTCode.from_strings(2, ["135"])
    hom_weight_enumerator(code)
    with pytest.raises(BudgetError):
        hom_weight_enumerator(code, budget=3)
    with pytest.raises(BudgetError):
        bound_check(code, budget=3)
    assert len(builds) == 1


def test_bounds_after_the_enumerator_reads_its_split(monkeypatch):
    row = next(row for row in load_table_rows() if row.generator == "135")
    code = build_row_code(row)
    assert codes.code_span(code).rank <= LOW_ROWS
    codes.last_code.reset()
    hom_weight_enumerator(code)

    def recomputed(*args):
        raise AssertionError("bound_check split or weighed the code again")

    with monkeypatch.context() as patched:
        patched.setattr(codes, "residue_split", recomputed)
        patched.setattr(codes, "_hom_weights", recomputed)
        report = bound_check(code)
    codes.last_code.reset()
    assert bound_check(code) == report  # cold: hom_minima's own walk
    assert report["lemma_lower_holds"] is False
