"""Malformed input raises ValueError, and the message names no identifier.

Each case reaches a check that no other test reaches: a wrong ring, an
empty or misshapen generator, an empty vector, a non-unit twist, a
coefficient word outside the ring, an unknown notation, a negative search
candidate cap.  The messages reach CLI users as "error: ..." lines, so, as
for the literal text that tests/test_imports.py checks, no word of one may
hold an underscore other than a ring name such as R_1.
"""

from __future__ import annotations

import re

import pytest

from oracles import one, zero
from rkcodes.analysis import SearchConfig
from rkcodes.codes import QTCode, module_span
from rkcodes.gf2 import str_to_bits
from rkcodes.graymap import GrayMap
from rkcodes.polyqt import format_block, parse_block, shift, twistulant
from rkcodes.ring import RingElement, format_element, parse_element

U = RingElement(1, 0b10)  # u, a nonunit of R_1
ONE_BLOCK = (((zero(1),),),)  # one generator of one block of length 1

CASES = [  # (id, a fragment of the message, the call)
    ("module span of no rows", "at least one generator row", lambda: module_span([])),
    ("module span of mixed row lengths", "mixed lengths",
     lambda: module_span([(zero(1), zero(1)), (zero(1),)])),
    ("qt code with index 0", "index and coindex", lambda: QTCode(one(1), 0, 1, ONE_BLOCK)),
    ("qt code with coindex 0", "index and coindex", lambda: QTCode(one(1), 1, 0, ONE_BLOCK)),
    ("qt code with no generator", "at least one generator", lambda: QTCode(one(1), 1, 1, ())),
    ("qt code with the wrong block count", "expected ell=2",
     lambda: QTCode(one(1), 2, 1, ONE_BLOCK)),
    ("qt code with entries of another ring", "entries from the wrong ring",
     lambda: QTCode(one(1), 1, 1, (((zero(2),),),))),
    ("qt code from strings with another m", "but m=3",
     lambda: QTCode.from_strings(1, ["0u"], m=3)),
    ("binary string with a letter", "bad binary string", lambda: str_to_bits("01x")),
    ("gray image of another ring", "R_2 fed to a k=1",
     lambda: GrayMap(1).element_image(one(2))),
    ("gray image of a negative word", "does not fit R_1", lambda: GrayMap(1).word_image(-1)),
    ("gray image of a word past the ring", "does not fit R_1", lambda: GrayMap(1).word_image(4)),
    ("twistulant with a nonunit twist", "twist must be a unit",
     lambda: twistulant((one(1), zero(1)), U)),
    ("twistulant of an empty row", "empty first row", lambda: twistulant((), one(1))),
    ("shift of an empty vector", "empty vector", lambda: shift((), one(1))),
    ("parse an empty block", "empty generator block", lambda: parse_block("", 1)),
    ("format an empty block", "empty generator block", lambda: format_block(())),
    ("ring parameter 0", "got 0", lambda: RingElement(0, 0)),
    ("coefficients too wide for R_1", "does not fit R_1", lambda: RingElement(1, 4)),
    ("bad generic monomial", "bad monomial", lambda: parse_element("u1x", 2, "generic")),
    ("parse in an unknown notation", "unknown notation",
     lambda: parse_element("0", 1, "octal")),
    ("format in an unknown notation", "unknown notation",
     lambda: format_element(one(1), "octal")),
    ("r1 symbols for R_2", "only encode R_1", lambda: format_element(one(2), "r1")),
    ("hex digits for R_1", "only encode R_2", lambda: format_element(one(1), "hex")),
    ("search with a negative candidate cap", "exponent of at least 0",
     lambda: SearchConfig(k=1, m_values=(2,), max_candidates_log2=-1)),
]


@pytest.mark.parametrize(
    "fragment, call", [pytest.param(*case[1:], id=case[0]) for case in CASES]
)
def test_malformed_input_raises_a_plain_value_error(fragment, call):
    with pytest.raises(ValueError, match=re.escape(fragment)) as caught:
        call()
    words = re.findall(r"\w+", str(caught.value))
    assert [w for w in words if "_" in w and not re.fullmatch(r"R_\d*", w)] == []
