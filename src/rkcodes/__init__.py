"""Codes over the ring family R_k and their homogeneous-weight Gray images."""

from rkcodes.codes import (
    BinaryCode,
    BudgetError,
    QTCode,
    WeightEnumerator,
    binary_image,
    enumerate_codewords,
    hom_weight_enumerator,
    is_qt_invariant,
    qt_generator_matrix,
)
from rkcodes.graymap import GrayMap, NotInImageError
from rkcodes.polyqt import shift, twistulant
from rkcodes.ring import RingElement, format_element, gamma, parse_element

__version__ = "0.1.0"

__all__ = [
    "BinaryCode",
    "BudgetError",
    "GrayMap",
    "NotInImageError",
    "QTCode",
    "RingElement",
    "WeightEnumerator",
    "binary_image",
    "enumerate_codewords",
    "format_element",
    "gamma",
    "hom_weight_enumerator",
    "is_qt_invariant",
    "parse_element",
    "qt_generator_matrix",
    "shift",
    "twistulant",
]
