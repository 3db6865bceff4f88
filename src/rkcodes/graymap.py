"""The homogeneous-weight Gray map from R_k to binary 2^(2^k-1)-tuples.

Basis monomials of R_k go to generators of the first-order Reed-Muller code
RM(1, m) with m = 2^k - 1: the top monomial u_1...u_k to the all-ones word,
the rest to (complemented) coordinate-bit evaluation vectors.  Any such
assignment turns the homogeneous weight into the Hamming weight, because
RM(1, m) has exactly one word of full weight and all other nonzero words of
weight 2^(m-1) = gamma.

The monomial with subset index a goes to the evaluation vector "bit a of
the coordinate index", which at k = 1 is the published psi_1(1) = 01,
psi_1(u) = 11 (strings are coordinate 0 first).  k = 2 is pinned to

    psi_2(1) = 10101010   psi_2(u) = 11110000
    psi_2(v) = 11001100   psi_2(uv) = 11111111

GrayMap extends the rows linearly: gf2.span_blocks lists every coefficient
word's image, and the decoder inverts that list.
"""

from __future__ import annotations

from typing import Sequence

from rkcodes.gf2 import span_blocks
from rkcodes.polyqt import RingVec
from rkcodes.ring import K_MAX, RingElement, unit_count

_PINNED_ROWS = {2: (0x55, 0x0F, 0x33, 0xFF)}  # 1, u, v, uv


class NotInImageError(ValueError):
    """A binary block lies outside RM(1, 2^k - 1)."""


def _bit_slice_rows(k: int) -> tuple[int, ...]:
    n_points = unit_count(k)
    rows = []
    for a in range((1 << k) - 1):
        row = 0
        for s in range(n_points):
            if (s >> a) & 1:
                row |= 1 << s
        rows.append(row)
    rows.append((1 << n_points) - 1)  # top monomial -> all-ones
    return tuple(rows)


class GrayMap:
    """Immutable per-k table mapping R_k vectors to binary words and back."""

    def __init__(self, k: int):
        if not 1 <= k <= K_MAX:
            raise ValueError(f"Gray images exist for k in 1..{K_MAX}, got k={k}")
        self.k = k
        self.image_len = unit_count(k)
        self.basis_rows = _PINNED_ROWS.get(k) or _bit_slice_rows(k)
        # Every coefficient word's image in word order; fewer distinct images mean dependent rows.
        self._images = next(iter(span_blocks(self.basis_rows)))
        self._decoder = {img: c for c, img in enumerate(self._images)}
        if len(self._decoder) < len(self._images):
            raise AssertionError("basis table rows are not independent")

    def element_image(self, e: RingElement) -> int:
        if e.k != self.k:
            raise ValueError(f"element of R_{e.k} fed to a k={self.k} Gray map")
        return self.word_image(e.coeffs)

    def word_image(self, coeffs: int) -> int:
        """Image of the element with coefficient word coeffs: the XOR of its monomials' rows."""
        if not 0 <= coeffs < len(self._images):
            raise ValueError(f"coefficient word {coeffs:#x} does not fit R_{self.k}")
        return self._images[coeffs]

    def image(self, vec: Sequence[RingElement]) -> int:
        """Componentwise image; block i occupies bits [i*image_len, (i+1)*image_len)."""
        out = 0
        for i, e in enumerate(vec):
            out |= self.element_image(e) << (i * self.image_len)
        return out

    def element_preimage(self, block: int) -> RingElement:
        if not 0 <= block < 1 << self.image_len:
            raise NotInImageError("block does not fit the image length")
        coeffs = self._decoder.get(block)
        if coeffs is None:
            raise NotInImageError("binary block lies outside RM(1, 2^k - 1)")
        return RingElement(self.k, coeffs)

    def preimage(self, bits: int, n_blocks: int) -> RingVec:
        """Unique preimage of a valid n_blocks * image_len word."""
        if bits >> n_blocks * self.image_len:
            raise NotInImageError(f"word does not fit in {n_blocks * self.image_len} bits")
        mask = (1 << self.image_len) - 1
        return tuple(
            self.element_preimage((bits >> (i * self.image_len)) & mask)
            for i in range(n_blocks)
        )
