"""The homogeneous-weight Gray map from R_k to binary 2^(2^k-1)-tuples.

Basis monomials of R_k go to generators of the first-order Reed-Muller code
RM(1, m) with m = 2^k - 1: the top monomial u_1...u_k to the all-ones word,
the rest to (complemented) coordinate-bit evaluation vectors.  Any such
assignment turns the homogeneous weight into the Hamming weight, because
RM(1, m) has exactly one word of full weight and all other nonzero words of
weight 2^(m-1) = gamma.

The k = 1 and k = 2 tables are pinned to the published displays

    psi_1(1) = 01   psi_1(u) = 11
    psi_2(1) = 10101010   psi_2(u) = 11110000
    psi_2(v) = 11001100   psi_2(uv) = 11111111

(strings are coordinate 0 first); for k = 3 the monomial with subset
index a maps to the evaluation vector "bit a of the coordinate index".
"""

from __future__ import annotations

from typing import Sequence

from rkcodes.gf2 import F2Span, bits_to_str
from rkcodes.ring import K_MAX, RingElement, unit_count

RingVec = tuple[RingElement, ...]

_PINNED_ROWS = {
    1: (0b10, 0b11),  # 1, u
    2: (0x55, 0x0F, 0x33, 0xFF),  # 1, u, v, uv
}


class NotInImageError(ValueError):
    """A binary block lies outside RM(1, 2^k - 1)."""


class PermutationNotFoundError(RuntimeError):
    """No coordinate permutation realizes multiplication by the unit.

    Reaching this would contradict the permutation-equivalence of psi(a)
    and psi(lambda * a); it indicates a corrupted basis table.
    """


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
        if F2Span(self.basis_rows).rank < len(self.basis_rows):
            raise AssertionError("basis table rows are not independent")
        # Decoder: basis row idx tagged with bit image_len + idx, so reducing
        # an image block leaves its coefficient word in the high bits.
        self._decoder = F2Span(
            row | 1 << (idx + self.image_len) for idx, row in enumerate(self.basis_rows)
        )

    def element_image(self, e: RingElement) -> int:
        if e.k != self.k:
            raise ValueError(f"element of R_{e.k} fed to a k={self.k} Gray map")
        return self.word_image(e.coeffs)

    def word_image(self, coeffs: int) -> int:
        """Image of the element with coefficient word coeffs: the XOR of its monomials' rows."""
        img = 0
        c = coeffs
        while c:
            bit = c & -c
            c ^= bit
            img ^= self.basis_rows[bit.bit_length() - 1]
        return img

    def image(self, vec: Sequence[RingElement]) -> int:
        """Componentwise image; block i occupies bits [i*image_len, (i+1)*image_len)."""
        out = 0
        for i, e in enumerate(vec):
            out |= self.element_image(e) << (i * self.image_len)
        return out

    def image_str(self, vec: Sequence[RingElement]) -> str:
        return bits_to_str(self.image(vec), len(vec) * self.image_len)

    def element_preimage(self, block: int) -> RingElement:
        if not 0 <= block < 1 << self.image_len:
            raise NotInImageError("block does not fit the image length")
        residual = self._decoder.reduce(block)
        if residual & (1 << self.image_len) - 1:
            raise NotInImageError("binary block lies outside RM(1, 2^k - 1)")
        return RingElement(self.k, residual >> self.image_len)

    def preimage(self, bits: int, n_blocks: int) -> RingVec:
        """Unique preimage of a valid n_blocks * image_len word."""
        if bits >> n_blocks * self.image_len:
            raise NotInImageError(f"word does not fit in {n_blocks * self.image_len} bits")
        mask = (1 << self.image_len) - 1
        return tuple(
            self.element_preimage((bits >> (i * self.image_len)) & mask)
            for i in range(n_blocks)
        )

    def unit_mul_permutation(self, lam: RingElement) -> tuple[int, ...]:
        """Coordinate permutation P with psi(lam*a) = P applied to psi(a) for all a.

        P is returned as a tuple: new coordinate P[c] gets old coordinate c.
        Column c of the basis images, bit c of each psi(u_A), is a 2^k-bit
        word, and the columns of an RM(1, m) generator matrix are distinct,
        so P[c] is the one column of the images psi(lam*u_A) equal to it.
        The result is verified over the whole ring before returning, so a
        successful return is a proof for this table.
        """
        if lam.k != self.k:
            raise ValueError("unit from the wrong ring")
        if not lam.is_unit:
            raise ValueError("lambda must be a unit")
        moved = [self.word_image((lam * RingElement(self.k, 1 << a)).coeffs)
                 for a in range(len(self.basis_rows))]
        where = {_column(moved, c): c for c in range(self.image_len)}
        perm = tuple(where.get(_column(self.basis_rows, c)) for c in range(self.image_len))
        ring = (RingElement(self.k, c) for c in range(1 << len(self.basis_rows)))
        is_permutation = set(perm) == set(range(self.image_len))
        if not is_permutation or any(apply_permutation(perm, self.element_image(e), self.image_len)
                                     != self.element_image(lam * e) for e in ring):
            raise PermutationNotFoundError(f"no coordinate permutation realizes multiplication by {lam}")
        return perm


def _column(rows: Sequence[int], c: int) -> int:
    """Bit a of the result is bit c of rows[a]."""
    return sum(((row >> c) & 1) << a for a, row in enumerate(rows))


def apply_permutation(perm: Sequence[int], bits: int, length: int) -> int:
    out = 0
    for c in range(length):
        if (bits >> c) & 1:
            out |= 1 << perm[c]
    return out
