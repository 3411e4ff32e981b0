"""Bit-packed linear algebra over GF(2): coding vectors, client spans, span masks.

Vectors live in GF(2)^k and are stored as Python ints, bit j being the
coefficient of input packet j+1. Client-side state is a basis in reduced
row-echelon form (pivot = lowest set bit), which makes span membership a
single elimination pass and gives every span a canonical representation.
A span can also be held as a 2^k-bit mask whose bit w is set iff w is in the
span, and subspace_table enumerates every subspace of GF(2)^k at small k.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

MAX_DIM = 63
# Span masks hold 2^k bits, which is desk scale only up to here.
MAX_MASK_DIM = 20


class DimensionMismatchError(ValueError):
    """Operands disagree on the vector dimension k."""


@dataclass(frozen=True)
class CodingVector:
    """Coefficient vector of one codeword; bit j = coefficient of packet j+1."""

    bits: int
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= MAX_DIM:
            raise ValueError(f"dimension k must be in [1, {MAX_DIM}], got {self.k}")
        if not 0 <= self.bits < (1 << self.k):
            raise ValueError(f"bits {self.bits:#x} out of range for k={self.k}")


class InsertResult(enum.Enum):
    INNOVATIVE = "innovative"
    DEPENDENT = "dependent"


def rref_reduce(rows: tuple[int, ...], bits: int) -> int:
    """Reduce bits against RREF rows (ascending pivots); 0 iff bits is in the span."""
    for row in rows:
        if bits & (row & -row):
            bits ^= row
    return bits


def rref_insert(rows: tuple[int, ...], bits: int) -> tuple[int, ...] | None:
    """Insert bits into an RREF row tuple; None if dependent, else the new tuple.

    Rows carry no bits below their pivot, so only rows with smaller pivots can
    hold the new pivot column; clearing it keeps the form reduced.
    """
    reduced = rref_reduce(rows, bits)
    if reduced == 0:
        return None
    piv = reduced & -reduced
    cleared = tuple(row ^ reduced if row & piv else row for row in rows)
    out = []
    placed = False
    for row in cleared:
        if not placed and (row & -row) > piv:
            out.append(reduced)
            placed = True
        out.append(row)
    if not placed:
        out.append(reduced)
    return tuple(out)


@lru_cache(maxsize=None)
def _low_halves(k: int) -> tuple[int, ...]:
    """Masks over [0, 2^k): entry j has bit x set iff bit j of x is 0."""
    halves = []
    for j in range(k):
        mask = (1 << (1 << j)) - 1
        for i in range(j + 1, k):  # double the pattern up to 2^k bits
            mask |= mask << (1 << i)
        halves.append(mask)
    return tuple(halves)


def span_mask(rows, k: int) -> int:
    """The span of rows as a 2^k-bit int whose bit w is set iff w is in it.

    Each row adds the span's translate by that row, which swaps the halves
    that each set bit j of the row selects.
    """
    if k > MAX_MASK_DIM:
        raise ValueError(f"span masks hold 2^k bits and support k <= {MAX_MASK_DIM}, got {k}")
    mask, halves = 1, _low_halves(k)
    for row in rows:
        moved = mask
        while row:
            j = (row & -row).bit_length() - 1
            moved = ((moved & halves[j]) << (1 << j)) | ((moved >> (1 << j)) & halves[j])
            row &= row - 1
        mask |= moved
    return mask


@lru_cache(maxsize=None)
def subspace_table(k: int) -> tuple[tuple, tuple, tuple]:
    """(bases, members, nxt) over every subspace of GF(2)^k, indexed breadth-first
    from {0}, so by dimension with GF(2)^k last (5, 16 and 67 spans at k = 2, 3, 4).

    bases[s] is span s as fully reduced RREF rows, which are canonical;
    members[s] is its span mask; nxt[s][w] is the index of span s + w.
    """
    index, bases, members, nxt = {(): 0}, [()], [], []
    for basis in bases:  # grows as new spans are found
        members.append(span_mask(basis, k))
        row = []
        for w in range(1 << k):
            grown = rref_insert(basis, w) or basis
            if grown not in index:
                index[grown] = len(bases)
                bases.append(grown)
            row.append(index[grown])
        nxt.append(tuple(row))
    return tuple(bases), tuple(members), tuple(nxt)


class ClientDecoder:
    """Tracks the span of one client's received codewords.

    Only the span is kept: every transmitter decision depends on rank and span
    membership, never on the raw received multiset or the payloads.
    """

    __slots__ = ("k", "_rows")

    def __init__(self, k: int):
        if not 1 <= k <= MAX_DIM:
            raise ValueError(f"dimension k must be in [1, {MAX_DIM}], got {k}")
        self.k = k
        self._rows: tuple[int, ...] = ()

    @classmethod
    def from_vectors(cls, k: int, vectors) -> "ClientDecoder":
        dec = cls(k)
        for v in vectors:
            dec.insert(v)
        return dec

    def _coerce(self, w) -> int:
        if isinstance(w, CodingVector):
            if w.k != self.k:
                raise DimensionMismatchError(f"k mismatch: vector {w.k} vs decoder {self.k}")
            return w.bits
        bits = int(w)
        if not 0 <= bits < (1 << self.k):
            raise DimensionMismatchError(f"bits {bits:#x} out of range for k={self.k}")
        return bits

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def basis(self) -> tuple[int, ...]:
        """RREF basis rows, ascending pivot order."""
        return self._rows

    def is_satisfied(self) -> bool:
        return len(self._rows) == self.k

    def insert(self, w) -> InsertResult:
        """Record a received codeword; rank grows by one exactly when innovative."""
        bits = self._coerce(w)
        new_rows = rref_insert(self._rows, bits)
        if new_rows is None:
            return InsertResult.DEPENDENT
        self._rows = new_rows
        return InsertResult.INNOVATIVE

    def __repr__(self):
        rows = ",".join(f"{r:0{self.k}b}" for r in self._rows)
        return f"ClientDecoder(k={self.k}, rank={self.rank}, rows=[{rows}])"

