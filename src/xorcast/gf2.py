"""Bit-packed linear algebra over GF(2): RREF row tuples and span masks.

Vectors live in GF(2)^k and are stored as Python ints, bit j being the
coefficient of input packet j+1. A client's span is a tuple of rows in fully
reduced row-echelon form (pivot = lowest set bit), so its rank is the tuple's
length, span membership is a single elimination pass and every span has one
canonical tuple.
A span can also be held as a 2^k-bit mask whose bit w is set iff w is in the
span, and subspace_table enumerates every subspace of GF(2)^k at small k.
"""

from __future__ import annotations

from functools import lru_cache

MAX_DIM = 63
# Span masks hold 2^k bits, which is desk scale only up to here.
MAX_MASK_DIM = 20


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
