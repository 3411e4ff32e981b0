"""Transmitter-side codeword selection for XOR multicast to three clients.

The access point knows every client's span and, per transmission, picks the
nonzero codeword that is innovative for the largest number of unsatisfied
clients. A joint state is three RREF row tuples (gf2.rref_insert) plus k; a
client is unsatisfied while it holds fewer than k rows. For selection the
spans are held as 2^k-bit masks, so the codewords that at least c
spans miss form one mask per level c, built with a few bitwise operations;
the answer is the best nonempty level, and the tie-break picks a set bit.
"""

from __future__ import annotations

from .gf2 import MAX_DIM, MAX_MASK_DIM, span_mask

N_CLIENTS = 3


class RankProfileError(ValueError):
    """State does not match the rank profile the operation requires."""


class CoverageSearchError(RuntimeError):
    """Codeword search found no all-client innovative codeword where one must exist."""


def _unsatisfied_spans(clients, k: int) -> list[int]:
    """Span masks of the clients holding fewer than k rows, in client order.

    The one input check of the Lemma 1 functions: three clients, k in
    [1, MAX_MASK_DIM], every row inside GF(2)^k and every client's rows in the
    fully reduced form rref_insert keeps, so that len(rows) is the rank.
    """
    if len(clients) != N_CLIENTS:
        raise ValueError(f"exactly {N_CLIENTS} clients required, got {len(clients)}")
    if not 1 <= k <= MAX_MASK_DIM:
        raise ValueError(f"k must be in [1, {MAX_MASK_DIM}] for span masks, got {k}")
    for rows in clients:
        if any(row >> k for row in rows):
            raise ValueError(f"a row has a bit at or above k={k}")
        pivots = [row & -row for row in rows]
        pivot_bits = sum(pivots)
        # nonzero rows, ascending pivots, and no row holding another's pivot
        if pivots != sorted(set(pivots) - {0}) or any(
                row & pivot_bits != piv for row, piv in zip(rows, pivots)):
            raise ValueError(f"rows {tuple(rows)} are not in fully reduced RREF")
    return [span_mask(rows, k) for rows in clients if len(rows) < k]


def _coverage_levels(nonzero, misses: list) -> list:
    """levels[c]: the w in nonzero that at least c misses hold; ints or numpy words."""
    levels = [nonzero]
    for miss in misses:
        levels.append(levels[-1] & miss)
        for c in range(len(levels) - 2, 0, -1):
            levels[c] |= levels[c - 1] & miss
    return levels


def _scan_spans(spans: list[int], k: int, tie_break: str) -> tuple[int, int]:
    """Pick the nonzero w maximizing the number of spans that miss it.

    spans holds only the unsatisfied clients' span masks. Returns (bits, covered).
    """
    if tie_break not in ("smallest", "largest"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    at_least = _coverage_levels((1 << (1 << k)) - 2, [~span for span in spans])
    covered = max(c for c, ties in enumerate(at_least) if ties)
    ties = at_least[covered]
    if tie_break == "smallest":
        return (ties & -ties).bit_length() - 1, covered
    return ties.bit_length() - 1, covered


def greedy_codeword(rows, k: int, tie_break: str = "smallest") -> tuple[int, int]:
    """Codeword bits innovative for the most unsatisfied clients, with its coverage.

    Ties are broken by the numerically smallest bit pattern ("smallest", the
    default) or the largest ("largest"). The expected transmission count does
    not depend on the tie-break at k=2 and measurably does at k=3, as
    "largest" shows.
    """
    spans = _unsatisfied_spans(rows, k)
    if not spans:
        raise ValueError("all clients satisfied: nothing to send")
    return _scan_spans(spans, k, tie_break)


def sufficient_by_counting(ranks, k: int) -> bool:
    """Counting test guaranteeing an all-client innovative codeword exists.

    Sums 2^r - 1 over unsatisfied clients only; a satisfied client constrains
    nothing. The test is sufficient, not necessary.
    """
    if any(not 0 <= r <= k for r in ranks):
        raise ValueError(f"ranks {tuple(ranks)} out of range for k={k}")
    total = sum((1 << r) - 1 for r in ranks if r < k)
    return total < (1 << k) - 1


def lemma1_construct(rows, k: int) -> int:
    """Codeword bits innovative for all three clients at rank profile (k-1, k-1, k-2).

    Existence argument, in matrix terms: append the unknown vector w as a last
    row to each client matrix. In the two rank-(k-1) matrices some pair of
    columns becomes linearly dependent after column additions (ignoring the
    last row); in the rank-(k-2) matrix some triple does. w is innovative for
    a client exactly when the corresponding columns, now including w's entries,
    stay independent, which yields one linear inequation over GF(2) per
    rank-(k-1) client and a disjunction of three for the rank-(k-2) client.
    Three constraints over k >= 2 free bits always admit a solution.

    Worked instance, k=4: client spans
        span{1000, 0100, 0010}, span{0100, 0010, 0001}, span{1111, 0101}
    (bit order packet 1 first). The constraints exclude exactly the union of
    the three spans; the smallest vector outside it is 1001 = p1+p4,
    innovative for all three.

    This implementation realizes the guarantee by greedy selection on the
    span masks: the smallest w outside the union of the three spans.
    """
    spans = _unsatisfied_spans(rows, k)
    ranks = tuple(len(r) for r in rows)
    if tuple(sorted(ranks)) != (k - 2, k - 1, k - 1):
        raise RankProfileError(
            f"rank profile {ranks} is not a permutation of (k-1, k-1, k-2) for k={k}")
    bits, covered = _scan_spans(spans, k, "smallest")
    if covered != N_CLIENTS:
        raise CoverageSearchError(f"no all-client innovative codeword at ranks {ranks}, k={k}")
    return bits


def lemma1_counterexample(k: int) -> tuple[tuple[int, ...], ...]:
    """RREF rows of three rank-(k-1) clients where no codeword is innovative for all.

    The spans are the hyperplanes cut out by the functionals w_2, w_1 and
    w_1 + w_2; a vector outside all three would need w_1 = w_2 = 1 and
    w_1 + w_2 = 1 at once. For k=2 this is exactly the state where the
    clients hold p1, p2 and p1+p2.
    """
    if not 2 <= k <= MAX_DIM:
        raise ValueError(f"k must be in [2, {MAX_DIM}], got {k}")
    tail = tuple(1 << j for j in range(2, k))
    return (
        (0b01,) + tail,  # w_2 = 0: holds p1
        (0b10,) + tail,  # w_1 = 0: holds p2
        (0b11,) + tail,  # w_1 + w_2 = 0: holds p1+p2
    )


def distinct_dependent_count(rows, k: int) -> int:
    """Number of distinct nonzero codewords dependent for some unsatisfied client."""
    union = 0
    for span in _unsatisfied_spans(rows, k):
        union |= span
    return max(union.bit_count() - 1, 0)  # the zero vector is no codeword
