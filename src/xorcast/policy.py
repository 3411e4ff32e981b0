"""Transmitter-side codeword selection for XOR multicast to three clients.

The access point knows every client's span and, per transmission, picks the
nonzero codeword that is innovative for the largest number of unsatisfied
clients. Spans are held as 2^k-bit masks, so the codewords that at least c
spans miss form one mask per level c, built with a few bitwise operations;
the answer is the best nonempty level, and the tie-break picks a set bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import ClientDecoder, CodingVector, span_mask

N_CLIENTS = 3


class AllClientsSatisfiedError(RuntimeError):
    """Nothing to send: every client already has full rank."""


class RankProfileError(ValueError):
    """State does not match the rank profile the operation requires."""


class CoverageSearchError(RuntimeError):
    """Codeword search found no all-client innovative codeword where one must exist."""


@dataclass
class NetworkState:
    """Joint state of the three client decoders; the simulator's ground truth."""

    k: int
    clients: tuple[ClientDecoder, ClientDecoder, ClientDecoder]

    def __post_init__(self):
        if len(self.clients) != N_CLIENTS:
            raise ValueError(f"exactly {N_CLIENTS} clients required, got {len(self.clients)}")
        if any(c.k != self.k for c in self.clients):
            raise ValueError("all clients must share dimension k")
        self.clients = tuple(self.clients)

    @classmethod
    def empty(cls, k: int) -> "NetworkState":
        return cls(k, tuple(ClientDecoder(k) for _ in range(N_CLIENTS)))

    def ranks(self) -> tuple[int, int, int]:
        return tuple(c.rank for c in self.clients)

    def unsatisfied(self) -> list[int]:
        return [i for i, c in enumerate(self.clients) if not c.is_satisfied()]

    def all_satisfied(self) -> bool:
        return all(c.is_satisfied() for c in self.clients)


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


def greedy_codeword(state: NetworkState, tie_break: str = "smallest") -> tuple[CodingVector, int]:
    """Codeword innovative for the most unsatisfied clients, with its coverage.

    Ties are broken by the numerically smallest bit pattern ("smallest", the
    default) or the largest ("largest"). The expected transmission count does
    not depend on the tie-break at k=2 and measurably does at k=3, as
    "largest" shows.
    """
    spans = [span_mask(state.clients[i].basis, state.k) for i in state.unsatisfied()]
    if not spans:
        raise AllClientsSatisfiedError("all clients satisfied")
    bits, covered = _scan_spans(spans, state.k, tie_break)
    return CodingVector(bits, state.k), covered


def sufficient_by_counting(ranks, k: int) -> bool:
    """Counting test guaranteeing an all-client innovative codeword exists.

    Sums 2^r - 1 over unsatisfied clients only; a satisfied client constrains
    nothing. The test is sufficient, not necessary.
    """
    if any(not 0 <= r <= k for r in ranks):
        raise ValueError(f"ranks {tuple(ranks)} out of range for k={k}")
    total = sum((1 << r) - 1 for r in ranks if r < k)
    return total < (1 << k) - 1


def lemma1_construct(state: NetworkState) -> CodingVector:
    """Codeword innovative for all three clients at rank profile (k-1, k-1, k-2).

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
    profile = tuple(sorted(state.ranks()))
    k = state.k
    if k < 2 or profile != (k - 2, k - 1, k - 1):
        raise RankProfileError(
            f"rank profile {state.ranks()} is not a permutation of (k-1, k-1, k-2) for k={k}")
    spans = [span_mask(c.basis, k) for c in state.clients]
    bits, covered = _scan_spans(spans, k, "smallest")
    if covered != N_CLIENTS:
        raise CoverageSearchError(
            f"no all-client innovative codeword at ranks {state.ranks()}, k={k}")
    return CodingVector(bits, k)


def lemma1_counterexample(k: int) -> NetworkState:
    """State with all ranks k-1 where no codeword is innovative for all three.

    The spans are the hyperplanes cut out by the functionals w_2, w_1 and
    w_1 + w_2; a vector outside all three would need w_1 = w_2 = 1 and
    w_1 + w_2 = 1 at once. For k=2 this is exactly the state where the
    clients hold p1, p2 and p1+p2.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    tail = [1 << j for j in range(2, k)]
    bases = [
        [0b01] + tail,  # w_2 = 0: holds p1
        [0b10] + tail,  # w_1 = 0: holds p2
        [0b11] + tail,  # w_1 + w_2 = 0: holds p1+p2
    ]
    clients = tuple(
        ClientDecoder.from_vectors(k, rows) for rows in bases
    )
    return NetworkState(k, clients)


def distinct_dependent_count(state: NetworkState) -> int:
    """Number of distinct nonzero codewords dependent for some unsatisfied client."""
    union = 0
    for i in state.unsatisfied():
        union |= span_mask(state.clients[i].basis, state.k)
    return max(union.bit_count() - 1, 0)  # the zero vector is no codeword
