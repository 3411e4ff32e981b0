"""Closed-form transmission bounds for 3-client XOR multicast.

Upper bound: once the network can get stuck, at worst one client must collect
k+1 codewords while the other two collect k; the expected number of
transmissions for that reception schedule is an order-statistic sum over
binomial tails. Lower bound: an ideal code where every delivery is innovative
for every client, so each client needs exactly k receptions.

Infinite sums are truncated once the summand drops below tail_epsilon and
closed with a geometric tail estimate; reported values are good to 6 decimal
places; past _MAX_TERMS terms a series raises SeriesLimitError. Each tail
T(m, j0) = P[Bin(m, s) >= j0] is walked forward, T(m+1, j0) = T(m, j0) +
s P[Bin(m, s) = j0-1], while it is the smaller side, then (where a running sum
would drift near 1) summed from the lower side by _binom_tail: O(M + k M_lower).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import exp, lgamma, log

_MAX_TERMS = 10_000_000


class SeriesLimitError(RuntimeError):
    """A bound series needs more than _MAX_TERMS terms to converge."""


def _check_loss(p: float) -> None:
    if not 0.0 <= p < 1.0:
        raise ValueError(f"loss probability must satisfy 0 <= p < 1, got {p}")


@dataclass(frozen=True)
class BoundQuery:
    """Evaluation point: k packets, loss probability p, series truncation tolerance."""

    k: int
    p: float
    tail_epsilon: float = 1e-12

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        _check_loss(self.p)
        if not self.tail_epsilon > 0.0:
            raise ValueError(f"tail_epsilon must be positive, got {self.tail_epsilon}")

    @property
    def s(self) -> float:
        return 1.0 - self.p


class _KahanSum:
    """Compensated accumulator; keeps long tail sums at full double precision."""

    __slots__ = ("total", "_c")

    def __init__(self):
        self.total = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        y = x - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t


def span_cardinality(r: int) -> int:
    """Number of nonzero vectors spanned by r independent codewords: 2^r - 1."""
    if r < 0:
        raise ValueError(f"rank must be >= 0, got {r}")
    return (1 << r) - 1


def p_delta(beta: int, p: float) -> float:
    """Probability the lagging client collects exactly beta redundant codewords.

    Applies once the network is stuck at ranks (k-1, k-1, k-1) with no
    codeword innovative for all three: each transmission reaches the laggard
    redundantly with probability s*p^2 while the stuck phase persists.
    """
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    _check_loss(p)
    s = 1.0 - p
    stay_and_receive = s * p * p
    return stay_and_receive ** (beta - 1) * (s * p * p + 2 * s * s * p + s**3)


def expected_delta(p: float) -> float:
    """Expected redundant codewords at the lagging client; in (0, 1] for p < 1."""
    _check_loss(p)
    s = 1.0 - p
    numerator = s * p * p + 2 * s * s * p + s**3
    return numerator / (1.0 - s * p * p) ** 2


def _log_binom_term(m: int, j: int, s: float, p: float) -> float:
    return (lgamma(m + 1) - lgamma(j + 1) - lgamma(m - j + 1)
            + j * log(s) + (m - j) * log(p))


def _binom_tail(m: int, j0: int, s: float, p: float) -> float:
    """Sum_{j=j0}^{m} C(m,j) s^j p^(m-j) by stable term recurrence.

    Always sums the smaller side of the distribution starting from its largest
    term, so a deep-tail start that underflows to 0 really does mean the sum
    is negligible; factorials never materialize.
    """
    if j0 > m:
        return 0.0
    if j0 <= 0:
        return 1.0
    if p == 0.0:
        return 1.0
    acc = _KahanSum()
    if j0 <= (m + 1) * s:
        # upper tail is the bulk: return 1 - sum_{j<j0}, descending from j0-1
        term = exp(_log_binom_term(m, j0 - 1, s, p))
        ratio = p / s
        for j in range(j0 - 1, -1, -1):
            acc.add(term)
            term *= j / (m - j + 1) * ratio
        return min(1.0, max(0.0, 1.0 - acc.total))
    term = exp(_log_binom_term(m, j0, s, p))
    ratio = s / p
    for j in range(j0, m + 1):
        acc.add(term)
        term *= (m - j) / (j + 1) * ratio
    return min(1.0, max(0.0, acc.total))


def _tail_walk(j0: int, s: float, p: float):
    """Yield P[Bin(m, s) >= j0] for m = 0, 1, 2, ... (see the module docstring)."""
    tail, f, m = _KahanSum(), 0.0, 0  # f = f(m) = P[Bin(m, s) = j0-1]; 0 reseeds
    while j0 > (m + 1) * s:
        yield tail.total
        if m >= j0 - 1:
            f = f or exp(_log_binom_term(m, j0 - 1, s, p))
            tail.add(s * f)
            f *= p * (m + 1) / (m + 2 - j0)
        m += 1
    yield from (_binom_tail(n, j0, s, p) for n in count(m))


def d1(m: int, query: BoundQuery) -> float:
    """Probability one client holds at least k receptions after m transmissions."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return _binom_tail(m, query.k, query.s, query.p)


def d2(m: int, query: BoundQuery) -> float:
    """Probability one client holds at least k+1 receptions after m transmissions."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return _binom_tail(m, query.k + 1, query.s, query.p)


def _survival_series(query: BoundQuery, completion_prob) -> float:
    """Sum_{m=0}^inf (1 - completion_prob(m)) with a geometric tail estimate.

    completion_prob(m), called for m = 0, 1, 2, ... in order, rises to 1 and is <= 1 - p^m.
    """
    acc = _KahanSum()
    eps = query.tail_epsilon
    limit = f"series needs more than {_MAX_TERMS} terms (k={query.k}, p={query.p})"
    if query.p > 0.0 and log(eps) / log(query.p) > _MAX_TERMS:  # no summand below p^m
        raise SeriesLimitError(limit)
    m = 0
    while True:
        term = 1.0 - completion_prob(m)
        if term < eps and m > query.k:
            nxt = 1.0 - completion_prob(m + 1)
            if 0.0 < nxt < term:
                rho = nxt / term
                acc.add(term * rho / (1.0 - rho))
            break
        acc.add(term)
        m += 1
        if m > _MAX_TERMS:
            raise SeriesLimitError(limit)
    return acc.total


def expected_ell(query: BoundQuery) -> float:
    """Expected transmissions until two clients reach k receptions and one k+1.

    This is the upper bound on the exact greedy transmission count: the
    completion probability after m transmissions factors into the two
    at-least-k tails times one at-least-k-plus-1 tail, and the expectation is
    the sum of the survival probabilities. The first k+1 terms are exactly 1.
    """
    tail_k = _tail_walk(query.k, query.s, query.p)
    tail_k1 = _tail_walk(query.k + 1, query.s, query.p)

    def completion(m: int) -> float:
        a = next(tail_k)
        return a * a * next(tail_k1)

    return _survival_series(query, completion)


def mds_expected(query: BoundQuery) -> float:
    """Expected transmissions when every delivery is innovative for every client.

    Each client then needs exactly k receptions, so the completion probability
    is the cube of the at-least-k binomial tail. Lower bound for any linear
    erasure code.
    """
    tail_k = _tail_walk(query.k, query.s, query.p)

    def completion(m: int) -> float:
        a = next(tail_k)
        return a * a * a

    return _survival_series(query, completion)


def retransmission_ratio(expected_tx: float, k: int) -> float:
    """Transmissions per input packet, >= 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if expected_tx < k:
        raise ValueError(f"expected transmissions {expected_tx} below k={k}")
    return expected_tx / k
