"""Closed-form transmission bounds for 3-client XOR multicast.

Upper bound: once the network can get stuck, at worst one client must collect
k+1 codewords while the other two collect k; the expected number of
transmissions for that reception schedule is an order-statistic sum over
binomial tails. Lower bound: an ideal code where every delivery is innovative
for every client, so each client needs exactly k receptions.

Both series sum survival probabilities built from the lower binomial tails
L_j(m) = P[Bin(m, s) < j], j = 1..k+1, walked forward in m by
L_j(m+1) = p L_j(m) + s L_{j-1}(m) (L_0 = 0, L_j(0) = 1): every step adds
nonnegative products, so each tail keeps its relative precision on both sides
of the mean, at O(k) per term. A sum is truncated once its summand drops below
_TAIL_EPSILON and closed with a geometric tail estimate; reported values are
good to 6 decimal places. A series whose summand at m = _MAX_TERMS is still
above _TAIL_EPSILON raises SeriesLimitError before its first term.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma, log, ulp

_MAX_TERMS = 10_000_000
_TAIL_EPSILON = 1e-12  # series truncation tolerance


class SeriesLimitError(RuntimeError):
    """A bound series needs more than _MAX_TERMS terms to converge."""


def _check_loss(p: float) -> None:
    if not 0.0 <= p < 1.0:
        raise ValueError(f"loss probability must satisfy 0 <= p < 1, got {p}")


@dataclass(frozen=True)
class BoundQuery:
    """Evaluation point: k packets, loss probability p."""

    k: int
    p: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        _check_loss(self.p)

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
        shrink = (m - j) / (j + 1) * ratio  # below 1 here, and falling in j
        term *= shrink
        if term <= ulp(acc.total) / 2 * (1 - shrink):  # the rest sums to under term / (1 - shrink)
            break
    return min(1.0, max(0.0, acc.total))


def _lower_tails(k: int, s: float, p: float):
    """Yield (L_k(m), L_{k+1}(m)) for m = 0, 1, 2, ..., where L_j(m) = P[Bin(m, s) < j]."""
    low = [1.0] * (k + 1)  # L_1(m) .. L_{k+1}(m); L_0 = 0
    while True:
        yield low[k - 1], low[k]
        low = [p * a + s * b for a, b in zip(low, [0.0] + low)]


def _survival_series(query: BoundQuery, survival) -> float:
    """Sum_{m=0}^inf survival(m) with a geometric tail estimate.

    survival(m), called for m = 0, 1, 2, ... in order, never rises and falls to 0.
    """
    acc = _KahanSum()
    m = 0
    while True:
        term = survival(m)
        if term < _TAIL_EPSILON and m > query.k:
            nxt = survival(m + 1)
            if 0.0 < nxt < term:
                rho = nxt / term
                acc.add(term * rho / (1.0 - rho))
            break
        acc.add(term)
        m += 1
        if m > _MAX_TERMS:
            raise SeriesLimitError(_limit_message(query))
    return acc.total


def _limit_message(query: BoundQuery) -> str:
    return f"series needs more than {_MAX_TERMS} terms (k={query.k}, p={query.p})"


def _tail_series(query: BoundQuery, survival) -> float:
    """Sum_m survival(L_k(m), L_{k+1}(m)); raise up front if that cannot converge.

    The summand never rises with m, so the series stops within _MAX_TERMS terms
    iff its value at M = _MAX_TERMS is below _TAIL_EPSILON. Where k > (M+1)s the
    mode of Bin(M, s) is below k, so the summand is at least P[mode] >= 1/(M+1).
    """
    k, s, p, big_m = query.k, query.s, query.p, _MAX_TERMS
    if p > 0.0:  # x = 1 stands in for a summand >= 1/(M+1) > _TAIL_EPSILON
        x = 1.0 - _binom_tail(big_m, k, s, p) if k <= (big_m + 1) * s else 1.0
        if survival(x, x + exp(_log_binom_term(big_m, k, s, p))) >= _TAIL_EPSILON:
            raise SeriesLimitError(_limit_message(query))
    tails = _lower_tails(k, s, p)
    return _survival_series(query, lambda m: survival(*next(tails)))


def expected_ell(query: BoundQuery) -> float:
    """Expected transmissions until two clients reach k receptions and one k+1.

    This is the upper bound on the exact greedy transmission count. With
    x = L_k(m) and y = L_{k+1}(m) the completion probability after m
    transmissions is (1-x)^2 (1-y), and the expectation is the sum of the
    survival probabilities 1 - (1-x)^2 (1-y) = x(2-x) + y(1-x)^2. The first
    k+1 terms are exactly 1.
    """
    return _tail_series(query, lambda x, y: x * (2.0 - x) + y * (1.0 - x) ** 2)


def mds_expected(query: BoundQuery) -> float:
    """Expected transmissions when every delivery is innovative for every client.

    Each client then needs exactly k receptions, so the survival probability
    after m transmissions is 1 - (1-x)^3 = x(3 - 3x + x^2) with x = L_k(m).
    Lower bound for any linear erasure code.
    """
    return _tail_series(query, lambda x, y: x * (3.0 - 3.0 * x + x * x))


def retransmission_ratio(expected_tx: float, k: int) -> float:
    """Transmissions per input packet, >= 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if expected_tx < k:
        raise ValueError(f"expected transmissions {expected_tx} below k={k}")
    return expected_tx / k
