"""Closed-form transmission bounds for 3-client XOR multicast.

Upper bound: once the network can get stuck, at worst one client must collect
k+1 codewords while the other two collect k; the expected number of
transmissions for that reception schedule is an order-statistic sum over
binomial tails. Lower bound: an ideal code where every delivery is innovative
for every client, so each client needs exactly k receptions.

Both are E[max(T_1, T_2, T_3)] for independent negative-binomial reception
times, computed one of two ways. The series sums survival probabilities built
from the lower binomial tails L_j(m) = P[Bin(m, s) < j], j = 1..k+1, walked
forward in m by L_j(m+1) = p L_j(m) + s L_{j-1}(m) (L_0 = 0, L_j(0) = 1):
every step adds nonnegative products, so each tail keeps its relative
precision on both sides of the mean, at O(k) per term. It is truncated once
its summand drops below _TAIL_EPSILON, closed with a geometric tail estimate
and summed correctly rounded by math.fsum; reported values are good to 6
decimal places. The series runs to about k/s terms, so near p = 1 the
reception-count chain takes over: one backward pass over the (k+1)^2 (k+2)
reception-count states, whatever p is.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from numbers import Rational, Real
from operator import index

_TAIL_EPSILON = 1e-12  # series truncation tolerance
# The chain replaces the series, of about k/s terms, where k/s exceeds this many
# times (k+1)(k+2): the two took equal time at 0.43-0.86 times it for k = 2..63.
_CHAIN_CROSSOVER = 0.5


def _as_int(name: str, value) -> int:  # any type with __index__ but bool, numpy's too
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return index(value)


def _check_loss(p: float) -> float:  # any Real but bool, as a float unless Rational
    if isinstance(p, bool) or not isinstance(p, Real):
        raise ValueError(f"loss probability must be a real number, got {p!r}")
    if not 0.0 <= p < 1.0:
        raise ValueError(f"loss probability must satisfy 0 <= p < 1, got {p}")
    return p if isinstance(p, Rational) else float(p)


@dataclass(frozen=True)
class BoundQuery:
    """Evaluation point: k packets, loss probability p."""

    k: int
    p: float

    def __post_init__(self):
        object.__setattr__(self, "k", _as_int("k", self.k))
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        object.__setattr__(self, "p", _check_loss(self.p))

    @property
    def s(self) -> float:
        return 1.0 - self.p


def p_delta(beta: int, p: float) -> float:
    """Probability the lagging client collects exactly beta redundant codewords.

    Applies once the network is stuck at ranks (k-1, k-1, k-1) with no
    codeword innovative for all three: each transmission reaches the laggard
    redundantly with probability s*p^2 while the stuck phase persists.
    """
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    p = _check_loss(p)
    s = 1.0 - p
    stay_and_receive = s * p * p
    return stay_and_receive ** (beta - 1) * (s * p * p + 2 * s * s * p + s**3)


def expected_delta(p: float) -> float:
    """Expected redundant codewords at the lagging client; in (0, 1] for p < 1."""
    p = _check_loss(p)
    s = 1.0 - p
    numerator = s * p * p + 2 * s * s * p + s**3
    return numerator / (1.0 - s * p * p) ** 2


def _lower_tails(k: int, s: float, p: float):
    """Yield (L_k(m), L_{k+1}(m)) for m = 0, 1, 2, ..., where L_j(m) = P[Bin(m, s) < j]."""
    low = [1.0] * (k + 1)  # L_1(m) .. L_{k+1}(m); L_0 = 0
    while True:
        yield low[k - 1], low[k]
        low = [p * a + s * b for a, b in zip(low, [0.0] + low)]


def _reception_chain(targets: tuple[int, int, int], p: float) -> float:
    """Expected transmissions until each client c holds targets[c] receptions.

    First-step analysis on the reception counts j: with U the clients still
    short of their target and a_S = s^|S| p^(|U|-|S|) the chance that exactly
    the clients in S receive,
        mu(j) = (1 + sum_S a_S mu(j + e_S)) / sum_S a_S,  over nonempty S in U.
    Every move raises the level j1 + j2 + j3, so one numpy pass per level, from
    the top down, solves the chain. A level is a (j1, j2) grid, j3 being implied,
    and only the last four levels are kept. The denominator is the correctly
    rounded sum of the very weights the numerator uses: 1 - p^|U| loses digits
    near p = 1, and any mismatch compounds over the levels.
    """
    import numpy as np  # only this chain needs numpy; the series and the package load none
    s = 1.0 - p
    t1, t2, t3 = targets
    # weight[S][U] for receiving set S and unfinished set U, both 3-bit masks
    weight = np.array([[s ** S.bit_count() * p ** (u.bit_count() - S.bit_count())
                        if S and S & u == S else 0.0 for u in range(8)] for S in range(8)])
    total = np.array([fsum(column) for column in weight.T])
    j1, j2 = np.ogrid[:t1 + 1, :t2 + 1]
    short12, held12 = (j1 < t1) + 2 * (j2 < t2), j1 + j2
    # mu of level L at ring[L % 4]; the padding and the cells whose implied j3 is
    # out of range stay finite and are read only at zero weight
    ring = np.zeros((4, t1 + 2, t2 + 2))
    for level in range(t1 + t2 + t3 - 1, -1, -1):  # mu = 0 at the top level, the target
        u = short12 + 4 * (held12 > level - t3)
        acc = 0.0
        for S in range(1, 8):
            a, b = S & 1, S >> 1 & 1
            acc = acc + weight[S][u] * ring[(level + S.bit_count()) % 4, a:a + t1 + 1, b:b + t2 + 1]
        ring[level % 4, :t1 + 1, :t2 + 1] = (1.0 + acc) / total[u]
    return float(ring[0, 0, 0])


def _expected_max(query: BoundQuery, extra: int, survival) -> float:
    """E[max(T_1, T_2, T_3)] for targets (k, k, k + extra): the fsum of
    survival(L_k(m), L_{k+1}(m)) over m, or the chain where that is faster.

    The terms never rise and fall to 0. The first one below _TAIL_EPSILON past
    m = k ends the series, which the next term's ratio closes as a geometric tail.
    """
    k, s, p = query.k, query.s, query.p
    if k / s > _CHAIN_CROSSOVER * (k + 1) * (k + 2):
        return _reception_chain((k, k, k + extra), p)
    tails = _lower_tails(k, s, p)
    terms = []
    for m, (x, y) in enumerate(tails):
        term = survival(x, y)
        if term < _TAIL_EPSILON and m > k:
            nxt = survival(*next(tails))
            if 0.0 < nxt < term:
                rho = nxt / term
                terms.append(term * rho / (1.0 - rho))
            return fsum(terms)
        terms.append(term)


def expected_ell(query: BoundQuery) -> float:
    """Expected transmissions until two clients reach k receptions and one k+1.

    This is the upper bound on the exact greedy transmission count. With
    x = L_k(m) and y = L_{k+1}(m) the completion probability after m
    transmissions is (1-x)^2 (1-y), and the expectation is the sum of the
    survival probabilities 1 - (1-x)^2 (1-y) = x(2-x) + y(1-x)^2. The first
    k+1 terms are exactly 1.
    """
    return _expected_max(query, 1, lambda x, y: x * (2.0 - x) + y * (1.0 - x) ** 2)


def mds_expected(query: BoundQuery) -> float:
    """Expected transmissions when every delivery is innovative for every client.

    Each client then needs exactly k receptions, so the survival probability
    after m transmissions is 1 - (1-x)^3 = x(3 - 3x + x^2) with x = L_k(m).
    Lower bound for any linear erasure code.
    """
    return _expected_max(query, 0, lambda x, y: x * (3.0 - 3.0 * x + x * x))


def retransmission_ratio(expected_tx: float, k: int) -> float:
    """Transmissions per input packet, >= 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if expected_tx < k:
        raise ValueError(f"expected transmissions {expected_tx} below k={k}")
    return expected_tx / k
