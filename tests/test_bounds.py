from fractions import Fraction
from itertools import count, islice, product
from math import fsum

import numpy as np
import pytest
from scipy.stats import binom

from xorcast import bounds, markov, sim
from xorcast.bounds import (
    BoundQuery,
    expected_delta,
    expected_ell,
    mds_expected,
    p_delta,
    retransmission_ratio,
)


def d1(m, q):
    """P[one client holds at least k receptions after m transmissions]."""
    return binom.sf(q.k - 1, m, q.s)


def d2(m, q):
    """P[one client holds at least k+1 receptions after m transmissions]."""
    return binom.sf(q.k, m, q.s)


def walked(m, q):
    """(L_k(m), L_{k+1}(m)), L_j(m) = P[Bin(m, s) < j], from the series' forward walk."""
    return next(islice(bounds._lower_tails(q.k, q.s, q.p), m, None))


def exact_reception_mean(targets, p):
    """The reception-count recurrence in exact arithmetic, one state at a time.

    mu(j) = (1 + sum_S a_S mu(j + e_S)) / sum_S a_S over the nonempty sets S of
    clients still short of their target, a_S = s^|S| p^(|U| - |S|).
    """
    p = Fraction(p)
    s = 1 - p
    mu = {}
    for j in sorted(product(*(range(t + 1) for t in targets)), key=sum, reverse=True):
        short = [c for c in range(3) if j[c] < targets[c]]
        num, den = Fraction(1), Fraction(0)
        for r in range(1, 1 << len(short)):
            hit = [c for i, c in enumerate(short) if r >> i & 1]
            a = s ** len(hit) * p ** (len(short) - len(hit))
            num += a * mu[tuple(x + (c in hit) for c, x in enumerate(j))]
            den += a
        mu[j] = num / den if short else Fraction(0)
    return mu[(0, 0, 0)]


class TestPDelta:
    def test_lossless(self):
        assert p_delta(1, 0.0) == pytest.approx(1.0)

    def test_p_half(self):
        assert p_delta(1, 0.5) == pytest.approx(0.5)
        assert p_delta(2, 0.5) == pytest.approx(0.0625)

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            p_delta(0, 0.5)
        with pytest.raises(ValueError):
            p_delta(1, 1.0)

    def test_total_mass(self):
        # the beta >= 1 mass is s/(1 - s p^2); the remainder is the event
        # that the lagging client never receives redundantly before the
        # stuck phase resolves
        for p in [i / 20 for i in range(20)]:
            s = 1.0 - p
            total, beta = 0.0, 1
            while True:
                term = p_delta(beta, p)
                total += term
                beta += 1
                if term < 1e-16:
                    break
            assert total == pytest.approx(s / (1.0 - s * p * p), abs=1e-9)


class TestExpectedDelta:
    def test_endpoints(self):
        assert expected_delta(0.0) == pytest.approx(1.0)
        assert expected_delta(0.5) == pytest.approx(32 / 49)

    def test_in_unit_interval(self):
        for i in range(100):
            p = i / 100
            val = expected_delta(p)
            assert 0.0 < val <= 1.0

    def test_series_matches_closed_form(self):
        for i in range(0, 100, 3):
            p = i / 100
            total, beta = 0.0, 1
            while True:
                term = beta * p_delta(beta, p)
                total += term
                beta += 1
                if term < 1e-15 and beta > 4:
                    break
            assert total == pytest.approx(expected_delta(p), abs=1e-9)


class TestBinomialTails:
    # the lower tails the series walks, against their definition and scipy
    def test_examples_k2_p05(self):
        q = BoundQuery(k=2, p=0.5)
        assert walked(2, q) == (0.75, 1.0)
        assert walked(3, q) == (0.5, 0.875)

    def test_below_k_is_zero(self):
        q = BoundQuery(k=4, p=0.3)
        assert walked(3, q) == (1.0, 1.0)
        assert walked(4, q)[1] == 1.0

    def test_lossless(self):
        q = BoundQuery(k=5, p=0.0)
        assert walked(5, q) == (0.0, 1.0)
        assert walked(6, q) == (0.0, 0.0)

    def test_monotone_and_ordered(self):
        q = BoundQuery(k=3, p=0.4)
        prev1 = prev2 = 1.0
        for low1, low2 in islice(bounds._lower_tails(q.k, q.s, q.p), 60):
            assert low1 <= prev1 + 1e-15
            assert low2 <= prev2 + 1e-15
            assert low1 <= low2 + 1e-15
            prev1, prev2 = low1, low2
        assert prev1 < 1e-9 and prev2 < 1e-9

    def test_against_scipy(self, rng):
        for _ in range(500):
            m = rng.randrange(0, 300)
            k = rng.randrange(1, 30)
            p = rng.random() * 0.95
            q = BoundQuery(k=k, p=p)
            low1, low2 = walked(m, q)
            assert low1 == pytest.approx(1.0 - d1(m, q), abs=1e-11)
            assert low2 == pytest.approx(1.0 - d2(m, q), abs=1e-11)

    def test_large_m_stability(self):
        assert walked(10_000, BoundQuery(k=5, p=0.5))[0] == 0.0
        assert walked(10_000, BoundQuery(k=5, p=0.9))[0] == pytest.approx(0.0, abs=1e-12)
        # far below the mean each tail keeps its relative precision
        deep = walked(400, BoundQuery(k=30, p=0.5))[0]
        assert deep == pytest.approx(binom.cdf(29, 400, 0.5), rel=1e-10)


class TestExpectedEll:
    def test_lossless(self):
        assert expected_ell(BoundQuery(k=3, p=0.0)) == pytest.approx(4.0)
        assert expected_ell(BoundQuery(k=2, p=0.0)) == pytest.approx(3.0)

    def test_at_least_k_plus_one(self):
        for k in (2, 3, 8):
            for p in (0.1, 0.5, 0.9):
                assert expected_ell(BoundQuery(k=k, p=p)) >= k + 1

    def test_split_form_identity(self):
        # sum_{m>=0} (1 - D(m)) equals k+1 + sum_{m>k} (1 - D(m)) because the
        # first k+1 completion probabilities vanish
        for k, p in [(2, 0.3), (3, 0.5), (5, 0.7)]:
            q = BoundQuery(k=k, p=p)
            for m in range(0, k + 1):
                assert d1(m, q) ** 2 * d2(m, q) == 0.0
            tail = 0.0
            m = k + 1
            while True:
                term = 1.0 - d1(m, q) ** 2 * d2(m, q)
                if term < 1e-14:
                    break
                tail += term
                m += 1
            assert expected_ell(q) == pytest.approx(k + 1 + tail, abs=1e-7)

    def test_matches_schedule_simulation(self):
        # two clients collect k receptions, one collects k+1; compare the
        # closed form against the Monte Carlo of exactly that schedule
        q = BoundQuery(k=8, p=0.5)
        cfg = sim.ExperimentConfig(k=8, p=0.5, policy="bound", trials=200_000,
                                   master_seed=31337)
        res = sim.run_experiment(cfg)
        assert abs(res.mean_tx - expected_ell(q)) <= 3 * res.stderr


class TestMdsExpected:
    def test_lossless(self):
        assert mds_expected(BoundQuery(k=2, p=0.0)) == pytest.approx(2.0)
        assert mds_expected(BoundQuery(k=3, p=0.0)) == pytest.approx(3.0)

    def test_at_least_k(self):
        for k in (2, 3, 16):
            for p in (0.1, 0.5, 0.9):
                assert mds_expected(BoundQuery(k=k, p=p)) >= k

    def test_matches_ideal_code_simulation(self):
        q = BoundQuery(k=3, p=0.5)
        cfg = sim.ExperimentConfig(k=3, p=0.5, policy="mds", trials=200_000,
                                   master_seed=2718)
        res = sim.run_experiment(cfg)
        assert abs(res.mean_tx - mds_expected(q)) <= 3 * res.stderr

    def test_single_client_negative_binomial(self):
        # with one client the order statistic degenerates: compare against
        # the exact mean k/s of the k-th reception time, via a 1-client
        # variant of the same series
        k, p = 4, 0.35
        q = BoundQuery(k=k, p=p)
        total, m = 0.0, 0
        while True:
            term = 1.0 - d1(m, q)
            if term < 1e-14 and m > k:
                break
            total += term
            m += 1
        assert total == pytest.approx(k / (1 - p), abs=1e-9)


class TestOrderingAndGaps:
    def test_mds_below_ell(self):
        for k in (2, 3, 8, 16):
            for p in (0.05, 0.25, 0.5, 0.75, 0.9):
                q = BoundQuery(k=k, p=p)
                assert mds_expected(q) <= expected_ell(q)

    def test_gap_small_at_moderate_loss(self):
        # the schedule bound costs less than one extra transmission while
        # losses are moderate; at heavy loss the extra reception is amplified
        # by the order statistics (measured: 1.10 at p=0.5, 2.15 at p=0.75
        # for k=2)
        for k in (2, 3):
            for p in (0.1, 0.25):
                q = BoundQuery(k=k, p=p)
                assert expected_ell(q) - mds_expected(q) <= 1.0
            for p in (0.5, 0.75):
                q = BoundQuery(k=k, p=p)
                assert 0.0 <= expected_ell(q) - mds_expected(q) <= 2.5


class TestRetransmissionRatio:
    def test_values(self):
        assert retransmission_ratio(2.0, 2) == pytest.approx(1.0)
        assert retransmission_ratio(4.0, 3) == pytest.approx(4 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            retransmission_ratio(1.5, 2)
        with pytest.raises(ValueError):
            retransmission_ratio(1.0, 0)


class TestBoundQuery:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundQuery(k=0, p=0.5)
        with pytest.raises(ValueError):
            BoundQuery(k=2, p=1.0)

    def test_s(self):
        assert BoundQuery(k=2, p=0.25).s == pytest.approx(0.75)

    @pytest.mark.parametrize("k", [5.0, 5.5, True, "5", None])
    def test_non_integer_k_refused(self, k):
        # k = 5.0 used to fail with a TypeError inside the series
        with pytest.raises(ValueError, match="k must be an integer"):
            BoundQuery(k=k, p=0.5)

    def test_numpy_integer_k_is_an_int(self):
        q = BoundQuery(k=np.int64(5), p=0.5)
        assert type(q.k) is int and q == BoundQuery(k=5, p=0.5)
        assert expected_ell(q) == expected_ell(BoundQuery(k=5, p=0.5))


def _per_m_series(q, completion):
    # the direct method: every tail taken from scipy, 4096 values of m at a time,
    # summed by fsum up to the first term below 1e-16 past m = k, no tail estimate
    terms = []
    for lo in count(0, 4096):
        ms = np.arange(lo, lo + 4096)
        block = 1.0 - completion(d1(ms, q), d2(ms, q))
        stop = np.flatnonzero((block < 1e-16) & (ms > q.k))
        if stop.size:
            return fsum(terms + block[:stop[0]].tolist())
        terms += block.tolist()


@pytest.mark.parametrize("k, p", [(k, p) for k in (1, 2, 3, 8, 32)
                                  for p in (0.0, 0.1, 0.5, 0.9)] + [(8, 0.99), (32, 0.99)])
def test_tail_walk_matches_per_m_series(k, p):
    q = BoundQuery(k=k, p=p)
    assert expected_ell(q) == pytest.approx(_per_m_series(q, lambda a, b: a * a * b),
                                            rel=1e-12)
    assert mds_expected(q) == pytest.approx(_per_m_series(q, lambda a, b: a * a * a),
                                            rel=1e-12)
    if p == 0.0:
        assert expected_ell(q) == k + 1 and mds_expected(q) == k


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 0.99, 0.999])
def test_mds_k1_closed_form(p):
    # k=1: the maximum of three geometric reception times
    closed = 3 / (1 - p) - 3 / (1 - p**2) + 1 / (1 - p**3)
    assert mds_expected(BoundQuery(k=1, p=p)) == pytest.approx(closed, rel=1e-9)


def test_pinned_values_k32_p0995():
    q = BoundQuery(k=32, p=0.995)
    assert expected_ell(q) == pytest.approx(7446.422650, abs=1e-6)
    assert mds_expected(q) == pytest.approx(7369.630291, abs=1e-6)


def test_converges_where_a_full_walk_stalls():
    # a plain running sum of T(m) for every m drifts near 1 by up to M ulps and
    # holds 1 - T above the truncation tolerance; the value is an
    # extended-precision sum rounded to 6 decimals, which the chain reproduces
    assert mds_expected(BoundQuery(k=63, p=0.9999)) == pytest.approx(697952.993607, abs=1e-6)


def test_pinned_values_k63_p0999():
    q = BoundQuery(k=63, p=0.999)
    assert expected_ell(q) == pytest.approx(70161.529587, abs=1e-6)
    assert mds_expected(q) == pytest.approx(69792.240487, abs=1e-6)


def test_series_additions_stay_linear(monkeypatch):
    # deterministic operation count: one tail step per term, about 880 per series
    # here; summing each m's binomial tails afresh would make k = 32 times as many
    steps = [0]
    walk = bounds._lower_tails

    def counting_walk(k, s, p):
        for tails in walk(k, s, p):
            steps[0] += 1
            yield tails

    monkeypatch.setattr(bounds, "_lower_tails", counting_walk)
    q = BoundQuery(k=32, p=0.9)
    expected_ell(q)
    mds_expected(q)
    assert 0 < steps[0] < 4_000


@pytest.mark.parametrize("k, p", [(1, 0.5), (2, 0.5), (2, 0.999999), (3, 0.25), (5, 0.9),
                                  (5, 0.999), (8, 0.5), (8, 0.999)])
def test_reception_chain_matches_exact_recurrence(k, p):
    # the float chain against the same recurrence in exact arithmetic at the
    # float's own rational value: within 1e-15, plus half an ulp per level on
    # the longer chains; the series' truncation leaves about 1e-13
    q = BoundQuery(k=k, p=p)
    for extra, series in ((1, expected_ell), (0, mds_expected)):
        targets = (k, k, k + extra)
        exact = exact_reception_mean(targets, p)
        chain = bounds._reception_chain(targets, p)
        assert abs(Fraction(chain) - exact) <= exact * Fraction(max(1e-15, sum(targets) * 2**-53))
        if k / q.s <= bounds._CHAIN_CROSSOVER * (k + 1) * (k + 2):
            assert abs(Fraction(series(q)) - exact) <= exact * Fraction(1, 10**12)


def test_exact_rationals_k2_p_half():
    assert exact_reception_mean((2, 2, 3), Fraction(1, 2)) == Fraction(3084454, 453789)
    assert exact_reception_mean((2, 2, 2), Fraction(1, 2)) == Fraction(123100, 21609)


RATIONAL_P = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))


@pytest.mark.parametrize("k, grid", [(2, RATIONAL_P), (3, RATIONAL_P), (4, RATIONAL_P[1:3])])
def test_ell_bounds_exact_greedy(k, grid):
    # E[l] is an upper bound on greedy: exact on both sides, hand chains at
    # k = 2, 3 and the joint-state chain at k = 4
    for p in grid:
        greedy = (markov.expected_absorption_time(markov.build_chain(k), p) if k <= 3
                  else markov.absorption_time_fine(markov.build_fine_chain(k), p))
        assert exact_reception_mean((k, k, k + 1), p) >= greedy, p
