import pytest
from scipy.stats import binom

from xorcast import bounds, sim
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
    return bounds._binom_tail(m, q.k, q.s, q.p)


def d2(m, q):
    """P[one client holds at least k+1 receptions after m transmissions]."""
    return bounds._binom_tail(m, q.k + 1, q.s, q.p)


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
    def test_examples_k2_p05(self):
        q = BoundQuery(k=2, p=0.5)
        assert d1(2, q) == pytest.approx(0.25)
        assert d1(3, q) == pytest.approx(0.5)
        assert d2(3, q) == pytest.approx(0.125)
        assert d2(2, q) == 0.0

    def test_below_k_is_zero(self):
        q = BoundQuery(k=4, p=0.3)
        assert d1(3, q) == 0.0
        assert d2(4, q) == 0.0

    def test_lossless(self):
        q = BoundQuery(k=5, p=0.0)
        assert d1(5, q) == 1.0
        assert d2(5, q) == 0.0
        assert d2(6, q) == 1.0

    def test_monotone_and_ordered(self):
        q = BoundQuery(k=3, p=0.4)
        prev1 = prev2 = 0.0
        for m in range(0, 60):
            v1, v2 = d1(m, q), d2(m, q)
            assert v1 >= prev1 - 1e-15
            assert v2 >= prev2 - 1e-15
            assert v2 <= v1 + 1e-15
            prev1, prev2 = v1, v2
        assert prev1 > 1 - 1e-9 and prev2 > 1 - 1e-9

    def test_against_scipy(self, rng):
        for _ in range(500):
            m = rng.randrange(0, 300)
            k = rng.randrange(1, 30)
            p = rng.random() * 0.95
            q = BoundQuery(k=k, p=p)
            assert d1(m, q) == pytest.approx(binom.sf(k - 1, m, 1 - p), abs=1e-11)
            assert d2(m, q) == pytest.approx(binom.sf(k, m, 1 - p), abs=1e-11)

    def test_large_m_stability(self):
        assert d1(10_000, BoundQuery(k=5, p=0.5)) == 1.0
        assert d1(10_000, BoundQuery(k=5, p=0.9)) == pytest.approx(1.0, abs=1e-12)
        deep = d1(40, BoundQuery(k=30, p=0.9))
        assert deep == pytest.approx(binom.sf(29, 40, 0.1), rel=1e-10)

    def test_far_upper_tail_stops_early(self):
        # j0 = 63 lies far above the mean m*s = 50, so the terms fall geometrically
        # and the sum stops once they no longer move it: summing all 10^7 terms
        # gave this value too, in seconds
        assert bounds._binom_tail(10**7, 63, 5e-6, 1 - 5e-6) == pytest.approx(
            0.04239053604998377, rel=1e-15)


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


def test_kahan_sum_precision():
    acc = bounds._KahanSum()
    for _ in range(100_000):
        acc.add(1e-10)
    assert acc.total == pytest.approx(1e-5, rel=1e-12)


def test_survival_series_guard(monkeypatch):
    # a survival probability stuck at 1 must hit the iteration guard
    monkeypatch.setattr(bounds, "_MAX_TERMS", 1000)
    q = BoundQuery(k=1, p=0.5)
    with pytest.raises(RuntimeError):
        bounds._survival_series(q, lambda m: 1.0)


def _per_m_series(q, completion):
    # the direct method: every tail recomputed by _binom_tail
    return bounds._survival_series(q, lambda m: 1.0 - completion(d1(m, q), d2(m, q)))


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
    # a plain running sum of T(m) for every m drifts near 1 by up to M ulps,
    # holds 1 - T above the truncation tolerance and ran this series to the
    # term cap; the value is an extended-precision sum rounded to 6 decimals
    assert mds_expected(BoundQuery(k=63, p=0.9999)) == pytest.approx(697952.993607, abs=1e-6)


def test_pinned_values_k63_p0999():
    q = BoundQuery(k=63, p=0.999)
    assert expected_ell(q) == pytest.approx(70161.529587, abs=1e-6)
    assert mds_expected(q) == pytest.approx(69792.240487, abs=1e-6)


@pytest.mark.parametrize("series", [expected_ell, mds_expected])
def test_series_terms_never_call_binom_tail(monkeypatch, series):
    # the tails come from one forward recurrence; only the up-front cap check
    # may evaluate a binomial tail directly
    calls = []
    tail = bounds._binom_tail
    monkeypatch.setattr(bounds, "_binom_tail", lambda *a: calls.append(a) or tail(*a))
    series(BoundQuery(k=32, p=0.99))
    assert len(calls) <= 1


def test_series_additions_stay_linear(monkeypatch):
    # deterministic operation count: the per-m tail sums made 15.96 M
    # additions here, the forward walk about 0.6 M
    calls = [0]
    add = bounds._KahanSum.add

    def counting_add(self, x):
        calls[0] += 1
        add(self, x)

    monkeypatch.setattr(bounds._KahanSum, "add", counting_add)
    q = BoundQuery(k=32, p=0.99)
    expected_ell(q)
    mds_expected(q)
    assert calls[0] < 1_000_000


@pytest.fixture
def walked(monkeypatch):
    """Every (L_k, L_{k+1}) pair the series walk yields, in order."""
    seen = []
    walk = bounds._lower_tails

    def recording_walk(*args):
        for tails in walk(*args):
            seen.append(tails)
            yield tails

    monkeypatch.setattr(bounds, "_lower_tails", recording_walk)
    return seen


def test_series_term_limit_raised_up_front(walked):
    # the summand never rises with m and is still above the truncation
    # tolerance at m = _MAX_TERMS, so each series must raise before it walks
    # its tails to a single term
    for k, p in [(2, 0.999999), (63, 0.99999), (63, 0.999995)]:
        for series in (expected_ell, mds_expected):
            with pytest.raises(bounds.SeriesLimitError):
                series(BoundQuery(k=k, p=p))
            assert not walked, (k, p, series.__name__)


@pytest.mark.parametrize("series", [expected_ell, mds_expected])
def test_series_term_limit_is_exact(monkeypatch, walked, series):
    # the up-front test raises for exactly the caps below the stopping term
    q = BoundQuery(k=3, p=0.7)
    series(q)
    stop = len(walked) - 2  # the walk also yields the term after the stop
    for cap in range(q.k + 1, stop + 4):
        monkeypatch.setattr(bounds, "_MAX_TERMS", cap)
        walked.clear()
        if cap < stop:
            with pytest.raises(bounds.SeriesLimitError):
                series(q)
            assert not walked, cap
        else:
            series(q)
