import hashlib
from fractions import Fraction

import pytest

from xorcast import markov
from xorcast.markov import (
    MarkovChainSpec,
    SolverError,
    TransitionPoly,
    absorption_time_fine,
    build_chain,
    build_fine_chain,
    check_conservation,
    expected_absorption_time,
    row_sum_coeffs,
)

from conftest import run_measuring_peak

# Absorption time of the joint-state chain at k=2, p=0.5, computed once from
# the breadth-first closure and frozen here as the oracle value.
FINE_K2_P05 = 5.707806932296728

RATIONAL_P = (Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10))

# Exact E[t_x] at p = 1/2 from the reverse pass in rational arithmetic.
EXACT_P05 = {2: Fraction(17620, 3087), 3: Fraction(180313870, 22235661)}

# SHA-256 of repr((states, choices, mask_successors, transitions)) of each fine
# chain, pinned from a closure over RREF rows with an exhaustive codeword scan.
FINE_CHAIN_SHA256 = {
    (1, "smallest"): "c0a8db00245c152ebb54239b06c0ac62fd4cef89bb167623d288d874451d2dd6",
    (2, "smallest"): "ef79d154b65411b09b095520ca4c7eb17739066e1f64a7144d23af9f96c7fc9e",
    (3, "smallest"): "fdfda2d760a4b8c8dc92fb95145119bded3a5829291f9f4b241f5a23ddf9794f",
    (4, "smallest"): "eda46dac17a6d2668082dcc2b6879b0886feb2e33d1e9d801873864960de5c98",
    (1, "largest"): "c0a8db00245c152ebb54239b06c0ac62fd4cef89bb167623d288d874451d2dd6",
    (2, "largest"): "ebb87a9be09ff55b627ad1494b59cebd5251da550bef21c50b378e09487ff8a2",
    (3, "largest"): "259cdd7f3099a303002f77092be44f0b480cc4e3b73f3d3b79eb152695523c36",
    (4, "largest"): "2b3fefe417a6a79d989f1ca795fbce691c7e44500c435c82f89d3e26d133d2c2",
}


class TestTransitionPoly:
    def test_parse_plain(self):
        poly = TransitionPoly.parse("3s2p")
        assert poly.monomials == ((3, 2, 1),)
        assert poly.evaluate(0.25) == pytest.approx(3 * 0.75**2 * 0.25)

    def test_parse_sum(self):
        poly = TransitionPoly.parse("p3+sp2")
        assert set(poly.monomials) == {(1, 0, 3), (1, 1, 2)}

    def test_parse_s_plus_p_factor(self):
        poly = TransitionPoly.parse("p2(s+p)")
        assert set(poly.monomials) == {(1, 1, 2), (1, 0, 3)}
        # under s = 1-p the factor is 1, so the entry is just p^2
        assert poly.evaluate(0.3) == pytest.approx(0.09)

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            TransitionPoly.parse("2x")
        with pytest.raises(ValueError):
            TransitionPoly.parse("")

    def test_coeffs_in_s(self):
        # p^2 = (1-s)^2 = 1 - 2s + s^2
        assert TransitionPoly.parse("p2").coeffs_in_s() == [1, -2, 1]
        assert TransitionPoly.parse("s3").coeffs_in_s() == [0, 0, 0, 1]


class TestAggregatedChains:
    def test_shapes(self):
        assert build_chain(2).n_states == 12
        assert build_chain(3).n_states == 29
        assert build_chain(2).absorbing_index == 11
        assert build_chain(3).absorbing_index == 28

    def test_unsupported_k(self):
        for k in (1, 4, 5):
            with pytest.raises(ValueError):
                build_chain(k)

    def test_k2_first_row(self):
        row = build_chain(2).transitions[0]
        entry = [row.get(j, TransitionPoly.zero()) for j in range(12)]
        assert entry[0].monomials == ((1, 0, 3),)   # p^3
        assert entry[1].monomials == ((3, 1, 2),)   # 3sp^2
        assert entry[2].monomials == ((3, 2, 1),)   # 3s^2p
        assert entry[5].monomials == ((1, 3, 0),)   # s^3
        assert all(not entry[j].monomials for j in (3, 4, 6, 7, 8, 9, 10, 11))

    def test_k3_stuck_state_self_loop(self):
        chain = build_chain(3)
        entry = chain.transitions[24].get(24, TransitionPoly.zero())
        assert set(entry.monomials) == {(1, 1, 2), (1, 0, 3)}  # p^2(s+p)
        assert entry.evaluate(0.3) == pytest.approx(0.09)

    def test_numeric_row_sums(self):
        for k in (2, 3):
            chain = build_chain(k)
            for i in range(chain.n_states):
                total = sum(e.evaluate(0.3) for e in chain.transitions[i].values())
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_exact_conservation(self):
        for k in (2, 3):
            chain = build_chain(k)
            check_conservation(chain)
            for i in range(chain.n_states):
                coeffs = row_sum_coeffs(chain, i)
                assert coeffs[0] == 1 and not any(coeffs[1:])

    def test_conservation_catches_a_slipped_entry(self):
        rows = list(markov._K2_ROWS)
        rows[0] = {**rows[0], 1: "2sp2"}  # "3sp2" with its coefficient slipped
        with pytest.raises(AssertionError, match=r"row 0 sums to polynomial \[1, -1, 2, -1\]"):
            check_conservation(markov._assemble(2, markov._K2_DESCRIPTIONS, rows))

    def test_absorbing_row_is_unit(self):
        for k in (2, 3):
            chain = build_chain(k)
            i = chain.absorbing_index
            assert chain.transitions[i].get(i, TransitionPoly.zero()).evaluate(0.4) == 1.0

    def test_entries_are_probabilities(self):
        for k in (2, 3):
            chain = build_chain(k)
            for p in (0.0, 0.3, 0.7, 0.99):
                for row in chain.transitions:
                    for e in row.values():
                        assert -1e-15 <= e.evaluate(p) <= 1.0 + 1e-15


class TestExpectedAbsorptionTime:
    def test_lossless_channel(self):
        assert expected_absorption_time(build_chain(2), 0.0) == pytest.approx(2.0, abs=1e-12)
        assert expected_absorption_time(build_chain(3), 0.0) == pytest.approx(3.0, abs=1e-12)

    def test_invalid_p(self):
        chain = build_chain(2)
        for p in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                expected_absorption_time(chain, p)

    def test_strictly_increasing_in_p(self):
        for k in (2, 3):
            chain = build_chain(k)
            grid = [0.05 * i for i in range(19)]
            values = [expected_absorption_time(chain, p) for p in grid]
            assert all(b > a for a, b in zip(values, values[1:]))
            assert all(v >= k for v in values)

    def test_limit_at_vanishing_loss(self):
        for k in (2, 3):
            near = expected_absorption_time(build_chain(k), 1e-7)
            assert k < near < k + 1e-5

    def test_k2_p05_matches_frozen_fine_value(self):
        assert expected_absorption_time(build_chain(2), 0.5) == pytest.approx(
            FINE_K2_P05, abs=1e-9)


class TestFineChain:
    def test_k2_state_count_bound(self):
        chain = build_fine_chain(2)
        assert chain.n_states <= 125  # 5 subspaces of GF(2)^2, cubed

    def test_lossless_absorption(self):
        assert absorption_time_fine(build_fine_chain(2), 0.0) == pytest.approx(2.0)
        assert absorption_time_fine(build_fine_chain(3), 0.0) == pytest.approx(3.0)

    def test_dimension_limit(self):
        with pytest.raises(ValueError):
            build_fine_chain(5)
        with pytest.raises(ValueError):
            build_fine_chain(0)

    def test_tie_break_validation(self):
        with pytest.raises(ValueError):
            build_fine_chain(2, "random")

    def test_transition_rows_are_stochastic(self):
        chain = build_fine_chain(3)
        for row in chain.transitions:
            total = sum(e.evaluate(0.35) for e in row.values())
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_k2_matches_aggregated_exactly(self):
        chain2 = build_chain(2)
        fine2 = build_fine_chain(2)
        for p in (0.1, 0.25, 0.5, 0.75, 0.9):
            agg = expected_absorption_time(chain2, p)
            fin = absorption_time_fine(fine2, p)
            assert fin == pytest.approx(agg, abs=1e-9)

    def test_k3_close_to_aggregated(self):
        # the 29-state table is lumpable from the joint-state chain, so the two
        # agree to solver precision, as at k=2
        chain3 = build_chain(3)
        fine3 = build_fine_chain(3)
        for p in (0.1, 0.25, 0.5, 0.75):
            agg = expected_absorption_time(chain3, p)
            fin = absorption_time_fine(fine3, p)
            assert abs(agg - fin) < 1e-9

    def test_tie_break_invariance_k2_and_sensitivity_k3(self):
        # k=2: the two deterministic rules give identical expectations.
        # k=3: they measurably differ (8.109220 vs 8.111552 at p=0.5), so the
        # value depends on which codeword the transmitter picks among ties;
        # the aggregated table matches the smallest-bit rule.
        for p in (0.1, 0.5, 0.9):
            small = absorption_time_fine(build_fine_chain(2, "smallest"), p)
            large = absorption_time_fine(build_fine_chain(2, "largest"), p)
            assert abs(small - large) <= 1e-9
        diffs = {}
        for p in (0.25, 0.5, 0.75):
            small = absorption_time_fine(build_fine_chain(3, "smallest"), p)
            large = absorption_time_fine(build_fine_chain(3, "largest"), p)
            diffs[p] = abs(small - large)
        print(f"\nFINDING: k=3 absorption time is tie-break sensitive: {diffs}")
        assert all(1e-9 < d < 0.05 for d in diffs.values())

    def test_fine_k2_p05_frozen_value(self):
        assert absorption_time_fine(build_fine_chain(2), 0.5) == pytest.approx(
            FINE_K2_P05, abs=1e-12)

    def test_choices_cover_transients(self):
        chain = build_fine_chain(2)
        for i, choice in enumerate(chain.choices):
            if i == chain.absorbing_index:
                assert choice is None
            else:
                assert 1 <= choice < 4


def _spec(rows):
    return MarkovChainSpec(k=1, descriptions=tuple(f"state {i}" for i in range(len(rows))),
                           transitions=tuple({j: TransitionPoly.parse(t) for j, t in row.items()}
                                             for row in rows),
                           absorbing_index=len(rows) - 1)


class TestExactSolver:
    def test_fraction_in_fraction_out(self):
        assert isinstance(expected_absorption_time(build_chain(2), Fraction(1, 4)), Fraction)
        assert isinstance(absorption_time_fine(build_fine_chain(2), Fraction(1, 4)), Fraction)

    @pytest.mark.parametrize("k", [2, 3])
    def test_hand_chain_equals_oracle_exactly(self, k):
        for p in RATIONAL_P:
            assert expected_absorption_time(build_chain(k), p) == absorption_time_fine(
                build_fine_chain(k), p)

    @pytest.mark.parametrize("k", [2, 3])
    def test_lossless_is_exactly_k(self, k):
        assert expected_absorption_time(build_chain(k), Fraction(0)) == Fraction(k)
        assert absorption_time_fine(build_fine_chain(k), Fraction(0)) == Fraction(k)

    @pytest.mark.parametrize("k", [2, 3])
    def test_pinned_rationals_at_half(self, k):
        assert expected_absorption_time(build_chain(k), Fraction(1, 2)) == EXACT_P05[k]
        assert absorption_time_fine(build_fine_chain(k), Fraction(1, 2)) == EXACT_P05[k]

    # near p = 1 the float solve holds its digits: it matches the rational solve
    # at the float's own value to 1e-15, where 1 - a_ii once lost 1e-11 to 1e-10
    @pytest.mark.parametrize("k, p, fine", [
        (k, p, fine) for k in (2, 3) for p in (0.9, 0.9999, 0.999999) for fine in (False, True)
    ] + [(4, 0.999, True)])
    def test_float_solve_matches_exact_near_p1(self, k, p, fine):
        solve, chain = ((absorption_time_fine, build_fine_chain(k)) if fine
                        else (expected_absorption_time, build_chain(k)))
        exact = solve(chain, Fraction(p))
        assert abs(Fraction(solve(chain, p)) - exact) <= exact * Fraction(1e-15)

    def test_backward_edge_raises(self):
        chain = _spec([{0: "p", 1: "s"}, {0: "s", 2: "p"}, {2: "1"}])
        check_conservation(chain)
        with pytest.raises(SolverError):
            expected_absorption_time(chain, 0.5)

    def test_stuck_transient_state_raises(self):
        chain = _spec([{0: "p", 1: "s"}, {1: "1"}, {2: "1"}])
        check_conservation(chain)
        with pytest.raises(SolverError):
            expected_absorption_time(chain, 0.5)

    @pytest.mark.parametrize("tie_break", ["smallest", "largest"])
    def test_fine_chain_successors_at_higher_index(self, tie_break):
        for k in (1, 2, 3):
            chain = build_fine_chain(k, tie_break)
            assert chain.states[0] == ((), (), ())
            for i, row in enumerate(chain.transitions):
                assert all(j > i for j in row if j != i)


@pytest.mark.parametrize("k, tie_break", sorted(FINE_CHAIN_SHA256))
def test_fine_chain_pinned(k, tie_break):
    chain = build_fine_chain(k, tie_break)
    blob = repr((chain.states, chain.choices, chain.mask_successors, chain.transitions))
    assert hashlib.sha256(blob.encode()).hexdigest() == FINE_CHAIN_SHA256[k, tie_break]


def test_one_greedy_scan_per_span_multiset(monkeypatch):
    # greedy w ignores client order, so the closure scans each sorted span triple once
    calls = []
    scan = markov._scan_spans
    monkeypatch.setattr(markov, "_scan_spans", lambda *a: calls.append(a) or scan(*a))
    chain = markov._fine_chain.__wrapped__(4, "smallest")
    multisets = {tuple(sorted(state)) for i, state in enumerate(chain.states)
                 if i != chain.absorbing_index}
    assert len(calls) == len(multisets) == 1082


def test_cache_keys_on_normalised_arguments():
    # the default, positional and keyword tie-break forms share one build
    markov._fine_chain.cache_clear()
    chains = [build_fine_chain(3), build_fine_chain(3, "smallest"),
              build_fine_chain(3, tie_break="smallest")]
    assert markov._fine_chain.cache_info().misses == 1
    assert chains[0] is chains[1] is chains[2]


def test_k4_oracle_memory_guard():
    # a dense (I - Q) solve at k=4 (6098 states) alone once peaked near 1.2 GB;
    # the sparse build and reverse pass stay near 35 MB
    (value,), peak_mb = run_measuring_peak(
        "from xorcast.markov import absorption_time_fine, build_fine_chain\n"
        "print(absorption_time_fine(build_fine_chain(4), 0.5))")
    assert float(value) == pytest.approx(10.441042, abs=1e-6)
    assert peak_mb < 100
