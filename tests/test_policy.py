import itertools

import pytest

from xorcast.gf2 import ClientDecoder, span_mask
from xorcast.policy import (
    AllClientsSatisfiedError,
    NetworkState,
    RankProfileError,
    _scan_spans,
    distinct_dependent_count,
    greedy_codeword,
    lemma1_construct,
    lemma1_counterexample,
    sufficient_by_counting,
)

from conftest import random_decoder, random_state, span_of_rows


def state_from_vectors(k, *clients):
    return NetworkState(k, tuple(ClientDecoder.from_vectors(k, vs) for vs in clients))


def brute_best_coverage(state):
    """Independent scan: best number of unsatisfied clients a codeword can cover."""
    spans = [span_of_rows(state.clients[i].basis) for i in state.unsatisfied()]
    return max(sum(1 for sp in spans if w not in sp) for w in range(1, 1 << state.k))


def exhaustive_scan(spans, k, tie_break):
    """Brute-force oracle for _scan_spans: try every nonzero w against frozenset spans."""
    best_cov, ties = -1, []
    for w in range(1, 1 << k):
        cov = sum(1 for sp in spans if w not in sp)
        if cov > best_cov:
            best_cov, ties = cov, [w]
        elif cov == best_cov:
            ties.append(w)
    return ties[0 if tie_break == "smallest" else -1], best_cov


def all_subspaces(k):
    seen = set()
    for n in range(0, k + 1):
        for combo in itertools.combinations(range(1, 1 << k), n):
            seen.add(span_of_rows(combo))
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def decoder_with_span(k, span):
    dec = ClientDecoder(k)
    for v in sorted(span):
        if v:
            dec.insert(v)
    return dec


class TestGreedyCodeword:
    def test_stuck_k2_state_covers_two(self):
        # one client holds p1, another p2, the third p1+p2
        st = state_from_vectors(2, [0b01], [0b10], [0b11])
        w, covered = greedy_codeword(st)
        assert covered == 2
        assert w.bits in (1, 2, 3)

    def test_empty_clients_smallest_pattern(self):
        st = NetworkState.empty(2)
        w, covered = greedy_codeword(st)
        assert (w.bits, covered) == (1, 3)

    def test_rank_221_always_covers_three(self, rng):
        # guaranteed by the (k-1, k-1, k-2) profile result
        for _ in range(200):
            ranks = [2, 2, 1]
            rng.shuffle(ranks)
            st = random_state(3, ranks, rng)
            _, covered = greedy_codeword(st)
            assert covered == 3

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_profile_coverage_exhaustive(self, k):
        # every joint state with ranks (k-1, k-1, k-2), all client orderings
        subs = all_subspaces(k)
        by_rank = {}
        for sp in subs:
            by_rank.setdefault(len(sp).bit_length() - 1, []).append(sp)
        high, low = by_rank[k - 1], by_rank[k - 2]
        for pos in range(3):
            for a in high:
                for b in high:
                    for c in low:
                        spans = [a, b]
                        spans.insert(pos, c)
                        st = NetworkState(k, tuple(decoder_with_span(k, sp)
                                                   for sp in spans))
                        _, covered = greedy_codeword(st)
                        assert covered == 3

    def test_matches_brute_force_coverage(self, rng):
        for _ in range(200):
            k = rng.randrange(2, 5)
            st = random_state(k, [rng.randrange(0, k + 1) for _ in range(3)], rng)
            if st.all_satisfied():
                continue
            _, covered = greedy_codeword(st)
            assert covered == brute_best_coverage(st)

    def test_deterministic(self, rng):
        for _ in range(50):
            st = random_state(3, [rng.randrange(0, 3) for _ in range(3)], rng)
            w1, c1 = greedy_codeword(st)
            w2, c2 = greedy_codeword(st)
            assert (w1, c1) == (w2, c2)

    def test_tie_breaks(self):
        st = NetworkState.empty(2)
        assert greedy_codeword(st, tie_break="smallest")[0].bits == 1
        assert greedy_codeword(st, tie_break="largest")[0].bits == 3
        with pytest.raises(ValueError):
            greedy_codeword(st, tie_break="random")
        with pytest.raises(ValueError):
            greedy_codeword(st, tie_break="bogus")

    def test_all_satisfied_error(self):
        st = state_from_vectors(2, [1, 2], [1, 2], [1, 2])
        with pytest.raises(AllClientsSatisfiedError):
            greedy_codeword(st)

    def test_coverage_at_least_one(self, rng):
        for _ in range(100):
            st = random_state(3, [rng.randrange(0, 4) for _ in range(3)], rng)
            if st.all_satisfied():
                continue
            assert greedy_codeword(st)[1] >= 1


class TestScanSpans:
    @pytest.mark.parametrize("tie_break", ["smallest", "largest"])
    def test_matches_exhaustive_scan(self, rng, tie_break):
        # ranks run up to k, so full-rank spans (missed by no w) occur too
        for _ in range(1500):
            k = rng.randrange(1, 9)
            decoders = [random_decoder(k, rng.randrange(0, k + 1), rng)
                        for _ in range(rng.randrange(1, 4))]
            masks = [span_mask(d.basis, k) for d in decoders]
            sets = [span_of_rows(d.basis) for d in decoders]
            got = _scan_spans(masks, k, tie_break)
            want = exhaustive_scan(sets, k, tie_break)
            assert got == want, (k, [d.basis for d in decoders])

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_full_rank_spans_cover_nothing(self, k):
        full = (1 << (1 << k)) - 1
        assert _scan_spans([full], k, "smallest") == (1, 0)
        assert _scan_spans([full, full], k, "largest") == ((1 << k) - 1, 0)

    def test_counterexample_family_covers_two(self):
        # three hyperplanes through one codimension-2 subspace cover GF(2)^k
        for k in range(2, 9):
            st = lemma1_counterexample(k)
            masks = [span_mask(c.basis, k) for c in st.clients]
            assert _scan_spans(masks, k, "smallest")[1] == 2


class TestSufficientByCounting:
    def test_examples(self):
        assert sufficient_by_counting((1, 1, 1), 3) is True
        assert sufficient_by_counting((2, 2, 1), 3) is False
        assert sufficient_by_counting((1, 1, 1), 2) is False

    def test_satisfied_clients_contribute_nothing(self):
        assert sufficient_by_counting((3, 1, 1), 3) is True
        assert sufficient_by_counting((3, 3, 3), 3) is True

    def test_range_validation(self):
        with pytest.raises(ValueError):
            sufficient_by_counting((4, 0, 0), 3)

    def test_implies_full_coverage_exhaustive_k_le_3(self):
        # over every joint subspace state: if the counting test passes,
        # the scan covers every unsatisfied client
        for k in (2, 3):
            subs = all_subspaces(k)
            for spans in itertools.product(subs, repeat=3):
                decs = tuple(decoder_with_span(k, sp) for sp in spans)
                st = NetworkState(k, decs)
                if st.all_satisfied():
                    continue
                ranks = st.ranks()
                if sufficient_by_counting(ranks, k):
                    _, covered = greedy_codeword(st)
                    assert covered == len(st.unsatisfied()), (k, spans)

    def test_implies_full_coverage_random_k4(self, rng):
        for _ in range(3000):
            st = random_state(4, [rng.randrange(0, 5) for _ in range(3)], rng)
            if st.all_satisfied():
                continue
            if sufficient_by_counting(st.ranks(), 4):
                _, covered = greedy_codeword(st)
                assert covered == len(st.unsatisfied())


class TestLemma1Construct:
    def test_k2_unique_vector(self):
        st = state_from_vectors(2, [0b01], [0b10], [])
        assert lemma1_construct(st).bits == 0b11

    def test_k3_example(self):
        st = state_from_vectors(3, [1, 2], [2, 4], [7])
        w = lemma1_construct(st)
        assert all(w.bits not in span_of_rows(c.basis) for c in st.clients)

    def test_worked_k4_instance(self):
        # the instance documented in the docstring
        st = state_from_vectors(4, [0b0001, 0b0010, 0b0100],
                                [0b0010, 0b0100, 0b1000],
                                [0b1111, 0b1010])
        w = lemma1_construct(st)
        assert w.bits == 0b1001
        assert all(w.bits not in span_of_rows(c.basis) for c in st.clients)

    def test_random_k6_profile(self, rng):
        for _ in range(300):
            ranks = [5, 5, 4]
            rng.shuffle(ranks)
            st = random_state(6, ranks, rng)
            w = lemma1_construct(st)
            assert all(w.bits not in span_of_rows(c.basis) for c in st.clients)

    def test_rank_profile_rejected(self, rng):
        st = random_state(3, [2, 2, 2], rng)
        with pytest.raises(RankProfileError):
            lemma1_construct(st)
        st = random_state(3, [1, 1, 1], rng)
        with pytest.raises(RankProfileError):
            lemma1_construct(st)


class TestLemma1Counterexample:
    @pytest.mark.parametrize("k", range(2, 11))
    def test_max_coverage_exactly_two(self, k):
        st = lemma1_counterexample(k)
        assert st.ranks() == (k - 1,) * 3
        spans = [span_of_rows(c.basis) for c in st.clients]
        best = max(sum(1 for sp in spans if w not in sp) for w in range(1, 1 << k))
        assert best == 2

    def test_k2_is_the_three_codeword_state(self):
        st = lemma1_counterexample(2)
        assert st.clients[0].basis == (0b01,)
        assert st.clients[1].basis == (0b10,)
        assert st.clients[2].basis == (0b11,)
        assert distinct_dependent_count(st) == 3

    def test_k3_saturates_dependent_set(self):
        # all rank 2 and every nonzero vector dependent for somebody
        st = lemma1_counterexample(3)
        assert st.ranks() == (2, 2, 2)
        assert distinct_dependent_count(st) == 7

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            lemma1_counterexample(1)


class TestDistinctDependentCount:
    def test_stuck_k2(self):
        st = state_from_vectors(2, [0b01], [0b10], [0b11])
        assert distinct_dependent_count(st) == 3

    def test_empty(self):
        assert distinct_dependent_count(NetworkState.empty(3)) == 0

    def test_all_satisfied(self, rng):
        st = random_state(3, [3, 3, 3], rng)
        assert distinct_dependent_count(st) == 0

    def test_matches_direct_enumeration(self, rng):
        for _ in range(300):
            k = rng.randrange(1, 5)
            st = random_state(k, [rng.randrange(0, k + 1) for _ in range(3)], rng)
            direct = set()
            for i in st.unsatisfied():
                direct |= span_of_rows(st.clients[i].basis) - {0}
            assert distinct_dependent_count(st) == len(direct)


def test_network_state_validation():
    with pytest.raises(ValueError):
        NetworkState(2, (ClientDecoder(2), ClientDecoder(2)))
    with pytest.raises(ValueError):
        NetworkState(2, (ClientDecoder(2), ClientDecoder(2), ClientDecoder(3)))
