import itertools

import pytest

from xorcast.gf2 import MAX_DIM, MAX_MASK_DIM, span_mask
from xorcast.policy import (
    RankProfileError,
    _scan_spans,
    distinct_dependent_count,
    greedy_codeword,
    lemma1_construct,
    lemma1_counterexample,
    sufficient_by_counting,
)

from conftest import fold_rows, random_rows, random_state, span_of_rows

EMPTY = ((), (), ())


def state_from_vectors(*clients):
    return tuple(fold_rows(vs) for vs in clients)


def unsatisfied(state, k):
    return [rows for rows in state if len(rows) < k]


def brute_best_coverage(state, k):
    """Independent scan: best number of unsatisfied clients a codeword can cover."""
    spans = [span_of_rows(rows) for rows in unsatisfied(state, k)]
    return max(sum(1 for sp in spans if w not in sp) for w in range(1, 1 << k))


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


class TestGreedyCodeword:
    def test_stuck_k2_state_covers_two(self):
        # one client holds p1, another p2, the third p1+p2
        st = state_from_vectors([0b01], [0b10], [0b11])
        w, covered = greedy_codeword(st, 2)
        assert covered == 2
        assert w in (1, 2, 3)

    def test_empty_clients_smallest_pattern(self):
        assert greedy_codeword(EMPTY, 2) == (1, 3)

    def test_rank_221_always_covers_three(self, rng):
        # guaranteed by the (k-1, k-1, k-2) profile result
        for _ in range(200):
            ranks = [2, 2, 1]
            rng.shuffle(ranks)
            st = random_state(3, ranks, rng)
            _, covered = greedy_codeword(st, 3)
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
                        st = state_from_vectors(*spans)
                        _, covered = greedy_codeword(st, k)
                        assert covered == 3

    def test_matches_brute_force_coverage(self, rng):
        for _ in range(200):
            k = rng.randrange(2, 5)
            st = random_state(k, [rng.randrange(0, k + 1) for _ in range(3)], rng)
            if not unsatisfied(st, k):
                continue
            _, covered = greedy_codeword(st, k)
            assert covered == brute_best_coverage(st, k)

    def test_deterministic(self, rng):
        for _ in range(50):
            st = random_state(3, [rng.randrange(0, 3) for _ in range(3)], rng)
            assert greedy_codeword(st, 3) == greedy_codeword(st, 3)

    def test_tie_breaks(self):
        assert greedy_codeword(EMPTY, 2, tie_break="smallest")[0] == 1
        assert greedy_codeword(EMPTY, 2, tie_break="largest")[0] == 3
        with pytest.raises(ValueError):
            greedy_codeword(EMPTY, 2, tie_break="random")
        with pytest.raises(ValueError):
            greedy_codeword(EMPTY, 2, tie_break="bogus")

    def test_all_satisfied_error(self):
        st = state_from_vectors([1, 2], [1, 2], [1, 2])
        with pytest.raises(ValueError, match="all clients satisfied"):
            greedy_codeword(st, 2)

    def test_coverage_at_least_one(self, rng):
        for _ in range(100):
            st = random_state(3, [rng.randrange(0, 4) for _ in range(3)], rng)
            if not unsatisfied(st, 3):
                continue
            assert greedy_codeword(st, 3)[1] >= 1


class TestScanSpans:
    @pytest.mark.parametrize("tie_break", ["smallest", "largest"])
    def test_matches_exhaustive_scan(self, rng, tie_break):
        # ranks run up to k, so full-rank spans (missed by no w) occur too
        for _ in range(1500):
            k = rng.randrange(1, 9)
            clients = [random_rows(k, rng.randrange(0, k + 1), rng)
                       for _ in range(rng.randrange(1, 4))]
            masks = [span_mask(rows, k) for rows in clients]
            sets = [span_of_rows(rows) for rows in clients]
            got = _scan_spans(masks, k, tie_break)
            want = exhaustive_scan(sets, k, tie_break)
            assert got == want, (k, clients)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_full_rank_spans_cover_nothing(self, k):
        full = (1 << (1 << k)) - 1
        assert _scan_spans([full], k, "smallest") == (1, 0)
        assert _scan_spans([full, full], k, "largest") == ((1 << k) - 1, 0)

    def test_counterexample_family_covers_two(self):
        # three hyperplanes through one codimension-2 subspace cover GF(2)^k
        for k in range(2, 9):
            masks = [span_mask(rows, k) for rows in lemma1_counterexample(k)]
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
                st = state_from_vectors(*spans)
                if not unsatisfied(st, k):
                    continue
                if sufficient_by_counting([len(rows) for rows in st], k):
                    _, covered = greedy_codeword(st, k)
                    assert covered == len(unsatisfied(st, k)), (k, spans)

    def test_implies_full_coverage_random_k4(self, rng):
        for _ in range(3000):
            st = random_state(4, [rng.randrange(0, 5) for _ in range(3)], rng)
            if not unsatisfied(st, 4):
                continue
            if sufficient_by_counting([len(rows) for rows in st], 4):
                _, covered = greedy_codeword(st, 4)
                assert covered == len(unsatisfied(st, 4))


class TestLemma1Construct:
    def test_k2_unique_vector(self):
        st = state_from_vectors([0b01], [0b10], [])
        assert lemma1_construct(st, 2) == 0b11

    def test_k3_example(self):
        st = state_from_vectors([1, 2], [2, 4], [7])
        w = lemma1_construct(st, 3)
        assert all(w not in span_of_rows(rows) for rows in st)

    def test_worked_k4_instance(self):
        # the instance documented in the docstring
        st = state_from_vectors([0b0001, 0b0010, 0b0100],
                                [0b0010, 0b0100, 0b1000],
                                [0b1111, 0b1010])
        w = lemma1_construct(st, 4)
        assert w == 0b1001
        assert all(w not in span_of_rows(rows) for rows in st)

    def test_random_k6_profile(self, rng):
        for _ in range(300):
            ranks = [5, 5, 4]
            rng.shuffle(ranks)
            st = random_state(6, ranks, rng)
            w = lemma1_construct(st, 6)
            assert all(w not in span_of_rows(rows) for rows in st)

    def test_rank_profile_rejected(self, rng):
        st = random_state(3, [2, 2, 2], rng)
        with pytest.raises(RankProfileError):
            lemma1_construct(st, 3)
        st = random_state(3, [1, 1, 1], rng)
        with pytest.raises(RankProfileError):
            lemma1_construct(st, 3)


class TestLemma1Counterexample:
    @pytest.mark.parametrize("k", range(2, 11))
    def test_max_coverage_exactly_two(self, k):
        st = lemma1_counterexample(k)
        assert all(len(rows) == k - 1 for rows in st)
        assert all(rows == fold_rows(rows) for rows in st)  # canonical RREF
        spans = [span_of_rows(rows) for rows in st]
        best = max(sum(1 for sp in spans if w not in sp) for w in range(1, 1 << k))
        assert best == 2

    def test_k2_is_the_three_codeword_state(self):
        st = lemma1_counterexample(2)
        assert st == ((0b01,), (0b10,), (0b11,))
        assert distinct_dependent_count(st, 2) == 3

    def test_k3_saturates_dependent_set(self):
        # all rank 2 and every nonzero vector dependent for somebody
        st = lemma1_counterexample(3)
        assert [len(rows) for rows in st] == [2, 2, 2]
        assert distinct_dependent_count(st, 3) == 7

    def test_k_below_two_rejected(self):
        for k in (1, 0, -1):
            with pytest.raises(ValueError):
                lemma1_counterexample(k)

    def test_k_above_max_dim_rejected(self):
        with pytest.raises(ValueError):
            lemma1_counterexample(MAX_DIM + 1)


class TestDistinctDependentCount:
    def test_stuck_k2(self):
        st = state_from_vectors([0b01], [0b10], [0b11])
        assert distinct_dependent_count(st, 2) == 3

    def test_empty(self):
        assert distinct_dependent_count(EMPTY, 3) == 0

    def test_all_satisfied(self, rng):
        st = random_state(3, [3, 3, 3], rng)
        assert distinct_dependent_count(st, 3) == 0

    def test_matches_direct_enumeration(self, rng):
        for _ in range(300):
            k = rng.randrange(1, 5)
            st = random_state(k, [rng.randrange(0, k + 1) for _ in range(3)], rng)
            direct = set()
            for rows in unsatisfied(st, k):
                direct |= span_of_rows(rows) - {0}
            assert distinct_dependent_count(st, k) == len(direct)


BAD_INPUTS = {
    "k zero": (EMPTY, 0),
    "k negative": (EMPTY, -1),
    "k above mask range": (EMPTY, MAX_MASK_DIM + 1),
    "row at bit k": (((1 << 3,), (), ()), 3),
    "row above k": (((), (0b1, 0b1 << 7), ()), 3),
    "negative row": (((), (), (-1,)), 3),
    "two clients": (((), ()), 3),
    "zero row": (((0,), (), ()), 3),
    "dependent rows": (((0b1, 0b1), (), ()), 2),
    "descending pivots": (((), (0b10, 0b01), ()), 3),
    "row holds another pivot": (((), (), (0b11, 0b10)), 3),
}


@pytest.mark.parametrize("fn", [greedy_codeword, lemma1_construct, distinct_dependent_count])
@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_k_or_row_rejected(fn, case):
    # the tuple entry points reject what would otherwise fail deep in the mask
    # code, or give a wrong answer from a row count that is not the rank
    rows, k = BAD_INPUTS[case]
    with pytest.raises(ValueError, match="clients required|k must be in|at or above k|not in fully reduced"):
        fn(rows, k)
