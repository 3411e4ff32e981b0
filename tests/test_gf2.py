from xorcast.gf2 import rref_insert, rref_reduce

from conftest import fold_rows, span_of_rows


class TestRank:
    # a span's rank is the length of its RREF row tuple
    def test_identity_basis(self):
        assert len(fold_rows([0b01, 0b10])) == 2

    def test_dependent_third_vector(self):
        assert len(fold_rows([0b01, 0b11, 0b10])) == 2

    def test_empty(self):
        assert fold_rows([]) == ()


class TestContains:
    # span membership is rref_reduce against the rows reaching 0
    def test_basis_member(self):
        rows = fold_rows([0b01])
        assert rref_reduce(rows, 0b01) == 0
        assert rref_reduce(rows, 0b11) != 0

    def test_full_span(self):
        assert rref_reduce(fold_rows([0b01, 0b10]), 0b11) == 0

    def test_zero_always_contained(self):
        assert rref_reduce((), 0) == 0
        assert rref_reduce(fold_rows([0b011, 0b110]), 0) == 0


class TestInsert:
    # rref_insert returns the grown tuple, or None when the vector is dependent
    def test_innovative(self):
        assert rref_insert((0b01,), 0b11) == (0b01, 0b10)

    def test_dependent(self):
        assert rref_insert((0b01,), 0b01) is None

    def test_zero_vector_dependent(self):
        assert rref_insert((), 0) is None
        assert rref_insert(fold_rows([0b101, 0b010]), 0) is None


class TestDecoderInvariants:
    def test_rank_matches_scratch_elimination(self, rng):
        for _ in range(300):
            k = rng.randrange(1, 9)
            rows = ()
            raw = []
            for _ in range(rng.randrange(0, 2 * k + 2)):
                bits = rng.randrange(0, 1 << k)
                raw.append(bits)
                grown = rref_insert(rows, bits)
                # rank grows by exactly one when innovative, else stays
                assert grown is None or len(grown) == len(rows) + 1
                rows = grown or rows
            assert len(span_of_rows(raw)) == 1 << len(rows)

    def test_contains_iff_insert_dependent(self, rng):
        for _ in range(200):
            k = rng.randrange(1, 7)
            rows = fold_rows(rng.randrange(0, 1 << k) for _ in range(rng.randrange(0, 2 * k)))
            w = rng.randrange(0, 1 << k)
            in_span = w in span_of_rows(rows)
            assert (rref_reduce(rows, w) == 0) == in_span
            assert (rref_insert(rows, w) is None) == in_span

    def test_span_size_is_power_of_rank(self, rng):
        for _ in range(200):
            k = rng.randrange(1, 8)
            rows = fold_rows(rng.randrange(0, 1 << k) for _ in range(rng.randrange(0, 2 * k)))
            span = span_of_rows(rows)
            assert len(span) == 1 << len(rows)
            assert len(span - {0}) == (1 << len(rows)) - 1

    def test_rref_shape(self, rng):
        # pivots strictly increasing, each pivot clear in every other row
        for _ in range(200):
            k = rng.randrange(1, 9)
            rows = fold_rows(rng.randrange(0, 1 << k) for _ in range(3 * k))
            pivots = [row & -row for row in rows]
            assert pivots == sorted(pivots)
            assert len(set(pivots)) == len(pivots)
            for i, row in enumerate(rows):
                for j, piv in enumerate(pivots):
                    if i != j:
                        assert not row & piv
