import pytest

from xorcast.gf2 import (
    ClientDecoder,
    CodingVector,
    DimensionMismatchError,
    InsertResult,
    rref_reduce,
)

from conftest import span_of_rows


def vec(coeffs):
    """CodingVector from 0/1 coefficients, packet 1 first."""
    return CodingVector(sum(c << j for j, c in enumerate(coeffs)), len(coeffs))


class TestCodingVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            CodingVector(4, 2)  # bits out of range
        with pytest.raises(ValueError):
            CodingVector(0, 0)  # k too small
        with pytest.raises(ValueError):
            CodingVector(0, 64)  # k too large


class TestRank:
    def test_identity_basis(self):
        assert ClientDecoder.from_vectors(2, [vec([1, 0]), vec([0, 1])]).rank == 2

    def test_dependent_third_vector(self):
        assert ClientDecoder.from_vectors(2, [vec([1, 0]), vec([1, 1]), vec([0, 1])]).rank == 2

    def test_empty(self):
        assert ClientDecoder.from_vectors(2, []).rank == 0

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            ClientDecoder.from_vectors(2, [vec([1, 0]), vec([1, 0, 0])])


class TestContains:
    # span membership is rref_reduce against the decoder's basis reaching 0
    def test_basis_member(self):
        dec = ClientDecoder.from_vectors(2, [vec([1, 0])])
        assert rref_reduce(dec.basis, 0b01) == 0
        assert rref_reduce(dec.basis, 0b11) != 0

    def test_full_span(self):
        dec = ClientDecoder.from_vectors(2, [vec([1, 0]), vec([0, 1])])
        assert rref_reduce(dec.basis, 0b11) == 0

    def test_zero_always_contained(self):
        assert rref_reduce(ClientDecoder(3).basis, 0) == 0

    def test_dimension_mismatch(self):
        dec = ClientDecoder(2)
        with pytest.raises(DimensionMismatchError):
            dec.insert(vec([1, 0, 0]))
        with pytest.raises(DimensionMismatchError):
            dec.insert(0b100)


class TestInsert:
    def test_innovative(self):
        dec = ClientDecoder.from_vectors(2, [vec([1, 0])])
        assert dec.insert(vec([1, 1])) is InsertResult.INNOVATIVE
        assert dec.rank == 2

    def test_dependent(self):
        dec = ClientDecoder.from_vectors(2, [vec([1, 0])])
        assert dec.insert(vec([1, 0])) is InsertResult.DEPENDENT
        assert dec.rank == 1

    def test_zero_vector_dependent(self):
        dec = ClientDecoder(2)
        assert dec.insert(0) is InsertResult.DEPENDENT
        assert dec.rank == 0


class TestDecoderInvariants:
    def test_rank_matches_scratch_elimination(self, rng):
        for _ in range(300):
            k = rng.randrange(1, 9)
            dec = ClientDecoder(k)
            raw = []
            for _ in range(rng.randrange(0, 2 * k + 2)):
                bits = rng.randrange(0, 1 << k)
                raw.append(bits)
                before = dec.rank
                outcome = dec.insert(bits)
                assert dec.rank >= before  # rank never decreases
                assert (outcome is InsertResult.INNOVATIVE) == (dec.rank == before + 1)
            assert len(span_of_rows(raw)) == 1 << dec.rank

    def test_contains_iff_insert_dependent(self, rng):
        for _ in range(200):
            k = rng.randrange(1, 7)
            dec = ClientDecoder(k)
            for _ in range(rng.randrange(0, 2 * k)):
                dec.insert(rng.randrange(0, 1 << k))
            w = rng.randrange(0, 1 << k)
            in_span = w in span_of_rows(dec.basis)
            assert (rref_reduce(dec.basis, w) == 0) == in_span
            probe = ClientDecoder.from_vectors(k, dec.basis)
            assert (probe.insert(w) is InsertResult.DEPENDENT) == in_span

    def test_span_size_is_power_of_rank(self, rng):
        for _ in range(200):
            k = rng.randrange(1, 8)
            dec = ClientDecoder(k)
            for _ in range(rng.randrange(0, 2 * k)):
                dec.insert(rng.randrange(0, 1 << k))
            span = span_of_rows(dec.basis)
            assert len(span) == 1 << dec.rank
            assert len(span - {0}) == (1 << dec.rank) - 1

    def test_rref_shape(self, rng):
        # pivots strictly increasing, each pivot clear in every other row
        for _ in range(200):
            k = rng.randrange(1, 9)
            dec = ClientDecoder(k)
            for _ in range(3 * k):
                dec.insert(rng.randrange(0, 1 << k))
            rows = dec.basis
            pivots = [row & -row for row in rows]
            assert pivots == sorted(pivots)
            assert len(set(pivots)) == len(pivots)
            for i, row in enumerate(rows):
                for j, piv in enumerate(pivots):
                    if i != j:
                        assert not row & piv
