"""P-256 curve arithmetic: group laws, known vectors, encodings."""

import pytest

from repro.crypto import ec


class TestCurveBasics:
    def test_generator_on_curve(self):
        assert ec.is_on_curve(ec.GENERATOR)

    def test_infinity_on_curve(self):
        assert ec.is_on_curve(ec.INFINITY)

    def test_off_curve_point_detected(self):
        assert not ec.is_on_curve(ec.Point(1, 1))

    def test_out_of_range_coordinates_rejected(self):
        assert not ec.is_on_curve(ec.Point(ec.P, 0))

    def test_order_times_generator_is_infinity(self):
        assert ec.scalar_mult(ec.N, ec.GENERATOR).is_infinity

    def test_known_vector_2g(self):
        # 2G for P-256 (public test vector).
        point = ec.scalar_mult(2, ec.GENERATOR)
        assert point.x == int(
            "7CF27B188D034F7E8A52380304B51AC3C08969E277F21B35A60B48FC47669978", 16
        )
        assert point.y == int(
            "07775510DB8ED040293D9AC69F7430DBBA7DADE63CE982299E04B79D227873D1", 16
        )

    def test_known_vector_3g(self):
        point = ec.scalar_mult(3, ec.GENERATOR)
        assert point.x == int(
            "5ECBE4D1A6330A44C8F7EF951D4BF165E6C6B721EFADA985FB41661BC6E7FD6C", 16
        )


class TestGroupLaws:
    def test_addition_commutes(self):
        p = ec.scalar_mult(5, ec.GENERATOR)
        q = ec.scalar_mult(9, ec.GENERATOR)
        assert ec.point_add(p, q) == ec.point_add(q, p)

    def test_addition_associates(self):
        p = ec.scalar_mult(3, ec.GENERATOR)
        q = ec.scalar_mult(7, ec.GENERATOR)
        r = ec.scalar_mult(11, ec.GENERATOR)
        assert ec.point_add(ec.point_add(p, q), r) == ec.point_add(
            p, ec.point_add(q, r)
        )

    def test_identity_element(self):
        p = ec.scalar_mult(42, ec.GENERATOR)
        assert ec.point_add(p, ec.INFINITY) == p
        assert ec.point_add(ec.INFINITY, p) == p

    def test_inverse_element(self):
        p = ec.scalar_mult(42, ec.GENERATOR)
        neg = ec.Point(p.x, ec.P - p.y)
        assert ec.point_add(p, neg).is_infinity

    def test_doubling_matches_addition(self):
        p = ec.scalar_mult(13, ec.GENERATOR)
        assert ec.point_add(p, p) == ec.scalar_mult(26, ec.GENERATOR)

    def test_scalar_mult_distributes(self):
        a, b = 123456789, 987654321
        left = ec.scalar_mult(a + b, ec.GENERATOR)
        right = ec.point_add(
            ec.scalar_mult(a, ec.GENERATOR), ec.scalar_mult(b, ec.GENERATOR)
        )
        assert left == right

    def test_zero_scalar(self):
        assert ec.scalar_mult(0, ec.GENERATOR).is_infinity

    def test_scalar_reduced_mod_order(self):
        assert ec.scalar_mult(ec.N + 5, ec.GENERATOR) == ec.scalar_mult(
            5, ec.GENERATOR
        )

    def test_large_scalar(self):
        k = ec.N - 1
        point = ec.scalar_mult(k, ec.GENERATOR)
        assert ec.is_on_curve(point)
        # (N-1)G = -G
        assert point.x == ec.GENERATOR.x
        assert point.y == ec.P - ec.GENERATOR.y


class TestInfinityEdges:
    def test_add_infinity_to_infinity(self):
        assert ec.point_add(ec.INFINITY, ec.INFINITY).is_infinity

    def test_scalar_mult_of_infinity(self):
        assert ec.scalar_mult(5, ec.INFINITY).is_infinity
        assert ec.scalar_mult_naive(5, ec.INFINITY).is_infinity

    def test_zero_scalar_on_arbitrary_point(self):
        p = ec.scalar_mult(77, ec.GENERATOR)
        assert ec.scalar_mult(0, p).is_infinity

    def test_double_scalar_both_zero(self):
        p = ec.scalar_mult(7, ec.GENERATOR)
        assert ec.double_scalar_base_mult(0, 0, p).is_infinity


class TestScalarsNearOrder:
    @pytest.mark.parametrize("k", [ec.N - 2, ec.N - 1, ec.N, ec.N + 1, 2 * ec.N + 3])
    def test_base_mult_reduces_mod_order(self, k):
        assert ec.scalar_mult(k, ec.GENERATOR) == ec.scalar_mult_naive(
            k, ec.GENERATOR
        )

    @pytest.mark.parametrize("k", [ec.N - 1, ec.N, ec.N + 1])
    def test_point_mult_reduces_mod_order(self, k):
        p = ec.scalar_mult(987654321, ec.GENERATOR)
        assert ec.scalar_mult(k, p) == ec.scalar_mult_naive(k, p)

    def test_order_minus_one_is_negation(self):
        p = ec.scalar_mult(1234, ec.GENERATOR)
        neg = ec.scalar_mult(ec.N - 1, p)
        assert neg == ec.Point(p.x, ec.P - p.y)


class TestAcceleratedPaths:
    """The comb fast paths and the cold-key verify must be bit-identical
    to the naive double-and-add reference on every input shape."""

    def test_base_comb_matches_naive(self):
        for k in [1, 2, 3, 255, 256, 257, 2**64 - 1, 2**255 + 12345]:
            assert ec.scalar_mult(k, ec.GENERATOR) == ec.scalar_mult_naive(
                k, ec.GENERATOR
            )

    def test_point_comb_promotion_matches_naive(self):
        ec.clear_point_tables()
        p = ec.scalar_mult(31337, ec.GENERATOR)
        # Repeated use promotes the point to a cached comb table; every
        # use before, during, and after promotion must agree with naive.
        for k in [5, 17, 2**100 + 3, ec.N - 7, 11, 13]:
            assert ec.scalar_mult(k, p) == ec.scalar_mult_naive(k, p)

    def test_point_table_lru_bound(self):
        ec.clear_point_tables()
        points = [
            ec.scalar_mult(1000 + i, ec.GENERATOR)
            for i in range(ec.POINT_TABLE_MAX + 8)
        ]
        for p in points:
            for _ in range(ec.PROMOTE_AFTER + 1):
                ec.scalar_mult(3, p)
        assert len(ec._POINT_COMBS) <= ec.POINT_TABLE_MAX

    def test_double_scalar_matches_composition(self):
        q = ec.scalar_mult(424242, ec.GENERATOR)
        cases = [(1, 1), (0, 5), (5, 0), (ec.N - 1, ec.N - 1),
                 (2**200 + 9, 2**130 + 7)]
        for u1, u2 in cases:
            expected = ec.point_add(
                ec.scalar_mult_naive(u1, ec.GENERATOR),
                ec.scalar_mult_naive(u2, q),
            )
            assert ec.double_scalar_base_mult(u1, u2, q) == expected

    def test_double_scalar_with_hot_point(self):
        ec.clear_point_tables()
        q = ec.scalar_mult(555, ec.GENERATOR)
        for _ in range(ec.PROMOTE_AFTER + 1):
            ec.scalar_mult(9, q)  # promote q to a comb table
        expected = ec.point_add(
            ec.scalar_mult_naive(321, ec.GENERATOR),
            ec.scalar_mult_naive(654, q),
        )
        assert ec.double_scalar_base_mult(321, 654, q) == expected

    def test_accel_disabled_still_correct(self):
        from repro.crypto import cache

        q = ec.scalar_mult(777, ec.GENERATOR)
        fast = ec.double_scalar_base_mult(12, 34, q)
        cache.set_accel_enabled(False)
        try:
            slow = ec.double_scalar_base_mult(12, 34, q)
        finally:
            cache.set_accel_enabled(True)
        assert fast == slow
        assert fast == ec.point_add(
            ec.scalar_mult_naive(12, ec.GENERATOR),
            ec.scalar_mult_naive(34, q),
        )


class TestEncoding:
    @pytest.mark.parametrize("k", [1, 2, 3, 1000, 2**128 + 1])
    def test_compressed_roundtrip(self, k):
        point = ec.scalar_mult(k, ec.GENERATOR)
        data = ec.encode_point(point)
        assert len(data) == 33
        assert ec.decode_point(data) == point

    def test_infinity_roundtrip(self):
        assert ec.decode_point(ec.encode_point(ec.INFINITY)).is_infinity

    def test_uncompressed_accepted(self):
        point = ec.scalar_mult(7, ec.GENERATOR)
        data = b"\x04" + point.x.to_bytes(32, "big") + point.y.to_bytes(32, "big")
        assert ec.decode_point(data) == point

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            ec.decode_point(b"\x02" + b"\x00" * 10)

    def test_not_on_curve_rejected(self):
        bad = b"\x04" + (1).to_bytes(32, "big") + (1).to_bytes(32, "big")
        with pytest.raises(ValueError):
            ec.decode_point(bad)

    def test_x_out_of_range_rejected(self):
        data = b"\x02" + ec.P.to_bytes(32, "big")
        with pytest.raises(ValueError):
            ec.decode_point(data)

    def test_compressed_parity_selects_y(self):
        point = ec.scalar_mult(5, ec.GENERATOR)
        flipped = ec.Point(point.x, ec.P - point.y)
        assert ec.decode_point(ec.encode_point(flipped)) == flipped
