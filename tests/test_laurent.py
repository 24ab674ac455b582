import pytest
from hypothesis import given, strategies as st

from lsalgo.laurent import (
    ONE,
    ZERO,
    HalfLaurent,
    DataFormatError,
    NonExactDivision,
    bar,
    decode_int,
    exact_div,
    t_half_power,
    t_power,
)


def hl(d):
    return HalfLaurent(d)


# small random polynomials; exponents kept tight so products stay readable
coeffs = st.integers(min_value=-9, max_value=9)
exps = st.integers(min_value=-6, max_value=6)
polys = st.dictionaries(exps, coeffs, max_size=5).map(HalfLaurent)
nonzero_polys = polys.filter(bool)


class TestAdd:
    def test_cancellation(self):
        assert (t_power(1) - 1) + ONE == t_power(1)

    def test_identity(self):
        f = hl({3: 2, -2: 1})
        assert ZERO + f == f

    def test_half_powers_combine(self):
        assert t_half_power(1) + t_half_power(1) == hl({1: 2})

    @given(polys, polys)
    def test_commutative(self, f, g):
        assert f + g == g + f

    @given(polys, polys, polys)
    def test_associative(self, f, g, h):
        assert (f + g) + h == f + (g + h)


class TestMul:
    def test_difference_of_squares(self):
        f = t_half_power(1) - t_half_power(-1)
        g = t_half_power(1) + t_half_power(-1)
        assert f * g == t_power(1) - t_power(-1)

    def test_identity(self):
        f = hl({4: -3, 1: 5})
        assert f * ONE == f

    def test_negative_powers(self):
        assert t_power(-1) * t_power(-1) == t_power(-2)

    @given(polys, polys)
    def test_commutative(self, f, g):
        assert f * g == g * f

    @given(polys, polys, polys)
    def test_associative(self, f, g, h):
        assert (f * g) * h == f * (g * h)

    @given(polys, polys, polys)
    def test_distributive(self, f, g, h):
        assert f * (g + h) == f * g + f * h


class TestBar:
    def test_negates_exponents(self):
        assert bar(t_power(1) - 1) == t_power(-1) - 1

    def test_constants_fixed(self):
        assert bar(hl({0: 5})) == hl({0: 5})

    @given(polys)
    def test_involution(self, f):
        assert bar(bar(f)) == f

    @given(polys, polys)
    def test_ring_homomorphism(self, f, g):
        assert bar(f * g) == bar(f) * bar(g)
        assert bar(f + g) == bar(f) + bar(g)


class TestExactDiv:
    def test_basic(self):
        assert exact_div(t_power(2) - 1, t_power(1) - 1) == t_power(1) + 1

    def test_zero_numerator(self):
        assert exact_div(ZERO, t_power(1) + 1) == ZERO

    def test_nonexact_raises(self):
        with pytest.raises(NonExactDivision):
            exact_div(t_power(1) - 1, t_power(1) + 1)

    def test_integer_failure_detected(self):
        # divisible over Q but not over Z
        with pytest.raises(NonExactDivision):
            exact_div(t_power(1) + 1, 2 * ONE)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(ONE, ZERO)

    def test_monomial_shift(self):
        f = hl({-3: 1, 1: -2})
        assert exact_div(f, t_half_power(-3)) == hl({0: 1, 4: -2})

    @given(polys, nonzero_polys)
    def test_mul_roundtrip(self, q, g):
        assert exact_div(q * g, g) == q


class TestSerialization:
    def test_json_encoding(self):
        assert t_power(-1).to_json() == {"-2": 1}

    @given(polys)
    def test_roundtrip(self, f):
        assert HalfLaurent.from_json(f.to_json()) == f

    def test_pretty(self):
        assert ZERO.pretty() == "0"
        assert (t_power(-2) + t_power(-1)).pretty() == "t^-2 + t^-1"
        assert (t_power(2) - 1).pretty() == "-1 + t^2"
        assert (2 * t_power(-1)).pretty() == "2*t^-1"
        assert t_half_power(3).pretty() == "t^(3/2)"
        assert t_half_power(-1).pretty() == "t^(-1/2)"
        assert t_power(1).pretty() == "t"

    @pytest.mark.parametrize("obj", [
        {"0": 1.9},
        {"0": 2.0},
        {"0": True},
        {"0": "3"},
        {"0": None},
        {"x": 1},
        {"1.5": 1},
        {" 2": 1},
        {"+2": 1},
        [1, 2],
        None,
    ])
    def test_from_json_rejects_inexact_values(self, obj):
        with pytest.raises(DataFormatError):
            HalfLaurent.from_json(obj)

    def test_decode_int(self):
        assert decode_int(-7, "x") == -7
        for bad in (True, 1.0, "1", None):
            with pytest.raises(DataFormatError):
                decode_int(bad, "x")

    def test_evaluate_at_one(self):
        assert (t_power(2) - 1 + 3 * t_power(-1)).evaluate_at_one() == 3
