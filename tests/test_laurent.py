import re

import pytest
from hypothesis import given, strategies as st

from lsalgo import laurent
from lsalgo.laurent import (
    MAX_EXPONENT,
    ONE,
    ZERO,
    HalfLaurent,
    DataFormatError,
    NonExactDivision,
    decode_int,
    decode_str,
    dot,
    exact_div,
    max_abs_coefficient,
    t_half_power,
)

from conftest import t_power


def hl(d):
    return HalfLaurent(d)


# small random polynomials; exponents kept tight so products stay readable
coeffs = st.integers(min_value=-9, max_value=9)
exps = st.integers(min_value=-6, max_value=6)
polys = st.dictionaries(exps, coeffs, max_size=5).map(HalfLaurent)
nonzero_polys = polys.filter(bool)


def merged(f, g, sign=1):
    """f + sign * g by merging the coefficient maps, independent of `dot`."""
    c = dict(f.items())
    for e, v in g.items():
        c[e] = c.get(e, 0) + sign * v
    return HalfLaurent(c)


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

    @given(polys, polys)
    def test_is_the_merged_sum(self, f, g):
        assert f + g == merged(f, g)


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

    @pytest.mark.parametrize("f, n", [(t_power(1), -1), (ONE + t_power(1), -1), (ONE, -2)],
                             ids=["t", "1+t", "1"])
    def test_negative_exponent_raises_at_once(self, monkeypatch, f, n):
        # repeated squaring never ends on n < 0, so no product may be formed
        def no_product(xs, ys):
            raise AssertionError("a product was formed")
        monkeypatch.setattr(laurent, "dot", no_product)
        with pytest.raises(ValueError):
            f ** n
        assert f ** 0 == ONE

    @given(polys, polys)
    def test_commutative(self, f, g):
        assert f * g == g * f

    @given(polys, polys, polys)
    def test_associative(self, f, g, h):
        assert (f * g) * h == f * (g * h)

    @given(polys, polys, polys)
    def test_distributive(self, f, g, h):
        assert f * (g + h) == f * g + f * h


class TestSub:
    @given(polys, polys)
    def test_is_the_merged_difference(self, f, g):
        assert f - g == merged(f, g, -1)

    @given(polys, polys)
    def test_is_adding_the_negative(self, f, g):
        assert f - g == f + (-g)
        assert all(c for _, c in (f - g).items())

    def test_with_ints(self):
        assert t_power(1) - 1 == hl({2: 1, 0: -1})
        assert 1 - t_power(1) == hl({2: -1, 0: 1})
        assert ONE - 1 == ZERO


class TestHash:
    @given(st.integers())
    def test_constant_hashes_as_its_int(self, v):
        assert ONE * v == v and hash(ONE * v) == hash(v)

    def test_constants_and_ints_are_one_key(self):
        assert len({ONE, 1}) == 1 and len({ZERO, 0}) == 1
        assert {1: "a"}.get(ONE) == "a" and {ZERO: "z"}.get(0) == "z"
        assert len({ONE, True}) == 2  # equal hashes, but ONE != True

    @given(polys, polys)
    def test_equal_values_hash_alike(self, f, g):
        assert hash(f + g - g) == hash(f)


pairs = st.lists(st.tuples(polys, polys), max_size=6)
nonzero_coeffs = coeffs.filter(bool)
monomials = st.dictionaries(exps, nonzero_coeffs, min_size=1, max_size=1).map(HalfLaurent)
wide_polys = st.dictionaries(
    st.integers(min_value=-80, max_value=80), nonzero_coeffs, min_size=40, max_size=40,
).map(HalfLaurent)
# a 1-term and a 40-term operand, in either order within the pair
mixed_pairs = st.lists(st.tuples(monomials, wide_polys).flatmap(st.permutations),
                       min_size=1, max_size=4)
# few terms spread far apart, with a valuation other than 0
wide_sparse_polys = st.dictionaries(
    st.integers(min_value=-200, max_value=200), nonzero_coeffs, min_size=2, max_size=8,
).filter(lambda c: min(c) != 0).map(HalfLaurent)


def schoolbook(f, g):
    """Product by the coefficient lists alone, independent of `dot`."""
    c = {}
    for e1, v1 in f.items():
        for e2, v2 in g.items():
            c[e1 + e2] = c.get(e1 + e2, 0) + v1 * v2
    return HalfLaurent(c)


def fold(xs, ys, mul=lambda x, y: x * y):
    acc = ZERO
    for x, y in zip(xs, ys):
        acc = merged(acc, mul(x, y))
    return acc


class TestDot:
    @given(pairs)
    def test_is_the_fold_of_products(self, terms):
        xs, ys = [x for x, _ in terms], [y for _, y in terms]
        assert dot(xs, ys) == fold(xs, ys) == fold(xs, ys, schoolbook)

    @given(pairs)
    def test_cancelling_sum_is_zero(self, terms):
        # every product appears once as x*y and once as x*(-y)
        xs = [x for x, _ in terms] * 2
        ys = [y for _, y in terms] + [-y for _, y in terms]
        assert dot(xs, ys) == fold(xs, ys) == ZERO
        assert dot(xs, ys).support() == ()

    @given(pairs)
    def test_stores_no_zero_coefficient(self, terms):
        result = dot([x for x, _ in terms], [y for _, y in terms])
        assert all(c for _, c in result.items())

    @given(mixed_pairs)
    def test_short_and_long_operands_in_either_order(self, terms):
        xs, ys = [x for x, _ in terms], [y for _, y in terms]
        assert dot(xs, ys) == dot(ys, xs) == fold(xs, ys) == fold(xs, ys, schoolbook)

    @pytest.mark.parametrize("zero_first", [True, False])
    def test_zero_on_either_side_of_a_pair(self, zero_first):
        f = hl({-3: 2, 0: -1, 7: 5})
        pair = (ZERO, f) if zero_first else (f, ZERO)
        assert dot(*zip(pair)) == ZERO
        assert dot(*zip(pair)).support() == ()
        xs, ys = zip(pair, (f, t_power(1)))
        assert dot(xs, ys) == dot(ys, xs) == f.shift(2)

    def test_partial_cancellation(self):
        f = t_power(1) + 1
        g = t_power(1) - 1
        # (t + 1)(t - 1) - (t^2) = -1: the t^2 terms cancel inside one sum
        assert dot([f, -ONE], [g, t_power(2)]) == hl({0: -1})

    def test_empty_is_zero(self):
        assert dot([], []) == ZERO
        assert dot([], []).support() == ()

    @pytest.mark.parametrize("xs,ys", [([ONE], []), ([], [ONE]), ([ONE, ONE], [ONE])])
    def test_unequal_lengths_raise(self, xs, ys):
        with pytest.raises(ValueError):
            dot(xs, ys)


@st.composite
def long_polys(draw, coefficients=nonzero_coeffs, min_size=10, max_size=80):
    """Long operands: 10 to 80 terms at one parity of doubled exponent, from
    -71 up, densely or with gaps of up to one term."""
    values = draw(st.lists(coefficients, min_size=min_size, max_size=max_size))
    gaps = draw(st.randoms(use_true_random=False))
    exponents = [draw(st.integers(-71, 40))]
    for _ in values[1:]:
        exponents.append(exponents[-1] + gaps.choice((2, 2, 2, 4)))
    return HalfLaurent(dict(zip(exponents, values)))


long_pairs = st.lists(st.tuples(long_polys(), long_polys()), min_size=1, max_size=4)
# from 2^62 up, of either sign: coefficients and products near and past a
# signed 64-bit digit
huge_coeffs = st.one_of(
    st.integers(2**62, 2**64), st.integers(-(2**64), -(2**62)), nonzero_coeffs)
# the largest signed 64-bit digit
DIGIT_MAX = (1 << 63) - 1


class TestPackedDot:
    """dot on long operands, on coefficients near and past 2^63, and on mixed
    parities and sparse operands, the cases an evaluation at t = 2^64 would
    have to guard: the dict loop against `schoolbook` and `fold`."""

    @given(long_pairs)
    def test_long_pairs_are_packed_and_exact(self, terms):
        xs, ys = [x for x, _ in terms], [y for _, y in terms]
        result = dot(xs, ys)
        assert result == fold(xs, ys, schoolbook) == fold(xs, ys)
        assert all(c for _, c in result.items())

    @given(st.lists(st.tuples(long_polys(huge_coeffs), long_polys(huge_coeffs)),
                    min_size=1, max_size=3))
    def test_coefficients_near_and_past_2_63(self, terms):
        xs, ys = [x for x, _ in terms], [y for _, y in terms]
        assert dot(xs, ys) == dot(ys, xs) == fold(xs, ys, schoolbook)

    def test_pairs_past_the_digit_bound_take_the_dict_branch(self):
        ones = HalfLaurent({2 * k: 1 for k in range(10)})
        for peak in (2**63, 2**63 - 1, 2**62):
            big = HalfLaurent({2 * k - 5: -peak for k in range(10)})
            result = dot([big], [ones])
            assert result == schoolbook(big, ones)
            assert result.coefficient(13) == -10 * peak

    def test_digits_at_the_edge_of_the_bound(self):
        # the middle coefficient of one product is -10 * peak, 8 above -2^63,
        # and that of the sum of two past it
        peak = DIGIT_MAX // 10
        big = HalfLaurent({2 * k - 5: -peak for k in range(10)})
        ones = HalfLaurent({2 * k: 1 for k in range(10)})
        assert dot([big], [ones]).coefficient(13) == -10 * peak
        result = dot([big, -big], [ones, -ones])
        assert result == 2 * schoolbook(big, ones)
        assert result.coefficient(13) == -20 * peak

    @given(long_polys(), long_polys())
    def test_cancellation_across_branches_is_zero(self, x, y):
        # x*y and x*(-y), then with x scaled so that a product's coefficients
        # near or pass 2^63: the sum is the zero polynomial either way
        peak = max(abs(c) for _, c in x.items()) * max(abs(c) for _, c in y.items())
        share = DIGIT_MAX // (peak * min(len(x.items()), len(y.items())))
        for f in (x, x * share, x * (share + 1)):
            result = dot([f, f], [y, -y])
            assert result == ZERO
            assert result.support() == () and not result.items()

    @given(long_pairs, pairs, st.integers(2**62, 2**64), st.sampled_from((1, -1)))
    def test_one_call_mixes_both_branches(self, long, short, big, sign):
        # long pairs, short ones and one far past 2^63, interleaved
        past = (long[0][0] * (sign * big * big), long[0][1])
        terms = [t for pair in zip(long, short) for t in pair] + long[len(short):] + [past]
        xs, ys = [x for x, _ in terms], [y for _, y in terms]
        result = dot(xs, ys)
        assert result == fold(xs, ys, schoolbook)
        assert all(c for _, c in result.items())

    @given(long_polys(), st.booleans())
    def test_zero_operands(self, f, zero_first):
        pair = (ZERO, f) if zero_first else (f, ZERO)
        assert dot(*zip(pair)) == ZERO
        assert dot(*zip(pair, (f, f))) == schoolbook(f, f)
        assert dot(*zip(pair, (f, f))).support() == schoolbook(f, f).support()

    def test_mixed_parity_operand_is_multiplied_term_by_term(self):
        mixed = HalfLaurent({k: 1 for k in range(-20, 20)})
        f = HalfLaurent({2 * k: k - 7 for k in range(20)})
        assert dot([mixed, f], [f, mixed]) == 2 * schoolbook(mixed, f)

    def test_sparse_operand_is_multiplied_term_by_term(self):
        # 10 terms over 201 exponents of one parity
        sparse = HalfLaurent({20 * k: k + 1 for k in range(10)})
        f = HalfLaurent({2 * k: 1 for k in range(10)})
        assert dot([sparse], [f]) == schoolbook(sparse, f)

    @given(long_polys(), long_polys())
    def test_packed_form_changes_nothing_observable(self, x, y):
        # a product leaves its operands as they were
        fresh = HalfLaurent(dict(x.items()))
        before = (hash(x), x.to_json(), x.pretty())
        first = dot([x], [y])
        assert (hash(x), x.to_json(), x.pretty()) == before
        assert x == fresh and hash(x) == hash(fresh)
        assert fresh == x
        assert dot([x], [y]) == dot([y], [x]) == first == schoolbook(x, y)
        assert dot([fresh], [y]) == first
        assert x * y == y * x == first
        assert x + y == fresh + y and x - x == ZERO


class TestBar:
    def test_negates_exponents(self):
        assert (t_power(1) - 1).bar() == t_power(-1) - 1

    def test_constants_fixed(self):
        assert hl({0: 5}).bar() == hl({0: 5})

    @given(polys)
    def test_involution(self, f):
        assert f.bar().bar() == f

    @given(polys, polys)
    def test_ring_homomorphism(self, f, g):
        assert (f * g).bar() == f.bar() * g.bar()
        assert (f + g).bar() == f.bar() + g.bar()


class TestMaxAbsCoefficient:
    def test_zero_rows(self):
        assert max_abs_coefficient([]) == max_abs_coefficient([[ZERO], []]) == 0

    @given(st.lists(st.lists(polys, max_size=4), max_size=4))
    def test_matches_the_items(self, rows):
        assert max_abs_coefficient(rows) == max(
            (abs(c) for row in rows for f in row for _, c in f.items()), default=0)


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

    @given(polys, wide_sparse_polys)
    def test_mul_roundtrip_wide_sparse_divisor(self, q, g):
        assert exact_div(q * g, g) == q

    @given(polys, st.dictionaries(exps, nonzero_coeffs, min_size=2, max_size=5).map(HalfLaurent),
           monomials)
    def test_monomial_remainder_raises(self, q, g, r):
        # a monomial is a unit, so a g of two or more terms never divides it
        with pytest.raises(NonExactDivision):
            exact_div(q * g + r, g)

    def test_wide_sparse_divisor_off_valuation_zero(self):
        g = hl({-7: 3, 93: 1, 191: -2})
        q = hl({-5: 1, 0: -4, 6: 2})
        assert exact_div(q * g, g) == q
        with pytest.raises(NonExactDivision):
            exact_div(q * g + t_half_power(250), g)


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
        {str(MAX_EXPONENT + 1): 1},
        {str(-MAX_EXPONENT - 1): 1},
        # a zero coefficient does not excuse its key
        {"0": 1, "2000000000": 0},
    ])
    def test_from_json_rejects_inexact_values(self, obj):
        with pytest.raises(DataFormatError):
            HalfLaurent.from_json(obj)

    # each distinct exponent key is decoded once per process; a key equal to
    # an accepted one, or hashing like it, must still be judged on its own
    @pytest.mark.parametrize("accepted, rejected, message", [
        ({1: 1}, {True: 1}, "exponent key True is not an integer"),
        ({1: 1}, {1.0: 1}, "exponent key 1.0 is not an integer"),
        ({"1": 1}, {"01": 1}, "exponent key '01' is not an integer"),
        ({"1": 1}, {"+1": 1}, "exponent key '+1' is not an integer"),
        ({"1": 1}, {" 1": 1}, "exponent key ' 1' is not an integer"),
        ({"1": 1}, {"1": True}, "a coefficient must be an integer, got True"),
        ({"1": 1}, {"1": 1.0}, "a coefficient must be an integer, got 1.0"),
    ])
    def test_decode_after_the_accepted_twin(self, accepted, rejected, message):
        for _ in range(2):
            assert HalfLaurent.from_json(accepted) == t_half_power(1)
            with pytest.raises(DataFormatError, match=re.escape(message)):
                HalfLaurent.from_json(rejected)

    def test_exponent_checked_before_coefficient(self):
        with pytest.raises(DataFormatError, match="exponent key '01'"):
            HalfLaurent.from_json({"01": 1.5})

    # of two bad terms, the first in key order is named, whether or not the
    # good keys were decoded before
    @pytest.mark.parametrize("obj, message", [
        ({"0": 1.5, "01": 1}, "a coefficient must be an integer, got 1.5"),
        ({"01": 1, "0": 1.5}, "exponent key '01' is not an integer"),
        ({"0": 1, "1": True, "2": 1.5}, "a coefficient must be an integer, got True"),
        ({"2": 1.5, "0": 1, "1": True}, "a coefficient must be an integer, got 1.5"),
    ])
    def test_the_first_bad_term_is_named(self, obj, message):
        for _ in range(2):
            with pytest.raises(DataFormatError, match=re.escape(message)):
                HalfLaurent.from_json(obj)
            assert HalfLaurent.from_json({"0": 1, "1": 0, "2": -1}) == ONE - t_power(1)

    def test_more_distinct_keys_than_the_memo_holds(self):
        exponents = range(-2500, 2500)
        expected = HalfLaurent(dict(zip(exponents, range(1, 5001))))
        for _ in range(2):
            assert HalfLaurent.from_json(
                {str(e): v for e, v in zip(exponents, range(1, 5001))}) == expected
        assert len(laurent._EXPONENTS) <= 4096

    def test_two_keys_for_one_exponent_the_last_wins(self):
        assert HalfLaurent.from_json({"1": 1}) == t_half_power(1)
        assert HalfLaurent.from_json({1: 1, "1": 0}) == ZERO
        assert HalfLaurent.from_json({"1": 0, 1: 2}) == 2 * t_half_power(1)

    def test_exponent_bound_inclusive(self):
        for e in (MAX_EXPONENT, -MAX_EXPONENT):
            assert HalfLaurent.from_json({str(e): 1}) == t_half_power(e)

    @pytest.mark.parametrize("coeffs", [
        {2.7: 1},
        {"3": 1},
        {0: 1.5},
        {True: 1},
        {0: True},
    ])
    def test_constructor_takes_ints_only(self, coeffs):
        with pytest.raises(TypeError):
            HalfLaurent(coeffs)

    def test_ints_mix_but_bools_do_not(self):
        assert ONE + 1 == 2 * ONE and 1 - ONE == ZERO and ONE == 1
        for op in (lambda: ONE + True, lambda: True + ONE, lambda: ONE - False,
                   lambda: True - ONE, lambda: ONE * True, lambda: False * ONE):
            with pytest.raises(TypeError):
                op()
        assert ONE != True and ZERO != False
        assert not ONE == True

    def test_decode_int(self):
        assert decode_int(-7, "x") == -7
        for bad in (True, 1.0, "1", None):
            with pytest.raises(DataFormatError):
                decode_int(bad, "x")

    def test_decode_str(self):
        assert decode_str("2.1", "x") == "2.1"
        for bad in (None, 5, True, ["a"]):
            with pytest.raises(DataFormatError):
                decode_str(bad, "x")
