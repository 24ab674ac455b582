"""The int-list Weyl kernels against the HalfLaurent and partition forms
they replaced, kept in conftest as oracles, and the longest series the
command line allows against a count that shares no code with them.

Every check here raises without `assert` statements in the library, so the
file also runs under `python -O`."""

import json
from operator import mul

import pytest
from hypothesis import given, strategies as st

from lsalgo import cli
from lsalgo.laurent import NonExactDivision, exact_div
from lsalgo.weyl import _quotient_series, mn_character, partitions_of, perm_molien_det

from conftest import in_q, inverse_series_by_terms, mn_by_partitions, molien_det_product


@pytest.mark.parametrize("n", range(1, 10))
def test_mn_matches_partition_oracle(n):
    for lam in partitions_of(n):
        for rho in partitions_of(n):
            assert mn_character(lam, rho) == mn_by_partitions(lam.parts, rho.parts)


@pytest.mark.parametrize("n", range(1, 13))
def test_perm_molien_det_matches_product_oracle(n):
    for rho in partitions_of(n):
        assert in_q(perm_molien_det(rho)) == molien_det_product(rho)


@given(st.lists(st.integers(-10**6, 10**6), max_size=30), st.integers(1, 60))
def test_inverse_series_inverts(tail, m):
    f = (1, *tail)
    inv = _quotient_series((1,), f, m)
    assert len(inv) == m
    for k in range(m):
        assert sum(map(mul, f[:k + 1], reversed(inv[:k + 1]))) == (k == 0)
    assert inv == inverse_series_by_terms(f, m)


# coefficients beyond a machine word, and divisors of up to 30 terms
huge = st.integers(-(2**70), 2**70)
series = st.lists(huge, max_size=30).map(tuple)
divisors = st.lists(huge, max_size=29).map(lambda tail: (1, *tail))
# the divisors of a Molien determinant's length: no zero leading coefficient
trimmed_divisors = divisors.filter(lambda f: f[-1])


def times(g, f):
    """The product of two coefficient tuples, in full."""
    out = [0] * (len(g) + len(f) - 1) if g and f else []
    for i, x in enumerate(g):
        for j, y in enumerate(f):
            out[i + j] += x * y
    return out


@given(series, divisors, st.integers(1, 60))
def test_quotient_times_divisor_is_the_dividend(g, f, m):
    quotient = _quotient_series(g, f, m)
    assert len(quotient) == m
    product = times(quotient, f)
    assert [product[k] for k in range(m)] == [g[k] if k < len(g) else 0 for k in range(m)]


@given(series, divisors, st.integers(0, 30))
def test_exact_quotient_is_returned_padded(h, f, extra):
    m = len(h) + extra
    if m:
        assert _quotient_series(tuple(times(h, f)), f, m) == (*h, *[0] * extra)


@given(series, trimmed_divisors, st.booleans())
def test_nonzero_tail_exactly_when_exact_div_raises(g, f, multiple):
    # for r = deg f and top >= deg g, r, g / f to top + 1 terms is exact iff
    # its last r terms vanish: the rule that certifies the coinvariant
    # characters; half the draws are multiples of f, so both outcomes occur
    if multiple:
        g = tuple(times(g, f))
    r = len(f) - 1
    top = max(len(g), len(f)) - 1
    quotient = _quotient_series(g, f, top + 1)
    try:
        expected = exact_div(in_q(g), in_q(f))
    except NonExactDivision:
        assert any(quotient[top + 1 - r:])
    else:
        assert not any(quotient[top + 1 - r:])
        assert in_q(quotient) == expected


def partitions_into_parts_at_most(n: int, max_k: int) -> list[int]:
    """Coefficients of prod_{i <= n} 1/(1 - q^i) through q^max_k: the ways
    to make k from coins of values 1..n."""
    ways = [1] + [0] * max_k
    for coin in range(1, n + 1):
        for k in range(coin, max_k + 1):
            ways[k] += ways[k - coin]
    return ways


@pytest.mark.parametrize("n", [8, 12])
def test_trivial_pair_at_the_argument_bounds(capsys, n):
    # Hom(triv, triv) is the invariant ring, polynomial on degrees 1..n
    argv = ["exthom", "--sn", str(n), "--chi", str(n), "--psi", str(n), "--max-k", "1000"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["dims"] == partitions_into_parts_at_most(n, 1000)
