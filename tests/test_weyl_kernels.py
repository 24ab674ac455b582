"""The int-list Weyl kernels against the HalfLaurent and partition forms
they replaced, kept in conftest as oracles, and the longest series the
command line allows against a count that shares no code with them."""

import json
from operator import mul

import pytest
from hypothesis import given, strategies as st

from lsalgo import cli
from lsalgo.weyl import _inverse_series, mn_character, partitions_of, perm_molien_det

from conftest import inverse_series_by_terms, mn_by_partitions, molien_det_product


@pytest.mark.parametrize("n", range(1, 10))
def test_mn_matches_partition_oracle(n):
    for lam in partitions_of(n):
        for rho in partitions_of(n):
            assert mn_character(lam, rho) == mn_by_partitions(lam.parts, rho.parts)


@pytest.mark.parametrize("n", range(1, 13))
def test_perm_molien_det_matches_product_oracle(n):
    for rho in partitions_of(n):
        assert perm_molien_det(rho) == molien_det_product(rho)


@given(st.lists(st.integers(-10**6, 10**6), max_size=30), st.integers(1, 60))
def test_inverse_series_inverts(tail, m):
    f = (1, *tail)
    inv = _inverse_series(f, m)
    assert len(inv) == m
    for k in range(m):
        assert sum(map(mul, f[:k + 1], reversed(inv[:k + 1]))) == (k == 0)
    assert inv == inverse_series_by_terms(f, m)


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
