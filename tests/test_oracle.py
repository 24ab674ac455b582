from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from lsalgo.laurent import ONE, ZERO, t_power
from lsalgo.oracle import charge, kostka_foulkes, ssyt_enumerate
from lsalgo.weyl import Partition, SizeMismatch, partitions_of
from lsalgo.blockdata import dominates

from conftest import charge_by_subwords, ssyt_by_cells, value_at_one

P = lambda *parts: Partition(tuple(parts))


def q_kostant_kostka(lam: tuple, mu: tuple, n: int) -> dict[int, int]:
    """Second independent oracle: the q-analogue of weight multiplicity,
    an alternating sum over the Weyl group of q-graded counts of ways to
    write w(lam+rho)-(mu+rho) as a sum of positive roots.  Positive roots
    of the type-A root system act as intervals on prefix sums, which makes
    the partition count a small memoized recursion."""
    lam = tuple(lam) + (0,) * (n - len(lam))
    mu = tuple(mu) + (0,) * (n - len(mu))
    rho = tuple(range(n - 1, -1, -1))
    intervals = [(i, j) for i in range(n) for j in range(i + 1, n)]

    @lru_cache(maxsize=None)
    def graded_count(profile, idx):
        if all(s == 0 for s in profile):
            return ((0, 1),)
        if idx < 0:
            return ()
        i, j = intervals[idx]
        cap = min(profile[m] for m in range(i, j))
        out: dict[int, int] = {}
        for k in range(cap + 1):
            reduced = tuple(profile[m] - (k if i <= m < j else 0)
                            for m in range(n - 1))
            for e, c in graded_count(reduced, idx - 1):
                out[e + k] = out.get(e + k, 0) + c
        return tuple(sorted(out.items()))

    shifted_lam = tuple(a + b for a, b in zip(lam, rho))
    shifted_mu = tuple(a + b for a, b in zip(mu, rho))
    total: dict[int, int] = {}
    for perm in permutations(range(n)):
        sign = (-1) ** sum(1 for a in range(n) for b in range(a + 1, n)
                           if perm[a] > perm[b])
        v = tuple(shifted_lam[p] - shifted_mu[i] for i, p in enumerate(perm))
        profile, running, feasible = [], 0, True
        for x in v[:-1]:
            running += x
            if running < 0:
                feasible = False
                break
            profile.append(running)
        if not feasible or sum(v) != 0:
            continue
        for e, c in graded_count(tuple(profile), len(intervals) - 1):
            total[e] = total.get(e, 0) + sign * c
    return {e: c for e, c in sorted(total.items()) if c}


def rows_of(word: tuple[int, ...], shape: Partition) -> list[tuple[int, ...]]:
    """The rows, top to bottom, of the tableau of this shape whose reading
    word (rows bottom to top, each left to right) is word."""
    rows, end = [], len(word)
    for length in shape.parts:
        rows.append(word[end - length:end])
        end -= length
    return rows


class TestEnumeration:
    def test_single_tableau(self):
        out = ssyt_enumerate(P(2), P(1, 1))
        assert out == [(1, 2)]

    def test_two_tableaux(self):
        # rows (1, 2) over (3,), then (1, 3) over (2,): each read bottom up
        out = ssyt_enumerate(P(2, 1), P(1, 1, 1))
        assert out == [(3, 1, 2), (2, 1, 3)]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_words_are_semistandard_of_the_given_shape_and_content(self, n):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for word in ssyt_enumerate(lam, mu):
                    assert len(word) == lam.n, (lam, mu, word)
                    rows = rows_of(word, lam)
                    for row in rows:
                        assert all(a <= b for a, b in zip(row, row[1:])), (lam, mu, word)
                    for upper, lower in zip(rows, rows[1:]):
                        assert all(a < b for a, b in zip(upper, lower)), (lam, mu, word)
                    content = [word.count(v) for v in range(1, max(word) + 1)]
                    assert tuple(content) == mu.parts, (lam, mu, word)

    def test_superstandard_unique(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                assert len(ssyt_enumerate(lam, lam)) == 1

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            ssyt_enumerate(P(2), P(1, 1, 1))

    def test_none_when_not_dominating(self):
        assert ssyt_enumerate(P(2, 2), P(3, 1)) == []

    def test_deterministic_order(self):
        assert ssyt_enumerate(P(2, 1), P(1, 1, 1)) == ssyt_enumerate(P(2, 1), P(1, 1, 1))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_same_words_as_the_cell_by_cell_reference(self, n):
        # the strip order differs from the reference's from n = 6 on
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                words = ssyt_enumerate(lam, mu)
                reference = ssyt_by_cells(lam, mu)
                assert len(set(words)) == len(words), (lam, mu)
                assert set(words) == set(reference), (lam, mu)
                if n <= 5:
                    assert words == reference, (lam, mu)


class TestCharge:
    def test_row_word_12(self):
        assert charge((1, 2)) == 1

    def test_single_letter(self):
        assert charge((1, 1, 1)) == 0

    def test_charges_of_standard_pair(self):
        charges = {charge(t) for t in ssyt_enumerate(P(2, 1), P(1, 1, 1))}
        assert charges == {1, 2}

    def test_superstandard_has_charge_zero(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                (t,) = ssyt_enumerate(lam, lam)
                assert charge(t) == 0

    def test_increasing_row(self):
        for n in range(1, 7):
            assert charge(tuple(range(1, n + 1))) == n * (n - 1) // 2

    @pytest.mark.parametrize("word", [(2,), (1, 2, 2)], ids=["no-1", "two-2s-one-1"])
    def test_content_not_a_partition(self, word):
        # reading words of semistandard fillings, but charge needs weakly
        # decreasing letter multiplicities
        with pytest.raises(ValueError, match="not a partition"):
            charge(word)

    @pytest.mark.parametrize("word", [(0,), (1, 0), (2, 1, 0, 1), (1, -1)],
                             ids=["only-0", "trailing-0", "inner-0", "negative"])
    def test_letter_below_1(self, word):
        # a 0 would read as a picked letter and be dropped unseen
        with pytest.raises(ValueError, match="letter below 1"):
            charge(word)


def shuffled_words(mu: Partition):
    return st.permutations([letter for letter, m in enumerate(mu.parts, 1) for _ in range(m)])


CONTENTS = [mu for n in range(1, 11) for mu in partitions_of(n)]


@given(st.sampled_from(CONTENTS).flatmap(shuffled_words))
def test_charge_matches_subword_oracle_on_shuffled_words(word):
    assert charge(tuple(word)) == charge_by_subwords(tuple(word))


class TestKostkaFoulkes:
    def test_column_content(self):
        q = t_power(1)
        assert kostka_foulkes(P(2), P(1, 1)) == q

    def test_diagonal_is_one(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                assert kostka_foulkes(lam, lam) == ONE

    def test_standard_content(self):
        q = t_power(1)
        assert kostka_foulkes(P(2, 1), P(1, 1, 1)) == q + q**2

    def test_known_values(self):
        q = t_power(1)
        assert kostka_foulkes(P(2, 2), P(2, 1, 1)) == q
        assert kostka_foulkes(P(3, 1), P(2, 1, 1)) == q + q**2
        assert kostka_foulkes(P(2, 2), P(1, 1, 1, 1)) == q**2 + q**4
        # q-analogue hook-length check: q^(n of conjugate) * [4]_q! / prod [hook]_q
        assert kostka_foulkes(P(3, 1), P(1, 1, 1, 1)) == q**3 + q**4 + q**5
        assert kostka_foulkes(P(2, 1, 1), P(1, 1, 1, 1)) == q + q**2 + q**3

    def test_evaluation_counts_tableaux(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    value = kostka_foulkes(lam, mu)
                    assert value_at_one(value) == len(ssyt_enumerate(lam, mu))

    def test_vanishing_matches_dominance(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    vanishes = kostka_foulkes(lam, mu) == ZERO
                    assert vanishes == (not dominates(lam, mu))

    def test_single_row_closed_form(self):
        for n in range(1, 7):
            for mu in partitions_of(n):
                assert kostka_foulkes(P(n), mu) == t_power(mu.n_statistic())

    def test_nonnegative_coefficients(self):
        for lam in partitions_of(6):
            for mu in partitions_of(6):
                assert all(c > 0 for _, c in kostka_foulkes(lam, mu).items())

    @pytest.mark.parametrize("n", range(1, 6))
    def test_against_q_kostant_oracle(self, n):
        # the charge statistic and the alternating q-Kostant sum are
        # independent routes to the same polynomials
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if not dominates(lam, mu):
                    continue
                by_charge = {e // 2: c for e, c in kostka_foulkes(lam, mu).items()}
                assert by_charge == q_kostant_kostka(lam.parts, mu.parts, n)

    def test_against_q_kostant_oracle_n6_spots(self):
        for lam, mu in [((5, 1), (3, 2, 1)), ((4, 2), (2, 2, 2)),
                        ((3, 2, 1), (2, 2, 1, 1)), ((4, 1, 1), (2, 2, 1, 1))]:
            by_charge = {e // 2: c
                         for e, c in kostka_foulkes(P(*lam), P(*mu)).items()}
            assert by_charge == q_kostant_kostka(lam, mu, 6)
