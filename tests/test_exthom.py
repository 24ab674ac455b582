from math import comb

import pytest

from lsalgo.weyl import CharTable, char_table_sn, graded_hom_dims

from conftest import induced_endo_dims, series_consistency


class TestGradedHomDims:
    def test_s2_diagonal_series(self):
        table = char_table_sn(2)
        assert graded_hom_dims(table, "2", "2", 4) == (1, 1, 2, 2, 3)
        assert graded_hom_dims(table, "1.1", "1.1", 4) == (1, 1, 2, 2, 3)

    def test_s2_off_diagonal(self):
        table = char_table_sn(2)
        # 1/((1-u)^2) - 1/(1-u^2) halved: 0, 1, 1, 2, 2, ...
        assert graded_hom_dims(table, "2", "1.1", 4) == (0, 1, 1, 2, 2)

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError):
            graded_hom_dims(char_table_sn(2), "2", "2", -1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_degree_zero_entries(self, n):
        table = char_table_sn(n)
        for chi in table.char_ids():
            for psi in table.char_ids():
                dims = graded_hom_dims(table, chi, psi, 0)
                assert dims[0] == (1 if chi == psi else 0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_symmetry(self, n):
        table = char_table_sn(n)
        ids = table.char_ids()
        for i, chi in enumerate(ids):
            for psi in ids[i:]:
                a = graded_hom_dims(table, chi, psi, 8)
                b = graded_hom_dims(table, psi, chi, 8)
                assert a == b

    def test_negative_dimension_raises(self):
        # the S_2 classes with a fake character f: (1/2) * (1*1 + 1*(-3)) = -1
        table = CharTable.from_json({**char_table_sn(2).to_json(), "irreducibles": [
            {"id": "a", "values": [1, 1]}, {"id": "f", "values": [1, -3]}]})
        with pytest.raises(ArithmeticError, match="negative graded dimension -1 at degree 0"):
            graded_hom_dims(table, "a", "f", 3)

    def test_full_polynomial_algebra_recovered(self):
        # multiplicity series against the trivial character, weighted by
        # character degrees, must sum to the Molien series of the full
        # polynomial algebra 1/(1-u)^n
        for n in [2, 3, 4]:
            table = char_table_sn(n)
            identity_index = len(table.classes) - 1
            max_k = 8
            total = [0] * (max_k + 1)
            for irr in table.irreducibles:
                degree = irr.values[identity_index]
                dims = graded_hom_dims(table, irr.id, table.irreducibles[0].id, max_k)
                for k in range(max_k + 1):
                    total[k] += degree * dims[k]
            expected = [comb(k + n - 1, n - 1) for k in range(max_k + 1)]
            assert total == expected


class TestEndoDims:
    """The endomorphism dims of the full induced sheaf, summed from the Hom
    dims of every pair of simples."""

    def test_s2_rank2(self):
        assert induced_endo_dims(char_table_sn(2), 1) == (2, 4)

    def test_degree_zero_is_group_order(self):
        for n in [2, 3, 4]:
            table = char_table_sn(n)
            assert induced_endo_dims(table, 0) == (table.group_order,)

    def test_s3_rank3_k2(self):
        assert induced_endo_dims(char_table_sn(3), 2)[2] == 36

    def test_matches_sum_over_pairs(self):
        # |W| independent copies of the degree-k monomials in n variables
        n, max_k = 3, 6
        table = char_table_sn(n)
        assert induced_endo_dims(table, max_k) == tuple(
            table.group_order * comb(k + n - 1, n - 1) for k in range(max_k + 1))


class TestSeriesConsistency:
    def test_s2_cases(self):
        table = char_table_sn(2)
        assert series_consistency(table, "2", "2", 10)
        assert series_consistency(table, "2", "1.1", 10)

    @pytest.mark.parametrize("n", [2, 3])
    def test_all_pairs(self, n):
        table = char_table_sn(n)
        for chi in table.char_ids():
            for psi in table.char_ids():
                assert series_consistency(table, chi, psi, 12)

    def test_detects_corruption(self):
        table = char_table_sn(2)
        # a wrong pairing would break the identity; simulate by comparing
        # mismatched character pairs through a custom check
        dims = graded_hom_dims(table, "2", "2", 6)
        other = graded_hom_dims(table, "2", "1.1", 6)
        assert dims != other
