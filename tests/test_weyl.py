import json
from math import factorial

import pytest

from lsalgo.exthom import graded_hom_dims, series_consistency
from lsalgo.laurent import ONE, DataFormatError, NonExactDivision, t_power
from lsalgo.weyl import (
    CharTable,
    IrrData,
    Partition,
    SizeMismatch,
    char_table_sn,
    char_table_sn_rows,
    coinvariant_pairing,
    coinvariant_pairings,
    conjugacy_classes,
    degrees_product,
    mn_character,
    partitions_of,
    perm_molien_det,
)

P = lambda *parts: Partition(tuple(parts))


def hook_length_degree(lam: Partition) -> int:
    """Independent degree oracle: the hook length formula."""
    parts = lam.parts
    conj = lam.conjugate().parts
    product = 1
    for i, row in enumerate(parts):
        for j in range(row):
            product *= (row - j) + (conj[j] - i) - 1
    return factorial(lam.n) // product


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_key_roundtrip(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                assert Partition.from_key(lam.key()) == lam

    @pytest.mark.parametrize("parts", [(2.7, 1), ("3",), (True,), (2, 1.0)])
    def test_parts_must_be_ints(self, parts):
        with pytest.raises(TypeError):
            Partition(parts)

    @pytest.mark.parametrize("key", ["02.1", "2.01", " 2", "+2", "2_0", "", "2.", "1.2", "0.0"])
    def test_from_key_takes_only_canonical_keys(self, key):
        with pytest.raises(ValueError):
            Partition.from_key(key)

    def test_conjugate(self):
        assert P(3, 1).conjugate() == P(2, 1, 1)
        assert P(2, 2).conjugate() == P(2, 2)
        for lam in partitions_of(6):
            assert lam.conjugate().conjugate() == lam

    def test_n_statistic(self):
        assert P(1, 1, 1).n_statistic() == 3
        assert P(3).n_statistic() == 0
        assert P(2, 1).n_statistic() == 1


class TestConjugacyClasses:
    def test_s2(self):
        assert conjugacy_classes(2) == [(P(2), 1), (P(1, 1), 1)]

    def test_s3_sizes(self):
        sizes = {rho.parts: size for rho, size in conjugacy_classes(3)}
        assert sizes == {(1, 1, 1): 1, (2, 1): 3, (3,): 2}

    @pytest.mark.parametrize("n", range(1, 8))
    def test_sizes_sum_to_group_order(self, n):
        assert sum(size for _, size in conjugacy_classes(n)) == factorial(n)


# classical S3 and S4 tables, rows chi_lam, columns by descending-lex cycle type
S3_TABLE = {
    # classes: (3), (2,1), (1,1,1)
    (3,): {(3,): 1, (2, 1): 1, (1, 1, 1): 1},
    (2, 1): {(3,): -1, (2, 1): 0, (1, 1, 1): 2},
    (1, 1, 1): {(3,): 1, (2, 1): -1, (1, 1, 1): 1},
}
S4_TABLE = {
    (4,): {(4,): 1, (3, 1): 1, (2, 2): 1, (2, 1, 1): 1, (1, 1, 1, 1): 1},
    (3, 1): {(4,): -1, (3, 1): 0, (2, 2): -1, (2, 1, 1): 1, (1, 1, 1, 1): 3},
    (2, 2): {(4,): 0, (3, 1): -1, (2, 2): 2, (2, 1, 1): 0, (1, 1, 1, 1): 2},
    (2, 1, 1): {(4,): 1, (3, 1): 0, (2, 2): -1, (2, 1, 1): -1, (1, 1, 1, 1): 3},
    (1, 1, 1, 1): {(4,): -1, (3, 1): 1, (2, 2): 1, (2, 1, 1): -1, (1, 1, 1, 1): 1},
}


class TestMurnaghanNakayama:
    def test_trivial_character(self):
        for n in range(1, 7):
            for rho in partitions_of(n):
                assert mn_character(Partition((n,)), rho) == 1

    def test_std_degree(self):
        assert mn_character(P(2, 1), P(1, 1, 1)) == 2

    def test_std_on_three_cycle(self):
        assert mn_character(P(2, 1), P(3)) == -1

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            mn_character(P(2), P(1, 1, 1))

    @pytest.mark.parametrize("table,n", [(S3_TABLE, 3), (S4_TABLE, 4)])
    def test_against_classical_tables(self, table, n):
        for lam, row in table.items():
            for rho, value in row.items():
                assert mn_character(Partition(lam), Partition(rho)) == value

    @pytest.mark.parametrize("n", range(1, 8))
    def test_degrees_match_hook_lengths(self, n):
        identity = Partition((1,) * n)
        for lam in partitions_of(n):
            assert mn_character(lam, identity) == hook_length_degree(lam)

    def test_sign_character(self):
        # chi on the single-column partition is the sign of the cycle type
        for rho in partitions_of(5):
            sign = (-1) ** (5 - len(rho.parts))
            assert mn_character(P(1, 1, 1, 1, 1), rho) == sign


class TestMolien:
    def test_examples(self):
        q = t_power(1)
        assert perm_molien_det(P(1, 1)) == (ONE - q) * (ONE - q)
        assert perm_molien_det(P(2)) == ONE - q**2
        assert perm_molien_det(P(3, 1)) == (ONE - q**3) * (ONE - q)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_against_matrix_determinant(self, n):
        # independent route: build a representative permutation matrix for
        # each cycle type and take det(1 - q*M) by fraction-free elimination
        from lsalgo.laurent import ZERO
        from conftest import signed_det

        q = t_power(1)
        for rho in partitions_of(n):
            image = {}
            start = 0
            for length in rho:
                for offset in range(length):
                    image[start + offset] = start + (offset + 1) % length
                start += length
            matrix = [
                [
                    (ONE if i == j else ZERO) - (q if image[i] == j else ZERO)
                    for j in range(n)
                ]
                for i in range(n)
            ]
            assert signed_det(matrix) == perm_molien_det(rho)


class TestCharTable:
    def test_s2(self):
        table = char_table_sn(2)
        assert len(table.classes) == 2
        assert len(table.irreducibles) == 2
        assert table.validate() == []

    def test_s3_degrees(self):
        table = char_table_sn(3)
        identity = table.classes[-1]
        assert identity.id == "1.1.1"
        degrees = [irr.values[-1] for irr in table.irreducibles]
        assert degrees == [1, 2, 1]

    def test_s5_sum_of_squares(self):
        table = char_table_sn(5)
        assert len(table.irreducibles) == 7
        identity_index = len(table.classes) - 1
        assert sum(irr.values[identity_index] ** 2 for irr in table.irreducibles) == 120

    @pytest.mark.parametrize("n", range(1, 7))
    def test_invariants(self, n):
        assert char_table_sn(n).validate() == []

    @pytest.mark.parametrize("n", range(1, 7))
    def test_second_orthogonality(self, n):
        table = char_table_sn(n)
        k = len(table.classes)
        for i in range(k):
            for j in range(k):
                dot = sum(irr.values[i] * irr.values[j] for irr in table.irreducibles)
                if i == j:
                    assert dot == table.group_order // table.classes[i].size
                else:
                    assert dot == 0

    def test_rank(self):
        assert char_table_sn(4).rank() == 4

    def test_json_roundtrip(self):
        table = char_table_sn(3)
        assert CharTable.from_json(table.to_json()) == table

    def test_validate_flags_bad_sizes(self):
        table = char_table_sn(2)
        broken = CharTable(3, table.classes, table.irreducibles)
        assert any("group order" in p for p in broken.validate())

    def test_validate_flags_missing_character(self):
        table = char_table_sn(3)
        short = CharTable(6, table.classes, table.irreducibles[:2])
        assert "2 characters for 3 classes" in short.validate()

    def test_validate_flags_repeated_character(self):
        table = char_table_sn(3)
        trivial = table.character("3").values
        rows = tuple(IrrData(irr.id, trivial if irr.id == "1.1.1" else irr.values)
                     for irr in table.irreducibles)
        assert "orthogonality fails for (3, 1.1.1)" in CharTable(6, table.classes, rows).validate()


def sn_pairs(n_max: int):
    return [(n, chi, psi) for n in range(1, n_max + 1)
            for chi in char_table_sn(n).char_ids() for psi in char_table_sn(n).char_ids()]


class TestRestrictedTable:
    """`char_table_sn_rows`, the table `exthom --sn` builds for one pair."""

    @pytest.mark.parametrize("n,chi,psi", sn_pairs(6))
    def test_rows_and_classes_match_the_full_table(self, n, chi, psi):
        full = char_table_sn(n)
        table = char_table_sn_rows(n, (chi, psi))
        assert table.group_order == full.group_order
        assert table.classes == full.classes
        assert table.irreducibles == tuple(irr for irr in full.irreducibles
                                           if irr.id in (chi, psi))
        assert len(table.irreducibles) == (1 if chi == psi else 2)
        assert (graded_hom_dims(table, chi, psi, 12)
                == graded_hom_dims(full, chi, psi, 12))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_full_table_is_the_restriction_to_every_key(self, n):
        full = char_table_sn(n)
        assert char_table_sn_rows(n, full.char_ids()) == full
        assert char_table_sn_rows(n, reversed(full.char_ids())) == full

    def test_unknown_keys_select_nothing(self):
        table = char_table_sn_rows(3, ["9", "2.1", "2.1.1", "02.1"])
        assert table.char_ids() == ("2.1",)
        for key in ("9", "2.1.1", "02.1"):
            with pytest.raises(KeyError) as restricted:
                table.character(key)
            with pytest.raises(KeyError) as full:
                char_table_sn(3).character(key)
            assert str(restricted.value) == str(full.value)
        assert char_table_sn_rows(3, []).irreducibles == ()

    def test_a_proper_restriction_fails_validate(self):
        assert "1 characters for 3 classes" in char_table_sn_rows(3, ["3"]).validate()


class TestDegreesProduct:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_sn_degrees(self, n):
        expected = ONE
        for d in range(1, n + 1):
            expected = expected * (ONE - t_power(d))
        assert degrees_product(char_table_sn(n)) == expected


class TestCoinvariantPairing:
    def test_s2_examples(self):
        table = char_table_sn(2)
        q = t_power(1)
        assert coinvariant_pairing(table, "2", "2") == ONE
        assert coinvariant_pairing(table, "2", "1.1") == q
        assert coinvariant_pairing(table, "1.1", "1.1") == ONE

    def test_s3_top_pairing(self):
        table = char_table_sn(3)
        assert coinvariant_pairing(table, "3", "1.1.1") == t_power(3)

    def test_s3_table(self):
        # full hand-derived pairing table via tensor decompositions
        table = char_table_sn(3)
        q = t_power(1)
        fake_std = q + q**2
        assert coinvariant_pairing(table, "3", "2.1") == fake_std
        assert coinvariant_pairing(table, "2.1", "1.1.1") == fake_std
        assert coinvariant_pairing(table, "2.1", "2.1") == ONE + q + q**2 + q**3

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetric_with_nonnegative_coefficients(self, n):
        table = char_table_sn(n)
        ids = table.char_ids()
        for i, chi in enumerate(ids):
            for psi in ids[i:]:
                value = coinvariant_pairing(table, chi, psi)
                assert value == coinvariant_pairing(table, psi, chi)
                assert all(c > 0 for _, c in value.items())
                assert all(e % 2 == 0 and e >= 0 for e, _ in value.items())

    @pytest.mark.parametrize("n", range(1, 7))
    def test_evaluation_at_one(self, n):
        table = char_table_sn(n)
        identity_index = len(table.classes) - 1
        for chi in table.irreducibles:
            for psi in table.irreducibles:
                value = coinvariant_pairing(table, chi.id, psi.id)
                expected = chi.values[identity_index] * psi.values[identity_index]
                assert value.evaluate_at_one() == expected

    def test_unknown_character(self):
        with pytest.raises(KeyError):
            coinvariant_pairing(char_table_sn(2), "nope", "2")

    @pytest.mark.parametrize("n", range(1, 6))
    def test_batch_matches_one_pair_at_a_time(self, n):
        table = char_table_sn(n)
        pairs = [(chi, psi) for chi in table.char_ids() for psi in table.char_ids()]
        assert coinvariant_pairings(table, pairs) == [
            coinvariant_pairing(table, chi, psi) for chi, psi in pairs]


# B_2, the signed permutations of two coordinates (order 8), on its rank-2
# reflection representation.  Classes: identity, -1, the two sign-change
# reflections, the two coordinate-swap reflections, the two quarter turns.
B2_TABLE_JSON = {
    "group_order": 8,
    "classes": [
        {"id": "e", "size": 1, "molien_det": {"0": 1, "2": -2, "4": 1}},
        {"id": "-1", "size": 1, "molien_det": {"0": 1, "2": 2, "4": 1}},
        {"id": "s", "size": 2, "molien_det": {"0": 1, "4": -1}},
        {"id": "t", "size": 2, "molien_det": {"0": 1, "4": -1}},
        {"id": "r", "size": 2, "molien_det": {"0": 1, "4": 1}},
    ],
    "irreducibles": [
        {"id": "triv", "values": [1, 1, 1, 1, 1]},
        {"id": "sign", "values": [1, 1, -1, -1, 1]},
        {"id": "eps_s", "values": [1, 1, 1, -1, -1]},
        {"id": "eps_t", "values": [1, 1, -1, 1, -1]},
        {"id": "refl", "values": [2, -2, 0, 0, 0]},
    ],
}


class TestB2Table:
    table = CharTable.from_json(B2_TABLE_JSON)

    def pairs(self, table=None):
        ids = (table or self.table).char_ids()
        return [(chi, psi) for chi in ids for psi in ids]

    def test_shape(self):
        assert self.table.group_order == 8
        assert len(self.table.classes) == 5
        assert self.table.rank() == 2
        assert self.table.validate() == []

    def test_degrees_product(self):
        q = t_power(1)
        assert degrees_product(self.table) == (ONE - q**2) * (ONE - q**4)

    def test_series_consistency(self):
        for chi, psi in self.pairs():
            assert series_consistency(self.table, chi, psi, 12)

    def test_pairings_at_one(self):
        degree = {irr.id: irr.values[0] for irr in self.table.irreducibles}
        for chi, psi in self.pairs():
            value = coinvariant_pairing(self.table, chi, psi)
            assert value.evaluate_at_one() == degree[chi] * degree[psi]

    def test_top_degree_is_sign(self):
        # the coinvariant algebra's top degree N = 4 carries the sign character
        assert coinvariant_pairing(self.table, "triv", "sign") == t_power(4)

    def test_altered_class_size_raises(self):
        obj = json.loads(json.dumps(B2_TABLE_JSON))
        obj["classes"][4]["size"] = 3
        broken = CharTable.from_json(obj)
        for chi, psi in self.pairs(broken):
            with pytest.raises(NonExactDivision):
                coinvariant_pairing(broken, chi, psi)
            with pytest.raises(NonExactDivision):
                graded_hom_dims(broken, chi, psi, 8)

    @pytest.mark.parametrize("det", [{"0": 2, "4": 1}, {"0": 1, "3": 1}, {"0": 1, "4": 1, "-2": 1}])
    def test_invalid_molien_determinant_raises(self, det):
        obj = json.loads(json.dumps(B2_TABLE_JSON))
        obj["classes"][4]["molien_det"] = det
        broken = CharTable.from_json(obj)
        with pytest.raises(NonExactDivision):
            coinvariant_pairing(broken, "triv", "triv")
        with pytest.raises(NonExactDivision):
            graded_hom_dims(broken, "triv", "triv", 8)

    @pytest.mark.parametrize("path,value", [
        (("group_order",), 8.0),
        (("group_order",), True),
        (("classes", 2, "size"), 1.9),
        (("irreducibles", 4, "values", 0), 2.0),
        (("irreducibles", 4, "values", 0), "2"),
    ])
    def test_from_json_rejects_inexact_numbers(self, path, value):
        obj = json.loads(json.dumps(B2_TABLE_JSON))
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(DataFormatError):
            CharTable.from_json(obj)

    def test_from_json_rejects_missing_keys(self):
        with pytest.raises(DataFormatError):
            CharTable.from_json({"group_order": 8})
        with pytest.raises(DataFormatError):
            CharTable.from_json([])

    def test_from_json_rejects_ragged_values(self):
        obj = json.loads(json.dumps(B2_TABLE_JSON))
        obj["irreducibles"][2]["values"].pop()
        with pytest.raises(DataFormatError):
            CharTable.from_json(obj)
