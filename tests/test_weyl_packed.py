"""The packed coinvariant pairing against the column-sum pairing it replaced,
kept in conftest as an oracle, on sound tables, on corrupt ones and on
values too large for a machine word; the pack and unpack kernels on their
own; and the inverse determinants across series lengths.

Every check here raises without `assert` statements in the library, so the
file also runs under `python -O`."""

import gc
import json
import time
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from lsalgo import weyl
from lsalgo.laurent import ONE, NonExactDivision, _digit_width, _pack, _unpack, t_power
from lsalgo.weyl import (
    MAX_COINVARIANT_DEGREE,
    CharTable,
    ClassData,
    IrrData,
    _average,
    _packed_average,
    _packing,
    char_table_sn,
    coinvariant_pairing,
    graded_hom_dims,
)

from conftest import coinvariant_pairing_by_columns
from test_weyl import B2_TABLE_JSON

RANK_ZERO_TABLE_JSON = {
    "group_order": 1,
    "classes": [{"id": "e", "size": 1, "molien_det": {"0": 1}}],
    "irreducibles": [{"id": "triv", "values": [1]}],
}


def outcome(f, *args):
    """f(*args), or the type and text of the ArithmeticError it raises."""
    try:
        return f(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)


def all_pairs(table: CharTable) -> list[tuple[str, str]]:
    ids = table.char_ids()
    return [(chi, psi) for chi in ids for psi in ids]


@pytest.mark.parametrize("table", [
    *(pytest.param(char_table_sn(n), id=f"S{n}") for n in range(1, 10)),
    pytest.param(CharTable.from_json(B2_TABLE_JSON), id="B2"),
    pytest.param(CharTable.from_json(RANK_ZERO_TABLE_JSON), id="rank-0"),
])
def test_pairing_matches_column_sums(table):
    for chi, psi in all_pairs(table):
        expected = coinvariant_pairing_by_columns(table, chi, psi)
        assert coinvariant_pairing(table, chi, psi) == expected


def test_changed_value_raises_the_column_sum_message():
    obj = char_table_sn(5).to_json()
    obj["irreducibles"][3]["values"][2] += 1
    table = CharTable.from_json(obj)
    raised = 0
    for chi, psi in all_pairs(table):
        expected = outcome(coinvariant_pairing_by_columns, table, chi, psi)
        assert outcome(coinvariant_pairing, table, chi, psi) == expected
        if isinstance(expected, tuple):
            assert expected[0] is NonExactDivision
            raised += 1
    assert raised


def edited(obj: dict, edit) -> CharTable:
    obj = json.loads(json.dumps(obj))
    edit(obj)
    return CharTable.from_json(obj)


def scale_two_characters(obj):
    # the pairings of either character grow by 2^64, of both by 2^128, and
    # all stay divisible
    for row in obj["irreducibles"][1:3]:
        row["values"] = [v << 64 for v in row["values"]]


def set_one_value_huge(obj):
    obj["irreducibles"][-1]["values"][0] = 2**64 + 1


@pytest.mark.parametrize("edit", [scale_two_characters, set_one_value_huge])
@pytest.mark.parametrize("obj", [char_table_sn(6).to_json(), B2_TABLE_JSON], ids=["S6", "B2"])
def test_values_beyond_a_machine_word(obj, edit):
    table = edited(obj, edit)
    for chi, psi in all_pairs(table):
        expected = outcome(coinvariant_pairing_by_columns, table, chi, psi)
        assert outcome(coinvariant_pairing, table, chi, psi) == expected
    if edit is scale_two_characters:
        base = CharTable.from_json(obj)
        a, b = base.char_ids()[1:3]
        assert coinvariant_pairing(table, a, b) == coinvariant_pairing(base, a, b) * 2**128


def scale_class_sizes_by(factor):
    # every average, hence every pairing, is unchanged, but the Molien
    # inversion is sized by the reflection classes, now factor times larger
    def edit(obj):
        obj["group_order"] *= factor
        for c in obj["classes"]:
            c["size"] *= factor
    return edit


@pytest.mark.parametrize("obj", [char_table_sn(6).to_json(), B2_TABLE_JSON], ids=["S6", "B2"])
def test_top_degree_beyond_the_exponent_bound_is_refused(obj):
    # the unscaled tables, and S_1..S_9, pair: test_pairing_matches_column_sums
    table = edited(obj, scale_class_sizes_by(3**41))
    assert table.validate() == []
    chi = table.char_ids()[0]
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"top = \d+ is beyond {MAX_COINVARIANT_DEGREE}$"):
        coinvariant_pairing(table, chi, chi)
    assert time.perf_counter() - start < 1


def test_top_degree_beyond_the_cap_is_refused_at_once():
    # S_6 with every size times 1000: top = 6 + 15 * 1000 = 15006, far below
    # the decode bound, but its Molien inversion took seconds
    table = edited(char_table_sn(6).to_json(), scale_class_sizes_by(1000))
    assert table.validate() == []
    start = time.perf_counter()
    with pytest.raises(ValueError, match="top = 15006 is beyond"):
        coinvariant_pairing(table, "6", "6")
    assert time.perf_counter() - start < 1


def test_top_degree_below_the_cap_pairs():
    # S_6 with every size times 3: top = 6 + 15 * 3 = 51, every pairing as before
    base = char_table_sn(6)
    table = edited(base.to_json(), scale_class_sizes_by(3))
    for chi, psi in all_pairs(table):
        assert coinvariant_pairing(table, chi, psi) == coinvariant_pairing(base, chi, psi)


def test_a_packing_fault_fails_the_coinvariant_certificate(monkeypatch):
    # with correct packing, the vanishing of each c_w's last r terms and the
    # Molien certificate imply this one; a packed digit that differs from its
    # series is caught by it alone.  Digit 1 of the identity class, of size
    # 1, gains |W|: the certificate reads 1 there, with no remainder
    packing = weyl._packing

    def faulty(table, series):
        packs, width, n_terms = packing(table, series)
        return (*packs[:-1], packs[-1] + (table.group_order << width)), width, n_terms

    monkeypatch.setattr(weyl, "_packing", faulty)
    table = char_table_sn(4)
    assert table.classes[-1].size == 1
    with pytest.raises(NonExactDivision, match="not a polynomial of degree N [+] r"):
        coinvariant_pairing(table, "4", "4")


def test_largest_exthom_sn_table_pairs():
    # S_12: top = 12 + 66 = 78; the trivial and sign characters meet in the
    # top degree N = 66 only
    table = char_table_sn(12)
    assert coinvariant_pairing(table, "12", "1" + ".1" * 11) == t_power(66)
    assert coinvariant_pairing(table, "12", "12") == ONE


signed = st.integers(-(2**80), 2**80)


@given(st.lists(signed, max_size=40))
def test_pack_round_trip(series):
    width = _digit_width(max(map(abs, series), default=0))
    assert _unpack(_pack(series, width), width, len(series)) == series


def test_unpack_leaves_nothing_over():
    width = _digit_width(5)
    with pytest.raises(ArithmeticError, match="does not fit"):
        _unpack(_pack([1, 2, 5], width), width, 2)
    with pytest.raises(ArithmeticError, match="does not fit"):
        _unpack(2**63, width, 1)


@pytest.mark.parametrize("width", [64, 128])
def test_pack_at_the_digit_edges(width):
    low, high = -2 ** (width - 1), 2 ** (width - 1) - 1
    digits = [low, high, 0, 0, 0, high, low, 0, 1, -1, 0, 0]
    value = _pack(digits, width)
    assert value == sum(d << width * k for k, d in enumerate(digits))
    assert _unpack(value, width, len(digits)) == digits
    assert _unpack(value, width, len(digits) + 1) == digits + [0]  # a spare digit
    assert _pack([], width) == 0 and _unpack(0, width, 0) == []
    for bad in ([high + 1], [0, low - 1, 0]):
        with pytest.raises(ArithmeticError, match="does not fit"):
            _pack(bad, width)
    for bad in (high + 1, low - 1):
        with pytest.raises(ArithmeticError, match="does not fit"):
            _unpack(bad, width, 1)


@st.composite
def tables_and_series(draw):
    # any table, consistent or not: sizes, values and order drawn freely
    k = draw(st.integers(1, 5))
    sizes = draw(st.lists(signed, min_size=k, max_size=k))
    table = CharTable(
        draw(st.integers(1, 12)),
        tuple(ClassData(str(i), size, (1,)) for i, size in enumerate(sizes)),
        tuple(IrrData(str(j), tuple(draw(st.lists(signed, min_size=k, max_size=k))))
              for j in range(draw(st.integers(1, 4)))))
    series = tuple(tuple(draw(st.lists(signed, max_size=8))) for _ in range(k))
    return table, series


@given(tables_and_series(), st.data())
def test_packed_average_matches_column_sums(table_and_series, data):
    table, series = table_and_series
    packing = _packing(table, series)
    ids = table.char_ids()
    chi, psi = data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids))
    xv, yv = table.character(chi).values, table.character(psi).values
    for weights in ([c.size for c in table.classes],
                    [c.size * x * y for c, x, y in zip(table.classes, xv, yv)]):
        assert (outcome(_packed_average, table, weights, packing)
                == outcome(_average, table, weights, series))


def test_packing_holds_the_series_when_every_weight_is_zero():
    # class sizes of 0 bound every weighted sum by 0; the width must still
    # hold the packed series' own digits
    table = CharTable(1, (ClassData("0", 0, (1,)), ClassData("1", 0, (1,))),
                      (IrrData("0", (0, 0)),))
    series = ((), (2**63, -(2**80)))
    packing = _packing(table, series)
    assert _packed_average(table, [0, 0], packing) == _average(table, [0, 0], series) == (0, 0)


class TestInverseMemo:
    """`graded_hom_dims` on one table at several lengths: each is a prefix
    of the longest, an inconsistent table raises on every call, and nothing
    keeps a table alive."""

    def test_one_entry_the_longest(self):
        table = replace(char_table_sn(5))
        series = {m: graded_hom_dims(table, "3.2", "2.2.1", m - 1) for m in (7, 30, 12)}
        for m, value in series.items():
            assert value == graded_hom_dims(replace(table), "3.2", "2.2.1", m - 1)
            assert len(value) == m
            assert value == series[30][:m]

    def test_inconsistent_table_raises_on_every_call(self):
        obj = json.loads(json.dumps(B2_TABLE_JSON))
        obj["group_order"] = 4
        broken = CharTable.from_json(obj)
        for max_k in (8, 8, 3):
            with pytest.raises(NonExactDivision, match="class sizes sum to 2 "):
                graded_hom_dims(broken, "triv", "triv", max_k)

    def test_freed_with_the_table(self):
        table = replace(char_table_sn(4))
        graded_hom_dims(table, "4", "4", 9)
        dropped = weakref.ref(table)
        del table
        gc.collect()
        assert dropped() is None
