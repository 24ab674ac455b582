import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from lsalgo import blockdata
from lsalgo.laurent import ONE, ZERO, HalfLaurent
from lsalgo.blockdata import (
    BlockData,
    DataFormatError,
    Dataset,
    OrbitInfo,
    SimpleLabel,
    Violation,
    block_from_json,
    block_to_json,
    build_springer_block_a,
    closure_below,
    dataset_from_json,
    dominance_covers,
    dominates,
    load_dataset,
    orbit_dim_type_a,
    save_dataset,
    validate_block,
    validate_dataset,
    write_json,
)
from lsalgo.weyl import Partition, SizeMismatch, partitions_of

from conftest import DATASETS, singleton_cuspidal_block, t_power, top_first_chain

P = lambda *parts: Partition(tuple(parts))


def replace_omega(block: BlockData, i: int, j: int, value: HalfLaurent) -> BlockData:
    omega = [list(row) for row in block.omega]
    omega[i][j] = value
    return BlockData(block.name, block.orbits, block.labels,
                     tuple(tuple(row) for row in omega), block.provenance)


class TestOrbitDim:
    def test_zero_orbit(self):
        for n in range(1, 7):
            assert orbit_dim_type_a(Partition((1,) * n)) == 0

    def test_regular_gl2(self):
        assert orbit_dim_type_a(P(2)) == 2

    def test_subregular_gl3(self):
        assert orbit_dim_type_a(P(2, 1)) == 4


class TestDominance:
    def test_examples(self):
        assert dominates(P(2, 1), P(1, 1, 1))
        assert not dominates(P(2, 2), P(3, 1))
        assert dominates(P(3, 1), P(3, 1))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            dominates(P(2), P(1, 1, 1))

    def test_antisymmetric(self):
        for lam in partitions_of(6):
            for mu in partitions_of(6):
                if lam != mu and dominates(lam, mu):
                    assert not dominates(mu, lam)

    def test_covers_n4(self):
        covers = dominance_covers(4)
        assert covers[P(4)] == (P(3, 1),)
        assert covers[P(2, 1, 1)] == (P(1, 1, 1, 1),)
        assert covers[P(2, 2)] == (P(2, 1, 1),)

    def test_incomparable_pair_n6(self):
        assert not dominates(P(3, 1, 1, 1), P(2, 2, 2))
        assert not dominates(P(2, 2, 2), P(3, 1, 1, 1))


class TestSpringerBlock:
    def test_gl2_omega(self):
        block = build_springer_block_a(2)
        assert block.label_ids() == ("1.1", "2")
        tinv = t_power(-1)
        assert block.omega == ((ONE, tinv), (tinv, ONE))

    def test_gl3_corner(self):
        block = build_springer_block_a(3)
        ids = block.label_ids()
        assert block.omega[ids.index("3")][ids.index("1.1.1")] == t_power(-3)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sign_diagonal_is_one(self, n):
        block = build_springer_block_a(n)
        i = block.label_ids().index(".".join(["1"] * n))
        assert block.omega[i][i] == ONE

    @pytest.mark.parametrize("n", range(1, 7))
    def test_validates(self, n):
        assert validate_block(build_springer_block_a(n)) == []

    @pytest.mark.parametrize("n", range(1, 7))
    def test_entries_have_no_positive_powers(self, n):
        block = build_springer_block_a(n)
        for row in block.omega:
            for value in row:
                assert all(e <= 0 for e, _ in value.items())

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dimension_monotone_along_dominance(self, n):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if lam != mu and dominates(lam, mu):
                    assert orbit_dim_type_a(mu) < orbit_dim_type_a(lam)

    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            build_springer_block_a(9)
        with pytest.raises(ValueError):
            build_springer_block_a(0)

    def test_label_count_n6(self):
        assert len(build_springer_block_a(6).labels) == 11


class TestValidation:
    def test_asymmetric_omega(self):
        block = replace_omega(build_springer_block_a(3), 0, 1, t_power(5))
        kinds = {v.kind for v in validate_block(block)}
        assert "SymmetryViolation" in kinds

    def test_non_monotone_dims(self):
        block = build_springer_block_a(2)
        orbits = (OrbitInfo("1.1", 7, ()), block.orbits[1])
        broken = BlockData(block.name, orbits, block.labels, block.omega)
        kinds = {v.kind for v in validate_block(broken)}
        assert "DimMonotonicityViolation" in kinds

    def test_non_monotone_dims_lists_each_bad_cover(self):
        # one cover breaks the dims; the closure pair (a, c) through b is not
        # reported again
        orbits = (OrbitInfo("a", 5, ("b",)), OrbitInfo("b", 1, ("c",)), OrbitInfo("c", 7))
        block = BlockData("zigzag", orbits, (SimpleLabel("x", "c"),), ((ONE,),))
        assert [str(v) for v in validate_block(block)] == [
            "DimMonotonicityViolation: orbit 'c' (dim 7) lies below 'b' (dim 1)"]

    @pytest.mark.parametrize("orbits, expected", [
        ((OrbitInfo("y", 1, ("m",)), OrbitInfo("x", 2, ("m",)), OrbitInfo("m", 5)),
         ["'m' (dim 5) lies below 'y' (dim 1)", "'m' (dim 5) lies below 'x' (dim 2)"]),
        ((OrbitInfo("top", 1, ("z", "a")), OrbitInfo("z", 4), OrbitInfo("a", 3)),
         ["'z' (dim 4) lies below 'top' (dim 1)", "'a' (dim 3) lies below 'top' (dim 1)"]),
    ], ids=["orbit-order", "cover-order"])
    def test_two_bad_covers_in_orbit_then_cover_order(self, orbits, expected):
        block = BlockData("two-bad", orbits, (SimpleLabel("x", orbits[-1].id),), ((ONE,),))
        assert [str(v) for v in validate_block(block)] == [
            f"DimMonotonicityViolation: orbit {pair}" for pair in expected]

    def test_repeated_orbit_id_takes_the_covers_of_the_last(self):
        # the cycle search reads the covers of the last 'A'; the dims check
        # reads each orbit's own covers, so the first 'A', which lists none,
        # is not compared with 'B'
        orbits = (OrbitInfo("A", 1, ()), OrbitInfo("A", 9, ("B",)), OrbitInfo("B", 3, ()))
        block = BlockData("repeated", orbits, (SimpleLabel("x", "B"),), ((ONE,),))
        assert [str(v) for v in validate_block(block)] == [
            "DuplicateId: duplicate orbit ids in block 'repeated'"]

    def test_unknown_orbit(self):
        labels = (SimpleLabel("a", "nowhere"),)
        block = BlockData("bad", (OrbitInfo("o", 0),), labels, ((ONE,),))
        kinds = {v.kind for v in validate_block(block)}
        assert "UnknownOrbit" in kinds

    def test_poset_cycle(self):
        orbits = (OrbitInfo("a", 0, ("b",)), OrbitInfo("b", 2, ("a",)))
        labels = (SimpleLabel("x", "a"), SimpleLabel("y", "b"))
        block = BlockData("cyclic", orbits, labels, ((ONE, ZERO), (ZERO, ONE)))
        kinds = {v.kind for v in validate_block(block)}
        assert "PosetCycle" in kinds

    def test_duality_not_involution(self):
        labels = (SimpleLabel("a", "o", "triv", "b"),
                  SimpleLabel("b", "o", "triv", "b"))
        block = BlockData("bad", (OrbitInfo("o", 0),), labels,
                          ((ONE, ZERO), (ZERO, ONE)))
        kinds = {v.kind for v in validate_block(block)}
        assert "DualityViolation" in kinds

    def test_omega_not_dual_invariant(self):
        labels = (SimpleLabel("a", "o", "L", "b"), SimpleLabel("b", "o", "Ldual", "a"))
        omega = ((ONE, ZERO), (ZERO, 2 * ONE))  # a/a differs from b/b
        block = BlockData("bad", (OrbitInfo("o", 2),), labels, omega)
        kinds = {v.kind for v in validate_block(block)}
        assert kinds == {"DualityViolation"}

    def test_shape_mismatch(self):
        block = build_springer_block_a(2)
        broken = BlockData(block.name, block.orbits, block.labels, ((ONE,),))
        kinds = {v.kind for v in validate_block(broken)}
        assert "ShapeMismatch" in kinds

    def test_negative_dimension(self):
        block = BlockData("negative", (OrbitInfo("o", -2),), (SimpleLabel("x", "o"),), ((ONE,),))
        assert [str(v) for v in validate_block(block)] == [
            "NegativeDimension: orbit 'o' has dim -2"]

    def test_unknown_cover(self):
        block = BlockData("stray", (OrbitInfo("o", 0, ("nowhere",)),), (SimpleLabel("x", "o"),),
                          ((ONE,),))
        assert [str(v) for v in validate_block(block)] == [
            "UnknownOrbit: orbit 'o' covers unknown 'nowhere'"]

    def test_duals_on_different_orbits(self):
        orbits = (OrbitInfo("lo", 0), OrbitInfo("hi", 2, ("lo",)))
        labels = (SimpleLabel("a", "lo", "triv", "b"), SimpleLabel("b", "hi", "triv", "a"))
        block = BlockData("split", orbits, labels, ((ONE, ZERO), (ZERO, ONE)))
        assert [str(v) for v in validate_block(block)] == [
            "DualityViolation: dual of 'a' sits on a different orbit",
            "DualityViolation: dual of 'b' sits on a different orbit"]

    def test_repeated_label_id_is_one_duplicate(self):
        # which row a repeated id names is ambiguous, so omega's duality is not compared
        labels = (SimpleLabel("x", "o"), SimpleLabel("x", "o"))
        block = BlockData("twice", (OrbitInfo("o", 0),), labels, ((ONE, ZERO), (ZERO, ONE)))
        assert [str(v) for v in validate_block(block)] == [
            "DuplicateId: duplicate label ids in block 'twice'"]
        assert validate_dataset(Dataset((block,))) == validate_block(block)


class TestSingletonBlock:
    def test_construction(self):
        omega = t_power(-2) * (t_power(2) - 1)
        block = singleton_cuspidal_block("one", 2, omega)
        assert validate_block(block) == []
        assert block.omega == ((omega,),)

    def test_dim_zero(self):
        block = singleton_cuspidal_block("pt", 0, ONE)
        assert validate_block(block) == []


# ints beyond 64 bits either way, keys whose string order is not their
# numeric order, and strings with quotes, backslashes, control and non-ASCII
# characters; int-only dicts and lists take the writer's one-join path
INTS = (st.integers() | st.integers(min_value=2**64, max_value=2**200)
        | st.integers(min_value=-2**200, max_value=-2**64))
TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600') | st.characters())
KEYS = st.sampled_from(["-10", "-2", "10", "9"]) | TEXT
# floats include NaN, the infinities, -0.0 and subnormals
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | INTS | st.floats() | TEXT,
    lambda children: (st.lists(children) | st.dictionaries(KEYS, children)
                      | st.lists(INTS) | st.dictionaries(KEYS, INTS | st.booleans())
                      | st.lists(INTS | st.floats())),
    max_leaves=30)


class TestJson:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_block_roundtrip(self, n):
        block = build_springer_block_a(n)
        decoded, cross = block_from_json(block_to_json(block))
        assert decoded == block
        assert cross == []

    def test_dataset_roundtrip(self, tmp_path):
        ds = Dataset((build_springer_block_a(2), singleton_cuspidal_block("s", 2, ONE)))
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.blocks == ds.blocks
        assert validate_dataset(loaded) == []

    def test_deterministic_bytes(self, tmp_path):
        ds = Dataset((build_springer_block_a(3),))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_dataset(ds, p1)
        save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(JSON_VALUES)
    def test_write_json_matches_the_stdlib_encoder(self, value):
        out = io.StringIO()
        write_json(value, out)
        assert out.getvalue() == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [
        1.5, [1, 2.0], {"a": {"b": 0.5}}, [float("nan"), float("inf"), -float("inf"), -0.0],
    ], ids=["float", "float-in-int-list", "nested-float", "non-finite"])
    def test_write_json_writes_floats_as_the_stdlib(self, value):
        out = io.StringIO()
        write_json(value, out)
        assert out.getvalue() == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [
        (1, 2), {1: 2}, {"a": {1: "x"}}, {"a": 1, 2: 3},
    ], ids=["tuple", "int-key", "nested-int-key", "mixed-keys"])
    def test_write_json_rejects_other_values(self, value):
        with pytest.raises(TypeError):
            write_json(value, io.StringIO())

    def test_float_provenance_survives_load_then_save(self, tmp_path):
        # provenance keeps any JSON value, so every decodable file re-saves
        (obj,) = json.loads((DATASETS / "springer_a2.json").read_text())
        obj["provenance"].update(weight=0.5, bounds=[float("-inf"), 1e-300])
        path, again = tmp_path / "a2.json", tmp_path / "again.json"
        path.write_text(json.dumps([obj], indent=2, sort_keys=True) + "\n")
        save_dataset(load_dataset(path), again)
        assert again.read_bytes() == path.read_bytes()

    def test_malformed_raises(self):
        with pytest.raises(DataFormatError):
            dataset_from_json([{"name": "x"}])
        with pytest.raises(DataFormatError):
            dataset_from_json("not a dataset")

    def test_ragged_omega_raises(self):
        obj = block_to_json(build_springer_block_a(2))
        obj["omega"]["entries"][0].append({})
        with pytest.raises(DataFormatError):
            block_from_json(obj)

    def test_duplicate_order_raises(self):
        obj = block_to_json(build_springer_block_a(2))
        obj["omega"]["order"] = ["1.1", "1.1"]
        with pytest.raises(DataFormatError):
            block_from_json(obj)


class TestCrossBlock:
    def full_matrix_file(self, nonzero_cross):
        """springer-a-2 block whose omega order also lists a singleton label."""
        springer = block_to_json(build_springer_block_a(2))
        single = block_to_json(singleton_cuspidal_block("solo", 2, t_power(2) - 1))
        cross_value = {"0": 1} if nonzero_cross else {}
        springer["omega"]["order"].append("cuspidal")
        for row in springer["omega"]["entries"]:
            row.append(dict(cross_value))
        solo_diagonal = single["omega"]["entries"][0][0]
        springer["omega"]["entries"].append(
            [dict(cross_value), dict(cross_value), dict(solo_diagonal)])
        return [springer, single]

    def test_zero_cross_entries_are_valid(self):
        ds = dataset_from_json(self.full_matrix_file(nonzero_cross=False))
        assert len(ds.cross_entries) == 5
        assert validate_dataset(ds) == []

    def test_nonzero_cross_entry_rejected(self):
        ds = dataset_from_json(self.full_matrix_file(nonzero_cross=True))
        kinds = {v.kind for v in validate_dataset(ds)}
        assert "CrossBlockNonzero" in kinds

    def test_unknown_foreign_label(self):
        springer = block_to_json(build_springer_block_a(2))
        springer["omega"]["order"].append("ghost")
        for row in springer["omega"]["entries"]:
            row.append({})
        springer["omega"]["entries"].append([{}, {}, {}])
        ds = dataset_from_json([springer])
        # one violation for the block, not one per entry in ghost's row and column
        assert validate_dataset(ds) == [Violation("UnknownLabel", (
            "omega of block 'springer-a-2' mentions 'ghost', which no block defines"))]

    def test_duplicate_label_across_blocks(self):
        ds = Dataset((build_springer_block_a(2), build_springer_block_a(2)))
        kinds = {v.kind for v in validate_dataset(ds)}
        assert "DuplicateId" in kinds


class TestClosure:
    def test_long_chain_listed_top_first(self):
        # deeper than the interpreter's recursion limit
        block = top_first_chain(1500)
        below = closure_below(block)
        assert below["o0"] == frozenset()
        assert below["o1"] == {"o0"}
        assert below["o700"] == {f"o{i}" for i in range(700)}
        assert len(below["o1499"]) == 1499
        assert validate_block(block) == []

    def test_long_chain_with_its_bottom_above_every_other(self):
        # every closure pair (o_i, o0) breaks the dims, but only the cover does
        chain = top_first_chain(1500)
        orbits = chain.orbits[:-1] + (OrbitInfo("o0", 10**6),)
        block = BlockData(chain.name, orbits, chain.labels, chain.omega)
        assert [str(v) for v in validate_block(block)] == [
            "DimMonotonicityViolation: orbit 'o0' (dim 1000000) lies below 'o1' (dim 2)"]

    def test_validation_builds_no_closure(self, monkeypatch):
        def refuse(block):
            raise AssertionError("validate_block built the closure")

        monkeypatch.setattr(blockdata, "closure_below", refuse)
        assert validate_block(build_springer_block_a(6)) == []
        assert validate_block(top_first_chain(1500)) == []

    def test_cycle_is_named_without_the_orbits_above_it(self):
        orbits = (OrbitInfo("a", 6, ("b",)), OrbitInfo("b", 4, ("c",)),
                  OrbitInfo("c", 2, ("b",)), OrbitInfo("d", 0, ()))
        block = BlockData("cyclic", orbits, (SimpleLabel("x", "d"),), ((ONE,),))
        (violation,) = validate_block(block)
        assert violation.kind == "PosetCycle"
        assert violation.message == "cover relation has a cycle: 'b' covers 'c' covers 'b'"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_cycle_named_is_a_real_cycle(self, data):
        # a random relation on up to 8 orbits, with one planted cycle of any length
        ids = [f"o{i}" for i in range(data.draw(st.integers(1, 8)))]
        covers = {oid: data.draw(st.lists(st.sampled_from(ids), max_size=4)) for oid in ids}
        cycle = data.draw(st.permutations(ids))[:data.draw(st.integers(1, len(ids)))]
        for upper, lower in zip(cycle, cycle[1:] + cycle[:1]):
            covers[upper].append(lower)
        orbits = tuple(OrbitInfo(oid, 0, tuple(covers[oid])) for oid in ids)
        (violation,) = validate_block(BlockData("cyclic", orbits, (), ()))
        prefix = "cover relation has a cycle: "
        assert violation.kind == "PosetCycle" and violation.message.startswith(prefix)
        named = [part.strip("'") for part in violation.message[len(prefix):].split(" covers ")]
        assert len(named) >= 2 and named[0] == named[-1]
        assert all(lower in covers[upper] for upper, lower in zip(named, named[1:]))

    def test_self_cover_is_a_cycle(self):
        block = BlockData("loop", (OrbitInfo("a", 0, ("a",)),), (SimpleLabel("x", "a"),),
                          ((ONE,),))
        assert [str(v) for v in validate_block(block)] == [
            "PosetCycle: cover relation has a cycle: 'a' covers 'a'"]

    def test_springer_closure_matches_dominance(self):
        block = build_springer_block_a(6)
        below = closure_below(block)
        for lam in partitions_of(6):
            for mu in partitions_of(6):
                if lam == mu:
                    continue
                expected = dominates(lam, mu)
                assert (mu.key() in below[lam.key()]) == expected
