"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  All comparisons are exact; the stated runtime budgets are asserted.
"""

import json
import time

import pytest

from lsalgo.blockdata import (
    BlockData,
    Dataset,
    block_to_json,
    build_springer_block_a,
    closure_below,
    dominates,
    load_dataset,
    save_dataset,
    validate_block,
    validate_dataset,
)
from lsalgo.cli import main as cli_main
from lsalgo.laurent import ZERO, HalfLaurent
from lsalgo.oracle import kostka_foulkes, ssyt_enumerate
from lsalgo.solver import (
    SingularLambdaBlock,
    dualize_p,
    reconstruct,
    solve,
)
from lsalgo.weyl import char_table_sn, graded_hom_dims, partitions_of

from conftest import (
    DATASETS,
    extension_invariant,
    induced_endo_dims,
    orbit_dim,
    series_consistency,
    singular_lambda_block,
    synthetic_dual_pair,
    t_power,
    value_at_one,
)

SHIPPED_DATASETS = [
    DATASETS / "springer_a2.json",
    DATASETS / "springer_a3.json",
    DATASETS / "synthetic_dual_pair.json",
    DATASETS / "decomposition_a2_dual.json",
]


def report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({description}): {'PASS' if ok else 'FAIL'}")


def shipped_blocks() -> list[BlockData]:
    blocks: list[BlockData] = []
    for path in SHIPPED_DATASETS:
        ds = load_dataset(path)
        assert validate_dataset(ds) == []
        blocks.extend(ds.blocks)
    return blocks


def test_criterion_1_gl2_golden_case(tmp_path, capsys):
    ok = False
    try:
        start = time.monotonic()
        dataset_path = tmp_path / "a2.json"
        result_path = tmp_path / "r2.json"
        assert cli_main(["generate", "springer-a", "--n", "2",
                         "--out", str(dataset_path)]) == 0
        assert cli_main(["solve", str(dataset_path),
                         "--out", str(result_path)]) == 0
        elapsed = time.monotonic() - start
        (result,) = json.loads(result_path.read_text())
        order = result["order"]
        assert order == ["1.1", "2"]
        p = result["p"]
        triv, sgn = order.index("2"), order.index("1.1")
        assert p[triv][triv] == {"-2": 1}      # t^-1
        assert p[triv][sgn] == {"-2": 1}       # t^-1
        assert p[sgn][sgn] == {"0": 1}         # 1
        assert p[sgn][triv] == {}              # 0
        lam = result["lambda"]
        assert lam[sgn][sgn] == {"0": 1}               # lambda on the zero orbit
        assert lam[triv][triv] == {"0": -1, "4": 1}    # t^2 - 1 on the regular orbit
        assert lam[sgn][triv] == {} and lam[triv][sgn] == {}
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
        ok = True
    finally:
        with capsys.disabled():
            report(1, "GL2 golden case", ok)


def test_criterion_2_reconstruction_exact(capsys):
    ok = False
    try:
        start = time.monotonic()
        for n in range(1, 7):
            block = build_springer_block_a(n)
            result = solve(block)
            assert reconstruct(result, block) == block.omega
        elapsed = time.monotonic() - start
        assert elapsed <= 10.0, f"took {elapsed:.2f}s, budget 10s"
        ok = True
    finally:
        with capsys.disabled():
            report(2, "exact reconstruction, n <= 6", ok)


def test_criterion_3_order_independence(capsys):
    ok = False
    try:
        for n in range(1, 6):
            assert extension_invariant(build_springer_block_a(n), 5)
        ok = True
    finally:
        with capsys.disabled():
            report(3, "uniqueness across linear extensions, n <= 5", ok)


def test_criterion_4_kostka_oracle_agreement(capsys):
    ok = False
    try:
        start = time.monotonic()
        for n in range(1, 7):
            result = solve(build_springer_block_a(n))
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    p = result.p_entry(lam.key(), mu.key())
                    if dominates(lam, mu):
                        kostka = kostka_foulkes(lam, mu)
                        assert (sorted(c for _, c in p.items())
                                == sorted(c for _, c in kostka.items()))
                        count = len(ssyt_enumerate(lam, mu))
                        assert value_at_one(p) == count
                        assert value_at_one(kostka) == count
                    else:
                        assert p == ZERO
        elapsed = time.monotonic() - start
        assert elapsed <= 60.0, f"took {elapsed:.2f}s, budget 60s"
        ok = True
    finally:
        with capsys.disabled():
            report(4, "Kostka-Foulkes oracle agreement, n <= 6", ok)


def test_criterion_5_constraint_suite(capsys):
    ok = False
    try:
        blocks = shipped_blocks()
        assert any(
            any(lb.dual != lb.id for lb in block.labels) for block in blocks
        ), "a shipped dataset must exercise nontrivial duality"
        for block in blocks:
            result = solve(block)
            below = closure_below(block)
            index = {lb.id: i for i, lb in enumerate(block.labels)}
            dual = {lb.id: lb.dual for lb in block.labels}
            for i, a in enumerate(block.labels):
                for j, b in enumerate(block.labels):
                    if i == j:
                        dim = orbit_dim(block, a.id)
                        assert result.p[i][j] == HalfLaurent({-dim: 1})
                    elif b.orbit not in below[a.orbit]:
                        assert result.p[i][j] == ZERO
                    if a.orbit != b.orbit:
                        assert result.lam[i][j] == ZERO
                    assert result.lam[i][j] == result.lam[j][i]
                    assert result.p[i][j] == result.p[index[dual[a.id]]][index[dual[b.id]]]
        ok = True
    finally:
        with capsys.disabled():
            report(5, "support, normalization, duality constraints", ok)


def test_criterion_6_dual_polynomials(capsys):
    ok = False
    try:
        from dataclasses import replace

        for block in shipped_blocks():
            result = solve(block)
            once = dualize_p(result, block)
            twice = dualize_p(replace(result, p=once), block)
            assert twice == result.p
        gl2 = build_springer_block_a(2)
        result = solve(gl2)
        assert result.entry(result.p_dual, "2", "1.1") == t_power(1)
        ok = True
    finally:
        with capsys.disabled():
            report(6, "dual stalk tables invert exactly", ok)


def test_criterion_7_ext_calculator(capsys):
    ok = False
    try:
        table2 = char_table_sn(2)
        assert graded_hom_dims(table2, "2", "2", 4) == (1, 1, 2, 2, 3)
        assert graded_hom_dims(table2, "1.1", "1.1", 4) == (1, 1, 2, 2, 3)
        # odd cohomological degrees are not even representable
        assert not hasattr(graded_hom_dims(table2, "2", "2", 4), "odd")
        for n in (2, 3, 4):
            table = char_table_sn(n)
            for chi in table.char_ids():
                for psi in table.char_ids():
                    assert series_consistency(table, chi, psi, 20)
        assert induced_endo_dims(table2, 1)[1] == 4
        assert induced_endo_dims(char_table_sn(3), 2)[2] == 36
        ok = True
    finally:
        with capsys.disabled():
            report(7, "graded Ext dimensions and series consistency", ok)


def test_criterion_8_block_orthogonality(tmp_path, capsys):
    ok = False
    try:
        # a nonzero cross-block entry must be rejected with exit code 1
        springer = block_to_json(build_springer_block_a(2))
        solo = block_to_json(synthetic_dual_pair())
        springer["omega"]["order"].append("c")
        for row in springer["omega"]["entries"]:
            row.append({"-2": 1})
        springer["omega"]["entries"].append([{"-2": 1}, {"-2": 1}, {"0": 1}])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([springer, solo]))
        assert cli_main(["solve", str(bad), "--out", str(tmp_path / "r.json")]) == 1

        # a valid multi-block file solves blockwise, identically to solving
        # each block alone
        multi = load_dataset(DATASETS / "decomposition_a2_dual.json")
        combined = [solve(b) for b in multi.blocks]
        alone = [solve(b)
                 for name in ("springer_a2.json", "synthetic_dual_pair.json")
                 for b in load_dataset(DATASETS / name).blocks]
        assert combined == alone
        ok = True
    finally:
        with capsys.disabled():
            report(8, "cross-block vanishing and blockwise solving", ok)


def test_criterion_9_robustness(tmp_path, capsys):
    ok = False
    try:
        # asymmetric omega: named violation, exit 1, no numbers produced
        block = build_springer_block_a(2)
        asym = block_to_json(block)
        asym["omega"]["entries"][0][1] = {"2": 1}
        path = tmp_path / "asym.json"
        path.write_text(json.dumps([asym]))
        assert cli_main(["solve", str(path), "--out", str(tmp_path / "r1.json")]) == 1
        kinds = {v.kind for v in validate_block(load_dataset(path).blocks[0])}
        assert "SymmetryViolation" in kinds

        # non-monotone dimensions
        bad_dims = block_to_json(block)
        bad_dims["orbits"][0]["dim"] = 9
        path2 = tmp_path / "dims.json"
        path2.write_text(json.dumps([bad_dims]))
        assert cli_main(["solve", str(path2), "--out", str(tmp_path / "r2.json")]) == 1
        kinds = {v.kind for v in validate_block(load_dataset(path2).blocks[0])}
        assert "DimMonotonicityViolation" in kinds

        # singular Lambda block: named solver error, exit 2
        with pytest.raises(SingularLambdaBlock):
            solve(singular_lambda_block())
        path3 = tmp_path / "singular.json"
        save_dataset(Dataset((singular_lambda_block(),)), path3)
        assert cli_main(["solve", str(path3), "--out", str(tmp_path / "r3.json")]) == 2
        ok = True
    finally:
        with capsys.disabled():
            report(9, "corrupted inputs produce named errors", ok)
