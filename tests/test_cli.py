import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from lsalgo import blockdata, cli, solver
from lsalgo.blockdata import (
    MAX_ORBIT_DIM,
    MAX_SPRINGER_N,
    BlockData,
    Dataset,
    OrbitInfo,
    SimpleLabel,
    block_to_json,
    build_springer_block_a,
    save_dataset,
)
from lsalgo.cli import EXTHOM_MAX_K, EXTHOM_MAX_SN, main
from lsalgo.laurent import MAX_EXPONENT, ONE, t_half_power
from lsalgo.weyl import char_table_sn

from conftest import (
    DATASETS,
    incomparable_orbits_block,
    non_ring_solution_block,
    singleton_cuspidal_block,
    singular_lambda_block,
    singular_maximal_orbit_blocks,
    synthetic_dual_pair,
    t_power,
    top_first_chain,
)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def read_report(out: str) -> dict:
    return json.loads(out)


class TestGenerate:
    def test_gl2_matches_shipped_dataset(self, tmp_path, capsys):
        out_path = tmp_path / "a2.json"
        code, out = run(capsys, "generate", "springer-a", "--n", "2",
                        "--out", str(out_path))
        assert code == 0
        report = read_report(out)
        assert report["status"] == "ok"
        assert report["artifacts"] == [str(out_path)]
        with open(DATASETS / "springer_a2.json", "rb") as fh:
            assert out_path.read_bytes() == fh.read()

    def test_n1(self, tmp_path, capsys):
        out_path = tmp_path / "a1.json"
        code, out = run(capsys, "generate", "springer-a", "--n", "1",
                        "--out", str(out_path))
        assert code == 0
        (block,) = json.loads(out_path.read_text())
        assert block["omega"]["entries"] == [[{"0": 1}]]

    def test_n6_label_count(self, tmp_path, capsys):
        out_path = tmp_path / "a6.json"
        code, _ = run(capsys, "generate", "springer-a", "--n", "6",
                      "--out", str(out_path))
        assert code == 0
        (block,) = json.loads(out_path.read_text())
        assert len(block["labels"]) == 11

    def test_over_limit_refused(self, tmp_path, capsys):
        code, out = run(capsys, "generate", "springer-a", "--n", "9",
                        "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert read_report(out)["status"] == "error"
        assert [d["kind"] for d in read_report(out)["diagnostics"]] == ["ResourceLimit"]

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_below_one_is_bad_argument(self, tmp_path, capsys, n):
        code, out = run(capsys, "generate", "springer-a", "--n", n,
                        "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert [d["kind"] for d in read_report(out)["diagnostics"]] == ["BadArgument"]
        assert not (tmp_path / "x.json").exists()

    def test_io_failure(self, tmp_path, capsys):
        code, out = run(capsys, "generate", "springer-a", "--n", "2",
                        "--out", str(tmp_path / "missing" / "x.json"))
        assert code == 2
        report = read_report(out)
        assert any(d["kind"] == "IOError" for d in report["diagnostics"])


class TestSolve:
    def test_gl2_values(self, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        code, out = run(capsys, "solve", str(DATASETS / "springer_a2.json"),
                        "--out", str(out_path))
        assert code == 0
        (result,) = json.loads(out_path.read_text())
        assert result["order"] == ["1.1", "2"]
        assert result["p"] == [[{"0": 1}, {}], [{"-2": 1}, {"-2": 1}]]
        assert result["lambda"] == [[{"0": 1}, {}], [{}, {"0": -1, "4": 1}]]
        assert result["p_dual"][1][0] == {"2": 1}

    def test_multi_block_matches_blockwise(self, tmp_path, capsys):
        single_a, single_b = tmp_path / "a.json", tmp_path / "b.json"
        save_dataset(Dataset((build_springer_block_a(2),)), single_a)
        save_dataset(Dataset((synthetic_dual_pair(),)), single_b)
        ra, rb, rboth = (tmp_path / n for n in ("ra.json", "rb.json", "rboth.json"))
        assert run(capsys, "solve", str(single_a), "--out", str(ra))[0] == 0
        assert run(capsys, "solve", str(single_b), "--out", str(rb))[0] == 0
        assert run(capsys, "solve", str(DATASETS / "decomposition_a2_dual.json"),
                   "--out", str(rboth))[0] == 0
        combined = json.loads(rboth.read_text())
        separate = json.loads(ra.read_text()) + json.loads(rb.read_text())
        assert combined == separate

    def test_seed_independence_byte_identical(self, tmp_path, capsys):
        outs = []
        for seed in ("0", "7", "123"):
            out_path = tmp_path / f"r{seed}.json"
            code, _ = run(capsys, "solve", str(DATASETS / "springer_a3.json"),
                          "--out", str(out_path), "--order-seed", seed)
            assert code == 0
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_corrupted_omega_exit1(self, tmp_path, capsys):
        obj = block_to_json(build_springer_block_a(2))
        obj["omega"]["entries"][0][1] = {"4": 7}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([obj]))
        code, out = run(capsys, "solve", str(bad), "--out", str(tmp_path / "r.json"))
        assert code == 1
        report = read_report(out)
        assert report["status"] == "violation"
        kinds = {d["kind"] for d in report["diagnostics"]}
        assert "SymmetryViolation" in kinds

    def test_bare_block_object_is_a_format_error(self, tmp_path, capsys):
        # a dataset file holds a JSON array of blocks, even for one block
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(block_to_json(build_springer_block_a(2))))
        code, out = run(capsys, "solve", str(path), "--out", str(tmp_path / "r.json"))
        assert code == 1
        (diag,) = read_report(out)["diagnostics"]
        assert diag["kind"] == "DataFormatError"

    def test_empty_dual_is_unknown_not_self_dual(self, tmp_path, capsys):
        # only an absent dual means self-dual; "" names no label
        obj = block_to_json(build_springer_block_a(2))
        obj["labels"][0]["dual"] = ""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([obj]))
        code, out = run(capsys, "solve", str(bad), "--out", str(tmp_path / "r.json"))
        assert code == 1
        report = read_report(out)
        assert report["status"] == "violation"
        assert [(d["kind"], d["message"]) for d in report["diagnostics"]] == [
            ("UnknownLabel", "label '1.1' has unknown dual ''")]

    @pytest.mark.parametrize("edit", [
        lambda b: b["omega"]["entries"][0].__setitem__(0, {"0": 1.9}),
        lambda b: b["omega"]["entries"][0].__setitem__(0, {"0": True}),
        lambda b: b["omega"]["entries"][0].__setitem__(0, {"x": 1}),
        lambda b: b["orbits"][1].__setitem__("dim", 2.7),
        lambda b: b["orbits"][1].__setitem__("dim", True),
        lambda b: b["orbits"][1].__setitem__("dim", "abc"),
        lambda b: b["omega"].__setitem__("entries", None),
        lambda b: b["omega"]["entries"].__setitem__(1, None),
        lambda b: b.__setitem__("provenance", 5),
        lambda b: b["omega"]["entries"][0].__setitem__(0, {"0": 1, "2000000000": 0}),
        lambda b: b["omega"]["entries"][0].__setitem__(0, {str(MAX_EXPONENT + 1): 1}),
        lambda b: b["orbits"][1].__setitem__("dim", 10**12),
        lambda b: b["orbits"][1].__setitem__("dim", MAX_ORBIT_DIM + 1),
        lambda b: b.__setitem__("name", None),
        lambda b: b["orbits"][0].__setitem__("id", 11),
        lambda b: b["orbits"][1].__setitem__("covers", "1.1"),
        lambda b: b["orbits"][1].__setitem__("covers", [11]),
        lambda b: b["labels"][0].__setitem__("id", 11),
        lambda b: b["labels"][0].__setitem__("orbit", 11),
        lambda b: b["labels"][0].__setitem__("local_system", None),
        lambda b: b["labels"][0].__setitem__("dual", 11),
        lambda b: b["omega"]["order"].__setitem__(0, 11),
        lambda b: b["omega"].__setitem__("order", "12"),
    ], ids=["coefficient-1.9", "coefficient-true", "exponent-x", "dim-2.7", "dim-true",
            "dim-abc", "entries-null", "entries-row-null", "provenance-5",
            "exponent-2e9-zero-coefficient", "exponent-past-bound", "dim-1e12",
            "dim-past-bound", "name-null", "orbit-id-int", "covers-string", "cover-int",
            "label-id-int", "label-orbit-int", "local-system-null", "dual-int",
            "order-entry-int", "order-string"])
    def test_inexact_number_exit1(self, tmp_path, capsys, edit):
        # nothing is rounded, coerced or left to a traceback: 1.9 must not
        # be read as 1 and solved
        obj = block_to_json(build_springer_block_a(2))
        edit(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([obj]))
        code, out = run(capsys, "solve", str(bad), "--out", str(tmp_path / "r.json"))
        assert code == 1
        (diag,) = read_report(out)["diagnostics"]
        assert diag["kind"] == "DataFormatError"

    @pytest.mark.parametrize("dim,exponent,code", [
        (MAX_ORBIT_DIM, 0, 0),
        (MAX_ORBIT_DIM + 1, 0, 1),
        (0, MAX_EXPONENT, 0),
        (0, -MAX_EXPONENT, 0),
        (0, MAX_EXPONENT + 1, 1),
        (0, -MAX_EXPONENT - 1, 1),
    ])
    def test_size_bounds_inclusive(self, tmp_path, capsys, dim, exponent, code):
        path = tmp_path / "edge.json"
        save_dataset(Dataset((singleton_cuspidal_block("edge", dim, t_half_power(exponent)),)),
                     path)
        got, out = run(capsys, "solve", str(path), "--out", str(tmp_path / "r.json"))
        assert got == code
        if code:
            (diag,) = read_report(out)["diagnostics"]
            assert diag["kind"] == "DataFormatError"
            assert "beyond the bound" in diag["message"]

    def test_cross_block_nonzero_exit1(self, tmp_path, capsys):
        springer = block_to_json(build_springer_block_a(2))
        solo = block_to_json(synthetic_dual_pair())
        springer["omega"]["order"].append("a")
        for row in springer["omega"]["entries"]:
            row.append({"0": 2})
        springer["omega"]["entries"].append([{"0": 2}, {"0": 2}, {"0": 1}])
        bad = tmp_path / "cross.json"
        bad.write_text(json.dumps([springer, solo]))
        code, out = run(capsys, "solve", str(bad), "--out", str(tmp_path / "r.json"))
        assert code == 1
        kinds = {d["kind"] for d in read_report(out)["diagnostics"]}
        assert "CrossBlockNonzero" in kinds

    def test_singular_lambda_exit2(self, tmp_path, capsys):
        bad = tmp_path / "singular.json"
        save_dataset(Dataset((singular_lambda_block(),)), bad)
        code, out = run(capsys, "solve", str(bad), "--out", str(tmp_path / "r.json"))
        assert code == 2
        kinds = {d["kind"] for d in read_report(out)["diagnostics"]}
        assert "SingularLambdaBlock" in kinds

    @pytest.mark.parametrize("name", sorted(singular_maximal_orbit_blocks()))
    def test_singular_maximal_orbit_exit2(self, tmp_path, capsys, name):
        bad = tmp_path / "singular.json"
        save_dataset(Dataset((singular_maximal_orbit_blocks()[name],)), bad)
        code, out = run(capsys, "solve", str(bad), "--out", str(tmp_path / "r.json"))
        assert code == 2
        (diag,) = read_report(out)["diagnostics"]
        assert diag["kind"] == "SingularLambdaBlock"
        assert "has determinant zero" in diag["message"]

    def test_non_ring_solution_exit2_located(self, tmp_path, capsys):
        bad = tmp_path / "non-ring.json"
        save_dataset(Dataset((non_ring_solution_block(),)), bad)
        code, out = run(capsys, "solve", str(bad), "--out", str(tmp_path / "r.json"))
        assert code == 2
        (diag,) = read_report(out)["diagnostics"]
        assert diag["kind"] == "NonExactDivision"
        assert "stage (ii), row 'c' over orbit 'low'" in diag["message"]

    @pytest.mark.parametrize("block, where", [
        (singular_lambda_block(), {"stage": "i", "orbit": "low", "row": None}),
        (non_ring_solution_block(), {"stage": "ii", "orbit": "low", "row": "c"}),
        (incomparable_orbits_block(ONE), {"stage": "iii", "orbit": "o1", "row": "y"}),
    ], ids=["singular", "non-ring", "support"])
    def test_solver_error_located_as_fields(self, tmp_path, capsys, block, where):
        bad = tmp_path / "bad.json"
        save_dataset(Dataset((block,)), bad)
        code, out = run(capsys, "solve", str(bad), "--out", str(tmp_path / "r.json"))
        assert code == 2
        (diag,) = read_report(out)["diagnostics"]
        assert {key: diag[key] for key in ("block", *where)} == {"block": block.name, **where}

    def test_missing_input_exit2(self, tmp_path, capsys):
        code, out = run(capsys, "solve", str(tmp_path / "nope.json"),
                        "--out", str(tmp_path / "r.json"))
        assert code == 2

    def test_chain_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        save_dataset(Dataset((top_first_chain(1100, (0, 500, 1099)),)), path)
        code, out = run(capsys, "solve", str(path), "--out", str(tmp_path / "r.json"))
        assert (code, read_report(out)["status"]) == (0, "ok")
        (result,) = json.loads((tmp_path / "r.json").read_text())
        assert result["lambda"] == [[{"0": 1}, {}, {}], [{}, {"0": 1}, {}], [{}, {}, {"0": 1}]]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_coefficient_past_the_digit_limit_is_a_resource_limit(self, tmp_path, capsys, fmt):
        # omega's 4,001-digit entry decodes, but lambda[b][b] = 1 - a^2 has
        # 8,001 digits, past the limit of int-to-string conversion
        a = 10**4000 + 7
        block = {"name": "big", "orbits": [{"id": "lo", "dim": 0}, {"id": "hi", "dim": 2,
                                                                   "covers": ["lo"]}],
                 "labels": [{"id": "a", "orbit": "lo"}, {"id": "b", "orbit": "hi"}],
                 "omega": {"order": ["a", "b"],
                           "entries": [[{"0": 1}, {"0": a}], [{"0": a}, {"0": 1}]]}}
        path, out_path = tmp_path / "big.json", tmp_path / f"r.{fmt}"
        path.write_text(json.dumps([block]))
        out_path.write_bytes(b"earlier bytes")
        code, out = run(capsys, "solve", str(path), "--out", str(out_path), "--format", fmt)
        assert code == 2
        (diag,) = read_report(out)["diagnostics"]
        limit = sys.get_int_max_str_digits()
        assert (diag["kind"], diag["block"]) == ("ResourceLimit", "big")
        assert diag["message"] == (f"block 'big': a coefficient has over {limit} digits "
                                   f"(sys.get_int_max_str_digits())")
        assert capsys.readouterr().err == ""
        assert out_path.read_bytes() == b"earlier bytes"

    def test_negative_dim_is_a_violation(self, tmp_path, capsys):
        # decoding bounds a dim only from above; validation refuses one below 0
        path = tmp_path / "negative.json"
        save_dataset(Dataset((singleton_cuspidal_block("negative", -2, ONE),)), path)
        code, out = run(capsys, "solve", str(path), "--out", str(tmp_path / "r.json"))
        assert code == 1
        assert [d["kind"] for d in read_report(out)["diagnostics"]] == ["NegativeDimension"]

    def test_label_repeated_in_one_block_is_one_duplicate(self, tmp_path, capsys):
        block = {"name": "twice", "orbits": [{"id": "o", "dim": 0}],
                 "labels": [{"id": "x", "orbit": "o"}, {"id": "x", "orbit": "o"}],
                 "omega": {"order": ["x"], "entries": [[{"0": 1}]]}}
        path = tmp_path / "twice.json"
        path.write_text(json.dumps([block]))
        code, out = run(capsys, "solve", str(path), "--out", str(tmp_path / "r.json"))
        assert code == 1
        assert [(d["kind"], d["message"]) for d in read_report(out)["diagnostics"]] == [
            ("DuplicateId", "duplicate label ids in block 'twice'")]

    def test_csv_export(self, tmp_path, capsys):
        out_path = tmp_path / "result.csv"
        code, _ = run(capsys, "solve", str(DATASETS / "springer_a2.json"),
                      "--out", str(out_path), "--format", "csv")
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "block,matrix,row,col,value"
        assert "springer-a-2,p,2,1.1,t^-1" in lines
        assert "springer-a-2,lambda,2,2,-1 + t^2" in lines


class TestVerify:
    def test_n2_ok(self, capsys):
        code, out = run(capsys, "verify", "--n-max", "2")
        assert code == 0
        report = read_report(out)
        assert report["status"] == "ok"
        assert all(d["severity"] != "error" for d in report["diagnostics"])

    def test_n4_ok(self, capsys):
        code, _ = run(capsys, "verify", "--n-max", "4")
        assert code == 0

    def test_six_solves_per_n(self, capsys, monkeypatch):
        # one validated and checked default solve whose result the five
        # seeded factorizations are compared with; they are not validated
        # or checked again, and none of the six takes an exact rerun
        factored, checked, validated = Counter(), Counter(), Counter()
        exact_runs = []

        def counting_stages(block, below, order_seed, ar):
            factored[block.name] += 1
            if ar is solver._EXACT:
                exact_runs.append((block.name, order_seed))
            return real_stages(block, below, order_seed, ar)

        def counting_check(result, block, below):
            checked[block.name] += 1
            return real_check(result, block, below)

        def counting_validate(block):
            validated[block.name] += 1
            return real_validate(block)

        real_stages, real_check = solver._stages, solver._check_invariants
        real_validate = blockdata.validate_block
        monkeypatch.setattr(solver, "_stages", counting_stages)
        monkeypatch.setattr(solver, "_check_invariants", counting_check)
        monkeypatch.setattr(solver, "validate_block", counting_validate)
        monkeypatch.setattr(blockdata, "validate_block", counting_validate)
        assert run(capsys, "verify", "--n-max", "3")[0] == 0
        names = [f"springer-a-{n}" for n in (1, 2, 3)]
        assert factored == {name: 6 for name in names}
        assert exact_runs == []
        assert checked == {name: 1 for name in names}
        assert validated == {name: 1 for name in names}

    def test_differing_seeded_factorization_is_order_dependence(self, capsys, monkeypatch):
        # a seeded factorization that differs from the checked default result,
        # packed and then exact, is reported as such, with exit 1, instead of
        # failing a self-check
        tampered = []

        def tampered_stages(block, below, order_seed, ar):
            p, lam = real_stages(block, below, order_seed, ar)
            if block.name == "springer-a-2" and order_seed == 3:
                tampered.append(ar is solver._EXACT)
                lam = (tuple(v + ONE if j == 0 else v for j, v in enumerate(lam[0])), *lam[1:])
            return p, lam

        real_stages = solver._stages
        monkeypatch.setattr(solver, "_stages", tampered_stages)
        code, out = run(capsys, "verify", "--n-max", "3")
        assert code == 1
        report = read_report(out)
        assert report["status"] == "violation"
        errors = [d for d in report["diagnostics"] if d["severity"] == "error"]
        assert [d["kind"] for d in errors] == ["OrderDependence"]
        assert errors[0]["message"].startswith("n=2:")
        assert tampered == [False, True]

    def test_oracle_mismatch_is_one_diagnostic_per_pair(self, capsys, monkeypatch):
        # the oracle polynomial gains a term t at one pair, so its coefficient
        # multiset and its value at t = 1 both differ from p's
        def tampered_kostka(lam, mu):
            value = real_kostka(lam, mu)
            return value + t_power(1) if (lam.key(), mu.key()) == ("2.1", "1.1.1") else value

        real_kostka = cli.kostka_foulkes
        monkeypatch.setattr(cli, "kostka_foulkes", tampered_kostka)
        code, out = run(capsys, "verify", "--n-max", "3")
        assert code == 1
        report = read_report(out)
        assert report["status"] == "violation"
        errors = [d for d in report["diagnostics"] if d["severity"] == "error"]
        assert [d["kind"] for d in errors] == ["OracleMismatch"]
        assert errors[0]["message"].startswith("n=3 pair (2.1, 1.1.1)")

    def test_entry_off_the_closure_order_is_support_mismatch(self, capsys, monkeypatch):
        # p[1.1.1][3] = t lies off the closure order; the untampered seeded
        # factorizations then differ from the result verify reads
        def tampered_solve(block, **kwargs):
            result = real_solve(block, **kwargs)
            if block.name != "springer-a-3":
                return result
            i, j = result.labels.index("1.1.1"), result.labels.index("3")
            p = tuple(tuple(t_power(1) if (a, b) == (i, j) else v for b, v in enumerate(row))
                      for a, row in enumerate(result.p))
            return dataclasses.replace(result, p=p)

        real_solve = cli.solve
        monkeypatch.setattr(cli, "solve", tampered_solve)
        code, out = run(capsys, "verify", "--n-max", "3")
        assert code == 1
        report = read_report(out)
        assert report["status"] == "violation"
        errors = [d for d in report["diagnostics"] if d["severity"] == "error"]
        assert [d["kind"] for d in errors] == ["SupportMismatch", "OrderDependence"]
        assert errors[0]["message"].startswith("n=3 pair (1.1.1, 3)")

    def test_shifted_entry_is_oracle_mismatch(self, capsys, monkeypatch):
        # p[2.1][1.1.1] times t keeps its coefficient multiset but not its
        # exponents; the untampered seeded factorizations then differ too
        def tampered_solve(block, **kwargs):
            result = real_solve(block, **kwargs)
            if block.name != "springer-a-3":
                return result
            i, j = result.labels.index("2.1"), result.labels.index("1.1.1")
            p = tuple(tuple(v * t_power(1) if (a, b) == (i, j) else v for b, v in enumerate(row))
                      for a, row in enumerate(result.p))
            return dataclasses.replace(result, p=p)

        real_solve = cli.solve
        monkeypatch.setattr(cli, "solve", tampered_solve)
        code, out = run(capsys, "verify", "--n-max", "3")
        assert code == 1
        errors = [d for d in read_report(out)["diagnostics"] if d["severity"] == "error"]
        assert [d["kind"] for d in errors] == ["OracleMismatch", "OrderDependence"]
        assert errors[0]["message"].startswith("n=3 pair (2.1, 1.1.1)")

    def test_n_max_is_the_largest_generated_n(self, capsys):
        code, out = run(capsys, "verify", "--n-max", str(MAX_SPRINGER_N))
        assert code == 0
        report = read_report(out)
        assert report["status"] == "ok"
        assert [d["kind"] for d in report["diagnostics"]] == ["Verified"] * MAX_SPRINGER_N

    def test_n9_refused(self, capsys):
        code, out = run(capsys, "verify", "--n-max", str(MAX_SPRINGER_N + 1))
        assert code == 2
        report = read_report(out)
        assert any(d["kind"] == "ResourceLimit" for d in report["diagnostics"])


class TestExthom:
    def test_s2_builtin(self, capsys):
        code, out = run(capsys, "exthom", "--sn", "2", "--chi", "2",
                        "--psi", "2", "--max-k", "4")
        assert code == 0
        assert json.loads(out) == {"chi": "2", "psi": "2",
                                   "dims": [1, 1, 2, 2, 3], "max_k": 4}

    def test_table_file(self, tmp_path, capsys):
        from lsalgo.weyl import char_table_sn

        table_path = tmp_path / "s3.json"
        table_path.write_text(json.dumps(char_table_sn(3).to_json()))
        code, out = run(capsys, "exthom", "--table", str(table_path),
                        "--chi", "3", "--psi", "1.1.1", "--max-k", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["dims"][0] == 0

    def test_sn_prints_what_table_prints_for_every_s5_pair(self, tmp_path, capsys):
        # --sn builds only the two rows it reads; --table decodes and
        # validates the whole table
        table_path = tmp_path / "s5.json"
        table_path.write_text(json.dumps(char_table_sn(5).to_json()))
        ids = char_table_sn(5).char_ids()
        for chi in ids:
            for psi in ids:
                pair = ("--chi", chi, "--psi", psi, "--max-k", "9")
                sn = run(capsys, "exthom", "--sn", "5", *pair)
                assert sn == run(capsys, "exthom", "--table", str(table_path), *pair)
                assert sn[0] == 0

    def test_unknown_label_exit1(self, capsys):
        code, out = run(capsys, "exthom", "--sn", "2", "--chi", "nope",
                        "--psi", "2", "--max-k", "2")
        assert code == 1
        assert any(d["kind"] == "UnknownLabel"
                   for d in read_report(out)["diagnostics"])

    def test_negative_dimension_is_a_violation(self, tmp_path, capsys):
        # the S_2 classes with a fake character f whose values are (1, -3)
        path = tmp_path / "fake.json"
        path.write_text(json.dumps({**char_table_sn(2).to_json(), "irreducibles": [
            {"id": "a", "values": [1, 1]}, {"id": "f", "values": [1, -3]}]}))
        code, out = run(capsys, "exthom", "--table", str(path),
                        "--chi", "a", "--psi", "f", "--max-k", "3")
        assert code == 1
        (diag,) = read_report(out)["diagnostics"]
        assert diag["kind"] == "ArithmeticError"
        assert "negative graded dimension -1 at degree 0" in diag["message"]

    @staticmethod
    def s3_table_file(tmp_path, edit):
        obj = char_table_sn(3).to_json()
        edit(obj)
        path = tmp_path / "s3.json"
        path.write_text(json.dumps(obj))
        return path

    @pytest.mark.parametrize("edit,problem", [
        (lambda t: t["classes"][1].update(size=4), "not divisible by |W| = 6"),
        # the Molien certificate: 1 + 3 + 2 class elements against |W| = 3
        (lambda t: t.update(group_order=3), "class sizes sum to 2 * |W|"),
    ], ids=["class-size", "group-order-3"])
    def test_inconsistent_table_is_a_violation(self, tmp_path, capsys, edit, problem):
        path = self.s3_table_file(tmp_path, edit)
        code, out = run(capsys, "exthom", "--table", str(path),
                        "--chi", "2.1", "--psi", "2.1", "--max-k", "6")
        assert code == 1
        report = read_report(out)
        assert report["status"] == "violation"
        (diag,) = report["diagnostics"]
        assert diag["kind"] == "NonExactDivision"
        assert str(path) in diag["message"] and "(2.1, 2.1)" in diag["message"]
        assert problem in diag["message"]

    # an odd exponent and a wrong degree: tests/corrupt/table_odd_exponent.json
    # and table_wrong_degree.json
    @pytest.mark.parametrize("edit,problem", [
        (lambda t: t["classes"][0].update(molien_det={"0": 2, "6": -1}),
         "is not a polynomial in q with constant term 1"),
    ], ids=["molien-constant-term-2"])
    def test_malformed_determinant_is_a_format_error(self, tmp_path, capsys, edit, problem):
        # refused when the table is decoded, before any series is summed
        path = self.s3_table_file(tmp_path, edit)
        code, out = run(capsys, "exthom", "--table", str(path),
                        "--chi", "2.1", "--psi", "2.1", "--max-k", "6")
        assert code == 1
        report = read_report(out)
        assert report["status"] == "violation"
        (diag,) = report["diagnostics"]
        assert diag["kind"] == "DataFormatError"
        assert problem in diag["message"]

    @pytest.mark.parametrize("edit,problem", [
        # the sign row overwritten by the trivial row: every certified
        # division still passes, only the orthogonality relations fail
        (lambda t: t["irreducibles"][2].update(values=t["irreducibles"][0]["values"]),
         "orthogonality fails for (3, 1.1.1)"),
        (lambda t: t["irreducibles"].pop(1), "2 characters for 3 classes"),
    ], ids=["sign-row-is-trivial", "missing-character"])
    def test_table_failing_validate_is_a_violation(self, tmp_path, capsys, edit, problem):
        path = self.s3_table_file(tmp_path, edit)
        code, out = run(capsys, "exthom", "--table", str(path),
                        "--chi", "1.1.1", "--psi", "3", "--max-k", "4")
        assert code == 1
        report = read_report(out)
        assert report["status"] == "violation"
        assert {d["kind"] for d in report["diagnostics"]} == {"InvalidTable"}
        assert all(str(path) in d["message"] for d in report["diagnostics"])
        assert any(problem in d["message"] for d in report["diagnostics"])

    @pytest.mark.parametrize("edit", [
        lambda t: t["irreducibles"][1]["values"].__setitem__(0, 1.9),
        lambda t: t["classes"][1].update(size=3.0),
        lambda t: t.update(group_order=True),
        lambda t: t["classes"][0].update(molien_det={"0": 1, "6": -1.9}),
        lambda t: t["classes"][0].update(molien_det={"0": 1, "x": -1}),
        lambda t: t.pop("classes"),
        lambda t: t["classes"][0].update(id=None),
        lambda t: t["irreducibles"][0].update(id=3),
        lambda t: t.update(classes=[], irreducibles=[]),
        lambda t: t.update(group_order=0),
        lambda t: t.update(group_order=-6),
    ], ids=["value-1.9", "size-float", "order-bool", "molien-float",
            "molien-key", "missing-classes", "class-id-null", "character-id-int",
            "no-classes", "order-0", "order-negative"])
    def test_inexact_table_value_is_a_format_error(self, tmp_path, capsys, edit):
        path = self.s3_table_file(tmp_path, edit)
        code, out = run(capsys, "exthom", "--table", str(path),
                        "--chi", "2.1", "--psi", "2.1", "--max-k", "6")
        assert code == 1
        (diag,) = read_report(out)["diagnostics"]
        assert diag["kind"] == "DataFormatError"

    @pytest.mark.parametrize("argv,kind", [
        (("--sn", "2", "--max-k", "-1"), "BadArgument"),
        (("--sn", "2", "--max-k", str(EXTHOM_MAX_K + 1)), "ResourceLimit"),
        (("--sn", "0", "--max-k", "2"), "BadArgument"),
        (("--sn", str(EXTHOM_MAX_SN + 1), "--max-k", "2"), "ResourceLimit"),
    ])
    def test_size_bounds_exit2(self, capsys, argv, kind):
        code, out = run(capsys, "exthom", "--chi", "2", "--psi", "2", *argv)
        assert code == 2
        report = read_report(out)
        assert report["status"] == "error"
        assert [d["kind"] for d in report["diagnostics"]] == [kind]

    def test_size_bounds_inclusive(self, capsys):
        code, out = run(capsys, "exthom", "--sn", "2", "--chi", "2",
                        "--psi", "2", "--max-k", str(EXTHOM_MAX_K))
        assert code == 0
        assert len(json.loads(out)["dims"]) == EXTHOM_MAX_K + 1
        # the benchmark's largest exthom call stays in range
        assert EXTHOM_MAX_SN >= 8 and EXTHOM_MAX_K >= 20


class TestDualize:
    def test_gl2_result(self, tmp_path, capsys):
        result_path = tmp_path / "r.json"
        assert run(capsys, "solve", str(DATASETS / "springer_a2.json"),
                   "--out", str(result_path))[0] == 0
        code, out = run(capsys, "dualize", str(result_path))
        assert code == 0
        (table,) = json.loads(out)
        assert table["block"] == "springer-a-2"
        row = table["order"].index("2")
        col = table["order"].index("1.1")
        assert table["p_dual"][row][col] == {"2": 1}  # the value t

    def test_not_a_result_file_exit1(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps([{"name": "x"}]))
        code, out = run(capsys, "dualize", str(path))
        assert code == 1

    def test_missing_file_exit2(self, tmp_path, capsys):
        code, _ = run(capsys, "dualize", str(tmp_path / "none.json"))
        assert code == 2

    @staticmethod
    def gl2_result(tmp_path, capsys):
        result_path = tmp_path / "r.json"
        assert run(capsys, "solve", str(DATASETS / "springer_a2.json"),
                   "--out", str(result_path))[0] == 0
        return json.loads(result_path.read_text())

    @pytest.mark.parametrize("content", [
        [{"block": 5, "order": "ab", "p_dual": None}],
        5,
    ], ids=["unchecked-fields", "not-a-list"])
    def test_not_a_result_is_a_format_error(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(content))
        code, out = run(capsys, "dualize", str(path))
        assert code == 1
        (diag,) = read_report(out)["diagnostics"]
        assert diag["kind"] == "DataFormatError"

    def test_bare_result_object_is_a_format_error(self, tmp_path, capsys):
        # a result file holds a JSON array of results, even for one block
        (result,) = self.gl2_result(tmp_path, capsys)
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(result))
        code, out = run(capsys, "dualize", str(path))
        assert code == 1
        (diag,) = read_report(out)["diagnostics"]
        assert diag["kind"] == "DataFormatError"

    @pytest.mark.parametrize("edit", [
        lambda r: r.update(p_dual=None),
        lambda r: r["p_dual"][0].pop(),
        lambda r: r["order"].__setitem__(0, 1),
        lambda r: r["p_dual"][0].__setitem__(0, {"0": True}),
        lambda r: r.pop("lambda"),
        lambda r: r["order"].__setitem__(1, r["order"][0]),
    ], ids=["p-dual-null", "p-dual-ragged", "order-entry-int", "coefficient-bool",
            "missing-lambda", "order-repeats-id"])
    def test_malformed_result_is_a_format_error(self, tmp_path, capsys, edit):
        result_path = tmp_path / "r.json"
        assert run(capsys, "solve", str(DATASETS / "springer_a2.json"),
                   "--out", str(result_path))[0] == 0
        (result,) = json.loads(result_path.read_text())
        edit(result)
        result_path.write_text(json.dumps([result]))
        code, out = run(capsys, "dualize", str(result_path))
        assert code == 1
        (diag,) = read_report(out)["diagnostics"]
        assert diag["kind"] == "DataFormatError"


class TestUnreadableInput:
    every_file_reader = pytest.mark.parametrize("argv", [
        ("solve", "{path}", "--out", "{out}"),
        ("dualize", "{path}"),
        ("exthom", "--table", "{path}", "--chi", "2", "--psi", "2", "--max-k", "2"),
    ], ids=["solve", "dualize", "exthom-table"])

    @every_file_reader
    def test_non_utf8_file_is_a_format_error(self, tmp_path, capsys, argv):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe[1]")
        argv = [a.format(path=path, out=tmp_path / "r.json") for a in argv]
        code, out = run(capsys, *argv)
        assert code == 1
        report = read_report(out)
        assert report["status"] == "violation"
        (diag,) = report["diagnostics"]
        assert diag["kind"] == "DataFormatError"


    @every_file_reader
    def test_deep_nesting_is_a_format_error(self, tmp_path, capsys, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        argv = [a.format(path=path, out=tmp_path / "r.json") for a in argv]
        code, out = run(capsys, *argv)
        assert code == 1
        (diag,) = read_report(out)["diagnostics"]
        assert diag["kind"] == "DataFormatError"


class TestClosedStdout:
    def test_exit2_one_stderr_line(self, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "lsalgo.cli", "solve",
                 str(DATASETS / "springer_a3.json"), "--out", str(tmp_path / "r.json")],
                stdin=subprocess.DEVNULL, stdout=write_end, stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(DATASETS.parent / "src")},
                timeout=120)
        finally:
            os.close(write_end)
        err = proc.stderr.decode()
        assert proc.returncode == 2
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


SOLVE_DEFAULTS = {"command": "solve", "format": "json", "order_seed": None}
EXTHOM_DEFAULTS = {"command": "exthom", "sn": None, "table": None}


class TestArguments:
    # argv -> what the command's handler receives, as vars(args) without `func`
    PARSED = [
        # the README's invocations
        (["generate", "springer-a", "--n", "4", "--out", "a4.json"],
         {"command": "generate", "type": "springer-a", "n": 4, "out": "a4.json"}),
        (["solve", "a4.json", "--out", "result.json", "--format", "json"],
         {**SOLVE_DEFAULTS, "input": "a4.json", "out": "result.json"}),
        (["solve", "a4.json", "--out", "result.json", "--order-seed", "7"],
         {**SOLVE_DEFAULTS, "input": "a4.json", "out": "result.json", "order_seed": 7}),
        (["verify", "--n-max", "6"], {"command": "verify", "n_max": 6}),
        (["exthom", "--sn", "2", "--chi", "2", "--psi", "2", "--max-k", "4"],
         {**EXTHOM_DEFAULTS, "sn": 2, "chi": "2", "psi": "2", "max_k": 4}),
        (["exthom", "--table", "s3.json", "--chi", "3", "--psi", "1.1.1", "--max-k", "20"],
         {**EXTHOM_DEFAULTS, "table": "s3.json", "chi": "3", "psi": "1.1.1", "max_k": 20}),
        (["dualize", "result.json"], {"command": "dualize", "input": "result.json"}),
        # --opt=value, a unique prefix, a negative value
        (["solve", "a.json", "--out=r.csv", "--format=csv"],
         {**SOLVE_DEFAULTS, "input": "a.json", "out": "r.csv", "format": "csv"}),
        (["solve", "a.json", "--out", "r.json", "--order", "7"],
         {**SOLVE_DEFAULTS, "input": "a.json", "out": "r.json", "order_seed": 7}),
        (["solve", "a.json", "--out", "r.json", "--order-seed", "-3"],
         {**SOLVE_DEFAULTS, "input": "a.json", "out": "r.json", "order_seed": -3}),
        # options before the positional
        (["generate", "--n", "3", "--out", "a3.json", "springer-a"],
         {"command": "generate", "type": "springer-a", "n": 3, "out": "a3.json"}),
        (["solve", "--out", "r.json", "--format", "csv", "a.json"],
         {**SOLVE_DEFAULTS, "input": "a.json", "out": "r.json", "format": "csv"}),
        # a repeated option takes its last value
        (["verify", "--n-max", "2", "--n-max", "5"], {"command": "verify", "n_max": 5}),
        (["solve", "a.json", "--out", "x.json", "--out", "y.json", "--format", "csv",
          "--format", "json"],
         {**SOLVE_DEFAULTS, "input": "a.json", "out": "y.json"}),
    ]

    @pytest.mark.parametrize("argv,expected", PARSED, ids=[" ".join(a) for a, _ in PARSED])
    def test_handler_receives(self, monkeypatch, capsys, argv, expected):
        seen = []

        def record(args):
            seen.append({k: v for k, v in vars(args).items() if k != "func"})
            return 0, {}

        for name in ("generate", "solve", "verify", "exthom", "dualize"):
            monkeypatch.setattr(cli, f"cmd_{name}", record)
        assert main(argv) == 0
        assert capsys.readouterr().out == "{}\n"
        assert seen == [expected]

    # one valid argv per command that holds every ranged argument
    VALID = {"generate": ["generate", "springer-a", "--n", "4", "--out", "a4.json"],
             "verify": ["verify", "--n-max", "6"],
             "exthom": ["exthom", "--sn", "2", "--chi", "2", "--psi", "2", "--max-k", "4"]}
    RANGED = [(command, name, choices) for command, (_, _, arguments) in cli.COMMANDS.items()
              for name, _, _, choices, _, _ in arguments if isinstance(choices, range)]

    @pytest.mark.parametrize("command,name,bounds", RANGED,
                             ids=[f"{command} {name}" for command, name, _ in RANGED])
    def test_range_is_checked_before_the_handler(self, monkeypatch, capsys, command, name,
                                                 bounds):
        seen = []
        monkeypatch.setattr(cli, cli.COMMANDS[command][0],
                            lambda args: (seen.append(args), (0, {}))[1])
        lo, hi = bounds.start, bounds[-1]

        def run_with(value):
            argv = list(self.VALID[command])
            argv[argv.index(name) + 1] = str(value)
            return run(capsys, *argv)

        assert run_with(lo) == run_with(hi) == (0, "{}\n")
        assert [getattr(args, name[2:].replace("-", "_")) for args in seen] == [lo, hi]
        for value, kind, message in (
                (lo - 1, "BadArgument", f"{name} must be at least {lo}"),
                (hi + 1, "ResourceLimit", f"{command} supports {name} up to {hi}")):
            code, out = run_with(value)
            assert code == 2
            report = read_report(out)
            assert (report["command"], report["status"]) == (command, "error")
            assert [(d["kind"], d["message"]) for d in report["diagnostics"]] == [(kind, message)]
        assert len(seen) == 2
        _, out = run(capsys, command, "--help")
        (line,) = [line for line in out.splitlines() if line.startswith(f"  {name} ")
                   or line.startswith(f"  [{name} ")]
        assert line.endswith(f"({lo}..{hi})")

    def test_posixly_correct_ends_options_at_the_first_positional(self, monkeypatch, capsys):
        # as in GNU tools: the README documents this
        monkeypatch.setenv("POSIXLY_CORRECT", "1")
        monkeypatch.setattr(cli, "cmd_solve", lambda args: (0, {}))
        assert run(capsys, "solve", "--out", "r.json", "a.json") == (0, "{}\n")
        code, out = run(capsys, "solve", "a.json", "--out", "r.json")
        assert code == 2
        assert read_report(out)["diagnostics"][0]["kind"] == "BadArgument"


class TestInternalError:
    def test_unexpected_exception_is_one_report_exit2(self, tmp_path, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_dualize", broken)
        code = main(["dualize", str(tmp_path / "any.json")])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)  # exactly one JSON document
        assert report["command"] == "dualize"
        assert report["status"] == "error"
        (diag,) = report["diagnostics"]
        assert diag["kind"] == "Internal"
        assert "RuntimeError: boom" in diag["message"]
        assert "Traceback" in captured.err and "RuntimeError: boom" in captured.err



class TestBadArgument:
    CASES = {
        "no-arguments": ([], None),
        "nonsense": (["nonsense"], None),
        "unknown-top-level-option": (["--bogus"], None),
        "solve": (["solve"], "solve"),
        "format-xml": (["solve", "a.json", "--out", "r.json", "--format", "xml"], "solve"),
        "unknown-option": (["solve", "a.json", "--out", "r.json", "--bogus", "1"], "solve"),
        "ambiguous-prefix": (["solve", "a.json", "--out", "r.json", "--o", "1"], "solve"),
        "option-without-value": (["solve", "a.json", "--out"], "solve"),
        "n-not-an-int": (["generate", "springer-a", "--n", "x", "--out", "a.json"], "generate"),
        "unknown-type": (["generate", "springer-b", "--n", "2", "--out", "a.json"], "generate"),
        "missing-out": (["generate", "springer-a", "--n", "2"], "generate"),
        "n-max-not-an-int": (["verify", "--n-max", "2.5"], "verify"),
        "max-k-negative": (["exthom", "--chi", "2", "--psi", "2", "--max-k", "-1", "--sn", "2"],
                           "exthom"),
        # a range is checked last: the other fault is reported, not the range
        "n-over-range-missing-out": (["generate", "springer-a", "--n", "9"], "generate"),
        "sn-over-range-and-table": (["exthom", "--sn", "13", "--table", "x", "--chi", "3",
                                     "--psi", "3", "--max-k", "2"], "exthom"),
        "sn-and-table": (["exthom", "--sn", "3", "--table", "x", "--chi", "3", "--psi", "3",
                          "--max-k", "2"], "exthom"),
        "neither-sn-nor-table": (["exthom", "--chi", "3", "--psi", "3", "--max-k", "2"],
                                 "exthom"),
        "extra-positional": (["dualize", "a.json", "b.json"], "dualize"),
    }

    @pytest.mark.parametrize("argv,command", CASES.values(), ids=CASES.keys())
    def test_one_report_exit2(self, capsys, argv, command):
        code, out = run(capsys, *argv)
        assert code == 2
        report = read_report(out)  # exactly one JSON document
        assert report["command"] == command
        assert report["status"] == "error"
        (diag,) = report["diagnostics"]
        assert diag["kind"] == "BadArgument"
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["exthom", "--help"],
                                      ["solve", "a.json", "-h"], ["solve", "--he"]],
                             ids=["help", "h", "exthom-help", "solve-h-after-input",
                                  "solve-help-prefix"])
    def test_help_exits_0_without_json(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: lsalgo ")
        assert '"status"' not in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_command_help_lists_every_option(self, capsys):
        for command, (_, _, arguments) in cli.COMMANDS.items():
            _, out = run(capsys, command, "--help")
            for name, *_ in arguments:
                assert (name if name.startswith("--") else name.upper()) in out

    def test_a_valid_operation_imports_nothing(self):
        # the per-run cost must not come back through a lazy import
        script = (
            "import sys\n"
            "import lsalgo.cli\n"
            "assert 'argparse' not in sys.modules and 'locale' not in sys.modules\n"
            "before = set(sys.modules)\n"
            "code = lsalgo.cli.main(['exthom', '--sn', '3', '--chi', '3', '--psi', '2.1',"
            " '--max-k', '2'])\n"
            "assert code == 0, code\n"
            "assert set(sys.modules) == before, sorted(set(sys.modules) ^ before)\n")
        proc = subprocess.run(
            [sys.executable, "-c", script], stdin=subprocess.DEVNULL, capture_output=True,
            env={**os.environ, "PYTHONPATH": str(DATASETS.parent / "src")}, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        assert len(json.loads(proc.stdout)["dims"]) == 3


class TestDeterminism:
    def test_violation_order_independent_of_hash_seed(self, tmp_path):
        # six orbits of dim 10 below one of dim 4: one violation each
        orbits = tuple(OrbitInfo(f"low{i}", 10, ()) for i in range(6)) + (
            OrbitInfo("top", 4, tuple(f"low{i}" for i in range(6))),)
        block = BlockData("bad-dims", orbits, (SimpleLabel("x", "top"),), ((ONE,),))
        path = tmp_path / "bad.json"
        save_dataset(Dataset((block,)), path)
        outs = []
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "lsalgo.cli", "solve", str(path),
                 "--out", str(tmp_path / "r.json")],
                stdin=subprocess.DEVNULL, capture_output=True, timeout=120,
                env={**os.environ, "PYTHONPATH": str(DATASETS.parent / "src"),
                     "PYTHONHASHSEED": seed})
            assert proc.returncode == 1
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        kinds = [d["kind"] for d in json.loads(outs[0])["diagnostics"]]
        assert kinds == ["DimMonotonicityViolation"] * 6

    def test_reports_are_sorted_json(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        code, out1 = run(capsys, "solve", str(DATASETS / "springer_a2.json"),
                         "--out", str(out_path))
        code, out2 = run(capsys, "solve", str(DATASETS / "springer_a2.json"),
                         "--out", str(out_path))
        assert out1 == out2
