"""Corrupted input files under tests/corrupt/, run through the command line.

Each file is one defect in an otherwise valid S_3 character table (one
table has a single class), solve result or dataset.  The installed command must answer each with exactly one
JSON document on stdout, exit code 1 and a diagnostic of the expected kind,
and with no traceback.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

CORPUS = REPO_ROOT / "tests" / "corrupt"
PAIR = ("--chi", "2.1", "--psi", "1.1.1", "--max-k", "4")

CASES = {
    # value 0 of character 2.1 on class 2.1 written as 0.0
    "table_float_value.json": (("exthom", "--table", "{file}", *PAIR), "DataFormatError"),
    "table_bool_group_order.json": (("exthom", "--table", "{file}", *PAIR), "DataFormatError"),
    "table_missing_classes.json": (("exthom", "--table", "{file}", *PAIR), "DataFormatError"),
    # the 3-cycle's determinant 1 - q^3 given a term q^(3/2), doubled exponent
    # 3: of the right degree but not a polynomial in q
    "table_odd_exponent.json": (("exthom", "--table", "{file}", *PAIR), "DataFormatError"),
    # the 3-cycle's determinant cut to 1 - q^2, degree 2 against 3
    "table_wrong_degree.json": (("exthom", "--table", "{file}", *PAIR), "DataFormatError"),
    # one class with determinant 1 + q^257, doubled exponent 514: beyond
    # MAX_COINVARIANT_DEGREE, refused before its coefficients are laid out
    "table_high_degree.json": (("exthom", "--table", "{file}", "--chi", "triv", "--psi", "triv",
                                "--max-k", "4"), "DataFormatError"),
    # the sign row replaced by the trivial row: every certified division
    # passes, only validate() sees it
    "table_repeated_row.json": (("exthom", "--table", "{file}", *PAIR), "InvalidTable"),
    # the sign row replaced by the trivial row, id "3" included: two rows
    # under one id, which only comparing rows by position catches
    "table_repeated_id.json": (("exthom", "--table", "{file}", "--chi", "3", "--psi", "3",
                                "--max-k", "4"), "InvalidTable"),
    # S_3 with the sign row's id "1.1.1" renamed "3": the rows are distinct
    # and orthogonal, only the repeated id is wrong
    "table_shared_char_id.json": (("exthom", "--table", "{file}", "--chi", "3", "--psi", "3",
                                   "--max-k", "4"), "InvalidTable"),
    "result_null_p_dual.json": (("dualize", "{file}"), "DataFormatError"),
    "dataset_null_entries.json": (("solve", "{file}", "--out", "{out}"), "DataFormatError"),
}


def test_corpus_is_complete():
    assert sorted(p.name for p in CORPUS.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_report_exit1(tmp_path, name):
    argv, kind = CASES[name]
    argv = [a.format(file=CORPUS / name, out=tmp_path / "out.json") for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "lsalgo.cli", *argv],
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    report, end = json.JSONDecoder().raw_decode(proc.stdout)
    assert proc.stdout[end:] == "\n"
    assert report["status"] == "violation"
    assert report["diagnostics"]
    assert {d["kind"] for d in report["diagnostics"]} == {kind}
    assert not (tmp_path / "out.json").exists()
