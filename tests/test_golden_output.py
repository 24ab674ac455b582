"""Golden digests of the JSON documents that lsalgo writes, other than the
solve result files (`test_golden_solve.py` pins those).

Each digest is the SHA-256 of exact bytes: the dataset file that `generate`
writes, the stdout of `dualize`, and the stdout of `cli.main` for reports
of each status, one of them carrying a `null` field.  They were computed
while every document still went through `json.dump(..., indent=2,
sort_keys=True)`, so any other encoder must reproduce its bytes.  Commands
run in a scratch directory with relative paths, so that the artifact paths
inside a report are the same on every run.
"""

import hashlib
import json

import pytest

from lsalgo.blockdata import Dataset, block_to_json, build_springer_block_a, save_dataset
from lsalgo.cli import main

from conftest import DATASETS, singular_lambda_block

GENERATE_DIGESTS = {
    1: "b43fc643624cbd0233246446be3d4b5d80bbc3e35bcb25bcd6c636dc930b68f0",
    2: "5796ba8a42d723e91a3eb901354c78de43577803b9df5b6d42f30942d04ce109",
    3: "28e62b8e11aa37d1a0b6b2c3a7f8837a9898066d8e71bc5683ac923f52298693",
    4: "88d0adda7009607ac6bf2f2e816a48f8dbf76afa4c33c267c8498b0a2f16cf82",
    5: "cb371ddcfc52d262912a717d95952ff797ad7cdf8256e5ad4a4a385feac4c849",
    6: "1c773822a7783e8e1d2d2279fded25edbeb46fe7a966584f44cf0bbb82cec8e2",
    7: "2b51c7be4b94e27a427d0742b942b2c075fdd116dd34c0de6f32d927d455b43e",
    8: "eb40f289816d072ced781df0cb6366660c43ee39fd87322c70a30c4ac1aedcfa",
}

DUALIZE_DIGESTS = {
    "decomposition_a2_dual": "fed090eb2de9298b44aea2d2291b42727e70c24f8535d5937a20bdad240086ea",
    "springer_a2": "cf470f8f174b3076abbfcf73d875af981d3cad376afa4ce2aa074d3eb494562c",
    "springer_a3": "7ecdd342a80a16a1f9dd4b144cca3b8535ee2e5cb6a997ea694256594e3f2920",
    "synthetic_dual_pair": "af1083be64e526efc1f1d9c443dfe2c6047501c8621aa13529377fc8daaf0113",
}

REPORT_DIGESTS = {
    "generate-ok": "d93ecb74440511b1790d5831e6162d40fbb845ff8a1bf38c5ccca406b9590164",
    "solve-ok": "765f72307b87b5a5f8d6419e034cb0b5c2c1a2142261421bcedcb4cbd456b691",
    "verify-ok": "b1bd5fefcc4fbb2b85c163a4c6ce9b3ea6cab54d6f614bd97a64ad859b02797a",
    "singular-lambda": "2d0e94d4295a6785c8d89d10fce6f650a9f318a58fdd8540b106c4b6113f71cc",
    "violation": "e1f1ab9f09578a7a0c0c3571435371552c7d047714bbd42e5790e613418de504",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("n", sorted(GENERATE_DIGESTS))
def test_generate_bytes(workdir, n):
    assert main(["generate", "springer-a", "--n", str(n), "--out", "a.json"]) == 0
    assert sha256((workdir / "a.json").read_bytes()) == GENERATE_DIGESTS[n]


@pytest.mark.parametrize("name", sorted(DUALIZE_DIGESTS))
def test_dualize_stdout(workdir, capsys, name):
    assert main(["solve", str(DATASETS / f"{name}.json"), "--out", "r.json"]) == 0
    capsys.readouterr()
    assert main(["dualize", "r.json"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == DUALIZE_DIGESTS[name]


def _singular_lambda(workdir):
    save_dataset(Dataset((singular_lambda_block(),)), workdir / "in.json")
    return ["solve", "in.json", "--out", "r.json"], 2


def _violation(workdir):
    obj = block_to_json(build_springer_block_a(2))
    obj["omega"]["entries"][0][1] = {"4": 7}
    (workdir / "in.json").write_text(json.dumps([obj]), encoding="utf-8")
    return ["solve", "in.json", "--out", "r.json"], 1


REPORTS = {
    "generate-ok": lambda workdir: (["generate", "springer-a", "--n", "3", "--out", "a.json"], 0),
    "solve-ok": lambda workdir: (["solve", str(DATASETS / "springer_a3.json"), "--out", "r.json"], 0),
    "verify-ok": lambda workdir: (["verify", "--n-max", "2"], 0),
    "singular-lambda": _singular_lambda,
    "violation": _violation,
}


@pytest.mark.parametrize("case", sorted(REPORT_DIGESTS))
def test_report_stdout(workdir, capsys, case):
    argv, code = REPORTS[case](workdir)
    assert main(argv) == code
    out = capsys.readouterr().out
    if case == "singular-lambda":
        assert '"row": null' in out
    assert sha256(out.encode()) == REPORT_DIGESTS[case]
