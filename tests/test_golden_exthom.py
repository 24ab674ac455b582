"""Golden digests of `lsalgo exthom --sn` through the CLI entry point.

Each digest is the SHA-256 of a canonical JSON document holding the exit
code and the exact stdout of `cli.main`, for every unordered character pair
of S_n with n = 1..8 and for the error paths of unknown labels and an
oversized --sn.  They were computed while `exthom --sn` still built the
whole S_n character table, so any change to how that table is built must
leave every byte of every report unchanged.  The n = 8 digest was computed
before the Molien determinants, inverse series and Murnaghan-Nakayama rule
were rewritten on plain int sequences, and pins that rewrite the same way.
"""

import hashlib
import json

import pytest

from lsalgo import cli
from lsalgo.weyl import partitions_of

MAX_K = "20"


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(capsys, argv: list[str]) -> list:
    code = cli.main(argv)
    return [code, capsys.readouterr().out]


def sn_argv(n: int, chi: str, psi: str) -> list[str]:
    return ["exthom", "--sn", str(n), "--chi", chi, "--psi", psi, "--max-k", MAX_K]


PAIR_DIGESTS = {
    1: "64e0b5231028a72b394f44e1cb216bd53f5f94bd1b39c3dad657ac4f9232199e",
    2: "cd9959288f3f0bdfc81c0e361d6641b5e41969cb9d42c147aaa1c86d6f3a1cb1",
    3: "af5f70f25dd6c75cb55f4f6610af2fc10046eea3f27218485db94efa9021f66d",
    4: "370f2822a568bfb9fc6e4eeb23995f10e673778b8258b05c5e1d576c3d11a22c",
    5: "4a69d2e6fb63089c180270a4c75fef8ea81515c48ae4d24ecfe92aec6da54125",
    6: "de2eac3fed4b46ea90223667af6e3f95b94f511255fc25f679ae35a2f57a3ee8",
    7: "ee22732bdd7238ab422b74e442c969aab527d5202d745a6df1cbe851b2443c91",
    8: "74b2ba01d368a3956d0b46815187564c3cf4493fda2cf14960a390ea0915df34",
}

ERROR_DIGESTS = {
    "unknown-chi": "a84f024ded9e9fcd4f43214326d0e0e9f5d28927110c84126fe38f070aa6a203",
    "unknown-psi": "f48fa83a76c6756451bc4aff99a7fcc32b9796140846af2b29d9e428d89868ae",
    "both-unknown": "8854e53fd8926598de31b0b7768a93917b20deab28e64f41fc2ef1b7c5b5187d",
    "other-n-key": "7fb626dba6791d36515d48f868d19d61cacd3323c14270513dda9fb4854c36cd",
    "sn-13": "dde4a5fbd8ad2af53c6e8d3a113bc333acffbd3d114072fbf16797c9ae92d346",
}

ERROR_ARGV = {
    "unknown-chi": sn_argv(3, "9", "3"),
    "unknown-psi": sn_argv(5, "3.2", "7"),
    "both-unknown": sn_argv(4, "x", "y"),
    "other-n-key": sn_argv(3, "2.1.1", "2.1"),
    "sn-13": sn_argv(13, "13", "13"),
}


@pytest.mark.parametrize("n", range(1, 9))
def test_every_pair_pinned(capsys, n):
    keys = [lam.key() for lam in partitions_of(n)]
    doc = {f"{chi},{psi}": run(capsys, sn_argv(n, chi, psi))
           for a, chi in enumerate(keys) for psi in keys[a:]}
    assert all(code == 0 for code, _ in doc.values())
    assert digest(doc) == PAIR_DIGESTS[n]


@pytest.mark.parametrize("case", sorted(ERROR_ARGV))
def test_error_paths_pinned(capsys, case):
    code, out = run(capsys, ERROR_ARGV[case])
    assert code == (2 if case == "sn-13" else 1)
    assert digest([code, out]) == ERROR_DIGESTS[case]
