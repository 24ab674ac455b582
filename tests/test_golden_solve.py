"""Golden digests of `lsalgo solve --format json` output.

Each digest is the SHA-256 of the file that `solve` writes, and was computed
before the solver's elimination loop was rewritten, so any change to the
solver that alters one byte of its output fails here.  The Springer blocks
are built by `generate springer-a` and solved both in the default linear
extension and in a seeded random one; the solution does not depend on the
extension, so both give the same bytes.
"""

import hashlib

import pytest

from lsalgo.cli import main

from conftest import DATASETS

SPRINGER_DIGESTS = {
    2: "4315b34a17da9cf35ccbaebe00af36c3de0f873e357875ce422a0e2f72b8ae57",
    3: "8cc07c8a06b2094055ebec65ddd3ae7c53912d3ac30d7af70187963a05a83e0e",
    4: "0ff4df733bdfe005469570c65570033456a6618b029315cc89b3763dd73002cb",
    5: "d58c27b19b7ad7b4e4bba4f8c8fcb5b7832fae769dcec657e076865f50ab0b04",
    6: "920aee215d9264c94046b87bd4874c7f3bd0c0f650810f4448d62b8e603d1fdc",
    7: "263282577ba9a3ca102fd49d1be46a8a0dd7f993e9e9a4916a12e931a570dd03",
    8: "c7f7f58e8c5e3af78f5b212cb90580fe2dd5c3b179f12dfbba47e83cf613933f",
}

DATASET_DIGESTS = {
    "decomposition_a2_dual": "0793c35c71a108168bb90019e3f63419bee636f4a9b8915a6a30fd9d8798ba5f",
    "springer_a2": "4315b34a17da9cf35ccbaebe00af36c3de0f873e357875ce422a0e2f72b8ae57",
    "springer_a3": "8cc07c8a06b2094055ebec65ddd3ae7c53912d3ac30d7af70187963a05a83e0e",
    "synthetic_dual_pair": "24f9e93caee452a246ecd08faf6f9df29b0cfcec0b040fcf249dc06a15cc68ad",
}


def solve_digest(tmp_path, source, *extra: str) -> str:
    out = tmp_path / "result.json"
    assert main(["solve", str(source), "--format", "json", "--out", str(out), *extra]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def springer_files(tmp_path_factory):
    work = tmp_path_factory.mktemp("springer")
    files = {}
    for n in SPRINGER_DIGESTS:
        files[n] = work / f"springer_a{n}.json"
        assert main(["generate", "springer-a", "--n", str(n), "--out", str(files[n])]) == 0
    return files


@pytest.mark.parametrize("order", [(), ("--order-seed", "3")], ids=["default", "seed-3"])
@pytest.mark.parametrize("n", sorted(SPRINGER_DIGESTS))
def test_springer_solve_bytes(tmp_path, springer_files, n, order):
    assert solve_digest(tmp_path, springer_files[n], *order) == SPRINGER_DIGESTS[n]


@pytest.mark.parametrize("name", sorted(DATASET_DIGESTS))
def test_dataset_solve_bytes(tmp_path, name):
    assert solve_digest(tmp_path, DATASETS / f"{name}.json") == DATASET_DIGESTS[name]
