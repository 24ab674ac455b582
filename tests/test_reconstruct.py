"""The self-check `reconstruct` against a dense reference.

`dense_reconstruct` is the plain triple loop over every index, with `+` and
`*` in place of `reconstruct`'s `dot`.  Both must agree on solved blocks and
on tampered results, and a tampered result must not reproduce omega: the
product reads every entry the result holds, not the support the closure
order allows, so a stray entry cannot hide.
"""

import dataclasses

import pytest

from lsalgo.blockdata import build_springer_block_a, load_dataset
from lsalgo.laurent import ONE, ZERO, t_power
from lsalgo.solver import reconstruct, solve

from conftest import DATASETS, synthetic_dual_pair
from test_solver_roundtrip import random_factorized_block


def dense_reconstruct(result, block):
    k = len(result.labels)
    pl = [[ZERO] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            acc = ZERO
            for a in range(k):
                if result.p[i][a] and result.lam[a][j]:
                    acc = acc + result.p[i][a] * result.lam[a][j]
            pl[i][j] = acc
    out = [[ZERO] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            acc = ZERO
            for a in range(k):
                if pl[i][a] and result.p[j][a]:
                    acc = acc + pl[i][a] * result.p[j][a]
            out[i][j] = acc
    return tuple(tuple(row) for row in out)


def with_entry(matrix, i, j, value):
    rows = [list(row) for row in matrix]
    rows[i][j] = value
    return tuple(tuple(row) for row in rows)


def dataset_blocks():
    return [block for path in sorted(DATASETS.glob("*.json"))
            for block in load_dataset(path).blocks]


@pytest.mark.parametrize("seed", range(40))
def test_matches_dense_on_random_blocks(seed):
    block, _, _ = random_factorized_block(seed)
    result = solve(block)
    assert reconstruct(result, block) == dense_reconstruct(result, block) == block.omega


@pytest.mark.parametrize("block", dataset_blocks() + [build_springer_block_a(6)],
                         ids=lambda b: b.name)
def test_matches_dense_on_shipped_data(block):
    result = solve(block)
    assert reconstruct(result, block) == dense_reconstruct(result, block) == block.omega


# synthetic_dual_pair labels: a, b on orbit "low"; c on orbit "high" above it
TAMPERINGS = {
    # p[a][c]: orbit "high" does not lie below "low", so the closure order
    # forces zero here
    "p-outside-support": lambda r: dataclasses.replace(
        r, p=with_entry(r.p, 0, 2, ONE)),
    # lam[a][c] pairs labels on different orbits
    "lam-off-orbit": lambda r: dataclasses.replace(
        r, lam=with_entry(r.lam, 0, 2, t_power(1))),
    # p[c][a] lies inside the support; its value changes
    "p-changed-in-support": lambda r: dataclasses.replace(
        r, p=with_entry(r.p, 2, 0, r.p[2][0] + t_power(-1))),
    "lam-changed-in-support": lambda r: dataclasses.replace(
        r, lam=with_entry(r.lam, 0, 1, r.lam[0][1] - ONE)),
}


@pytest.mark.parametrize("name", sorted(TAMPERINGS))
def test_tampered_result_fails(name):
    block = synthetic_dual_pair()
    tampered = TAMPERINGS[name](solve(block))
    product = reconstruct(tampered, block)
    assert product != block.omega
    assert product == dense_reconstruct(tampered, block)


@pytest.mark.parametrize("seed", range(10))
def test_tampered_random_block_fails(seed):
    # one more unit in the top-right corner of p or lam: with several labels
    # that entry lies outside any support the solver produces
    block, _, _ = random_factorized_block(seed)
    result = solve(block)
    k = len(result.labels)
    for tampered in (
            dataclasses.replace(result, p=with_entry(result.p, 0, k - 1, result.p[0][k - 1] + ONE)),
            dataclasses.replace(result, lam=with_entry(result.lam, 0, k - 1,
                                                       result.lam[0][k - 1] + ONE))):
        product = reconstruct(tampered, block)
        assert product != block.omega
        assert product == dense_reconstruct(tampered, block)

