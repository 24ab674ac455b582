"""The self-check that `solve` runs on every result before returning it.

`_check_invariants` tests p for duality, Lambda for symmetry, and compares
only the upper triangle of P * Lambda * P^T with omega; both are symmetric,
so that decides equality.  Each result from `tamperings` keeps p
dual-invariant and Lambda symmetric, so only the product can reject it;
`reconstruct`, which forms the full product, must disagree with omega on
the same results.
"""

import dataclasses
import re

import pytest

from lsalgo import solver
from lsalgo.blockdata import BlockData, OrbitInfo, SimpleLabel, build_springer_block_a
from lsalgo.laurent import ONE, t_power
from lsalgo.solver import SolverError, reconstruct, solve

from conftest import synthetic_dual_pair
from test_reconstruct import dataset_blocks
from test_solver_roundtrip import random_factorized_block

NOT_REPRODUCED = re.escape("P * Lambda * P^T does not reproduce omega")


def one_orbit_pair() -> BlockData:
    """Two self-dual labels on one orbit: P is t^(-1) times the identity, so
    the product at (i, j) is t^(-2) * lam[i][j] and its diagonal reads no
    off-diagonal entry of Lambda."""
    labels = (SimpleLabel("a", "o"), SimpleLabel("b", "o"))
    omega = ((2 * ONE, t_power(-1)), (t_power(-1), 2 * ONE))
    return BlockData("one-orbit-pair", (OrbitInfo("o", 2),), labels, omega)


def check(result, block):
    solver._check_invariants(result, block, solver._duals(block)[0])


def bumped(matrix, cells):
    rows = [list(row) for row in matrix]
    for i, j in cells:
        rows[i][j] += ONE
    return tuple(tuple(row) for row in rows)


def bump_p(result, dual, i, j):
    """p[i][j] and its dual entry, one unit more: p stays dual-invariant."""
    return dataclasses.replace(result, p=bumped(result.p, {(i, j), (dual[i], dual[j])}))


def bump_lam(result, i, j):
    """lam[i][j] and lam[j][i], one unit more: lam stays symmetric."""
    return dataclasses.replace(result, lam=bumped(result.lam, {(i, j), (j, i)}))


def tamperings(block):
    """(name, tampered result) pairs: labels 0 and k-1 sit on the lowest and
    the highest orbit, and label m is the last one on the orbit of label 0."""
    result = solve(block)
    dual = solver._duals(block)[0]
    k = len(block.labels)
    m = max(i for i, lb in enumerate(block.labels) if lb.orbit == block.labels[0].orbit)
    out = [("p-above-diagonal", bump_p(result, dual, 0, k - 1)),
           ("p-below-diagonal", bump_p(result, dual, k - 1, 0)),
           ("lam-in-orbit", bump_lam(result, 0, m))]
    if block.labels[k - 1].orbit != block.labels[0].orbit:
        out.append(("lam-off-orbit", bump_lam(result, 0, k - 1)))
    return out


# random round-trip blocks with at least two orbits, so that every tampering applies
ROUNDTRIP_SEEDS = [seed for seed in range(20)
                   if len(random_factorized_block(seed)[0].orbits) > 1][:10]
TAMPERED_BLOCKS = ([synthetic_dual_pair(), one_orbit_pair()]
                   + [random_factorized_block(seed)[0] for seed in ROUNDTRIP_SEEDS])


@pytest.mark.parametrize("block", TAMPERED_BLOCKS, ids=lambda b: b.name)
def test_tampered_results_fail_the_check(block):
    for name, tampered in tamperings(block):
        with pytest.raises(SolverError, match=NOT_REPRODUCED):
            check(tampered, block)
        assert reconstruct(tampered, block) != block.omega, name


def test_off_diagonal_lam_change_leaves_the_diagonal_of_the_product():
    # a change the diagonal of P * Lambda * P^T cannot see
    block = one_orbit_pair()
    tampered = bump_lam(solve(block), 0, 1)
    product = reconstruct(tampered, block)
    assert [product[i][i] for i in range(2)] == [block.omega[i][i] for i in range(2)]
    with pytest.raises(SolverError, match=NOT_REPRODUCED):
        check(tampered, block)


def test_asymmetric_lam_is_caught_by_the_symmetry_test():
    # only lam[b][a] changes: the upper triangle of the product still equals
    # omega, so the symmetry test alone can reject the result
    block = one_orbit_pair()
    result = solve(block)
    tampered = dataclasses.replace(result, lam=bumped(result.lam, {(1, 0)}))
    with pytest.raises(SolverError, match=re.escape("lambda[a][b] is not symmetric")):
        check(tampered, block)


def test_dual_asymmetric_p_is_caught():
    block = synthetic_dual_pair()
    result = solve(block)
    tampered = dataclasses.replace(result, p=bumped(result.p, {(2, 0)}))
    with pytest.raises(solver.DualSymmetryViolation):
        check(tampered, block)


UNTAMPERED = ([random_factorized_block(seed)[0] for seed in range(40)] + dataset_blocks()
              + [build_springer_block_a(n) for n in range(1, 7)])


@pytest.mark.parametrize("block", UNTAMPERED, ids=lambda b: b.name)
def test_untampered_results_pass(block):
    result = solve(block)
    check(result, block)
    assert reconstruct(result, block) == block.omega
