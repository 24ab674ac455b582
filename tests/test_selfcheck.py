"""The self-check that `solve` runs on every result before returning it.

`_check_invariants` tests p for duality, Lambda for symmetry, and compares
only the upper triangle of P * Lambda * P^T with omega; both are symmetric,
so that decides equality.  Each result from `tamperings` keeps p
dual-invariant and Lambda symmetric, so only the product can reject it;
`reconstruct`, which forms the full product, must disagree with omega on
the same results.

A change of basis P * G, G^-1 * Lambda * G^-T keeps the product, so only
the support constraints can reject it: p lower triangular along the closure
order with diagonal t^(-dim/2), and Lambda zero off the orbit blocks.
"""

import dataclasses
import re

import pytest

from lsalgo import solver
from lsalgo.blockdata import (
    BlockData, OrbitInfo, SimpleLabel, build_springer_block_a, closure_below)
from lsalgo.laurent import ONE, ZERO, HalfLaurent, dot, t_power
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
    solver._check_invariants(result, block, *solver._duals(block), closure_below(block))


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
    labels, k = block.label_ids(), len(block.labels)
    for name, tampered in tamperings(block):
        with pytest.raises(SolverError, match=NOT_REPRODUCED) as excinfo:
            check(tampered, block)
        product = reconstruct(tampered, block)
        assert product != block.omega, name
        # located at the first upper-triangle entry of the full product that differs
        i, j = next((i, j) for i in range(k) for j in range(i, k)
                    if product[i][j] != block.omega[i][j])
        assert str(excinfo.value).endswith(f"omega[{labels[i]}][{labels[j]}]"), name


def test_off_diagonal_lam_change_leaves_the_diagonal_of_the_product():
    # a change the diagonal of P * Lambda * P^T cannot see
    block = one_orbit_pair()
    tampered = bump_lam(solve(block), 0, 1)
    product = reconstruct(tampered, block)
    assert [product[i][i] for i in range(2)] == [block.omega[i][i] for i in range(2)]
    with pytest.raises(SolverError, match=NOT_REPRODUCED) as excinfo:
        check(tampered, block)
    assert str(excinfo.value) == "P * Lambda * P^T does not reproduce omega[a][b]"


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


def matmul(a, b):
    return tuple(tuple(dot(row, col) for col in zip(*b)) for row in a)


def change_of_basis(result, g, g_inv):
    """P * G and G^-1 * Lambda * G^-T: P * Lambda * P^T stays the same."""
    lam = matmul(matmul(g_inv, result.lam), tuple(zip(*g_inv)))
    return dataclasses.replace(result, p=matmul(result.p, g), lam=lam)


def basis_change(k, diagonal=None, cell=None):
    """G and G^-1 for G = D + c * E_ij: D diagonal with the units of
    `diagonal` (position -> monomial) and ones elsewhere, c * E_ij from
    `cell` = (i, j, c) with i != j, not both given."""
    g = [[ONE if a == b else ZERO for b in range(k)] for a in range(k)]
    g_inv = [list(row) for row in g]
    for a, unit in (diagonal or {}).items():
        g[a][a], g_inv[a][a] = unit, unit ** -1
    if cell:
        i, j, c = cell
        g[i][j], g_inv[i][j] = c, -c
    return g, g_inv


SPRINGER_A3 = build_springer_block_a(3)  # labels 1.1.1, 2.1, 3 on orbits of dim 0, 4, 6


def test_change_of_basis_off_the_closure_order_is_caught():
    # G = I + t * E from label 1.1.1 to label 3: every constraint breaks at once
    block = SPRINGER_A3
    tampered = change_of_basis(solve(block), *basis_change(3, cell=(0, 2, t_power(1))))
    assert tampered.p_entry("1.1.1", "3") == t_power(1)
    assert tampered.p_entry("3", "3") == t_power(-3) + t_power(-2)
    assert tampered.lam_entry("1.1.1", "3") == HalfLaurent({4: -1, 8: 1, 10: 1, 14: -1})
    assert reconstruct(tampered, block) == block.omega
    with pytest.raises(SolverError, match=re.escape(
            "p[1.1.1][3] is nonzero, which the closure order forbids")):
        check(tampered, block)


def test_diagonal_off_its_monomial_is_caught():
    # column 2.1 times t: p[2.1][2.1] = t^-1 instead of t^-2
    block = SPRINGER_A3
    tampered = change_of_basis(solve(block), *basis_change(3, diagonal={1: t_power(1)}))
    assert reconstruct(tampered, block) == block.omega
    with pytest.raises(SolverError, match=re.escape(
            "p[2.1][2.1] is not t^(-dim/2) for the dim 4 of its orbit")):
        check(tampered, block)


def test_lam_off_the_orbit_blocks_is_caught():
    # G = I + E from label 3 to label 1.1.1 moves p[3][1.1.1], where the
    # closure order allows an entry, and compensates in Lambda off its blocks
    block = SPRINGER_A3
    result = solve(block)
    tampered = change_of_basis(result, *basis_change(3, cell=(2, 0, ONE)))
    assert tampered.p_entry("3", "1.1.1") != result.p_entry("3", "1.1.1")
    assert reconstruct(tampered, block) == block.omega
    with pytest.raises(SolverError, match=re.escape(
            "lambda[1.1.1][3] is nonzero off the orbit blocks")):
        check(tampered, block)
