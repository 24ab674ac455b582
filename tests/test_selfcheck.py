"""The self-check that `solve` runs on every result before returning it.

`_check_invariants` tests p for duality, Lambda for symmetry, and compares
only the upper triangle of P * Lambda * P^T with omega; both are symmetric,
so that decides equality.  It compares the exact values of both sides at
t^(1/2) = 2^B, with B above the bit length of a bound on the coefficients
of the difference, so equal values prove equal entries.  Each tampered
result here keeps p dual-invariant and Lambda symmetric, so only the product
can reject it; `reconstruct`, which forms the full product as polynomials,
must disagree with omega on the same results, and the check must name the
first upper-triangle entry where it does.  Tamperings by (t^(1/2) - 2^s) *
t^e vanish at t^(1/2) = 2^s, so they fail only a check whose B is large
enough.

A change of basis P * G, G^-1 * Lambda * G^-T keeps the product, so only
the support constraints can reject it: p lower triangular along the closure
order with diagonal t^(-dim/2), and Lambda zero off the orbit blocks.
"""

import dataclasses
import random
import re

import pytest

from lsalgo import solver
from lsalgo.blockdata import (
    BlockData, OrbitInfo, SimpleLabel, build_springer_block_a, closure_below)
from lsalgo.laurent import ONE, ZERO, HalfLaurent, dot
from lsalgo.solver import SolverError, reconstruct, solve

from conftest import synthetic_dual_pair, t_power
from test_reconstruct import dataset_blocks
from test_solver import planted_block
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
    solver._check_invariants(result, block, closure_below(block))


def bumped(matrix, cells, f=ONE):
    rows = [list(row) for row in matrix]
    for i, j in cells:
        rows[i][j] += f
    return tuple(tuple(row) for row in rows)


def bump_p(result, dual, i, j, f=ONE):
    """p[i][j] and its dual entry plus f: p stays dual-invariant."""
    return dataclasses.replace(result, p=bumped(result.p, {(i, j), (dual[i], dual[j])}, f))


def bump_lam(result, i, j, f=ONE):
    """lam[i][j] and lam[j][i] plus f: lam stays symmetric."""
    return dataclasses.replace(result, lam=bumped(result.lam, {(i, j), (j, i)}, f))


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


def first_difference(result, block):
    """The first (label, label) in the upper triangle at which the full
    product `reconstruct` forms differs from omega, or None."""
    product, labels, k = reconstruct(result, block), block.label_ids(), len(block.labels)
    return next(((labels[i], labels[j]) for i in range(k) for j in range(i, k)
                 if product[i][j] != block.omega[i][j]), None)


def assert_rejected_at_first_difference(tampered, block, name):
    at = first_difference(tampered, block)
    assert at is not None, name
    with pytest.raises(SolverError, match=NOT_REPRODUCED) as excinfo:
        check(tampered, block)
    assert str(excinfo.value).endswith(f"omega[{at[0]}][{at[1]}]"), name


@pytest.mark.parametrize("block", TAMPERED_BLOCKS, ids=lambda b: b.name)
def test_tampered_results_fail_the_check(block):
    for name, tampered in tamperings(block):
        assert_rejected_at_first_difference(tampered, block, name)


@pytest.mark.parametrize("s", [0, 1, 8, 64, 256])
@pytest.mark.parametrize("block", [synthetic_dual_pair(), build_springer_block_a(4)]
                         + [random_factorized_block(seed)[0] for seed in ROUNDTRIP_SEEDS[:3]],
                         ids=lambda b: b.name)
def test_tampering_that_vanishes_at_a_power_of_two_fails_the_check(block, s):
    # (t^(1/2) - 2^s) * t^e vanishes at t^(1/2) = 2^s, and so does the
    # tampered product minus omega: an evaluation at a point of s bits or
    # fewer could not tell it from zero.  With s = 0 its two terms differ
    # in parity, so an encoding that merged t^(e/2) with t^((e+1)/2), as
    # one assuming a single parity would, sees zero too
    result = solve(block)
    dual = solver._duals(block)[0]
    k = len(block.labels)
    for e in (-3, 0, 2):
        f = HalfLaurent({2 * e + 1: 1, 2 * e: -(2 ** s)})
        for i, j in ((k - 1, 0), (0, k - 1)):
            assert_rejected_at_first_difference(bump_p(result, dual, i, j, f), block, (e, i, j))


def test_bound_squares_the_row_norm_of_p():
    # P * Lambda * P^T = 2^20 against omega = 2^8 * t^(1/2): the two agree
    # at t^(1/2) = 2^12, the point a bound linear in the row norm 2^10 of p
    # would give, and differ at the 2^22 that its square gives
    p, lam, omega = ((2**10 * ONE,),), ((ONE,),), ((HalfLaurent({1: 2**8}),),)
    assert solver._first_mismatch(p, lam, omega) == (0, 0)


PROPERTY_BLOCKS = ([build_springer_block_a(n) for n in range(1, 7)] + [synthetic_dual_pair()]
                   + [random_factorized_block(seed)[0] for seed in ROUNDTRIP_SEEDS]
                   + [planted_block(seed, 8)[0] for seed in range(3)])


@pytest.mark.parametrize("block", PROPERTY_BLOCKS, ids=lambda b: b.name)
def test_check_agrees_with_reconstruct_on_random_tamperings(block):
    # one entry of p or Lambda changed by c * t^(e/2), its dual or symmetric
    # partner too: each changes the upper triangle of reconstruct, and the
    # product test must fail at its first differing entry; results that keep
    # the product, and so pass the product test, are the untampered ones and
    # the changes of basis below
    rng = random.Random(block.name)
    result = solve(block)
    dual = solver._duals(block)[0]
    k = len(block.labels)
    for trial in range(16):
        i, j = rng.randrange(k), rng.randrange(k)
        f = HalfLaurent({rng.randint(-40, 40): rng.choice((1, -1)) * rng.choice((1, 2 ** 100))})
        tampered = bump_lam(result, i, j, f) if trial % 2 else bump_p(result, dual, i, j, f)
        assert_rejected_at_first_difference(tampered, block, (trial, i, j))


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
        # a unit is a signed monomial, and its bar is its inverse
        g[a][a], g_inv[a][a] = unit, unit.bar()
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
