"""Round-trip stress test: build random blocks from a known factorization,
multiply out omega = P * Lambda * P^T, and demand the solver recover P and
Lambda exactly.  Uniqueness of the constrained factorization makes this a
complete oracle, and random generation reaches paths the shipped datasets
cannot: orbits carrying several labels (so Lambda blocks up to 3x3 get
inverted), odd orbit dimensions (half-integer powers on the diagonal),
nontrivial duality pairs, and incomparable orbits with nonzero running
corrections."""

import random

import pytest

from lsalgo.blockdata import BlockData, OrbitInfo, SimpleLabel, validate_block
from lsalgo.laurent import ZERO, HalfLaurent, t_half_power
from lsalgo.solver import reconstruct, solve

from conftest import extension_invariant, leibniz_det


def random_poly(rng: random.Random, parity: int = 0) -> HalfLaurent:
    """Small random polynomial; all doubled exponents share `parity`."""
    coeffs = {}
    for _ in range(rng.randint(0, 3)):
        e = 2 * rng.randint(-2, 2) + parity
        coeffs[e] = rng.randint(-3, 3)
    return HalfLaurent(coeffs)


def random_factorized_block(seed: int) -> tuple[BlockData, list[list[HalfLaurent]], list[list[HalfLaurent]]]:
    rng = random.Random(seed)
    n_orbits = rng.randint(1, 4)
    dims = sorted(rng.sample(range(0, 12), n_orbits))

    orbits = []
    for i in range(n_orbits):
        lower = list(range(i))
        covers = tuple(f"o{j}" for j in sorted(rng.sample(lower, rng.randint(0, len(lower))))
                       ) if lower else ()
        orbits.append(OrbitInfo(f"o{i}", dims[i], covers))

    labels: list[SimpleLabel] = []
    orbit_members: list[list[int]] = []
    for i in range(n_orbits):
        members = []
        count = rng.randint(1, 3)
        ids = [f"o{i}x{a}" for a in range(count)]
        dual = {lid: lid for lid in ids}
        if count >= 2 and rng.random() < 0.5:
            dual[ids[0]], dual[ids[1]] = ids[1], ids[0]
        for lid in ids:
            members.append(len(labels))
            labels.append(SimpleLabel(lid, f"o{i}", "L", dual[lid]))
        orbit_members.append(members)

    k = len(labels)
    index = {lb.id: pos for pos, lb in enumerate(labels)}
    dual_pos = [index[lb.dual] for lb in labels]

    def set_pair(matrix, i, j, value):
        matrix[i][j] = value
        matrix[dual_pos[i]][dual_pos[j]] = value

    # closure relation: strictly below via cover reachability
    below: dict[int, set[int]] = {}
    for i, orb in enumerate(orbits):
        reach = set()
        stack = [int(c[1:]) for c in orb.covers]
        while stack:
            j = stack.pop()
            if j not in reach:
                reach.add(j)
                stack.extend(int(c[1:]) for c in orbits[j].covers)
        below[i] = reach

    lam = [[ZERO] * k for _ in range(k)]
    p = [[ZERO] * k for _ in range(k)]
    for i, members in enumerate(orbit_members):
        parity = dims[i] % 2
        # diagonal of P: t^(-dim/2) on each label of the orbit
        for a in members:
            p[a][a] = t_half_power(-dims[i])
        # a symmetric, dual-invariant, nonsingular Lambda block
        while True:
            for ai, a in enumerate(members):
                for b in members[ai:]:
                    value = random_poly(rng)
                    set_pair(lam, a, b, value)
                    set_pair(lam, b, a, value)
            block_matrix = [[lam[a][b] for b in members] for a in members]
            if leibniz_det(block_matrix):
                break
        # rows of P from orbits strictly above, dual-equivariantly
        for j in range(i + 1, n_orbits):
            if i not in below[j]:
                continue
            for a in orbit_members[j]:
                for b in members:
                    set_pair(p, a, b, random_poly(rng, parity))

    omega = [[ZERO] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            acc = ZERO
            for a in range(k):
                for b in range(k):
                    acc = acc + p[i][a] * lam[a][b] * p[j][b]
            omega[i][j] = acc

    block = BlockData(f"roundtrip-{seed}", tuple(orbits), tuple(labels),
                      tuple(tuple(row) for row in omega))
    return block, p, lam


@pytest.mark.parametrize("seed", range(25))
def test_random_factorization_recovered_exactly(seed):
    block, p, lam = random_factorized_block(seed)
    assert validate_block(block) == []
    result = solve(block)
    assert result.p == tuple(tuple(row) for row in p)
    assert result.lam == tuple(tuple(row) for row in lam)
    assert reconstruct(result, block) == block.omega


@pytest.mark.parametrize("seed", range(25, 35))
def test_random_blocks_are_extension_invariant(seed):
    block, _, _ = random_factorized_block(seed)
    assert extension_invariant(block, 4)
