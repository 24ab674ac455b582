"""Two oracles for the solver that share no code with it beyond reading
HalfLaurent coefficients.

1. Block LDL^T over the rationals.  With labels grouped by orbit in
   ascending (dim, id) order, omega = L * D * L^T where L = P * diag(t^(dim/2))
   is unit block-lower-triangular and D = diag(t^(-dim/2)) * Lambda *
   diag(t^(-dim/2)) is block-diagonal.  Over a field this factorization is
   unique, so plain block Gaussian elimination of omega evaluated at a
   rational point t^(1/2) = s must reproduce P(s) and Lambda(s).

2. A closed form for the Springer blocks of GL_n: Lambda is diagonal and
   Lambda[lam][lam] = (-1)^(n - len(lam)) * t^c * Q_lam(t), where
   Q_lam = prod_{j<=n} (1 - t^j) / prod_i prod_{j<=m_i(lam)} (1 - t^j) counts,
   up to a monomial, the unipotent class of type lam, and
   c = n(n-1) - 2*n(lam) - deg Q_lam.
"""

import random
import sys
from fractions import Fraction

import pytest

from lsalgo.blockdata import build_springer_block_a, dataset_from_json, load_dataset
from lsalgo.laurent import ZERO, HalfLaurent
from lsalgo.solver import solve
from lsalgo.weyl import partitions_of

from conftest import DATASETS, REPO_ROOT, synthetic_dual_pair
from test_solver_roundtrip import random_factorized_block

# the benchmark's block generator, imported read only
sys.path.append(str(REPO_ROOT / "perfbench"))
import plant  # noqa: E402

POINTS = (Fraction(3, 2), Fraction(5, 3))

# (seed, orbits) of the planted blocks: two incomparable orbits per level,
# 1-4 labels per orbit, dual label pairs, as in the multilabel workload
PLANTED = ((0, 12), (1, 14), (2, 16))


def at(f: HalfLaurent, s: Fraction) -> Fraction:
    """f evaluated at t^(1/2) = s."""
    return sum((v * s**e for e, v in f.items()), Fraction(0))


def invert(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse of a nonsingular rational matrix."""
    n = len(m)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[pivot] = rows[pivot], rows[k]
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for i in range(n):
            if i != k and rows[i][k]:
                factor = rows[i][k]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[k])]
    return [row[n:] for row in rows]


def block_ldl(a, groups):
    """L and D with a = L * D * L^T, L unit lower triangular by the index
    groups taken in order and D block diagonal on them."""
    k = len(a)
    r = [list(row) for row in a]
    low = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    diag = [[Fraction(0)] * k for _ in range(k)]
    pending = [i for g in groups for i in g]
    for g in groups:
        for i in g:
            for j in g:
                diag[i][j] = r[i][j]
        inverse = invert([[r[i][j] for j in g] for i in g])
        pending = [i for i in pending if i not in g]
        for i in pending:
            for b, col in enumerate(g):
                low[i][col] = sum(r[i][g[a]] * inverse[a][b] for a in range(len(g)))
        for i in pending:
            for j in pending:
                r[i][j] -= sum(low[i][col] * r[col][j] for col in g)
    return low, diag


def planted_block(seed: int, n_orbits: int):
    rng = random.Random(f"oracle-planted-{seed}")
    counts = [1 + (seed + j) % 4 for j in range(n_orbits)]
    (block,) = dataset_from_json([plant.plant_block(rng, f"planted-{seed}", counts)["block"]]).blocks
    return block


def oracle_blocks():
    blocks = [random_factorized_block(seed)[0] for seed in range(40)]
    blocks.extend(planted_block(seed, n_orbits) for seed, n_orbits in PLANTED)
    blocks.append(synthetic_dual_pair())
    for path in sorted(DATASETS.glob("*.json")):
        blocks.extend(load_dataset(path).blocks)
    blocks.extend(build_springer_block_a(n) for n in range(1, 7))
    return blocks


@pytest.mark.parametrize("block", oracle_blocks(), ids=lambda b: b.name)
def test_block_ldl_over_the_rationals(block):
    result = solve(block)
    dim_of = {o.id: o.dim for o in block.orbits}
    dims = [dim_of[lb.orbit] for lb in block.labels]
    groups = [[i for i, lb in enumerate(block.labels) if lb.orbit == o.id]
              for o in sorted(block.orbits, key=lambda o: (o.dim, o.id))]
    groups = [g for g in groups if g]
    k = len(block.labels)
    for s in POINTS:
        omega = [[at(block.omega[i][j], s) for j in range(k)] for i in range(k)]
        low, diag = block_ldl(omega, groups)
        for i in range(k):
            for j in range(k):
                assert low[i][j] == at(result.p[i][j], s) * s**dims[j]
                assert diag[i][j] == at(result.lam[i][j], s) * s**(-dims[i] - dims[j])


def times_one_minus_t_power(f: list[int], j: int) -> list[int]:
    """f * (1 - t^j) for f a list of coefficients, constant term first."""
    return [a - (f[e - j] if e >= j else 0)
            for e, a in enumerate(f + [0] * j)]


def over_one_minus_t_power(f: list[int], j: int) -> list[int]:
    """f / (1 - t^j), which must be exact."""
    q = list(f)
    for e in range(j, len(q)):
        q[e] += q[e - j]
    assert not any(q[len(q) - j:])
    return q[:len(q) - j]


def springer_lambda_closed_form(lam, n: int) -> HalfLaurent:
    q = [1]
    for j in range(1, n + 1):
        q = times_one_minus_t_power(q, j)
    for part in set(lam.parts):
        for j in range(1, lam.parts.count(part) + 1):
            q = over_one_minus_t_power(q, j)
    c = n * (n - 1) - 2 * lam.n_statistic() - (len(q) - 1)
    sign = -1 if (n - len(lam.parts)) % 2 else 1
    return HalfLaurent({2 * (c + e): sign * v for e, v in enumerate(q)})


@pytest.mark.parametrize("n", range(1, 9))
def test_springer_lambda_closed_form(n):
    result = solve(build_springer_block_a(n))
    keys = {lam.key(): lam for lam in partitions_of(n)}
    for row in result.labels:
        for col in result.labels:
            expected = springer_lambda_closed_form(keys[row], n) if row == col else ZERO
            assert result.lam_entry(row, col) == expected
