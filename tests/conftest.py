"""Shared test data: hand-checked blocks exercising nontrivial duality and
solver error paths, and oracles that the library itself does not ship."""

import itertools
from functools import lru_cache
from itertools import zip_longest
from operator import mul
from pathlib import Path

import pytest

from lsalgo.blockdata import BlockData, OrbitInfo, SimpleLabel
from lsalgo.laurent import (
    ONE,
    ZERO,
    HalfLaurent,
    NonExactDivision,
    exact_div,
    t_half_power,
    t_power,
)
from lsalgo.solver import solve
from lsalgo.weyl import (
    CharTable, Partition, SizeMismatch, coinvariant_pairing, degrees_product, graded_hom_dims)

REPO_ROOT = Path(__file__).resolve().parent.parent
DATASETS = REPO_ROOT / "datasets"


def leibniz_det(m) -> HalfLaurent:
    """det(m) as the signed sum over permutations, independent of elimination."""
    total = ZERO
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(perm[a] > perm[b] for a in range(len(m)) for b in range(a + 1, len(m)))
        term = -ONE if inversions % 2 else ONE
        for row, col in enumerate(perm):
            term = term * m[row][col]
        total = total + term
    return total


def value_at_one(f: HalfLaurent) -> int:
    """f(1), the sum of the coefficients."""
    return sum(c for _, c in f.items())


def orbit_dim(block: BlockData, label_id: str) -> int:
    """The dim of the orbit that the label `label_id` sits on."""
    (orbit,) = (lb.orbit for lb in block.labels if lb.id == label_id)
    return next(o.dim for o in block.orbits if o.id == orbit)


def series_consistency(table: CharTable, chi: str, psi: str, max_k: int) -> bool:
    """The identity tying the infinite Hom series to the finite coinvariant
    pairing: the series times prod (1 - u^d_j) agrees with
    coinvariant_pairing(chi, psi) through degree max_k."""
    dims = graded_hom_dims(table, chi, psi, max_k)
    product = HalfLaurent({2 * k: v for k, v in enumerate(dims)}) * degrees_product(table)
    pairing = coinvariant_pairing(table, chi, psi)
    return all(product.coefficient(2 * k) == pairing.coefficient(2 * k)
               for k in range(max_k + 1))


def in_q(coefficients) -> HalfLaurent:
    """The polynomial sum_k coefficients[k] * q^k, q = t, as a HalfLaurent."""
    return HalfLaurent({2 * k: v for k, v in enumerate(coefficients)})


def coinvariant_pairing_by_columns(table: CharTable, chi: str, psi: str) -> HalfLaurent:
    """The coinvariant pairing with each c_w = P / det(1 - q*w) taken by
    `exact_div` on HalfLaurent forms, each coefficient of sum_c |c| * chi *
    psi * c_w summed over the classes on its own, then divided by |W| in
    ascending k; the first remainder raises NonExactDivision."""
    product = degrees_product(table)
    graded = []
    for c in table.classes:
        c_w = exact_div(product, in_q(c.molien_det))
        graded.append([c_w.coefficient(2 * k) for k in range(c_w.degree() // 2 + 1)])
    weights = [c.size * x * y for c, x, y in zip(
        table.classes, table.character(chi).values, table.character(psi).values, strict=True)]
    acc = [sum(map(mul, weights, column)) for column in zip_longest(*graded, fillvalue=0)]
    out = {}
    for k, v in enumerate(acc):
        quotient, remainder = divmod(v, table.group_order)
        if remainder:
            raise NonExactDivision(
                f"coefficient {v} of q^{k} is not divisible by |W| = "
                f"{table.group_order}: the character table is inconsistent")
        out[2 * k] = quotient
    return HalfLaurent(out)


def induced_endo_dims(table: CharTable, max_k: int) -> tuple[int, ...]:
    """Graded endomorphism dims of the full induced sheaf through degree
    2 * max_k, as the sum of deg(chi) * deg(psi) * Hom dims over all pairs;
    an S_n table lists the identity class last."""
    degree = {irr.id: irr.values[-1] for irr in table.irreducibles}
    total = [0] * (max_k + 1)
    for chi in degree:
        for psi in degree:
            for k, d in enumerate(graded_hom_dims(table, chi, psi, max_k)):
                total[k] += degree[chi] * degree[psi] * d
    return tuple(total)


def molien_det_product(rho: Partition) -> HalfLaurent:
    """det(1 - q*w) for cycle type rho as a product of HalfLaurent factors
    (1 - q^length), one per cycle."""
    out = ONE
    for length in rho:
        out = out * (ONE - t_power(length))
    return out


def inverse_series_by_terms(f: tuple[int, ...], n_terms: int) -> tuple[int, ...]:
    """First n_terms coefficients of 1/f, f[0] = 1, by the recurrence over
    the nonzero terms of f."""
    terms = [(j, v) for j, v in enumerate(f) if j and v]
    inv = [1]
    for k in range(1, n_terms):
        inv.append(-sum(v * inv[k - j] for j, v in terms if j <= k))
    return tuple(inv)


@lru_cache(maxsize=None)
def mn_by_partitions(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama on partitions: each border strip is removed from
    the beta-set of lam, which is sorted back into a partition."""
    if not rho:
        return 1
    k, rest = rho[0], rho[1:]
    m = len(lam)
    beta = [lam[i] + (m - 1 - i) for i in range(m)]
    total = 0
    for b in beta:
        low = b - k
        if low < 0 or low in beta:
            continue
        leg = sum(1 for x in beta if low < x < b)
        new_beta = sorted((x if x != b else low for x in beta), reverse=True)
        new_lam = tuple(x - (m - 1 - i) for i, x in enumerate(new_beta))
        total += (-1) ** leg * mn_by_partitions(tuple(p for p in new_lam if p > 0), rest)
    return total


def ssyt_by_cells(shape: Partition, content: Partition) -> list[tuple[int, ...]]:
    """Reading words of all semistandard tableaux of the given shape and
    content: rows weakly increase, columns strictly increase.

    Cells are filled in row-major order with the smallest feasible letter
    first, so the output order is deterministic (lexicographic in the row
    reading).  Empty when no filling exists, e.g. when shape does not
    dominate content.
    """
    if shape.n != content.n:
        raise SizeMismatch(f"|{shape.parts}| != |{content.parts}|")
    rows = shape.parts
    n = shape.n
    positions = [(i, j) for i, r in enumerate(rows) for j in range(r)]
    counts = list(content.parts)
    m = len(counts)
    grid = [[0] * r for r in rows]
    out: list[tuple[int, ...]] = []

    def fill(cell: int):
        if cell == n:
            out.append(tuple(sum(reversed(grid), [])))  # rows bottom to top
            return
        i, j = positions[cell]
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        for v in range(lo, m + 1):
            if counts[v - 1] == 0:
                continue
            counts[v - 1] -= 1
            grid[i][j] = v
            fill(cell + 1)
            counts[v - 1] += 1

    fill(0)
    return out


def _rfind(word: list[int], letter: int, start: int) -> int | None:
    for p in range(start, -1, -1):
        if word[p] == letter:
            return p
    return None


def _standard_charge(subword: list[int]) -> int:
    # subword holds each letter 1..k exactly once, in original word order
    position = {letter: pos for pos, letter in enumerate(subword)}
    index = 0
    total = 0
    for r in range(1, len(subword)):
        if position[r + 1] > position[r]:
            index += 1
        total += index
    return total


def _extract_standard_subword(word: list[int]) -> list[int]:
    # Reading right to left, select the first 1 encountered; then, still
    # moving leftward (cyclically, wrapping past the start to the right
    # end), the first 2; and so on while the next letter exists.  Selected
    # letters are removed from `word` in place and returned in their
    # original order.
    chosen: list[int] = []
    letter = 1
    pos = _rfind(word, 1, len(word) - 1)
    while pos is not None:
        chosen.append(pos)
        letter += 1
        nxt = _rfind(word, letter, pos - 1)
        if nxt is None:
            nxt = _rfind(word, letter, len(word) - 1)
        pos = nxt
    chosen.sort()
    subword = [word[p] for p in chosen]
    for p in reversed(chosen):
        del word[p]
    return subword


def charge_by_subwords(reading_word: tuple[int, ...]) -> int:
    """Charge by extracting each standard subword, then reading its index
    sum off the positions of its letters.  The content must be a partition."""
    word = list(reading_word)
    total = 0
    while word:
        total += _standard_charge(_extract_standard_subword(word))
    return total


def extension_invariant(block: BlockData, trials: int) -> bool:
    """Whether `trials` seeded linear extensions all solve to the default result."""
    reference = solve(block)
    return all(solve(block, order_seed=seed) == reference for seed in range(trials))


def singleton_cuspidal_block(name: str, dim: int, omega: HalfLaurent) -> BlockData:
    """A one-label block: a single self-dual local system on a single orbit."""
    orbit = OrbitInfo("orbit", dim, ())
    label = SimpleLabel("cuspidal", "orbit", "cuspidal", "cuspidal")
    return BlockData(name, (orbit,), (label,), ((omega,),),
                     {"family": "singleton-cuspidal", "dim": dim})


def synthetic_dual_pair() -> BlockData:
    """Two-orbit block whose lower orbit carries dual label pair (a, b).

    Built from a known factorization and multiplied out by hand, so the
    solver must recover exactly:

        p = [[t^-1, 0, 0], [0, t^-1, 0], [t^-1, t^-1, t^-2]]
        lambda blocks: [[t^2, 1], [1, t^2]] on the lower orbit,
                       [t^4 - t^2] on the upper orbit.
    """
    orbits = (
        OrbitInfo("low", 2, ()),
        OrbitInfo("high", 4, ("low",)),
    )
    labels = (
        SimpleLabel("a", "low", "L", "b"),
        SimpleLabel("b", "low", "L-dual", "a"),
        SimpleLabel("c", "high", "triv", "c"),
    )
    w_ac = ONE + t_power(-2)
    omega = (
        (ONE, t_power(-2), w_ac),
        (t_power(-2), ONE, w_ac),
        (w_ac, w_ac, 3 * ONE + t_power(-2)),
    )
    return BlockData("synthetic-dual-pair", orbits, labels, omega,
                     {"family": "hand-authored", "note": "dual label pair"})


def top_first_chain(n: int, at: tuple[int, ...] = (0,)) -> BlockData:
    """A chain o0 < o1 < ... of n orbits with dims 0, 2, 4, ..., listed top
    first, with one label on o_i for each i in `at`; its factorization has
    the diagonal P and Lambda = 1."""
    orbits = tuple(OrbitInfo(f"o{i}", 2 * i, (f"o{i - 1}",) if i else ())
                   for i in reversed(range(n)))
    labels = tuple(SimpleLabel(f"x{i}", f"o{i}") for i in at)
    omega = tuple(tuple(t_half_power(-4 * i) if i == j else ZERO for j in at) for i in at)
    return BlockData("chain", orbits, labels, omega)


def incomparable_orbits_block(cross_value: HalfLaurent) -> BlockData:
    """Three orbits with an incomparable pair; a nonzero pairing between the
    two incomparable orbits violates the support constraints."""
    orbits = (
        OrbitInfo("o1", 0, ()),
        OrbitInfo("o2", 2, ()),
        OrbitInfo("top", 4, ("o1", "o2")),
    )
    labels = (
        SimpleLabel("x", "o1"),
        SimpleLabel("y", "o2"),
        SimpleLabel("z", "top"),
    )
    omega = (
        (ONE, cross_value, ZERO),
        (cross_value, t_power(2), ZERO),
        (ZERO, ZERO, ONE),
    )
    return BlockData("incomparable", orbits, labels, omega)


def singular_lambda_block() -> BlockData:
    """Valid-looking data whose lower Lambda block is singular."""
    orbits = (OrbitInfo("low", 0, ()), OrbitInfo("high", 2, ("low",)))
    labels = (
        SimpleLabel("a", "low"),
        SimpleLabel("b", "low"),
        SimpleLabel("c", "high"),
    )
    omega = (
        (ONE, ONE, ONE),
        (ONE, ONE, ONE),
        (ONE, ONE, ONE),
    )
    return BlockData("singular", orbits, labels, omega)


def singular_maximal_orbit_blocks() -> dict[str, BlockData]:
    """Blocks whose only orbit, hence a maximal one, has a singular Lambda
    block.  No row lies above it, so only its determinant can reject them."""
    rank_one = BlockData("rank-one", (OrbitInfo("o", 2),),
                         (SimpleLabel("a", "o"), SimpleLabel("b", "o")),
                         ((ONE, ONE), (ONE, ONE)))
    return {"singleton-zero": singleton_cuspidal_block("zero", 2, ZERO),
            "two-labels-rank-one": rank_one}


def singular_and_support_fault_block() -> BlockData:
    """Orbit o1 has a singular Lambda block and a nonzero pairing with the
    incomparable orbit o2: both faults sit on one orbit."""
    block = incomparable_orbits_block(ONE)
    omega = ((ZERO,) + block.omega[0][1:],) + block.omega[1:]
    return BlockData("singular-and-support", block.orbits, block.labels, omega)


def non_ring_solution_block() -> BlockData:
    """Forces p = 1/2, which is not a ring element."""
    orbits = (OrbitInfo("low", 0, ()), OrbitInfo("high", 2, ("low",)))
    labels = (SimpleLabel("a", "low"), SimpleLabel("c", "high"))
    omega = (
        (2 * ONE, ONE),
        (ONE, ONE),
    )
    return BlockData("non-ring", orbits, labels, omega)


def non_ring_dual_pair_block() -> BlockData:
    """A dual label pair on the lower orbit with Lambda block t^2 * [[2, 1],
    [1, 2]], so the row above solves to p = t^(-2)/3 on both labels."""
    orbits = (OrbitInfo("low", 2, ()), OrbitInfo("high", 4, ("low",)))
    labels = (
        SimpleLabel("a", "low", "L", "b"),
        SimpleLabel("b", "low", "L-dual", "a"),
        SimpleLabel("c", "high", "triv", "c"),
    )
    omega = (
        (2 * ONE, ONE, t_power(-1)),
        (ONE, 2 * ONE, t_power(-1)),
        (t_power(-1), t_power(-1), ONE),
    )
    return BlockData("non-ring-pair", orbits, labels, omega)


def dual_symmetry_breaking_block() -> BlockData:
    """Symmetric, ring-solvable omega that is not invariant under duality;
    only reachable with validation off, and the solver must refuse it."""
    orbits = (OrbitInfo("low", 2, ()), OrbitInfo("high", 4, ("low",)))
    labels = (
        SimpleLabel("a", "low", "L", "b"),
        SimpleLabel("b", "low", "L-dual", "a"),
        SimpleLabel("c", "high", "triv", "c"),
    )
    w_ac = ONE + t_power(-4)
    w_bc = 2 * t_power(-2)
    omega = (
        (ONE, t_power(-2), w_ac),
        (t_power(-2), ONE, w_bc),
        (w_ac, w_bc, 2 * ONE - t_power(-2) + 3 * t_power(-4)),
    )
    return BlockData("dual-breaking", orbits, labels, omega)


@pytest.fixture(scope="session")
def dual_pair_block() -> BlockData:
    return synthetic_dual_pair()
