"""Shared test data: hand-checked blocks exercising nontrivial duality and
solver error paths, and two checks read through the solver's own code."""

from pathlib import Path

import pytest

from lsalgo.blockdata import BlockData, OrbitInfo, SimpleLabel, singleton_cuspidal_block
from lsalgo.laurent import ONE, ZERO, HalfLaurent, t_half_power, t_power
from lsalgo.solver import _eliminate, solve

REPO_ROOT = Path(__file__).resolve().parent.parent
DATASETS = REPO_ROOT / "datasets"


def signed_det(matrix) -> HalfLaurent:
    """det(matrix) as `_eliminate` finds it: its d, with the sign of its row swaps."""
    d, sign, _ = _eliminate(matrix)
    return d if sign > 0 else -d


def extension_invariant(block: BlockData, trials: int) -> bool:
    """Whether `trials` seeded linear extensions all solve to the default result."""
    reference = solve(block)
    return all(solve(block, order_seed=seed) == reference for seed in range(trials))


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
