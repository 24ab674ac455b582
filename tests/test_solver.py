import importlib.util
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from lsalgo.blockdata import (
    BlockData,
    OrbitInfo,
    build_springer_block_a,
    closure_below,
    dataset_from_json,
    load_dataset,
    validate_block,
)
from lsalgo.laurent import ONE, ZERO, HalfLaurent, NonExactDivision, dot
from lsalgo.solver import (
    DualSymmetryViolation,
    InvalidBlock,
    SingularLambdaBlock,
    SolveResult,
    SolverError,
    SupportViolation,
    _duals,
    _eliminate,
    dualize_p,
    linear_extension,
    reconstruct,
    solve,
)
from lsalgo.weyl import partitions_of

from conftest import (
    DATASETS,
    REPO_ROOT,
    dual_symmetry_breaking_block,
    extension_invariant,
    incomparable_orbits_block,
    leibniz_det,
    non_ring_dual_pair_block,
    non_ring_solution_block,
    orbit_dim,
    singleton_cuspidal_block,
    singular_and_support_fault_block,
    singular_lambda_block,
    singular_maximal_orbit_blocks,
    t_power,
)


class TestBareiss:
    def test_2x2(self):
        t = t_power(1)
        m = [[t**2, ONE], [ONE, t**2]]
        assert _eliminate(m)[0] == t**4 - 1

    def test_singular(self):
        m = [[ONE, ONE], [ONE, ONE]]
        assert _eliminate(m) == (ZERO, None)

    def test_pivot_swap(self):
        # one row swap: d is -det(m) = t
        t = t_power(1)
        m = [[ZERO, ONE], [t, ZERO]]
        assert _eliminate(m)[0] == t

    def test_3x3_integer(self):
        m = [[2 * ONE, ONE, ZERO], [ONE, 2 * ONE, ONE], [ZERO, ONE, 2 * ONE]]
        assert _eliminate(m)[0] == 4 * ONE


def random_lambda_block(rng, n, symmetric):
    def poly():
        return HalfLaurent({rng.randint(-4, 4): rng.randint(-3, 3) for _ in range(rng.randint(0, 2))})
    m = [[poly() for _ in range(n)] for _ in range(n)]
    if symmetric:
        m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if rng.random() < 0.5:
        m[0][0] = ZERO  # the first pivot must come from a row swap
    return m


class TestEliminate:
    @pytest.mark.parametrize("seed", range(60))
    def test_inverse_and_determinant(self, seed):
        rng = random.Random(seed)
        m = random_lambda_block(rng, rng.randint(1, 4), symmetric=seed % 2 == 0)
        d, e = _eliminate(m)
        assert d in (leibniz_det(m), -leibniz_det(m))
        if d:
            n = len(m)
            for a in range(n):
                for b in range(n):
                    assert dot(e[a], [row[b] for row in m]) == (d if a == b else ZERO)
        else:
            assert e is None

    def test_swap_in_the_middle(self):
        # the second pivot is zero only after the first step
        t = t_power(1)
        m = [[t, ONE, ONE], [t, ONE, ZERO], [ONE, t, t]]
        d, e = _eliminate(m)
        assert d == -leibniz_det(m) and d
        for a in range(3):
            for b in range(3):
                assert dot(e[a], [row[b] for row in m]) == (d if a == b else ZERO)

    def test_empty_and_singular(self):
        assert _eliminate([]) == (ONE, [])
        assert _eliminate([[ONE, ONE], [ONE, ONE]])[0] == ZERO


class TestGL2:
    def test_golden_values(self):
        result = solve(build_springer_block_a(2))
        tinv = t_power(-1)
        assert result.p_entry("2", "2") == tinv
        assert result.p_entry("2", "1.1") == tinv
        assert result.p_entry("1.1", "1.1") == ONE
        assert result.p_entry("1.1", "2") == ZERO
        assert result.lam_entry("1.1", "1.1") == ONE
        assert result.lam_entry("2", "2") == t_power(2) - 1
        assert result.lam_entry("1.1", "2") == ZERO

    def test_dual_table(self):
        block = build_springer_block_a(2)
        result = solve(block)
        assert result.entry(result.p_dual, "2", "1.1") == t_power(1)
        assert result.entry(result.p_dual, "2", "2") == t_power(-1)
        assert result.entry(result.p_dual, "1.1", "1.1") == ONE
        assert result.entry(result.p_dual, "1.1", "2") == ZERO


class TestGL3:
    def test_golden_values(self):
        result = solve(build_springer_block_a(3))
        t = t_power(1)
        assert result.p_entry("2.1", "1.1.1") == t_power(-1) + t_power(-2)
        assert result.p_entry("3", "1.1.1") == t_power(-3)
        assert result.p_entry("3", "2.1") == t_power(-3)
        assert result.lam_entry("1.1.1", "1.1.1") == ONE
        assert result.lam_entry("2.1", "2.1") == t**4 + t**3 - t - 1
        assert result.lam_entry("3", "3") == t**6 - t**4 - t**3 + t

    def test_reconstruction(self):
        block = build_springer_block_a(3)
        assert reconstruct(solve(block), block) == block.omega


class TestDiagonalAndSupport:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_diagonal_normalization(self, n):
        block = build_springer_block_a(n)
        result = solve(block)
        for lb in block.labels:
            dim = orbit_dim(block, lb.id)
            assert result.p_entry(lb.id, lb.id) == HalfLaurent({-dim: 1})

    @pytest.mark.parametrize("n", range(1, 6))
    def test_support_constraints(self, n):
        from lsalgo.blockdata import closure_below

        block = build_springer_block_a(n)
        below = closure_below(block)
        result = solve(block)
        for i, row_label in enumerate(block.labels):
            for j, col_label in enumerate(block.labels):
                if i == j:
                    continue
                allowed = col_label.orbit in below[row_label.orbit]
                if not allowed:
                    assert result.p[i][j] == ZERO
                if row_label.orbit != col_label.orbit:
                    assert result.lam[i][j] == ZERO

    @pytest.mark.parametrize("n", range(1, 6))
    def test_lambda_symmetric(self, n):
        result = solve(build_springer_block_a(n))
        k = len(result.labels)
        for i in range(k):
            for j in range(k):
                assert result.lam[i][j] == result.lam[j][i]

    def test_minimal_zero_orbit_lambda_is_one(self):
        for n in range(1, 6):
            key = ".".join(["1"] * n)
            result = solve(build_springer_block_a(n))
            assert result.lam_entry(key, key) == ONE

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exponent_parity_and_positivity(self, n):
        # all exponents of one p entry lie in a single coset of Z inside
        # (1/2)Z, and stalk coefficients are nonnegative
        result = solve(build_springer_block_a(n))
        for row in result.p:
            for value in row:
                exps = value.support()
                assert len({e % 2 for e in exps}) <= 1
                assert all(c > 0 for _, c in value.items())


class TestReconstruction:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_springer_blocks(self, n):
        block = build_springer_block_a(n)
        assert reconstruct(solve(block), block) == block.omega

    def test_shape_mismatch(self):
        from lsalgo.solver import ShapeMismatch

        b2, b3 = build_springer_block_a(2), build_springer_block_a(3)
        with pytest.raises(ShapeMismatch):
            reconstruct(solve(b2), b3)


class TestSingleton:
    def test_formulas(self):
        omega = t_power(-1) * (t_power(2) - 1)
        block = singleton_cuspidal_block("s", 2, omega)
        result = solve(block)
        assert result.p == ((t_power(-1),),)
        assert result.lam == ((t_power(2) * omega,),)

    def test_point_orbit(self):
        block = singleton_cuspidal_block("pt", 0, ONE)
        result = solve(block)
        assert result.p == ((ONE,),)
        assert result.lam == ((ONE,),)

    def test_odd_dimension_gives_half_power(self):
        block = singleton_cuspidal_block("odd", 3, ONE)
        result = solve(block)
        assert result.p == ((HalfLaurent({-3: 1}),),)
        assert result.lam == ((t_power(3),),)


class TestDegenerateOrbit:
    def test_single_orbit_two_labels(self):
        from lsalgo.blockdata import BlockData, OrbitInfo, SimpleLabel

        orbits = (OrbitInfo("o", 2),)
        labels = (SimpleLabel("a", "o"), SimpleLabel("b", "o"))
        omega = ((ONE, t_power(-1)), (t_power(-1), ONE))
        block = BlockData("degenerate", orbits, labels, omega)
        result = solve(block)
        for i in range(2):
            for j in range(2):
                assert result.lam[i][j] == t_power(2) * omega[i][j]
        assert result.p[0][1] == ZERO and result.p[1][0] == ZERO


class TestDualPairBlock:
    def test_validates_and_solves(self, dual_pair_block):
        assert validate_block(dual_pair_block) == []
        result = solve(dual_pair_block)
        tinv = t_power(-1)
        assert result.p_entry("a", "a") == tinv
        assert result.p_entry("b", "b") == tinv
        assert result.p_entry("c", "a") == tinv
        assert result.p_entry("c", "b") == tinv
        assert result.p_entry("c", "c") == t_power(-2)
        assert result.p_entry("a", "b") == ZERO
        assert result.lam_entry("a", "a") == t_power(2)
        assert result.lam_entry("a", "b") == ONE
        assert result.lam_entry("b", "b") == t_power(2)
        assert result.lam_entry("c", "c") == t_power(4) - t_power(2)

    def test_reconstruction(self, dual_pair_block):
        assert reconstruct(solve(dual_pair_block), dual_pair_block) == dual_pair_block.omega

    def test_dual_invariance_of_p(self, dual_pair_block):
        result = solve(dual_pair_block)
        # a* = b, so rows a and b of p must swap into each other
        assert result.p_entry("c", "a") == result.p_entry("c", "b")
        assert result.p_entry("a", "a") == result.p_entry("b", "b")


class TestDualize:
    def test_involution(self, dual_pair_block):
        for block in (build_springer_block_a(3), dual_pair_block):
            result = solve(block)
            once = dualize_p(result, block)
            from dataclasses import replace

            twice = dualize_p(replace(result, p=once), block)
            assert twice == result.p

    def test_zero_entries_stay_zero(self):
        block = build_springer_block_a(4)
        result = solve(block)
        k = len(result.labels)
        for i in range(k):
            for j in range(k):
                assert bool(result.p[i][j]) == bool(result.p_dual[i][j])

    def test_diagonal(self):
        block = build_springer_block_a(3)
        result = solve(block)
        for lb in block.labels:
            dim = orbit_dim(block, lb.id)
            assert result.entry(result.p_dual, lb.id, lb.id) == HalfLaurent({-dim: 1})

    def test_labels_in_another_order_are_refused(self):
        from dataclasses import replace

        from lsalgo.solver import ShapeMismatch

        block = build_springer_block_a(3)
        result = solve(block)
        with pytest.raises(ShapeMismatch):
            dualize_p(replace(result, labels=result.labels[::-1]), block)


class TestExtensionInvariance:
    @pytest.mark.parametrize("n", [4, 5])
    def test_total_order_cases(self, n):
        assert extension_invariant(build_springer_block_a(n), 5)

    def test_nontotal_poset_n6(self):
        # dominance on partitions of 6 has incomparable pairs, so the
        # extensions genuinely differ here
        assert extension_invariant(build_springer_block_a(6), 5)

    def test_singleton(self):
        assert extension_invariant(singleton_cuspidal_block("s", 2, ONE), 3)

    def test_seeded_solve_matches_default(self):
        block = build_springer_block_a(6)
        assert solve(block, order_seed=123) == solve(block)


def rescanned_extension(block, seed):
    """The seeded extension drawn by rescanning every remaining orbit for
    the ready ones at each step, as a reference for `linear_extension`."""
    below = closure_below(block)
    rng = random.Random(seed)
    remaining = {o.id for o in block.orbits}
    out = []
    while remaining:
        out.append(rng.choice(sorted(o for o in remaining if not below[o] & remaining)))
        remaining.remove(out[-1])
    return out


def planted_block(seed: int, n_orbits: int):
    """A block planted by the benchmark's generator: levels of two
    incomparable orbits, each covering both orbits of the level below, with
    1-4 labels per orbit and dual label pairs; also its planted p and lambda."""
    spec = importlib.util.spec_from_file_location("plant", REPO_ROOT / "perfbench" / "plant.py")
    plant = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(plant)
    rng = random.Random(seed)
    planted = plant.plant_block(rng, f"planted-{seed}", [rng.randint(1, 4) for _ in range(n_orbits)])
    (block,) = dataset_from_json([planted["block"]]).blocks
    return block, planted


class TestPlantedExtensions:
    # which rows a step visits depends on the extension: the rows of orbits
    # later in it, above or incomparable to the current orbit
    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_extensions_agree_with_the_planted_factorization(self, seed):
        block, planted = planted_block(seed, 8)
        result = solve(block).to_json()
        assert (result["p"], result["lambda"]) == (planted["p"], planted["lambda"])
        assert extension_invariant(block, 5)

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_draws_match_a_rescan_of_the_ready_orbits(self, seed):
        block, _ = planted_block(seed, 12)
        for order_seed in range(10):
            assert linear_extension(block, order_seed) == rescanned_extension(block, order_seed)


def bumped_omega(block, i, j):
    """`block` with omega[i][j] one unit more, together with its transpose
    and dual mirrors, so that omega stays symmetric and dual-invariant."""
    dual = _duals(block)[0]
    rows = [list(row) for row in block.omega]
    for a, b in {(i, j), (j, i), (dual[i], dual[j]), (dual[j], dual[i])}:
        rows[a][b] += ONE
    return replace(block, omega=tuple(tuple(row) for row in rows))


def outcomes_under_extensions(block):
    """The result, or the exception, of the default extension and of
    `order_seed` 0..4."""
    out = []
    for order_seed in (None, *range(5)):
        try:
            out.append(solve(block, order_seed=order_seed))
        except (SolverError, NonExactDivision) as exc:
            out.append(exc)
    return out


class TestPerturbedPlantedBlocks:
    # Lambda blocks up to 4x4, unlike springer's 1x1: a perturbed omega has
    # either one constrained factorization, which every extension must
    # return, or none, which every extension must report
    @pytest.mark.parametrize("seed", range(6))
    def test_one_bumped_entry(self, seed):
        block, _ = planted_block(seed, 12 + seed % 5)
        rng = random.Random(f"bump-{seed}")
        k = len(block.labels)
        out = outcomes_under_extensions(bumped_omega(block, rng.randrange(k), rng.randrange(k)))
        if isinstance(out[0], SolveResult):
            assert all(result == out[0] for result in out)
        else:
            assert all(isinstance(exc, Exception) for exc in out)

    @pytest.mark.parametrize("seed", range(2))
    def test_bump_on_a_maximal_orbit_changes_only_its_lambda_block(self, seed):
        # nothing lies above the last orbit, so only its Lambda block moves
        block, planted = planted_block(seed, 12 + seed % 5)
        top = [a for a, lb in enumerate(block.labels) if lb.orbit == block.orbits[-1].id]
        out = outcomes_under_extensions(bumped_omega(block, top[0], top[-1]))
        assert all(result == out[0] for result in out)
        assert out[0].to_json()["p"] == planted["p"]
        assert out[0].to_json()["lambda"] != planted["lambda"]


def springer_and_shipped_blocks(max_n):
    blocks = [build_springer_block_a(n) for n in range(1, max_n + 1)]
    for path in sorted(DATASETS.glob("*.json")):
        blocks.extend(load_dataset(path).blocks)
    return blocks


class TestLinearExtension:
    # the golden digests cannot see the extension, because the result does
    # not depend on it; these cases pin the order itself

    @pytest.mark.parametrize("block", springer_and_shipped_blocks(8), ids=lambda b: b.name)
    def test_unseeded_is_ascending_dim_then_id(self, block):
        expected = [o.id for o in sorted(block.orbits, key=lambda o: (o.dim, o.id))]
        assert linear_extension(block) == expected

    def test_seeded_respects_closure_order_and_varies(self):
        block = build_springer_block_a(6)
        below = closure_below(block)
        drawn = set()
        for seed in range(20):
            extension = linear_extension(block, seed)
            assert sorted(extension) == sorted(o.id for o in block.orbits)
            for pos, orbit_id in enumerate(extension):
                assert below[orbit_id] <= set(extension[:pos])
            drawn.add(tuple(extension))
        assert len(drawn) > 1

    def test_seeded_draws_among_ready_orbits_sorted_by_id(self):
        block = build_springer_block_a(6)
        for seed in range(20):
            assert linear_extension(block, seed) == rescanned_extension(block, seed)


    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_drawn_acyclic_covers_match_a_rescan(self, data):
        # each orbit covers only orbits drawn before it, an unknown 'ghost'
        # and repeats allowed; the orbits are then listed in a drawn order
        ids = [f"o{i}" for i in range(data.draw(st.integers(1, 12)))]
        orbits = [OrbitInfo(oid, data.draw(st.integers(0, 5)), tuple(data.draw(
            st.lists(st.sampled_from(ids[:pos] + ["ghost"]), max_size=4))))
            for pos, oid in enumerate(ids)]
        block = BlockData("drawn", tuple(data.draw(st.permutations(orbits))), (), ())
        below = closure_below(block)
        remaining, default = set(ids), []
        while remaining:
            default.append(min((o for o in block.orbits if o.id in remaining
                                and not below[o.id] & remaining), key=lambda o: (o.dim, o.id)).id)
            remaining.remove(default[-1])
        assert linear_extension(block) == default
        for seed in range(10):
            assert linear_extension(block, seed) == rescanned_extension(block, seed)


class TestResultJson:
    @pytest.mark.parametrize("block", springer_and_shipped_blocks(6), ids=lambda b: b.name)
    def test_round_trip(self, block):
        result = solve(block)
        assert SolveResult.from_json(json.loads(json.dumps(result.to_json()))) == result


class TestKostkaBridge:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_monomial_normalization(self, n):
        # pinned empirically: p[lam][mu](t) = t^(n(mu) - n(1^n)) * K[lam][mu](t^-1),
        # where n(.) is the sum of (i-1) * part_i, and p[lam][mu] = 0 off dominance
        from lsalgo.blockdata import dominates
        from lsalgo.oracle import kostka_foulkes

        result = solve(build_springer_block_a(n))
        top = n * (n - 1) // 2
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                value = result.p_entry(lam.key(), mu.key())
                if dominates(lam, mu):
                    assert value == (t_power(mu.n_statistic() - top)
                                     * kostka_foulkes(lam, mu).bar())
                else:
                    assert value == ZERO


class TestErrors:
    def test_invalid_block_rejected_before_solving(self):
        block = build_springer_block_a(2)
        omega = [list(row) for row in block.omega]
        omega[0][1] = t_power(5)
        from lsalgo.blockdata import BlockData

        broken = BlockData(block.name, block.orbits, block.labels,
                           tuple(tuple(r) for r in omega))
        with pytest.raises(InvalidBlock) as err:
            solve(broken)
        assert any(v.kind == "SymmetryViolation" for v in err.value.violations)

    def test_singular_lambda(self):
        with pytest.raises(SingularLambdaBlock, match=r"stage \(i\): .* orbit 'low'"):
            solve(singular_lambda_block())

    def test_non_ring_solution(self):
        with pytest.raises(NonExactDivision, match=r"stage \(ii\), row 'c' over orbit 'low': "):
            solve(non_ring_solution_block())

    @pytest.mark.parametrize("name", sorted(singular_maximal_orbit_blocks()))
    def test_singular_lambda_on_maximal_orbit(self, name):
        with pytest.raises(SingularLambdaBlock, match=r"orbit '\w+' has determinant zero"):
            solve(singular_maximal_orbit_blocks()[name])

    def test_singular_lambda_reported_before_support_fault(self):
        with pytest.raises(SingularLambdaBlock, match="orbit 'o1'"):
            solve(singular_and_support_fault_block())

    def test_support_violation(self):
        with pytest.raises(SupportViolation):
            solve(incomparable_orbits_block(ONE))

    @pytest.mark.parametrize("seed, extension, row, orbit", [
        (None, ["o1", "o2", "top"], "y", "o1"),
        (0, ["o2", "o1", "top"], "x", "o2"),
    ])
    def test_support_violation_names_the_later_incomparable_row(
            self, seed, extension, row, orbit):
        # omega[x][y] != 0 for x on o1 and y on o2, which are incomparable.
        # The orbit processed first finds the entry in the other one's row,
        # which comes later; at the second orbit that row's own orbit came
        # earlier, so the same entry is never reported twice.
        block = incomparable_orbits_block(ONE)
        assert linear_extension(block, seed) == extension
        with pytest.raises(SupportViolation) as err:
            solve(block, order_seed=seed)
        assert str(err.value) == (f"omega[{row}][...] is nonzero on orbit {orbit!r}, "
                                  f"which the closure order forbids")

    def test_non_ring_solution_on_multi_label_orbit(self):
        with pytest.raises(NonExactDivision) as err:
            solve(non_ring_dual_pair_block())
        assert str(err.value) == (
            "stage (ii), row 'c' over orbit 'low': (t^2) is not divisible by (3*t^4)")

    @pytest.mark.parametrize("block, error, where", [
        (singular_lambda_block(), SingularLambdaBlock, ("i", "low", None)),
        (non_ring_dual_pair_block(), NonExactDivision, ("ii", "low", "c")),
        (incomparable_orbits_block(ONE), SupportViolation, ("iii", "o1", "y")),
    ], ids=["singular", "non-ring", "support"])
    def test_errors_carry_stage_orbit_and_row(self, block, error, where):
        with pytest.raises(error) as err:
            solve(block)
        assert (err.value.stage, err.value.orbit, err.value.row) == where

    def test_incomparable_zero_pairing_is_fine(self):
        result = solve(incomparable_orbits_block(ZERO))
        assert result.p_entry("y", "x") == ZERO

    def test_dual_symmetry_violation(self, monkeypatch):
        block = dual_symmetry_breaking_block()
        assert any(v.kind == "DualityViolation" for v in validate_block(block))
        # skip the precondition check to reach the solver's own self-check
        monkeypatch.setattr("lsalgo.solver.validate_block", lambda block: [])
        with pytest.raises(DualSymmetryViolation):
            solve(block)
