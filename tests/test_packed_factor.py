"""The elimination on packed integers against the same stages over HalfLaurent.

The packed run holds each entry as its value at x = 2^64, where x is t^(1/2),
or t when every orbit dim and every omega exponent is even.  The packed and
exact arithmetics must give equal results on every block that solves, with no
exact rerun.  Where the packed run cannot finish, or its result fails the
certificate, the exact run decides: every error keeps the kind, message,
stage, orbit and row that the exact stages give it, and a packed result that
breaks the final unpacking is caught, not returned.  An omega coefficient
outside the signed 64-bit digit range stops the packed run before any
elimination, with the same bytes.  A block whose omega spans eight or more
packed digits per term is solved exact alone.
"""

import hashlib
import json

import pytest

from lsalgo import cli, solver
from lsalgo.blockdata import (
    BlockData, OrbitInfo, SimpleLabel, block_to_json, build_springer_block_a, closure_below,
    write_json)
from lsalgo.laurent import ONE, HalfLaurent, NonExactDivision
from lsalgo.solver import reconstruct, solve

import conftest
from test_oracles import PLANTED, planted_block
from test_reconstruct import dataset_blocks
from test_solver_roundtrip import random_factorized_block

STAGES = solver._stages


@pytest.fixture
def reruns(monkeypatch):
    """The exact runs of the stages, as (block, order seed)."""
    calls = []

    def spy(block, below, order_seed, ar):
        if ar is solver._EXACT:
            calls.append((block.name, order_seed))
        return STAGES(block, below, order_seed, ar)

    monkeypatch.setattr(solver, "_stages", spy)
    return calls


def agreement_cases():
    cases = [(build_springer_block_a(n), seed)
             for n in range(1, 9) for seed in (None, 0, 1, 2, 3, 4)]
    cases += [(random_factorized_block(seed)[0], None) for seed in range(40)]
    cases += [(planted_block(seed, n_orbits), None) for seed, n_orbits in PLANTED]
    return cases + [(block, None) for block in dataset_blocks()]


@pytest.mark.parametrize("block, seed", agreement_cases(),
                         ids=lambda case: getattr(case, "name", str(case)))
def test_packed_and_exact_results_are_equal(block, seed, reruns):
    assert solver._packed(block) is not None
    below = closure_below(block)
    runs = solver._runs(block, below, seed)
    packed = next(runs)
    assert reruns == []
    assert packed == next(runs)
    assert reruns == [(block.name, seed)]


def test_solve_takes_no_rerun_on_the_springer_blocks(reruns):
    for n in range(1, 9):
        solve(build_springer_block_a(n))
    assert reruns == []


def failure_blocks():
    blocks = {"singular_lambda_block": conftest.singular_lambda_block()}
    blocks.update((f"singular_maximal_orbit_blocks[{key}]", block)
                  for key, block in conftest.singular_maximal_orbit_blocks().items())
    blocks.update((name, getattr(conftest, name)()) for name in (
        "singular_and_support_fault_block", "non_ring_solution_block",
        "non_ring_dual_pair_block", "dual_symmetry_breaking_block"))
    blocks["incomparable_orbits_block(ONE)"] = conftest.incomparable_orbits_block(ONE)
    # t - 2^64 vanishes at x = 2^64; its coefficient -2^64 fits no digit, so
    # the packed run stops before it could divide by it
    blocks["vanishing_at_x_block"] = two_orbit_block(
        "vanishing", ((HalfLaurent({2: 1, 0: -2**64}), ONE), (ONE, ONE)))
    return blocks


# (kind, message, stage, orbit, row) of each error, as the exact stages and
# the self-check raise it
FAILURES = {
    "singular_lambda_block": (
        "SingularLambdaBlock",
        "stage (i): the Lambda block of orbit 'low' has determinant zero", "i", "low", None),
    "singular_maximal_orbit_blocks[singleton-zero]": (
        "SingularLambdaBlock",
        "stage (i): the Lambda block of orbit 'orbit' has determinant zero", "i", "orbit", None),
    "singular_maximal_orbit_blocks[two-labels-rank-one]": (
        "SingularLambdaBlock",
        "stage (i): the Lambda block of orbit 'o' has determinant zero", "i", "o", None),
    "singular_and_support_fault_block": (
        "SingularLambdaBlock",
        "stage (i): the Lambda block of orbit 'o1' has determinant zero", "i", "o1", None),
    "non_ring_solution_block": (
        "NonExactDivision",
        "stage (ii), row 'c' over orbit 'low': (1) is not divisible by (2)", "ii", "low", "c"),
    "non_ring_dual_pair_block": (
        "NonExactDivision",
        "stage (ii), row 'c' over orbit 'low': (t^2) is not divisible by (3*t^4)",
        "ii", "low", "c"),
    "dual_symmetry_breaking_block": (
        "DualSymmetryViolation", "p[c][a] != p[c][b]", None, None, None),
    "incomparable_orbits_block(ONE)": (
        "SupportViolation",
        "omega[y][...] is nonzero on orbit 'o1', which the closure order forbids",
        "iii", "o1", "y"),
    "vanishing_at_x_block": (
        "NonExactDivision",
        "stage (ii), row 'y' over orbit 'lo': (1) is not divisible by (-18446744073709551616 + t)",
        "ii", "lo", "y"),
}


def test_every_failure_block_is_pinned():
    assert sorted(failure_blocks()) == sorted(FAILURES)


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_errors_are_those_of_the_exact_stages(name, monkeypatch):
    # validation would refuse the duality-breaking block before the solver
    monkeypatch.setattr(solver, "validate_block", lambda block: [])
    with pytest.raises((solver.SolverError, NonExactDivision)) as err:
        solve(failure_blocks()[name])
    exc = err.value
    assert (type(exc).__name__, str(exc), getattr(exc, "stage", None),
            getattr(exc, "orbit", None), getattr(exc, "row", None)) == FAILURES[name]


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_a_failed_packed_run_is_rerun_exact(name, monkeypatch, reruns):
    monkeypatch.setattr(solver, "validate_block", lambda block: [])
    with pytest.raises((solver.SolverError, NonExactDivision)):
        solve(failure_blocks()[name])
    assert reruns and all(seed is None for _, seed in reruns)


def two_orbit_block(name: str, omega) -> BlockData:
    """Orbits lo (dim 0) < hi (dim 2), label x on lo and y on hi."""
    orbits = (OrbitInfo("lo", 0), OrbitInfo("hi", 2, ("lo",)))
    labels = (SimpleLabel("x", "lo"), SimpleLabel("y", "hi"))
    return BlockData(name, orbits, labels, omega)


def wide_block(a: int) -> BlockData:
    """omega = [[1, a], [a, 1]]: lambda on the upper orbit is t^2 * (1 - a^2)."""
    return two_orbit_block("wide", ((ONE, a * ONE), (a * ONE, ONE)))


SPARSE = HalfLaurent({-100_000: 1, 100_000: 1})


def sparse_block() -> BlockData:
    # t^-50000 + t^50000 packs into 50,001 digits for two terms; as a dict it
    # is two entries, so the block is never packed
    return two_orbit_block("sparse", ((SPARSE, SPARSE), (SPARSE, SPARSE + ONE)))


def test_a_sparse_omega_is_solved_exact_alone(monkeypatch):
    block = sparse_block()
    assert solver._packed(block) is None
    arithmetics = []
    stages = solver._stages

    def spy(block, below, order_seed, ar):
        arithmetics.append(ar)
        return stages(block, below, order_seed, ar)

    monkeypatch.setattr(solver, "_stages", spy)
    result = solve(block)
    assert arithmetics == [solver._EXACT]
    assert (result.p_entry("y", "x"), result.lam_entry("x", "x"),
            result.lam_entry("y", "y")) == (ONE, SPARSE, HalfLaurent({4: 1}))


def reject(result, block, below):
    raise solver.SolverError("rejected")


def test_a_rejected_sparse_result_is_run_exact_once(monkeypatch, reruns):
    # the exact run is the sparse block's only run: its rejection is raised,
    # and the block is not run exact a second time
    monkeypatch.setattr(solver, "_check_invariants", reject)
    with pytest.raises(solver.SolverError, match="rejected"):
        solve(sparse_block())
    assert reruns == [("sparse", None)]


def test_coefficient_past_a_digit_is_decided_by_the_exact_run(reruns):
    # 1 - a^2 is below -2^63: its digits at x = 2^64 are not its coefficients,
    # so the unpacked result fails the certificate and the exact run decides
    a = 2**40 + 1
    block = wide_block(a)
    result = solve(block)
    assert reruns == [("wide", None)]
    assert result.lam_entry("y", "y") == HalfLaurent({4: 1 - a * a})
    assert result.p_entry("y", "x") == HalfLaurent({0: a})
    assert reconstruct(result, block) == block.omega


# the bytes `solve` writes for omega = [[a, a], [a, a + t^-2]], pinned before
# the packed run range-checked omega's digits
EDGE_DIGESTS = {
    2**63 - 1: "eb151b150e4a40d16acf162220819a4c1a9a7e6489beac55a07599dda035ae54",
    -2**63: "90567495d1736d3fe5510296b74e0736d1b972dced0e81a95659065855c910d6",
    2**63: "6a953bcc2cedb379af178b7af1dc56d66d6147f2ee2c09065429cabcf324f956",
    -2**63 - 1: "b03344c956df2cd09dced17d13c17d8deb8d135cc15f8aa98c51146cf7c17808",
}


@pytest.mark.parametrize("a", sorted(EDGE_DIGESTS))
def test_an_omega_coefficient_past_a_digit_is_solved_exact(a, tmp_path, monkeypatch, reruns):
    # lambda is a on lo and t^2 on hi, p[y][x] = 1: every coefficient of the
    # result is one of omega's.  An a outside [-2^63, 2^63) cannot be packed,
    # so the packed run stops before any elimination and reaches no check
    block = two_orbit_block("edge", ((a * ONE, a * ONE), (a * ONE, a * ONE + HalfLaurent({-4: 1}))))
    source, out = tmp_path / "edge.json", tmp_path / "edge.out.json"
    with open(source, "w", encoding="utf-8") as fh:
        write_json([block_to_json(block)], fh)
    checks = []
    check = solver._check_invariants

    def counted(*args):
        checks.append(args[1].name)
        return check(*args)

    monkeypatch.setattr(solver, "_check_invariants", counted)
    assert cli.main(["solve", str(source), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EDGE_DIGESTS[a]
    fits = -2**63 <= a < 2**63
    assert (reruns, checks) == ([] if fits else [("edge", None)], ["edge"])


def test_a_residual_vanishing_at_x_is_decided_by_the_exact_run(reruns):
    # omega's digits fit, but the residual t - 2^32 * 2^32 of the upper
    # orbit is 0 at x = t = 2^64: the packed run finds a singular Lambda block
    block = two_orbit_block("vanishing", ((ONE, 2**32 * ONE), (2**32 * ONE, HalfLaurent({2: 1}))))
    result = solve(block)
    assert reruns == [("vanishing", None)]
    assert result.lam_entry("y", "y") == HalfLaurent({6: 1, 4: -2**64})
    assert reconstruct(result, block) == block.omega


def test_a_result_whose_certificate_fails_again_raises(monkeypatch, reruns):
    # the exact run's result is checked too: a certificate that rejects every
    # result rejects the rerun's as well
    monkeypatch.setattr(solver, "_check_invariants", reject)
    with pytest.raises(solver.SolverError, match="rejected"):
        solve(build_springer_block_a(3))
    assert reruns == [("springer-a-3", None)]


def tamper(lam):
    return (tuple(v + ONE if j == 0 else v for j, v in enumerate(lam[0])), *lam[1:])


def verify_report(capsys, n_max: int):
    code = cli.main(["verify", "--n-max", str(n_max)])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("exact_is_wrong, code, status", [
    (False, 0, "ok"), (True, 1, "violation")])
def test_verify_lets_the_exact_run_decide(capsys, monkeypatch, exact_is_wrong, code, status):
    # the packed seed-3 re-solve of n = 2 is wrong; the exact one decides
    seen = []

    def stages(block, below, order_seed, ar):
        p, lam = STAGES(block, below, order_seed, ar)
        if block.name == "springer-a-2" and order_seed == 3:
            exact = ar is solver._EXACT
            seen.append(exact)
            if exact_is_wrong or not exact:
                lam = tamper(lam)
        return p, lam

    monkeypatch.setattr(solver, "_stages", stages)
    got, report = verify_report(capsys, 3)
    assert (got, report["status"]) == (code, status)
    assert seen == [False, True]
    errors = [d["kind"] for d in report["diagnostics"] if d["severity"] == "error"]
    assert errors == (["OrderDependence"] if exact_is_wrong else [])


def test_verify_reruns_a_stopped_seeded_run_exact(capsys, monkeypatch, reruns):
    # the packed seed-3 re-solve of n = 2 stops; its exact run is compared
    # instead, once, and matches
    spy = solver._stages

    def stopping(block, below, order_seed, ar):
        if ar is not solver._EXACT and (block.name, order_seed) == ("springer-a-2", 3):
            raise ArithmeticError("the packed run stops")
        return spy(block, below, order_seed, ar)

    monkeypatch.setattr(solver, "_stages", stopping)
    code, report = verify_report(capsys, 3)
    assert (code, report["status"]) == (0, "ok")
    assert reruns == [("springer-a-2", 3)]
