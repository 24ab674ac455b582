"""Command-line surface: generate, solve, verify, exthom, dualize.

Every command prints exactly one JSON document to stdout and communicates
through the exit code: 0 success, 1 data/validation/verification failure,
2 internal, resource, or I/O error.  A file that is not valid JSON or not
UTF-8 is a DataFormatError with exit code 1 for every command that reads
one.  An unexpected exception in a command is reported as an "Internal"
diagnostic with exit code 2, its traceback going to stderr.  If stdout is
closed, the exit code is 2 and one line on stderr says so.  JSON output is
deterministic (sorted keys, fixed indentation), so identical inputs give
byte-identical output regardless of any seeds.

A command returns (exit code, document) or raises; `main` alone turns that
outcome into the one printed document and the exit code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import traceback

from .blockdata import (
    DataFormatError,
    Dataset,
    build_springer_block_a,
    dominates,
    load_dataset,
    read_json,
    save_dataset,
    validate_dataset,
    MAX_SPRINGER_N,
)
from .exthom import graded_hom_dims
from .laurent import HalfLaurent, NonExactDivision
from .oracle import kostka_foulkes
from .solver import SolveResult, SolverError, solve
from .weyl import CharTable, char_table_sn_rows, partitions_of

VERIFY_MAX_N = 7

# exthom size bounds: the truncation degree and the built-in S_n table both
# stay well under a second at these values
EXTHOM_MAX_K = 1000
EXTHOM_MAX_SN = 12

OK, VIOLATION, ERROR = 0, 1, 2
_STATUS = {OK: "ok", VIOLATION: "violation", ERROR: "error"}


class Failure(Exception):
    """A command's failure as one error diagnostic with its exit code;
    `fields` are extra keys of that diagnostic."""

    def __init__(self, code: int, kind: str, message: str, **fields):
        super().__init__(message)
        self.code = code
        self.kind = kind
        self.fields = fields


def _report(command: str, code: int, artifacts: list[str] | None = None,
            diagnostics: list[dict] | None = None) -> dict:
    return {
        "command": command,
        "status": _STATUS[code],
        "artifacts": artifacts or [],
        "diagnostics": diagnostics or [],
    }


def _diag(severity: str, kind: str, message: str, **fields) -> dict:
    return {"severity": severity, "kind": kind, "message": message, **fields}


# -- generate -----------------------------------------------------------------


def cmd_generate(args) -> tuple[int, dict]:
    try:
        block = build_springer_block_a(args.n)
    except ValueError as exc:
        raise Failure(ERROR, "ResourceLimit", str(exc)) from exc
    save_dataset(Dataset((block,)), args.out)
    return OK, _report("generate", OK, artifacts=[args.out])


# -- solve --------------------------------------------------------------------


def _results_to_csv(results: list[SolveResult]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["block", "matrix", "row", "col", "value"])
    for result in results:
        for name, matrix in (("p", result.p), ("lambda", result.lam),
                             ("p_dual", result.p_dual)):
            for i, row_label in enumerate(result.labels):
                for j, col_label in enumerate(result.labels):
                    writer.writerow([result.block, name, row_label, col_label,
                                     matrix[i][j].pretty()])
    return buffer.getvalue()


def cmd_solve(args) -> tuple[int, dict]:
    ds = load_dataset(args.input)
    violations = validate_dataset(ds)
    if violations:
        return VIOLATION, _report("solve", VIOLATION, diagnostics=[
            _diag("error", v.kind, v.message) for v in violations])

    results = []
    for block in ds.blocks:
        try:
            results.append(solve(block, order_seed=args.order_seed))
        except (SolverError, NonExactDivision) as exc:
            # an error located in the elimination names its stage, orbit and row
            where = {key: getattr(exc, key) for key in ("stage", "orbit", "row")
                     if hasattr(exc, key)}
            raise Failure(ERROR, type(exc).__name__, f"block {block.name!r}: {exc}",
                          block=block.name, **where) from exc

    if args.format == "json":
        payload = json.dumps([r.to_json() for r in results], indent=2, sort_keys=True) + "\n"
    else:
        payload = _results_to_csv(results)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(payload)
    return OK, _report("solve", OK, artifacts=[args.out])


# -- verify -------------------------------------------------------------------


def _coefficient_multiset(f: HalfLaurent) -> list[int]:
    return sorted(c for _, c in f.items())


def _verify_one_n(n: int, diagnostics: list[dict]) -> bool:
    block = build_springer_block_a(n)
    result = solve(block)
    ok = True
    for lam in partitions_of(n):
        for mu in partitions_of(n):
            p = result.p_entry(lam.key(), mu.key())
            if dominates(lam, mu):
                kostka = kostka_foulkes(lam, mu)
                tableaux = kostka.evaluate_at_one()
                if _coefficient_multiset(p) != _coefficient_multiset(kostka):
                    ok = False
                    diagnostics.append(_diag(
                        "error", "OracleMismatch",
                        f"n={n} pair ({lam.key()}, {mu.key()}): coefficients "
                        f"{p.pretty()} vs Kostka-Foulkes {kostka.pretty()}"))
                if p.evaluate_at_one() != tableaux:
                    ok = False
                    diagnostics.append(_diag(
                        "error", "OracleMismatch",
                        f"n={n} pair ({lam.key()}, {mu.key()}): p(1) = "
                        f"{p.evaluate_at_one()} but {tableaux} tableaux exist"))
            elif not p.is_zero():
                ok = False
                diagnostics.append(_diag(
                    "error", "SupportMismatch",
                    f"n={n} pair ({lam.key()}, {mu.key()}): expected zero, "
                    f"got {p.pretty()}"))
    if any(solve(block, order_seed=seed) != result for seed in range(5)):
        ok = False
        diagnostics.append(_diag(
            "error", "OrderDependence",
            f"n={n}: solutions differ across linear extensions"))
    if ok:
        diagnostics.append(_diag(
            "info", "Verified",
            f"n={n}: solver output matches the charge-statistic oracle"))
    return ok


def cmd_verify(args) -> tuple[int, dict]:
    if args.n_max > VERIFY_MAX_N:
        raise Failure(ERROR, "ResourceLimit",
                      f"verify supports --n-max up to {VERIFY_MAX_N}; tableau "
                      f"enumeration beyond that is out of the desk-checkable range")
    if args.n_max < 1:
        raise Failure(ERROR, "BadArgument", "--n-max must be at least 1")
    diagnostics: list[dict] = []
    all_ok = all([_verify_one_n(n, diagnostics) for n in range(1, args.n_max + 1)])
    code = OK if all_ok else VIOLATION
    return code, _report("verify", code, diagnostics=diagnostics)


# -- exthom -------------------------------------------------------------------


def cmd_exthom(args) -> tuple[int, dict]:
    if args.max_k < 0:
        raise Failure(ERROR, "BadArgument", "--max-k must be nonnegative")
    if args.max_k > EXTHOM_MAX_K:
        raise Failure(ERROR, "ResourceLimit", f"exthom supports --max-k up to {EXTHOM_MAX_K}")
    if args.sn is not None and args.sn < 1:
        raise Failure(ERROR, "BadArgument", "--sn must be at least 1")
    if args.sn is not None and args.sn > EXTHOM_MAX_SN:
        raise Failure(ERROR, "ResourceLimit", f"exthom supports --sn up to {EXTHOM_MAX_SN}")
    if args.sn is not None:
        # the series reads every class but only the rows of chi and psi
        source, table = f"S_{args.sn}", char_table_sn_rows(args.sn, (args.chi, args.psi))
    else:
        source, table = args.table, CharTable.from_json(read_json(args.table))
    try:
        dims = graded_hom_dims(table, args.chi, args.psi, args.max_k)
    except KeyError as exc:
        raise Failure(VIOLATION, "UnknownLabel", str(exc)) from exc
    except ArithmeticError as exc:
        raise Failure(VIOLATION, type(exc).__name__,
                      f"table {source!r}, pair ({args.chi}, {args.psi}): {exc}") from exc
    # certified divisions pass on a table whose rows repeat a character
    problems = table.validate() if args.sn is None else []
    if problems:
        return VIOLATION, _report("exthom", VIOLATION, diagnostics=[
            _diag("error", "InvalidTable", f"table {source!r}: {p}") for p in problems])
    return OK, {"chi": args.chi, "psi": args.psi, **dims.to_json()}


# -- dualize ------------------------------------------------------------------


def cmd_dualize(args) -> tuple[int, list]:
    raw = read_json(args.input)
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list):
        raise DataFormatError("a solve result file must hold a JSON array of results")
    results = [SolveResult.from_json(entry).to_json() for entry in raw]
    return OK, [{key: r[key] for key in ("block", "order", "p_dual")} for r in results]


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsalgo",
        description="Exact block factorization omega = P * Lambda * P^T over "
                    "Laurent polynomials in t^(1/2).")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a generated block dataset")
    gen.add_argument("type", choices=["springer-a"],
                     help="dataset family to generate")
    gen.add_argument("--n", type=int, required=True,
                     help=f"size parameter (1..{MAX_SPRINGER_N})")
    gen.add_argument("--out", required=True, help="output dataset path")
    gen.set_defaults(func=cmd_generate)

    slv = sub.add_parser("solve", help="validate and solve every block of a dataset")
    slv.add_argument("input", help="dataset JSON path")
    slv.add_argument("--out", required=True, help="output path for the results")
    slv.add_argument("--format", choices=["json", "csv"], default="json",
                     help="json round-trips exactly; csv is lossy pretty-printing")
    slv.add_argument("--order-seed", type=int, default=None,
                     help="seed for drawing the linear extension; the "
                          "solution is independent of it")
    slv.set_defaults(func=cmd_solve)

    ver = sub.add_parser("verify", help="cross-check the solver against the "
                                        "tableau oracle for all n up to a bound")
    ver.add_argument("--n-max", type=int, required=True,
                     help=f"largest n to verify (1..{VERIFY_MAX_N})")
    ver.set_defaults(func=cmd_verify)

    ext = sub.add_parser("exthom", help="graded Hom dimensions for a character pair")
    source = ext.add_mutually_exclusive_group(required=True)
    source.add_argument("--table", help="character table JSON path")
    source.add_argument("--sn", type=int,
                        help=f"use the built-in S_n table (1..{EXTHOM_MAX_SN})")
    ext.add_argument("--chi", required=True, help="first character id")
    ext.add_argument("--psi", required=True, help="second character id")
    ext.add_argument("--max-k", type=int, required=True,
                     help=f"truncation bound (0..{EXTHOM_MAX_K}): degrees "
                          f"0..2*max_k are reported")
    ext.set_defaults(func=cmd_exthom)

    dua = sub.add_parser("dualize", help="print the dual stalk tables of a "
                                         "solve result file")
    dua.add_argument("input", help="solve result JSON path")
    dua.set_defaults(func=cmd_dualize)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, document = args.func(args)
    except Exception as exc:
        fields = {}
        if isinstance(exc, Failure):
            code, kind, message, fields = exc.code, exc.kind, str(exc), exc.fields
        elif isinstance(exc, DataFormatError):
            code, kind, message = VIOLATION, "DataFormatError", str(exc)
        elif isinstance(exc, OSError):
            code, kind, message = ERROR, "IOError", str(exc)
        else:
            # a bug, not a data problem: keep the traceback for the user and
            # still print the one JSON document every command promises
            traceback.print_exc()
            code, kind, message = ERROR, "Internal", f"{type(exc).__name__}: {exc}"
        document = _report(args.command, code,
                           diagnostics=[_diag("error", kind, message, **fields)])
    try:
        print(json.dumps(document, indent=2, sort_keys=True), flush=True)
    except BrokenPipeError:
        # nobody reads stdout; send what is still buffered to devnull so
        # the flush at interpreter exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("lsalgo: stdout is closed, the JSON report was not written", file=sys.stderr)
        return ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
