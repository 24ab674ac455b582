"""Command-line surface: generate, solve, verify, exthom, dualize.

Every command prints exactly one JSON document to stdout and communicates
through the exit code: 0 success, 1 data/validation/verification failure,
2 argument, internal, resource, or I/O error.  An argument error is a
"BadArgument" report; options may be abbreviated to a unique prefix or given
as --opt=value.  -h or --help prints usage text, the one output that is not
JSON, and exits 0.  A file that is not valid JSON or not UTF-8 is a
DataFormatError with exit code 1 for every command that reads one.  An
unexpected exception in a command is reported as an "Internal" diagnostic
with exit code 2, its traceback going to stderr.  If stdout is closed, the
exit code is 2 and one line on stderr says so.  Every JSON document lsalgo
writes is exactly what the stdlib's json encoder gives with indent=2 and
sort_keys=True, and a file ends in one newline; so identical inputs give
byte-identical output regardless of any seeds.

A command returns (exit code, document) or raises; `main` alone turns that
outcome into the one printed document and the exit code.
"""

from __future__ import annotations

import csv
import io
import os
import sys
import traceback
from getopt import GetoptError, gnu_getopt
from types import SimpleNamespace

from .blockdata import (
    DataFormatError,
    Dataset,
    build_springer_block_a,
    closure_below,
    load_dataset,
    read_json,
    save_dataset,
    validate_dataset,
    write_json,
    MAX_SPRINGER_N,
)
from .laurent import MAX_EXPONENT, NonExactDivision, max_abs_coefficient
from .oracle import kostka_foulkes
from .solver import SolveResult, SolverError, _runs, solve
from .weyl import CharTable, char_table_sn, graded_hom_dims, partitions_of

# exthom size bounds: the truncation degree and the built-in S_n table both
# stay well under a second at these values
EXTHOM_MAX_K = 1000
EXTHOM_MAX_SN = 12

OK, VIOLATION, ERROR = 0, 1, 2
_STATUS = {OK: "ok", VIOLATION: "violation", ERROR: "error"}


class Failure(Exception):
    """A command's failure: one error diagnostic, with extra keys `fields`."""

    def __init__(self, code: int, kind: str, message: str, **fields):
        super().__init__(message)
        self.code, self.kind, self.fields = code, kind, fields


def _report(command: str | None, code: int, artifacts: list[str] | None = None,
            diagnostics: list[dict] | None = None) -> dict:
    return {"command": command, "status": _STATUS[code], "artifacts": artifacts or [],
            "diagnostics": diagnostics or []}


def _diag(severity: str, kind: str, message: str, **fields) -> dict:
    return {"severity": severity, "kind": kind, "message": message, **fields}


# -- generate -----------------------------------------------------------------


def cmd_generate(args) -> tuple[int, dict]:
    save_dataset(Dataset((build_springer_block_a(args.n),)), args.out)
    return OK, _report("generate", OK, artifacts=[args.out])


# -- solve --------------------------------------------------------------------


def _write_csv(results: list[SolveResult], fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(["block", "matrix", "row", "col", "value"])
    for result in results:
        for name, matrix in (("p", result.p), ("lambda", result.lam),
                             ("p_dual", result.p_dual)):
            for i, row_label in enumerate(result.labels):
                for j, col_label in enumerate(result.labels):
                    writer.writerow([result.block, name, row_label, col_label,
                                     matrix[i][j].pretty()])


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

    # a coefficient past the int-to-string limit (0: none, as before Python
    # 3.10.7) can be neither written nor read back, and an exponent past
    # MAX_EXPONENT not read back: refused before --out is opened
    limit = getattr(sys, "get_int_max_str_digits", int)()
    for r in results:
        if limit and max_abs_coefficient(r.p + r.lam) >= 10**limit:
            raise Failure(ERROR, "ResourceLimit", f"block {r.block!r}: a coefficient has over "
                          f"{limit} digits (sys.get_int_max_str_digits())", block=r.block)
        if (e := max_abs_coefficient(r.p + r.lam + r.p_dual, dict.keys)) > MAX_EXPONENT:
            raise Failure(ERROR, "ResourceLimit", f"block {r.block!r}: an exponent key of absolute "
                          f"value {e} is beyond the bound {MAX_EXPONENT}", block=r.block)

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        if args.format == "json":
            write_json([r.to_json() for r in results], fh)
            fh.write("\n")
        else:
            _write_csv(results, fh)
    return OK, _report("solve", OK, artifacts=[args.out])


# -- verify -------------------------------------------------------------------


def _verify_one_n(n: int, diagnostics: list[dict]) -> bool:
    block = build_springer_block_a(n)
    result = solve(block)
    ok = True
    partitions = partitions_of(n)
    top = partitions[-1].n_statistic()
    for lam in partitions:
        for mu in partitions:
            # Lusztig's bridge p[lam][mu] = t^(n(mu) - n(1^n)) * K[lam][mu](t^-1);
            # K is zero exactly where lam does not dominate mu
            expected = kostka_foulkes(lam, mu).bar().shift(2 * (mu.n_statistic() - top))
            p = result.p_entry(lam.key(), mu.key())
            if p != expected:
                ok = False
                diagnostics.append(_diag(
                    "error", "OracleMismatch" if expected else "SupportMismatch",
                    f"n={n} pair ({lam.key()}, {mu.key()}): got {p.pretty()}, "
                    f"Kostka-Foulkes bridge gives {expected.pretty()}"))
    # `result` passed the self-check, so it is the constrained factorization,
    # which is unique: a seeded factorization equal to it is certified by that
    # equality alone; where a packed one differs, the exact one decides
    below, checked = closure_below(block), (result.p, result.lam)
    if any(all(run != checked for run in _runs(block, below, seed)) for seed in range(5)):
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
    diagnostics: list[dict] = []
    all_ok = all([_verify_one_n(n, diagnostics) for n in range(1, args.n_max + 1)])
    code = OK if all_ok else VIOLATION
    return code, _report("verify", code, diagnostics=diagnostics)


# -- exthom -------------------------------------------------------------------


def cmd_exthom(args) -> tuple[int, dict]:
    if args.sn is None:
        source, table = args.table, CharTable.from_json(read_json(args.table))
    else:
        # the series reads every class but only the rows of chi and psi
        source, table = f"S_{args.sn}", char_table_sn(args.sn, (args.chi, args.psi))
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
    return OK, {"chi": args.chi, "psi": args.psi, "dims": list(dims), "max_k": args.max_k}


# -- dualize ------------------------------------------------------------------


def cmd_dualize(args) -> tuple[int, list]:
    raw = read_json(args.input)
    if not isinstance(raw, list):
        raise DataFormatError("a solve result file must hold a JSON array of results")
    results = [SolveResult.from_json(entry).to_json() for entry in raw]
    return OK, [{key: r[key] for key in ("block", "order", "p_dual")} for r in results]


# -- entry point ---------------------------------------------------------------


# command -> (handler name, help line, arguments (name, type, required, choices,
# default, help)); an option --a-b sets args.a_b, any other name a positional.
# An int's choices are its range: below it is a BadArgument, above it a
# ResourceLimit, and no handler checks it again
COMMANDS = {
    "generate": ("cmd_generate", "write a generated block dataset", [
        ("type", str, True, ("springer-a",), None, "dataset family to generate"),
        ("--n", int, True, range(1, MAX_SPRINGER_N + 1), None, "size parameter"),
        ("--out", str, True, None, None, "output dataset path")]),
    "solve": ("cmd_solve", "validate and solve every block of a dataset", [
        ("input", str, True, None, None, "dataset JSON path"),
        ("--out", str, True, None, None, "output path for the results"),
        ("--format", str, False, ("json", "csv"), "json", "json is exact, csv pretty-prints"),
        ("--order-seed", int, False, None, None, "linear extension seed; output ignores it")]),
    "verify": ("cmd_verify", "check the solver against the tableau oracle up to --n-max", [
        ("--n-max", int, True, range(1, MAX_SPRINGER_N + 1), None, "largest n to verify")]),
    "exthom": ("cmd_exthom", "graded Hom dimensions for a character pair", [
        ("--table", str, False, None, None, "character table JSON path, or --sn"),
        ("--sn", int, False, range(1, EXTHOM_MAX_SN + 1), None, "built-in S_n table, or --table"),
        ("--chi", str, True, None, None, "first character id"),
        ("--psi", str, True, None, None, "second character id"),
        ("--max-k", int, True, range(EXTHOM_MAX_K + 1), None, "report degrees 0..2*max_k")]),
    "dualize": ("cmd_dualize", "print the dual stalk tables of a solve result file", [
        ("input", str, True, None, None, "solve result JSON path")]),
}


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace `argv`'s handler reads, or None for -h/--help usage text.
    An argument that departs from COMMANDS raises GetoptError."""
    if argv[:1] in (["-h"], ["--help"]):
        return None
    if not argv or argv[0] not in COMMANDS:
        raise GetoptError(f"unknown command {argv[0]!r}" if argv else "a command is required")
    arguments = COMMANDS[argv[0]][2]
    positionals = [name for name, *_ in arguments if not name.startswith("--")]
    given, rest = gnu_getopt(argv[1:], "h", ["help"] + [
        name[2:] + "=" for name, *_ in arguments if name not in positionals])
    given = dict(given + list(zip(positionals, rest)))  # a repeated option's last value
    if "-h" in given or "--help" in given:
        return None
    if len(rest) > len(positionals):
        raise GetoptError(f"unrecognized arguments: {' '.join(rest[len(positionals):])}")
    values = {}
    for name, kind, required, choices, default, _ in arguments:
        if required and name not in given:
            raise GetoptError(f"{name} is required")
        try:
            value = kind(given[name]) if name in given else default
        except ValueError:
            raise GetoptError(f"{name}: invalid {kind.__name__} value {given[name]!r}") from None
        if choices and not isinstance(choices, range) and value not in choices:
            raise GetoptError(f"{name}: invalid choice {value!r}, not one of {choices}")
        values[name.lstrip("-").replace("-", "_")] = value
    if argv[0] == "exthom" and (values["sn"] is None) == (values["table"] is None):
        raise GetoptError("exthom takes exactly one of --table and --sn")
    # ranges last, so that an argv that is also malformed reports that first
    for (name, _, _, bounds, _, _), value in zip(arguments, values.values()):
        if isinstance(bounds, range) and value is not None and value not in bounds:
            if value < bounds.start:
                raise GetoptError(f"{name} must be at least {bounds.start}")
            raise Failure(ERROR, "ResourceLimit", f"{argv[0]} supports {name} up to {bounds[-1]}")
    return SimpleNamespace(command=argv[0], **values)


def help_text(commands) -> str:
    """The usage of each of `commands`."""
    lines = ["usage: lsalgo COMMAND [ARGS]"]
    for command in commands:
        lines += ["", f"lsalgo {command}: {COMMANDS[command][1]}"]
        for name, _, required, choices, _, help in COMMANDS[command][2]:
            word = f"{name} {name[2:].upper()}" if name.startswith("--") else name.upper()
            if isinstance(choices, range):
                choices = [f"{choices.start}..{choices[-1]}"]
            lines.append(f"  {word if required else f'[{word}]':24} {help}"
                         + (f" ({', '.join(choices)})" if choices else ""))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = parse_args(argv)
        if args is None:  # -h/--help: the one output that is not JSON
            print(help_text([command] if command else COMMANDS))
            return OK
        code, document = globals()[COMMANDS[command][0]](args)
    except Exception as exc:
        fields = {}
        if isinstance(exc, Failure):
            code, kind, message, fields = exc.code, exc.kind, str(exc), exc.fields
        elif isinstance(exc, GetoptError):
            code, kind, message = ERROR, "BadArgument", str(exc)
        elif isinstance(exc, DataFormatError):
            code, kind, message = VIOLATION, "DataFormatError", str(exc)
        elif isinstance(exc, OSError):
            code, kind, message = ERROR, "IOError", str(exc)
        else:
            # a bug, not a data problem: keep the traceback for the user and
            # still print the one JSON document every command promises
            traceback.print_exc()
            code, kind, message = ERROR, "Internal", f"{type(exc).__name__}: {exc}"
        document = _report(command, code,
                           diagnostics=[_diag("error", kind, message, **fields)])
    try:
        buffer = io.StringIO()
        write_json(document, buffer)
        print(buffer.getvalue(), flush=True)
    except BrokenPipeError:
        # nobody reads stdout; send what is still buffered to devnull so
        # the flush at interpreter exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("lsalgo: stdout is closed, the JSON report was not written", file=sys.stderr)
        return ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
