"""The benchmark's workloads: the operations of one pass and their checks.

Each workload lists CLI operations (argument vectors for `lsalgo.cli.main`),
prepares its input files in `setup` (run in a fresh child process, see
run.py), and checks a finished pass in `check`, returning the ids of the
operations whose output was wrong.  Inputs depend only on the seed.

  * springer: `generate springer-a` then `solve` for n = 2..8, then
    `verify --n-max 7`.  Dominated by the Weyl-group pairings of the build.
  * multilabel: `solve` on blocks planted by plant.py (12 to 16 orbits, one
    to four labels each) and on the shipped datasets.  Never touches the
    Weyl-group code; its work is the solver's Lambda solves.
  * ext-table: `exthom` for every unordered character pair of S_7 and S_8,
    once with `--sn` and once with `--table` on a table file written at
    set-up.  Only the character-table and Molien-series code runs; no
    solver.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path

import plant
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
SHIPPED = ("decomposition_a2_dual", "springer_a2", "springer_a3", "synthetic_dual_pair")


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple[str, ...]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _status_ok(result: dict) -> bool:
    if result.get("code") != 0:
        return False
    try:
        return json.loads(result["stdout"]).get("status") == "ok"
    except (ValueError, AttributeError):
        return False


class Springer:
    name = "springer"
    N = range(2, 9)

    def __init__(self, seed: int, work: Path):
        self.work = work
        order = list(self.N)
        random.Random(f"springer-{seed}").shuffle(order)
        self.ops = []
        for n in order:
            block, out = work / f"springer_{n}.json", work / f"springer_{n}.out.json"
            self.ops.append(Op(f"generate-{n}", ("generate", "springer-a", "--n", str(n),
                                                 "--out", str(block))))
            self.ops.append(Op(f"solve-{n}", ("solve", str(block), "--out", str(out))))
        self.ops.append(Op("verify-7", ("verify", "--n-max", "7")))
        self.largest = ("generate-8",)

    def setup(self) -> None:
        pass

    def stages(self, untraced: dict[str, dict], traced: dict[str, dict]) -> dict:
        """Per-stage view for n = 6, 7, 8: untraced times of the generate
        and solve operations, and the traced inclusive times of the build,
        the solve (with its self-check) and reconstruct alone."""
        view = {}
        for n in (6, 7, 8):
            build = tracing.summarize([traced[f"generate-{n}"]["trace"]])
            solve = tracing.summarize([traced[f"solve-{n}"]["trace"]])
            view[str(n)] = {
                "generate_op_s": untraced[f"generate-{n}"]["elapsed"],
                "solve_op_s": untraced[f"solve-{n}"]["elapsed"],
                "traced_build_springer_block_a_s":
                    build.get("blockdata.build_springer_block_a", {}).get("ns", 0) / 1e9,
                "traced_solve_s": solve.get("solver.solve", {}).get("ns", 0) / 1e9,
                "traced_reconstruct_s": solve.get("solver.reconstruct", {}).get("ns", 0) / 1e9,
            }
        return view

    def check(self, results: dict[str, dict]) -> set[str]:
        failed = {op_id for op_id, r in results.items() if not _status_ok(r)}
        for n in self.N:
            out = self.work / f"springer_{n}.out.json"
            if not out.is_file() or digest(out) != GOLDEN[f"springer-a-{n}"]:
                failed.add(f"solve-{n}")
        return failed


class Multilabel:
    name = "multilabel"
    BLOCKS = 15

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.sizes = [12 + i % 5 for i in range(self.BLOCKS)]
        self.ops = [Op(f"planted-{i}", ("solve", str(work / f"planted_{i}.json"),
                                        "--out", str(work / f"planted_{i}.out.json")))
                    for i in range(self.BLOCKS)]
        self.ops += [Op(f"shipped-{name}", ("solve", str(ROOT / "datasets" / f"{name}.json"),
                                            "--out", str(work / f"{name}.out.json")))
                     for name in SHIPPED]
        random.Random(f"multilabel-order-{seed}").shuffle(self.ops)
        self.largest = tuple(f"planted-{i}" for i, s in enumerate(self.sizes)
                             if s == max(self.sizes))

    def setup(self) -> None:
        rng = random.Random(f"multilabel-{self.seed}")
        for i, n_orbits in enumerate(self.sizes):
            counts = [1 + (i + j) % 4 for j in range(n_orbits)]
            planted = plant.plant_block(rng, f"planted-{i}", counts)
            (self.work / f"planted_{i}.json").write_text(
                json.dumps([planted["block"]]), encoding="utf-8")
            (self.work / f"planted_{i}.expect.json").write_text(
                json.dumps({"p": planted["p"], "lambda": planted["lambda"]}), encoding="utf-8")

    def check(self, results: dict[str, dict]) -> set[str]:
        failed = {op_id for op_id, r in results.items() if not _status_ok(r)}
        for i in range(self.BLOCKS):
            expect = json.loads((self.work / f"planted_{i}.expect.json").read_text(encoding="utf-8"))
            try:
                (got,) = json.loads((self.work / f"planted_{i}.out.json").read_text(encoding="utf-8"))
                ok = got["p"] == expect["p"] and got["lambda"] == expect["lambda"]
            except (OSError, ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                failed.add(f"planted-{i}")
        for name in SHIPPED:
            out = self.work / f"{name}.out.json"
            if not out.is_file() or digest(out) != GOLDEN[f"datasets/{name}"]:
                failed.add(f"shipped-{name}")
        return failed


def _partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [(first, *rest) for first in range(min(n, largest), 0, -1)
            for rest in _partitions(n - first, first)]


def _degree(key: str) -> int:
    """chi(1) of the S_n character with partition key "p1.p2...", by the
    hook length formula."""
    parts = [int(p) for p in key.split(".")]
    n = sum(parts)
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0])]
    hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return factorial(n) // hooks


class ExtTable:
    name = "ext-table"
    SN = (7, 8)
    MAX_K = 20

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.pairs: dict[str, tuple[int, str, str, str]] = {}
        self.ops = []
        for n in self.SN:
            keys = [".".join(map(str, p)) for p in _partitions(n)]
            for a, chi in enumerate(keys):
                for psi in keys[a:]:
                    for mode in ("sn", "table"):
                        source = (("--sn", str(n)) if mode == "sn"
                                  else ("--table", str(work / f"table_s{n}.json")))
                        op_id = f"{mode}-{n}-{chi}-{psi}"
                        self.pairs[op_id] = (n, mode, chi, psi)
                        self.ops.append(Op(op_id, ("exthom", *source, "--chi", chi, "--psi", psi,
                                                   "--max-k", str(self.MAX_K))))
        random.Random(f"ext-table-{seed}").shuffle(self.ops)
        self.largest = tuple(op_id for op_id, (n, _, _, _) in self.pairs.items()
                             if n == max(self.SN))

    def setup(self) -> None:
        from lsalgo.weyl import char_table_sn

        for n in self.SN:
            (self.work / f"table_s{n}.json").write_text(
                json.dumps(char_table_sn(n).to_json()), encoding="utf-8")

    def check(self, results: dict[str, dict]) -> set[str]:
        failed: set[str] = set()
        dims: dict[str, list[int]] = {}
        for op_id, (n, mode, chi, psi) in self.pairs.items():
            result = results[op_id]
            try:
                out = json.loads(result["stdout"])
                d = out["dims"]
                ok = (result["code"] == 0 and len(d) == self.MAX_K + 1
                      and all(isinstance(x, int) and x >= 0 for x in d)
                      and d[0] == (1 if chi == psi else 0))
            except (ValueError, KeyError, TypeError):
                ok = False
            if ok:
                dims[op_id] = d
            else:
                failed.add(op_id)
        for op_id, (n, mode, chi, psi) in self.pairs.items():
            twin = f"sn-{n}-{chi}-{psi}"
            if mode == "table" and dims.get(op_id) != dims.get(twin):
                failed.update((op_id, twin))
        # sum over ordered pairs of chi(1) psi(1) dims[k] = |W| C(k+n-1, n-1)
        for n in self.SN:
            for mode in ("sn", "table"):
                group = [op_id for op_id, key in self.pairs.items() if key[:2] == (n, mode)]
                total = [0] * (self.MAX_K + 1)
                for op_id in group:
                    _, _, chi, psi = self.pairs[op_id]
                    weight = (1 if chi == psi else 2) * _degree(chi) * _degree(psi)
                    for k, value in enumerate(dims.get(op_id, [0] * (self.MAX_K + 1))):
                        total[k] += weight * value
                expected = [factorial(n) * comb(k + n - 1, n - 1) for k in range(self.MAX_K + 1)]
                if total != expected:
                    failed.update(group)
        return failed


WORKLOADS = {w.name: w for w in (Springer, Multilabel, ExtTable)}
