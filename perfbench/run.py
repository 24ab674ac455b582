"""Benchmark of the lsalgo command line, timed in-process.

    python3 perfbench/run.py --workload springer --seed 1 --seconds 30 --trace 0

Paths resolve from this file, so it runs from any directory; the program is
imported from the checkout's own `src/`.  Each operation calls
`lsalgo.cli.main(argv)` with stdout captured, in a child forked from a
process that has imported lsalgo and computed nothing (`_Forker`), so every
operation starts as cold as a fresh `lsalgo` process and from the same heap:
no cache or memo survives from an earlier operation.  One client,
one operation in flight (a closed loop).  Passes over the workload's
operations repeat until `--seconds` have elapsed; every pass is checked.

`--trace 0` prints the end-to-end metrics, in seconds scaled to a reference
CPU speed (see below):
  setup_s        median of several set-ups (fresh import of lsalgo plus
                 writing the workload's inputs), each in a fresh child;
  wall_s         median over passes of one pass's time: the sum over its
                 operations of fork-to-reap time;
  op_p50_s/p90_s quantiles over every operation of every pass of its time
                 in `main` (the sample count is printed on the summary lines);
  largest_op_s   median time of the operations on the largest input;
  peak_rss_mib   largest peak resident set of any operation process.
The speed of a shared machine drifts by tens of percent, in phases of seconds
to minutes and separately on each CPU, so raw times of the same code differ
from run to run by more than a change worth detecting.  Right before and
right after every operation (and set-up) the benchmark times a fixed
pure-Python loop, `_reference`, that shares no code with lsalgo, and scales
the operation's time by REFERENCE_S over the mean loop time around it (see
`_Clock`): the time the operation would take on a CPU that runs the loop in
REFERENCE_S.  A change to lsalgo moves the scaled times exactly as much as
the raw ones; raw times are kept in the report file.  Between operations
(at most every REPIN_SECONDS) the process also pins itself, and so the
operations it forks, to whichever allowed CPU runs a fixed loop fastest; it
changes only its own affinity, no machine setting.
`--trace 1` runs one untraced pass, then traced passes, and prints the
per-layer metrics (see tracing.py): times are best-of-passes, counts come
from one pass and must repeat in every other.  Spans go to .perfbench-run/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 when a result was printed; without a usable
program (no `src/lsalgo`) it is 2 and nothing is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import struct
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracing
from workloads import ROOT, WORKLOADS

SRC = ROOT / "src"
OUT = ROOT / ".perfbench-run"
SETUP_REPS = 7
REPIN_SECONDS = 1.0
REFERENCE_S = 0.0025
REFERENCE_SHARE = 0.1
REFERENCE_WINDOW = 2.0
PINNABLE = frozenset(os.sched_getaffinity(0))

# per-layer metric -> (unit, traced name, field); *_ns fields become seconds
LAYER_METRICS = {
    "weyl.coinvariant_pairing.s": ("s", "weyl.coinvariant_pairing", "ns"),
    "weyl.coinvariant_pairing.calls": ("count", "weyl.coinvariant_pairing", "calls"),
    "weyl.char_table_sn.s": ("s", "weyl.char_table_sn", "ns"),
    "weyl.class_pair_series.s": ("s", "weyl.class_pair_series", "ns"),
    "weyl.degrees_product.s": ("s", "weyl.degrees_product", "ns"),
    "laurent.rational_hl.calls": ("count", "laurent.rational_hl", "calls"),
    "laurent.rational_series.s": ("s", "laurent.rational_series", "ns"),
    "exthom.graded_hom_dims.s": ("s", "exthom.graded_hom_dims", "self_ns"),
    "laurent.mul.calls": ("count", "laurent.mul", "calls"),
    "laurent.mul.s": ("s", "laurent.mul", "ns"),
    "laurent.mul.coeff_ops": ("count", "laurent.mul", "coeff_ops"),
    "laurent.mul.max_terms": ("count", "laurent.mul", "max_terms"),
    "laurent.coeff_max_bits": ("bits", "laurent.mul", "max_bits"),
    "laurent.exact_div.calls": ("count", "laurent.exact_div", "calls"),
    "laurent.exact_div.s": ("s", "laurent.exact_div", "ns"),
    "solver.bareiss_det.calls": ("count", "solver.bareiss_det", "calls"),
    "solver.bareiss_det.s": ("s", "solver.bareiss_det", "ns"),
    "solver.solve.s": ("s", "solver.solve", "self_ns"),
    "solver.reconstruct.s": ("s", "solver.reconstruct", "ns"),
    "solver.dualize_p.s": ("s", "solver.dualize_p", "ns"),
    "solver.extension_invariance_check.s": ("s", "solver.extension_invariance_check", "ns"),
    "oracle.kostka_foulkes.s": ("s", "oracle.kostka_foulkes", "ns"),
    "oracle.kostka_foulkes.calls": ("count", "oracle.kostka_foulkes", "calls"),
    "oracle.ssyt_enumerate.tableaux": ("count", "oracle.ssyt_enumerate", "tableaux"),
    "blockdata.build_springer_block_a.s": ("s", "blockdata.build_springer_block_a", "self_ns"),
    "blockdata.dominance_covers.s": ("s", "blockdata.dominance_covers", "ns"),
    "blockdata.validate_dataset.s": ("s", "blockdata.validate_dataset", "ns"),
    "blockdata.load_dataset.s": ("s", "blockdata.load_dataset", "ns"),
    "blockdata.save_dataset.s": ("s", "blockdata.save_dataset", "ns"),
    "cli.main.s": ("s", "cli.main", "ns"),
    "cli.self.s": ("s", "cli.main", "self_ns"),
}


def _fork(child) -> tuple[bytes, int, float, int]:
    """Run child() in a forked process; return what it wrote to its pipe,
    its wait status, the wall time from fork to reap and its peak RSS in KiB.

    The parent runs with the garbage collector off and freezes its objects
    before forking, so every child starts from the same collector state and
    never scans (or copies on write) the inherited heap; otherwise whether a
    full collection falls inside a short operation depends on what the
    parent did before it."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    gc.freeze()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        gc.enable()
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(child())
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    return data, status, time.perf_counter() - start, usage.ru_maxrss


def _op_child(request: dict) -> bytes:
    """Run one operation in this (forked) process; return its result."""
    from lsalgo import cli

    tracer = None
    if request["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    out = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(request["argv"]))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # reported as a failed operation
        code, error = None, repr(exc)
    elapsed = time.perf_counter() - start
    return json.dumps({"code": code, "error": error, "elapsed": elapsed,
                       "stdout": out.getvalue(),
                       "trace": tracer.dump() if tracer else None}).encode()


def _read_exact(fd: int, size: int) -> bytes:
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            raise EOFError
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


_HEADER = struct.Struct("<Q")            # length of what follows
_TRAILER = struct.Struct("<qdq")         # wait status, fork-to-reap s, peak RSS KiB


class _Forker:
    """Forks every operation from one process, forked itself right after
    lsalgo is imported.  It computes nothing and keeps nothing between
    operations, so every operation starts from the same heap however long
    the benchmark has run: its time and peak RSS do not depend on what the
    benchmark's own process holds by then.  The forker ends when its request
    pipe closes."""

    def __init__(self):
        req_read, self.req = os.pipe()
        self.res, res_write = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        gc.freeze()
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                os.close(self.req)
                os.close(self.res)
                self._serve(req_read, res_write)
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(status)
        os.close(req_read)
        os.close(res_write)

    @staticmethod
    def _serve(req: int, res: int) -> None:
        while True:
            try:
                size = _HEADER.unpack(_read_exact(req, _HEADER.size))[0]
            except EOFError:
                return
            request = json.loads(_read_exact(req, size))
            os.sched_setaffinity(0, {request["cpu"]})
            data, status, wall, rss_kib = _fork(lambda: _op_child(request))
            os.write(res, _HEADER.pack(len(data)) + data + _TRAILER.pack(status, wall, rss_kib))

    def run(self, argv: tuple[str, ...], traced: bool) -> dict:
        request = json.dumps({"argv": list(argv), "trace": traced,
                              "cpu": min(os.sched_getaffinity(0))}).encode()
        os.write(self.req, _HEADER.pack(len(request)) + request)
        size = _HEADER.unpack(_read_exact(self.res, _HEADER.size))[0]
        data = _read_exact(self.res, size)
        status, wall, rss_kib = _TRAILER.unpack(_read_exact(self.res, _TRAILER.size))
        try:
            result = json.loads(data)
        except ValueError:
            result = {"code": None, "error": f"operation process ended with status {status}",
                      "elapsed": 0.0, "stdout": "", "trace": None}
        result["wall"] = wall
        result["rss_kib"] = rss_kib
        return result

    def close(self) -> None:
        os.close(self.req)
        os.waitpid(self.pid, 0)
        os.close(self.res)


def _spin() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.perf_counter() - start


def _reference() -> float:
    """Time a fixed mix of the kinds of work lsalgo does (a JSON round trip
    with sorting, a sum of Fractions, sparse dict products).  Its time tracks
    the current speed of the CPU for such work: on a shared 2-CPU machine,
    scaling operation times by it cut the spread of 20 s medians of the same
    operations several-fold, where a plain integer loop overcorrected."""
    start = time.perf_counter()
    doc = json.loads(_REFERENCE_DOC)
    json.dumps(sorted((tuple(sorted(x["entries"].items())) for x in doc), reverse=True))
    acc = Fraction(0)
    for k in range(1, 150):
        acc += Fraction(k * 7919 + 1, k * k + 3)
    rows = [{i: (i * 31) % 97 for i in range(j, j + 30)} for j in range(30)]
    total = 0
    for a in rows:
        for b in rows[:10]:
            total += sum(a.get(k, 0) * v for k, v in b.items())
    return time.perf_counter() - start


_REFERENCE_DOC = json.dumps([{"id": f"o{i}", "entries": {str(e): e * 7919 for e in range(-8, 9)}}
                             for i in range(60)])


class _Clock:
    """Times `_reference` between operations and scales each operation by it.

    Before an operation the process is re-pinned if REPIN_SECONDS have
    passed, and the loop runs once on the current CPU unless it just ran
    there; after an operation that took D seconds it runs until
    REFERENCE_SHARE * D has passed (at least once).  `scale` is REFERENCE_S
    over the mean loop time of the runs on the operation's CPU that end
    within REFERENCE_WINDOW * D of the operation, and at least of the run
    right before it and those right after it.  A long operation is thus
    compared with the CPU's speed over a comparable stretch around it, a
    short one with its speed right at the operation."""

    def __init__(self):
        self.pinned = float("-inf")
        self.cpu = -1
        self.loops: list[tuple[float, float, int]] = []   # (end, loop time, cpu)

    def _loop(self) -> None:
        took = _reference()
        self.loops.append((time.perf_counter(), took, self.cpu))

    def start(self) -> tuple[int, float]:
        if time.perf_counter() - self.pinned > REPIN_SECONDS:
            self.cpu = _pin_fastest_cpu()
            self.pinned = time.perf_counter()
        if not self.loops or self.loops[-1][2] != self.cpu:
            self._loop()
        return len(self.loops), time.perf_counter()

    def stop(self, mark: tuple[int, float]) -> tuple[int, int, float, float]:
        """Run the loop after an operation begun at `mark`; return what
        `scale` needs once the run is over."""
        end = time.perf_counter()
        until = end + REFERENCE_SHARE * (end - mark[1])
        self._loop()
        while time.perf_counter() < until:
            self._loop()
        return mark[0], len(self.loops), mark[1], end

    def scale(self, stopped: tuple[int, int, float, float]) -> float:
        first, last, start, end = stopped
        reach = REFERENCE_WINDOW * (end - start)
        cpu = self.loops[first][2]
        lo, hi = first - 1, last
        while lo > 0 and self.loops[lo - 1][0] >= start - reach:
            lo -= 1
        while hi < len(self.loops) and self.loops[hi][0] <= end + reach:
            hi += 1
        window = [took for _, took, on in self.loops[lo:hi] if on == cpu]
        return REFERENCE_S * len(window) / sum(window)


def _pin_fastest_cpu() -> int:
    """Pin this process, and so the operations it forks, to the allowed CPU
    that runs a fixed loop fastest right now.  On a shared machine the speed
    of each CPU drifts separately over seconds; this only reduces noise.
    The loop is timed as a sum of several runs: the fastest single run is
    fast on every CPU, since the slow spells last only milliseconds."""
    cpus = sorted(PINNABLE)
    if len(cpus) < 2:
        return cpus[0]
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = sum(_spin() for _ in range(5))
    fastest = min(speed, key=speed.get)
    os.sched_setaffinity(0, {fastest})
    return fastest


def _run_pass(workload, forker: _Forker, traced: bool, clock: _Clock) -> dict:
    results = {}
    for op in workload.ops:
        mark = clock.start()
        results[op.id] = forker.run(op.argv, traced)
        results[op.id]["stopped"] = clock.stop(mark)
    return {"results": results, "failed": workload.check(results)}


def _setup(workload, clock: _Clock) -> list[dict]:
    """The wall time of each of SETUP_REPS set-ups, with its clock marks."""
    def child() -> bytes:
        import lsalgo  # noqa: F401  (a fresh import is part of set-up)

        workload.setup()
        return b"ok"

    times = []
    for _ in range(SETUP_REPS):
        mark = clock.start()
        data, status, wall, _ = _fork(child)
        stopped = clock.stop(mark)
        if status != 0 or data != b"ok":
            raise RuntimeError("set-up failed")
        times.append({"wall": wall, "stopped": stopped})
    return times


def _layer_metrics(summary: dict) -> dict[str, float]:
    out = {}
    for metric, (_unit, name, field) in LAYER_METRICS.items():
        value = summary.get(name, {}).get(field, 0)
        out[metric] = value / 1e9 if field.endswith("ns") else value
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lsalgo" / "__init__.py").is_file():
        print(f"no lsalgo package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    gc.disable()
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _bench(args, WORKLOADS[args.workload](args.seed, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(args, workload) -> int:
    clock = _Clock()
    try:
        setup_times = _setup(workload, clock)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    import lsalgo.cli  # noqa: F401  (the parent imports, computes nothing)

    if Path(lsalgo.__file__).resolve().parent != (SRC / "lsalgo").resolve():
        print(f"lsalgo imported from {lsalgo.__file__}, not {SRC}", file=sys.stderr)
        return 2

    forker = _Forker()
    try:
        deadline = time.perf_counter() + args.seconds
        passes = [_run_pass(workload, forker, False, clock)]
        if args.trace:
            passes.append(_run_pass(workload, forker, True, clock))
        while time.perf_counter() < deadline:
            passes.append(_run_pass(workload, forker, bool(args.trace), clock))
    finally:
        forker.close()
    for r in setup_times + [r for p in passes for r in p["results"].values()]:
        r["scale"] = clock.scale(r.pop("stopped"))

    attempted = sum(len(p["results"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    for p in passes:
        for op_id in sorted(p["failed"]):
            r = p["results"][op_id]
            print(f"FAILED {op_id}: code {r['code']} {r['error'] or ''}", file=sys.stderr)
    report: dict = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                    "fail_ratio": failed / attempted, "passes": len(passes)}
    correct = failed == 0

    if not args.trace:
        samples = [(op.id, p["results"][op.id]) for p in passes for op in workload.ops]

        def e2e(scaled: bool) -> dict[str, float]:
            def t(r: dict, field: str) -> float:
                return r[field] * (r["scale"] if scaled else 1.0)

            op_times = [t(r, "elapsed") for _, r in samples]
            return {
                "setup_s": statistics.median(t(r, "wall") for r in setup_times),
                "wall_s": statistics.median(sum(t(r, "wall") for r in p["results"].values())
                                            for p in passes),
                "op_p50_s": statistics.median(op_times),
                "op_p90_s": statistics.quantiles(op_times, n=10, method="inclusive")[8],
                "largest_op_s": statistics.median(t(r, "elapsed") for op_id, r in samples
                                                  if op_id in workload.largest),
            }

        values = {name: (value, "s") for name, value in e2e(True).items()}
        values["peak_rss_mib"] = (max(r["rss_kib"] for _, r in samples) / 1024, "MiB")
        report["raw_s"] = e2e(False)
        report["scale_median"] = statistics.median(r["scale"] for _, r in samples)
        report["op_samples"] = len(samples)
        report["op_times_s"] = {op.id: [p["results"][op.id]["elapsed"] for p in passes]
                                for op in workload.ops}
        report["op_scales"] = {op.id: [p["results"][op.id]["scale"] for p in passes]
                               for op in workload.ops}
    else:
        untraced, traced = passes[0], passes[1:]
        per_pass = [_layer_metrics(tracing.summarize(
            [r["trace"] for r in p["results"].values()])) for p in traced]
        values = {}
        for metric, (unit, _name, _field) in LAYER_METRICS.items():
            series = [m[metric] for m in per_pass]
            if unit == "s":
                values[metric] = (min(series), unit)
            else:
                if len(set(series)) != 1:
                    print(f"count {metric} differs between passes: {series}", file=sys.stderr)
                    correct = False
                values[metric] = (series[0], unit)
        def wall(p: dict) -> float:
            return sum(r["wall"] * r["scale"] for r in p["results"].values())

        values["trace.overhead_ratio"] = (min(wall(p) for p in traced) / wall(untraced), "ratio")
        if hasattr(workload, "stages"):
            report["stages"] = workload.stages(untraced["results"], traced[0]["results"])
        report["spans"] = [{op.id: {"argv": list(op.argv), **p["results"][op.id]["trace"]}
                            for op in workload.ops} for p in traced]

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    report["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report), encoding="utf-8")

    for name, (value, unit) in values.items():
        print(f"{workload.name:<11} {name:<38} {value:>14.6g} {unit}")
    print(f"{workload.name:<11} {'fail_ratio':<38} {failed / attempted:>14.6g} "
          f"({failed}/{attempted} operations)")
    if not args.trace:
        print(f"{workload.name:<11} {'op samples (operations x passes)':<38} "
              f"{report['op_samples']:>14d} ({len(passes)} passes)")
        for name, value in report["raw_s"].items():
            print(f"{workload.name:<11} {'unscaled ' + name:<38} {value:>14.6g} s")
        print(f"{workload.name:<11} {'median scale (REFERENCE_S / loop)':<38} "
              f"{report['scale_median']:>14.6g}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
