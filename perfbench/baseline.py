"""Run every workload once untraced and once traced, print each metric by
name with its unit, and optionally record the results as a baseline point.

    python3 perfbench/baseline.py --seed 1 [--out perfbench/results/BENCH_0.json]

The recorded file holds the end-to-end metrics, fail ratio and sample count
of each workload, its per-layer metrics, the per-stage view of the Springer
path for n = 6, 7, 8, the Python version and a CPU string.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def cpu_string() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return f"{line.split(':', 1)[1].strip()} ({os.cpu_count()} cpus)"
    except OSError:
        pass
    return f"{platform.processor() or platform.machine()} ({os.cpu_count()} cpus)"


def run(workload: str, seed: int, seconds: int, traced: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(traced)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".perfbench-run" / f"{workload}-seed{seed}-trace{traced}.json")
                        .read_text(encoding="utf-8"))
    report.pop("spans", None)
    report["correct"] = result["correct"]
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", help="write the baseline JSON here")
    args = parser.parse_args()

    record = {"python": platform.python_version(), "cpu": cpu_string(),
              "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        plain, traced = (run(workload, args.seed, args.seconds, t) for t in (0, 1))
        entry = {
            "correct": plain["correct"] and traced["correct"],
            "fail_ratio": plain["fail_ratio"],
            "op_samples": plain["op_samples"],
            "end_to_end": plain["metrics"],
            "unscaled_s": plain["raw_s"],
            "scale_median": plain["scale_median"],
            "per_layer": traced["metrics"],
        }
        if "stages" in traced:
            entry["stages"] = traced["stages"]
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0 if all(w["correct"] for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
