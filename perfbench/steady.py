#!/usr/bin/env python3
"""Steadiness check: run the benchmark once per seed on each workload and
report, per end-to-end metric, the median, the quartiles and the spread
(distance between the quartiles as a share of the median).

    python3 perfbench/steady.py [--seeds 1-10] [--workloads a,b] [--out FILE]

Reads run_seconds and the bounds from BENCHMARK.json and flags every spread
above a third of its metric's bound (setup_s is judged by its median only).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads")
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"hardware": {"cpu": _cpu_model(), "python": platform.python_version(),
                            "machine": platform.machine()},
               "run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in workloads:
        values: dict = {}
        elapsed = []
        for seed in _seeds(args.seeds):
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            elapsed.append(time.perf_counter() - started)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: incorrect or failed run", file=sys.stderr)
                steady = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload:14s} run time {min(elapsed):.1f}-{max(elapsed):.1f} s", flush=True)
        table = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            table[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                           "bound": bounds[name], "values": vals}
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  WIDE"
            steady = steady and not flag
            print(f"{workload:14s} {name:12s} median {median:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:7.4f}  bound {bounds[name]}{flag}",
                  flush=True)
        summary["workloads"][workload] = table
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
