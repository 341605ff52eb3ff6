#!/usr/bin/env python3
"""The symclass benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else. ``--trace 0`` prints the end-to-end metrics
of one workload, ``--trace 1`` the per-layer metrics from a traced run. Each
prints a table, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every verdict is
checked against oracle.py; the exit code is 1 when any is wrong and 2 when
the checkout holds no ``src/symclass``.

Workloads (see README.md for why each exists): claim-suite, classify-mix,
lattice-sweep, iso-canon. Every op runs in a child process, one client, the
next op starting when the previous returns.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle
import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH / "out"
WORKLOADS = ("claim-suite", "classify-mix", "lattice-sweep", "iso-canon")
SETUP_SAMPLES = 5
CHILD_LIMIT_S = 120
# Latency percentiles are taken per block of whole passes holding at least
# this many ops (at least 20 beyond the p95), and the median over blocks is
# reported: a slow spell of the machine then moves one block, not the run.
BLOCK_OPS = 400

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p95_ms": "ms", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def _run_child(argv: list, seconds: float = 0.0) -> dict:
    """Run worker.py to completion; wall time from spawn to exit and the
    child's own peak resident memory (from wait4)."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SYMCLASS_BUDGET")}
    env["PYTHONPATH"] = str(SRC)
    # a fixed hash seed: the seed varies the inputs, not dict and set layout
    env["PYTHONHASHSEED"] = "0"
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT)
    # a child that hangs is killed and reported, so a run ends in bounded time
    watchdog = threading.Timer(seconds + CHILD_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise ChildFailed(f"worker {' '.join(argv)} exited with {proc.returncode}")
    return {"wall_s": wall, "stdout": out.decode(), "rss_mb": usage.ru_maxrss / 1024}


def _setup_s(workload: str, seed: int) -> float:
    """Median over fresh processes of interpreter start + import + inputs."""
    argv = ["--workload", workload, "--seed", str(seed), "--mode", "setup"]
    return statistics.median(_run_child(argv)["wall_s"] for _ in range(SETUP_SAMPLES))


def _claim_pass(seed: int, trace_path=None) -> dict:
    argv = ["--workload", "claim-suite", "--seed", str(seed), "--mode", "pass"]
    if trace_path:
        argv += ["--trace", str(trace_path)]
    child = _run_child(argv)
    report_text, _, last = child["stdout"].rstrip().rpartition("\n")
    info = json.loads(last)
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError:
        report = {}
    failed, messages = oracle.check_claim_pass(info["exit"], report)
    return {**child, **info, "failed": failed, "messages": messages}


def _claim_suite(seed: int, seconds: float, passes=None, trace_path=None) -> dict:
    """Fresh-process passes of ``verify-paper --all``; one op per claim."""
    runs = []
    started = time.perf_counter()
    while True:
        runs.append(_claim_pass(seed, trace_path))
        if passes is not None:
            if len(runs) >= passes:
                break
            continue
        typical = statistics.median(r["wall_s"] for r in runs)
        if time.perf_counter() - started + typical > seconds:
            break
    return {
        "pass_walls": [r["wall_s"] for r in runs],
        "pass_op_ms": [[1000 * s for _, s in r["claim_s"]] for r in runs],
        "rss_mb": max(r["rss_mb"] for r in runs),
        "attempted": sum(max(len(r["claim_s"]), len(oracle.CLAIM_IDS)) for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "messages": [m for r in runs for m in r["messages"]],
        "runs": runs,
    }


def _in_process(workload: str, seed: int, seconds: float, passes=None, trace_path=None) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--mode", "run",
            "--seconds", str(seconds)]
    if passes is not None:
        argv += ["--passes", str(passes)]
    if trace_path:
        argv += ["--trace", str(trace_path)]
    child = _run_child(argv, seconds)
    data = json.loads(child["stdout"].strip().rpartition("\n")[2])
    if workload == "classify-mix":
        failed, messages = oracle.check_classify(data["passes"], data["ops"])
    elif workload == "lattice-sweep":
        failed, messages = oracle.check_lattice(data["passes"], data["ops"])
    else:
        failed, messages = oracle.check_iso_canon(data["passes"], data["spec"], data["ops"])
    return {
        "pass_walls": [p["wall_s"] for p in data["passes"]],
        "pass_op_ms": _split(data["ops"], len(data["passes"])),
        "rss_mb": child["rss_mb"],
        "attempted": len(data["ops"]),
        "failed": min(failed, len(data["ops"])),
        "messages": messages,
        "layers": data.get("layers"),
    }


def _split(ops: list, passes: int) -> list:
    out = [[] for _ in range(passes)]
    for number, _, ms, _ in ops:
        out[number].append(ms)
    return out


def _blocks(pass_op_ms: list) -> list:
    """Consecutive whole passes grouped into blocks of at least BLOCK_OPS ops
    (the remainder joins the last block; one block if the run is shorter)."""
    per_pass = max(1, min(len(p) for p in pass_op_ms))
    k = -(-BLOCK_OPS // per_pass)
    groups = [pass_op_ms[i:i + k] for i in range(0, len(pass_op_ms), k)]
    if len(groups) > 1 and len(groups[-1]) < k:
        tail = groups.pop()
        groups[-1] += tail
    return [[ms for p in group for ms in p] for group in groups]


def _measure(workload, seed, seconds, passes=None, trace_path=None) -> dict:
    if workload == "claim-suite":
        return _claim_suite(seed, seconds, passes, trace_path)
    return _in_process(workload, seed, seconds, passes, trace_path)


def end_to_end(workload: str, seed: int, seconds: float):
    setup = _setup_s(workload, seed)
    run = _measure(workload, seed, seconds)
    blocks = _blocks(run["pass_op_ms"])
    p95s = [statistics.quantiles(block, n=20)[18] for block in blocks]
    beyond = min(sum(ms > p95 for ms in block) for block, p95 in zip(blocks, p95s))
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(run["pass_walls"]),
        "ops_per_s": statistics.median(
            len(ops) / wall for ops, wall in zip(run["pass_op_ms"], run["pass_walls"])),
        "op_p50_ms": statistics.median(statistics.median(block) for block in blocks),
        "op_p95_ms": statistics.median(p95s),
        "peak_rss_mb": run["rss_mb"],
    }
    n = sum(map(len, blocks))
    notes = {
        "setup_s": f"median of {SETUP_SAMPLES} fresh processes",
        "wall_s": f"median of {len(run['pass_walls'])} passes",
        "ops_per_s": f"median over passes of ops / pass time, {n} ops",
        "op_p50_ms": f"median over {len(blocks)} blocks of the block median, n={n}",
        "op_p95_ms": f"median over {len(blocks)} blocks of the block p95, n={n}, "
                     f">= {beyond} beyond in every block",
    }
    return metrics, notes, run


def traced(workload: str, seed: int):
    """One untraced pass, then one traced pass of the same inputs."""
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"{workload}-seed{seed}.spans.tsv.gz"
    plain = _measure(workload, seed, 0.0, passes=1)
    run = _measure(workload, seed, 0.0, passes=1, trace_path=spans)
    if workload == "claim-suite":
        child = run["runs"][0]
        layers = dict(child["layers"])
        layers["cli.startup_s"] = child["wall_s"] - child["write_s"] - layers["cli.main_s"]
        traced_wall = child["wall_s"] - child["write_s"]
    else:
        layers = dict(run["layers"])
        layers["cli.startup_s"] = 0.0
        traced_wall = run["pass_walls"][0]
    layers["trace.overhead_s"] = traced_wall - plain["pass_walls"][0]
    metrics = {name: layers[name] for name in tracing.METRIC_UNITS}
    notes = {"trace.overhead_s": f"traced pass {traced_wall:.3f} s - untraced "
                                 f"{plain['pass_walls'][0]:.3f} s",
             "trace.spans": f"written to {spans.relative_to(ROOT)}"}
    combined = {key: plain[key] + run[key] for key in ("attempted", "failed", "messages")}
    return metrics, notes, combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "symclass" / "__init__.py").is_file():
        print(f"error: no symclass package under {SRC}; run from a symclass checkout",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, notes, run = traced(args.workload, args.seed)
            units = tracing.METRIC_UNITS
        else:
            metrics, notes, run = end_to_end(args.workload, args.seed, args.seconds)
            units = END_TO_END_UNITS
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = run["attempted"], run["failed"]
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:>16.6g} {units[name]:6s} {notes.get(name, '')}")
    print(f"{'fail_ratio':34s} {failed / attempted:>16.6g} {'ratio':6s} "
          f"{failed} failed / {attempted} attempted")
    for message in run["messages"][:20]:
        print(f"FAIL {message}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
