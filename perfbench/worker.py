"""Child process of the benchmark: one set-up, one claim pass, or one run.

Invoked by run.py with PYTHONPATH pointing at the checkout's ``src`` and
PYTHONHASHSEED=0:

    worker.py --workload W --seed N --mode setup
        import symclass and build the workload's inputs, then exit
    worker.py --workload claim-suite --seed N --mode pass [--trace SPANS]
        ``symclass verify-paper --all`` in this fresh process, with a
        stopwatch on each claim; the CLI's report goes to stdout, followed by
        one JSON line with the exit code and claim times (and the per-layer
        metrics when traced)
    worker.py --workload W --seed N --mode run --seconds T [--passes P] [--trace SPANS]
        timed passes over the workload; prints one JSON line with each
        pass's time and inputs and the per-op results

With ``--trace`` the public API is wrapped before any input is built, and
the spans are written to SPANS when the work is done.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _claim_pass(trace_path) -> int:
    tracer = None
    if trace_path:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import symclass.cli as cli

    claim_s = []
    verify = cli.verify_claim

    def timed(claim, *args, **kwargs):
        t0 = time.perf_counter()
        verdict = verify(claim, *args, **kwargs)
        claim_s.append([verdict.claim, time.perf_counter() - t0])
        return verdict

    cli.verify_claim = timed
    code = cli.main(["verify-paper", "--all"])
    sys.stdout.flush()
    out = {"exit": code, "claim_s": claim_s, "write_s": 0.0}
    if tracer is not None:
        t0 = time.perf_counter()
        out["layers"] = tracing.layer_metrics(tracer)
        tracer.write_spans(trace_path)
        out["write_s"] = time.perf_counter() - t0
    print("\n" + json.dumps(out))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int)
    parser.add_argument("--trace")
    args = parser.parse_args()

    if args.workload == "claim-suite":
        if args.mode == "setup":
            import symclass.cli  # noqa: F401  (interpreter start + import is the set-up)
            return 0
        return _claim_pass(args.trace)

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads

    wl = workloads.make(args.workload, args.seed)
    if args.mode == "setup":
        return 0
    passes, ops = workloads.run(wl, args.seconds, args.passes, tracer)
    layers = None
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        tracer.write_spans(args.trace)
    # written piece by piece from the JSON text the run kept, so printing the
    # results does not raise the peak memory that run.py reports
    write = sys.stdout.write
    write('{"spec": %s, "layers": %s, "passes": ['
          % (json.dumps(getattr(wl, "ops", None)), json.dumps(layers)))
    for i, p in enumerate(passes):
        write('%s{"wall_s": %r, "ops": %d, "inputs": %s}'
              % ("," if i else "", p["wall_s"], p["ops"], p["inputs"]))
    write('], "ops": [')
    for i, op in enumerate(ops):
        write(("," if i else "") + op)
    write("]}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
