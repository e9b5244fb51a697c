"""One workload in one fresh process: set up, signal ready, run the closed loop.

Started by ``run.py``, which times set-up from this process's spawn to
the ``ready`` line; that line carries the reference kernel's time over
set-up (see ``ops.py``). The result is the last stdout line, as JSON.

    python3 bench/worker.py --workload W --seed N --workdir DIR
        [--seconds S] [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

from ops import Tally, reference_time, run_op, run_rounds

ROOT = Path(__file__).resolve().parents[1]
TRACE_ROUNDS = 1  # fixed, so the traced run's counts repeat exactly for a seed


def peak_rss_mb(cli: bool) -> float:
    # for cli the library runs in the children; ru_maxrss is the largest one waited for
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def untraced_result(workload, seconds: float) -> dict:
    tally = Tally()
    run_rounds(workload.ops, tally, seconds=seconds)
    return {
        "latencies_s": tally.latencies,
        "slowdowns": tally.slowdowns,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "peak_rss_mb": peak_rss_mb(workload.cli is not None),
    }


def busy_s(tally) -> float:
    return sum(map(sum, tally.latencies.values()))


def traced_result(workload) -> dict:
    """The same rounds untraced, then traced; per-layer metrics come from the traced pass."""
    from tracing import Tracer  # only traced runs load the tracer

    plain = Tally()
    run_rounds(workload.ops, plain, rounds=TRACE_ROUNDS)
    tracer = Tracer()
    traced = Tally()
    if workload.cli is not None:
        workload.cli.tracer = tracer
    else:
        tracer.install()
    try:
        run_rounds(workload.ops, traced, rounds=TRACE_ROUNDS)
    finally:
        tracer.uninstall()
        if workload.cli is not None:
            workload.cli.tracer = None
    per_layer = tracer.metrics()
    # normalized busy time, so host speed drift between the two passes cancels
    per_layer["trace.overhead"] = busy_s(traced) / busy_s(plain)
    per_layer["trace.spans"] = len(tracer.spans)
    calls, self_s = tracer.self_times()
    return {
        "per_layer": per_layer,
        "functions": {name: [calls[name], self_s[name]] for name in calls if "." in name},
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "failures": plain.failures + traced.failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import BUILDERS, mix  # imports torsorkit from src

    ref_start = reference_time()
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = BUILDERS[args.workload](args.seed, args.workdir)
    for op in workload.warmup:
        run_op(op)
    # the host's speed over set-up, for normalizing set-up time like the latencies
    print("ready", (ref_start + reference_time()) / 2, flush=True)
    if args.setup_only:
        return 0

    result = traced_result(workload) if args.trace else untraced_result(workload, args.seconds)
    result["mix"] = mix(workload.ops)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
