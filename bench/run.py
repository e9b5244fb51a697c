"""torsorkit benchmark: one seeded workload, closed loop, one client.

    python3 bench/run.py --workload {tables,sheaves,cocycles,cli} --seed N
                         --seconds S --trace {0,1}

Run from a checkout root that holds ``src/torsorkit``; nothing is built.
Each run starts fresh worker processes (``worker.py``) so that set-up
time and peak RSS belong to this workload alone:

* ``--trace 0``: ``SETUP_PROBES`` workers only set up, then one more
  sets up and runs whole rounds of operations for ``--seconds``. The
  end-to-end metrics of ``BENCHMARK.json`` are printed; ``setup_s`` is
  the median over all of these workers, each timed from spawn to its
  ``ready`` line.
* ``--trace 1``: one worker runs a fixed number of rounds untraced and
  then the same rounds with every public torsorkit function wrapped
  (``tracing.py``); the per-layer metrics come from the traced pass and
  ``trace.overhead`` is its busy time over the untraced pass's.

Operation latencies, ``ops_per_s`` and ``setup_s`` are normalized to
the host's momentary speed with a reference kernel (see ``ops.py``),
timed before each operation and at the end of each set-up; the median
slowdown is printed with each run. ``peak_rss_mb`` and the per-layer
times are raw. The run pins itself, and so its workers, to one CPU.

Every line but the last is for people: each metric with its unit and
sample count, in traced runs calls and self time per wrapped function,
then the run's provenance. The last line is the JSON result:
``correct``, ``attempted``, ``failed`` and ``metrics``.
Files go to ``.bench_work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from ops import REFERENCE_S  # noqa: E402

SETUP_PROBES = 4      # set-up-only workers per run, besides the measuring one
DEADLINE_S = 170.0    # the whole run, workers included, ends before this


class BenchError(Exception):
    pass


class Worker:
    """One ``worker.py`` process; killed at the run's deadline if still alive."""

    def __init__(self, args, workdir: Path, deadline: float, extra=()):
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--workdir", str(workdir), *extra,
        ]
        spawned = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(0.0, deadline - spawned), self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline().split()
        wall = time.monotonic() - spawned
        if len(line) != 2 or line[0] != "ready":
            self.finish()
            raise BenchError(f"worker did not get ready (exit code {self.proc.returncode})")
        self.setup_s = wall * REFERENCE_S / float(line[1])  # normalized like the latencies

    def finish(self) -> str:
        try:
            out = self.proc.stdout.read()
            code = self.proc.wait()
        finally:
            self.timer.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
        return out


def end_to_end(result: dict, setups: list[float]) -> dict:
    """name -> (value, sample count)"""
    latencies = result["latencies_s"]
    out = {
        "ops_per_s": (result["attempted"] / sum(map(sum, latencies.values())), result["attempted"]),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
    }
    for verdict in ("accept", "reject"):
        ms = [1000.0 * s for s in latencies[verdict]]
        out[f"{verdict}_p50_ms"] = (statistics.median(ms), len(ms))
        out[f"{verdict}_p90_ms"] = (statistics.quantiles(ms, n=10)[-1], len(ms))
    return out


def provenance(args, mix: dict) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "mix": mix, "python": platform.python_version(), "numpy": numpy_version, "nproc": os.cpu_count(),
    }


def run(args, spec: dict) -> dict:
    # Workers and their children inherit this: the reference kernel must run on the CPU the
    # operations run on, and the CPUs of a shared host change speed independently.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                probe = Worker(args, work / f"probe{i}", deadline, ["--setup-only"])
                probe.finish()
                setups.append(probe.setup_s)
        main = Worker(args, work / "run", deadline, ["--trace"] if args.trace else [])
        setups.append(main.setup_s)
        result = json.loads(main.finish().strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if args.trace:
        values = {name: (result["per_layer"][name], 1) for name in units}
    else:
        values = end_to_end(result, setups)
    for line in result["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    for name, unit in units.items():
        value, samples = values[name]
        print(f"{name:38s} {value:>16.6f} {unit:6s} samples={samples}")
    functions = sorted(result.get("functions", {}).items(), key=lambda kv: -kv[1][1])
    for name, (calls, self_s) in functions:
        print(f"span {name:44s} calls={calls:<9d} self_s={self_s:.6f}")
    if "slowdowns" in result:
        print(f"host slowdown against the reference speed: median {statistics.median(result['slowdowns']):.3f}")
    print("provenance " + json.dumps(provenance(args, result["mix"]), sort_keys=True))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name][0], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "torsorkit" / "__init__.py").is_file():
        print(f"error: no torsorkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args, spec)
    except (BenchError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
