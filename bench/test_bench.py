"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from ops import accept  # noqa: E402
from tracing import COUNT_METRICS  # noqa: E402
from workloads import BUILDERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def tiny(name, workdir, seed=7):
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, workdir, tiny=True)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_round_emits_every_metric_and_nothing_fails(name, tmp_path):
    result = worker.untraced_result(tiny(name, tmp_path), seconds=0)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] == sum(len(v) for v in result["latencies_s"].values())
    metrics = run.end_to_end(result, [0.5])
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())


def test_wrong_expected_value_is_one_failed_operation(tmp_path):
    workload = tiny("tables", tmp_path)
    op = next(op for op in workload.ops if op.kind == "affine_torsor(2,3)")
    wrong = accept(op.kind, op.run, lambda t: t.set_size == 9)  # F_2^3 has 8 points
    raising = dataclasses.replace(op, run=lambda: 1 // 0)
    workload.ops = [wrong, raising] + workload.ops
    result = worker.untraced_result(workload, seconds=0)
    assert result["failed"] == 2
    assert result["attempted"] == len(workload.ops)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(name, tmp_path):
    first = worker.traced_result(tiny(name, tmp_path / "a"))
    second = worker.traced_result(tiny(name, tmp_path / "b"))
    assert first["failed"] == second["failed"] == 0
    assert {m["name"] for m in SPEC["per_layer"]} <= set(first["per_layer"])
    assert {k: first["per_layer"][k] for k in COUNT_METRICS} == {k: second["per_layer"][k] for k in COUNT_METRICS}


def test_tracer_leaves_no_wrapper_behind(tmp_path):
    import torsorkit
    from torsorkit import sheaves

    before = (torsorkit.build_group, sheaves.build_group, sheaves.is_sheaf)
    worker.traced_result(tiny("sheaves", tmp_path))
    assert (torsorkit.build_group, sheaves.build_group, sheaves.is_sheaf) == before


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
