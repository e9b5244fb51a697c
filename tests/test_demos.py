"""Every narrative demo runs to completion and prints its golden output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden"


def test_all_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo, update_goldens):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    golden = GOLDEN / f"demo_{demo.stem}.txt"
    if update_goldens:
        golden.write_text(res.stdout, encoding="utf-8")
    assert golden.exists(), f"missing golden {golden.name}; run pytest --update-goldens"
    assert res.stdout == golden.read_text(encoding="utf-8")
