"""Smoke test: each workload at the tiny scale, untraced and traced.

Run with ``python -m pytest perfbench/test_smoke.py`` from the repository
root; it takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", "--scale", "tiny", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_reports_every_metric(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "5", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "check  FAIL" not in proc.stdout


def test_same_seed_same_digest():
    first = run(ROOT, "--workload", "decode", "--seed", "6")
    second = run(ROOT, "--workload", "decode", "--seed", "6")
    assert first.returncode == 0 and second.returncode == 0, second.stdout + second.stderr
    assert "matches an earlier run with seed 6" in second.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", "word", "--seed", "0", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
