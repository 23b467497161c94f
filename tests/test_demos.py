"""The demos that finish in seconds run as scripts against the current API.

Demo 05 trains its models for a couple of minutes and is run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo, expected",
    [
        ("01_dataset_and_format.py", "round-trip identical: True"),
        ("02_streams_and_geometry.py", "deterministic under a seed: True"),
        ("03_training.py", "kept epoch"),
        ("04_genetic_search.py", "elitism keeps best fitness non-decreasing: True"),
    ],
)
def test_demo_runs(demo, expected):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
