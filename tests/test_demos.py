"""The demos that finish in seconds run as scripts against the current API.

Demos 03-05 train models and are run by hand.
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
