"""The two quick demos run end to end against the package's public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dtddsim

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", ["01_deployment_and_channel.py",
                                  "02_precoding_walkthrough.py"])
def test_demo_runs(demo, tmp_path):
    # a fresh interpreter in an empty directory, as a user would run it
    src = os.path.dirname(os.path.dirname(dtddsim.__file__))
    out = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("=== ")
