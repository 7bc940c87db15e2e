"""The quick demos and the README's examples run against the public API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dtddsim
from dtddsim.cli import load_config

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def run_fresh(args, cwd):
    """Run python with args in a fresh interpreter in cwd, as a user would.

    numpy's NaN and inf warnings are errors, as in the test suite.
    """
    src = os.path.dirname(os.path.dirname(dtddsim.__file__))
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                         cwd=cwd, capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    return out.stdout


def readme_block(language):
    """The one fenced code block of the given language in README.md."""
    blocks = re.findall(rf"^```{language}\n(.*?)^```$",
                        (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


@pytest.mark.parametrize("demo", ["01_deployment_and_channel.py",
                                  "02_precoding_walkthrough.py"])
def test_demo_runs(demo, tmp_path):
    assert run_fresh([str(DEMOS / demo)], tmp_path).startswith("=== ")


def test_readme_quick_start_runs(tmp_path):
    stdout = run_fresh(["-c", readme_block("python")], tmp_path)
    assert "Mbit/s" in stdout


def test_readme_config_loads(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(readme_block("json"))
    config = load_config(path)
    assert config.traffic.require_mixed_traffic is True
