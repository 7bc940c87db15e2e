"""The quick demos and the README's examples run against the public API."""

import hashlib
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


# the sha256 of each demo's stdout, less the lines that vary by machine:
# demo 02's ZF residual, ~1e-18, moves with the BLAS kernel, and demos 03
# and 04 say whether matplotlib saved their figure
DEMO_STDOUT_SHA256 = {
    "01_deployment_and_channel.py":
        "b95cd7e3ff8d52856b27afb1f0452ba056e3524f02d23cfd474be627c229528d",
    "02_precoding_walkthrough.py":
        "6ab38169099c9ae889b4dcde9a0e9d6db4d3da825ae61bcdba10c41509aa9cfc",
    "03_scheme_comparison.py":
        "2a5f3b6fabd35de7e0c0da65d5e9ecf3fea6f1b297357d02974f3b5b7f46c951",
    "04_delta_tradeoff.py":
        "0ab2aaae08631413cd725c59e91f54a302f04fe912d5959d55b49536b8e9d76b",
}
UNPINNED_LINES = ("max off-diagonal", "matplotlib not available", "figure saved to")


@pytest.mark.parametrize("demo", DEMO_STDOUT_SHA256)
def test_demo_runs(demo, tmp_path):
    stdout = run_fresh([str(DEMOS / demo)], tmp_path)
    kept = "".join(line for line in stdout.splitlines(keepends=True)
                   if not line.startswith(UNPINNED_LINES))
    assert hashlib.sha256(kept.encode()).hexdigest() == DEMO_STDOUT_SHA256[demo]


def test_readme_quick_start_runs(tmp_path):
    stdout = run_fresh(["-c", readme_block("python")], tmp_path)
    assert "Mbit/s" in stdout


def test_readme_config_loads(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(readme_block("json"))
    config = load_config(path)
    assert config.traffic.require_mixed_traffic is True
