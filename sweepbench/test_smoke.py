"""Smoke tests of the sweep benchmark at tiny sizes, and of its output checks.

    python3 -m pytest sweepbench/test_smoke.py

Not part of the package's test suite (pytest's testpaths is tests/), since
each benchmark run starts several interpreters.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(root, *args):
    return subprocess.run(
        [sys.executable, str(root / "sweepbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    # Any seed would do: 3 is simply not the reference seed (1), so these
    # runs rely only on the checks that hold for every seed.
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "0.1", "--trace", str(trace),
                     "--snapshots", "2")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "sweepbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import dtddsim
    finally:
        sys.path.remove(str(ROOT / "src"))
    out = tmp_path_factory.mktemp("sweep")
    config = dtddsim.SimulationConfig(utilizations=(0.5, 1.0),
                                      snapshots_per_point=3, master_seed=5)
    dtddsim.write_results(dtddsim.run_sweep(config), out)
    return out


def rewrite_row(out_dir, index, **fields):
    out = checks.Output(out_dir)
    out.rows[index].update(fields)
    with open(out_dir / "records.csv", "w") as fh:
        fh.write(",".join(out.rows[0]) + "\n")
        for row in out.rows:
            fh.write(",".join(row.values()) + "\n")


def test_checks_pass_on_a_real_sweep(sweep_dir):
    out = checks.Output(sweep_dir)
    assert len(out.rows) == 18
    assert not checks.record_problems(out)
    assert not checks.difference(out, checks.Output(sweep_dir))
    assert not checks.reference_problems(out, out.summary, 1e-9)


def test_checks_flag_bad_rates_and_jt_ds_mismatch(sweep_dir, tmp_path):
    shutil.copytree(sweep_dir, tmp_path, dirs_exist_ok=True)
    out = checks.Output(tmp_path)
    ds = next(i for i, r in enumerate(out.rows)
              if r["scheme"] == "jt_ds" and r["v_ul"] == "0")
    rewrite_row(tmp_path, 0, sum_rate_bps="-1")
    rewrite_row(tmp_path, ds, dl_sum_rate_bps="1")
    bad = checks.record_problems(checks.Output(tmp_path))
    assert 0 in bad and ds in bad
    assert checks.difference(checks.Output(sweep_dir),
                             checks.Output(tmp_path)) == {0, ds}


def test_reference_tolerance(sweep_dir):
    out = checks.Output(sweep_dir)
    near = [dict(e, mean_sum_rate_bps=e["mean_sum_rate_bps"] * (1 + 1e-12))
            for e in out.summary]
    assert not checks.reference_problems(out, near, 1e-9)
    far = [dict(e) for e in out.summary]
    far[0]["mean_sum_rate_bps"] *= 1 + 1e-6
    assert checks.reference_problems(out, far, 1e-9) == out.rows_of_point(
        far[0]["scheme"], far[0]["utilization"])


def test_difference_with_another_row_count_is_every_row(sweep_dir, tmp_path):
    shutil.copytree(sweep_dir, tmp_path, dirs_exist_ok=True)
    lines = (tmp_path / "records.csv").read_text().splitlines(keepends=True)
    (tmp_path / "records.csv").write_text("".join(lines + lines[1:3]))
    out = checks.Output(sweep_dir)
    assert checks.difference(out, checks.Output(tmp_path)) == set(
        range(len(out.rows)))


def test_verdict_charges_each_differing_sweep_its_own_rows(sweep_dir, tmp_path):
    outputs = run.Outputs()
    outputs.add(sweep_dir)
    for index in (0, 1):
        out_dir = tmp_path / str(index)
        shutil.copytree(sweep_dir, out_dir)
        rewrite_row(out_dir, index, sum_rate_bps="1")
        outputs.add(out_dir)
    attempted, failed, correct, _ = outputs.verdict(None)
    assert (attempted, failed, correct) == (3 * 18, 2, False)


def test_zero_calls_fail_only_where_the_function_should_run():
    tracer = spans.Tracer()
    tracer.spans = [(name, 0.0, 1e-6, -1) for name in spans.FUNCTIONS
                    if name != "precoding.select_uplink_bs"]
    metrics = spans.layer_metrics([tracer], [1.0], uplink_selected=False)
    assert metrics["precoding.select_uplink_bs.calls"] == (0, "count")
    with pytest.raises(RuntimeError, match="select_uplink_bs"):
        spans.layer_metrics([tracer], [1.0], uplink_selected=True)
    tracer.spans = [s for s in tracer.spans if s[0] != "metrics.aggregate"]
    with pytest.raises(RuntimeError, match="aggregate"):
        spans.layer_metrics([tracer], [1.0], uplink_selected=False)
