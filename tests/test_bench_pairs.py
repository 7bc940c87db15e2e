"""tools/bench_pairs.py's reading and summary of runs, on stubs and synthetic pairs.

No benchmark runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run(rate, rss):
    return {"correct": True, "failed": 0, "attempted": 10,
            "metrics": {"snapshots_per_s": rate, "peak_rss_mb": rss}}


FAILED = {"returncode": 1, "stderr": "RuntimeError: traced root spans cover ..."}


def test_failed_runs_are_counted_and_left_out_of_quartiles_and_wins():
    pairs = [{"first": "parent", "parent": run(100.0, 40.0), "change": run(130.0, 41.0)},
             {"first": "change", "parent": run(110.0, 40.0), "change": FAILED},
             {"first": "parent", "parent": run(90.0, 42.0), "change": run(120.0, 40.0)},
             {"first": "change", "parent": run(105.0, 40.0), "change": run(100.0, 40.0)}]
    summary = bench_pairs.summarize(pairs, {"snapshots_per_s": "higher",
                                            "peak_rss_mb": "lower"})
    assert summary["failed_runs"] == {"parent": 0, "change": 1}
    rate = summary["snapshots_per_s"]
    assert rate["parent_quartiles"] == [97.5, 102.5, 106.25]  # all four parent runs
    assert rate["change_quartiles"] == [110.0, 120.0, 125.0]   # the three that finished
    assert rate["median_ratio"] == 120.0 / 102.5
    # the pair with the failed run is neither a win nor a loss
    assert (rate["pairs"], rate["change_wins"]) == (3, 2)
    rss = summary["peak_rss_mb"]
    assert (rss["pairs"], rss["change_wins"]) == (3, 1)


def test_summary_of_all_failed_runs_only_counts_them():
    pairs = [{"first": "parent", "parent": FAILED, "change": FAILED}]
    assert bench_pairs.summarize(pairs, {}) == {"failed_runs": {"parent": 1, "change": 1}}


def test_incorrect_runs_are_counted_as_failed():
    incorrect = dict(run(500.0, 10.0), correct=False)
    pairs = [{"first": "parent", "parent": run(100.0, 40.0), "change": run(130.0, 41.0)},
             {"first": "change", "parent": run(110.0, 40.0), "change": incorrect}]
    summary = bench_pairs.summarize(pairs, {"snapshots_per_s": "higher"})
    assert summary["failed_runs"] == {"parent": 0, "change": 1}
    rate = summary["snapshots_per_s"]
    assert rate["change_quartiles"] == [130.0] * 3
    assert (rate["pairs"], rate["change_wins"]) == (1, 1)


RESULT = json.dumps({"correct": True, "failed": 0, "attempted": 4,
                     "metrics": {"snapshots_per_s": {"value": 12.5, "unit": "1/s"}}})


@pytest.mark.parametrize("stdout, finished", [
    (f'environment {{"cpu": "x"}}\n{RESULT}\n', True),
    (f'environment {{"cpu": "x"}}\n{RESULT}\nTraceback ...\n', False),
    (f"{RESULT}\n", False),
    ("", False),
], ids=["readable", "last_line_not_json", "no_environment_line", "no_output"])
def test_unreadable_runs_fail_without_raising(tmp_path, stdout, finished):
    # a stub sweepbench/run.py that prints the given output and exits 0
    (tmp_path / "sweepbench").mkdir()
    (tmp_path / "sweepbench" / "run.py").write_text(f"print({stdout!r}, end='')\n")
    result, env = bench_pairs.run_bench(tmp_path, [])
    if finished:
        assert env == {"cpu": "x"} and result["metrics"] == {"snapshots_per_s": 12.5}
    else:
        assert env is None and result["returncode"] == 0 and result["error"]
        pairs = [{"first": "parent", "parent": run(100.0, 40.0), "change": result}]
        assert bench_pairs.summarize(pairs, {})["failed_runs"] == {"parent": 0, "change": 1}
