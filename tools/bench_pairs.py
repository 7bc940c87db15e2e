"""Paired sweepbench runs of a parent commit against this checkout.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload full_load --seed 1 \
        --pairs 10 --seconds 25 --out BENCH_14.json

Exports the parent ref with `git archive` into a temporary directory, then
runs each tree's sweepbench/run.py in alternating pairs, one run at a time:
odd pairs run the parent first, even pairs the change (this checkout's
working tree). Every run's metrics, and per metric the quartiles of each
side, the ratio of the medians (change / parent) and the number of pairs
the change wins in the direction BENCHMARK.json gives (ties win for
neither), go to the --out file under "trace<T>" / "<workload>/seed<N>".
Other entries of an existing --out file are kept, so one file can collect
several workloads and seeds. The temporary tree is removed at the end.

A run fails when it exits non-zero, when its output checks fail ("correct":
false) or when its output cannot be read: a last line that is not the
result JSON, or no "environment " line. A failed run stays in its pair, and
the session goes on. Failed runs are left out of the quartiles and the
wins, counted per side in the summary, and make the tool exit 1 once --out
is written.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"error: git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def export(ref: str, dest: Path) -> None:
    """The files of commit ref, without the repository, under dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_bench(tree: Path, argv):
    """One sweepbench run in tree: its metric values and correctness, and its environment.

    A run that exits non-zero, or whose output cannot be read, gives its
    exit code, the reason and the last 2000 characters of its stderr
    instead, and no environment.
    """
    proc = subprocess.run([sys.executable, "sweepbench/run.py", *argv], cwd=tree,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    error = "non-zero exit" if proc.returncode else None
    if not error:
        try:
            result = json.loads(lines[-1])
            env = next(json.loads(line[len("environment "):]) for line in lines
                       if line.startswith("environment "))
            return {"correct": result["correct"], "failed": result["failed"],
                    "attempted": result["attempted"],
                    "metrics": {name: m["value"] for name, m in result["metrics"].items()}}, env
        except (ValueError, LookupError, TypeError, AttributeError, StopIteration) as exc:
            error = repr(exc)
    return {"returncode": proc.returncode, "error": error, "stderr": proc.stderr[-2000:]}, None


def quartiles(values) -> list:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs, better: dict) -> dict:
    """Per metric: each side's quartiles, the median ratio and the change's wins.

    Only runs that finished with correct output count. The quartiles and
    the median ratio take each side's finished runs, the wins and "pairs"
    the pairs where both sides finished; "failed_runs" counts the failed
    runs of each side.
    """
    sides = ("parent", "change")
    done = {side: [p[side] for p in pairs if p[side].get("correct") is True] for side in sides}
    both = [p for p in pairs if all(p[side].get("correct") is True for side in sides)]
    summary = {"failed_runs": {side: len(pairs) - len(done[side]) for side in sides}}
    names = next((run["metrics"] for run in done["parent"] + done["change"]), {})
    for name in names:
        parent, change = ([run["metrics"][name] for run in done[side]] for side in sides)
        base = statistics.median(parent) if parent else None
        entry = {"parent_quartiles": quartiles(parent) if parent else None,
                 "change_quartiles": quartiles(change) if change else None,
                 "median_ratio": statistics.median(change) / base if base and change else None,
                 "pairs": len(both)}
        sign = {"higher": 1, "lower": -1}.get(better.get(name))
        if sign:
            entry["change_wins"] = sum(
                sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name]) > 0
                for p in both)
        summary[name] = entry
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--snapshots", type=int, default=None,
                        help="snapshots per sweep point (default: the workload's)")
    parser.add_argument("--out", required=True, help="JSON file to write or update")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    bench_argv = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.snapshots is not None:
        bench_argv += ["--snapshots", str(args.snapshots)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    parent_sha = git("rev-parse", args.parent)
    change = git("rev-parse", "HEAD") + (" with uncommitted changes"
                                          if git("status", "--porcelain") else "")

    pairs, env = [], None
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_tree = Path(tmp)
        export(parent_sha, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side], run_env = run_bench(trees[side], bench_argv)
                env = run_env or env
                print(f"pair {i + 1}/{args.pairs} {side}: "
                      + json.dumps(pair[side].get("metrics", pair[side]))[:200],
                      file=sys.stderr)
            pairs.append(pair)

    summary = summarize(pairs, better)
    out = Path(args.out)
    report = json.loads(out.read_text()) if out.exists() else {}
    report.setdefault(f"trace{args.trace}", {})[f"{args.workload}/seed{args.seed}"] = {
        "command": f"python3 sweepbench/run.py {' '.join(bench_argv)}",
        "parent": parent_sha, "change": change,
        "environment": env,
        "pairs": pairs,
        "summary": summary,
    }
    out.write_text(json.dumps(report, indent=1) + "\n")
    failed = summary["failed_runs"]
    if any(failed.values()):
        sys.exit(f"error: failed sweepbench runs (parent, change): "
                 f"{failed['parent']}, {failed['change']}; see {out}")


if __name__ == "__main__":
    main()
