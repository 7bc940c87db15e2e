"""Run the benchmark over several seeds and summarise each metric.

    python3 sweepbench/baseline.py --seeds 1-10 --out sweepbench/baseline.json

For every workload and seed, runs run.py for BENCHMARK.json's run_seconds
with tracing off, and records per metric the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median. The first TRACED_SEEDS seeds also get a traced run; the
per-layer table is the median over those.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
TRACED_SEEDS = 3


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: {result}")
    print(f"{workload} seed {seed} trace {trace}: " + ", ".join(
        f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
        if trace == 0), file=sys.stderr)
    return result


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main():
    from run import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    report = {"seeds": args.seeds, "traced_seeds": args.seeds[:TRACED_SEEDS],
              "seconds": RUN_SECONDS, "environment": None, "workloads": {}}
    for workload in sorted(WORKLOADS):
        e2e = [run(workload, seed, 0)["metrics"] for seed in args.seeds]
        layers = [run(workload, seed, 1)["metrics"]
                  for seed in args.seeds[:TRACED_SEEDS]]
        report["workloads"][workload] = {
            "end_to_end": {name: dict(unit=e2e[0][name]["unit"], **summarise(
                [m[name]["value"] for m in e2e])) for name in e2e[0]},
            "per_layer": {name: {"value": statistics.median(
                m[name]["value"] for m in layers), "unit": layers[0][name]["unit"]}
                for name in layers[0]} if layers else {},
        }
        result_file = HERE.parent / ".bench_out" / workload / "trace0" / "result.json"
        env = json.loads(result_file.read_text())["environment"]
        report["environment"] = {k: v for k, v in env.items()
                                 if k not in ("seed", "workers")}
        for name, s in report["workloads"][workload]["end_to_end"].items():
            print(f"{workload:<16} {name:<16} median {s['median']:.6g} "
                  f"spread {s['spread']}", file=sys.stderr)
    args.out.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
