"""Sweep benchmark for dtddsim: end-to-end throughput, set-up and memory,
or (with --trace 1) per-layer times from a traced sweep.

    python3 sweepbench/run.py --workload light_load --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy. Each workload is one fixed sweep
configuration that the benchmark calls repeatedly, one call at a time,
through the public run_sweep and write_results (a closed loop from a single
process). The seed is passed to the sweep as master_seed, so the same seed
gives the same sweep. Outputs, spans and a result file go to ./.bench_out.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See README.md for the
workloads and the metrics.
"""

import os

# Pinned before numpy is first imported, here and in every child process.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

PAPER_GRID = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)
# Why each workload exists is recorded in README.md.
WORKLOADS = {
    "light_load": {"utilizations": (0.125, 0.25), "snapshots": 200, "workers": 1},
    "full_load": {"utilizations": (0.875, 1.0), "snapshots": 100, "workers": 1},
    "paper_sweep_2w": {"utilizations": PAPER_GRID, "snapshots": 50, "workers": 2},
}
MIN_SWEEPS = 3   # timed sweeps per run, however short --seconds is
SETUP_RUNS = 15  # fresh interpreters timed for setup_s
SETUP_TIMEOUT_S = 60
# traced root spans vs the wall time around them: 1 %, but at least 1 ms,
# since the calls between and after the root spans take tens of us and a
# tiny smoke-size sweep lasts only a few ms
ROOT_TIME_TOL = 0.01
ROOT_TIME_TOL_S = 1e-3
CALIBRATION_ITERS = 250
# Reference durations on the machine the baseline was taken on (2-vCPU Intel
# Xeon VM, Python 3.11.7, numpy 2.4.6): the median wall time of
# calibration_seconds() and of a fresh interpreter running REFERENCE_IMPORTS.
CALIBRATION_REF_S = 0.040
REFERENCE_IMPORTS_REF_S = 0.120
# Standard-library modules only, so that dropping a dependency of dtddsim
# shows in setup_s in full.
REFERENCE_IMPORTS = ("import argparse, asyncio, concurrent.futures, csv, decimal, "
                     "email.mime.multipart, http.server, logging.handlers, "
                     "sqlite3, ssl, tarfile, unittest, xml.dom.minidom, zipfile")


def import_package():
    """Import dtddsim from ./src of this checkout, or exit non-zero."""
    if not (SRC / "dtddsim" / "__init__.py").is_file():
        sys.exit(f"error: no dtddsim sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import dtddsim
    import dtddsim.harness  # noqa: F401
    if Path(dtddsim.__file__).resolve().parent != SRC / "dtddsim":
        sys.exit(f"error: imported dtddsim from {dtddsim.__file__}, not {SRC}")
    return dtddsim


def config_kwargs(spec, seed, snapshots, workers):
    return {"n_bs": 16, "schemes": ("baseline", "jt", "jt_ds"), "delta": 0,
            "utilizations": spec["utilizations"],
            "snapshots_per_point": snapshots, "master_seed": seed,
            "worker_count": workers}


def sweep(run_sweep, write_results, config, out_dir):
    """Wall seconds of one run_sweep + write_results call."""
    start = perf_counter()
    write_results(run_sweep(config), out_dir)
    return perf_counter() - start


def calibration_seconds():
    """Wall time of a fixed loop with the sweep's kind of work, without
    dtddsim: per pass, six nearest-point draws on a 4x4 grid, one small
    complex SVD, and Python-level sorting of a few values."""
    rng = np.random.default_rng(0)
    grid = np.array([[x * 10.0 + 5.0, y * 10.0 + 5.0]
                     for y in range(4) for x in range(4)])
    m = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
    acc = 0.0
    start = perf_counter()
    for _ in range(CALIBRATION_ITERS):
        nearest = set()
        for _ in range(6):
            dist = np.linalg.norm(grid - rng.uniform(0.0, 40.0, size=2), axis=1)
            nearest.add(int(np.argmin(np.log10(np.clip(dist, 3.0, 100.0)))))
        gains = np.abs(m) ** 2
        acc += len(nearest) + float(np.linalg.svd(m, full_matrices=False)[1][0])
        acc += float(gains.sum(axis=1).max())
        acc += sorted((float(g), j) for j, g in enumerate(gains[0]))[0][0]
    elapsed = perf_counter() - start
    if not acc > 0.0:
        raise RuntimeError("calibration loop gave a wrong result")
    return elapsed


def run_child(code, env=None):
    """Standard output of a fresh interpreter running code.

    Waits for the child with a blocking wait: subprocess's own timeout
    polls in steps of up to 50 ms, which would round the child's wall time
    up to those steps. A watchdog kills a child that runs longer than
    SETUP_TIMEOUT_S.
    """
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            stdout, _ = proc.communicate()
        finally:
            watchdog.cancel()
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return stdout


def reference_imports_seconds():
    """Wall time of a fresh interpreter importing REFERENCE_IMPORTS."""
    start = perf_counter()
    run_child(REFERENCE_IMPORTS)
    return perf_counter() - start


class ScaledTimer:
    """Times calls, each between two runs of a fixed reference task.

    The machine's speed drifts by up to 2x over tens of seconds, and the
    reference task drifts with it. walls holds the raw wall times; scaled
    holds wall * reference_s / mean(reference run before, after): the time
    at the speed where the reference task takes reference_s.
    """

    def __init__(self, reference, reference_s):
        self.reference, self.reference_s = reference, reference_s
        self.walls, self.scaled = [], []
        self.references = [reference()]

    def time(self, call, *args, **kwargs):
        start = perf_counter()
        result = call(*args, **kwargs)
        wall = perf_counter() - start
        self.references.append(self.reference())
        self.walls.append(wall)
        self.scaled.append(wall * self.reference_s
                           / statistics.mean(self.references[-2:]))
        return result


class Outputs:
    """Output directories of sweeps of one configuration.

    Each is compared with the first by digest; identical ones are deleted
    as they come, differing ones kept for the row-level comparison.
    """

    def __init__(self):
        self.first = None
        self.digests = None
        self.identical = 0
        self.differing = []

    def add(self, out_dir):
        digests = checks.sha256(out_dir)
        if self.first is None:
            self.first, self.digests = out_dir, digests
        elif digests == self.digests:
            shutil.rmtree(out_dir)
        else:
            self.differing.append(out_dir)
            return
        self.identical += 1

    def verdict(self, reference):
        """(attempted, failed, correct, canonical Output) over every sweep.

        An evaluation fails when the program flagged it failed=1, when it
        breaks a record invariant or the reference, or when it differs from
        the first sweep's.
        """
        out = checks.Output(self.first)
        problems = checks.record_problems(out)
        if reference is not None:
            problems |= checks.reference_problems(out, reference["summary"],
                                                  reference["rel_tol"])
        bad = problems | checks.failed_rows(out)
        failed = self.identical * len(bad)
        for out_dir in self.differing:
            failed += len(bad | checks.difference(out, checks.Output(out_dir)))
        attempted = len(out.rows) * (self.identical + len(self.differing))
        correct = not problems and not self.differing
        return attempted, failed, correct, out


def traced_sweep(dtddsim, config, out_dir):
    """(wall seconds, Tracer) of one sweep with every layer function wrapped."""
    tracer = spans.Tracer()
    harness = dtddsim.harness
    with spans.installed(tracer, dtddsim):
        wall = sweep(tracer.wrap("harness.run_sweep", harness.run_sweep),
                     tracer.wrap("harness.write_results", harness.write_results),
                     config, out_dir)
    if abs(tracer.root_time() - wall) > max(ROOT_TIME_TOL * wall,
                                             ROOT_TIME_TOL_S):
        raise RuntimeError(f"traced root spans cover {tracer.root_time():.6f} s "
                           f"of a {wall:.6f} s sweep")
    return wall, tracer


def peak_rss_mb():
    """Largest max RSS of this process and of its waited-for children."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def setup_seconds(kwargs):
    """Median scaled wall time of fresh interpreters that import dtddsim and
    build the workload's config."""
    code = ("import dtddsim\n"
            f"dtddsim.SimulationConfig(**{kwargs!r})\n"
            "print(dtddsim.__file__)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timer = ScaledTimer(reference_imports_seconds, REFERENCE_IMPORTS_REF_S)
    for _ in range(SETUP_RUNS):
        imported = timer.time(run_child, code, env).strip()
        if Path(imported).resolve().parent != SRC / "dtddsim":
            raise RuntimeError(f"set-up imported {imported}")
    return statistics.median(timer.scaled), timer


def measure_end_to_end(dtddsim, kwargs, seconds, out):
    """Throughput over repeated sweeps, then memory, checks and set-up."""
    harness = dtddsim.harness
    config = dtddsim.SimulationConfig(**kwargs)
    n_snapshots = len(config.utilizations) * config.snapshots_per_point
    sweep(harness.run_sweep, harness.write_results, config, out / "warmup")
    outputs = Outputs()
    timer = ScaledTimer(calibration_seconds, CALIBRATION_REF_S)
    start = perf_counter()
    while len(timer.walls) < MIN_SWEEPS or perf_counter() - start < seconds:
        out_dir = out / f"sweep{len(timer.walls)}"
        timer.time(sweep, harness.run_sweep, harness.write_results, config,
                   out_dir)
        outputs.add(out_dir)
    rss = peak_rss_mb()
    # the same sweep on one worker with tracing on must give the same bytes
    one_worker = dtddsim.SimulationConfig(**dict(kwargs, worker_count=1))
    traced_dir = out / "traced"
    traced_sweep(dtddsim, one_worker, traced_dir)
    outputs.add(traced_dir)
    setup_s, setup_timer = setup_seconds(kwargs)
    metrics = {
        "snapshots_per_s": (statistics.median(
            n_snapshots / t for t in timer.scaled), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    timing = {"sweeps": len(timer.walls), "sweep_s": timer.walls,
              "sweep_scaled_s": timer.scaled,
              "calibration_s": timer.references,
              "wall_snapshots_per_s": statistics.median(
                  n_snapshots / t for t in timer.walls),
              "setup_wall_s": setup_timer.walls,
              "setup_reference_s": setup_timer.references}
    return metrics, outputs, timing


def measure_layers(dtddsim, config, seconds, out):
    """Alternating untraced and traced sweeps on one worker."""
    harness = dtddsim.harness
    sweep(harness.run_sweep, harness.write_results, config, out / "warmup")
    outputs, plain, traced, tracers = Outputs(), [], [], []
    start = perf_counter()
    while len(traced) < MIN_SWEEPS or perf_counter() - start < seconds:
        out_dir = out / f"plain{len(plain)}"
        plain.append(sweep(harness.run_sweep, harness.write_results, config,
                           out_dir))
        outputs.add(out_dir)
        out_dir = out / f"traced{len(traced)}"
        wall, tracer = traced_sweep(dtddsim, config, out_dir)
        traced.append(wall)
        tracers.append(tracer)
        outputs.add(out_dir)
    spans.write_spans(tracers, out / "spans.csv")
    uplink_selected = any(row["scheme"] == "jt_ds" and row["v_ul"] != "0"
                          for row in checks.Output(outputs.first).rows)
    metrics = spans.layer_metrics(tracers, traced, uplink_selected)
    # pairs run back to back, so their ratio is steadier than whole medians
    metrics["trace.overhead_frac"] = (statistics.median(
        t / p for t, p in zip(traced, plain)) - 1.0, "ratio")
    return metrics, outputs, {"sweeps": len(traced), "plain_s": plain,
                              "traced_s": traced}


def load_reference(workload, seed, snapshots):
    """Pinned summary for the default seed and size, else None."""
    with open(HERE / "reference.json") as fh:
        ref = json.load(fh)
    if seed != ref["seed"] or snapshots != WORKLOADS[workload]["snapshots"]:
        return None
    return {"summary": ref["summaries"][workload], "rel_tol": ref["rel_tol"]}


def environment(seed, workers):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        **{name: os.environ.get(name) for name in BLAS_THREADS},
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed sweeps run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--snapshots", type=int, default=None,
                        help="snapshots per sweep point (default: the "
                             "workload's; smaller for a smoke run)")
    args = parser.parse_args(argv)
    if args.snapshots is not None and args.snapshots < 1:
        parser.error("--snapshots must be >= 1")

    dtddsim = import_package()
    spec = WORKLOADS[args.workload]
    snapshots = args.snapshots or spec["snapshots"]
    workers = min(spec["workers"], len(os.sched_getaffinity(0)))
    kwargs = config_kwargs(spec, args.seed, snapshots, workers)
    out = OUT / args.workload / f"trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    if args.trace:
        one_worker = dtddsim.SimulationConfig(**dict(kwargs, worker_count=1))
        metrics, outputs, timing = measure_layers(dtddsim, one_worker,
                                                  args.seconds, out)
    else:
        metrics, outputs, timing = measure_end_to_end(dtddsim, kwargs,
                                                      args.seconds, out)
    reference = load_reference(args.workload, args.seed, snapshots)
    attempted, failed, correct, canonical = outputs.verdict(reference)
    if args.trace:
        v_ul = [int(r["v_ul"]) for r in canonical.rows if r["scheme"] == "jt_ds"]
        metrics["precoding.v_ul_mean"] = (statistics.mean(v_ul), "count")
    else:
        metrics["ok_frac"] = (1.0 - failed / attempted, "ratio")

    env = environment(args.seed, workers)
    report = {
        "workload": args.workload, "trace": args.trace,
        "snapshots_per_point": snapshots, "environment": env,
        "reference_checked": reference is not None,
        "sha256": outputs.digests, "timing": timing,
        "attempted": attempted, "failed": failed, "correct": correct,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(out / "result.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    print(f"workload {args.workload}, trace {args.trace}, "
          f"{len(kwargs['utilizations'])} points x {snapshots} snapshots, "
          f"reference {'checked' if reference else 'not checked'}")
    print("environment " + json.dumps(env))
    for name, digest in outputs.digests.items():
        print(f"sha256 {name} {digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<45} {value:.6g} {unit}")
    print(f"{'failed_frac':<45} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} scheme evaluations)")
    if not correct:
        print("error: output checks failed, see " + str(out / "result.json"),
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": report["metrics"]}))


if __name__ == "__main__":
    main()
