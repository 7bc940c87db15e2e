"""Full-precision sweep output of a parent commit against this checkout.

    python3 tools/bits_diff.py --parent HEAD
    NPY_DISABLE_CPU_FEATURES="X86_V4" python3 tools/bits_diff.py --parent HEAD

Exports the parent ref with `git archive` into a temporary directory and
runs a fixed list of sweep configurations in it and in this checkout's
working tree (or in a second export, with --change), each tree in one
subprocess that imports dtddsim from its own src/. The list is the seven
configurations tests/test_golden.py pins, the three benchmark workloads'
grids at delta 0 and 2, the paper grid again at delta 0 and 2 on a process
pool of 2 workers, so that the pool's chunk cut and the chunks its workers
evaluate are compared too, and two sweeps on the master seed 2**64 + 3,
whose stream keys hash three uint32 seed words where the other
configurations' seeds hash one: at delta 2 on one worker, and on a pool of
2 workers. Per configuration it compares the record tables bit for bit,
the bytes records.tobytes() holds, which the 12-digit records.csv rounds
away, and prints the number of rows that differ, the columns they differ
in and the largest relative difference.

Both trees' subprocesses inherit this process's environment, so a setting
such as OPENBLAS_CORETYPE or NPY_DISABLE_CPU_FEATURES compares like with
like under another BLAS kernel or numpy SIMD dispatch level. Exits 1 if any
configuration differs.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_pairs import ROOT, export, git

PAPER_GRID = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)
GOLDEN = {"snapshots_per_point": 100, "master_seed": 2026}
CONFIGS = {
    "golden": dict(GOLDEN, utilizations=(0.5, 1.0), snapshots_per_point=200),
    "golden_delta_2": dict(GOLDEN, delta=2, utilizations=(0.125, 0.375, 0.75)),
    "golden_unmixed_p0.9": dict(GOLDEN, utilizations=(0.25, 1.0), traffic=dict(
        dl_probability=0.9, require_mixed_traffic=False)),
    "golden_unmixed_p0.1": dict(GOLDEN, utilizations=(0.25, 1.0), traffic=dict(
        dl_probability=0.1, require_mixed_traffic=False)),
    "golden_9_bs": dict(GOLDEN, n_bs=9, area_side=30.0, delta=1, utilizations=(0.4, 1.0)),
    "golden_25_bs": dict(GOLDEN, n_bs=25, area_side=50.0, utilizations=(0.2, 0.6),
                         snapshots_per_point=60),
    "golden_jt_ds_only": dict(GOLDEN, schemes=("jt_ds",), utilizations=(0.5,)),
    # the benchmark workloads' grids and seed; the paper grid at 100
    # snapshots per point, the default grid's 8 x 100 full-precision check
    **{f"{name}_delta_{delta}": dict(utilizations=grid, snapshots_per_point=snapshots,
                                     master_seed=1, delta=delta)
       for name, grid, snapshots in (("light_load", (0.125, 0.25), 200),
                                     ("full_load", (0.875, 1.0), 100),
                                     ("paper_grid", PAPER_GRID, 100))
       for delta in (0, 2)},
    # the same paper grids on a pool of 2: its chunk cut and its workers
    **{f"paper_grid_delta_{delta}_2w": dict(utilizations=PAPER_GRID, snapshots_per_point=100,
                                            master_seed=1, delta=delta, worker_count=2)
       for delta in (0, 2)},
    # a seed of three uint32 words, so that its words past the first key the streams too
    "big_seed_delta_2": dict(utilizations=(0.25, 0.75), snapshots_per_point=100,
                             master_seed=2**64 + 3, delta=2),
    "big_seed_2w": dict(utilizations=PAPER_GRID, snapshots_per_point=50,
                        master_seed=2**64 + 3, worker_count=2),
}

# run in each tree: every configuration's record table, into one .npz
RUNNER = """
import json, sys
import numpy as np
import dtddsim
from dtddsim import SimulationConfig, TrafficConfig, run_sweep
configs, src, out = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
if not dtddsim.__file__.startswith(src):
    sys.exit(f"imported dtddsim from {dtddsim.__file__}, not {src}")
tables = {}
for name, kwargs in configs.items():
    if "traffic" in kwargs:
        kwargs["traffic"] = TrafficConfig(**kwargs["traffic"])
    tables[name] = np.asarray(run_sweep(SimulationConfig(**kwargs)).records)
np.savez(out, **tables)
"""


def run_configs(tree: Path, configs: dict, out: Path) -> dict:
    """Each configuration's record table, swept by the dtddsim of tree/src."""
    src = tree / "src"
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, json.dumps(configs), str(src), str(out)],
        cwd=tree, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"error: the sweeps in {tree} failed:\n{proc.stderr[-2000:]}")
    with np.load(out) as tables:
        return {name: tables[name] for name in configs}


def compare(parent: np.ndarray, change: np.ndarray) -> dict:
    """The rows and columns where two record tables differ, and by how much.

    Floats compare by their bits, so NaN equals NaN and -0.0 differs from
    0.0. "max_rel" is the largest |change - parent| / |parent| over the
    float cells that differ and are finite on both sides: inf against a
    parent 0, and none from a zero against a zero of the other sign.
    Tables of different dtypes or lengths differ in every row.
    """
    if parent.dtype != change.dtype or parent.shape != change.shape:
        return {"rows": list(range(max(len(parent), len(change)))),
                "columns": ["<dtype or length>"], "max_rel": float("nan")}
    differ = np.zeros(len(parent), bool)
    columns, max_rel = [], 0.0
    for name in parent.dtype.names:
        a, b = np.ascontiguousarray(parent[name]), np.ascontiguousarray(change[name])
        if a.dtype.kind == "f":
            cells = a.view(f"u{a.itemsize}") != b.view(f"u{b.itemsize}")
            finite = cells & np.isfinite(a) & np.isfinite(b)
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.abs(b[finite] - a[finite]) / np.abs(a[finite])
            max_rel = float(np.fmax.reduce(rel, initial=max_rel))  # skips 0 / 0
        else:
            cells = a != b
        if cells.any():
            columns.append(name)
            differ |= cells
    return {"rows": np.flatnonzero(differ).tolist(), "columns": columns,
            "max_rel": max_rel}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--change", default=None,
                        help="git ref to compare instead of this checkout's working tree")
    args = parser.parse_args(argv)

    refs = {"parent": git("rev-parse", args.parent)}
    if args.change is not None:
        refs["change"] = git("rev-parse", args.change)
    print(f"parent {refs['parent']}, change {refs.get('change', 'working tree')}; "
          f"OPENBLAS_CORETYPE={os.environ.get('OPENBLAS_CORETYPE')} "
          f"NPY_DISABLE_CPU_FEATURES={os.environ.get('NPY_DISABLE_CPU_FEATURES')}")
    with tempfile.TemporaryDirectory(prefix="bits_diff_") as tmp:
        tables = {}
        for side in ("parent", "change"):
            tree = ROOT
            if side in refs:
                tree = Path(tmp) / side
                tree.mkdir()
                export(refs[side], tree)
            tables[side] = run_configs(tree, CONFIGS, Path(tmp) / f"{side}.npz")

    differing = 0
    for name in CONFIGS:
        parent, change = tables["parent"][name], tables["change"][name]
        diff = compare(parent, change)
        differing += bool(diff["rows"])
        line = f"{name}: {len(diff['rows'])} of {len(parent)} rows differ"
        if diff["rows"]:
            line += (f" in {', '.join(diff['columns'])}; max relative difference "
                     f"{diff['max_rel']:.3g}; first rows {diff['rows'][:10]}")
        print(line)
    print(f"{differing} of {len(CONFIGS)} configurations differ")
    if differing:
        sys.exit(1)


if __name__ == "__main__":
    main()
