"""Monte Carlo sweep orchestration: deterministic streams, workers, outputs.

Every (utilization, snapshot) pair owns one random stream derived from the
master seed, and all schemes evaluate the same snapshot and channel drawn
from it. Output is therefore a pure function of the configuration,
independent of worker count and scheduling order.
"""

import dataclasses
import json
import math
import os
import warnings
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter

import numpy as np

from . import __version__
from .channel import RadioParams, build_channel_realization
from .exceptions import ConfigurationError, NumericalError
from .metrics import (SweepPointSummary, aggregate, baseline_sinrs, jt_sinrs,
                      snapshot_metrics)
from .power import solve_power_lp
from .precoding import build_precoder, v_ul, v_ul_max
from .snapshot import TrafficConfig, generate_snapshot, traffic_load
from .topology import D_MIN_M, Topology, build_grid

SCHEMES = ("baseline", "jt", "jt_ds")

# default sweep for a 16-BS grid; the single-UE point (K=1) is omitted
# because it is interference-free and cannot carry mixed traffic
DEFAULT_UTILIZATIONS = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)

FAILURE_RATE_WARN = 0.01

# the per-point statistics, in summary.json key order
SUMMARY_STATS = tuple(f.name for f in dataclasses.fields(SweepPointSummary))


@dataclass
class SimulationConfig:
    n_bs: int = 16
    area_side: float = 40.0
    radio: RadioParams = field(default_factory=RadioParams)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    schemes: tuple = SCHEMES
    delta: int = 0
    utilizations: tuple = DEFAULT_UTILIZATIONS
    snapshots_per_point: int = 10_000
    master_seed: int = 1
    worker_count: int = 1  # or "auto"

    def __post_init__(self):
        self.schemes = tuple(self.schemes)
        self.utilizations = tuple(float(u) for u in self.utilizations)
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown:
            raise ConfigurationError(f"unknown schemes: {sorted(unknown)}")
        if not self.schemes:
            raise ConfigurationError("at least one scheme is required")
        if not self.utilizations:
            raise ConfigurationError("at least one utilization point is required")
        if len(set(self.utilizations)) != len(self.utilizations):
            raise ConfigurationError("utilizations must be distinct "
                                     "(records are keyed by the value)")
        if self.snapshots_per_point < 1:
            raise ConfigurationError("snapshots_per_point must be >= 1")
        if self.delta < 0:
            raise ConfigurationError("delta must be >= 0")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed must be >= 0")
        if not 0.0 < self.area_side < math.inf:
            raise ConfigurationError("area_side must be positive and finite")
        # BSs no farther apart than the path-loss clamp tie for the UEs near
        # them, and a BS that is never strictly strongest never gets a UE:
        # the drop would redraw forever. Wider apart, each BS is strictly
        # strongest around its own position.
        if self.n_bs >= 1:
            spacing = self.area_side / math.sqrt(self.n_bs)
            if spacing <= D_MIN_M:
                raise ConfigurationError(
                    f"BS spacing area_side / sqrt(n_bs) = {spacing:g} m must "
                    f"exceed the {D_MIN_M:g} m path-loss clamp")
        if self.worker_count != "auto":
            try:
                workers = int(self.worker_count)
            except (TypeError, ValueError):
                raise ConfigurationError("worker_count must be an integer or 'auto'")
            if workers < 1:
                raise ConfigurationError("worker_count must be >= 1 or 'auto'")
        for utilization in self.utilizations:
            traffic_load(utilization, self.n_bs, self.traffic)


@dataclass
class Record:
    """One scheme evaluation of one snapshot."""

    scheme: str
    utilization: float
    delta: int
    snapshot: int
    k_dl: int
    k_ul: int
    v_ul: int
    dl_sum_rate_bps: float
    ul_sum_rate_bps: float
    sum_rate_bps: float
    failed: bool


# records.csv has one column per Record field, each cell formatted by the
# field's type: floats at 12 significant digits (as _round12), bools as 0/1
CSV_HEADER = ",".join(f.name for f in dataclasses.fields(Record))
_CSV_ROW = ",".join({float: "{:.12g}", bool: "{:d}"}.get(f.type, "{}")
                    for f in dataclasses.fields(Record))
_record_cells = attrgetter(*CSV_HEADER.split(","))


@dataclass
class RunResult:
    records: list
    summaries: list  # one dict per (scheme, utilization)
    config: SimulationConfig


def derive_stream(master_seed: int, utilization_index: int,
                  snapshot_index: int) -> np.random.Generator:
    """Independent, reproducible stream keyed by (seed, sweep point, snapshot).

    The scheme deliberately does not enter the key: all schemes share the
    realization so their comparison is paired.
    """
    ss = np.random.SeedSequence(entropy=master_seed,
                                spawn_key=(utilization_index, snapshot_index))
    return np.random.default_rng(ss)


def realize_point(config: SimulationConfig, topology: Topology,
                  utilization_index: int, snapshot_index: int):
    """Generate the shared (snapshot, channel) pair for one sweep task."""
    rng = derive_stream(config.master_seed, utilization_index, snapshot_index)
    snap = generate_snapshot(topology, config.utilizations[utilization_index],
                             config.traffic, rng)
    chan = build_channel_realization(snap, topology, config.radio, rng)
    return snap, chan


def _v_ul_key(scheme: str, snap, delta: int):
    """The evaluation a scheme reads: None if no BS precodes, else V_ul."""
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    if scheme == "baseline" or snap.k_dl == 0:
        return None
    if scheme == "jt":
        return 0
    return v_ul(delta, v_ul_max(snap.n_ul_count, snap.n_dl_count, snap.k_dl))


def evaluate_snapshot(snap, chan, params: RadioParams, schemes=SCHEMES,
                      delta: int = 0) -> dict:
    """Evaluate schemes on one shared snapshot/channel realization.

    Returns {scheme: (V_ul, SnapshotMetrics or None if its evaluation failed
    numerically)}. Each scheme reads the evaluation keyed by the number
    V_ul of uplink BSs its precoder nulls (reported as 0 for the None key):
      None   baseline: fixed maximum powers, no precoding; without downlink
             traffic every scheme is this distributed uplink operation;
      0      jt: zero-forcing precoder over the downlink UEs + power LP;
      V_ul   jt_ds: baseline uplink SINRs pick the V_ul(delta) worst uplink
             BSs, which join the precoder as zero-power rows, then power LP.
    Schemes with one key share one evaluation, so JT-DS at V_ul = 0 is JT.
    The baseline SINRs are computed at most once, and only if the baseline
    or a JT-DS selection needs them. A NumericalError fails only its own key.
    """
    keys = {scheme: _v_ul_key(scheme, snap, delta) for scheme in schemes}
    evaluations, base = {}, None
    for v in keys.values():
        if v in evaluations:
            continue
        try:
            if base is None and (v is None or v > 0):
                base = baseline_sinrs(snap, chan, params)
            if v is None:
                sinrs = base
            else:
                precoder = build_precoder(snap, chan, v, base)
                p = solve_power_lp(precoder.w, params.p_b_max_w, snap.k_dl)
                sinrs = jt_sinrs(snap, chan, params, precoder.w, p)
            evaluations[v] = snapshot_metrics(snap, sinrs, params.bandwidth_hz)
        except NumericalError:
            evaluations[v] = None
    return {scheme: (v or 0, evaluations[v]) for scheme, v in keys.items()}


def _run_task(config: SimulationConfig, topology: Topology, task) -> list:
    """Records of every configured scheme on one (utilization, snapshot) task."""
    u_idx, s_idx = task
    snap, chan = realize_point(config, topology, u_idx, s_idx)
    records = []
    for scheme, (v, m) in evaluate_snapshot(snap, chan, config.radio, config.schemes,
                                            config.delta).items():
        rates = ((float("nan"),) * 3 if m is None
                 else (m.dl_sum_rate_bps, m.ul_sum_rate_bps, m.sum_rate_bps))
        records.append(Record(scheme, config.utilizations[u_idx], config.delta, s_idx,
                              snap.k_dl, snap.k_ul, v, *rates, failed=m is None))
    return records


def _resolve_workers(config: SimulationConfig) -> int:
    if config.worker_count == "auto":
        return os.cpu_count() or 1
    return int(config.worker_count)


def run_sweep(config: SimulationConfig) -> RunResult:
    """Run every (scheme, utilization, snapshot) combination and aggregate.

    Snapshot/channel realizations are generated once per (utilization,
    snapshot) and shared across schemes. Scheme evaluations that fail
    numerically (a rank-deficient channel, an SVD that does not converge, an
    LP the simplex cannot solve) are kept in the record list with their flag
    set and excluded from the aggregates; a failure rate above 1% triggers a
    warning.
    """
    topology = build_grid(config.n_bs, config.area_side)
    tasks = [(u_idx, s_idx)
             for u_idx in range(len(config.utilizations))
             for s_idx in range(config.snapshots_per_point)]
    workers = _resolve_workers(config)
    if workers == 1 or len(tasks) == 1:
        per_task = [_run_task(config, topology, t) for t in tasks]
    else:
        chunk = max(1, len(tasks) // (workers * 8))
        # imported here: the process pool pulls in multiprocessing, which a
        # one-worker sweep never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_task = list(pool.map(partial(_run_task, config, topology), tasks,
                                     chunksize=chunk))
    # (scheme, utilization) -> records in snapshot order, in summary order
    points = {(scheme, u): [] for scheme in SCHEMES if scheme in config.schemes
              for u in config.utilizations}
    for recs in per_task:
        for r in recs:
            points[r.scheme, r.utilization].append(r)

    summaries = []
    for (scheme, utilization), point in points.items():
        ok = [r for r in point if not r.failed]
        k = traffic_load(utilization, config.n_bs, config.traffic)
        entry = {
            "scheme": scheme,
            "utilization": utilization,
            "delta": config.delta,
            "traffic_load_k": k,
            "n_snapshots": len(point),
            "n_failed": len(point) - len(ok),
        }
        entry.update(dataclasses.asdict(aggregate(ok, k)) if ok
                     else dict.fromkeys(SUMMARY_STATS))
        summaries.append(entry)

    records = [r for key in sorted(points) for r in points[key]]
    failure_rate = sum(r.failed for r in records) / max(len(records), 1)
    if failure_rate > FAILURE_RATE_WARN:
        warnings.warn(f"{failure_rate:.2%} of snapshot evaluations failed "
                      "(numerical failures)", RuntimeWarning)
    return RunResult(records=records, summaries=summaries, config=config)


def _round12(x):
    """x at the 12 significant digits used across all output files."""
    return None if x is None else float(f"{float(x):.12g}")


def write_results(result: RunResult, out_dir) -> dict:
    """Write records.csv, summary.json and config.json under out_dir.

    Rows are ordered by (scheme, utilization, snapshot) and all numbers are
    serialized with 12 significant digits, so identical configurations
    produce byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name)
             for name in ("records.csv", "summary.json", "config.json")}

    lines = [CSV_HEADER] + [_CSV_ROW.format(*_record_cells(r)) for r in result.records]
    with open(paths["records.csv"], "w") as fh:
        fh.write("\n".join(lines) + "\n")

    summaries = []
    for entry in result.summaries:
        out = dict(entry)
        for key in SUMMARY_STATS:
            out[key] = _round12(out[key])
        out["utilization"] = _round12(out["utilization"])
        summaries.append(out)
    with open(paths["summary.json"], "w") as fh:
        json.dump(summaries, fh, indent=2)
        fh.write("\n")

    config = dataclasses.asdict(result.config)
    config["schemes"] = list(result.config.schemes)
    config["utilizations"] = [_round12(u) for u in result.config.utilizations]
    config["version"] = __version__
    with open(paths["config.json"], "w") as fh:
        json.dump(config, fh, indent=2)
        fh.write("\n")
    return paths
