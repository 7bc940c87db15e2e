"""Monte Carlo sweep orchestration: deterministic streams, workers, outputs.

Every (utilization, snapshot) pair owns one random stream derived from the
master seed, and all schemes evaluate the same snapshot and channel drawn
from it. Output is therefore a pure function of the configuration, bit for
bit independent of worker count, chunk size and scheduling order.
"""

import dataclasses
import json
import os
import warnings
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, islice, pairwise, product, repeat

import numpy as np

from . import __version__
from .channel import ChannelRealization, RadioParams, build_channel_realization, path_loss_db
from .exceptions import ConfigurationError, check_field_types
from .metrics import (SnapshotMetrics, SweepPointSummary, aggregate, baseline_sinrs,
                      jt_sinrs, snapshot_metrics)
from .power import solve_power_lp
from .precoding import build_precoder, v_ul, v_ul_max
from .snapshot import SnapshotGroup, TrafficConfig, generate_snapshot, traffic_load
from .topology import D_MAX_M, D_MIN_M, Topology, build_grid

SCHEMES = ("baseline", "jt", "jt_ds")

# default sweep for a 16-BS grid; the single-UE point (K=1) is omitted
# because it is interference-free and cannot carry mixed traffic
DEFAULT_UTILIZATIONS = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)

FAILURE_RATE_WARN = 0.01

# most snapshots a sweep realizes before it evaluates them layer by layer.
# Against 64, 128 read 9-21% more snapshots/s for 1.4-1.8% more peak RSS;
# 256 a further 6% on light_load, for 3.5% more (README, performance notes)
CHUNK = 128

# the per-point statistics, in summary.json key order
SUMMARY_STATS = tuple(f.name for f in dataclasses.fields(SweepPointSummary))


def _round12(x):
    """x at the 12 significant digits used across all output files."""
    return None if x is None else float(f"{float(x):.12g}")


@dataclass
class SimulationConfig:
    n_bs: int = 16
    area_side: float = 40.0
    radio: RadioParams = field(default_factory=RadioParams)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    schemes: tuple[str, ...] = SCHEMES
    delta: int = 0
    utilizations: tuple[float, ...] = DEFAULT_UTILIZATIONS
    snapshots_per_point: int = 10_000
    master_seed: int = 1
    worker_count: int | str = 1  # or "auto"

    def __post_init__(self):
        check_field_types(self)
        # each utilization runs as the 12-digit value every output prints
        self.utilizations = tuple(map(_round12, self.utilizations))
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown:
            raise ConfigurationError(f"unknown schemes: {sorted(unknown)}")
        self.schemes = tuple(s for s in SCHEMES if s in self.schemes)
        if not self.schemes:
            raise ConfigurationError("at least one scheme is required")
        if not self.utilizations:
            raise ConfigurationError("at least one utilization point is required")
        # two that agree at 12 digits would make one sweep point twice
        if len(set(self.utilizations)) != len(self.utilizations):
            raise ConfigurationError("utilizations must be distinct "
                                     "(records are keyed by the value)")
        # the snapshot index keys its stream as one uint32 word
        if not 1 <= self.snapshots_per_point <= 2**32 - 1:
            raise ConfigurationError("snapshots_per_point must be in [1, 2**32 - 1]")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed must be >= 0")
        # BSs no farther apart than the path-loss clamp tie for the UEs near
        # them, and a BS that is never strictly strongest never gets a UE:
        # the drop would redraw forever. Past D_MAX_M path loss is flat, so a
        # cell corner, spacing / sqrt(2) from its BSs, would tie all of them.
        # In between, each BS is strictly strongest around its own position.
        spacing = build_grid(self.n_bs, self.area_side).spacing
        if not D_MIN_M < spacing < np.sqrt(2) * D_MAX_M:
            raise ConfigurationError(
                f"BS spacing area_side / sqrt(n_bs) = {spacing:g} m must exceed the "
                f"{D_MIN_M:g} m path-loss clamp and stay below sqrt(2) x the "
                f"{D_MAX_M:g} m path-loss range")
        # a sweep's largest numbers: n_bs streams of up to n_bs P_b, over n_bs links of up to
        # 2^10 x the path gain (|z|^2 > 2^10: probability e^-1024), n_bs x S rates <= 1024 B
        radio, n = self.radio, self.n_bs
        rx_w = n * n * 1024.0 * max(radio.p_b_max_w, radio.p_u_max_w) * 10.0 ** (
            -path_loss_db(D_MIN_M, radio.carrier_freq_ghz) / 10.0)
        if not max(n * radio.p_b_max_w, rx_w, rx_w / radio.noise_power_w, 1024.0
                   * radio.bandwidth_hz * n * self.snapshots_per_point) < np.finfo(float).max:
            raise ConfigurationError(
                f"RadioParams overflows a float with n_bs = {n}: n_bs x p_b_max_w, n_bs^2 x "
                f"1024 x the larger maximum power received at {D_MIN_M:g} m, alone and over "
                "the noise, and 1024 x bandwidth_hz x n_bs x snapshots_per_point must be finite")
        # any delta >= n_bs already leaves no uplink BS to null
        if not 0 <= self.delta <= self.n_bs:
            raise ConfigurationError(f"delta must be in [0, n_bs = {self.n_bs}]")
        if self.worker_count != "auto" and (isinstance(self.worker_count, str)
                                            or self.worker_count < 1):
            raise ConfigurationError("worker_count must be >= 1 or 'auto'")
        for utilization in self.utilizations:
            traffic_load(utilization, self.n_bs, self.traffic)


# the sweep's result table: one row per scheme evaluation of one snapshot,
# one field per records.csv column. Each cell is formatted by the field's
# kind: floats at 12 significant digits (as _round12), bools as 0/1
RECORD_DTYPE = np.dtype([
    ("scheme", f"U{max(map(len, SCHEMES))}"), ("utilization", np.float64),
    ("delta", np.int64), ("snapshot", np.int64), ("k_dl", np.int64), ("k_ul", np.int64),
    ("v_ul", np.int64), ("dl_sum_rate_bps", np.float64), ("ul_sum_rate_bps", np.float64),
    ("sum_rate_bps", np.float64), ("failed", np.bool_)])
CSV_HEADER = ",".join(RECORD_DTYPE.names)
_CSV_ROW = ",".join({"f": "%.12g", "b": "%d"}.get(RECORD_DTYPE[name].kind, "%s")
                    for name in RECORD_DTYPE.names) + "\n"


@dataclass
class RunResult:
    records: np.recarray  # of RECORD_DTYPE, one block per (scheme, utilization)
    summaries: list  # one dict per block, in the same order
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


# numpy's SeedSequence constants: hashmix step k of a pass xors c = init * mult^k mod 2^32,
# then multiplies by c * mult
_HASH_A, _HASH_B = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)  # (init, mult)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(value, consts, n: int, into=None):
    """SeedSequence's next n hashmix steps on the last axis; given into, mixed into it."""
    xor, mult = np.array(list(islice(consts, n)), np.uint32).T
    value = (value ^ xor) * mult
    value ^= value >> 16
    if into is not None:
        value = into * _MIX_L - value * _MIX_R
        value ^= value >> 16
    return value


class _State(np.random.bit_generator.ISeedSequence):
    """One task's generate_state(4, uint64): native, C-contiguous words PCG64 reads as is."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _streams(master_seed: int, tasks) -> list:
    """derive_stream's Generator of each (u, s) task, its seed words hashed in one batch.

    SeedSequence(master_seed, spawn_key=(u, s)) first mixes the seed's
    uint32 words, zero-padded to 4, into SeedSequence(master_seed)'s pool,
    in 4 hashmix steps per word; then it mixes in u and s, here one uint32
    lane per key. PCG64 then seeds itself from each lane's generate_state(4, uint64).
    """
    hash_a, hash_b = (pairwise(accumulate(repeat(mult), lambda c, m: c * m & 0xFFFFFFFF,
                                          initial=init)) for init, mult in (_HASH_A, _HASH_B))
    hash_a = islice(hash_a, 4 * max(4, -(-master_seed.bit_length() // 32)), None)
    pool = np.random.SeedSequence(master_seed).pool[None]  # [lane, word]
    for word in np.array(tasks, np.uint32).T[..., None]:
        pool = _hashmix(word, hash_a, 4, into=pool)
    words = _hashmix(np.tile(pool, 2), hash_b, 8)  # generate_state cycles the pool
    words = words.astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_State(row))) for row in words]


def _realize(config: SimulationConfig, topology: Topology, tasks):
    """The tasks' (members, group, channels) shape groups; members index into tasks.

    Each task draws from its own stream, first its snapshot, then its
    channel; the chunk makes all streams, then one batched generate_snapshot
    call per utilization, which hands back its (K_dl, K_ul) shape groups,
    then one channel draw per group, into stacked blocks of one shape: with
    one UE per BS, N_ul = K_ul and N_dl = n_bs - K_ul.
    """
    rngs = _streams(config.master_seed, tasks)
    u_idx = np.array([u for u, _ in tasks])
    groups = []
    for u in dict.fromkeys(u_idx.tolist()):
        point = (u_idx == u).nonzero()[0]
        groups += [(point[members], group) for members, group in generate_snapshot(
            topology, config.utilizations[u], config.traffic, [rngs[i] for i in point])]
    return [(members, group, build_channel_realization(
        group, topology, config.radio, [rngs[i] for i in members]))
        for members, group in groups]


def _v_ul_key(scheme: str, group, delta: int):
    """The evaluation a scheme reads: None if no BS precodes, else V_ul."""
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    k_dl, n_dl, n_ul = (group.dl_ues.shape[-1], group.n_dl.shape[-1], group.ul_bs.shape[-1])
    if scheme == "baseline" or k_dl == 0:
        return None
    if scheme == "jt":
        return 0
    return v_ul(delta, v_ul_max(n_ul, n_dl, k_dl))


def _stack(cls, items):
    """A cls whose every field stacks that attribute of the items on a leading axis."""
    return cls(*(np.stack([getattr(item, f.name) for item in items])
                 for f in dataclasses.fields(cls)))


def _padded(lps, rows, k_dl_max: int) -> np.ndarray:
    """The K_dl data columns of the given rows of each key's W, zero-padded to one stack.

    The stack's shape is the largest [N_dl, K_dl]; real rows and columns
    come first, and the keys' rows follow one another.
    """
    w = np.zeros((sum(map(len, rows)), max(w_key.shape[1] for _, w_key, _ in lps),
                  k_dl_max), complex)
    for (k_dl, w_key, _), r, end in zip(lps, rows, np.cumsum(list(map(len, rows)))):
        w[end - len(r):end, :w_key.shape[1], :k_dl] = w_key[r, :, :k_dl]
    return w


def _evaluate_chunk(groups, params: RadioParams, schemes, delta: int):
    """evaluate_snapshot on each snapshot of _realize's shape groups, one layer at a time.

    Each group makes one baseline_sinrs call and one evaluation per V_ul
    key, read from its arrays; a precoded key's rows fill stacked W and p.
    Each (group, key) makes one build_precoder call, then one power LP call
    runs over the chunk's rows whose W is not NaN, each an LP over its K_dl
    data columns zero-padded to the chunk's largest, then each evaluation's
    jt_sinrs and snapshot_metrics over its whole group. A failure is a NaN
    row from the layer that fails, W or p, and it stays NaN through its
    row's SINRs and rates. Yields each group's {scheme: (V_ul key, (dl, ul)
    SINRs, (dl, ul, total) rate sums)}, as jt_sinrs and snapshot_metrics
    return them over the group.
    """
    chunk = []  # per shape group: channels, baseline (dl, ul) SINRs, keys, {key: (W, p)}
    for _, group, chan in groups:
        keys = {scheme: _v_ul_key(scheme, group, delta) for scheme in schemes}
        # JT needs no baseline; the baseline scheme and JT-DS selection do
        base = (baseline_sinrs(group, chan, params)
                if any(v is None or v > 0 for v in keys.values()) else None)
        chunk.append((chan, base, keys, {}))

    lps = []  # every precoded key of the chunk: K_dl, W, p
    for chan, base, keys, precoded in chunk:
        k_dl = chan.h_dl.shape[1]
        for v in dict.fromkeys(v for v in keys.values() if v is not None):
            w = build_precoder(chan, v, base[1] if v else None)[0]
            precoded[v] = w, np.zeros((len(w), k_dl + v))
            lps.append((k_dl, *precoded[v]))
    if lps:
        rows = [np.flatnonzero(~np.isnan(w[:, 0, 0])) for _, w, _ in lps]
        k_dl_max = max(k_dl for k_dl, _, _ in lps)
        k_each = np.repeat([k_dl for k_dl, _, _ in lps], list(map(len, rows)))
        # the padded stack is bound to no name here, so the LP can free it as it pivots
        p = solve_power_lp(_padded(lps, rows, k_dl_max), params.p_b_max_w, k_dl_max,
                           k_dl_each=k_each)
        for (k_dl, _, p_key), r in zip(lps, rows):  # each key's rows in turn
            p_key[r, :k_dl], p = p[:len(r), :k_dl], p[len(r):]
    for chan, base, keys, precoded in chunk:
        # the None key reads the baseline SINRs
        sinrs = {v: base if v is None else jt_sinrs(chan, params, *precoded[v])
                 for v in dict.fromkeys(keys.values())}
        rates = {v: snapshot_metrics(s, params.bandwidth_hz) for v, s in sinrs.items()}
        yield {scheme: (v, sinrs[v], rates[v]) for scheme, v in keys.items()}


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
    or a JT-DS selection needs them. A precoder or power LP that fails
    (a NaN sum rate) fails only its own key. This is the sweep's evaluation
    of a chunk of one snapshot; only here do its SINRs return to drop order.
    """
    group = ([0], _stack(SnapshotGroup, [snap]), _stack(ChannelRealization, [chan]))
    [results] = _evaluate_chunk([group], params, schemes, delta)
    drop_order = np.argsort(np.concatenate((snap.dl_ues, snap.ul_ues)))
    return {scheme: (v or 0, None if np.isnan(rates[-1][0]) else SnapshotMetrics(
        np.concatenate(sinrs, axis=-1)[0, drop_order], *map(float, np.ravel(rates))))
            for scheme, (v, sinrs, rates) in results.items()}


def _run_chunk(config: SimulationConfig, topology: Topology, tasks) -> np.ndarray:
    """[scheme, task] RECORD_DTYPE rows of every configured scheme on each task."""
    groups = _realize(config, topology, tasks)
    block = np.empty((len(config.schemes), len(tasks)), RECORD_DTYPE)
    block["scheme"] = np.array(config.schemes)[:, None]
    block["utilization"] = np.take(config.utilizations, [u_idx for u_idx, _ in tasks])
    block["delta"] = config.delta
    block["snapshot"] = [s_idx for _, s_idx in tasks]
    for (members, group, _), results in zip(groups, _evaluate_chunk(
            groups, config.radio, config.schemes, config.delta)):
        block["k_dl"][:, members] = group.dl_ues.shape[-1]
        block["k_ul"][:, members] = group.ul_ues.shape[-1]
        for row, (v, _, rates) in zip(block, results.values()):
            row["v_ul"][members] = v or 0
            row["failed"][members] = failed = np.isnan(rates[-1])
            for name, rate in zip(("dl_sum_rate_bps", "ul_sum_rate_bps", "sum_rate_bps"), rates):
                # a failed row reads NaN in every rate, though without
                # uplink UEs its uplink sum adds up no NaN
                row[name][members] = np.where(failed, np.nan, rate)
    return block


def run_sweep(config: SimulationConfig) -> RunResult:
    """Run every (scheme, utilization, snapshot) combination and aggregate.

    Snapshot/channel realizations are generated once per (utilization,
    snapshot) and shared across schemes. The records run by scheme, then
    configured utilization, then snapshot: one block per sweep point. Scheme
    evaluations that fail numerically (a rank-deficient channel, an SVD
    that does not converge, an LP the simplex cannot solve) are kept in the
    record table with their flag set and excluded from the aggregates; a
    failure rate above 1% triggers a warning.
    """
    topology = build_grid(config.n_bs, config.area_side)
    tasks = list(product(range(len(config.utilizations)), range(config.snapshots_per_point)))
    # a process pool forks all its workers at the first submit, and the
    # output does not depend on their count: use at most one per task and
    # per CPU this process may run on (its affinity mask, where there is one)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(cpus, len(tasks))
    if config.worker_count != "auto":
        workers = min(config.worker_count, workers)
    # every worker gets at least one chunk; each sweep point is cut into its
    # fewest chunks of at most size tasks, lengths within one
    size = min(CHUNK, -(-len(tasks) // workers))
    n = config.snapshots_per_point
    parts = -(-n // size)
    chunks = [tasks[start + n * j // parts:start + n * (j + 1) // parts]
              for start in range(0, len(tasks), n) for j in range(parts)]
    if workers == 1:
        per_chunk = [_run_chunk(config, topology, c) for c in chunks]
    else:
        # imported here: the process pool pulls in multiprocessing, which a
        # one-worker sweep never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_chunk = list(pool.map(partial(_run_chunk, config, topology), chunks))
    # each scheme's rows in task order
    records = np.concatenate(per_chunk, axis=1).reshape(-1).view(np.recarray)

    summaries = []
    for (scheme, utilization), point in zip(product(config.schemes, config.utilizations),
                                            records.reshape(-1, config.snapshots_per_point)):
        ok = point[~point.failed]
        k = traffic_load(utilization, config.n_bs, config.traffic)
        entry = {
            "scheme": scheme,
            "utilization": utilization,
            "delta": config.delta,
            "traffic_load_k": k,
            "n_snapshots": len(point),
            "n_failed": len(point) - len(ok),
        }
        entry.update(dataclasses.asdict(aggregate(ok, k)) if len(ok)
                     else dict.fromkeys(SUMMARY_STATS))
        summaries.append(entry)

    failure_rate = records.failed.sum() / max(len(records), 1)
    if failure_rate > FAILURE_RATE_WARN:
        warnings.warn(f"{failure_rate:.2%} of snapshot evaluations failed "
                      "(numerical failures)", RuntimeWarning)
    return RunResult(records=records, summaries=summaries, config=config)


def write_results(result: RunResult, out_dir) -> dict:
    """Write records.csv, summary.json and config.json under out_dir.

    Rows and summaries keep the result's order, and all numbers are
    serialized with 12 significant digits, so identical configurations
    produce byte-identical files. records.csv is written one sweep point at a time.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name)
             for name in ("records.csv", "summary.json", "config.json")}

    n = result.config.snapshots_per_point
    with open(paths["records.csv"], "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for start in range(0, len(result.records), n):
            fh.write("".join(_CSV_ROW % row for row in result.records[start:start + n].tolist()))

    summaries = []
    for entry in result.summaries:
        out = dict(entry)
        for key in SUMMARY_STATS:
            out[key] = _round12(out[key])
        summaries.append(out)
    with open(paths["summary.json"], "w") as fh:
        json.dump(summaries, fh, indent=2)
        fh.write("\n")

    config = dataclasses.asdict(result.config)
    config["version"] = __version__
    with open(paths["config.json"], "w") as fh:
        json.dump(config, fh, indent=2)
        fh.write("\n")
    return paths
