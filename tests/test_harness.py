import contextlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtddsim import (ConfigurationError, NumericalError, RadioParams, RunResult,
                     SimulationConfig, SingularChannelError, TrafficConfig,
                     build_channel_realization, build_grid, derive_stream,
                     evaluate_snapshot, generate_snapshot, run_sweep, write_results,
                     __version__)
from dtddsim.harness import CSV_HEADER, DEFAULT_UTILIZATIONS, RECORD_DTYPE, SCHEMES
import dtddsim
import dtddsim.harness as harness
import dtddsim.precoding as precoding
import dtddsim.snapshot as snapshot_module

from conftest import random_scene


def small_config(**kw):
    base = dict(utilizations=(0.25, 0.75), snapshots_per_point=25, master_seed=5)
    base.update(kw)
    return SimulationConfig(**base)


@contextlib.contextmanager
def only_the_failure_rate_warning():
    # a failed evaluation's NaN row passes through the SINR and rate
    # arithmetic without a warning of its own
    with pytest.warns(RuntimeWarning, match="failed") as record:
        yield
    assert len(record) == 1, [str(w.message) for w in record]


def realize_point(config, topology, utilization_index, snapshot_index):
    """One task's (snapshot, channel), through the public per-snapshot calls.

    The sweep draws the same pair from its batched streams and stacked
    channel draw; this reference shares neither.
    """
    rng = derive_stream(config.master_seed, utilization_index, snapshot_index)
    snap = generate_snapshot(topology, config.utilizations[utilization_index],
                             config.traffic, rng)
    return snap, build_channel_realization(snap, topology, config.radio, rng)


def test_derive_stream_reproducible():
    a = derive_stream(99, 2, 17).random(8)
    b = derive_stream(99, 2, 17).random(8)
    np.testing.assert_array_equal(a, b)


def test_derive_stream_diverges_across_snapshots():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        u = int(rng.integers(0, 8))
        s1, s2 = rng.choice(1000, size=2, replace=False)
        a = derive_stream(7, u, int(s1)).random(4)
        b = derive_stream(7, u, int(s2)).random(4)
        assert not np.array_equal(a, b)


def test_derive_stream_diverges_across_seeds():
    for u in range(4):
        for s in range(4):
            a = derive_stream(1, u, s).random(4)
            b = derive_stream(2, u, s).random(4)
            assert not np.array_equal(a, b)


@settings(max_examples=200, deadline=None)
@example(master_seed=2**64 + 3, tasks=[(7, s) for s in range(harness.CHUNK)])
@given(master_seed=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64, 2**128]),
                             st.integers(0, 2**32 - 1), st.integers(2**32, 2**300)),
       tasks=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
                      min_size=1, max_size=harness.CHUNK))
def test_batched_streams_match_derive_stream(master_seed, tasks):
    # a seed past 2**32 hashes more entropy words, past 2**128 more than
    # SeedSequence's pool of 4
    rngs = harness._streams(master_seed, tasks)
    assert len(rngs) == len(tasks)
    for (u, s), rng in zip(tasks, rngs):
        fresh = derive_stream(master_seed, u, s)
        assert rng.bit_generator.state == fresh.bit_generator.state
        for draw in (lambda g: g.random(3), lambda g: g.standard_normal(3),
                     lambda g: g.integers(2**40, size=3)):
            assert draw(rng).tobytes() == draw(fresh).tobytes()


def test_batched_streams_outlive_the_next_batch():
    # each call hands out Generators of its own: a later batch on the same
    # thread leaves an earlier one's states and draws as derive_stream's
    first = harness._streams(1, [(0, 0), (0, 1)])
    second = harness._streams(1, [(1, 5)])
    assert all(rng is not other for rng in first for other in second)
    for (u, s), rng in zip([(0, 0), (0, 1)], first):
        fresh = derive_stream(1, u, s)
        assert rng.bit_generator.state == fresh.bit_generator.state
        assert rng.random(3).tobytes() == fresh.random(3).tobytes()


def test_threaded_sweeps_give_their_serial_bytes(tmp_path):
    # three sweeps at once (more threads than a 2-core machine has), on
    # different seeds, switching threads often: each must give its serial bytes
    configs = [small_config(master_seed=seed) for seed in (3, 2**32, 7)]
    for i, cfg in enumerate(configs):
        write_results(run_sweep(cfg), tmp_path / f"serial{i}")
    fresh = derive_stream(3, 0, 0)
    state = fresh.bit_generator.state
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(configs)) as pool:
            results = list(pool.map(run_sweep, configs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for i, result in enumerate(results):
        write_results(result, tmp_path / f"thread{i}")
        for name in ("records.csv", "summary.json"):
            assert ((tmp_path / f"serial{i}" / name).read_bytes()
                    == (tmp_path / f"thread{i}" / name).read_bytes())
    # the sweeps leave a Generator from derive_stream untouched
    assert fresh.bit_generator.state == state


def test_worker_count_does_not_change_output(tmp_path, monkeypatch):
    # 80 tasks: one chunk of 40 per point on one worker; in a pool of 3, each
    # worker gets at least one chunk, here two of 20 per point; with CHUNK = 1,
    # one task each; with CHUNK = 7, six of 6 or 7 per point, on one worker and
    # through the pool alike. The full-precision records must match too, not
    # only the 12 digits
    cfg1 = small_config(snapshots_per_point=40, worker_count=1)
    cfg2 = small_config(snapshots_per_point=40, worker_count=3)
    serial, parallel = run_sweep(cfg1), run_sweep(cfg2)
    write_results(serial, tmp_path / "serial")
    write_results(parallel, tmp_path / "parallel")
    for name in ("records.csv", "summary.json"):
        assert ((tmp_path / "serial" / name).read_bytes()
                == (tmp_path / "parallel" / name).read_bytes())
    monkeypatch.setattr(harness, "CHUNK", 1)
    one_task_chunks = run_sweep(cfg1)
    monkeypatch.setattr(harness, "CHUNK", 7)
    ragged_chunks = run_sweep(cfg1)
    ragged_pool = run_sweep(cfg2)
    assert serial.records.tobytes() == parallel.records.tobytes()
    assert serial.records.tobytes() == one_task_chunks.records.tobytes()
    assert serial.records.tobytes() == ragged_chunks.records.tobytes()
    assert serial.records.tobytes() == ragged_pool.records.tobytes()


class SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts nothing."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize("requested, cpus, pools", [
    (100_000, 4, [4]),    # capped at the CPU count
    (100_000, 64, [6]),   # capped at the 6 tasks
    ("auto", 3, [3]),
    (5, 64, [5]),
    (100_000, 1, []),     # one CPU: no pool at all
    (1, 64, []),
])
def test_worker_count_capped_at_cpus_and_tasks(tmp_path, monkeypatch, requested,
                                               cpus, pools):
    import concurrent.futures
    import json
    SerialPool.made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    # the CPUs this process may run on (taskset, a cpuset), not the machine's 128
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 128)
    cfg = small_config(snapshots_per_point=3, worker_count=requested)
    write_results(run_sweep(cfg), tmp_path / "capped")
    assert SerialPool.made == pools
    write_results(run_sweep(small_config(snapshots_per_point=3)), tmp_path / "serial")
    for name in ("records.csv", "summary.json"):
        assert ((tmp_path / "capped" / name).read_bytes()
                == (tmp_path / "serial" / name).read_bytes())
    config = json.loads((tmp_path / "capped" / "config.json").read_text())
    assert config["worker_count"] == requested  # the echo keeps the request


# ids: workers-size, the chunk size the rule gives. One worker's rows are
# the ceil(n / CHUNK) near-equal chunks per point it has always cut
@pytest.mark.parametrize("workers, n_points, chunk_size, lengths", [
    pytest.param(1, 3, 10, [7, 8, 8], id="1-10"),   # one worker: CHUNK binds
    pytest.param(1, 1, 100, [23], id="1-23"),       # one worker: one chunk per point
    pytest.param(2, 3, 10, [7, 8, 8], id="2-10"),   # a pool: CHUNK binds, 69 / 2 is more
    pytest.param(2, 1, 100, [11, 12], id="2-12"),   # a pool: it binds at 23 / 2 tasks
])
def test_each_sweep_point_is_cut_into_near_equal_chunks(monkeypatch, workers, n_points,
                                                        chunk_size, lengths):
    # points of 23 tasks, each cut into its fewest chunks of at most
    # min(CHUNK, ceil(tasks / workers)) tasks, whose lengths differ by at most one
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(harness, "CHUNK", chunk_size)
    chunks, original = [], harness._run_chunk

    def recorded(config, topology, tasks):
        chunks.append(list(tasks))
        return original(config, topology, tasks)

    monkeypatch.setattr(harness, "_run_chunk", recorded)
    cfg = small_config(utilizations=(0.25, 0.5, 0.75)[:n_points], snapshots_per_point=23,
                       worker_count=workers)
    run_sweep(cfg)
    assert [task for chunk in chunks for task in chunk] == [
        (u_idx, s_idx) for u_idx in range(n_points) for s_idx in range(23)]
    for u_idx in range(n_points):
        assert [len(chunk) for chunk in chunks if chunk[0][0] == u_idx] == lengths
    for chunk in chunks:
        assert len({u_idx for u_idx, _ in chunk}) == 1


def test_worker_count_capped_at_cpu_count_without_affinity(monkeypatch):
    import concurrent.futures
    SerialPool.made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    run_sweep(small_config(snapshots_per_point=3, worker_count="auto"))
    assert SerialPool.made == [4]


def test_empty_result_writes_header_only(tmp_path):
    res = RunResult(records=np.recarray(0, dtype=RECORD_DTYPE), summaries=[],
                    config=small_config())
    write_results(res, tmp_path)
    assert (tmp_path / "records.csv").read_text() == CSV_HEADER + "\n"


def test_csv_round_trips_12_digits(tmp_path):
    res = run_sweep(small_config(snapshots_per_point=3))
    # rows no sweep of this config makes: a failed one, inf, -inf and -0.0
    odd = np.array([("jt", 0.5, 0, 0, 1, 1, 0, math.nan, math.nan, math.nan, True),
                    ("jt_ds", 1 / 3, 2, 7, 2, 3, 1, math.inf, -math.inf, -0.0, False)],
                   dtype=RECORD_DTYPE)
    res.records = np.concatenate([res.records, odd]).view(np.recarray)
    write_results(res, tmp_path)
    lines = (tmp_path / "records.csv").read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(res.records)
    fields = lines[1].split(",")
    rec = res.records[0]
    assert fields[0] == rec.scheme
    assert math.isclose(float(fields[9]), rec.sum_rate_bps, rel_tol=1e-11)
    assert fields[10] == "0"
    assert lines[-2:] == ["jt,0.5,0,0,1,1,0,nan,nan,nan,1",
                          "jt_ds,0.333333333333,2,7,2,3,1,inf,-inf,-0,0"]
    # every row as str.format with the same cell formats writes it
    cell = {"f": "{:.12g}", "b": "{:d}"}
    template = ",".join(cell.get(RECORD_DTYPE[name].kind, "{}") for name in RECORD_DTYPE.names)
    assert lines[1:] == [template.format(*row) for row in res.records.tolist()]


def test_records_csv_holds_one_sweep_point_at_a_time(tmp_path):
    # write_results formats records.csv one sweep point at a time, so its
    # peak traced memory stays within a small multiple of one point's block
    # of the table; building every line before one write holds about 100x
    cfg = small_config(utilizations=DEFAULT_UTILIZATIONS, snapshots_per_point=1000)
    rng = np.random.default_rng(1)
    records = np.zeros((len(SCHEMES), len(cfg.utilizations), 1000), RECORD_DTYPE)
    records["scheme"] = np.array(SCHEMES)[:, None, None]
    records["utilization"] = np.array(cfg.utilizations)[:, None]
    records["snapshot"] = np.arange(1000)
    for name in ("k_dl", "k_ul", "v_ul"):
        records[name] = rng.integers(0, 16, records.shape)
    for name in ("dl_sum_rate_bps", "ul_sum_rate_bps", "sum_rate_bps"):
        records[name] = rng.random(records.shape) * 1e9
    records = records.reshape(-1).view(np.recarray)
    tracemalloc.start()
    try:
        write_results(RunResult(records=records, summaries=[], config=cfg), tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * records[:1000].nbytes, (peak, records[:1000].nbytes)
    lines = (tmp_path / "records.csv").read_text().split("\n")
    assert len(lines) == 2 + len(records) and lines[-1] == ""


def test_summary_covers_every_sweep_point(tmp_path):
    import json
    res = run_sweep(small_config())
    paths = write_results(res, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    keys = {(e["scheme"], e["utilization"]) for e in summary}
    assert keys == {(s, u) for s in ("baseline", "jt", "jt_ds")
                    for u in (0.25, 0.75)}
    for e in summary:
        assert e["mean_sum_rate_bps"] > 0
        assert e["fifth_percentile_user_rate_bps"] > 0
        assert e["n_failed"] == 0
    config = json.loads((tmp_path / "config.json").read_text())
    assert config["master_seed"] == 5
    assert config["version"] == __version__
    assert paths["records.csv"].endswith("records.csv")


def test_failed_snapshots_are_flagged_and_excluded(tmp_path, monkeypatch):
    def always_singular(*args, **kwargs):
        raise SingularChannelError("forced by test")

    monkeypatch.setattr(precoding, "zf_precoder", always_singular)
    cfg = small_config(snapshots_per_point=10, utilizations=(0.5,))
    with only_the_failure_rate_warning():
        res = run_sweep(cfg)
    assert len(res.records) == 30
    jt = [r for r in res.records if r.scheme == "jt"]
    assert all(r.failed and math.isnan(r.sum_rate_bps) for r in jt)
    base = [r for r in res.records if r.scheme == "baseline"]
    assert all(not r.failed for r in base)
    by_scheme = {e["scheme"]: e for e in res.summaries}
    assert by_scheme["jt"]["mean_sum_rate_bps"] is None
    assert by_scheme["jt"]["n_failed"] == 10
    assert by_scheme["baseline"]["mean_sum_rate_bps"] > 0
    write_results(res, tmp_path)  # nan rows serialize fine
    assert ",nan," in (tmp_path / "records.csv").read_text()


def test_failed_rows_without_uplink_ues_read_nan_in_every_rate(monkeypatch):
    # downlink-only snapshots: a failed row's uplink sum runs over no UE,
    # and still reads NaN like the row's other rates
    def always_singular(*args, **kwargs):
        raise SingularChannelError("forced by test")

    monkeypatch.setattr(precoding, "zf_precoder", always_singular)
    cfg = small_config(snapshots_per_point=10, utilizations=(0.5,), traffic=TrafficConfig(
        dl_probability=1.0, require_mixed_traffic=False))
    with only_the_failure_rate_warning():
        records = run_sweep(cfg).records
    precoded = records[records.scheme != "baseline"]
    assert (precoded.k_ul == 0).all() and precoded.failed.all()
    assert np.isnan([precoded.dl_sum_rate_bps, precoded.ul_sum_rate_bps,
                     precoded.sum_rate_bps]).all()
    assert not records[records.scheme == "baseline"].failed.any()


@pytest.mark.parametrize("module, name, error", [
    (harness, "solve_power_lp", NumericalError("simplex lost primal feasibility to rounding")),
    (np.linalg, "svd", np.linalg.LinAlgError("SVD did not converge")),  # in zf_precoder
])
def test_numerical_failures_are_flagged_and_excluded(monkeypatch, module, name, error):
    original = getattr(module, name)

    def failing(*args, **kwargs):
        if isinstance(error, NumericalError):
            # the stacked LP does not raise: NaN bounds leave each element no
            # ratio-test row, and every element comes back as a NaN row
            w, _, k_dl = args
            return original(w, np.nan, k_dl, **kwargs)
        raise error

    monkeypatch.setattr(module, name, failing)
    cfg = small_config(snapshots_per_point=10, utilizations=(0.5,))
    with only_the_failure_rate_warning():
        res = run_sweep(cfg)
    assert len(res.records) == 30
    for r in res.records:
        assert r.failed == (r.scheme != "baseline")
        assert math.isnan(r.sum_rate_bps) == r.failed
    by_scheme = {e["scheme"]: e for e in res.summaries}
    assert by_scheme["jt"]["n_failed"] == by_scheme["jt_ds"]["n_failed"] == 10
    assert by_scheme["baseline"]["n_failed"] == 0


def test_package_import_loads_no_pool_or_scipy():
    # what setup_s times: importing the package and building a config, whose
    # validation builds the grid. A fresh interpreter, since this one has
    # imported scipy for the test oracles; numpy comes first, since only the
    # modules dtddsim adds count
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import dtddsim\n"
            "dtddsim.SimulationConfig()\n"
            "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] in "
            "('multiprocessing', 'scipy') or m.startswith('numpy.ma') "
            "or m == 'concurrent.futures.process'))")
    src = os.path.dirname(os.path.dirname(dtddsim.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SimulationConfig(schemes=("jt", "bogus"))
    with pytest.raises(ConfigurationError):
        SimulationConfig(schemes=())
    with pytest.raises(ConfigurationError):
        SimulationConfig(utilizations=())
    with pytest.raises(ConfigurationError):
        SimulationConfig(utilizations=(0.0,))
    with pytest.raises(ConfigurationError):
        SimulationConfig(utilizations=(1.5,))
    with pytest.raises(ConfigurationError):
        SimulationConfig(utilizations=(float("nan"),))
    with pytest.raises(ConfigurationError):
        SimulationConfig(utilizations=(0.5, 0.5))
    # distinct floats that every output prints as the same 0.5
    with pytest.raises(ConfigurationError, match="distinct"):
        SimulationConfig(utilizations=(0.5, 0.5000000000001), snapshots_per_point=2,
                         schemes=("jt",))
    # utilizations are taken at the 12 digits every output prints, schemes
    # once each in SCHEMES order
    assert SimulationConfig(utilizations=(1 / 3, 0.25)).utilizations == (0.333333333333, 0.25)
    assert SimulationConfig(schemes=("jt_ds", "jt", "jt_ds")).schemes == ("jt", "jt_ds")
    with pytest.raises(ConfigurationError):
        SimulationConfig(snapshots_per_point=0)
    # the snapshot index keys its stream as one uint32 word
    with pytest.raises(ConfigurationError, match="snapshots_per_point"):
        SimulationConfig(snapshots_per_point=2**32)
    SimulationConfig(snapshots_per_point=2**32 - 1)
    with pytest.raises(ConfigurationError):
        SimulationConfig(delta=-1)
    # past n_bs no uplink BS is left to null, and 2**63 does not fit the
    # records' int64 delta column
    for delta in (17, 2**63):
        with pytest.raises(ConfigurationError, match="delta"):
            SimulationConfig(delta=delta, utilizations=(0.5,), snapshots_per_point=2)
    SimulationConfig(delta=16)
    with pytest.raises(ConfigurationError):
        SimulationConfig(worker_count=0)
    # BS spacing at or below the 3 m path-loss clamp
    with pytest.raises(ConfigurationError, match="spacing"):
        SimulationConfig(area_side=2.0)
    with pytest.raises(ConfigurationError, match="spacing"):
        SimulationConfig(n_bs=16, area_side=12.0)
    SimulationConfig(n_bs=16, area_side=12.5)
    # spacing at or past sqrt(2) x the 100 m path-loss range: a cell corner
    # would be out of range of every BS
    for area_side in (4 * 141.5, 1e7):
        with pytest.raises(ConfigurationError, match="spacing"):
            SimulationConfig(area_side=area_side)
    SimulationConfig(area_side=4 * 141.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="area_side"):
            SimulationConfig(area_side=bad)
    # the grid's own rule, at construction rather than inside run_sweep
    with pytest.raises(ConfigurationError, match="n_bs"):
        SimulationConfig(n_bs=15)
    # wrongly typed values, each named in the error
    for cls, name, value in [
        (SimulationConfig, "delta", float("nan")),
        (SimulationConfig, "delta", 1.5),
        (SimulationConfig, "delta", True),
        (SimulationConfig, "snapshots_per_point", float("nan")),
        (SimulationConfig, "master_seed", float("nan")),
        (SimulationConfig, "n_bs", 16.0),
        (SimulationConfig, "n_bs", True),
        (SimulationConfig, "worker_count", 2.7),
        (SimulationConfig, "worker_count", "2"),
        (RadioParams, "p_b_max_w", "0.1"),
        (RadioParams, "p_b_max_w", True),
        (TrafficConfig, "require_mixed_traffic", "yes"),
        (TrafficConfig, "dl_probability", "0.5"),
    ]:
        with pytest.raises(ConfigurationError, match=name):
            cls(**{name: value})


def test_records_sorted_by_scheme_then_point():
    # also with schemes and utilizations configured out of order: the config
    # keeps its schemes in SCHEMES order, and records and summaries both run
    # by scheme, then the configured utilization order, then snapshot
    for kw in (dict(), dict(schemes=("jt_ds", "baseline"),
                            utilizations=(1.0, 0.25, 0.625), delta=1)):
        cfg = small_config(snapshots_per_point=4, **kw)
        if kw:
            assert cfg.schemes == ("baseline", "jt_ds")
        res = run_sweep(cfg)
        keys = [(r.scheme, r.utilization, r.snapshot) for r in res.records]
        assert keys == [(s, u, i) for s in cfg.schemes for u in cfg.utilizations
                        for i in range(4)]
        assert len(set(keys)) == len(keys) == 4 * len(cfg.schemes) * len(cfg.utilizations)
        # summaries follow SCHEMES order, then the configured utilization order
        assert [(e["scheme"], e["utilization"]) for e in res.summaries] == [
            (scheme, u) for scheme in SCHEMES if scheme in cfg.schemes
            for u in cfg.utilizations] == list(dict.fromkeys(k[:2] for k in keys))


@settings(max_examples=25, deadline=None)
@given(utilizations=st.lists(st.sampled_from(DEFAULT_UTILIZATIONS), min_size=1,
                             max_size=3, unique=True),
       schemes=st.lists(st.sampled_from(SCHEMES), min_size=1, unique=True),
       delta=st.integers(0, 3), seed=st.integers(0, 2**16),
       snapshots=st.integers(1, 24), fail=st.sampled_from(["none", "always", "dummies"]))
def test_every_row_is_its_snapshot_evaluation(utilizations, schemes, delta, seed,
                                              snapshots, fail):
    # each row of the table, bit for bit, against the per-snapshot reference,
    # over sweeps of one or several chunks of one or several tasks. Evaluations
    # fail never, always (the power LP returns every element as a NaN row, so
    # every precoded evaluation is a failed row) or only with dummy streams
    # (their precoder returns NaN rows of W; failed and clean evaluations
    # share a chunk)
    original_lp, original_precoder = harness.solve_power_lp, harness.build_precoder

    def failing_lp(w, p_b_max_w, k_dl, **kwargs):
        p = original_lp(w, p_b_max_w, k_dl, **kwargs)
        if fail == "always":
            p[:] = np.nan
        return p

    def failing_precoder(chan, v, base):
        w, ul_rows = original_precoder(chan, v, base)
        if fail == "dummies" and v > 0:
            w[...] = np.nan
        return w, ul_rows

    cfg = small_config(utilizations=tuple(utilizations), schemes=tuple(schemes),
                       delta=delta, snapshots_per_point=snapshots, master_seed=seed)
    with mock.patch.object(harness, "solve_power_lp", failing_lp), \
            mock.patch.object(harness, "build_precoder", failing_precoder), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the failure-rate warning
        records = run_sweep(cfg).records
        topology = build_grid(cfg.n_bs, cfg.area_side)
        reference = {(u, s): realize_point(cfg, topology, u_idx, s)
                     for u_idx, u in enumerate(cfg.utilizations) for s in range(snapshots)}
        evaluations = {key: evaluate_snapshot(snap, chan, cfg.radio, cfg.schemes, delta)
                       for key, (snap, chan) in reference.items()}
    assert len(records) == len(reference) * len(schemes)
    for r in records:
        snap, _ = reference[r.utilization, r.snapshot]
        v, m = evaluations[r.utilization, r.snapshot][r.scheme]
        assert (r.delta, r.k_dl, r.k_ul, r.v_ul) == (delta, snap.k_dl, snap.k_ul, v)
        rates = np.array([r.dl_sum_rate_bps, r.ul_sum_rate_bps, r.sum_rate_bps])
        assert r.failed == (m is None) == {
            "none": False, "always": r.scheme != "baseline",
            "dummies": r.scheme == "jt_ds" and r.v_ul > 0}[fail]
        if m is None:
            assert np.isnan(rates).all()
        else:
            want = np.array([m.dl_sum_rate_bps, m.ul_sum_rate_bps, m.sum_rate_bps])
            assert rates.tobytes() == want.tobytes()


def test_schemes_share_per_snapshot_work(monkeypatch):
    # counted where the benchmark's trace wraps them (sweepbench/spans.py),
    # whose per-call counters read one 2-D M per zf_precoder call, the three
    # positional arguments of solve_power_lp and the len of drop_ues's result,
    # the UEs it places; the drop and the snapshot draw take a point's
    # snapshots of a chunk, one stream each, and the channel draw, the
    # precoder, M's assembly and the SINR and rate kernels take a shape
    # group's snapshots stacked on a leading axis (the draw with one stream
    # per member), the power LP a chunk's LPs padded to one shape, so they
    # are counted in snapshots (LPs) as well as in calls
    calls, stacked, shapes, log = Counter(), Counter(), set(), []
    original_chunk = harness._run_chunk

    def marked(*args):
        log.append("chunk")
        return original_chunk(*args)

    monkeypatch.setattr(harness, "_run_chunk", marked)
    for module, name in [(snapshot_module, "drop_ues"), (harness, "generate_snapshot"),
                         (harness, "build_channel_realization"),
                         (harness, "baseline_sinrs"), (harness, "build_precoder"),
                         (precoding, "assemble_m"), (precoding, "zf_precoder"),
                         (harness, "solve_power_lp"), (harness, "jt_sinrs"),
                         (harness, "snapshot_metrics")]:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            log.append(_name)
            result = _original(*args, **kwargs)
            if _name == "zf_precoder":
                shapes.add((_name, np.ndim(args[0])))
            elif _name == "solve_power_lp":
                shapes.add((_name, len(args), tuple(kwargs)))
                stacked[_name] += len(args[0])
            elif _name == "drop_ues":
                shapes.add((_name, result.serving_bs.shape[-1]))
                stacked[_name] += len(result.serving_bs)
            elif _name == "generate_snapshot":
                stacked[_name] += len(args[3])
            elif _name == "build_channel_realization":
                stacked[_name] += len(args[3])
            elif _name == "build_precoder":
                stacked[_name] += len(result[0])
            elif _name in ("baseline_sinrs", "jt_sinrs", "assemble_m"):
                # the SINR kernels return (dl, ul), each [B, ..]
                rows = len(result if _name == "assemble_m" else result[0])
                stacked[_name] += rows
                stacked["most"] = max(stacked["most"], rows)
            elif _name == "snapshot_metrics":  # of the (dl, ul) SINRs
                stacked[_name] += len(args[0][0])
            return result
        monkeypatch.setattr(module, name, counted)
    res = run_sweep(small_config(utilizations=(0.5, 1.0), snapshots_per_point=10))
    # baseline SINRs once per snapshot; a precoder for JT, and for JT-DS only
    # when it has dummy streams (none at full load), else JT's result is reused
    with_dummies = [r for r in res.records if r.scheme == "jt_ds" and r.v_ul > 0]
    assert stacked["baseline_sinrs"] == 20
    assert stacked["build_precoder"] == 20 + len(with_dummies)
    assert 0 < len(with_dummies) <= 10
    # one drop and one snapshot draw per chunk, each over all its snapshots
    for name in ("drop_ues", "generate_snapshot"):
        assert stacked[name] == 20
        assert calls[name] <= log.count("chunk")
    assert stacked["build_channel_realization"] == 20
    # one stacked M per precoder call, and one zf_precoder call per row of it
    assert stacked["assemble_m"] == calls["zf_precoder"] == stacked["build_precoder"]
    for name in ("solve_power_lp", "jt_sinrs"):
        assert stacked[name] == stacked["build_precoder"]
    # one per distinct key: the baseline's, JT's and JT-DS's when it has dummies
    assert stacked["snapshot_metrics"] == 20 + stacked["build_precoder"]
    # the 20 tasks make a chunk of 10 per point, whose shape groups hold
    # several snapshots
    assert log.count("chunk") == 2
    assert stacked["most"] > 1
    for name in ("build_channel_realization", "baseline_sinrs", "build_precoder",
                 "assemble_m", "solve_power_lp", "jt_sinrs", "snapshot_metrics"):
        assert calls[name] < stacked[name]
    # at most one LP call per chunk, whose per-element counts go by keyword
    assert calls["solve_power_lp"] <= log.count("chunk")
    # K = 8 UEs at u = 0.5 and 16 at u = 1.0
    assert shapes == {("zf_precoder", 2), ("solve_power_lp", 3, ("k_dl_each",)),
                      ("drop_ues", 8), ("drop_ues", 16)}
    # within each chunk, each layer runs across the whole chunk before the
    # next starts
    stages = ["generate_snapshot", "build_channel_realization", "baseline_sinrs",
              "build_precoder", "solve_power_lp", "jt_sinrs"]
    starts = [i for i, name in enumerate(log) if name == "chunk"] + [len(log)]
    for start, end in zip(starts, starts[1:]):
        chunk_log = log[start + 1:end]
        for stage, following in zip(stages, stages[1:]):
            last = len(chunk_log) - 1 - chunk_log[::-1].index(stage)
            assert last < chunk_log.index(following), (stage, following)


def test_one_stacked_svd_per_precoder_group_call(monkeypatch):
    # with no failed row, each build_precoder call on a shape group factors
    # its stacked M in one np.linalg.svd call, and its zf_precoder calls, one
    # per row, take their slices of those factors and make no SVD of their own
    calls, original_svd = Counter(), np.linalg.svd
    original_build, original_zf = harness.build_precoder, precoding.zf_precoder

    def counted_svd(a, *args, **kwargs):
        calls["svd", np.ndim(a)] += 1
        return original_svd(a, *args, **kwargs)

    def counted_build(*args, **kwargs):
        calls["build_precoder"] += 1
        w, ul_rows = original_build(*args, **kwargs)
        calls["rows"] += len(w)
        assert not np.isnan(w).any()
        return w, ul_rows

    def counted_zf(m, **kwargs):
        calls["zf_precoder"] += 1
        return original_zf(m, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(harness, "build_precoder", counted_build)
    monkeypatch.setattr(precoding, "zf_precoder", counted_zf)
    res = run_sweep(small_config(utilizations=(0.5, 1.0), snapshots_per_point=10))
    assert not res.records.failed.any()
    assert 0 < calls["build_precoder"] < calls["rows"]
    assert calls == {("svd", 3): calls["build_precoder"], "build_precoder": calls["build_precoder"],
                     "rows": calls["rows"], "zf_precoder": calls["rows"]}


def bits(m):
    """The exact bytes of an evaluation's per-UE SINRs and three sums."""
    if m is None:
        return None
    sums = np.array([m.dl_sum_rate_bps, m.ul_sum_rate_bps, m.sum_rate_bps])
    return m.per_ue_sinr.tobytes(), sums.tobytes()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), utilization=st.sampled_from(DEFAULT_UTILIZATIONS),
       delta=st.integers(0, 4),
       traffic=st.sampled_from([dict(), dict(dl_probability=1.0, require_mixed=False),
                                dict(dl_probability=0.0, require_mixed=False)]))
def test_shared_evaluations_change_no_number(seed, utilization, delta, traffic):
    # mixed, downlink-only and uplink-only scenes: each scheme reads the same
    # bits from the three-scheme evaluation as from its own evaluation alone
    snap, chan, params = random_scene(seed=seed, utilization=utilization, **traffic)
    shared = evaluate_snapshot(snap, chan, params, delta=delta)
    assert tuple(shared) == SCHEMES
    for scheme in SCHEMES:
        v_shared, m_shared = shared[scheme]
        v_alone, m_alone = evaluate_snapshot(snap, chan, params, (scheme,), delta)[scheme]
        assert v_shared == v_alone
        assert bits(m_shared) == bits(m_alone)


def test_failure_fails_only_its_own_evaluation(monkeypatch):
    cfg = small_config(utilizations=(0.5, 1.0), snapshots_per_point=10)
    clean = run_sweep(cfg)
    original = harness.build_precoder

    def fails_with_dummy_streams(chan, v, base):
        w, ul_rows = original(chan, v, base)
        if v > 0:
            w[...] = np.nan
        return w, ul_rows

    monkeypatch.setattr(harness, "build_precoder", fails_with_dummy_streams)
    with only_the_failure_rate_warning():
        res = run_sweep(cfg)
    # failed records keep the V_ul their evaluation attempted
    assert [r.v_ul for r in res.records] == [r.v_ul for r in clean.records]
    for r in res.records:
        assert r.failed == (r.scheme == "jt_ds" and r.v_ul > 0)
        assert math.isnan(r.sum_rate_bps) == r.failed
    jt_ds = [r for r in res.records if r.scheme == "jt_ds"]
    assert 0 < sum(r.failed for r in jt_ds) < len(jt_ds)
    for entry in res.summaries:
        point = [r for r in res.records
                 if (r.scheme, r.utilization) == (entry["scheme"], entry["utilization"])]
        assert entry["n_failed"] == sum(r.failed for r in point)


@pytest.mark.parametrize("layer", ["power_lp", "precoder"])
def test_failed_jobs_leave_the_rest_of_their_shape_group_unchanged(monkeypatch, layer):
    # the failing layer returns NaN rows: the LP on about half of the
    # precoded jobs (their elements of the stacked LP), or the precoder on
    # every third SVD (its row of W, which the LP then leaves out), so shape
    # groups mix failed rows with evaluated ones in their stacked SINR and
    # rate calls; each point's 25 tasks make one chunk, and K differs
    # between the points, so each (k_dl, k_ul) is one group
    cfg = small_config(snapshots_per_point=25)
    clean = run_sweep(cfg).records
    original_lp, original_zf, calls = harness.solve_power_lp, precoding.zf_precoder, Counter()

    def fails_on_half(w, p_b_max_w, k_dl, **kwargs):
        p = original_lp(w, p_b_max_w, k_dl, **kwargs)
        p[w[:, 0, 0].real > 0] = np.nan
        return p

    def fails_every_third(m, *, factors=None):
        calls["zf_precoder"] += 1
        if calls["zf_precoder"] % 3 == 0:
            raise SingularChannelError("forced by test")
        return original_zf(m, factors=factors)

    if layer == "power_lp":
        monkeypatch.setattr(harness, "solve_power_lp", fails_on_half)
    else:
        monkeypatch.setattr(precoding, "zf_precoder", fails_every_third)
    with only_the_failure_rate_warning():
        records = run_sweep(cfg).records
    jt = records[records.scheme == "jt"]
    partial = ({(r.k_dl, r.k_ul) for r in jt if r.failed}
               & {(r.k_dl, r.k_ul) for r in jt if not r.failed})
    assert partial
    kept = ~records.failed
    assert records[kept].tobytes() == clean[kept].tobytes()
    failed = records[records.failed]
    assert np.isnan([failed.dl_sum_rate_bps, failed.ul_sum_rate_bps,
                     failed.sum_rate_bps]).all()
    assert (records.v_ul == clean.v_ul).all()
