import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtddsim import (ConfigurationError, NumericalError, Record, RunResult,
                     SimulationConfig, SingularChannelError, build_grid, derive_stream,
                     evaluate_snapshot, run_sweep, write_results, __version__)
from dtddsim.harness import CSV_HEADER, DEFAULT_UTILIZATIONS, SCHEMES, realize_point
import dtddsim
import dtddsim.harness as harness

from conftest import random_scene


def small_config(**kw):
    base = dict(utilizations=(0.25, 0.75), snapshots_per_point=25, master_seed=5)
    base.update(kw)
    return SimulationConfig(**base)


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


def test_record_count_invariant():
    cfg = small_config(snapshots_per_point=1, utilizations=(0.5, 1.0))
    res = run_sweep(cfg)
    assert len(res.records) == 3 * 2 * 1
    cfg2 = small_config(schemes=("jt",), snapshots_per_point=4, utilizations=(0.5,))
    assert len(run_sweep(cfg2).records) == 4


def test_full_utilization_jt_equals_jt_ds():
    cfg = small_config(schemes=("jt", "jt_ds"), utilizations=(1.0,),
                       snapshots_per_point=100)
    res = run_sweep(cfg)
    jt = [r for r in res.records if r.scheme == "jt"]
    jt_ds = [r for r in res.records if r.scheme == "jt_ds"]
    for a, b in zip(jt, jt_ds):
        assert a.snapshot == b.snapshot
        assert a.sum_rate_bps == b.sum_rate_bps
        assert a.dl_sum_rate_bps == b.dl_sum_rate_bps
        assert a.ul_sum_rate_bps == b.ul_sum_rate_bps
        assert b.v_ul == 0


def test_schemes_share_snapshot_realizations():
    res = run_sweep(small_config())
    by_point = {}
    for r in res.records:
        by_point.setdefault((r.utilization, r.snapshot), []).append(r)
    for point in by_point.values():
        assert len(point) == 3
        assert len({r.k_dl for r in point}) == 1
        assert len({r.k_ul for r in point}) == 1


def test_realize_point_is_pure():
    cfg = small_config()
    topology = build_grid(cfg.n_bs, cfg.area_side)
    s1, c1 = realize_point(cfg, topology, 1, 3)
    s2, c2 = realize_point(cfg, topology, 1, 3)
    np.testing.assert_array_equal(s1.ue_placement.positions, s2.ue_placement.positions)
    np.testing.assert_array_equal(c1.h_dl, c2.h_dl)
    np.testing.assert_array_equal(c1.f_bs, c2.f_bs)


def test_worker_count_does_not_change_output(tmp_path):
    cfg1 = small_config(snapshots_per_point=12, worker_count=1)
    cfg2 = small_config(snapshots_per_point=12, worker_count=3)
    write_results(run_sweep(cfg1), tmp_path / "serial")
    write_results(run_sweep(cfg2), tmp_path / "parallel")
    serial = (tmp_path / "serial" / "records.csv").read_bytes()
    parallel = (tmp_path / "parallel" / "records.csv").read_bytes()
    assert serial == parallel


def test_rerun_is_byte_identical(tmp_path):
    cfg = small_config(snapshots_per_point=8)
    write_results(run_sweep(cfg), tmp_path / "a")
    write_results(run_sweep(cfg), tmp_path / "b")
    for name in ("records.csv", "summary.json", "config.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_empty_result_writes_header_only(tmp_path):
    res = RunResult(records=[], summaries=[], config=small_config())
    write_results(res, tmp_path)
    assert (tmp_path / "records.csv").read_text() == CSV_HEADER + "\n"


def test_csv_round_trips_12_digits(tmp_path):
    res = run_sweep(small_config(snapshots_per_point=3))
    write_results(res, tmp_path)
    lines = (tmp_path / "records.csv").read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(res.records)
    fields = lines[1].split(",")
    rec = res.records[0]
    assert fields[0] == rec.scheme
    assert math.isclose(float(fields[9]), rec.sum_rate_bps, rel_tol=1e-11)
    assert fields[10] == "0"


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

    monkeypatch.setattr(harness, "build_precoder", always_singular)
    cfg = small_config(snapshots_per_point=10, utilizations=(0.5,))
    with pytest.warns(RuntimeWarning, match="failed"):
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


@pytest.mark.parametrize("module, name, error", [
    (harness, "solve_power_lp", NumericalError("LP is unbounded")),
    (np.linalg, "svd", np.linalg.LinAlgError("SVD did not converge")),  # in zf_precoder
])
def test_numerical_failures_are_flagged_and_excluded(monkeypatch, module, name, error):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(module, name, failing)
    cfg = small_config(snapshots_per_point=10, utilizations=(0.5,))
    with pytest.warns(RuntimeWarning, match="failed"):
        res = run_sweep(cfg)
    assert len(res.records) == 30
    for r in res.records:
        assert r.failed == (r.scheme != "baseline")
        assert math.isnan(r.sum_rate_bps) == r.failed
    by_scheme = {e["scheme"]: e for e in res.summaries}
    assert by_scheme["jt"]["n_failed"] == by_scheme["jt_ds"]["n_failed"] == 10
    assert by_scheme["baseline"]["n_failed"] == 0


def test_package_import_loads_no_pool_or_scipy():
    # a fresh interpreter: this one has imported scipy for the test oracles
    code = ("import sys, dtddsim\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('multiprocessing', 'scipy') or m == 'concurrent.futures.process'))")
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
    with pytest.raises(ConfigurationError):
        SimulationConfig(snapshots_per_point=0)
    with pytest.raises(ConfigurationError):
        SimulationConfig(delta=-1)
    with pytest.raises(ConfigurationError):
        SimulationConfig(worker_count=0)
    # BS spacing at or below the 3 m path-loss clamp
    with pytest.raises(ConfigurationError, match="spacing"):
        SimulationConfig(area_side=2.0)
    with pytest.raises(ConfigurationError, match="spacing"):
        SimulationConfig(n_bs=16, area_side=12.0)
    SimulationConfig(n_bs=16, area_side=12.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="area_side"):
            SimulationConfig(area_side=bad)


def test_records_sorted_by_scheme_then_point():
    res = run_sweep(small_config(snapshots_per_point=4))
    keys = [(r.scheme, r.utilization, r.snapshot) for r in res.records]
    assert keys == sorted(keys)


def test_schemes_share_per_snapshot_work(monkeypatch):
    calls = Counter()
    for name in ("baseline_sinrs", "build_precoder"):
        def counted(*args, _name=name, _original=getattr(harness, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    res = run_sweep(small_config(utilizations=(0.5, 1.0), snapshots_per_point=10))
    # baseline SINRs once per snapshot; a precoder for JT, and for JT-DS only
    # when it has dummy streams (none at full load), else JT's result is reused
    with_dummies = [r for r in res.records if r.scheme == "jt_ds" and r.v_ul > 0]
    assert calls["baseline_sinrs"] == 20
    assert calls["build_precoder"] == 20 + len(with_dummies)
    assert 0 < len(with_dummies) <= 10


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
    original = harness.solve_power_lp

    def fails_with_dummy_streams(w, p_b_max_w, k_dl):
        if w.shape[1] > k_dl:
            raise NumericalError("forced by test")
        return original(w, p_b_max_w, k_dl)

    monkeypatch.setattr(harness, "solve_power_lp", fails_with_dummy_streams)
    with pytest.warns(RuntimeWarning, match="failed"):
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
