"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as
they print; the heavyweight sweeps are shared across criteria through
module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from dtddsim import (ChannelRealization, SimulationConfig, assemble_m, baseline_sinrs,
                     build_precoder, draw_channel, generate_snapshot, build_grid,
                     noise_power, run_sweep, select_uplink_bs, solve_power_lp, v_ul,
                     v_ul_max, write_results, TrafficConfig)
from dtddsim.harness import _evaluate_chunk, _stack
from dtddsim.snapshot import SnapshotGroup

from conftest import random_scene, unit_columns
from oracles import power_lp_oracle

SEED = 2026


def rates(records, scheme, utilization):
    """(ul, dl, total) arrays over snapshots, NaNs (failed rows) masked out."""
    # a point's rows are already in snapshot order
    rows = records[(records.scheme == scheme) & (records.utilization == utilization)]
    ok = ~np.isnan(rows.sum_rate_bps)
    return rows.ul_sum_rate_bps[ok], rows.dl_sum_rate_bps[ok], rows.sum_rate_bps[ok]


def paired_margin(diffs):
    """Twice the standard error of the paired per-snapshot difference."""
    return 2.0 * diffs.std(ddof=1) / math.sqrt(len(diffs))


@pytest.fixture(scope="module")
def fig_low_run():
    cfg = SimulationConfig(utilizations=(0.25, 0.5), snapshots_per_point=2000,
                           master_seed=SEED)
    t0 = time.perf_counter()
    result = run_sweep(cfg)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def delta_sweep():
    # the delta = 0 sweep also runs JT, for criterion 6's high-load comparison
    runs = {}
    for delta in range(5):
        cfg = SimulationConfig(utilizations=(0.75,), snapshots_per_point=2000,
                               schemes=("jt", "jt_ds") if delta == 0 else ("jt_ds",),
                               delta=delta, master_seed=SEED)
        runs[delta] = run_sweep(cfg).records
    return runs


def test_c01_zf_nulling_scaled_by_conditioning():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(1000):
        snap, chan, params = random_scene(seed=seed, utilization=0.5)
        _, base = baseline_sinrs(snap, chan, params)
        v = v_ul(0, v_ul_max(snap.n_ul_count, snap.n_dl_count, snap.k_dl))
        w, ul_rows = build_precoder(chan, v, base)
        m = assemble_m(chan, ul_rows)
        scaled = np.abs(m @ w) / np.linalg.norm(m, axis=1)[:, None]
        np.fill_diagonal(scaled, 0.0)
        ratio = scaled.max() / np.linalg.cond(m)
        worst = max(worst, ratio)
        assert ratio <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 1: ZF nulling <= 1e-8 * cond(M) on 1000 snapshots "
          f"(worst ratio {worst:.2e}, {elapsed:.1f}s)")


def test_c02_lp_matches_enumeration_oracle():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst_gap = 0.0
    for _ in range(500):
        k_dl = int(rng.integers(1, 4))
        n_dl = int(rng.integers(k_dl, 7))
        # JT-DS's dummy streams take columns but no power
        dummies = int(rng.integers(0, min(3, n_dl - k_dl) + 1))
        w = unit_columns(rng, n_dl, k_dl + dummies)
        got = solve_power_lp(w, 0.1, k_dl)
        want = power_lp_oracle(w, 0.1, k_dl)
        gap = abs(got.sum() - want.sum()) / max(want.sum(), 1e-30)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-6
        assert np.all(np.abs(w) ** 2 @ got <= 0.1 + 1e-9)
        assert np.all(got[k_dl:] == 0.0) and np.all(want[k_dl:] == 0.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 2: LP within 1e-6 of the vertex oracle on 500 "
          f"instances, dummy streams at 0 W (worst gap {worst_gap:.2e}, {elapsed:.1f}s)")


def assert_identical_scheme_records(records):
    jt = [r for r in records if r.scheme == "jt"]
    jt_ds = [r for r in records if r.scheme == "jt_ds"]
    assert len(jt) == len(jt_ds) > 0
    for a, b in zip(jt, jt_ds):
        assert (a.utilization, a.snapshot) == (b.utilization, b.snapshot)
        assert a.dl_sum_rate_bps == b.dl_sum_rate_bps
        assert a.ul_sum_rate_bps == b.ul_sum_rate_bps
        assert a.sum_rate_bps == b.sum_rate_bps
        assert b.v_ul == 0


def test_c03_degeneracy_identities():
    # (a) full utilization leaves no spare antennas
    cfg = SimulationConfig(utilizations=(1.0,), snapshots_per_point=1000,
                           schemes=("jt", "jt_ds"), master_seed=SEED)
    assert_identical_scheme_records(run_sweep(cfg).records)
    # (b) downlink-only traffic has no uplink BS to include
    cfg = SimulationConfig(
        utilizations=(0.5,), snapshots_per_point=1000, schemes=("jt", "jt_ds"),
        traffic=TrafficConfig(dl_probability=1.0, require_mixed_traffic=False),
        master_seed=SEED)
    assert_identical_scheme_records(run_sweep(cfg).records)
    # (c) a back-off at least V_ul_max (<= N = 16) zeroes the participation
    cfg = SimulationConfig(utilizations=(0.5,), snapshots_per_point=1000,
                           schemes=("jt", "jt_ds"), delta=16, master_seed=SEED)
    assert_identical_scheme_records(run_sweep(cfg).records)
    print("\nPASS criterion 3: JT-DS records identical to JT at full load, "
          "downlink-only traffic, and delta >= V_ul_max")


def test_c04_included_bs_uplink_dominance():
    # the 1000 scenes are evaluated as the sweep evaluates a chunk: grouped
    # by shape, one stacked call per layer and group (the per-snapshot
    # reference gives the same bits, test_every_row_is_its_snapshot_evaluation)
    scenes = [random_scene(seed=seed, utilization=0.75) for seed in range(1000)]
    params = scenes[0][2]
    snaps = [snap for snap, _, _ in scenes]
    shapes = {}
    for i, snap in enumerate(snaps):
        shapes.setdefault((snap.k_dl, snap.n_dl_count, snap.k_ul, snap.n_ul_count), []).append(i)
    groups = [(members, _stack(SnapshotGroup, [snaps[i] for i in members]),
               _stack(ChannelRealization, [scenes[i][1] for i in members]))
              for members in shapes.values()]
    evaluations = _evaluate_chunk(groups, params, ("jt", "jt_ds"), 0)
    checked = 0
    for (members, group, chan), results in zip(groups, evaluations):
        # each evaluation's (dl, ul) SINRs and rate sums, [B, ..] over the group
        (_, (_, jt), jt_rates), (_, (_, jt_ds), jt_ds_rates) = results["jt"], results["jt_ds"]
        for row, (i, base) in enumerate(zip(members, baseline_sinrs(group, chan, params)[1])):
            snap = snaps[i]
            v = v_ul(0, v_ul_max(snap.n_ul_count, snap.n_dl_count, snap.k_dl))
            selected = set(select_uplink_bs(base, v).tolist())
            for slot in range(snap.k_ul):
                if slot in selected:
                    # a failed evaluation is a NaN row, not a result
                    assert not np.isnan(jt_rates[-1][row])
                    assert not np.isnan(jt_ds_rates[-1][row])
                    assert jt_ds[row, slot] >= jt[row, slot] * (1.0 - 1e-9)
                    checked += 1
    assert checked > 1000
    print(f"\nPASS criterion 4: uplink SINR of every included BS dominates JT "
          f"({checked} UE checks over 1000 snapshots)")


def test_c05_uplink_gain_of_jt_ds(fig_low_run):
    result, elapsed = fig_low_run
    assert elapsed < 300.0
    for utilization in (0.25, 0.5):
        ul_base, _, _ = rates(result.records, "baseline", utilization)
        ul_jt, _, _ = rates(result.records, "jt", utilization)
        ul_jtds, _, _ = rates(result.records, "jt_ds", utilization)
        for rival, name in ((ul_base, "baseline"), (ul_jt, "jt")):
            diffs = ul_jtds - rival
            assert diffs.mean() > paired_margin(diffs), (
                f"jt_ds uplink not above {name} at u={utilization}")
    print(f"\nPASS criterion 5: mean uplink sum-rate jt_ds > baseline and "
          f"jt_ds > jt at u=0.25 and u=0.5 beyond 2x paired SE ({elapsed:.0f}s)")


def test_c06_downlink_gain_low_load_and_jt_advantage_high_load(
        fig_low_run, delta_sweep):
    result, _ = fig_low_run
    _, dl_base, _ = rates(result.records, "baseline", 0.25)
    _, dl_jt, _ = rates(result.records, "jt", 0.25)
    _, dl_jtds, _ = rates(result.records, "jt_ds", 0.25)
    for scheme_dl, name in ((dl_jt, "jt"), (dl_jtds, "jt_ds")):
        diffs = scheme_dl - dl_base
        assert diffs.mean() > paired_margin(diffs), (
            f"{name} downlink not above baseline at u=0.25")
    _, dl_jt_hi, _ = rates(delta_sweep[0], "jt", 0.75)
    _, dl_jtds_hi, _ = rates(delta_sweep[0], "jt_ds", 0.75)
    diffs = dl_jt_hi - dl_jtds_hi
    assert diffs.mean() > paired_margin(diffs)
    print("\nPASS criterion 6: downlink jt and jt_ds > baseline at u=0.25; "
          "jt >= jt_ds at u=0.75, beyond 2x paired SE")


def test_c07_delta_trades_uplink_for_downlink(delta_sweep):
    for delta in range(4):
        ul_lo, dl_lo, _ = rates(delta_sweep[delta], "jt_ds", 0.75)
        ul_hi, dl_hi, _ = rates(delta_sweep[delta + 1], "jt_ds", 0.75)
        n = min(len(ul_lo), len(ul_hi))
        d_ul = ul_hi[:n] - ul_lo[:n]
        d_dl = dl_hi[:n] - dl_lo[:n]
        assert d_ul.mean() <= paired_margin(d_ul), (
            f"uplink sum-rate rose from delta={delta} to {delta + 1}")
        assert d_dl.mean() >= -paired_margin(d_dl), (
            f"downlink sum-rate fell from delta={delta} to {delta + 1}")
    print("\nPASS criterion 7: raising delta 0->4 at u=0.75 monotonically "
          "trades uplink sum-rate for downlink sum-rate (2x SE per step)")


def test_c08_noise_power_value():
    got = noise_power(10e6, 9.0)
    assert math.isclose(got, 3.162e-13, rel_tol=1e-3)
    print(f"\nPASS criterion 8: noise_power(10 MHz, 9 dB) = {got:.4e} W "
          "(within 0.1% of 3.162e-13)")


def test_c09_worker_count_determinism(tmp_path):
    # 100 tasks: one chunk of 50 per point on one worker; in a pool of 4,
    # each worker gets at least one chunk, here two of 25 per point
    base = dict(utilizations=(0.25, 0.75), snapshots_per_point=50,
                master_seed=SEED)
    write_results(run_sweep(SimulationConfig(worker_count=1, **base)),
                  tmp_path / "w1")
    write_results(run_sweep(SimulationConfig(worker_count=4, **base)),
                  tmp_path / "w4")
    for name in ("records.csv", "summary.json"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w4" / name).read_bytes()
    print("\nPASS criterion 9: records.csv and summary.json byte-identical for "
          "1 vs 4 workers")


def test_c10_statistical_sanity():
    # fading: mean |h|^2 over path gain at 1e5 samples
    pl = 57.54119982655925
    h = draw_channel(np.full(100_000, pl), np.random.default_rng(SEED))
    ratio = float(np.mean(np.abs(h) ** 2) / 10 ** (-pl / 10.0))
    assert 0.98 <= ratio <= 1.02
    # direction split over 1e4 snapshots without the mixed filter
    topo = build_grid(16, 40.0)
    traffic = TrafficConfig(require_mixed_traffic=False)
    dl = total = 0
    for seed in range(10_000):
        snap = generate_snapshot(topo, 0.5, traffic, np.random.default_rng(seed))
        dl += snap.k_dl
        total += snap.k
    split = dl / total
    assert 0.48 <= split <= 0.52
    print(f"\nPASS criterion 10: fading mean-power ratio {ratio:.4f} in "
          f"[0.98, 1.02]; downlink share {split:.4f} in [0.48, 0.52]")
