import math

import numpy as np
import pytest

from dtddsim import (ChannelRealization, ConfigurationError, RadioParams,
                     Snapshot, UePlacement, aggregate, assemble_m,
                     baseline_sinrs, build_channel_realization, build_grid,
                     build_precoder, evaluate_snapshot, jt_sinrs, solve_power_lp,
                     v_ul, v_ul_max, zf_precoder)
from dtddsim.harness import RECORD_DTYPE, SCHEMES
from dtddsim.metrics import snapshot_metrics

from conftest import random_scene

SIGMA2 = 3.1622776601683794e-13  # noise_power(10 MHz, 9 dB)


def channel_of(h_dl=None, f_bs=None, g_ue=None, h_ul=None, n_dl_count=1):
    k_dl = 0 if h_dl is None else np.asarray(h_dl).shape[0]
    k_ul = 0 if h_ul is None else np.asarray(h_ul).shape[0]
    return ChannelRealization(
        h_dl=np.zeros((k_dl, n_dl_count), complex) if h_dl is None else np.asarray(h_dl, complex),
        f_bs=np.zeros((k_ul, n_dl_count), complex) if f_bs is None else np.asarray(f_bs, complex),
        g_ue=np.zeros((k_dl, k_ul), complex) if g_ue is None else np.asarray(g_ue, complex),
        h_ul=np.zeros((k_ul, k_ul), complex) if h_ul is None else np.asarray(h_ul, complex),
    )


def sinrs_of(chan, w, p):
    """jt_sinrs on a channel_of channel: UE i < K_dl is downlink slot i, the
    rest are the uplink slots; default radio (P_u = 0.1 W, noise SIGMA2)."""
    k_dl, k = len(chan.h_dl), len(chan.h_dl) + len(chan.h_ul)
    snap = Snapshot(ue_placement=UePlacement(np.zeros((k, 2)), np.arange(k)),
                    is_downlink=np.arange(k) < k_dl, n_bs=k)
    return jt_sinrs(snap, chan, RadioParams(), np.asarray(w), np.asarray(p))


def test_downlink_sinr_interference_free_point():
    # |h^H w|^2 p = 1e-10 W over sigma^2 = 10^-12.5 W -> gamma = 10^2.5
    chan = channel_of(h_dl=[[1.0]])
    gamma = sinrs_of(chan, [[1.0 + 0j]], [1e-10])[0]
    assert math.isclose(gamma, 316.22776601683796, rel_tol=1e-9)


def test_downlink_sinr_zero_power_gives_zero():
    chan = channel_of(h_dl=[[0.5 + 0.1j]])
    assert sinrs_of(chan, [[1.0 + 0j]], [0.0])[0] == 0.0


def test_downlink_sinr_with_ue_to_ue_interference():
    g = 2e-4 + 1e-4j
    chan = channel_of(h_dl=[[1.0]], g_ue=[[g]], h_ul=[[1.0]], f_bs=[[0.0]])
    gamma = sinrs_of(chan, [[1.0 + 0j]], [1e-10])[0]
    expected = 1e-10 / (SIGMA2 + abs(g) ** 2 * 0.1)
    assert math.isclose(gamma, expected, rel_tol=1e-12)


def test_downlink_zf_leakage_is_negligible():
    rng = np.random.default_rng(8)
    for _ in range(20):
        h = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        w = zf_precoder(np.conj(h))
        p = np.array([0.03, 0.07])
        chan = channel_of(h_dl=h, n_dl_count=6)
        for i in range(2):
            hw = np.conj(h[i]) @ w
            desired = abs(hw[i]) ** 2 * p[i]
            leak = abs(hw[1 - i]) ** 2 * p[1 - i]
            assert leak < 1e-15 * desired
            gamma = sinrs_of(chan, w, p)[i]
            assert math.isclose(gamma, desired / (SIGMA2 + leak), rel_tol=1e-12)


def test_uplink_sinr_single_ue_no_downlink():
    h = 3e-4 - 2e-4j
    chan = channel_of(h_ul=[[h]], f_bs=[[0.0]], n_dl_count=1)
    w = np.zeros((1, 0), complex)
    p = np.zeros(0)
    gamma = sinrs_of(chan, w, p)[0]
    assert math.isclose(gamma, abs(h) ** 2 * 0.1 / SIGMA2, rel_tol=1e-12)


def test_uplink_sinr_two_ues_no_downlink():
    # gamma_j = |h_jj|^2 / (sigma^2/P_u + |h_lj|^2)
    h = np.array([[3e-4, 1e-5], [2e-5, 4e-4]], complex)
    chan = channel_of(h_ul=h, f_bs=np.zeros((2, 1)), n_dl_count=1)
    w = np.zeros((1, 0), complex)
    p = np.zeros(0)
    for j in range(2):
        got = sinrs_of(chan, w, p)[j]
        want = abs(h[j, j]) ** 2 / (SIGMA2 / 0.1 + abs(h[1 - j, j]) ** 2)
        assert math.isclose(got, want, rel_tol=1e-12)


def test_uplink_sinr_included_bs_precoder_term_nulled():
    checked = 0
    for seed in range(40):
        snap, chan, params = random_scene(seed=seed, utilization=0.5)
        base = baseline_sinrs(snap, chan, params)
        v = v_ul(0, v_ul_max(snap.n_ul_count, snap.n_dl_count, snap.k_dl))
        w, ul_rows = build_precoder(snap, chan, v, base)
        m = assemble_m(chan, ul_rows)
        if np.linalg.cond(m) > 100:
            continue
        p = solve_power_lp(w, params.p_b_max_w, snap.k_dl)
        for slot in range(snap.k_ul):
            if slot in ul_rows:
                leak = float(np.abs(np.conj(chan.f_bs[slot]) @ w) ** 2 @ p)
                assert leak < 1e-15 * params.noise_power_w
                checked += 1
    assert checked > 20


def manual_scene(positions, serving, is_downlink, seed=0):
    topo = build_grid(16, 40.0)
    placement = UePlacement(positions=np.asarray(positions, float),
                            serving_bs=np.asarray(serving, int))
    snap = Snapshot(ue_placement=placement, is_downlink=np.asarray(is_downlink),
                    n_bs=16)
    params = RadioParams()
    chan = build_channel_realization(snap, topo, params, np.random.default_rng(seed))
    return snap, chan, params


def test_baseline_single_downlink_ue_interference_free():
    snap, chan, params = manual_scene([[6.0, 4.0]], [0], [True])
    own_col = int(np.flatnonzero(snap.n_dl == 0)[0])
    expected = abs(chan.h_dl[0, own_col]) ** 2 * 0.1 / params.noise_power_w
    got = baseline_sinrs(snap, chan, params)[0]
    assert math.isclose(got, expected, rel_tol=1e-12)


def test_baseline_single_uplink_ue_interference_free():
    snap, chan, params = manual_scene([[6.0, 4.0]], [0], [False])
    expected = abs(chan.h_ul[0, 0]) ** 2 * 0.1 / params.noise_power_w
    got = baseline_sinrs(snap, chan, params)[0]
    assert math.isclose(got, expected, rel_tol=1e-12)


def test_baseline_one_dl_one_ul_interference_terms():
    # UE 0 downlink on BS 0, UE 1 uplink on BS 5: the uplink BS sees exactly
    # one BS-to-BS term at P_b and the downlink UE exactly one UE-to-UE term
    snap, chan, params = manual_scene([[6.0, 4.0], [15.0, 14.0]], [0, 5],
                                      [True, False])
    sinrs = baseline_sinrs(snap, chan, params)
    sigma2 = params.noise_power_w
    col0 = int(np.flatnonzero(snap.n_dl == 0)[0])
    dl_expected = (abs(chan.h_dl[0, col0]) ** 2 * 0.1
                   / (sigma2 + abs(chan.g_ue[0, 0]) ** 2 * 0.1))
    ul_expected = (abs(chan.h_ul[0, 0]) ** 2 * 0.1
                   / (sigma2 + abs(chan.f_bs[0, col0]) ** 2 * 0.1))
    assert math.isclose(sinrs[0], dl_expected, rel_tol=1e-12)
    assert math.isclose(sinrs[1], ul_expected, rel_tol=1e-12)


def test_uplink_only_matches_baseline_when_no_downlink():
    # uplink-only operation is joint transmission with no precoder columns
    snap, chan, params = random_scene(seed=5, dl_probability=0.0, require_mixed=False)
    uplink_only = jt_sinrs(snap, chan, params, np.zeros((snap.n_dl_count, 0)), np.zeros(0))
    np.testing.assert_allclose(uplink_only, baseline_sinrs(snap, chan, params), rtol=1e-15)


def test_rate_log2_consistency():
    snap, chan, params = manual_scene([[6.0, 4.0]], [0], [True])
    m = snapshot_metrics(snap, np.array([1.0]), 1e7)
    assert m.sum_rate_bps == m.dl_sum_rate_bps + m.ul_sum_rate_bps == 1e7


def test_sum_rate_split_is_exact():
    # also pins evaluate_snapshot's return: schemes in SCHEMES order, an int
    # V_ul, one float64 SINR per UE and Python-float sums
    for seed in range(10):
        snap, chan, params = random_scene(seed=seed, utilization=0.75)
        evaluation = evaluate_snapshot(snap, chan, params)
        assert tuple(evaluation) == SCHEMES
        for v, m in evaluation.values():
            assert type(v) is int
            assert m.per_ue_sinr.shape == (snap.k,) and m.per_ue_sinr.dtype == np.float64
            sums = (m.dl_sum_rate_bps, m.ul_sum_rate_bps, m.sum_rate_bps)
            assert all(type(x) is float for x in sums)
            assert m.sum_rate_bps == m.dl_sum_rate_bps + m.ul_sum_rate_bps
            assert np.all(m.per_ue_sinr >= 0)


def make_metrics(values):
    records = np.zeros(len(values), dtype=RECORD_DTYPE).view(np.recarray)
    records.sum_rate_bps = values
    return records


def test_aggregate_degenerate_distribution():
    s = aggregate(make_metrics([7e6] * 30), k=4)
    assert math.isclose(s.mean_sum_rate_bps, 7e6, rel_tol=1e-12)
    assert math.isclose(s.fifth_percentile_user_rate_bps, 7e6 / 4, rel_tol=1e-12)


def test_aggregate_percentile_linear_interpolation():
    s = aggregate(make_metrics(range(1, 101)), k=1)
    assert math.isclose(s.fifth_percentile_user_rate_bps, 5.95, rel_tol=1e-12)


def test_aggregate_mean_of_two():
    s = aggregate(make_metrics([2.0, 4.0]), k=1)
    assert s.mean_sum_rate_bps == 3.0


def test_aggregate_rejects_empty():
    with pytest.raises(ConfigurationError):
        aggregate([], k=4)


def test_aggregate_reads_contiguous_copies_of_the_rate_columns():
    # the sweep's table is a record array, so each rate column is a strided
    # view; past numpy's 8192-element reduction buffer a strided column sums
    # in another order than a contiguous one (10 000 is the CLI's default
    # snapshots per point), and the means must not depend on that layout
    rng = np.random.default_rng(2)
    records = np.zeros(10_000, dtype=RECORD_DTYPE).view(np.recarray)
    records.dl_sum_rate_bps = rng.uniform(0.0, 2e8, len(records))
    records.ul_sum_rate_bps = rng.uniform(0.0, 2e8, len(records))
    records.sum_rate_bps = records.dl_sum_rate_bps + records.ul_sum_rate_bps
    columns = [records.sum_rate_bps, records.dl_sum_rate_bps, records.ul_sum_rate_bps]
    total, dl, ul = (np.array(column) for column in columns)
    # the test only has power if the layouts disagree on this draw
    assert [c.mean() for c in columns] != [total.mean(), dl.mean(), ul.mean()]
    s = aggregate(records, k=4)
    got = np.array([s.mean_sum_rate_bps, s.mean_dl_sum_rate_bps, s.mean_ul_sum_rate_bps,
                    s.fifth_percentile_user_rate_bps])
    want = np.array([total.mean(), dl.mean(), ul.mean(), np.percentile(total, 5.0) / 4])
    assert got.tobytes() == want.tobytes()


def test_jt_ds_equals_jt_when_no_uplink_bs_fits():
    # full load leaves no spare antennas, so both pipelines are bit-identical
    for seed in range(20):
        snap, chan, params = random_scene(seed=seed, utilization=1.0)
        _, jt = evaluate_snapshot(snap, chan, params, ("jt",))["jt"]
        _, jt_ds = evaluate_snapshot(snap, chan, params, ("jt_ds",))["jt_ds"]
        assert v_ul_max(snap.n_ul_count, snap.n_dl_count, snap.k_dl) == 0
        np.testing.assert_array_equal(jt.per_ue_sinr, jt_ds.per_ue_sinr)
        assert jt.sum_rate_bps == jt_ds.sum_rate_bps


def test_jt_ds_equals_jt_for_downlink_only_traffic():
    for seed in range(20):
        snap, chan, params = random_scene(seed=seed, dl_probability=1.0,
                                          require_mixed=False)
        _, jt = evaluate_snapshot(snap, chan, params, ("jt",))["jt"]
        _, jt_ds = evaluate_snapshot(snap, chan, params, ("jt_ds",))["jt_ds"]
        np.testing.assert_array_equal(jt.per_ue_sinr, jt_ds.per_ue_sinr)


def test_jt_sinrs_cover_every_ue():
    snap, chan, params = random_scene(seed=33, utilization=0.5)
    w, _ = build_precoder(snap, chan, 0)
    p = solve_power_lp(w, params.p_b_max_w, snap.k_dl)
    sinrs = jt_sinrs(snap, chan, params, w, p)
    assert sinrs.shape == (snap.k,)
    # the LP may starve a downlink UE at a vertex optimum; uplink UEs always
    # transmit at P_u
    assert np.all(sinrs >= 0)
    assert np.all(sinrs[snap.ul_ues] > 0)
