import math

import numpy as np
import pytest

from dtddsim import (ConfigurationError, RadioParams, Snapshot, UePlacement,
                     build_channel_realization, build_grid, draw_channel,
                     noise_power, path_loss_db)

from conftest import random_scene


def test_path_loss_10m_2ghz():
    # by hand: 18.7*log10(10) + 46.8 + 20*log10(2/5) = 65.5 - 7.9588 dB
    assert math.isclose(path_loss_db(10.0, 2.0), 57.54119982655925, rel_tol=1e-12)


def test_distance_clamped_to_3m_floor():
    assert path_loss_db(1.0, 2.0) == path_loss_db(3.0, 2.0)
    assert path_loss_db(0.0, 2.0) == path_loss_db(3.0, 2.0)


def test_distance_clamped_to_100m_ceiling():
    assert path_loss_db(250.0, 2.0) == path_loss_db(100.0, 2.0)


def test_slope_is_18p7_db_per_decade():
    assert math.isclose(path_loss_db(50.0, 2.0) - path_loss_db(5.0, 2.0), 18.7,
                        abs_tol=1e-9)


def test_path_loss_accepts_arrays():
    pl = path_loss_db(np.array([10.0, 10.0]), 2.0)
    np.testing.assert_allclose(pl, 57.54119982655925)


def test_noise_power_10mhz_9db():
    # -174 + 70 + 9 = -95 dBm
    assert math.isclose(noise_power(10e6, 9.0), 3.162277660168379e-13, rel_tol=1e-3)


def test_noise_power_without_figure():
    # -174 + 70 = -104 dBm
    assert math.isclose(noise_power(10e6, 0.0), 10 ** ((-104.0 - 30.0) / 10.0),
                        rel_tol=1e-12)


def test_noise_floor_1hz():
    assert math.isclose(noise_power(1.0, 0.0), 10 ** ((-174.0 - 30.0) / 10.0),
                        rel_tol=1e-12)


def test_radio_params_validation():
    with pytest.raises(ConfigurationError):
        RadioParams(bandwidth_hz=0.0)
    with pytest.raises(ConfigurationError):
        RadioParams(p_b_max_w=-0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            RadioParams(p_b_max_w=bad)
        with pytest.raises(ConfigurationError):
            RadioParams(p_u_max_w=bad)


def test_fading_mean_power_matches_path_gain():
    pl = 57.54119982655925
    rng = np.random.default_rng(123)
    h = draw_channel(np.full(100_000, pl), rng)
    ratio = np.mean(np.abs(h) ** 2) / 10 ** (-pl / 10.0)
    assert 0.98 <= ratio <= 1.02


def test_unit_path_loss_gives_exponential_power():
    rng = np.random.default_rng(7)
    power = np.abs(draw_channel(np.zeros(100_000), rng)) ** 2
    assert 0.98 <= power.mean() <= 1.02
    # exponential(1): variance 1, median ln 2
    assert 0.9 <= power.var() <= 1.1
    assert math.isclose(np.median(power), math.log(2.0), rel_tol=0.03)


def test_draw_channel_deterministic():
    a = draw_channel(np.full(16, 60.0), np.random.default_rng(5))
    b = draw_channel(np.full(16, 60.0), np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def test_realization_shapes():
    snap, chan, _ = random_scene(seed=3, utilization=0.75)
    assert chan.h_dl.shape == (snap.k_dl, snap.n_dl_count)
    assert chan.f_bs.shape == (snap.n_ul_count, snap.n_dl_count)
    assert chan.g_ue.shape == (snap.k_dl, snap.k_ul)
    assert chan.h_ul.shape == (snap.k_ul, snap.n_ul_count)
    assert snap.n_ul_count == snap.k_ul
    assert snap.n_dl_count == 16 - snap.k_ul


def test_all_downlink_gives_empty_uplink_matrices():
    snap, chan, _ = random_scene(seed=1, dl_probability=1.0, require_mixed=False)
    assert chan.f_bs.shape == (0, 16)
    assert chan.g_ue.shape == (snap.k_dl, 0)
    assert chan.h_ul.shape == (0, 0)


def test_all_uplink_gives_empty_downlink_matrices():
    snap, chan, _ = random_scene(seed=1, dl_probability=0.0, require_mixed=False)
    assert chan.h_dl.shape == (0, 16 - snap.k_ul)
    assert chan.g_ue.shape == (0, snap.k_ul)


def test_realization_deterministic_for_same_snapshot_and_seed():
    topo = build_grid(16, 40.0)
    snap, _, params = random_scene(seed=9)
    a = build_channel_realization(snap, topo, params, np.random.default_rng(77))
    b = build_channel_realization(snap, topo, params, np.random.default_rng(77))
    for name in ("h_dl", "f_bs", "g_ue", "h_ul"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_adjacent_bs_link_mean_power():
    # BS 0 receives uplink; BS 1 is 10 m away in the downlink array, so the
    # f_bs entry averages 10^(-PL(10 m)/10) over fading
    topo = build_grid(16, 40.0)
    params = RadioParams()
    placement = UePlacement(positions=np.array([[5.0, 5.0]]), serving_bs=np.array([0]))
    snap = Snapshot(ue_placement=placement, is_downlink=np.array([False]), n_bs=16)
    col_bs1 = int(np.flatnonzero(snap.n_dl == 1)[0])
    rng = np.random.default_rng(2024)
    powers = [np.abs(build_channel_realization(snap, topo, params, rng).f_bs[0, col_bs1]) ** 2
              for _ in range(20_000)]
    expected = 10 ** (-path_loss_db(10.0, 2.0) / 10.0)  # = 10^-5.754
    assert math.isclose(np.mean(powers), expected, rel_tol=0.03)
