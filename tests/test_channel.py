import math
import warnings

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


@pytest.mark.parametrize("field, value", [
    ("carrier_freq_ghz", 1e300),  # every path gain underflows to 0
    ("carrier_freq_ghz", 1e-300),  # the path gain at 3 m overflows
    ("carrier_freq_ghz", 5e-324),  # carrier / 5 underflows to 0: an infinite gain
    ("bandwidth_hz", 1e-300),  # the received power over the noise overflows
    ("noise_figure_db", 1e300),  # ... or underflows to 0
    ("p_u_max_w", 1e-320),  # a subnormal received power over the noise
    ("noise_figure_db", 3400.0),  # the noise power overflows
])
def test_radio_params_refuse_a_link_budget_a_float_cannot_carry(field, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="must be normal floats"):
            RadioParams(**{field: value})


def test_radio_params_accept_a_wide_finite_link_budget():
    for radio in (RadioParams(), RadioParams(carrier_freq_ghz=1e-10),
                  RadioParams(p_b_max_w=1e-250, p_u_max_w=1e-250),
                  RadioParams(bandwidth_hz=1e200, noise_figure_db=1e3)):
        assert 0 < radio.noise_power_w < math.inf


def test_unit_path_loss_gives_exponential_power():
    rng = np.random.default_rng(7)
    power = np.abs(draw_channel(np.zeros(100_000), rng)) ** 2
    assert 0.98 <= power.mean() <= 1.02
    # exponential(1): variance 1, median ln 2
    assert 0.9 <= power.var() <= 1.1
    assert math.isclose(np.median(power), math.log(2.0), rel_tol=0.03)


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
