import numpy as np
import pytest

from dtddsim import (ConfigurationError, SimulationConfig, TrafficConfig, build_grid,
                     generate_snapshot)
from dtddsim.snapshot import traffic_load

from conftest import random_scene


def test_traffic_config_validation():
    for utilization in (0.0, 1.2, float("nan")):
        with pytest.raises(ConfigurationError, match="must be in"):
            traffic_load(utilization, 16, TrafficConfig())
    with pytest.raises(ConfigurationError):
        TrafficConfig(dl_probability=1.5)


def test_partition_properties_hold():
    for seed in range(100):
        snap, _, _ = random_scene(seed=seed, utilization=0.5, require_mixed=False)
        serving = snap.ue_placement.serving_bs
        assert snap.k_dl + snap.k_ul == snap.k == 8
        assert set(snap.ul_bs.tolist()) == set(serving[snap.ul_ues].tolist())
        assert set(snap.n_dl.tolist()) == set(range(16)) - set(snap.ul_bs.tolist())
        assert not set(snap.n_dl.tolist()) & set(snap.ul_bs.tolist())
        assert snap.n_dl_count + snap.n_ul_count == 16


def test_full_load_partition_is_exhaustive():
    topo = build_grid(16, 40.0)
    snap = generate_snapshot(topo, 1.0, TrafficConfig(require_mixed_traffic=False),
                             np.random.default_rng(0))
    assert snap.k == 16
    assert snap.n_dl_count + snap.n_ul_count == 16


def test_forced_all_downlink():
    topo = build_grid(16, 40.0)
    snap = generate_snapshot(topo, 0.25, TrafficConfig(dl_probability=1.0,
                                                       require_mixed_traffic=False),
                             np.random.default_rng(0))
    assert (snap.k, snap.k_dl, snap.k_ul) == (4, 4, 0)
    assert snap.n_dl_count == 16


def test_mixed_filter_guarantees_both_directions():
    topo = build_grid(16, 40.0)
    traffic = TrafficConfig(require_mixed_traffic=True)
    for seed in range(300):
        snap = generate_snapshot(topo, 0.5, traffic, np.random.default_rng(seed))
        assert snap.k_dl >= 1 and snap.k_ul >= 1


def test_mixed_traffic_impossible_cases_rejected():
    topo = build_grid(16, 40.0)
    with pytest.raises(ConfigurationError):
        generate_snapshot(topo, 1 / 16, TrafficConfig(require_mixed_traffic=True),
                          np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        generate_snapshot(topo, 0.5, TrafficConfig(dl_probability=1.0,
                                                   require_mixed_traffic=True),
                          np.random.default_rng(0))
    # valid probabilities whose mixed draw is all but impossible: the
    # direction redraw would practically never end
    for dl_probability in (1e-300, 1 - 2**-53):
        traffic = TrafficConfig(dl_probability=dl_probability)
        for utilization in (0.125, 1.0):
            with pytest.raises(ConfigurationError, match="1e-06"):
                traffic_load(utilization, 16, traffic)
        with pytest.raises(ConfigurationError, match="dl_probability"):
            SimulationConfig(traffic=traffic)
    # 1 - p^2 - (1 - p)^2 = 2e-4 - 2e-8 at K = 2 is rare but drawable
    assert traffic_load(0.125, 16, TrafficConfig(dl_probability=1e-4)) == 2


def test_k_rounds_half_up():
    topo = build_grid(16, 40.0)
    cases = {0.5: 8, 0.1: 2, 0.25: 4, 1 / 16: 1, 0.09: 1}  # 0.1*16=1.6 -> 2
    for utilization, expected_k in cases.items():
        snap = generate_snapshot(topo, utilization,
                                 TrafficConfig(require_mixed_traffic=False),
                                 np.random.default_rng(1))
        assert snap.k == expected_k


def test_zero_active_ues_rejected():
    topo = build_grid(16, 40.0)
    with pytest.raises(ConfigurationError):
        generate_snapshot(topo, 0.01, TrafficConfig(require_mixed_traffic=False),
                          np.random.default_rng(0))


def test_mixed_filter_redraws_directions_only():
    # positions are drawn before directions, so enabling the filter can
    # never move a UE
    topo = build_grid(16, 40.0)
    for seed in range(50):
        free = generate_snapshot(topo, 0.25, TrafficConfig(require_mixed_traffic=False),
                                 np.random.default_rng(seed))
        mixed = generate_snapshot(topo, 0.25, TrafficConfig(require_mixed_traffic=True),
                                  np.random.default_rng(seed))
        np.testing.assert_array_equal(free.ue_placement.positions,
                                      mixed.ue_placement.positions)
        assert mixed.k_dl >= 1 and mixed.k_ul >= 1
