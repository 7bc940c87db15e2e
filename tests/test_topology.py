import numpy as np
import pytest

from dtddsim import ConfigurationError, build_grid, drop_ues
from dtddsim.channel import path_loss_db
import dtddsim.topology as topology
from dtddsim.topology import pairwise_distances


def test_single_bs_sits_at_area_center():
    topo = build_grid(1, 40.0)
    np.testing.assert_allclose(topo.bs_positions, [[20.0, 20.0]])


def test_4x4_grid_matches_cell_center_formula():
    topo = build_grid(16, 40.0)
    # independent evaluation of the cell-center rule, row-major
    expected = []
    for row in range(4):
        for col in range(4):
            expected.append([(col + 0.5) * 10.0, (row + 0.5) * 10.0])
    np.testing.assert_allclose(topo.bs_positions, expected)
    np.testing.assert_allclose(topo.bs_positions[0], [5.0, 5.0])
    np.testing.assert_allclose(topo.bs_positions[15], [35.0, 35.0])
    assert topo.spacing == 10.0


@pytest.mark.parametrize("n", [3, 0, -4, 5])
def test_non_square_bs_count_rejected(n):
    with pytest.raises(ConfigurationError):
        build_grid(n, 40.0)


@pytest.mark.parametrize("area_side", [float("nan"), float("inf"), 0.0, -1.0])
def test_area_must_be_positive_and_finite(area_side):
    with pytest.raises(ConfigurationError, match="area_side"):
        build_grid(16, area_side)


def test_pairwise_distances_basic():
    a = np.array([[0.0, 0.0], [3.0, 4.0]])
    b = np.array([[0.0, 0.0]])
    np.testing.assert_allclose(pairwise_distances(a, b), [[0.0], [5.0]])


def test_single_bs_single_ue():
    topo = build_grid(1, 40.0)
    placement = drop_ues(topo, 1, np.random.default_rng(0))
    assert placement.serving_bs.tolist() == [0]


def test_full_load_is_permutation():
    topo = build_grid(16, 40.0)
    placement = drop_ues(topo, 16, np.random.default_rng(1))
    assert sorted(placement.serving_bs.tolist()) == list(range(16))


def test_association_is_strongest_bs_with_index_tiebreak():
    topo = build_grid(16, 40.0)
    for seed in range(20):
        placement = drop_ues(topo, 10, np.random.default_rng(seed))
        for pos, bs in zip(placement.positions, placement.serving_bs):
            d = np.linalg.norm(topo.bs_positions - pos, axis=1)
            pl = path_loss_db(d, 2.0)
            assert np.all(pl >= pl[bs] - 1e-12)
            ties = np.flatnonzero(np.isclose(pl, pl[bs]))
            assert ties.min() == bs


def test_tiebreak_prefers_lowest_index_under_clamp():
    # every point of the 2 m area is within the 3 m path-loss clamp of all
    # four BSs, so their path losses tie exactly and the lower index must win
    topo = build_grid(4, 2.0)
    np.testing.assert_array_equal(topo.bs_positions,
                                  [[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [1.5, 1.5]])
    for seed in range(5):
        assert drop_ues(topo, 1, np.random.default_rng(seed)).serving_bs[0] == 0


def test_prefix_stable_under_redraws():
    # UE j's draws depend only on UEs 0..j, so a longer drop extends a
    # shorter one drawn from the same stream
    topo = build_grid(16, 40.0)
    for seed in range(10):
        short = drop_ues(topo, 5, np.random.default_rng(seed))
        full = drop_ues(topo, 16, np.random.default_rng(seed))
        np.testing.assert_array_equal(short.positions, full.positions[:5])
        np.testing.assert_array_equal(short.serving_bs, full.serving_bs[:5])


def test_too_many_ues_rejected():
    topo = build_grid(4, 40.0)
    with pytest.raises(ConfigurationError):
        drop_ues(topo, 5, np.random.default_rng(0))


def test_drop_window_size_does_not_change_the_drop(monkeypatch):
    # the batched drop steps through its candidates in windows bounded by
    # DROP_WINDOW; one candidate per step must give the same drops and streams
    topo = build_grid(16, 40.0)
    wide = [np.random.default_rng(seed) for seed in range(8)]
    want = drop_ues(topo, 16, wide)
    monkeypatch.setattr(topology, "DROP_WINDOW", 1)
    narrow = [np.random.default_rng(seed) for seed in range(8)]
    got = drop_ues(topo, 16, narrow)
    assert got.positions.tobytes() == want.positions.tobytes()
    assert got.serving_bs.tobytes() == want.serving_bs.tobytes()
    assert [r.bit_generator.state for r in narrow] == [r.bit_generator.state for r in wide]
