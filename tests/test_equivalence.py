"""The array-shaped computations against their one-at-a-time oracles.

SINRs are compared within a tolerance fixed from the float64 epsilon: the
matrix form sums in another order, and the oracle's baseline takes the
interference as row total minus the desired term, which is off by up to a
few ulp of the desired power, i.e. a few eps * (1 + SINR) relative. The
channel draw, the UE drop and the simplex do the same arithmetic as their
oracles, so they must agree exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import oracles
from conftest import random_scene
from dtddsim import (RadioParams, SingularChannelError, Topology, TrafficConfig,
                     baseline_sinrs, build_channel_realization, build_grid,
                     build_precoder, draw_channel, drop_ues, generate_snapshot,
                     jt_sinrs, path_loss_db, solve_power_lp, v_ul, v_ul_max)
from dtddsim.power import _simplex_max
from dtddsim.topology import pairwise_distances

EPS = np.finfo(float).eps
RTOL = 1e-12  # thousands of eps: summation order moves a SINR by tens of eps

seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=150, deadline=None)
@given(seed=seeds, k=st.integers(1, 16),
       dl_probability=st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]))
def test_matrix_sinr_matches_per_ue_oracle(seed, k, dl_probability):
    snap, chan, params = random_scene(seed, utilization=k / 16,
                                      dl_probability=dl_probability,
                                      require_mixed=False)
    base = baseline_sinrs(snap, chan, params)
    want = oracles.baseline_sinrs(snap, chan, params)
    assert np.all(np.abs(base - want) <= (RTOL + 8 * EPS * (1 + want)) * want)

    if snap.k_dl == 0:
        got = jt_sinrs(snap, chan, params, np.zeros((snap.n_dl_count, 0)), np.zeros(0))
        np.testing.assert_allclose(got, oracles.uplink_only_sinrs(snap, chan, params),
                                   rtol=RTOL, atol=0)
        return
    v_max = v_ul_max(snap.n_ul_count, snap.n_dl_count, snap.k_dl)
    for v in {0, v_ul(0, v_max)}:  # JT, then JT-DS with its dummy streams
        try:
            precoder = build_precoder(snap, chan, v, base)
        except SingularChannelError:
            continue
        p = solve_power_lp(precoder.w, params.p_b_max_w, snap.k_dl)
        np.testing.assert_allclose(jt_sinrs(snap, chan, params, precoder.w, p),
                                   oracles.jt_sinrs(snap, chan, params, precoder.w, p),
                                   rtol=RTOL, atol=0)


@st.composite
def topologies(draw):
    side = draw(st.integers(1, 5))
    # a 2 m area puts several BSs inside the 3 m path-loss clamp of any point
    area_side = draw(st.sampled_from([2.0, 5.0, 40.0, 120.0]))
    if draw(st.booleans()):
        return build_grid(side * side, area_side)
    layout = np.random.default_rng(draw(seeds))
    return Topology(bs_positions=layout.uniform(0.0, area_side, size=(side * side, 2)),
                    area_side=area_side)


def quick_drop_limit(topology):
    """Number of BSs that are strongest over at least 1% of the area.

    A drop redraws until it hits a free BS, so it never ends when more UEs
    are asked for than BSs are ever strongest (in a 2 m area every point
    ties on all BSs, and only BS 0 is), and takes long when the last free
    BS is strongest over a sliver only. Up to this many UEs it ends soon.
    """
    points = np.random.default_rng(0).uniform(0.0, topology.area_side, size=(4096, 2))
    strongest = path_loss_db(pairwise_distances(points, topology.bs_positions),
                             2.0).argmin(axis=1)
    return int((np.bincount(strongest, minlength=topology.n_bs) >= 41).sum())


def assert_same_stream(a, b):
    assert a.bit_generator.state == b.bit_generator.state
    assert a.integers(0, 2**31) == b.integers(0, 2**31)
    assert a.random() == b.random()


@settings(max_examples=150, deadline=None)
@given(topology=topologies(), seed=seeds, data=st.data(),
       pre_draw=st.sampled_from([None, "uint32", "double"]))
def test_block_drop_matches_one_at_a_time_oracle(topology, seed, data, pre_draw):
    k = data.draw(st.integers(1, quick_drop_limit(topology)))
    rngs = [np.random.default_rng(seed), np.random.default_rng(seed)]
    for rng in rngs:
        if pre_draw == "uint32":  # leaves half a 64-bit draw buffered
            rng.integers(0, 17)
        elif pre_draw == "double":
            rng.random()
    got = drop_ues(topology, k, rngs[0])
    want = oracles.drop_ues(topology, k, rngs[1])
    np.testing.assert_array_equal(got.positions, want.positions)
    np.testing.assert_array_equal(got.serving_bs, want.serving_bs)
    assert_same_stream(*rngs)


@settings(max_examples=150, deadline=None)
@given(topology=topologies(), seed=seeds, data=st.data(),
       dl_probability=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
       carrier_freq_ghz=st.sampled_from([2.0, 3.5, 5.0]))
def test_one_pass_realization_matches_per_matrix_oracle(topology, seed, data,
                                                        dl_probability, carrier_freq_ghz):
    # dl_probability 0 and 1 give K_dl = 0 and K_ul = 0: empty matrices
    k = data.draw(st.integers(1, quick_drop_limit(topology)))
    traffic = TrafficConfig(dl_probability=dl_probability, require_mixed_traffic=False)
    snap = generate_snapshot(topology, k / topology.n_bs, traffic,
                             np.random.default_rng(seed))
    assert snap.k == k
    n_dl = np.setdiff1d(np.arange(topology.n_bs), snap.ul_bs)  # the sorted complement
    assert snap.n_dl.dtype == n_dl.dtype
    np.testing.assert_array_equal(snap.n_dl, n_dl)

    params = RadioParams(carrier_freq_ghz=carrier_freq_ghz)
    rngs = [np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)]
    got = build_channel_realization(snap, topology, params, rngs[0])
    want = oracles.build_channel_realization(snap, topology, params, rngs[1])
    for name in ("h_dl", "f_bs", "g_ue", "h_ul"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.dtype) == (b.shape, b.dtype), name
        assert a.tobytes() == b.tobytes(), name
    assert_same_stream(*rngs)


@settings(max_examples=100, deadline=None)
@given(path_loss=st.one_of(
    st.floats(0.0, 150.0),
    arrays(float, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
           elements=st.floats(0.0, 150.0))), seed=seeds)
def test_draw_channel_matches_two_draw_oracle(path_loss, seed):
    rngs = [np.random.default_rng(seed), np.random.default_rng(seed)]
    got = draw_channel(path_loss, rngs[0])
    want = oracles.draw_channel(path_loss, rngs[1])
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert np.shape(got) == np.shape(want)
    assert_same_stream(*rngs)


lp_entries = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
                       st.floats(0.0, 1.0), st.floats(-1.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(1, 8), n=st.integers(1, 8))
def test_vectorised_simplex_matches_row_loop(data, m, n):
    a = data.draw(arrays(float, (m, n), elements=lp_entries))
    b = data.draw(arrays(float, m, elements=st.sampled_from([0.0, 0.1, 1.0])
                         | st.floats(0.0, 1.0)))
    c = data.draw(st.sampled_from([np.ones(n)])
                  | arrays(float, n, elements=st.floats(-1.0, 1.0)))
    try:
        want = oracles.simplex_max(c, a, b)
    except RuntimeError as exc:
        try:
            _simplex_max(c, a, b)
        except RuntimeError as got:
            assert str(got) == str(exc)
            return
        raise AssertionError(f"oracle raised {exc!r}, the vectorised simplex did not")
    np.testing.assert_array_equal(_simplex_max(c, a, b), want)
