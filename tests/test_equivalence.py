"""The array-shaped computations against their one-at-a-time oracles.

SINRs are compared within a tolerance fixed from the float64 epsilon: the
matrix form sums in another order, and the oracle's baseline takes the
interference as row total minus the desired term, which is off by up to a
few ulp of the desired power, i.e. a few eps * (1 + SINR) relative. The
channel draw, the UE drop and the simplex do the same arithmetic as their
oracles, so they must agree exactly (the simplex byte for byte with its
numpy-pivot form, and in value with the row loop, which may keep a zero's
sign that the one-update elimination flips).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import oracles
from conftest import random_scene
from dtddsim import (ChannelRealization, NumericalError, RadioParams,
                     SingularChannelError, Snapshot, TrafficConfig, baseline_sinrs,
                     build_channel_realization, build_grid, build_precoder, draw_channel,
                     drop_ues, generate_snapshot, jt_sinrs, path_loss_db, select_uplink_bs,
                     solve_power_lp, v_ul, v_ul_max)
from dtddsim.harness import _stack
from dtddsim.power import (LOST_FEASIBILITY, OUT_OF_PIVOTS, SOLVED, UNBOUNDED,
                           _simplex_max)
from dtddsim.snapshot import SnapshotGroup
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
            w, _ = build_precoder(snap, chan, v, base)
        except SingularChannelError:
            continue
        p = solve_power_lp(w, params.p_b_max_w, snap.k_dl)
        np.testing.assert_allclose(jt_sinrs(snap, chan, params, w, p),
                                   oracles.jt_sinrs(snap, chan, params, w, p),
                                   rtol=RTOL, atol=0)


def precoded(snap, chan, params, v, base):
    """W and p of V_ul = v, or zeros if either fails (finite SINRs, as a masked row)."""
    try:
        w, _ = build_precoder(snap, chan, v, base)
        return w, solve_power_lp(w, params.p_b_max_w, snap.k_dl)
    except NumericalError:
        r = snap.k_dl + v
        return np.zeros((snap.n_dl_count, r), complex), np.zeros(r)


def test_stacked_sinrs_match_each_members_own_call():
    # a shape group's stacked SINRs must equal each member's own call bit
    # for bit, whatever its place in the stack. At u = 0.5, p = 0.9 makes
    # K_ul = 1 groups and p = 0.1 K_dl = 1 groups, whose one-row and
    # one-column products numpy hands to BLAS vector calls; under
    # OPENBLAS_CORETYPE=Prescott a dot sums by its operand's address
    params, topo = RadioParams(), build_grid(16, 40.0)
    differ = []
    for dl_probability in (0.9, 0.1):
        traffic = TrafficConfig(dl_probability=dl_probability)
        groups = {}
        for seed in range(100):
            rng = np.random.default_rng(seed)
            snap = generate_snapshot(topo, 0.5, traffic, rng)
            chan = build_channel_realization(snap, topo, params, rng)
            groups.setdefault((snap.k_dl, snap.k_ul), []).append((snap, chan))
        for shape, members in groups.items():
            group = _stack(SnapshotGroup, [snap for snap, _ in members])
            chan = _stack(ChannelRealization, [chan for _, chan in members])
            alone = [baseline_sinrs(snap, c, params) for snap, c in members]
            evaluations = {None: (baseline_sinrs(group, chan, params), alone)}
            for v in (0, 1):
                wp = [precoded(snap, c, params, v, base)
                      for (snap, c), base in zip(members, alone)]
                evaluations[v] = (jt_sinrs(group, chan, params, *map(np.stack, zip(*wp))),
                                  [jt_sinrs(snap, c, params, w, p)
                                   for (snap, c), (w, p) in zip(members, wp)])
            differ += [(dl_probability, shape, v, row)
                       for v, (stacked, each) in evaluations.items()
                       for row, sinrs in enumerate(each)
                       if stacked[row].tobytes() != sinrs.tobytes()]
    assert differ == []


@st.composite
def topologies(draw):
    side = draw(st.integers(1, 5))
    # a 2 m area puts several BSs inside the 3 m path-loss clamp of any point
    area_side = draw(st.sampled_from([2.0, 5.0, 40.0, 120.0]))
    return build_grid(side * side, area_side)


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
        pre_draw_from(rng, pre_draw)
    got = drop_ues(topology, k, rngs[0])
    want = oracles.drop_ues(topology, k, rngs[1])
    np.testing.assert_array_equal(got.positions, want.positions)
    np.testing.assert_array_equal(got.serving_bs, want.serving_bs)
    assert_same_stream(*rngs)


@settings(max_examples=150, deadline=None)
@given(topology=topologies(), seed=seeds, data=st.data())
def test_batched_drop_and_snapshot_match_each_members_own_call(topology, seed, data):
    # one drop_ues and one generate_snapshot call over 1..6 streams against
    # each stream's own call: the same bytes per member and the same final
    # stream state, whatever the member's place in the batch, its shape
    # group or its stream's state before the draw. Mixed traffic needs two
    # UEs and a dl_probability strictly between 0 and 1
    k_max = quick_drop_limit(topology)
    mixed = k_max >= 2 and data.draw(st.booleans())
    dl_probability = data.draw(st.sampled_from([0.3, 0.5] if mixed else [0.0, 0.3, 0.5, 1.0]))
    k = data.draw(st.integers(2 if mixed else 1, k_max))
    size = data.draw(st.integers(1, 6))
    pre_draws = data.draw(st.lists(st.sampled_from([None, "uint32", "double"]),
                                   min_size=size, max_size=size))
    traffic = TrafficConfig(dl_probability=dl_probability, require_mixed_traffic=mixed)

    def streams():
        batch = [np.random.default_rng(seed + i) for i in range(size)]
        for member, pre_draw in zip(batch, pre_draws):
            pre_draw_from(member, pre_draw)
        return batch

    batch, own = streams(), streams()
    placement = drop_ues(topology, k, batch)
    assert len(placement) == size * k
    for row, member in enumerate(own):
        alone = drop_ues(topology, k, member)
        for name in ("positions", "serving_bs"):
            a, b = getattr(placement, name)[row], getattr(alone, name)
            assert (a.shape, a.dtype) == (b.shape, b.dtype), name
            assert a.tobytes() == b.tobytes(), (row, name)
        assert_same_stream(batch[row], member)

    batch, own = streams(), streams()
    groups = generate_snapshot(topology, k / topology.n_bs, traffic, batch)
    rows = np.concatenate([members for members, _ in groups])
    assert sorted(rows.tolist()) == list(range(size))
    # groups in the order their shape first occurs, each shape once
    assert [members[0] for members, _ in groups] == sorted(members[0] for members, _ in groups)
    assert len({group.dl_ues.shape[1] for _, group in groups}) == len(groups)
    for members, group in groups:
        for j, row in enumerate(members.tolist()):
            alone = generate_snapshot(topology, k / topology.n_bs, traffic, own[row])
            # a member's directions and serving BSs, from its partition
            is_downlink = np.zeros(k, dtype=bool)
            is_downlink[group.dl_ues[j]] = True
            serving = np.empty_like(alone.ue_placement.serving_bs)
            serving[group.dl_ues[j]], serving[group.ul_ues[j]] = group.dl_bs[j], group.ul_bs[j]
            pairs = [(is_downlink, alone.is_downlink),
                     (serving, alone.ue_placement.serving_bs)]
            pairs += [(getattr(group, name)[j], getattr(alone, name))
                      for name in ("positions", "dl_ues", "ul_ues", "dl_bs", "n_dl", "ul_bs")]
            for a, b in pairs:
                assert (a.shape, a.dtype) == (b.shape, b.dtype)
                assert a.tobytes() == b.tobytes(), row
            assert_same_stream(batch[row], own[row])


def pre_draw_from(rng, pre_draw):
    """Leave rng mid-stream: half a 64-bit draw buffered, or one double drawn."""
    if pre_draw == "uint32":
        rng.integers(0, 17)
    elif pre_draw == "double":
        rng.random()


@settings(max_examples=150, deadline=None)
@given(topology=topologies(), seed=seeds, data=st.data(),
       dl_probability=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
       carrier_freq_ghz=st.sampled_from([2.0, 3.5, 5.0]),
       pre_draw=st.sampled_from([None, "uint32", "double"]))
def test_one_pass_realization_matches_per_matrix_oracle(topology, seed, data,
                                                        dl_probability, carrier_freq_ghz,
                                                        pre_draw):
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
    # all four matrices come from one normal draw, the oracle makes eight
    rngs = [np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)]
    for rng in rngs:
        pre_draw_from(rng, pre_draw)
    got = build_channel_realization(snap, topology, params, rngs[0])
    want = oracles.build_channel_realization(snap, topology, params, rngs[1])
    for name in ("h_dl", "f_bs", "g_ue", "h_ul"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.dtype) == (b.shape, b.dtype), name
        assert a.tobytes() == b.tobytes(), name
    assert_same_stream(*rngs)


@settings(max_examples=100, deadline=None)
@given(topology=topologies(), seed=seeds, data=st.data(),
       dl_probability=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
       carrier_freq_ghz=st.sampled_from([2.0, 3.5, 5.0]))
def test_stacked_draw_matches_each_members_own_draw(topology, seed, data, dl_probability,
                                                     carrier_freq_ghz):
    # a shape group's draw, one stream per member, against each member's own
    # call: the same bytes per block and the same final stream state, whatever
    # the member's place in the stack or its stream's state before the draw.
    # Members share (K_dl, K_ul), each with its own drop and direction order;
    # dl_probability 0 and 1 give K_dl = 0 and K_ul = 0: empty blocks
    k = data.draw(st.integers(1, quick_drop_limit(topology)))
    size = data.draw(st.integers(1, 6))
    pre_draws = data.draw(st.lists(st.sampled_from([None, "uint32", "double"]),
                                   min_size=size, max_size=size))
    traffic = TrafficConfig(dl_probability=dl_probability, require_mixed_traffic=False)
    rng = np.random.default_rng(seed)
    first = generate_snapshot(topology, k / topology.n_bs, traffic, rng)
    snaps = [first] + [Snapshot(drop_ues(topology, k, rng), rng.permutation(first.is_downlink),
                                topology.n_bs) for _ in range(size - 1)]
    params = RadioParams(carrier_freq_ghz=carrier_freq_ghz)
    streams = []
    for _ in range(2):
        streams.append([np.random.default_rng(seed + 1 + i) for i in range(size)])
        for member, pre_draw in zip(streams[-1], pre_draws):
            pre_draw_from(member, pre_draw)
    stacked = build_channel_realization(_stack(SnapshotGroup, snaps), topology, params,
                                        streams[0])
    for row, (snap, member) in enumerate(zip(snaps, streams[1])):
        alone = build_channel_realization(snap, topology, params, member)
        for name in ("h_dl", "f_bs", "g_ue", "h_ul"):
            a, b = getattr(stacked, name), getattr(alone, name)
            assert (a.shape, a.dtype) == ((size, *b.shape), b.dtype), name
            assert a[row].tobytes() == b.tobytes(), (row, name)
        assert_same_stream(streams[0][row], member)


@settings(max_examples=100, deadline=None)
@given(topology=topologies(), seed=seeds, data=st.data(), delta=st.integers(0, 4))
def test_group_precoder_matches_each_members_own_call(topology, seed, data, delta):
    # a shape group's build_precoder call against each member's own call on
    # its row of the group's channels and baseline SINRs: the same W and
    # ul_rows bytes, whatever the member's place in the stack. One member's
    # M rows are made parallel, so where M has two rows or more it is rank
    # deficient: its own call raises, its row of the group's W is NaN, and
    # every other row stays exact
    k = data.draw(st.integers(1, quick_drop_limit(topology)))
    size = data.draw(st.integers(2, 6))
    bad = data.draw(st.integers(0, size - 1))
    rng = np.random.default_rng(seed)
    is_downlink = rng.random(k) < 0.5
    is_downlink[0] = True  # at least one downlink UE to precode for
    snaps = [Snapshot(drop_ues(topology, k, rng), rng.permutation(is_downlink), topology.n_bs)
             for _ in range(size)]
    params = RadioParams()
    chan = build_channel_realization(_stack(SnapshotGroup, snaps), topology, params,
                                     [np.random.default_rng(seed + 1 + i) for i in range(size)])
    chan.f_bs[bad] = chan.h_dl[bad] = chan.h_dl[bad, :1]
    base = baseline_sinrs(_stack(SnapshotGroup, snaps), chan, params)
    snap = snaps[0]
    v = v_ul(delta, v_ul_max(snap.n_ul_count, snap.n_dl_count, snap.k_dl))
    w, ul_rows = build_precoder(_stack(SnapshotGroup, snaps), chan, v, base)
    assert (w.shape, ul_rows.shape) == ((size, snap.n_dl_count, snap.k_dl + v), (size, v))
    for row, member in enumerate(snaps):
        own_chan = ChannelRealization(chan.h_dl[row], chan.f_bs[row], chan.g_ue[row],
                                      chan.h_ul[row])
        if row == bad and snap.k_dl + v > 1:
            with pytest.raises(NumericalError):
                build_precoder(member, own_chan, v, base[row])
            assert np.isnan(w[row]).all()
            own_rows = (select_uplink_bs(base[row][member.ul_ues], v) if v
                        else np.empty(0, int))
        else:
            own_w, own_rows = build_precoder(member, own_chan, v, base[row])
            assert (w[row].dtype, w[row].shape) == (own_w.dtype, own_w.shape)
            assert w[row].tobytes() == own_w.tobytes(), row
        assert ul_rows[row].dtype == own_rows.dtype
        assert ul_rows[row].tobytes() == own_rows.tobytes(), row


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
non_finite = st.sampled_from([np.nan, np.inf, -np.inf])


# each failure exit of the stacked simplex, by the message the per-matrix
# simplexes raise
FAILURES = {"LP is unbounded": UNBOUNDED,
            "simplex lost primal feasibility to rounding": LOST_FEASIBILITY,
            "simplex failed to converge": OUT_OF_PIVOTS}


def simplex_outcome(simplex, c, a, b):
    """The maximizer, or the type and message of the error the simplex raised."""
    try:
        return simplex(c, a, b)
    except RuntimeError as exc:  # the row-loop oracle raises a plain RuntimeError
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), size=st.integers(1, 5), m=st.integers(1, 16), n=st.integers(1, 16),
       finite=st.booleans())
def test_vectorised_simplex_matches_row_loop(data, size, m, n, finite):
    # stacks of up to 5 LPs of one shape, up to the sweep's largest LP, 16
    # antennas by 16 streams. Each element of the stacked simplex must give
    # the per-matrix references' bytes, or fail where they raise, with the
    # status of their message, non-finite entries included
    entries = lp_entries if finite else lp_entries | non_finite
    a = data.draw(arrays(float, (size, m, n), elements=entries))
    b = data.draw(arrays(float, (size, m), elements=st.sampled_from([0.0, 0.1, 1.0])
                         | st.floats(0.0, 1.0) | (st.nothing() if finite else non_finite)))
    c = data.draw(st.sampled_from([np.ones((size, n))])
                  | arrays(float, (size, n), elements=entries))
    with np.errstate(all="ignore"):  # inf - inf and the like in the elimination
        x, status = _simplex_max(c, a, b)
        for i in range(size):
            assert status[i] == SOLVED or np.isnan(x[i]).all()
            for reference in (oracles.per_matrix_simplex_max, oracles.vectorised_simplex_max):
                want = simplex_outcome(reference, c[i], a[i], b[i])
                if isinstance(want, tuple):
                    assert want[0] is NumericalError and status[i] == FAILURES[want[1]]
                else:
                    assert status[i] == SOLVED and x[i].tobytes() == want.tobytes()
            if finite:
                loop = simplex_outcome(oracles.simplex_max, c[i], a[i], b[i])
                if isinstance(loop, tuple):
                    assert status[i] == FAILURES[loop[1]]
                else:  # the row loop skips zero factors, so it may keep a zero's sign
                    np.testing.assert_array_equal(x[i], loop)
