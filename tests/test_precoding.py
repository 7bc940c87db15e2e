import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtddsim import (ChannelRealization, ConfigurationError, NumericalError, RadioParams,
                     SingularChannelError, TrafficConfig, assemble_m, baseline_sinrs,
                     build_channel_realization, build_grid, build_precoder,
                     generate_snapshot, select_uplink_bs, v_ul, v_ul_max, zf_precoder)
from dtddsim.harness import DEFAULT_UTILIZATIONS

from conftest import random_scene


def fake_channel(h_dl, f_bs=None):
    h_dl = np.asarray(h_dl)
    n_dl = h_dl.shape[1]
    f_bs = np.zeros((0, n_dl), complex) if f_bs is None else np.asarray(f_bs)
    return ChannelRealization(
        h_dl=h_dl, f_bs=f_bs,
        g_ue=np.zeros((h_dl.shape[0], f_bs.shape[0]), complex),
        h_ul=np.zeros((f_bs.shape[0], f_bs.shape[0]), complex),
    )


def test_v_ul_max_cases():
    assert v_ul_max(5, 8, 3) == 5
    assert v_ul_max(2, 8, 8) == 0
    assert v_ul_max(0, 16, 4) == 0


def test_v_ul_backoff():
    assert v_ul(0, 5) == 5
    assert v_ul(7, 5) == 0
    assert v_ul(2, 5) == 3
    with pytest.raises(ConfigurationError):
        v_ul(-1, 5)


def test_select_worst_uplink_bs_in_sinr_order():
    picked = select_uplink_bs(np.array([0.2, 3.0, 0.9]), 2)
    assert picked.tolist() == [0, 2]


def test_select_zero_returns_empty():
    assert select_uplink_bs(np.array([0.2]), 0).size == 0


def test_select_ties_break_by_ue_index():
    # rows follow the ascending ul_ues, so the lower row is the lower UE index
    picked = select_uplink_bs(np.array([2.0, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]), 4)
    assert picked.tolist() == [2, 1, 3, 4]


def test_select_more_than_available_rejected():
    with pytest.raises(ConfigurationError):
        select_uplink_bs(np.array([0.2]), 2)


def test_select_negative_count_rejected():
    with pytest.raises(ConfigurationError):
        select_uplink_bs(np.array([3.0, 1.0, 2.0]), -1)


def test_assemble_m_downlink_only():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    m = assemble_m(fake_channel(h), [])
    np.testing.assert_array_equal(m, np.conj(h))


def test_assemble_m_appends_selected_bs_rows():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6))
    f = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    chan = fake_channel(h, f)
    m = assemble_m(chan, [0])
    np.testing.assert_array_equal(m[0], np.conj(h[0]))
    np.testing.assert_array_equal(m[1], np.conj(f[0]))
    # selection order defines row order
    m2 = assemble_m(chan, [1, 0])
    np.testing.assert_array_equal(m2[1], np.conj(f[1]))
    np.testing.assert_array_equal(m2[2], np.conj(f[0]))


def test_assemble_m_needs_downlink_traffic():
    with pytest.raises(ConfigurationError):
        assemble_m(fake_channel(np.zeros((0, 6), complex)), [])


def test_assemble_m_rejects_too_many_rows():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    f = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    with pytest.raises(ConfigurationError):
        assemble_m(fake_channel(h, f), [0, 1])


def test_zf_scalar_channel():
    c = 0.3 - 0.4j  # |c| = 0.5
    m = np.array([[c]])
    w = zf_precoder(m)
    np.testing.assert_allclose(w, [[np.conj(c) / abs(c)]], atol=1e-15)
    np.testing.assert_allclose(np.diag(m @ w), [abs(c)], atol=1e-15)


def test_zf_orthonormal_rows_returns_hermitian():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    m = q[:, :3].conj().T  # 3 orthonormal rows
    w = zf_precoder(m)
    np.testing.assert_allclose(w, m.conj().T, atol=1e-12)
    np.testing.assert_allclose(np.diag(m @ w), 1.0, atol=1e-12)


def test_zf_diagonalizes_random_matrix():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    w = zf_precoder(m)
    np.testing.assert_allclose(np.linalg.norm(w, axis=0), 1.0, atol=1e-12)
    prod = m @ w
    diag = np.diag(prod)
    assert np.all(np.abs(diag.imag) < 1e-12 * np.abs(diag.real))
    assert np.all(diag.real > 0)
    # the gain of stream k is 1 / the norm of the pseudo-inverse's column k
    np.testing.assert_allclose(diag.real, 1.0 / np.linalg.norm(np.linalg.pinv(m), axis=0),
                               rtol=1e-12)
    off = prod - np.diag(diag)
    assert np.max(np.abs(off)) < 1e-10 * np.linalg.norm(m, 2)


def test_zf_wraps_svd_failure_as_numerical_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(NumericalError, match="SVD did not converge") as exc:
        zf_precoder(np.eye(2, 4, dtype=complex))
    assert not isinstance(exc.value, SingularChannelError)
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


def test_zf_rejects_rank_deficient_matrix():
    row = np.array([1.0 + 1j, 2.0, 3.0 - 1j, 0.5])
    with pytest.raises(SingularChannelError):
        zf_precoder(np.vstack([row, 2.0 * row]))


def test_zf_rejects_all_zero_matrix_without_a_warning():
    # sigma_max = 0: the rank test and its message divide by no zero
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularChannelError, match="sigma_max = 0.000e"):
            zf_precoder(np.zeros((2, 5), complex))


def _zf_outcome(m, **kwargs):
    """zf_precoder's W bytes, or the type and message of the error it raises."""
    try:
        return zf_precoder(m, **kwargs).tobytes()
    except NumericalError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), spare=st.integers(0, 10),
       kind=st.sampled_from(["random", "repeated_row", "zero"]), size=st.integers(1, 5),
       data=st.data())
def test_given_factors_give_the_bytes_of_zf_precoders_own_svd(seed, rows, spare, kind, size,
                                                             data):
    # the factors of M's own 2-D SVD, or M's slice of a stacked SVD at any
    # place in the stack, give W's bytes, or the rank error, of M's own call
    rng = np.random.default_rng(seed)
    shape = (size, rows, rows + spare)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    row = data.draw(st.integers(0, size - 1))
    if kind == "zero":
        stack[row] = 0.0
    elif kind == "repeated_row" and rows > 1:
        stack[row, -1] = (0.5 - 2j) * stack[row, 0]
    m = stack[row].copy()
    want = _zf_outcome(m)
    if kind == "zero" or (kind == "repeated_row" and rows > 1):
        assert want[0] is SingularChannelError
    assert _zf_outcome(m, factors=np.linalg.svd(m, full_matrices=False)) == want
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    assert _zf_outcome(m, factors=(u[row], s[row], vh[row])) == want


def test_group_svd_failure_falls_back_to_each_members_own_call(monkeypatch):
    # numpy fails a stacked SVD as a whole: the group call then factors each
    # member's M on its own, and only the member whose own SVD fails gets a
    # NaN row of W
    topo, params = build_grid(16, 40.0), RadioParams()
    rngs = [np.random.default_rng(seed) for seed in range(12)]
    members, group = max(generate_snapshot(topo, 0.5, TrafficConfig(), rngs),
                         key=lambda g: len(g[0]))
    assert len(members) >= 3
    chan = build_channel_realization(group, topo, params, [rngs[i] for i in members])
    _, base = baseline_sinrs(group, chan, params)
    k_dl, n_dl, n_ul = (group.dl_ues.shape[1], group.n_dl.shape[1], group.ul_bs.shape[1])
    bad, original_svd = 1, np.linalg.svd
    for v in {0, v_ul(0, v_ul_max(n_ul, n_dl, k_dl))}:
        w_clean, ul_rows = build_precoder(chan, v, base)
        assert not np.isnan(w_clean).any()
        bad_m = assemble_m(chan, ul_rows)[bad].tobytes()
        seen = Counter()

        def fails_stacked_and_one_member(a, *args, **kwargs):
            seen[np.ndim(a)] += 1
            if np.ndim(a) == 3 or np.asarray(a).tobytes() == bad_m:
                raise np.linalg.LinAlgError("SVD did not converge")
            return original_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", fails_stacked_and_one_member)
        w = build_precoder(chan, v, base)[0]
        monkeypatch.setattr(np.linalg, "svd", original_svd)
        assert seen == {3: 1, 2: len(members)}
        assert np.isnan(w[bad]).all()
        for row in set(range(len(members))) - {bad}:
            assert w[row].tobytes() == w_clean[row].tobytes(), (v, row)


def test_group_zero_member_gets_a_nan_row_and_the_rest_keep_their_bits():
    topo, params = build_grid(16, 40.0), RadioParams()
    rngs = [np.random.default_rng(seed) for seed in range(12)]
    members, group = max(generate_snapshot(topo, 0.5, TrafficConfig(), rngs),
                         key=lambda g: len(g[0]))
    assert len(members) >= 3
    chan = build_channel_realization(group, topo, params, [rngs[i] for i in members])
    _, base = baseline_sinrs(group, chan, params)
    k_dl, n_dl, n_ul = (group.dl_ues.shape[1], group.n_dl.shape[1], group.ul_bs.shape[1])
    clean = {v: build_precoder(chan, v, base)[0]
             for v in {0, v_ul(0, v_ul_max(n_ul, n_dl, k_dl))}}
    bad = 1
    chan.h_dl[bad] = chan.f_bs[bad] = 0.0
    for v, w_clean in clean.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = build_precoder(chan, v, base)[0]
        assert np.isnan(w[bad]).all()
        for row in set(range(len(members))) - {bad}:
            assert w[row].tobytes() == w_clean[row].tobytes(), (v, row)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), utilization=st.sampled_from(DEFAULT_UTILIZATIONS),
       delta=st.integers(0, 3))
def test_m_times_w_is_positive_diagonal(seed, utilization, delta):
    # the bound of acceptance criterion 1, over the paper's load grid and
    # back-offs: every stream reaches its own row, real and positive, and
    # leaks into the other rows only at the conditioning-scaled residual
    snap, chan, params = random_scene(seed=seed, utilization=utilization)
    _, base = baseline_sinrs(snap, chan, params)
    v = v_ul(delta, v_ul_max(snap.n_ul_count, snap.n_dl_count, snap.k_dl))
    w, ul_rows = build_precoder(chan, v, base)
    m = assemble_m(chan, ul_rows)
    prod = m @ w
    diag = prod.diagonal()
    assert np.all(diag.real > 0)
    assert np.all(np.abs(diag.imag) <= 1e-10 * diag.real)
    scaled = np.abs(prod) / np.linalg.norm(m, axis=1)[:, None]
    np.fill_diagonal(scaled, 0.0)
    assert scaled.max() <= 1e-8 * np.linalg.cond(m)


def test_precoder_without_selection_equals_plain_jt():
    snap, chan, params = random_scene(seed=11, utilization=0.5)
    _, base = baseline_sinrs(snap, chan, params)
    jt_w, _ = build_precoder(chan, 0)
    # a huge back-off drives the participation count to zero
    jt_ds_w, ul_rows = build_precoder(chan, v_ul(99, v_ul_max(
        snap.n_ul_count, snap.n_dl_count, snap.k_dl)), base)
    np.testing.assert_array_equal(jt_w, jt_ds_w)
    assert ul_rows.size == 0


def test_selection_requires_baseline_sinrs():
    snap, chan, _ = random_scene(seed=12, utilization=0.5)
    with pytest.raises(ConfigurationError):
        build_precoder(chan, 1, None)


def test_precoder_rejects_negative_count():
    snap, chan, params = random_scene(seed=12, utilization=0.5)
    for base in (baseline_sinrs(snap, chan, params)[1], None):
        with pytest.raises(ConfigurationError):
            build_precoder(chan, -1, base)


def test_unit_columns_on_real_snapshots():
    for seed in range(20):
        snap, chan, params = random_scene(seed=seed, utilization=0.75)
        _, base = baseline_sinrs(snap, chan, params)
        v = v_ul(0, v_ul_max(snap.n_ul_count, snap.n_dl_count, snap.k_dl))
        w, ul_rows = build_precoder(chan, v, base)
        assert w.shape == (snap.n_dl_count, snap.k_dl + len(ul_rows))
        assert snap.k_dl + len(ul_rows) <= snap.n_dl_count
        np.testing.assert_allclose(np.linalg.norm(w, axis=0), 1.0, atol=1e-12)
