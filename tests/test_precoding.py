import numpy as np
import pytest

from dtddsim import (ChannelRealization, ConfigurationError, NumericalError,
                     SingularChannelError, assemble_m, baseline_sinrs, build_precoder,
                     select_uplink_bs, v_ul, v_ul_max, zf_precoder)

from conftest import random_scene


def fake_channel(h_dl, f_bs=None, ul_bs=()):
    h_dl = np.asarray(h_dl)
    n_dl = h_dl.shape[1]
    f_bs = np.zeros((0, n_dl), complex) if f_bs is None else np.asarray(f_bs)
    return ChannelRealization(
        h_dl=h_dl, f_bs=f_bs,
        g_ue=np.zeros((h_dl.shape[0], f_bs.shape[0]), complex),
        h_ul=np.zeros((f_bs.shape[0], f_bs.shape[0]), complex),
        dl_ues=np.arange(h_dl.shape[0]), ul_ues=np.arange(f_bs.shape[0]),
        n_dl=np.arange(n_dl), ul_bs=np.asarray(ul_bs, dtype=int),
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
    serving = np.zeros(8, dtype=int)
    serving[[5, 6, 7]] = [11, 12, 13]
    picked = select_uplink_bs([(5, 0.2), (6, 3.0), (7, 0.9)], 2, serving)
    assert picked.tolist() == [11, 13]  # UEs 5 then 7


def test_select_zero_returns_empty():
    assert select_uplink_bs([(5, 0.2)], 0, np.array([1, 2, 3, 4, 5, 9])).size == 0


def test_select_ties_break_by_ue_index():
    serving = np.array([0, 0, 0, 7, 0, 0, 0, 0, 3])
    picked = select_uplink_bs([(8, 1.0), (3, 1.0)], 1, serving)
    assert picked.tolist() == [7]


def test_select_more_than_available_rejected():
    with pytest.raises(ConfigurationError):
        select_uplink_bs([(5, 0.2)], 2, np.arange(8))


def test_assemble_m_downlink_only():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    m = assemble_m(fake_channel(h), [])
    np.testing.assert_array_equal(m, np.conj(h))


def test_assemble_m_appends_selected_bs_rows():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6))
    f = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    chan = fake_channel(h, f, ul_bs=[7, 4])
    m = assemble_m(chan, [7])
    np.testing.assert_array_equal(m[0], np.conj(h[0]))
    np.testing.assert_array_equal(m[1], np.conj(f[0]))
    # selection order defines row order
    m2 = assemble_m(chan, [4, 7])
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
        assemble_m(fake_channel(h, f, ul_bs=[9, 10]), [9, 10])


def test_zf_scalar_channel():
    c = 0.3 - 0.4j  # |c| = 0.5
    w, gains = zf_precoder(np.array([[c]]))
    np.testing.assert_allclose(w, [[np.conj(c) / abs(c)]], atol=1e-15)
    np.testing.assert_allclose(gains, [abs(c)], atol=1e-15)


def test_zf_orthonormal_rows_returns_hermitian():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    m = q[:, :3].conj().T  # 3 orthonormal rows
    w, gains = zf_precoder(m)
    np.testing.assert_allclose(w, m.conj().T, atol=1e-12)
    np.testing.assert_allclose(gains, 1.0, atol=1e-12)


def test_zf_diagonalizes_random_matrix():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    w, gains = zf_precoder(m)
    np.testing.assert_allclose(np.linalg.norm(w, axis=0), 1.0, atol=1e-12)
    prod = m @ w
    diag = np.diag(prod)
    assert np.all(np.abs(diag.imag) < 1e-12 * np.abs(diag.real))
    assert np.all(diag.real > 0)
    np.testing.assert_allclose(diag.real, gains, rtol=1e-12)
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


def test_nulling_scales_with_conditioning():
    for seed in range(60):
        snap, chan, params = random_scene(seed=seed, utilization=0.5)
        base = baseline_sinrs(snap, chan, params)
        v = v_ul(0, v_ul_max(snap.n_ul_count, snap.n_dl_count, snap.k_dl))
        res = build_precoder(snap, chan, v, base)
        m = assemble_m(chan, res.selected_ul_bs)
        prod = np.abs(m @ res.w)
        row_norms = np.linalg.norm(m, axis=1)
        scaled = prod / row_norms[:, None]
        np.fill_diagonal(scaled, 0.0)
        assert scaled.max() <= 1e-8 * np.linalg.cond(m)


def test_precoder_without_selection_equals_plain_jt():
    snap, chan, params = random_scene(seed=11, utilization=0.5)
    base = baseline_sinrs(snap, chan, params)
    jt = build_precoder(snap, chan, 0)
    # a huge back-off drives the participation count to zero
    jt_ds = build_precoder(snap, chan, v_ul(99, v_ul_max(
        snap.n_ul_count, snap.n_dl_count, snap.k_dl)), base)
    np.testing.assert_array_equal(jt.w, jt_ds.w)
    assert jt_ds.v_ul == 0 and jt_ds.selected_ul_bs.size == 0


def test_selection_requires_baseline_sinrs():
    snap, chan, _ = random_scene(seed=12, utilization=0.5)
    with pytest.raises(ConfigurationError):
        build_precoder(snap, chan, 1, None)


def test_unit_columns_on_real_snapshots():
    for seed in range(20):
        snap, chan, params = random_scene(seed=seed, utilization=0.75)
        base = baseline_sinrs(snap, chan, params)
        v = v_ul(0, v_ul_max(snap.n_ul_count, snap.n_dl_count, snap.k_dl))
        res = build_precoder(snap, chan, v, base)
        assert res.w.shape == (snap.n_dl_count, snap.k_dl + res.v_ul)
        assert snap.k_dl + res.v_ul <= snap.n_dl_count
        np.testing.assert_allclose(np.linalg.norm(res.w, axis=0), 1.0, atol=1e-12)
