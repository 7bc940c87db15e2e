import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from dtddsim import ConfigurationError, SimulationConfig, harness, run_sweep, solve_power_lp
from dtddsim.harness import SCHEMES
from dtddsim.power import (LOST_FEASIBILITY, SOLVED, UNBOUNDED, _antenna_gains,
                           _simplex_max)

from conftest import random_scene, unit_columns
from oracles import (baseline_powers, log_objective_oracle, per_matrix_simplex_max,
                     power_lp_oracle)

P_B = 0.1


def log_obj(p):
    return np.sum(np.log2(1.0 + p))


def test_single_ue_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = unit_columns(rng, 6, 1)
        p = solve_power_lp(w, P_B, 1)
        expected = P_B / np.max(np.abs(w[:, 0]) ** 2)
        np.testing.assert_allclose(p, [expected], rtol=1e-10)


def test_decoupled_identity_pattern():
    w = np.eye(2, dtype=complex)
    np.testing.assert_allclose(solve_power_lp(w, P_B, 2), [P_B, P_B], rtol=1e-12)


def test_matches_vertex_enumeration_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        k_dl = int(rng.integers(1, 4))
        n_dl = int(rng.integers(k_dl, 7))
        dummies = int(rng.integers(0, min(3, n_dl - k_dl) + 1))
        w = unit_columns(rng, n_dl, k_dl + dummies)
        got = solve_power_lp(w, P_B, k_dl)
        want = power_lp_oracle(w, P_B, k_dl)
        assert abs(got.sum() - want.sum()) <= 1e-6 * max(want.sum(), 1e-30)
        a = np.abs(w) ** 2
        assert np.all(a @ got <= P_B + 1e-9)
        assert np.all(got[k_dl:] == 0.0)
        assert np.all(want[k_dl:] == 0.0)


def test_feasible_at_production_sizes():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n_dl = int(rng.integers(4, 17))
        k_dl = int(rng.integers(1, n_dl + 1))
        w = unit_columns(rng, n_dl, k_dl)
        p = solve_power_lp(w, P_B, k_dl)
        assert np.all(p >= 0)
        assert np.all(np.abs(w) ** 2 @ p <= P_B + 1e-9)


def test_lp_dominates_uniform_feasible_point():
    rng = np.random.default_rng(3)
    for _ in range(30):
        w = unit_columns(rng, 8, 4)
        a = np.abs(w) ** 2
        uniform = np.full(4, (P_B / 4) / a.sum(axis=1).max())
        assert np.all(a @ uniform <= P_B + 1e-12)
        assert solve_power_lp(w, P_B, 4).sum() >= uniform.sum() - 1e-12


def test_oracle_refuses_large_instances():
    rng = np.random.default_rng(1)
    with pytest.raises(ConfigurationError):
        power_lp_oracle(unit_columns(rng, 8, 4), P_B, 4)
    with pytest.raises(ConfigurationError):
        power_lp_oracle(unit_columns(rng, 7, 2), P_B, 2)


def test_zero_column_rejected():
    w = np.zeros((4, 1), dtype=complex)
    with pytest.raises(ConfigurationError):
        solve_power_lp(w, P_B, 1)
    with pytest.raises(ConfigurationError):
        power_lp_oracle(w, P_B, 1)


def lost_feasibility_lp():
    # the pivot on 2^-23 leaves row 0's right-hand side at -eps * 2^23, so the
    # next ratio test's minimum is about -2 and its tie band [best, best +
    # tol * (1 + best)] holds no row; this used to escape as a ValueError
    eps = np.finfo(float).eps
    a = np.full((4, 7), eps)
    a[3, :2] = 2.0 ** -23, -0.5
    return a, np.array([0.0, 1.0, 1.0, 1.0])


def test_simplex_reports_lost_feasibility():
    a, b = lost_feasibility_lp()
    x, status = _simplex_max(np.ones(7), a[None], b)
    assert status.tolist() == [LOST_FEASIBILITY]
    assert np.isnan(x).all()


def test_simplex_detects_unbounded():
    x, status = _simplex_max(np.array([1.0]), np.array([[[-1.0]]]), np.array([1.0]))
    assert status.tolist() == [UNBOUNDED]
    assert np.isnan(x).all()


def test_failed_elements_leave_the_rest_of_the_stack_unchanged():
    # a stack of one solvable LP, the lost-feasibility LP, an unbounded one
    # (its first column has no entry > tol) and another solvable LP: each
    # solved element has the bytes it has alone, and pivots past the others
    rng = np.random.default_rng(11)
    lost, b_lost = lost_feasibility_lp()
    unbounded = -rng.random((4, 7))
    a = np.stack([rng.random((4, 7)), lost, unbounded, rng.random((4, 7))])
    b = np.stack([np.full(4, P_B), b_lost, np.full(4, P_B), np.full(4, P_B)])
    x, status = _simplex_max(np.ones(7), a, b)
    assert status.tolist() == [SOLVED, LOST_FEASIBILITY, UNBOUNDED, SOLVED]
    assert np.isnan(x[1:3]).all()
    for i in (0, 3):
        alone, solved = _simplex_max(np.ones(7), a[i:i + 1], b[i])
        assert solved.tolist() == [SOLVED]
        assert x[i].tobytes() == alone[0].tobytes() == per_matrix_simplex_max(
            np.ones(7), a[i], b[i]).tobytes()


def test_ratio_test_ties_leave_by_the_smallest_basis_index():
    # a degenerate LP whose ratio tests tie rows whose basis indices are not
    # in row order: leaving by the first tied row instead of the smallest
    # basis index takes other pivots and ends one ulp off in x
    a = np.array([[2.0, 1.0, 0.0], [2.0, 0.5, 2.0], [2.0, 2.0, 0.5]])
    x, status = _simplex_max(np.ones(3), a[None], np.ones(3))
    assert status.tolist() == [SOLVED]
    assert x[0].tobytes() == per_matrix_simplex_max(np.ones(3), a, np.ones(3)).tobytes()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 16), data=st.data(),
       p_b=st.sampled_from([P_B, 1.0, 2.5e-3, 1e-9, 1e-12, 1e300]))
def test_lp_matches_highs_at_full_size(seed, n_rows, data, p_b):
    # beyond the vertex oracle's K_dl <= 3, N_dl <= 6: feasible, and the
    # objective of an independent solver. RadioParams accepts P_b as small
    # as 1e-12 W, where a ratio-test tolerance absolute in watts ties every
    # row and breaks the per-antenna budget, and as large as 1e300 W, where
    # a ratio P_b / |w_nk|^2 can overflow
    n_cols = data.draw(st.integers(1, 16))
    k_dl = data.draw(st.integers(1, n_cols))
    w = unit_columns(np.random.default_rng(seed), n_rows, n_cols)
    p = solve_power_lp(w, p_b, k_dl)
    a = _antenna_gains(w, k_dl)
    assert np.all(p >= 0) and np.all(p[k_dl:] == 0)
    assert np.all(a @ p[:k_dl] <= p_b * (1 + 1e-12))
    # HiGHS's default feasibility tolerance is 1e-7 absolute, which lets its
    # objective overshoot the optimum by ~1e-6 relative at p_b = 2.5 mW. Its
    # tolerances cannot go below 1e-10, so it cannot certify an optimum of
    # P_b below that; the LP is linear in P_b, so there, and at an extreme
    # P_b, the objective is P_b times HiGHS's at P_b = 1
    b = p_b if 1e-6 < p_b < 1e6 else 1.0
    ref = linprog(-np.ones(k_dl), A_ub=a, b_ub=np.full(n_rows, b), bounds=(0, None),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    assert ref.status == 0
    assert abs(p.sum() * (b / p_b) + ref.fun) <= 1e-9 * -ref.fun


@settings(max_examples=150, deadline=None)
@given(data=st.data(), shapes=st.lists(st.tuples(st.integers(1, 16), st.integers(1, 16)),
                                       min_size=1, max_size=6),
       finite=st.booleans(), p_b=st.sampled_from([P_B, 1.0, 2.5e-3, 1e-9, 1e-12]))
def test_padded_stack_matches_each_lps_own_call(data, shapes, finite, p_b):
    # LPs of mixed [N, K], zero-padded to the stack's largest, each with its
    # own data-column count: each element's p, or its NaN row where its
    # simplex fails, is byte for byte its own unpadded call's. Elements are
    # unit-norm precoders or drawn entries, whose first row keeps every
    # column nonzero; non-finite entries make elements fail
    entries = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]) | st.floats(0.0, 1.0)
    if not finite:
        entries |= st.sampled_from([np.nan, np.inf])
    ws = []
    for n, k in shapes:
        if data.draw(st.booleans()):
            ws.append(unit_columns(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                                   n, k))
        else:
            w = data.draw(arrays(float, (n, k), elements=entries))
            w[0] = data.draw(arrays(float, k, elements=st.floats(1e-3, 1.0)))
            ws.append(w.astype(complex))
    padded = np.zeros((len(ws), *np.max(shapes, axis=0)), complex)
    for i, (n, k) in enumerate(shapes):
        padded[i, :n, :k] = ws[i]
    k_each = [k for _, k in shapes]
    with np.errstate(all="ignore"):  # inf - inf and the like in the elimination
        p = solve_power_lp(padded, p_b, padded.shape[2], k_dl_each=k_each)
        for w, (_, k), row in zip(ws, shapes, p):
            alone = solve_power_lp(w, p_b, k)
            assert row[:k].tobytes() == alone.tobytes()
            assert (np.isnan(row[k:]) if np.isnan(alone).all() else row[k:] == 0).all()


def test_padded_stack_rejects_zero_data_columns_only():
    # the padded columns of an element are zero by design; a zero column of
    # its data is still the unit-norm violation
    rng = np.random.default_rng(13)
    w = np.zeros((2, 5, 3), complex)
    w[0, :4, :2] = unit_columns(rng, 4, 2)
    w[1] = unit_columns(rng, 5, 3)
    p = solve_power_lp(w, P_B, 3, k_dl_each=[2, 3])
    assert np.isfinite(p).all() and p[0, 2] == 0.0
    w[0, :, 1] = 0.0
    with pytest.raises(ConfigurationError, match="all-zero"):
        solve_power_lp(w, P_B, 3, k_dl_each=[2, 3])


def test_every_sweep_lp_matches_highs(monkeypatch):
    # every LP of a paper-grid sweep, 8 x 10 snapshots, as the SINR layer
    # receives its powers: at delta = 0 JT's and JT-DS's, at delta = 2
    # JT-DS's (JT's are the same LPs). Feasible, zero dummy powers, and
    # within 1e-9 of the objective of an independent solver
    seen = []
    original = harness.jt_sinrs

    def recorded(chan, params, w, p):
        seen.extend((chan.h_dl.shape[1], params.p_b_max_w, *pair) for pair in zip(w, p))
        return original(chan, params, w, p)

    monkeypatch.setattr(harness, "jt_sinrs", recorded)
    for delta, schemes in ((0, SCHEMES), (2, ("jt_ds",))):
        config = SimulationConfig(snapshots_per_point=10, delta=delta, schemes=schemes)
        assert not run_sweep(config).records.failed.any()
    assert len(seen) > 200 and any(len(p) > k_dl for k_dl, _, _, p in seen)
    for k_dl, p_b, w, p in seen:
        a = np.abs(w[:, :k_dl]) ** 2
        assert np.all(p >= 0) and np.all(p[k_dl:] == 0)
        assert np.all(a @ p[:k_dl] <= p_b * (1 + 1e-12))
        ref = linprog(-np.ones(k_dl), A_ub=a, b_ub=np.full(len(a), p_b), bounds=(0, None),
                      method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                               "dual_feasibility_tolerance": 1e-10})
        assert ref.status == 0
        assert abs(p.sum() + ref.fun) <= 1e-9 * -ref.fun


def test_log_oracle_single_variable_matches_lp():
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = unit_columns(rng, 5, 1)
        lp = solve_power_lp(w, P_B, 1)
        log = log_objective_oracle(w, P_B, 1)
        np.testing.assert_allclose(log, lp, rtol=1e-6)


def test_log_oracle_decoupled_matches_lp():
    w = np.eye(3, dtype=complex)
    np.testing.assert_allclose(log_objective_oracle(w, P_B, 3),
                               solve_power_lp(w, P_B, 3), rtol=1e-6)


def test_log_oracle_beats_lp_point_on_its_own_objective():
    rng = np.random.default_rng(9)
    for _ in range(40):
        k_dl = int(rng.integers(2, 4))
        n_dl = int(rng.integers(k_dl, 7))
        w = unit_columns(rng, n_dl, k_dl)
        lp = solve_power_lp(w, P_B, k_dl)[:k_dl]
        log = log_objective_oracle(w, P_B, k_dl)[:k_dl]
        assert log_obj(log) >= log_obj(lp) - 1e-9
        assert np.all(np.abs(w) ** 2 @ log <= P_B + 1e-9)


def test_baseline_powers_assignment():
    snap, _, params = random_scene(seed=21, utilization=0.75)
    powers = baseline_powers(snap, params)
    serving_dl = snap.ue_placement.serving_bs[snap.dl_ues]
    assert np.all(powers.bs_power_w[serving_dl] == params.p_b_max_w)
    silent = np.setdiff1d(np.arange(16), serving_dl)
    assert np.all(powers.bs_power_w[silent] == 0.0)
    assert np.all(powers.ue_power_w[snap.ul_ues] == params.p_u_max_w)
    assert np.all(powers.ue_power_w[snap.dl_ues] == 0.0)
    assert np.count_nonzero(powers.bs_power_w) == snap.k_dl
    assert np.count_nonzero(powers.ue_power_w) == snap.k_ul


def test_baseline_powers_all_downlink_and_all_uplink():
    snap_dl, _, params = random_scene(seed=4, dl_probability=1.0, require_mixed=False)
    p_dl = baseline_powers(snap_dl, params)
    assert np.count_nonzero(p_dl.bs_power_w) == snap_dl.k
    assert np.count_nonzero(p_dl.ue_power_w) == 0
    snap_ul, _, _ = random_scene(seed=4, dl_probability=0.0, require_mixed=False)
    p_ul = baseline_powers(snap_ul, params)
    assert np.count_nonzero(p_ul.bs_power_w) == 0
    assert np.count_nonzero(p_ul.ue_power_w) == snap_ul.k
