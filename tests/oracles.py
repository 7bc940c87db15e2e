"""Reference implementations that the tests compare the package against.

Each is the straightforward form of a computation the package does in a
faster, array-shaped way: the per-matrix channel draw, the per-UE SINR
loops with the baseline's per-node powers, the one-at-a-time UE drop, three
per-matrix simplexes (row by row, with numpy pivots and with Python-float
pivots), and two desk-scale power-allocation oracles (exact vertex
enumeration for the LP and the concave log-sum objective it relaxes).
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.optimize import minimize

from dtddsim import (ChannelRealization, ConfigurationError, NumericalError, UePlacement,
                     path_loss_db)
from dtddsim.power import _antenna_gains, solve_power_lp
from dtddsim.topology import pairwise_distances

_FEAS_TOL = 1e-9
# vertex-enumeration oracle stays exact only at desk scale
_ORACLE_MAX_K_DL = 3
_ORACLE_MAX_N_DL = 6

# Association frequency; the path-loss frequency term is a distance-independent
# offset, so the strongest-BS ordering is the same at any carrier.
_ASSOC_FREQ_GHZ = 2.0


# --- channel -----------------------------------------------------------------

def draw_channel(path_loss, rng):
    """sqrt(10^(-PL/10)) * z per entry: the real parts drawn, then the imaginary."""
    pl = np.asarray(path_loss, dtype=float)
    z = (rng.standard_normal(pl.shape) + 1j * rng.standard_normal(pl.shape)) / np.sqrt(2.0)
    out = np.sqrt(10.0 ** (-pl / 10.0)) * z
    return out if out.ndim else complex(out)


def build_channel_realization(snapshot, topology, params, rng):
    """Each matrix from its own distances, path loss and fading draw.

    Matrices are drawn in the order h_dl, f_bs, g_ue, h_ul.
    """
    ue_pos = snapshot.ue_placement.positions
    bs_pos = topology.bs_positions
    f = params.carrier_freq_ghz

    dl_ue_pos = ue_pos[snapshot.dl_ues]
    ul_ue_pos = ue_pos[snapshot.ul_ues]
    dl_bs_pos = bs_pos[snapshot.n_dl]
    ul_bs_pos = bs_pos[snapshot.ul_bs]

    h_dl = draw_channel(path_loss_db(pairwise_distances(dl_ue_pos, dl_bs_pos), f), rng)
    f_bs = draw_channel(path_loss_db(pairwise_distances(ul_bs_pos, dl_bs_pos), f), rng)
    g_ue = draw_channel(path_loss_db(pairwise_distances(dl_ue_pos, ul_ue_pos), f), rng)
    h_ul = draw_channel(path_loss_db(pairwise_distances(ul_ue_pos, ul_bs_pos), f), rng)

    return ChannelRealization(
        h_dl=np.asarray(h_dl).reshape(len(dl_ue_pos), len(dl_bs_pos)),
        f_bs=np.asarray(f_bs).reshape(len(ul_bs_pos), len(dl_bs_pos)),
        g_ue=np.asarray(g_ue).reshape(len(dl_ue_pos), len(ul_ue_pos)),
        h_ul=np.asarray(h_ul).reshape(len(ul_ue_pos), len(ul_bs_pos)),
    )


# --- SINRs -----------------------------------------------------------------

@dataclass
class BaselinePowers:
    """Uncoordinated transmit powers: serving BSs at P_b, uplink UEs at P_u."""

    bs_power_w: np.ndarray  # [N] per-BS
    ue_power_w: np.ndarray  # [K] per-UE


def baseline_powers(snapshot, params):
    """Uncoordinated scheme: fixed maximum powers, no precoding.

    Every BS serving a downlink UE transmits at P_b, every uplink UE at P_u;
    idle BSs stay silent (there is no joint transmission to recruit them).
    """
    bs_power = np.zeros(snapshot.n_bs)
    bs_power[snapshot.ue_placement.serving_bs[snapshot.dl_ues]] = params.p_b_max_w
    ue_power = np.zeros(snapshot.k)
    ue_power[snapshot.ul_ues] = params.p_u_max_w
    return BaselinePowers(bs_power_w=bs_power, ue_power_w=ue_power)


def sinr_downlink_jt(i, channel, w, p, p_u, noise_w):
    """Downlink SINR under joint transmission for downlink slot i.

    gamma_i = |h_i^H w_i|^2 p_i /
              (sigma^2 + sum_{k != i} |h_i^H w_k|^2 p_k + sum_l |g_il|^2 P_u)
    """
    hw = np.conj(channel.h_dl[i]) @ w
    terms = np.abs(hw) ** 2 * p
    desired = terms[i]
    mask = np.ones(len(terms), dtype=bool)
    mask[i] = False
    leakage = terms[mask].sum()
    ue_to_ue = (np.abs(channel.g_ue[i]) ** 2).sum() * p_u
    return float(desired / (noise_w + leakage + ue_to_ue))


def sinr_uplink_jt(j, channel, w, p, p_u, noise_w):
    """Uplink SINR at the serving BS of uplink slot j under joint transmission.

    gamma_j = |h_jb(j)|^2 P_u /
              (sigma^2 + sum_{l != j} |h_lb(j)|^2 P_u + sum_k |f_b(j)^H w_k|^2 p_k)
    """
    col = np.abs(channel.h_ul[:, j]) ** 2
    desired = col[j] * p_u
    mask = np.ones(len(col), dtype=bool)
    mask[j] = False
    other_ul = col[mask].sum() * p_u
    precoder_leak = float(np.abs(np.conj(channel.f_bs[j]) @ w) ** 2 @ p)
    return float(desired / (noise_w + other_ul + precoder_leak))


def jt_sinrs(snapshot, channel, params, w, p):
    """Per-UE SINRs (UE drop order) for a joint-transmission scheme."""
    noise_w = params.noise_power_w
    sinrs = np.zeros(snapshot.k)
    for slot, ue in enumerate(snapshot.dl_ues):
        sinrs[ue] = sinr_downlink_jt(slot, channel, w, p, params.p_u_max_w, noise_w)
    for slot, ue in enumerate(snapshot.ul_ues):
        sinrs[ue] = sinr_uplink_jt(slot, channel, w, p, params.p_u_max_w, noise_w)
    return sinrs


def uplink_only_sinrs(snapshot, channel, params):
    """Distributed uplink operation when no downlink traffic exists."""
    noise_w = params.noise_power_w
    sinrs = np.zeros(snapshot.k)
    for slot, ue in enumerate(snapshot.ul_ues):
        col = np.abs(channel.h_ul[:, slot]) ** 2
        mask = np.ones(len(col), dtype=bool)
        mask[slot] = False
        sinrs[ue] = col[slot] * params.p_u_max_w / (
            noise_w + col[mask].sum() * params.p_u_max_w)
    return sinrs


def baseline_sinrs(snapshot, channel, params):
    """Per-UE SINRs for the uncoordinated scheme, UE drop order.

    The downlink interference is the row total minus the desired term, so
    it carries a rounding error of up to a few ulp of the desired power.
    """
    noise_w = params.noise_power_w
    powers = baseline_powers(snapshot, params)
    dl_col_power = powers.bs_power_w[snapshot.n_dl]  # per downlink-array column
    ul_ue_power = powers.ue_power_w[snapshot.ul_ues]

    # column of each downlink UE's serving BS within the downlink array
    col_of_bs = {int(bs): c for c, bs in enumerate(snapshot.n_dl.tolist())}

    sinrs = np.zeros(snapshot.k)
    for slot, ue in enumerate(snapshot.dl_ues):
        own_col = col_of_bs[int(snapshot.ue_placement.serving_bs[ue])]
        gains = np.abs(channel.h_dl[slot]) ** 2
        desired = gains[own_col] * params.p_b_max_w
        rx = gains * dl_col_power
        other_bs = rx.sum() - rx[own_col]
        ue_to_ue = (np.abs(channel.g_ue[slot]) ** 2 * ul_ue_power).sum()
        sinrs[ue] = desired / (noise_w + other_bs + ue_to_ue)

    for slot, ue in enumerate(snapshot.ul_ues):
        col = np.abs(channel.h_ul[:, slot]) ** 2
        desired = col[slot] * params.p_u_max_w
        mask = np.ones(len(col), dtype=bool)
        mask[slot] = False
        other_ul = (col[mask] * ul_ue_power[mask]).sum()
        bs_to_bs = (np.abs(channel.f_bs[slot]) ** 2 * dl_col_power).sum()
        sinrs[ue] = desired / (noise_w + other_ul + bs_to_bs)

    return sinrs


# --- UE drop -----------------------------------------------------------------

def strongest_bs(position, topology):
    """Index of the BS with the lowest average path loss (ties: lowest index)."""
    d = np.linalg.norm(topology.bs_positions - position, axis=1)
    pl = path_loss_db(d, _ASSOC_FREQ_GHZ)
    return int(np.argmin(pl))  # argmin takes the first (lowest-index) minimum


def drop_ues(topology, k, rng):
    """Drop k UEs one candidate position at a time, at most one per BS."""
    if not 1 <= k <= topology.n_bs:
        raise ConfigurationError(
            f"cannot place {k} UEs on {topology.n_bs} BSs with <= 1 UE per BS"
        )
    positions = np.empty((k, 2))
    serving = np.empty(k, dtype=int)
    taken = set()
    for ue in range(k):
        while True:
            pos = rng.uniform(0.0, topology.area_side, size=2)
            bs = strongest_bs(pos, topology)
            if bs not in taken:
                break
        positions[ue] = pos
        serving[ue] = bs
        taken.add(bs)
    return UePlacement(positions=positions, serving_bs=serving)


# --- power allocation --------------------------------------------------------

def simplex_max(c, a, b, tol=1e-11):
    """Maximize c @ x s.t. a @ x <= b, x >= 0 (b >= 0), one row at a time.

    Dense tableau simplex from the slack basis with Bland's rule on both the
    entering and the leaving choice.
    """
    m, n = a.shape
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n:n + m] = np.eye(m)
    t[:m, -1] = b
    t[m, :n] = c
    basis = list(range(n, n + m))
    for _ in range(200 * (n + m + 1)):
        reduced = t[m, :n + m]
        entering = -1
        for j in range(n + m):
            if reduced[j] > tol:
                entering = j
                break
        if entering < 0:
            x = np.zeros(n + m)
            x[basis] = t[:m, -1]
            return x[:n]
        col = t[:m, entering]
        pos = col > tol
        if not pos.any():
            raise RuntimeError("LP is unbounded")
        ratios = np.full(m, np.inf)
        ratios[pos] = t[:m, -1][pos] / col[pos]
        best = ratios.min()
        ties = [i for i in range(m) if pos[i] and ratios[i] <= best + tol * (1.0 + best)]
        if not ties:
            raise RuntimeError("simplex lost primal feasibility to rounding")
        leaving = min(ties, key=lambda i: basis[i])
        t[leaving] /= t[leaving, entering]
        for r in range(m + 1):
            if r != leaving and t[r, entering] != 0.0:
                t[r] -= t[r, entering] * t[leaving]
        basis[leaving] = entering
    raise RuntimeError("simplex failed to converge")


def vectorised_simplex_max(c, a, b, tol=1e-11):
    """simplex_max with numpy calls for the pivot choice as well.

    per_matrix_simplex_max picks its pivots on Python floats; this is the
    numpy form it replaced. Both must give the same bytes or raise
    NumericalError with the same message, non-finite entries included.
    """
    m, n = a.shape
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n:n + m] = np.eye(m)
    t[:m, -1] = b
    t[m, :n] = c
    basis = np.arange(n, n + m)
    reduced, rhs = t[m, :n + m], t[:m, -1]
    for _ in range(200 * (n + m + 1)):
        entering = np.argmax(reduced > tol)  # first improving column
        if not reduced[entering] > tol:
            x = np.zeros(n + m)
            x[basis] = rhs
            return x[:n]
        col = t[:m, entering]
        rows = (col > tol).nonzero()[0]
        if not rows.size:
            raise NumericalError("LP is unbounded")
        ratios = rhs[rows] / col[rows]
        best = ratios.min()  # NaN if any ratio is
        ties = rows[ratios <= best + tol * (1.0 + best)]
        if not ties.size:
            raise NumericalError("simplex lost primal feasibility to rounding")
        leaving = ties[basis[ties].argmin()]
        t[leaving] /= t[leaving, entering]
        factor = t[:, entering].copy()
        factor[leaving] = 0.0
        t -= factor[:, None] * t[leaving]
        basis[leaving] = entering
    raise NumericalError("simplex failed to converge")


def per_matrix_simplex_max(c, a, b, tol=1e-11):
    """The package's simplex on one LP, before it took a stack.

    It picks each pivot on Python floats read with .tolist() and eliminates
    with one numpy update. Each element of the stacked simplex must give its
    bytes, or fail where it raises NumericalError, with the same message.
    """
    m, n = a.shape
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t.reshape(-1)[n:n + m * (n + m + 2):n + m + 2] = 1.0  # the slack identity
    t[:m, -1] = b
    t[m, :n] = c
    basis = list(range(n, n + m))
    for _ in range(200 * (n + m + 1)):
        for entering, r in enumerate(t[m, :n + m].tolist()):
            if r > tol:  # first improving column
                break
        else:
            x = np.zeros(n + m)
            x[basis] = t[:m, -1]
            return x[:n]
        col = t[:m, entering].tolist()
        rhs = t[:m, -1].tolist()
        rows = [i for i, v in enumerate(col) if v > tol]
        if not rows:
            raise NumericalError("LP is unbounded")
        ratios = [rhs[i] / col[i] for i in rows]
        # a NaN ratio leaves no row within reach of the minimum
        best = math.nan if any(map(math.isnan, ratios)) else min(ratios)
        ties = [i for i, r in zip(rows, ratios) if r <= best + tol * (1.0 + best)]
        if not ties:  # best < -1: rounding left a right-hand side negative
            raise NumericalError("simplex lost primal feasibility to rounding")
        leaving = min(ties, key=basis.__getitem__)
        t[leaving] /= col[leaving]
        # eliminate the entering column from every other row: the same
        # products and differences as row by row, and rows whose factor is
        # zero lose 0 * t[leaving], which is no change but a zero's sign
        factor = t[:, entering].copy()
        factor[leaving] = 0.0
        t -= factor[:, None] * t[leaving]
        basis[leaving] = entering
    raise NumericalError("simplex failed to converge")


def power_lp_oracle(w, p_b, k_dl):
    """Exact LP optimum by enumerating every basic feasible solution.

    Ground truth for solve_power_lp; refuses anything beyond K_dl <= 3,
    N_dl <= 6 where the enumeration stops being obviously exact and cheap.
    """
    a = _antenna_gains(w, k_dl)
    n_dl = a.shape[0]
    if k_dl > _ORACLE_MAX_K_DL or n_dl > _ORACLE_MAX_N_DL:
        raise ConfigurationError(
            f"oracle limited to K_dl <= {_ORACLE_MAX_K_DL}, N_dl <= {_ORACLE_MAX_N_DL}"
        )
    # constraint rows: a x <= p_b and -x <= 0
    rows = np.vstack([a, -np.eye(k_dl)])
    rhs = np.concatenate([np.full(n_dl, float(p_b)), np.zeros(k_dl)])
    best_x, best_obj = None, -np.inf
    for subset in combinations(range(len(rows)), k_dl):
        g = rows[list(subset)]
        if abs(np.linalg.det(g)) < 1e-12:
            continue
        x = np.linalg.solve(g, rhs[list(subset)])
        if np.all(a @ x <= p_b + _FEAS_TOL) and np.all(x >= -_FEAS_TOL):
            obj = x.sum()
            if obj > best_obj:
                best_obj, best_x = obj, x
    p = np.zeros(w.shape[1])
    p[:k_dl] = np.maximum(best_x, 0.0)
    return p


def log_objective_oracle(w, p_b, k_dl):
    """Maximize sum_k log2(1 + p_k) under the same per-antenna constraints.

    The concave program the linear objective relaxes; desk-scale only, used
    to quantify the relaxation gap. Solved by SLSQP from two starts (an
    interior point and the LP vertex), keeping the better.
    """
    a = _antenna_gains(w, k_dl)
    n_dl = a.shape[0]
    if k_dl > _ORACLE_MAX_K_DL or n_dl > _ORACLE_MAX_N_DL:
        raise ConfigurationError(
            f"oracle limited to K_dl <= {_ORACLE_MAX_K_DL}, N_dl <= {_ORACLE_MAX_N_DL}"
        )

    def neg_obj(p):
        return -np.sum(np.log2(1.0 + p))

    def neg_grad(p):
        return -1.0 / ((1.0 + p) * np.log(2.0))

    cons = [{"type": "ineq", "fun": lambda p: p_b - a @ p, "jac": lambda p: -a}]
    bounds = [(0.0, None)] * k_dl
    interior = np.full(k_dl, 0.9 * p_b / max(a.sum(axis=1).max(), 1e-30))
    starts = [interior, solve_power_lp(w, p_b, k_dl)[:k_dl]]
    best_x, best_val = None, np.inf
    for x0 in starts:
        res = minimize(neg_obj, x0, jac=neg_grad, bounds=bounds, constraints=cons,
                       method="SLSQP", options={"maxiter": 500, "ftol": 1e-14})
        x = np.maximum(res.x, 0.0)
        if np.all(a @ x <= p_b + _FEAS_TOL):
            val = neg_obj(x)
            if val < best_val:
                best_val, best_x = val, x
    if best_x is None:
        raise RuntimeError("log-objective solver failed to produce a feasible point")
    p = np.zeros(w.shape[1])
    p[:k_dl] = best_x
    return p
