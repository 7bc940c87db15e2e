"""Downlink power allocation under per-antenna constraints.

The production path maximizes the plain power sum over the data streams,
which is a linear program: maximize sum_k p_k subject to
sum_k |w_nk|^2 p_k <= P_b for every antenna n and p >= 0, with the dummy
streams pinned at zero. Instances are tiny (at most N variables and N
constraints) and come a chunk at a time, zero-padded to the chunk's largest
shape, so the LP is solved by an in-repo dense simplex over a stack of them.
"""

import numpy as np

from .exceptions import ConfigurationError

# how an element of a stack left the simplex: solved, or the failure that
# leaves its row of the result NaN
SOLVED, UNBOUNDED, LOST_FEASIBILITY, OUT_OF_PIVOTS = range(4)
_TOL = 1e-11


def _simplex_max(c, a: np.ndarray, b):
    """Maximize c @ x s.t. a @ x <= b, x >= 0, where b >= 0, for a stack of LPs.

    a is [B, m, n]; c and b are [B, n] and [B, m] arrays, or arrays or
    scalars that broadcast to them. Returns x [B, n], each element's vertex
    as it left the stack (NaN if it failed), and its status (SOLVED or the
    failure's code).

    Dense tableau simplex starting from the slack basis (the origin is
    feasible). Bland's rule on both the entering and leaving choice, so the
    method cannot cycle. An element fails if its LP is unbounded, if
    rounding leaves no row in the ratio test (a NaN ratio included), or if
    the pivots run out. Each element makes the pivots and the elementwise
    arithmetic it would make alone: the first column with reduced cost
    > _TOL enters; ratio-test ties within _TOL * (1 + best), relative for a
    b near 1, leave by the smallest basis index; the pivot row is divided by
    the pivot before the elimination, whose factor is zero on the pivot row
    itself, so that row loses 0 * itself (a zero's sign can flip). Elements
    that finish or fail leave the stack that is pivoted.

    LPs of smaller shapes may share a stack zero-padded to its largest, real
    rows and columns first, with c 0 on pad columns: a pad row (0 <= b) has
    no entry > _TOL, so it never leaves; a pad column's reduced cost stays
    0, so it never enters; the slacks keep their order after the real
    columns. So each LP makes its own pivots and gets its own bits. Only the
    cap of 200 * (n + m + 1) pivots follows the padded shape, so it can only
    rise: sweeps have needed at most 19 pivots per LP; a 1 x 1 LP's cap is 600.
    """
    size, m, n = a.shape
    t = np.zeros((size, m + 1, n + m + 1))
    t[:, :m, :n] = a
    t[:, np.arange(m), np.arange(n, n + m)] = 1.0  # the slack identity
    t[:, :m, -1] = b
    t[:, m, :n] = c
    del c, a, b  # the tableau holds them; the caller may have passed the only reference
    basis = np.empty((size, m), int)
    basis[:] = np.arange(n, n + m)
    status = np.full(size, OUT_OF_PIVOTS)
    x = np.zeros((size, n + m))
    live = np.arange(size)  # the stack index of each element still pivoting
    at = np.arange(size)
    for _ in range(200 * (n + m + 1)):
        improving = t[:, m, :n + m] > _TOL
        entering = improving.argmax(1)  # the first improving column
        # the entering column, objective row included: the elimination's factor
        factor = t[at, :, entering]
        col = factor[:, :m]
        pos = col > _TOL
        # rows not > _TOL get inf / 1
        ratios = np.where(pos, t[:, :m, -1], np.inf) / np.where(pos, col, 1.0)
        best = np.minimum.reduce(ratios, axis=1, keepdims=True)  # NaN if any ratio is
        ties = pos & (ratios <= best + _TOL * (1.0 + best))
        leaving = np.where(ties, basis, n + m).argmin(1)
        pivots = improving[at, entering] & ties[at, leaving]
        if np.count_nonzero(pivots) < live.size:
            done, keep = np.flatnonzero(~pivots), np.flatnonzero(pivots)
            # no row in reach: unbounded without one > _TOL, else lost to rounding
            status[live[done]] = np.where(~improving[done].any(1), SOLVED,
                                          np.where(pos[done].any(1), LOST_FEASIBILITY,
                                                   UNBOUNDED))
            x[live[done, None], basis[done]] = t[done, :m, -1]
            t, basis, live = t[keep], basis[keep], live[keep]
            entering, leaving, factor = entering[keep], leaving[keep], factor[keep]
            at = at[:live.size]
        if not live.size:
            break
        row = t[at, leaving] / factor[at, leaving][:, None]
        t[at, leaving] = row
        factor[at, leaving] = 0.0
        t -= factor[:, :, None] * row[:, None, :]
        basis[at, leaving] = entering
    x[status != SOLVED] = np.nan
    return x[:, :n], status


def _antenna_gains(w: np.ndarray, k_dl: int, data=True) -> np.ndarray:
    """|w_nk|^2 over the first k_dl columns; a zero column where data is True is rejected."""
    w = np.asarray(w)
    if k_dl < 1:
        raise ConfigurationError("power allocation needs at least one downlink UE")
    if k_dl > w.shape[-1]:
        raise ConfigurationError("k_dl exceeds the number of precoder columns")
    a = np.abs(w[..., :k_dl]) ** 2
    if ((a.max(axis=-2) <= 1e-30) & data).any():
        raise ConfigurationError("all-zero precoder column (violates unit-norm precondition)")
    return a


def solve_power_lp(w: np.ndarray, p_b: float, k_dl: int, *, k_dl_each=None) -> np.ndarray:
    """Sum-power-maximizing downlink allocations for normalized precoders.

    w is one precoder [N_dl, R] or a stack [..., N_dl, R] of them. Returns
    p of shape [..., R]: per precoder, the LP maximizer over the first k_dl
    entries, or NaN there if its simplex failed, and zeros for the dummy
    streams; a failed row leaves the other rows unchanged. Any vertex optimum is
    acceptable; the optimal objective value is unique even when the
    optimizer is not.

    k_dl_each [...], each from 1 to k_dl, gives each precoder its own count
    of data columns, past which its w is zero padding and its p is 0: LPs of
    several shapes padded to one, real rows and columns first, which one
    simplex solves with each LP's own pivots and bits. It is keyword-only so
    that k_dl stays the third positional argument, the padded width.

    The simplex runs at P_b = m 2^e's m in [0.5, 1) and p scales back by 2^e,
    exactly: so its tie tolerance is relative to P_b (an absolute one ties
    every row once P_b nears _TOL), and no ratio over- or underflows.
    """
    data = np.arange(k_dl) < np.expand_dims(k_dl if k_dl_each is None else k_dl_each, -1)
    shape = np.shape(w)
    # neither W nor its gains stay alive while the simplex pivots: popped from
    # a list, the gains pass with no other reference, and its tableau copies them
    gains = [_antenna_gains(w, k_dl, data).reshape(-1, shape[-2], k_dl)]
    del w
    m, e = np.frexp(float(p_b))
    x, _ = _simplex_max(data.reshape(-1, k_dl), gains.pop(), m)
    p = np.zeros((len(x), shape[-1]))
    p[:, :k_dl] = np.ldexp(np.maximum(x, 0.0), e)  # NaN where the simplex failed
    return p.reshape(*shape[:-2], shape[-1])
