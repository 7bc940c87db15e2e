"""Downlink power allocation under per-antenna constraints.

The production path maximizes the plain power sum over the data streams,
which is a linear program: maximize sum_k p_k subject to
sum_k |w_nk|^2 p_k <= P_b for every antenna n and p >= 0, with the dummy
streams pinned at zero. Instances are tiny (at most N variables and N
constraints), so the LP is solved by an in-repo dense simplex.
"""

import math

import numpy as np

from .exceptions import ConfigurationError, NumericalError


def _simplex_max(c, a: np.ndarray, b, tol: float = 1e-11) -> np.ndarray:
    """Maximize c @ x s.t. a @ x <= b, x >= 0, where b >= 0.

    c and b are arrays, or scalars that stand for arrays of that value.

    Dense tableau simplex starting from the slack basis (the origin is
    feasible). Bland's rule on both the entering and leaving choice, so the
    method cannot cycle. Raises NumericalError if the LP is unbounded, if
    rounding leaves no row in the ratio test (a NaN ratio included), or if
    the pivots run out.

    The pivot choice reads the reduced row, the entering column and the
    right-hand side as Python floats, which costs less than numpy calls on
    rows of at most 32 entries; the elimination stays one numpy update.
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


def _antenna_gains(w: np.ndarray, k_dl: int) -> np.ndarray:
    """|w_nk|^2 over the data columns; zero columns are rejected upstream."""
    w = np.asarray(w)
    if k_dl < 1:
        raise ConfigurationError("power allocation needs at least one downlink UE")
    if k_dl > w.shape[1]:
        raise ConfigurationError("k_dl exceeds the number of precoder columns")
    a = np.abs(w[:, :k_dl]) ** 2
    if (a.max(axis=0) <= 1e-30).any():
        raise ConfigurationError("all-zero precoder column (violates unit-norm precondition)")
    return a


def solve_power_lp(w: np.ndarray, p_b: float, k_dl: int) -> np.ndarray:
    """Sum-power-maximizing downlink allocation for a normalized precoder.

    Returns p of length w.shape[1]: the LP maximizer over the first k_dl
    entries, zeros for the dummy streams. Any vertex optimum is acceptable;
    the optimal objective value is unique even when the optimizer is not.
    """
    a = _antenna_gains(w, k_dl)
    x = _simplex_max(1.0, a, float(p_b))
    p = np.zeros(w.shape[1])
    p[:k_dl] = np.maximum(x, 0.0)
    return p
