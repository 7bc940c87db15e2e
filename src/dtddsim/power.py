"""Downlink power allocation under per-antenna constraints.

The production path maximizes the plain power sum over the data streams,
which is a linear program: maximize sum_k p_k subject to
sum_k |w_nk|^2 p_k <= P_b for every antenna n and p >= 0, with the dummy
streams pinned at zero. Instances are tiny (at most N variables and N
constraints), so the LP is solved by an in-repo dense simplex.
"""

import numpy as np

from .exceptions import ConfigurationError, NumericalError


def _simplex_max(c: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float = 1e-11) -> np.ndarray:
    """Maximize c @ x s.t. a @ x <= b, x >= 0, where b >= 0.

    Dense tableau simplex starting from the slack basis (the origin is
    feasible). Bland's rule on both the entering and leaving choice, so the
    method cannot cycle. Raises NumericalError if the LP is unbounded, if
    rounding leaves no row in the ratio test, or if the pivots run out.
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
        best = ratios.min()
        ties = rows[ratios <= best + tol * (1.0 + best)]
        if not ties.size:  # best < -1: rounding left a right-hand side negative
            raise NumericalError("simplex lost primal feasibility to rounding")
        leaving = ties[basis[ties].argmin()]
        t[leaving] /= t[leaving, entering]
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
    if np.any(a.max(axis=0) <= 1e-30):
        raise ConfigurationError("all-zero precoder column (violates unit-norm precondition)")
    return a


def solve_power_lp(w: np.ndarray, p_b: float, k_dl: int) -> np.ndarray:
    """Sum-power-maximizing downlink allocation for a normalized precoder.

    Returns p of length w.shape[1]: the LP maximizer over the first k_dl
    entries, zeros for the dummy streams. Any vertex optimum is acceptable;
    the optimal objective value is unique even when the optimizer is not.
    """
    a = _antenna_gains(w, k_dl)
    b = np.full(a.shape[0], float(p_b))
    x = _simplex_max(np.ones(k_dl), a, b)
    p = np.zeros(w.shape[1])
    p[:k_dl] = np.maximum(x, 0.0)
    return p
