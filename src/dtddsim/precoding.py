"""Zero-forcing precoder over the downlink array, optionally nulling uplink BSs.

The compound matrix M stacks the conjugated downlink-UE channel rows and,
for the dummy-symbol variant, the conjugated BS-to-BS rows of the selected
uplink BSs. W is the column-normalized right pseudo-inverse of M, so M @ W
is diagonal with real positive entries: each data stream arrives
interference-free at its own receiver and invisibly at every other row.
"""

import numpy as np

from .channel import ChannelRealization
from .exceptions import ConfigurationError, NumericalError, SingularChannelError

# Relative smallest-singular-value cutoff below which a draw is treated as a
# failed snapshot rather than inverted into garbage.
RANK_TOL = 1e-12


def v_ul_max(n_ul: int, n_dl: int, k_dl: int) -> int:
    """Spare-antenna bound on uplink-BS participation: min(N_ul, N_dl - K_dl)."""
    return min(n_ul, n_dl - k_dl)


def v_ul(delta: int, v_ul_max: int) -> int:
    """Participation count after the design back-off: max(0, V_ul_max - delta)."""
    if delta < 0:
        raise ConfigurationError("delta must be non-negative")
    return max(0, v_ul_max - delta)


def select_uplink_bs(ul_sinrs, v_ul: int) -> np.ndarray:
    """Uplink rows of the v_ul worst uplink UEs under the uncoordinated scheme.

    Args:
        ul_sinrs: [K_ul] baseline SINRs in snapshot.ul_ues order, or a
            [B, K_ul] stack of a shape group's.
        v_ul: how many uplink BSs to pick.
    Returns:
        [v_ul] (or [B, v_ul]) uplink rows ordered by ascending baseline SINR,
        ties broken by ascending row (ul_ues is ascending, so by ascending UE
        index): one stable argsort along the last axis. With at most one UE
        per BS, distinct rows are distinct BSs.
    """
    ul_sinrs = np.asarray(ul_sinrs)
    if not 0 <= v_ul <= ul_sinrs.shape[-1]:
        raise ConfigurationError(f"cannot select {v_ul} of {ul_sinrs.shape[-1]} uplink BSs")
    return ul_sinrs.argsort(kind="stable")[..., :v_ul]


def assemble_m(channel: ChannelRealization, ul_rows) -> np.ndarray:
    """Stack the compound matrix M: downlink-UE rows, then selected-BS rows.

    Row i < K_dl is h_i^H (conjugated channel of downlink UE i); the
    remaining rows are f_b^H for the uplink BSs at ul_rows of f_bs, in that
    order. Requires K_dl >= 1 and K_dl + V_ul <= N_dl. Leading axes
    shared by the channel blocks and ul_rows, a shape group's [B], carry
    over: M is then the [B, K_dl + V_ul, N_dl] stack of its members' M.
    """
    k_dl, n_dl = channel.h_dl.shape[-2:]
    if k_dl < 1:
        raise ConfigurationError("precoding needs at least one downlink UE")
    ul_rows = np.asarray(ul_rows, dtype=int)
    if k_dl + ul_rows.shape[-1] > n_dl:
        raise ConfigurationError(
            f"{k_dl} downlink UEs + {ul_rows.shape[-1]} uplink BSs exceed {n_dl} antennas"
        )
    f_sel = np.take_along_axis(channel.f_bs, ul_rows[..., None], axis=-2)
    return np.concatenate((channel.h_dl, f_sel), axis=-2).conj()


def zf_precoder(m: np.ndarray, *, factors=None):
    """Column-normalized right pseudo-inverse of M.

    Computed from the SVD rather than the textbook M^H (M M^H)^{-1}: the two
    agree in exact arithmetic, but the Gram inversion squares the condition
    number and falls over on the ill-conditioned draws that appear as rows
    are added.

    Args:
        m: [R, N_dl] compound channel matrix.
        factors: M's (u, s, vh) as np.linalg.svd(m, full_matrices=False)
            returns them, when the caller already has them (one member's
            slice of a stacked SVD); by default the call factors M itself.
            The rank test and W are the same either way.
    Returns:
        w: [N_dl, R] unit-norm columns with M @ W diagonal, real, positive.
    Raises:
        SingularChannelError: smallest singular value <= RANK_TOL * largest,
            an all-zero M included.
        NumericalError: the SVD did not converge.
    """
    if factors is None:
        try:
            factors = np.linalg.svd(np.asarray(m), full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD of the compound channel matrix failed: {exc}") from exc
    u, s, vh = factors
    # no ratio of the two: an all-zero M has s[0] = 0
    if s[-1] <= RANK_TOL * s[0]:
        raise SingularChannelError("compound channel matrix is rank deficient "
                                   f"(sigma_min = {s[-1]:.3e}, sigma_max = {s[0]:.3e})")
    w_raw = vh.conj().T @ (u.conj().T / s[:, None])
    # the column norms as np.linalg.norm(w_raw, axis=0) takes them
    return w_raw / np.sqrt(np.add.reduce((w_raw.conj() * w_raw).real, axis=0))


def build_precoder(channel: ChannelRealization, v_ul_count: int, baseline_ul_sinr=None):
    """Select uplink BSs, assemble M, and factor the precoder of a snapshot or a group.

    v_ul_count = 0 gives the plain joint-transmission precoder; any other
    count selects that many uplink BSs (a negative one is rejected) by the
    ul SINRs baseline_sinrs returns. A group's channel and [B, K_ul] SINRs
    make one select_uplink_bs and one assemble_m call, then one stacked SVD
    of the [B, R, N_dl] M and one zf_precoder call per member's 2-D M with
    its slice of those factors; every array returned gains the group's
    leading axis. numpy fails a stacked SVD as a whole when one member's
    does not converge, so then each member's call factors its own M.

    Returns:
        w: [N_dl, K_dl + V_ul] complex, unit-norm columns. Column k < K_dl
            carries downlink UE k's stream; columns K_dl.. are the
            zero-power dummy streams toward the selected uplink BSs. A
            group member whose zf_precoder raises NumericalError gets a NaN
            row of W; a single snapshot's error propagates.
        ul_rows: [V_ul] uplink rows nulled by the dummy columns (positions
            in snapshot.ul_ues / snapshot.ul_bs, rows of f_bs), in selection
            order (worst baseline uplink SINR first).
    """
    if v_ul_count == 0:
        ul_rows = np.empty((*channel.h_dl.shape[:-2], 0), dtype=int)
    elif baseline_ul_sinr is None:
        raise ConfigurationError("uplink-BS selection needs baseline SINRs")
    else:
        ul_rows = select_uplink_bs(baseline_ul_sinr, v_ul_count)
    m = assemble_m(channel, ul_rows)
    if m.ndim == 2:
        return zf_precoder(m), ul_rows
    w = np.empty((len(m), m.shape[2], m.shape[1]), complex)
    try:
        factors = zip(*np.linalg.svd(m, full_matrices=False))
    except np.linalg.LinAlgError:
        factors = [None] * len(m)
    for w_row, m_row, member_factors in zip(w, m, factors):
        try:
            w_row[...] = zf_precoder(m_row, factors=member_factors)
        except NumericalError:
            w_row[...] = np.nan
    return w, ul_rows
