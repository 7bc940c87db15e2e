"""Zero-forcing precoder over the downlink array, optionally nulling uplink BSs.

The compound matrix M stacks the conjugated downlink-UE channel rows and,
for the dummy-symbol variant, the conjugated BS-to-BS rows of the selected
uplink BSs. W is the column-normalized right pseudo-inverse of M, so M @ W
is diagonal with real positive entries: each data stream arrives
interference-free at its own receiver and invisibly at every other row.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .exceptions import ConfigurationError, NumericalError, SingularChannelError

# Relative smallest-singular-value cutoff below which a draw is treated as a
# failed snapshot rather than inverted into garbage.
RANK_TOL = 1e-12


@dataclass
class PrecoderResult:
    """Normalized precoder for one snapshot.

    w: [N_dl, K_dl + V_ul] complex, unit-norm columns. Column k < K_dl
       carries downlink UE k's stream; columns K_dl.. are the zero-power
       dummy streams toward the selected uplink BSs.
    selected_ul_bs: [V_ul] BS indices nulled by the dummy columns, in
       selection order (worst baseline uplink SINR first).
    v_ul: number of uplink BSs included.
    effective_gains: [K_dl + V_ul] real, the diagonal magnitudes of M @ W.
    """

    w: np.ndarray
    selected_ul_bs: np.ndarray
    v_ul: int
    effective_gains: np.ndarray


def v_ul_max(n_ul: int, n_dl: int, k_dl: int) -> int:
    """Spare-antenna bound on uplink-BS participation: min(N_ul, N_dl - K_dl)."""
    return min(n_ul, n_dl - k_dl)


def v_ul(delta: int, v_ul_max: int) -> int:
    """Participation count after the design back-off: max(0, V_ul_max - delta)."""
    if delta < 0:
        raise ConfigurationError("delta must be non-negative")
    return max(0, v_ul_max - delta)


def select_uplink_bs(baseline_ul_sinrs, v_ul: int, serving_bs: np.ndarray) -> np.ndarray:
    """Serving BSs of the v_ul worst uplink UEs under the uncoordinated scheme.

    Args:
        baseline_ul_sinrs: iterable of (ue_index, linear SINR) pairs.
        v_ul: how many BSs to pick.
        serving_bs: [K] per-UE serving BS map.
    Returns:
        [v_ul] BS indices ordered by ascending baseline SINR, ties broken by
        ascending UE index.
    """
    pairs = list(baseline_ul_sinrs)
    if v_ul > len(pairs):
        raise ConfigurationError("cannot select more uplink BSs than uplink UEs")
    if v_ul == 0:
        return np.empty(0, dtype=int)
    order = sorted(pairs, key=lambda p: (p[1], p[0]))
    picked = np.array([serving_bs[ue] for ue, _ in order[:v_ul]], dtype=int)
    # <= 1 UE per BS guarantees distinct serving BSs
    assert len(set(picked.tolist())) == len(picked)
    return picked


def assemble_m(channel: ChannelRealization, selected_ul_bs) -> np.ndarray:
    """Stack the compound matrix M: downlink-UE rows, then selected-BS rows.

    Row i < K_dl is h_i^H (conjugated channel of downlink UE i); the
    remaining rows are f_b^H for each selected uplink BS, in selection
    order. Requires K_dl >= 1 and K_dl + V_ul <= N_dl.
    """
    k_dl, n_dl = channel.h_dl.shape
    if k_dl < 1:
        raise ConfigurationError("precoding needs at least one downlink UE")
    selected = np.asarray(selected_ul_bs, dtype=int)
    if k_dl + len(selected) > n_dl:
        raise ConfigurationError(
            f"{k_dl} downlink UEs + {len(selected)} uplink BSs exceed {n_dl} antennas"
        )
    rows = [np.conj(channel.h_dl)]
    if len(selected):
        ul_bs_row = {bs: r for r, bs in enumerate(channel.ul_bs.tolist())}
        rows.append(np.conj(channel.f_bs[[ul_bs_row[bs] for bs in selected.tolist()]]))
    return np.vstack(rows)


def zf_precoder(m: np.ndarray):
    """Column-normalized right pseudo-inverse of M.

    Computed from the SVD rather than the textbook M^H (M M^H)^{-1}: the two
    agree in exact arithmetic, but the Gram inversion squares the condition
    number and falls over on the ill-conditioned draws that appear as rows
    are added.

    Returns:
        w: [N_dl, R] unit-norm columns with M @ W diagonal, real, positive.
        effective_gains: [R] the diagonal of M @ W (= 1 / unnormalized
            column norms).
    Raises:
        SingularChannelError: smallest singular value <= RANK_TOL * largest.
        NumericalError: the SVD did not converge.
    """
    m = np.asarray(m)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of the compound channel matrix failed: {exc}") from exc
    if s[-1] <= RANK_TOL * s[0]:
        raise SingularChannelError(
            f"compound channel matrix is rank deficient (sigma_min/sigma_max = {s[-1] / s[0]:.3e})"
        )
    w_raw = vh.conj().T @ (u.conj().T / s[:, None])
    norms = np.linalg.norm(w_raw, axis=0)
    return w_raw / norms, 1.0 / norms


def build_precoder(snapshot, channel: ChannelRealization, v_ul_count: int,
                   baseline_sinr=None) -> PrecoderResult:
    """Select uplink BSs, assemble M, and factor the precoder for one snapshot.

    v_ul_count = 0 gives the plain joint-transmission precoder; with
    v_ul_count > 0 the per-UE baseline_sinr array drives the worst-uplink
    selection.
    """
    if v_ul_count > 0:
        if baseline_sinr is None:
            raise ConfigurationError("uplink-BS selection needs baseline SINRs")
        pairs = [(int(ue), float(baseline_sinr[ue])) for ue in snapshot.ul_ues]
        selected = select_uplink_bs(pairs, v_ul_count, snapshot.ue_placement.serving_bs)
    else:
        selected = np.empty(0, dtype=int)
    m = assemble_m(channel, selected)
    w, gains = zf_precoder(m)
    return PrecoderResult(w=w, selected_ul_bs=selected, v_ul=len(selected),
                          effective_gains=gains)
