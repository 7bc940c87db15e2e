"""SINR and rate evaluation for all three schemes, plus sweep-point statistics.

SINRs are evaluated exactly as the signal model states them, residual
precoder leakage included, so numerical conditioning effects stay
observable. Rates are B * log2(1 + gamma) bits per second.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, RadioParams
from .exceptions import ConfigurationError


@dataclass
class SnapshotMetrics:
    """Per-UE SINRs and rate sums of one snapshot's evaluation (evaluate_snapshot)."""

    per_ue_sinr: np.ndarray  # [K] linear scale, UE drop order
    dl_sum_rate_bps: float
    ul_sum_rate_bps: float
    sum_rate_bps: float


@dataclass
class SweepPointSummary:
    """Aggregates over one sweep point's snapshots."""

    mean_sum_rate_bps: float
    mean_dl_sum_rate_bps: float
    mean_ul_sum_rate_bps: float
    fifth_percentile_user_rate_bps: float  # 5th pct of sum-rate / traffic load K


def _zero_diagonal(a: np.ndarray) -> None:
    """np.fill_diagonal on each trailing matrix of a C-contiguous a, through a strided view."""
    cols = a.shape[-1]
    a.reshape(*a.shape[:-2], -1)[..., :cols * cols:cols + 1] = 0.0


def jt_sinrs(channel: ChannelRealization, params: RadioParams, w: np.ndarray,
             p: np.ndarray) -> tuple:
    """(dl, ul) SINRs with the downlink array sending streams W at powers p.

    dl is [.., K_dl] in the snapshot's dl_ues order and ul [.., K_ul] in its
    ul_ues order, the channel blocks' row order. Leading axes that the
    channel blocks, W and p share, a SnapshotGroup's [B], carry over. Every
    product is a matmul, which takes each matrix of a stack through the
    BLAS call of a one-matrix product; einsum would sum in another order.
    Both leak terms weight by p elementwise and take a numpy row sum: as a
    BLAS dot, a one-row leak sums by its address in the stack under Prescott.
    A downlink-free snapshot passes W with zero columns.

    Downlink UE i (row i of h_dl, column i of W):
      gamma_i = |h_i^H w_i|^2 p_i /
                (sigma^2 + sum_{k != i} |h_i^H w_k|^2 p_k + sum_l |g_il|^2 P_u)
    Uplink UE j, at its serving BS b(j) (row j of f_bs, column j of h_ul):
      gamma_j = |h_jb(j)|^2 P_u /
                (sigma^2 + sum_{l != j} |h_lb(j)|^2 P_u + sum_k |f_b(j)^H w_k|^2 p_k)

    The leakage sums run over every other column, dummy streams included;
    their zero powers remove them arithmetically, not structurally. The
    interference sums add the off-diagonal terms with the diagonal zeroed:
    subtracting the desired term from the row total would round the noise
    away, since the desired power can be 10^7 times the noise.
    """
    noise_w, p_u = params.noise_power_w, params.p_u_max_w

    rx = np.abs(np.conj(channel.h_dl) @ w) ** 2 * p[..., None, :]  # [.., K_dl, K_dl + V_ul]
    desired = rx.diagonal(0, -2, -1).copy()
    _zero_diagonal(rx)
    ue_to_ue = (np.abs(channel.g_ue) ** 2).sum(axis=-1) * p_u
    dl = desired / (noise_w + rx.sum(axis=-1) + ue_to_ue)

    gains = np.abs(channel.h_ul) ** 2  # [.., K_ul, N_ul]
    desired = gains.diagonal(0, -2, -1) * p_u
    _zero_diagonal(gains)
    bs_leak = (np.abs(np.conj(channel.f_bs) @ w) ** 2 * p[..., None, :]).sum(axis=-1)
    ul = desired / (noise_w + gains.sum(axis=-2) * p_u + bs_leak)
    return dl, ul


def baseline_sinrs(snapshot, channel: ChannelRealization, params: RadioParams) -> tuple:
    """(dl, ul) SINRs for the uncoordinated scheme, in jt_sinrs's orders.

    Each downlink UE's serving BS sends one stream at P_b, which is the
    joint-transmission formula with W the 0/1 matrix selecting each downlink
    UE's serving BS within the downlink array. Downlink UE i hears its
    serving BS against the other serving downlink BSs plus UE-to-UE
    interference; uplink BS b(j) hears its UE against the other uplink UEs
    plus the serving downlink BSs. Idle BSs transmit nothing. Without
    downlink traffic W has no columns and no BS transmits. Takes one
    Snapshot, or a SnapshotGroup whose leading axes the channel blocks share.
    """
    w = (snapshot.n_dl[..., :, None] == snapshot.dl_bs[..., None, :]).astype(float)
    p = np.full(w.shape[:-2] + w.shape[-1:], params.p_b_max_w)
    return jt_sinrs(channel, params, w, p)


def snapshot_metrics(sinrs, bandwidth_hz: float) -> tuple:
    """(downlink, uplink, total) rate sums, each on its last axis, of jt_sinrs's (dl, ul)."""
    dl, ul = ((bandwidth_hz * np.log2(1.0 + s)).sum(axis=-1) for s in sinrs)
    return dl, ul, dl + ul


def aggregate(records, k: int) -> SweepPointSummary:
    """Mean sum-rates and the 5th-percentile-per-UE metric for one sweep point.

    records is a record array with the sweep's dl_sum_rate_bps,
    ul_sum_rate_bps and sum_rate_bps columns, one row per snapshot. The
    worst-user metric is the 5th percentile of per-snapshot sum-rate (linear
    interpolation on the sorted sample) divided by the traffic load K. A
    meaningful percentile wants >= 20 snapshots; fewer are accepted but
    mostly exercise the mean fields.
    """
    if len(records) == 0:
        raise ConfigurationError("cannot aggregate an empty result list")
    if k < 1:
        raise ConfigurationError("traffic load k must be >= 1")
    # contiguous copies: numpy sums a strided column in another order, so
    # its mean could move in the last bit with the table's layout
    total, dl, ul = (np.array(records[name])
                     for name in ("sum_rate_bps", "dl_sum_rate_bps", "ul_sum_rate_bps"))
    return SweepPointSummary(
        mean_sum_rate_bps=float(total.mean()),
        mean_dl_sum_rate_bps=float(dl.mean()),
        mean_ul_sum_rate_bps=float(ul.mean()),
        fifth_percentile_user_rate_bps=float(np.percentile(total, 5.0) / k),
    )
