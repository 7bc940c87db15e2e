"""Propagation model: WINNER II A1 LOS path loss, Rayleigh fading, thermal noise.

One ChannelRealization holds every complex coefficient a snapshot needs:
BS-to-UE, BS-to-BS, UE-to-UE and UE-to-BS links. Each (transmitter,
receiver) pair gets exactly one independent fading draw per snapshot; no
reciprocity is assumed.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .exceptions import ConfigurationError
from .topology import D_MAX_M, D_MIN_M, Topology, pairwise_distances

THERMAL_NOISE_DBM_HZ = -174.0


@dataclass
class RadioParams:
    """Link-budget constants for the whole network."""

    carrier_freq_ghz: float = 2.0
    bandwidth_hz: float = 10e6
    noise_figure_db: float = 9.0
    p_b_max_w: float = 0.1  # max BS transmit power
    p_u_max_w: float = 0.1  # max UE transmit power

    def __post_init__(self):
        for name in ("carrier_freq_ghz", "bandwidth_hz", "noise_figure_db",
                     "p_b_max_w", "p_u_max_w"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(
                    f"RadioParams.{name} must be strictly positive and finite")

    @property
    def noise_power_w(self) -> float:
        return noise_power(self.bandwidth_hz, self.noise_figure_db)


@dataclass
class ChannelRealization:
    """All complex channel coefficients for one snapshot.

    h_dl: [K_dl, N_dl] downlink UE i  <-  downlink BS n
    f_bs: [N_ul, N_dl] uplink BS b(j) <-  downlink BS n (BS-to-BS)
    g_ue: [K_dl, K_ul] downlink UE i  <-  uplink UE k   (UE-to-UE)
    h_ul: [K_ul, N_ul] uplink UE k    ->  uplink BS b(j), serving and
          interfering entries alike (column j is the BS serving uplink UE j)

    The axes follow the snapshot's partition: downlink-UE axes are ordered
    as snapshot.dl_ues, uplink-UE axes as snapshot.ul_ues, downlink-array
    axes as snapshot.n_dl and uplink-BS axes as snapshot.ul_bs.
    """

    h_dl: np.ndarray
    f_bs: np.ndarray
    g_ue: np.ndarray
    h_ul: np.ndarray


def path_loss_db(distance_m, freq_ghz: float):
    """WINNER II A1 (indoor office/residential) LOS average path loss.

    PL = 18.7 log10(d) + 46.8 + 20 log10(f / 5.0)  [dB], with d clamped to
    [3, 100] m. Distance-independent beyond the clamp bounds, no shadowing.
    Accepts scalar or array distances.
    """
    if freq_ghz <= 0:
        raise ConfigurationError("freq_ghz must be positive")
    d = np.clip(np.asarray(distance_m, dtype=float), D_MIN_M, D_MAX_M)
    pl = 18.7 * np.log10(d) + 46.8 + 20.0 * np.log10(freq_ghz / 5.0)
    return pl if pl.ndim else float(pl)


def noise_power(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Receiver noise power in watts: -174 dBm/Hz + 10 log10(B) + NF."""
    if bandwidth_hz <= 0:
        raise ConfigurationError("bandwidth_hz must be positive")
    dbm = THERMAL_NOISE_DBM_HZ + 10.0 * np.log10(bandwidth_hz) + noise_figure_db
    return float(10.0 ** ((dbm - 30.0) / 10.0))


def _amplitude(pl):
    """Amplitude gain sqrt(10^(-PL/10)) of dB path-loss values."""
    return np.sqrt(10.0 ** (-pl / 10.0))


def _fading(amplitude, normals):
    """amplitude * z, z ~ CN(0, 1), from 2 * amplitude.size standard normals.

    The first half of normals gives the real parts and the second half the
    imaginary parts, both in C order over amplitude's shape.
    """
    re, im = normals.reshape(2, *amplitude.shape)
    return amplitude * ((re + 1j * im) / np.sqrt(2.0))


def draw_channel(path_loss, rng: np.random.Generator):
    """Complex gain(s) sqrt(10^(-PL/10)) * z, z ~ CN(0, 1).

    path_loss may be a scalar or an array of dB values; one independent
    fading draw is made per entry. E[|result|^2] equals the path gain.
    """
    pl = np.asarray(path_loss, dtype=float)
    out = _fading(_amplitude(pl), rng.standard_normal(2 * pl.size))
    return out if out.ndim else complex(out)


def build_channel_realization(snapshot, topology: Topology, params: RadioParams,
                              rng: np.random.Generator) -> ChannelRealization:
    """Draw all four coefficient matrices for one snapshot.

    One amplitude table covers every pair of nodes (UEs, then BSs), and each
    matrix takes its entries from it. The fading comes from one normal draw,
    consumed in a fixed order: h_dl, f_bs, g_ue, h_ul, each as its real parts
    then its imaginary parts. A given (snapshot, stream state) pair therefore
    always produces the identical realization, the same one as drawing each
    matrix with draw_channel in that order. The four matrices cover disjoint
    (tx, rx) pair types, so every physical pair is drawn exactly once.
    """
    k = snapshot.k
    nodes = np.concatenate([snapshot.ue_placement.positions, topology.bs_positions])
    amplitude = _amplitude(path_loss_db(pairwise_distances(nodes, nodes),
                                        params.carrier_freq_ghz))
    dl_bs, ul_bs = k + snapshot.n_dl, k + snapshot.ul_bs
    blocks = [amplitude[rows[:, None], cols] for rows, cols in (
        (snapshot.dl_ues, dl_bs),            # h_dl
        (ul_bs, dl_bs),                      # f_bs
        (snapshot.dl_ues, snapshot.ul_ues),  # g_ue
        (snapshot.ul_ues, ul_bs),            # h_ul
    )]
    ends = list(accumulate(2 * b.size for b in blocks))
    normals = rng.standard_normal(ends[-1])
    h_dl, f_bs, g_ue, h_ul = (_fading(b, normals[end - 2 * b.size:end])
                              for b, end in zip(blocks, ends))
    return ChannelRealization(h_dl=h_dl, f_bs=f_bs, g_ue=g_ue, h_ul=h_ul)
