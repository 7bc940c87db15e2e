"""Propagation model: WINNER II A1 LOS path loss, Rayleigh fading, thermal noise.

One ChannelRealization holds every complex coefficient a snapshot needs:
BS-to-UE, BS-to-BS, UE-to-UE and UE-to-BS links; a shape group's are drawn
at once, stacked on a leading axis. Each (transmitter, receiver) pair gets
exactly one independent fading draw per snapshot; no reciprocity is assumed.
"""

import math
import sys
from dataclasses import dataclass
from itertools import accumulate, pairwise

import numpy as np

from .exceptions import ConfigurationError, check_field_types
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
        check_field_types(self)
        for name in ("carrier_freq_ghz", "bandwidth_hz", "noise_figure_db",
                     "p_b_max_w", "p_u_max_w"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(
                    f"RadioParams.{name} must be strictly positive and finite")
        self._check_link_budget()

    def _check_link_budget(self):
        """Refuse a link budget whose powers a float cannot carry.

        The noise power must be a normal float, and so must, at D_MIN_M and
        at D_MAX_M, the path gain and the received power of p_b_max_w and of
        p_u_max_w, alone and over the noise. The terms add in dB and each is
        tested with a Python float power, so the test raises no numpy
        overflow or underflow warning of its own.
        """
        noise_db = (THERMAL_NOISE_DBM_HZ - 30.0 + 10.0 * math.log10(self.bandwidth_hz)
                    + self.noise_figure_db)
        terms = [("the noise power", noise_db)]
        for d in (D_MIN_M, D_MAX_M):
            with np.errstate(divide="ignore"):  # a carrier / 5 that underflows to 0
                gain_db = -path_loss_db(d, self.carrier_freq_ghz)
            terms.append((f"the path gain at {d:g} m", gain_db))
            for p in ("p_b_max_w", "p_u_max_w"):
                rx_db = 10.0 * math.log10(getattr(self, p)) + gain_db
                terms += [(f"the received power of {p} at {d:g} m", rx_db),
                          (f"the received power of {p} over the noise at {d:g} m",
                           rx_db - noise_db)]
        for what, db in terms:
            if not _is_normal_db(db):
                raise ConfigurationError(
                    f"RadioParams gives a link budget a float cannot carry: {what} is "
                    f"10^{db / 10.0:.6g}. The noise power and, at {D_MIN_M:g} m and at "
                    f"{D_MAX_M:g} m, the path gain and each maximum power's received "
                    "power, alone and over the noise, must be normal floats")

    @property
    def noise_power_w(self) -> float:
        return noise_power(self.bandwidth_hz, self.noise_figure_db)


@dataclass
class ChannelRealization:
    """All complex channel coefficients for one snapshot (a group stacks each on axis 0).

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


def _is_normal_db(db: float) -> bool:
    """Whether 10^(db / 10) is a normal float: finite and at least the smallest normal."""
    try:
        return sys.float_info.min <= 10.0 ** (db / 10.0) < math.inf
    except OverflowError:
        return False


def path_loss_db(distance_m, freq_ghz: float):
    """WINNER II A1 (indoor office/residential) LOS average path loss.

    PL = 18.7 log10(d) + 46.8 + 20 log10(f / 5.0)  [dB], with d clamped to
    [3, 100] m. Distance-independent beyond the clamp bounds, no shadowing.
    Accepts scalar or array distances.
    """
    if freq_ghz <= 0:
        raise ConfigurationError("freq_ghz must be positive")
    d = np.minimum(np.maximum(np.asarray(distance_m, dtype=float), D_MIN_M), D_MAX_M)
    pl = 18.7 * np.log10(d) + 46.8 + 20.0 * np.log10(freq_ghz / 5.0)
    return pl if pl.ndim else float(pl)


def noise_power(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Receiver noise power in watts: -174 dBm/Hz + 10 log10(B) + NF."""
    if bandwidth_hz <= 0:
        raise ConfigurationError("bandwidth_hz must be positive")
    dbm = THERMAL_NOISE_DBM_HZ + 10.0 * np.log10(bandwidth_hz) + noise_figure_db
    return float(10.0 ** ((dbm - 30.0) / 10.0))


def _fading(pl: np.ndarray, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """sqrt(10^(-PL/10)) * z per entry, z = (re + j im) / sqrt(2) ~ CN(0, 1)."""
    return np.sqrt(10.0 ** (pl / -10.0)) * ((re + 1j * im) / math.sqrt(2.0))


def draw_channel(path_loss, rng: np.random.Generator):
    """Complex gain(s) sqrt(10^(-PL/10)) * z, z ~ CN(0, 1).

    path_loss may be a scalar or an array of dB values; one independent
    fading draw is made per entry, from one normal draw of twice its size:
    the real parts, then the imaginary parts, both in C order over its
    shape. E[|result|^2] equals the path gain.
    """
    pl = np.asarray(path_loss, dtype=float)
    re, im = rng.standard_normal((2, *pl.shape))
    out = _fading(pl, re, im)
    return out if out.ndim else complex(out)


def build_channel_realization(snapshot, topology: Topology, params: RadioParams,
                              rng) -> ChannelRealization:
    """Draw all four coefficient matrices of one snapshot, or of each member of a group.

    Takes one Snapshot with one Generator, or a SnapshotGroup with one
    Generator per member; every gather keeps leading axes, so a group's matrices gain its own.
    Each member makes one normal draw from its own stream, laid out as
    draw_channel on each matrix in the order h_dl, f_bs, g_ue, h_ul would
    draw it: per matrix, its real parts, then its imaginary parts.
    Distances, path loss and fading run once over the group, elementwise,
    so a (snapshot, stream state) pair gives the identical realization in
    any group. The four matrices cover disjoint (tx, rx) pair types, so
    every physical pair is drawn exactly once.
    """
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    b = len(rngs)
    dl_ue, ul_ue = (np.take_along_axis(snapshot.positions, idx[..., None], axis=-2)
                    for idx in (snapshot.dl_ues, snapshot.ul_ues))
    dl_bs, ul_bs = (topology.bs_positions[idx] for idx in (snapshot.n_dl, snapshot.ul_bs))
    blocks = ((dl_ue, dl_bs), (ul_bs, dl_bs), (dl_ue, ul_ue), (ul_ue, ul_bs))  # (rows, cols)
    dist = [pairwise_distances(rows, cols) for rows, cols in blocks]
    shapes = [d.shape for d in dist]
    pl = path_loss_db(np.concatenate(dist, axis=None), params.carrier_freq_ghz)
    del dist  # past the path loss, only the block shapes are needed
    ranges = list(pairwise(accumulate((shape[-2] * shape[-1] for shape in shapes), initial=0)))
    normals = np.empty((b, 2 * ranges[-1][1]))
    for member, stream in zip(normals, rngs):
        stream.standard_normal(out=member)
    # block-major: each block's members in turn, so each block is contiguous
    re, im = np.concatenate([normals[:, 2 * lo:2 * hi].reshape(b, 2, hi - lo).swapaxes(0, 1)
                             .reshape(2, b * (hi - lo)) for lo, hi in ranges], axis=1)
    del normals  # freed before the fading's temporaries: a group's arrays are large
    gains = _fading(pl, re, im)
    h_dl, f_bs, g_ue, h_ul = (gains[b * lo:b * hi].reshape(shape)
                              for (lo, hi), shape in zip(ranges, shapes))
    return ChannelRealization(h_dl=h_dl, f_bs=f_bs, g_ue=g_ue, h_ul=h_ul)
