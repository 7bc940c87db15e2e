"""One traffic realization: active UEs, their directions, and the BS partition."""

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigurationError, check_field_types
from .topology import Topology, UePlacement, drop_ues

# least probability of a mixed direction draw that require_mixed_traffic
# accepts: about a million redraws per snapshot at worst
MIXED_DRAW_FLOOR = 1e-6


@dataclass
class TrafficConfig:
    """Per-snapshot traffic model; the utilization comes from the sweep point.

    dl_probability: per-UE probability of downlink direction (i.i.d.).
    require_mixed_traffic: redraw the direction vector (positions untouched)
        until the snapshot has at least one downlink and one uplink UE.
    """

    dl_probability: float = 0.5
    require_mixed_traffic: bool = True

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 <= self.dl_probability <= 1.0:
            raise ConfigurationError("dl_probability must be in [0, 1]")


@dataclass
class Snapshot:
    """Traffic realization over a known topology.

    Exposes the partition the transmission schemes work with: every BS
    serving an uplink UE joins the uplink set, every other BS (busy or idle)
    joins the downlink array.
    """

    ue_placement: UePlacement
    is_downlink: np.ndarray  # [K] bool, per-UE direction
    n_bs: int

    dl_ues: np.ndarray = field(init=False)  # UE indices with downlink traffic
    ul_ues: np.ndarray = field(init=False)  # UE indices with uplink traffic
    n_dl: np.ndarray = field(init=False)    # sorted BS indices in the downlink array
    ul_bs: np.ndarray = field(init=False)   # serving BS of ul_ues[j], in that order

    def __post_init__(self):
        self.is_downlink = np.asarray(self.is_downlink, dtype=bool)
        if len(self.is_downlink) != len(self.ue_placement):
            raise ConfigurationError("direction vector length != number of UEs")
        serving = self.ue_placement.serving_bs
        if len(serving) and (serving.min() < 0 or serving.max() >= self.n_bs):
            raise ConfigurationError("serving BS index out of range")
        self.dl_ues = self.is_downlink.nonzero()[0]
        self.ul_ues = (~self.is_downlink).nonzero()[0]
        self.ul_bs = serving[self.ul_ues]
        is_ul_bs = np.zeros(self.n_bs, dtype=bool)
        is_ul_bs[self.ul_bs] = True
        self.n_dl = (~is_ul_bs).nonzero()[0]

    @property
    def k(self) -> int:
        return len(self.ue_placement)

    @property
    def positions(self) -> np.ndarray:
        return self.ue_placement.positions

    @property
    def k_dl(self) -> int:
        return len(self.dl_ues)

    @property
    def k_ul(self) -> int:
        return len(self.ul_ues)

    @property
    def n_dl_count(self) -> int:
        return len(self.n_dl)

    @property
    def n_ul_count(self) -> int:
        return len(self.ul_bs)

    @property
    def dl_bs(self) -> np.ndarray:
        """Serving BS of dl_ues[i], in that order."""
        return self.ue_placement.serving_bs[self.dl_ues]


@dataclass
class SnapshotGroup:
    """Snapshots of one (K_dl, K_ul), each field stacked on a leading axis.

    The channel draw, the precoder and the SINR and rate kernels gather along their
    last axes as along one Snapshot's, so a group of B snapshots takes one call.
    """

    positions: np.ndarray  # [B, K, 2]
    dl_ues: np.ndarray  # [B, K_dl]
    ul_ues: np.ndarray  # [B, K_ul]
    dl_bs: np.ndarray   # [B, K_dl]
    n_dl: np.ndarray    # [B, N_dl]
    ul_bs: np.ndarray   # [B, K_ul]


def traffic_load(utilization: float, n_bs: int, traffic: TrafficConfig) -> int:
    """Active UE count K = round(utilization * N), rounding half-up.

    Raises ConfigurationError when the utilization is outside (0, 1] (NaN
    included) or K < 1, and under require_mixed_traffic when K < 2 or a
    direction draw is mixed with probability 1 - p^K - (1 - p)^K below
    MIXED_DRAW_FLOOR, since no snapshot of such a sweep point could be
    drawn, or none in reasonable time.
    """
    if not 0.0 < utilization <= 1.0:
        raise ConfigurationError(f"utilization {utilization} must be in (0, 1]")
    k = math.floor(utilization * n_bs + 0.5)
    if k < 1:
        raise ConfigurationError(
            f"utilization {utilization} with {n_bs} BSs yields no active UE"
        )
    if traffic.require_mixed_traffic:
        if k < 2:
            raise ConfigurationError("mixed traffic is impossible with a single UE")
        p = traffic.dl_probability
        if 1.0 - p ** k - (1.0 - p) ** k < MIXED_DRAW_FLOOR:
            raise ConfigurationError(
                f"mixed traffic is impossible or too rare with dl_probability {p} "
                f"and {k} UEs: a direction draw is mixed with probability below "
                f"{MIXED_DRAW_FLOOR:g}")
    return k


def generate_snapshot(topology: Topology, utilization: float, traffic: TrafficConfig, rng):
    """Drop K = traffic_load(utilization, N, traffic) UEs and assign directions.

    Positions are drawn first (see drop_ues), then one direction draw per UE.
    Under require_mixed_traffic only the direction vector is redrawn, so the
    spatial distribution stays unconditioned.

    Takes one Generator and returns its Snapshot, or a list of Generators,
    one per snapshot, and returns their (members, SnapshotGroup) shape
    groups: members index into the list, the groups run in the order their
    (K_dl, K_ul) first occurs, and each member is the Snapshot its stream
    would give alone. The drop and the partition run once over all of them.
    """
    k = traffic_load(utilization, topology.n_bs, traffic)
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    placement = drop_ues(topology, k, rng)
    is_downlink = np.empty((len(rngs), k), dtype=bool)
    redraw = np.arange(len(rngs))
    while len(redraw):
        for member in redraw.tolist():
            is_downlink[member] = rngs[member].random(k) < traffic.dl_probability
        if not traffic.require_mixed_traffic:
            break
        redraw = redraw[is_downlink[redraw].all(axis=1) | ~is_downlink[redraw].any(axis=1)]
    if isinstance(rng, np.random.Generator):
        return Snapshot(ue_placement=placement, is_downlink=is_downlink[0],
                        n_bs=topology.n_bs)
    # per row: the downlink UEs, then the uplink UEs, each in index order,
    # and the BS serving each of them
    ues = (~is_downlink).argsort(axis=1, kind="stable")
    serving = np.take_along_axis(placement.serving_bs, ues, axis=1)
    is_dl_bs = np.ones((len(rngs), topology.n_bs), dtype=bool)
    np.put_along_axis(is_dl_bs, placement.serving_bs, is_downlink, axis=1)
    k_dl = is_downlink.sum(axis=1)
    shapes, firsts = np.unique(k_dl, return_index=True)
    groups = []
    for split in shapes[firsts.argsort()].tolist():
        members = (k_dl == split).nonzero()[0]
        n_dl = is_dl_bs[members].nonzero()[1].reshape(len(members), -1)
        groups.append((members, SnapshotGroup(
            placement.positions[members], dl_ues=ues[members, :split],
            ul_ues=ues[members, split:], dl_bs=serving[members, :split], n_dl=n_dl,
            ul_bs=serving[members, split:])))
    return groups
