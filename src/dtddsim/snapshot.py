"""One traffic realization: active UEs, their directions, and the BS partition."""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigurationError, check_field_types
from .topology import Topology, UePlacement, drop_ues


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
        self.dl_ues = np.flatnonzero(self.is_downlink)
        self.ul_ues = np.flatnonzero(~self.is_downlink)
        self.ul_bs = serving[self.ul_ues]
        is_dl_bs = np.ones(self.n_bs, dtype=bool)
        is_dl_bs[self.ul_bs] = False
        self.n_dl = np.flatnonzero(is_dl_bs)

    @property
    def k(self) -> int:
        return len(self.ue_placement)

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


def traffic_load(utilization: float, n_bs: int, traffic: TrafficConfig) -> int:
    """Active UE count K = round(utilization * N), rounding half-up.

    Raises ConfigurationError when the utilization is outside (0, 1] (NaN
    included) or K < 1, and under require_mixed_traffic when K < 2 or the
    direction draw is degenerate, since no snapshot of such a sweep point
    could be drawn.
    """
    if not 0.0 < utilization <= 1.0:
        raise ConfigurationError(f"utilization {utilization} must be in (0, 1]")
    k = int(np.floor(utilization * n_bs + 0.5))
    if k < 1:
        raise ConfigurationError(
            f"utilization {utilization} with {n_bs} BSs yields no active UE"
        )
    if traffic.require_mixed_traffic:
        if k < 2:
            raise ConfigurationError("mixed traffic is impossible with a single UE")
        if traffic.dl_probability in (0.0, 1.0):
            raise ConfigurationError(
                "mixed traffic is impossible with a degenerate dl_probability"
            )
    return k


def generate_snapshot(topology: Topology, utilization: float, traffic: TrafficConfig,
                      rng: np.random.Generator) -> Snapshot:
    """Drop K = traffic_load(utilization, N, traffic) UEs and assign directions.

    Positions are drawn first (see drop_ues), then one direction draw per UE.
    Under require_mixed_traffic only the direction vector is redrawn, so the
    spatial distribution stays unconditioned.
    """
    k = traffic_load(utilization, topology.n_bs, traffic)
    placement = drop_ues(topology, k, rng)
    while True:
        is_downlink = rng.random(k) < traffic.dl_probability
        if not traffic.require_mixed_traffic:
            break
        if is_downlink.any() and not is_downlink.all():
            break
    return Snapshot(ue_placement=placement, is_downlink=is_downlink, n_bs=topology.n_bs)
