"""BS grid deployment and uniform UE placement with strongest-BS association."""

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigurationError

# A1 indoor LOS validity range [m]; path loss is flat outside it
D_MIN_M = 3.0
D_MAX_M = 100.0


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between two point sets, or between each pair of a stack.

    Args:
        a: [..., P, 2] coordinates in meters
        b: [..., Q, 2] coordinates in meters, leading axes as a's
    Returns:
        [..., P, Q] distances in meters
    """
    dx = a[..., :, None, 0] - b[..., None, :, 0]
    dy = a[..., :, None, 1] - b[..., None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


@dataclass
class Topology:
    """The BS deployment: a sqrt(n)-by-sqrt(n) grid over a square indoor area.

    n_bs: BS count, a perfect square >= 1.
    area_side: side length of the service area in meters, positive and finite.
    spacing: BS pitch d = area_side / sqrt(n_bs) in meters.
    bs_positions: [N, 2] cell-center coordinates in meters, row-major: BS i
        sits at column i % side, row i // side, at ((col + 0.5) d, (row + 0.5) d).
    """

    n_bs: int
    area_side: float
    spacing: float = field(init=False)
    bs_positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        side = math.isqrt(max(self.n_bs, 0))
        if side < 1 or side * side != self.n_bs:
            raise ConfigurationError(
                f"grid deployment needs a perfect-square BS count n_bs, got {self.n_bs}")
        if not 0.0 < self.area_side < math.inf:
            raise ConfigurationError("area_side must be positive and finite")
        # past numpy's size limit arange raises ValueError, past a float's
        # range the division raises OverflowError
        try:
            self.spacing = self.area_side / side
            idx = np.arange(self.n_bs)
            self.bs_positions = np.column_stack([(idx % side + 0.5) * self.spacing,
                                                 (idx // side + 0.5) * self.spacing])
        except (MemoryError, ValueError, OverflowError) as exc:
            raise ConfigurationError(
                f"n_bs is too large: its BS grid cannot be allocated ({exc})") from None


@dataclass
class UePlacement:
    """Active-UE positions and their serving BSs.

    positions: [K, 2] coordinates in meters.
    serving_bs: [K] BS indices; pairwise distinct (at most one UE per BS),
        each minimizing path loss over all BSs (ties to the lowest index).
    """

    positions: np.ndarray
    serving_bs: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.serving_bs = np.asarray(self.serving_bs, dtype=int)
        if len(self.serving_bs) != len(self.positions):
            raise ConfigurationError("positions and serving_bs length mismatch")
        if len(set(self.serving_bs.tolist())) != len(self.serving_bs):
            raise ConfigurationError("serving BSs must be distinct (<= 1 UE per BS)")

    def __len__(self) -> int:
        return len(self.positions)


def build_grid(n_bs: int, area_side: float) -> Topology:
    """The grid of n_bs BSs over an area_side-by-area_side area (see Topology)."""
    return Topology(n_bs, area_side)


def drop_ues(topology: Topology, k: int, rng: np.random.Generator) -> UePlacement:
    """Drop k UEs uniformly over the area, at most one per BS.

    UEs are placed in index order. Each UE is drawn i.i.d. uniform and
    associated to its strongest BS; if that BS is already taken the position
    is redrawn until a free BS results. Redraws never touch earlier UEs, so
    the first j placements are identical for any k >= j under the same
    stream.

    Candidates are drawn in blocks of 4 N. Path loss rises with distance and
    is flat inside the clamp, so each candidate's strongest BS is the one at
    the least clamped distance (ties: lowest index).

    The drop never returns when k exceeds the number of BSs that are ever
    strongest, e.g. k = 16 on build_grid(16, 6.0), whose BSs tie inside the
    clamp; SimulationConfig's spacing rule rules this out for sweeps.
    """
    if not 1 <= k <= topology.n_bs:
        raise ConfigurationError(
            f"cannot place {k} UEs on {topology.n_bs} BSs with <= 1 UE per BS"
        )
    saved = rng.bit_generator.state
    serving, picked, drawn = [], [], 0
    while len(serving) < k:
        block = rng.uniform(0.0, topology.area_side, size=(4 * topology.n_bs, 2))
        d = np.minimum(np.maximum(pairwise_distances(block, topology.bs_positions), D_MIN_M),
                       D_MAX_M)
        for c, bs in enumerate(d.argmin(axis=1).tolist(), start=drawn):
            if bs not in serving:
                serving.append(bs)
                picked.append(c)
            if len(serving) == k:
                break
        drawn = c + 1
    # rewind and redraw just the candidates used, as a one-at-a-time drop would
    rng.bit_generator.state = saved
    candidates = rng.uniform(0.0, topology.area_side, size=(drawn, 2))
    return UePlacement(positions=candidates[picked], serving_bs=serving)
