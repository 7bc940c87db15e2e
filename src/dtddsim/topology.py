"""BS grid deployment and uniform UE placement with strongest-BS association."""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError

# A1 indoor LOS validity range [m]; path loss is flat outside it
D_MIN_M = 3.0
D_MAX_M = 100.0


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between two point sets.

    Args:
        a: [P, 2] coordinates in meters
        b: [Q, 2] coordinates in meters
    Returns:
        [P, Q] distances in meters
    """
    dx = a[:, 0, None] - b[:, 0]
    dy = a[:, 1, None] - b[:, 1]
    return np.sqrt(dx * dx + dy * dy)


@dataclass
class Topology:
    """BS deployment over a square indoor area.

    bs_positions: [N, 2] coordinates in meters, one row per BS.
    area_side: side length of the service area in meters.
    """

    bs_positions: np.ndarray
    area_side: float

    def __post_init__(self):
        self.bs_positions = np.asarray(self.bs_positions, dtype=float)
        grid_side(self.n_bs)  # the BS count must be a perfect square
        if self.area_side <= 0:
            raise ConfigurationError("area_side must be positive")
        if np.any(self.bs_positions < 0) or np.any(self.bs_positions > self.area_side):
            raise ConfigurationError("BS positions must lie within the area")
        if len(np.unique(self.bs_positions, axis=0)) != self.n_bs:
            raise ConfigurationError("BS positions must be pairwise distinct")

    @property
    def n_bs(self) -> int:
        return len(self.bs_positions)


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
        if len(np.unique(self.serving_bs)) != len(self.serving_bs):
            raise ConfigurationError("serving BSs must be distinct (<= 1 UE per BS)")

    def __len__(self) -> int:
        return len(self.positions)


def grid_side(n_bs: int) -> int:
    """Side sqrt(n_bs) of a square BS grid; n_bs must be a perfect square >= 1."""
    side = math.isqrt(max(n_bs, 0))
    if side < 1 or side * side != n_bs:
        raise ConfigurationError(
            f"grid deployment needs a perfect-square BS count n_bs, got {n_bs}")
    return side


def build_grid(n_bs: int, area_side: float) -> Topology:
    """Place n_bs BSs at the cell centers of a sqrt(n)-by-sqrt(n) grid.

    Row-major indexing: BS i sits at column i % side, row i // side, with
    coordinate ((col + 0.5) * d, (row + 0.5) * d) where d = area_side / side.
    """
    side = grid_side(n_bs)
    d = area_side / side
    idx = np.arange(n_bs)
    cols = idx % side
    rows = idx // side
    positions = np.column_stack([(cols + 0.5) * d, (rows + 0.5) * d])
    return Topology(bs_positions=positions, area_side=area_side)


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
    """
    if not 1 <= k <= topology.n_bs:
        raise ConfigurationError(
            f"cannot place {k} UEs on {topology.n_bs} BSs with <= 1 UE per BS"
        )
    saved = rng.bit_generator.state
    serving, picked, drawn = [], [], 0
    while len(serving) < k:
        block = rng.uniform(0.0, topology.area_side, size=(4 * topology.n_bs, 2))
        d = np.clip(pairwise_distances(block, topology.bs_positions), D_MIN_M, D_MAX_M)
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
