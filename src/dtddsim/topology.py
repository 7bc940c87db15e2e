"""BS grid deployment and uniform UE placement with strongest-BS association."""

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigurationError

# A1 indoor LOS validity range [m]; path loss is flat outside it
D_MIN_M = 3.0
D_MAX_M = 100.0

# most (candidate, BS) distances one step of a batched drop holds: 8 MB of
# float64, so a large grid's drop stays bounded in memory
DROP_WINDOW = 2**20


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
    # in place: a stacked group's temporaries are large
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


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
    """Active-UE positions and their serving BSs, of one drop or of each of a batch.

    positions: [K, 2] coordinates in meters, or [B, K, 2] for B drops.
    serving_bs: [K] (or [B, K]) BS indices; pairwise distinct within a drop
        (at most one UE per BS), each minimizing path loss over all BSs
        (ties to the lowest index).
    """

    positions: np.ndarray
    serving_bs: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.serving_bs = np.asarray(self.serving_bs, dtype=int)
        if self.serving_bs.shape != self.positions.shape[:-1]:
            raise ConfigurationError("positions and serving_bs length mismatch")
        ordered = np.sort(self.serving_bs, axis=-1)
        if (ordered[..., 1:] == ordered[..., :-1]).any():
            raise ConfigurationError("serving BSs must be distinct (<= 1 UE per BS)")

    def __len__(self) -> int:
        """The number of UEs placed, over every drop of a batch."""
        return self.serving_bs.size


def build_grid(n_bs: int, area_side: float) -> Topology:
    """The grid of n_bs BSs over an area_side-by-area_side area (see Topology)."""
    return Topology(n_bs, area_side)


def drop_ues(topology: Topology, k: int, rng) -> UePlacement:
    """Drop k UEs uniformly over the area, at most one per BS.

    UEs are placed in index order. Each UE is drawn i.i.d. uniform and
    associated to its strongest BS; if that BS is already taken the position
    is redrawn until a free BS results. Redraws never touch earlier UEs, so
    the first j placements are identical for any k >= j under the same
    stream.

    Takes one Generator, or a list of B Generators, one per drop: the
    placement's arrays then gain a leading [B] axis, and each drop is the
    one its stream would make alone. Each stream draws candidates in blocks
    of 4 N, each uniform as random() * area_side, and ends just past its
    last candidate used, as a one-at-a-time drop would leave it. Path loss
    rises with distance and is flat inside the clamp, so each candidate's
    strongest BS is the one at the least clamped distance (ties: lowest
    index). The drop accepts the first candidate of each BS, in candidate
    order, up to k, so it evaluates candidates only as far as some drop
    still needs them: first 2 k of them, then the rest of the block, then
    a further block for just the drops still short of k UEs, each step
    over at most DROP_WINDOW (candidate, BS) pairs.

    The drop never returns when k exceeds the number of BSs that are ever
    strongest, e.g. k = 16 on build_grid(16, 6.0), whose BSs tie inside the
    clamp; SimulationConfig's spacing rule rules this out for sweeps.
    """
    if not 1 <= k <= topology.n_bs:
        raise ConfigurationError(
            f"cannot place {k} UEs on {topology.n_bs} BSs with <= 1 UE per BS"
        )
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    side, block, unseen = math.isqrt(topology.n_bs), 4 * topology.n_bs, np.iinfo(np.intp).max
    # BS n = row * side + col sits at (bs_x[col], bs_y[row])
    bs_x, bs_y = topology.bs_positions[:side, 0], topology.bs_positions[::side, 1]
    saved = [stream.bit_generator.state for stream in rngs]
    candidates = np.empty((len(rngs), block, 2))
    for member, stream in zip(candidates, rngs):
        stream.random(out=member)
    candidates *= topology.area_side
    # first[b, n]: drop b's first candidate whose strongest BS is n
    first = np.full((len(rngs), topology.n_bs), unseen)
    pending, lo, width = np.arange(len(rngs)), 0, 2 * k
    while True:
        # a window of at most DROP_WINDOW (candidate, BS) pairs, and one candidate at least
        hi = min(lo + max(1, min(width, DROP_WINDOW // (len(pending) * topology.n_bs))),
                 candidates.shape[1])
        window = candidates[pending, lo:hi]
        dx, dy = window[..., 0, None] - bs_x, window[..., 1, None] - bs_y
        dx *= dx
        dy *= dy
        # pairwise_distances' dx * dx + dy * dy, from one term per BS column and row
        d = np.add(dx[..., None, :], dy[..., :, None]).reshape(len(pending), hi - lo, -1)
        np.sqrt(d, out=d)
        np.maximum(d, D_MIN_M, out=d)
        np.minimum(d, D_MAX_M, out=d)
        # each BS keeps its lowest candidate index, across windows and within one
        np.minimum.at(first, (pending[:, None], d.argmin(axis=-1)), np.arange(lo, hi))
        pending = pending[(first[pending] < unseen).sum(axis=1) < k]
        if not len(pending):
            break
        if hi == candidates.shape[1]:
            candidates = np.concatenate((candidates, np.empty((len(rngs), block, 2))), axis=1)
            for member in pending.tolist():
                rngs[member].random(out=candidates[member, hi:])
            candidates[pending, hi:] *= topology.area_side
        lo, width = hi, candidates.shape[1] - hi
    # the k BSs seen first, in the order their candidates came
    serving = first.argsort(axis=1)[:, :k]
    picked = np.take_along_axis(first, serving, axis=1)
    # rewind each stream and redraw just its candidates up to the last one used
    for stream, state, used in zip(rngs, saved, picked[:, -1].tolist()):
        stream.bit_generator.state = state
        stream.random(2 * (used + 1))
    positions = candidates[np.arange(len(rngs))[:, None], picked]
    if isinstance(rng, np.random.Generator):
        return UePlacement(positions[0], serving[0])
    return UePlacement(positions, serving)
