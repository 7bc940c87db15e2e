import numpy as np
import pytest

from dtddsim import (RadioParams, TrafficConfig, build_channel_realization,
                     build_grid, generate_snapshot)


@pytest.fixture
def params():
    return RadioParams()


def random_scene(seed, n_bs=16, area_side=40.0, utilization=0.5,
                 dl_probability=0.5, require_mixed=True):
    """One (snapshot, channel, params) triple from a seeded stream."""
    topo = build_grid(n_bs, area_side)
    rng = np.random.default_rng(seed)
    traffic = TrafficConfig(dl_probability=dl_probability,
                            require_mixed_traffic=require_mixed)
    snap = generate_snapshot(topo, utilization, traffic, rng)
    params = RadioParams()
    chan = build_channel_realization(snap, topo, params, rng)
    return snap, chan, params


def drop_order(snap, sinrs):
    """One [K] array in UE drop order of a snapshot's (dl, ul) SINRs,
    in partition order as jt_sinrs and baseline_sinrs return them."""
    out = np.empty(snap.k)
    out[snap.dl_ues], out[snap.ul_ues] = sinrs
    return out


def unit_columns(rng, n_rows, n_cols):
    """Random complex matrix with unit-norm columns (a valid precoder shape)."""
    w = rng.standard_normal((n_rows, n_cols)) + 1j * rng.standard_normal((n_rows, n_cols))
    return w / np.linalg.norm(w, axis=0)
