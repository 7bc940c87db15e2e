"""Fingerprint of the sweep output.

The sweep is a pure function of its configuration, so the bytes of
records.csv and summary.json are pinned for one small configuration, and
for one more per path it does not reach: delta > 0, traffic in one
direction only, 9- and 25-BS grids and one scheme alone. A change that
moves any number, even in the last printed digit, fails here; one that
does so on purpose re-pins the digests and records the largest relative
difference from the old output, with the reason, in CHANGES.md.
"""

import hashlib

import pytest

from dtddsim import SimulationConfig, TrafficConfig, run_sweep, write_results

GOLDEN_CONFIG = dict(utilizations=(0.5, 1.0), snapshots_per_point=200,
                     master_seed=2026)
GOLDEN_SHA256 = {
    "records.csv": "fef211bcac6d6011ea7016a32cfa29f4d45ce428dff9333223d7fac5b0d9231f",
    "summary.json": "8b0c052a62ef60b8aef3406cd826f2a2fdde1eb996c0df7a7c2941b7291360da",
}


# each with its records.csv and summary.json digests
PATH_PINS = [
    # JT-DS with 0 < V_ul < V_ul_max; K = 2 at u = 0.125
    pytest.param(dict(delta=2, utilizations=(0.125, 0.375, 0.75)),
                 "2520b8259e01613569a7bb380bf18c162647b97391951371ae6a1ba26aa4c9e7",
                 "74d9ba302ffd842425e64b639202694c739457d624d787c0e08bd2bd32da9fc3",
                 id="delta_2"),
    # snapshots with no uplink UE, then with no downlink UE
    pytest.param(dict(traffic=TrafficConfig(dl_probability=0.9, require_mixed_traffic=False),
                      utilizations=(0.25, 1.0)),
                 "abe305471230a3c4d97bf683b07613c21c21bf31f04e3a5e953ef92126f99488",
                 "a38d33d8d43ace595a05b23ef75aba6f090e613a0cb2e4f115c24f4c947979ed",
                 id="unmixed_p0.9"),
    pytest.param(dict(traffic=TrafficConfig(dl_probability=0.1, require_mixed_traffic=False),
                      utilizations=(0.25, 1.0)),
                 "19a57bb6e27bf164bef2862e6180c69c14b9a46c453d384992f0abc8c2e77151",
                 "7dccd8276a1f66703e06b3eed9b7ce4e92586544e826afbacc3bb0a8dc4b019a",
                 id="unmixed_p0.1"),
    pytest.param(dict(n_bs=9, area_side=30.0, delta=1, utilizations=(0.4, 1.0)),
                 "b39571309481970ccbdc375a5da2c9df00d4ebf42effdcf6af5a4f13dfc96b4e",
                 "5537ed74e26318636b1a0bc5e681b5f82ca99eff8ff0c41fe346e4c2c95f7002",
                 id="9_bs"),
    pytest.param(dict(n_bs=25, area_side=50.0, utilizations=(0.2, 0.6),
                      snapshots_per_point=60),
                 "17a667da0ebfdf8f509e7bcc343203c07df5b2dd595debf6e3ffbed307bf8245",
                 "d0aa58d213265dca0120dba215df08e900d0441d3054eb08c21a02593d55cdee",
                 id="25_bs"),
    pytest.param(dict(schemes=("jt_ds",), utilizations=(0.5,)),
                 "accc2b81656e1fffc32e26eccf8d9f8e9e540d16b3f3c571233e0750eca30bca",
                 "c696ced1705077eaf2ad12d42d372700e774aa662c1df2a327849b57b2c183d3",
                 id="jt_ds_only"),
]


def output_digests(config, path):
    write_results(run_sweep(config), path)
    return {name: hashlib.sha256((path / name).read_bytes()).hexdigest()
            for name in ("records.csv", "summary.json")}


def test_sweep_output_matches_golden_digests(tmp_path):
    assert output_digests(SimulationConfig(**GOLDEN_CONFIG), tmp_path) == GOLDEN_SHA256


@pytest.mark.parametrize("config, records_sha256, summary_sha256", PATH_PINS)
def test_path_output_matches_digests(tmp_path, config, records_sha256, summary_sha256):
    config = SimulationConfig(**{"snapshots_per_point": 100, "master_seed": 2026, **config})
    assert output_digests(config, tmp_path) == {"records.csv": records_sha256,
                                                "summary.json": summary_sha256}
