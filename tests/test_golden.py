"""Fingerprint of the sweep output.

The sweep is a pure function of its configuration, so the bytes of
records.csv and summary.json are pinned for one small configuration. A
change that moves any number, even in the last printed digit, fails here;
one that does so on purpose re-pins the digests and records the largest
relative difference from the old output, with the reason, in CHANGES.md.
"""

import hashlib

from dtddsim import SimulationConfig, run_sweep, write_results

GOLDEN_CONFIG = dict(utilizations=(0.5, 1.0), snapshots_per_point=200,
                     master_seed=2026)
GOLDEN_SHA256 = {
    "records.csv": "fef211bcac6d6011ea7016a32cfa29f4d45ce428dff9333223d7fac5b0d9231f",
    "summary.json": "8b0c052a62ef60b8aef3406cd826f2a2fdde1eb996c0df7a7c2941b7291360da",
}


def test_sweep_output_matches_golden_digests(tmp_path):
    write_results(run_sweep(SimulationConfig(**GOLDEN_CONFIG)), tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256
