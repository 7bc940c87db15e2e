"""tools/bits_diff.py's comparison of record tables, on synthetic tables, and
its configurations against the ones tests/test_golden.py pins.

No sweep runs.
"""

import dataclasses
import importlib.util
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import test_golden

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))  # bits_diff imports bench_pairs from its own directory
spec = importlib.util.spec_from_file_location("bits_diff", TOOLS / "bits_diff.py")
bits_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bits_diff)

DTYPE = np.dtype([("scheme", "U8"), ("snapshot", np.int64), ("rate", np.float64),
                  ("failed", np.bool_)])


def table():
    return np.array([("jt", 0, 1.5, False), ("jt", 1, np.nan, True), ("jt_ds", 0, 0.0, False),
                     ("jt_ds", 1, 2.0, False)], dtype=DTYPE)


def test_equal_tables_have_no_differing_rows():
    assert bits_diff.compare(table(), table()) == {"rows": [], "columns": [], "max_rel": 0.0}


def test_rows_columns_and_largest_relative_difference():
    change = table()
    change["rate"][0] = np.nextafter(1.5, 2.0)  # one ulp
    change["rate"][3] = 2.5
    change["failed"][3] = True
    diff = bits_diff.compare(table(), change)
    assert diff["rows"] == [0, 3]
    assert diff["columns"] == ["rate", "failed"]
    assert diff["max_rel"] == 0.25


def test_floats_compare_by_their_bits():
    # NaN equals NaN, and -0.0 differs from 0.0 with no relative difference;
    # a number against a parent 0 differs infinitely, a NaN against a number
    # has no finite relative difference
    change = table()
    change["rate"][2] = -0.0
    assert bits_diff.compare(table(), change) == {"rows": [2], "columns": ["rate"],
                                                  "max_rel": 0.0}
    change["rate"][2] = 1e-300
    assert bits_diff.compare(table(), change)["max_rel"] == float("inf")
    change = table()
    change["rate"][0] = np.nan
    assert bits_diff.compare(table(), change) == {"rows": [0], "columns": ["rate"],
                                                  "max_rel": 0.0}


def test_tables_of_other_lengths_differ_in_every_row():
    diff = bits_diff.compare(table(), table()[:3])
    assert diff["rows"] == [0, 1, 2, 3]
    assert diff["columns"] == ["<dtype or length>"]


def test_every_golden_pin_is_a_configuration(monkeypatch):
    # each configuration tests/test_golden.py pins, caught as the keyword
    # arguments it builds its SimulationConfig from, is one the tool sweeps
    class Built(Exception):
        pass

    def build(**kwargs):
        raise Built(kwargs)

    monkeypatch.setattr(test_golden, "SimulationConfig", build)
    runs = [partial(test_golden.test_sweep_output_matches_golden_digests, None)]
    runs += [partial(test_golden.test_path_output_matches_digests, None, *pin.values)
             for pin in test_golden.PATH_PINS]
    for run in runs:
        with pytest.raises(Built) as built:
            run()
        kwargs = built.value.args[0]
        if "traffic" in kwargs:
            kwargs["traffic"] = dataclasses.asdict(kwargs["traffic"])
        assert kwargs in bits_diff.CONFIGS.values(), kwargs
