"""Checks on a sweep's records.csv and summary.json.

Every check maps a problem to the scheme evaluations (records.csv rows) it
affects, so the benchmark can report the share of attempted evaluations
that failed. The checks hold for any seed; the reference comparison only
applies to the configuration the reference was taken from.
"""

import csv
import hashlib
import json
import math
import os

RATE_FIELDS = ("dl_sum_rate_bps", "ul_sum_rate_bps", "sum_rate_bps")
SUMMARY_RATE_FIELDS = ("mean_sum_rate_bps", "mean_dl_sum_rate_bps",
                       "mean_ul_sum_rate_bps", "fifth_percentile_user_rate_bps")
SUMMARY_EXACT_FIELDS = ("scheme", "utilization", "delta", "traffic_load_k",
                        "n_snapshots", "n_failed")


class Output:
    """One sweep's records.csv rows and summary.json entries, read from disk."""

    def __init__(self, out_dir):
        self.dir = out_dir
        with open(os.path.join(out_dir, "records.csv"), newline="") as fh:
            self.rows = list(csv.DictReader(fh))
        with open(os.path.join(out_dir, "summary.json")) as fh:
            self.summary = json.load(fh)

    def rows_of_point(self, scheme, utilization):
        return {i for i, row in enumerate(self.rows)
                if row["scheme"] == scheme
                and float(row["utilization"]) == utilization}


def sha256(out_dir):
    """Hex digests of records.csv and summary.json."""
    digests = {}
    for name in ("records.csv", "summary.json"):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def failed_rows(out):
    """Rows the program itself flagged failed=1 (rank-deficient channel)."""
    return {i for i, row in enumerate(out.rows) if row["failed"] == "1"}


def record_problems(out):
    """Rows that break an invariant that holds for every seed.

    * every rate of a non-failed row is finite and >= 0;
    * a jt_ds row with v_ul = 0 has exactly the jt row's rates (JT-DS with
      no dummy streams is JT).
    """
    bad = set()
    jt_rates = {}
    for i, row in enumerate(out.rows):
        if row["scheme"] == "jt":
            jt_rates[row["utilization"], row["snapshot"]] = (
                i, [row[f] for f in RATE_FIELDS])
        if row["failed"] == "1":
            continue
        rates = [float(row[f]) for f in RATE_FIELDS]
        if not all(math.isfinite(r) and r >= 0.0 for r in rates):
            bad.add(i)
    for i, row in enumerate(out.rows):
        if row["scheme"] == "jt_ds" and row["v_ul"] == "0":
            j, rates = jt_rates.get((row["utilization"], row["snapshot"]),
                                    (None, None))
            if rates != [row[f] for f in RATE_FIELDS]:
                bad.add(i)
                if j is not None:
                    bad.add(j)
    return bad


def difference(out, other):
    """Rows of out whose evaluation differs in other (byte-level, per line).

    If the row counts differ, rows cannot be paired and every row of out
    differs.
    """
    if len(out.rows) != len(other.rows):
        return set(range(len(out.rows)))
    bad = {i for i, (a, b) in enumerate(zip(out.rows, other.rows)) if a != b}
    return bad | _summary_difference(out, other.summary,
                                     lambda a, b: a == b)


def reference_problems(out, reference_summary, rel_tol):
    """Rows of the sweep points whose summary is off the pinned reference."""
    def close(a, b):
        if isinstance(a, float) or isinstance(b, float):
            return (a is not None and b is not None
                    and math.isclose(a, b, rel_tol=rel_tol, abs_tol=0.0))
        return a == b
    return _summary_difference(out, reference_summary, close)


def _summary_difference(out, expected, same):
    bad = set()
    if len(out.summary) != len(expected):
        return set(range(len(out.rows)))
    for got, want in zip(out.summary, expected):
        exact_ok = all(got.get(f) == want.get(f) for f in SUMMARY_EXACT_FIELDS)
        rates_ok = all(same(got.get(f), want.get(f)) for f in SUMMARY_RATE_FIELDS)
        if not (exact_ok and rates_ok):
            bad |= out.rows_of_point(got["scheme"], got["utilization"])
    return bad
