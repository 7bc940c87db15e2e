"""Span tracing of dtddsim's public layer functions, from outside the package.

A Tracer wraps a function so that each call records one span (name, start,
end, parent). The wrappers are installed on the module attribute the caller
looks up (``dtddsim.harness.build_grid``, not ``dtddsim.topology.build_grid``),
so the package itself is unchanged. A span's self time is its duration
minus the durations of its direct children; the self times of all spans of
one sweep add up to the durations of its root spans.
"""

import contextlib
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module whose attribute is replaced, attribute name). The span
# name's first component is the package module (the layer) that defines the
# function; the patched module is the one whose code looks it up.
PATCHES = (
    ("topology.build_grid", "harness", "build_grid"),
    ("topology.drop_ues", "snapshot", "drop_ues"),
    ("snapshot.generate_snapshot", "harness", "generate_snapshot"),
    ("channel.build_channel_realization", "harness", "build_channel_realization"),
    ("precoding.build_precoder", "harness", "build_precoder"),
    ("precoding.select_uplink_bs", "precoding", "select_uplink_bs"),
    ("precoding.assemble_m", "precoding", "assemble_m"),
    ("precoding.zf_precoder", "precoding", "zf_precoder"),
    ("power.solve_power_lp", "harness", "solve_power_lp"),
    ("metrics.baseline_sinrs", "harness", "baseline_sinrs"),
    ("metrics.jt_sinrs", "harness", "jt_sinrs"),
    ("metrics.snapshot_metrics", "harness", "snapshot_metrics"),
    ("metrics.aggregate", "harness", "aggregate"),
)
# called by the benchmark itself, so wrapped at the call site
ENTRY_POINTS = ("harness.run_sweep", "harness.write_results")
FUNCTIONS = tuple(name for name, _, _ in PATCHES) + ENTRY_POINTS
LAYERS = ("topology", "snapshot", "channel", "precoding", "power", "metrics",
          "harness")


def _count_drop(counts, args, placement):
    counts["topology.drop_ues.ues_placed"] += len(placement)


def _count_channel(counts, args, chan):
    counts["channel.coeffs_drawn"] += (chan.h_dl.size + chan.f_bs.size
                                       + chan.g_ue.size + chan.h_ul.size)


def _count_zf(counts, args, result):
    rows, cols = args[0].shape  # M is [K_dl + V_ul, N_dl]
    counts["precoding.zf_precoder.rows"] += rows
    counts["precoding.zf_precoder.cols"] += cols


def _count_lp(counts, args, alloc):
    w, _, k_dl = args
    counts["power.solve_power_lp.vars"] += k_dl
    counts["power.solve_power_lp.constraints"] += w.shape[0]


def _count_write(counts, args, paths):
    counts["harness.write_results.bytes"] += sum(
        os.path.getsize(p) for p in paths.values())


COUNTERS = {
    "topology.drop_ues": _count_drop,
    "channel.build_channel_realization": _count_channel,
    "precoding.zf_precoder": _count_zf,
    "power.solve_power_lp": _count_lp,
    "harness.write_results": _count_write,
}


class Tracer:
    """Collects spans and shape-derived work counts for one traced sweep."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent span index or -1)
        self.counts = Counter()
        self.raised = Counter()  # exceptions that left a wrapped call
        self._stack = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised[name] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def self_times(self):
        """Per function: (call count, total self seconds)."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[index]
        return calls, self_s

    def root_time(self):
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)


@contextlib.contextmanager
def installed(tracer, package):
    """Replace every PATCHES attribute with a traced wrapper; restore on exit.

    A missing attribute raises AttributeError here, before any sweep runs:
    a refactor that renames a layer function must update PATCHES.
    """
    saved = []
    try:
        for name, module_name, attr in PATCHES:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(tracers, walls, uplink_selected):
    """Per-layer metrics over several traced sweeps of one configuration.

    Counts are per sweep (identical across sweeps of one configuration);
    times are the median over sweeps. Raises RuntimeError if a wrapped
    function that should run was never called, since its time would then
    silently move into its caller's self time. select_uplink_bs should run
    exactly when uplink_selected: some jt_ds record of the sweep has
    v_ul > 0 (a small sweep, or one at full utilization only, may have none).
    """
    per_sweep = [t.self_times() for t in tracers]
    calls = per_sweep[0][0]
    expected = [name for name in FUNCTIONS
                if uplink_selected or name != "precoding.select_uplink_bs"]
    missing = [name for name in expected if calls[name] == 0]
    if missing:
        raise RuntimeError(f"traced functions recorded no calls: {missing}")
    out = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_us_per_call"] = (statistics.median(
            self_s[name] / c[name] if c[name] else 0.0
            for c, self_s in per_sweep) * 1e6, "us")
    for layer in LAYERS:
        out[f"{layer}.share"] = (statistics.median(
            sum(s for name, s in self_s.items() if name.split(".")[0] == layer)
            / wall for (_, self_s), wall in zip(per_sweep, walls)), "ratio")
    counts, raised = tracers[0].counts, tracers[0].raised
    zf_ok = calls["precoding.zf_precoder"] - raised["precoding.zf_precoder"]
    lp_calls = calls["power.solve_power_lp"]
    out.update({
        "topology.drop_ues.ues_placed": (counts["topology.drop_ues.ues_placed"], "count"),
        "channel.coeffs_drawn": (counts["channel.coeffs_drawn"], "count"),
        "precoding.zf_precoder.mean_rows": (
            counts["precoding.zf_precoder.rows"] / max(zf_ok, 1), "count"),
        "precoding.zf_precoder.mean_cols": (
            counts["precoding.zf_precoder.cols"] / max(zf_ok, 1), "count"),
        "precoding.zf_precoder.failed": (raised["precoding.zf_precoder"], "count"),
        "power.solve_power_lp.mean_vars": (
            counts["power.solve_power_lp.vars"] / lp_calls, "count"),
        "power.solve_power_lp.mean_constraints": (
            counts["power.solve_power_lp.constraints"] / lp_calls, "count"),
        "harness.write_results.bytes": (counts["harness.write_results.bytes"], "B"),
    })
    return out


def write_spans(tracers, path):
    """One CSV line per span: sweep index, span index, name, start, end, parent."""
    with open(path, "w") as fh:
        fh.write("sweep,span,name,start_s,end_s,parent\n")
        for sweep, tracer in enumerate(tracers):
            for index, (name, start, end, parent) in enumerate(tracer.spans):
                fh.write(f"{sweep},{index},{name},{start:.9f},{end:.9f},{parent}\n")
