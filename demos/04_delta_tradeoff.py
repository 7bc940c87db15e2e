"""Trade uplink protection for downlink conditioning with the delta knob.

At 75% utilization every extra uplink BS in the precoder costs downlink
conditioning. Sweeping delta from 0 (include as many as fit) upward shows
uplink sum-rate falling and downlink sum-rate recovering, point by point on
paired snapshots.
"""

from dtddsim import SimulationConfig, run_sweep

SNAPSHOTS = 600
UTILIZATION = 0.75

print(f"delta sweep at utilization {UTILIZATION} "
      f"({SNAPSHOTS} paired snapshots per value)\n")
print(f"{'delta':>5} | {'mean V_ul':>9} | {'UL [Mbit/s]':>11} | "
      f"{'DL [Mbit/s]':>11} | {'total':>8}")

rows = []
for delta in range(5):
    cfg = SimulationConfig(utilizations=(UTILIZATION,), snapshots_per_point=SNAPSHOTS,
                           schemes=("jt_ds",), delta=delta, master_seed=314,
                           worker_count="auto")
    result = run_sweep(cfg)
    entry = result.summaries[0]
    mean_v = result.records.v_ul.mean()
    rows.append((delta, mean_v, entry["mean_ul_sum_rate_bps"] / 1e6,
                 entry["mean_dl_sum_rate_bps"] / 1e6,
                 entry["mean_sum_rate_bps"] / 1e6))
    print(f"{delta:>5} | {mean_v:>9.2f} | {rows[-1][2]:>11.2f} | "
          f"{rows[-1][3]:>11.2f} | {rows[-1][4]:>8.2f}")

print("\ndelta = 4 forces V_ul = 0 here (spare antennas N - K = 4), so that "
      "row is exactly plain JT.")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the figure")
else:
    deltas = [r[0] for r in rows]
    fig, ax = plt.subplots(figsize=(7, 4.5))
    ax.plot(deltas, [r[2] for r in rows], "o-", label="uplink")
    ax.plot(deltas, [r[3] for r in rows], "s-", label="downlink")
    ax.plot(deltas, [r[4] for r in rows], "^--", label="total")
    ax.set_xlabel("delta (uplink-BS participation back-off)")
    ax.set_ylabel("mean sum-rate [Mbit/s]")
    ax.set_title(f"jt_ds at utilization {UTILIZATION}")
    ax.grid(True, alpha=0.4)
    ax.legend()
    fig.tight_layout()
    fig.savefig("delta_tradeoff.png", dpi=120)
    print("figure saved to delta_tradeoff.png")
