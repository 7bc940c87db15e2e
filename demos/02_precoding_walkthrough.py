"""Anatomy of one snapshot: selection, zero forcing, power control, SINRs.

Builds a single mixed-traffic snapshot and walks the jt_ds pipeline step by
step, printing what the baseline sees, which uplink BSs get included, how
well the precoder nulls, what the power LP allocates, and how the three
schemes compare UE by UE.
"""

import numpy as np

from dtddsim import (RadioParams, TrafficConfig, assemble_m, baseline_sinrs,
                     build_channel_realization, build_grid, build_precoder,
                     evaluate_snapshot, generate_snapshot, solve_power_lp, v_ul,
                     v_ul_max)

rng = np.random.default_rng(42)
topo = build_grid(16, 40.0)
params = RadioParams()
traffic = TrafficConfig()  # i.i.d. 50:50 directions, at least one of each

snap = generate_snapshot(topo, 0.75, traffic, rng)
chan = build_channel_realization(snap, topo, params, rng)

print("=== Snapshot ===")
print(f"K = {snap.k} active UEs: {snap.k_dl} downlink, {snap.k_ul} uplink")
print(f"downlink array: {snap.n_dl_count} BSs {snap.n_dl.tolist()}")
print(f"uplink BSs:     {snap.ul_bs.tolist()} (one per uplink UE)")

print("\n=== Baseline uplink SINRs drive the selection ===")
base = baseline_sinrs(snap, chan, params)
for slot, ue in enumerate(snap.ul_ues):
    print(f"  UL UE {ue} @ BS {snap.ul_bs[slot]:2d}: baseline SINR "
          f"{10 * np.log10(base[ue]):6.1f} dB")

vmax = v_ul_max(snap.n_ul_count, snap.n_dl_count, snap.k_dl)
v = v_ul(0, vmax)
print(f"\nV_ul_max = min(N_ul={snap.n_ul_count}, N_dl-K_dl="
      f"{snap.n_dl_count - snap.k_dl}) = {vmax}; delta = 0 -> include {v} BSs")

res = build_precoder(snap, chan, v, base)
selected = snap.ul_bs[res.ul_rows]
print(f"selected uplink BSs (worst baseline SINR first): {selected.tolist()}")

print("\n=== Zero-forcing quality ===")
m = assemble_m(chan, res.ul_rows)
prod = np.abs(m @ res.w)
off = prod - np.diag(np.diag(prod))
print(f"M is {m.shape[0]} x {m.shape[1]}, condition number {np.linalg.cond(m):.1f}")
print(f"max off-diagonal |row_m(M) w_k|: {off.max():.2e} "
      f"(diagonal entries ~ {np.diag(prod).mean():.2e})")

print("\n=== Per-antenna power LP ===")
p = solve_power_lp(res.w, params.p_b_max_w, snap.k_dl)
print(f"stream powers (W): {np.array2string(p, precision=4)}")
antenna_load = np.abs(res.w) ** 2 @ p
print(f"antenna loads: max {antenna_load.max() * 1e3:.1f} mW of "
      f"{params.p_b_max_w * 1e3:.0f} mW budget, "
      f"{np.isclose(antenna_load, params.p_b_max_w).sum()} antennas at the cap")

print("\n=== Scheme comparison on this snapshot ===")
results = evaluate_snapshot(snap, chan, params)
def fmt_sinr(gamma):
    # the sum-power LP may park a downlink stream at zero power
    return "  muted   " if gamma <= 0 else f"{10 * np.log10(gamma):7.1f} dB"

print(f"{'UE':>4} {'dir':>4} | " + " | ".join(f"{s:>10}" for s in results))
for ue in range(snap.k):
    direction = "DL" if snap.is_downlink[ue] else "UL"
    cells = " | ".join(fmt_sinr(r.per_ue_sinr[ue]) for _, r in results.values())
    print(f"{ue:>4} {direction:>4} | {cells}")
print("-" * 50)
for name, (nulled, r) in results.items():
    print(f"{name:>8}: sum-rate {r.sum_rate_bps / 1e6:7.1f} Mbit/s "
          f"(DL {r.dl_sum_rate_bps / 1e6:6.1f}, UL {r.ul_sum_rate_bps / 1e6:6.1f}), "
          f"V_ul = {nulled}")
