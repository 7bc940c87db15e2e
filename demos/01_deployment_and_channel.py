"""Walk through the deployment geometry and the propagation model.

Shows the 4x4 indoor grid, a uniform UE drop with strongest-BS association,
the WINNER II A1 LOS path-loss curve, the Rayleigh fading statistics, and
the thermal noise floor.
"""

import numpy as np

from dtddsim import (RadioParams, build_grid, draw_channel, drop_ues,
                     noise_power, path_loss_db)

rng = np.random.default_rng(7)

print("=== BS grid ===")
topo = build_grid(16, 40.0)
print(f"{topo.n_bs} BSs on a {topo.area_side:.0f} m x {topo.area_side:.0f} m floor, "
      f"{topo.spacing:.0f} m spacing:")
for row in range(4):
    print("   " + "  ".join(f"({x:4.1f},{y:4.1f})"
                            for x, y in topo.bs_positions[4 * row:4 * row + 4]))

print("\n=== UE drop (K = 8, at most one UE per BS) ===")
placement = drop_ues(topo, 8, rng)
for ue, (pos, bs) in enumerate(zip(placement.positions, placement.serving_bs)):
    d = np.linalg.norm(pos - topo.bs_positions[bs])
    print(f"  UE {ue}: ({pos[0]:5.1f},{pos[1]:5.1f}) -> BS {bs:2d} at {d:4.1f} m")

print("\n=== Path loss (2 GHz carrier, distance clamped to [3, 100] m) ===")
for d in (1.0, 3.0, 5.0, 10.0, 20.0, 40.0, 56.6):
    print(f"  d = {d:5.1f} m : {path_loss_db(d, 2.0):6.2f} dB")
print("  (18.7 dB per decade; below 3 m the clamp freezes the value)")

print("\n=== Rayleigh fading ===")
pl = path_loss_db(10.0, 2.0)
h = draw_channel(np.full(200_000, pl), rng)
gain = 10 ** (-pl / 10.0)
print(f"  mean |h|^2 over 2e5 draws : {np.mean(np.abs(h) ** 2):.4e}")
print(f"  average path gain         : {gain:.4e}")
print(f"  |h|^2 is exponential: median/mean = "
      f"{np.median(np.abs(h) ** 2) / np.mean(np.abs(h) ** 2):.3f} (ln 2 = 0.693)")

print("\n=== Noise floor ===")
params = RadioParams()
sigma2 = noise_power(params.bandwidth_hz, params.noise_figure_db)
print(f"  10 MHz bandwidth, 9 dB noise figure -> {sigma2:.3e} W (-95 dBm)")
rx_dbm = 10 * np.log10(params.p_b_max_w * gain) + 30
print(f"  a 100 mW BS at 10 m is received at {rx_dbm:.1f} dBm, "
      f"{rx_dbm + 95:.0f} dB above the floor: the network is interference-limited")
