"""Recover a full trajectory from FDOA samples over a time interval.

A single snapshot from two radar pairs in the plane cannot fix the position
(the 2x2 frame is square, so E vanishes everywhere).  Integrating the
stationarity dynamics of the time-integrated residual restores
identifiability: each candidate initial state (x0, v0) is propagated with
RK4 and scored, and the best-scoring trajectory is kept.
"""

import numpy as np

from framefit import (
    GridSpec,
    RadarGeometry,
    TimeSeries,
    radar_family,
    shooting_search,
)

geometry = RadarGeometry(
    [[30.0, 0.0], [0.0, 30.0]], [[-30.0, 10.0], [10.0, -30.0]]
)
family = radar_family(geometry)

x0, v0 = np.array([1.0, 0.5]), np.array([2.0, -1.0])
times = np.linspace(0.0, 1.0, 201)
pos = x0[None, :] + times[:, None] * v0[None, :]
w = np.array([family.frame(p).T @ v0 for p in pos])
data = TimeSeries(times, w)
print(f"{data.num_samples} samples over [0, 1] s, dt = {data.dt:.3f} s")

pos_grid = GridSpec(x0 - 1.0, x0 + 1.0, [3, 3])   # truth is the middle node
vel_grid = GridSpec(v0 - 1.0, v0 + 1.0, [3, 3])
best, value, trace = shooting_search(family, data, pos_grid, vel_grid)

print(f"\nswept {len(trace)} candidate initial states")
ranked = sorted(trace, key=lambda item: item[2])[:5]
print(f"{'x0':>16}  {'v0':>16}  {'score':>10}")
for xs, vs, val in ranked:
    print(
        f"({xs[0]:+5.1f}, {xs[1]:+5.1f})  ({vs[0]:+5.1f}, {vs[1]:+5.1f})"
        f"  {val:10.3e}"
    )

err = np.linalg.norm(best.positions[-1] - pos[-1])
print(f"\nbest score {value:.3e}, endpoint error {err:.3e} m")
print("start ", np.round(best.positions[0], 6), "truth", x0)
print("finish", np.round(best.positions[-1], 6), "truth", np.round(pos[-1], 6))
