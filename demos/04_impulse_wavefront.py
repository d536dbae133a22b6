"""Kick one agent and watch the disturbance circle the ring both ways.

At t = 0 agent 0 alone gets a unit velocity impulse.  Two wavefronts emerge
and run around the ring, one per direction, at the signal velocities.  The
run fits both front speeds from the per-agent arrival times and compares
them with the closed-form prediction, agent by agent as well.  The orbits
are x_k(t) = z_k(t) + k, read straight off traj.z.
"""

import numpy as np

import ringflock as rf

params = rf.FlockParams.nearest_neighbor(200, g_x=-2.0, g_v=-2.0)
traj, front = rf.impulse_experiment(params)

print(f"predicted front speeds: c+ = {front.predicted_c_plus:+.4f}, "
      f"c- = {front.predicted_c_minus:+.4f}")
print(f"fitted from arrivals  : c+ = {front.fitted_c_plus:+.4f}, "
      f"c- = {front.fitted_c_minus:+.4f}")
print(f"agents never reached  : {np.isnan(front.arrival_time).sum()}")

print("\narrival of the forward front (threshold crossing of |zdot|):")
for k in (10, 25, 50, 75, 90):
    print(f"  agent {k:3d} at t = {front.arrival_time[k]:7.2f}"
          f"   (front prediction {k / front.predicted_c_plus:7.2f})")

