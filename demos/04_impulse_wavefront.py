"""Kick one agent and watch the disturbance circle the ring both ways.

At t = 0 agent 0 alone gets a velocity impulse.  Two wavefronts emerge and
run around the ring, one per direction, at the signal velocities.  The run
fits both front speeds from the per-agent arrival times and compares them
with the closed-form prediction; it also writes where the two predicted
fronts sit in orbit space as plot-ready CSV, to lay over the orbits
x_k(t) = z_k(t) + k of the trajectory.
"""

from pathlib import Path

import ringflock as rf

params = rf.FlockParams.nearest_neighbor(200, g_x=-2.0, g_v=-2.0)
traj, front = rf.impulse_experiment(params, v_impulse=1.0)

print(f"predicted front speeds: c+ = {front.predicted_c_plus:+.4f}, "
      f"c- = {front.predicted_c_minus:+.4f}")
print(f"fitted from arrivals  : c+ = {front.fitted_c_plus:+.4f}, "
      f"c- = {front.fitted_c_minus:+.4f}")
print(f"agents never reached  : {len(front.no_arrival)}")

print("\narrival of the forward front (threshold crossing of |zdot|):")
for k in (10, 25, 50, 75, 90):
    print(f"  agent {k:3d} at t = {front.arrival_time[k]:7.2f}"
          f"   (front prediction {k / front.predicted_c_plus:7.2f})")

# front overlay in orbit space (unit spacing, no drift); the orbits
# themselves are rf.positions(traj, delta=1.0)
out = Path("demo_out")
out.mkdir(exist_ok=True)
fp, fm = rf.front_overlay(traj, front.predicted_c_plus, front.predicted_c_minus)
with open(out / "orbits.csv", "w") as fh:
    fh.write("t,front_plus_x,front_minus_x\n")
    for t, xp, xm in zip(traj.times, fp, fm):
        fh.write(f"{t},{xp},{xm}\n")
print(f"\nfront overlay written to {out / 'orbits.csv'}")
print("(gnuplot: set datafile separator ','; "
      "plot for [c=2:3] 'demo_out/orbits.csv' using 1:c with lines)")
