"""Phase velocities mode by mode, and the two signal speeds they limit to.

Each ring mode carries one wave running each way, with speeds
c_{m,+} > 0 > c_{m,-} read off the branch eigenvalues.  As m -> 0 both
approach the signal velocities, which also equal the group velocities at
the origin.  Asymmetric velocity weights split the two speeds: the flock
passes disturbances faster one way than the other.
"""

import numpy as np

import ringflock as rf

symmetric = rf.FlockParams.nearest_neighbor(500, -2.0, -1.0)
one_sided = rf.FlockParams.nearest_neighbor(500, -1.0, -1.0,
                                            rho_v_plus=0.0, rho_v_minus=-1.0)

for label, params in (("symmetric weights", symmetric),
                      ("one-sided velocity row", one_sided)):
    print(f"--- {label} ---")
    sig = rf.signal_velocities(params)
    grp = rf.group_velocity(params)
    ext = rf.signal_velocity_limit(params)
    print(f"signal velocities : c+ = {sig.c_plus:+.6f}, c- = {sig.c_minus:+.6f}")
    print(f"group velocities  : {grp[0]:+.6f}, {grp[1]:+.6f}")
    print(f"m->0 extrapolation: {ext[0]:+.6f}, {ext[1]:+.6f}")

    pv = rf.phase_velocities(params)
    print("  m    c_plus     c_minus    Re(nu+)    Re(nu-)")
    for m in (1, 5, 25, 100, 250):
        i = m - 1
        print(f"{m:4d}  {pv.c_plus[i]:+.5f}  {pv.c_minus[i]:+.5f}"
              f"  {pv.re_nu_plus[i]:+.5f}  {pv.re_nu_minus[i]:+.5f}")
    print("fastest modes sit at m -> 0; higher modes are slower and damped\n")
