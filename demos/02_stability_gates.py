"""Three routes to a stability verdict, and how they agree.

The closed-form gate decides stability at every ring size from three
inequalities on the weights alone.  The Routh-Hurwitz conditions decide it
per mode from the coupling symbols.  The spectral verdict just evaluates
all the eigenvalues at one n.  Asymmetric position weights are the
interesting case: every finite check can pass for small rings while the
flock is doomed once it grows.
"""

import ringflock as rf

cases = {
    "symmetric, damped": rf.FlockParams.nearest_neighbor(64, -2.0, -1.0),
    "position row tilted by 1%": rf.FlockParams(
        n=64, g_x=-1.0, g_v=-3.0,
        rho_x={-1: -0.495, 0: 1.0, 1: -0.505},
        rho_v={-1: -0.5, 0: 1.0, 1: -0.5}),
    "velocity gain flipped": rf.FlockParams.nearest_neighbor(64, -2.0, 2.0),
}

for name, params in cases.items():
    print(f"--- {name} ---")
    gate = rf.stable_for_all_n(params)
    print("closed-form gate (stable for every n):", gate)
    for n in (16, 64, 256):
        ring = params.with_n(n)
        report = rf.spectral_verdict(ring)
        ms = rf.mode_range(n)
        failures = sum(int((~c).sum()) for c in rf.routh_hurwitz(ring, ms[ms != 0]))
        print(f"  n={n:4d}: spectral stable={report.spectral_stable}  "
              f"max Re(nu) = {report.max_real_part:+.3e}  "
              f"violated RH conditions: {failures}")
    if not gate:
        found = rf.instability_witness(params)
        m, _, nu = found.witness
        print(f"  first unstable ring: n={found.n}, mode m={m}, Re(nu)={nu.real:+.4e}")
    print()

print("A tilted position row passes every small-ring check and still fails")
print("at scale; the gate predicts that without looking at any one n.")
