"""The traveling-wave approximation and its three-term error bound, measured.

For stable rings the full solution is close to two rigid profiles sliding
in opposite directions, z_k(t) ~ f_-(k - c_- t) + f_+(k - c_+ t), once the
observation time reaches the crossing scale t ~ n / |c|.  The error obeys a
three-term bound (the kept modes' drift from their rigid translates,
mid-band damping, high-band damping).  Every term comes from the ring's
own data and roots, with no fitted constant, so each ring is an honest
test of the bound.
"""

import ringflock as rf

params = rf.FlockParams.nearest_neighbor(256, g_x=-2.0, g_v=-1.0)
alpha, beta, k_window, p = 0.3, 0.7, 2.0, 2.0

print(f"profile cutoff |m| < n^{alpha}, damping bands to n^{beta} and n/2")
print("\n   n   cutoff  E(t*)      E/sup|z|   term1      term2      term3     bound ok")
for n in (256, 512, 1024):
    coeffs = rf.power_law_coefficients(n, p, seed=7)  # |coeff_m| = m^-2 data
    rep = rf.verify_wave_bound(params.with_n(n), coeffs, alpha, beta, k_window, p)
    rel = rep.measured[0] / rep.signal_sup[0]
    print(f"{n:5d}   {rep.cutoff:4d}   {rep.measured[0]:.5f}"
          f"    {rel:.5f}   {rep.term1[0]:.5f}    {rep.term2[0]:.5f}"
          f"    {rep.term3[0]:.2e}  {rep.bound_holds()}")

print("\nthe measured error shrinks as the ring grows, and the bound holds")
print("on every ring; with alpha >= 1/3 the truncation would stop shrinking,")
print("which is the theoretical edge of the approximation")
