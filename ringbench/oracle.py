"""Oracle workload: the two library cross-checks a user of the package runs.

  * dense check: the closed-form spectrum against a dense eigensolve of the
    2n x 2n system, matched by `max_matching_distance`, at n = 64 and 256;
  * RK4 check: `integrate` against exact modal evolution at n = 200,
    t = 10, dt = 1e-3.

Parameter draws come from the seed and are snapped to dyadic grids, so every
stored matrix entry is an exact binary float and the row sums cancel exactly
(otherwise the structurally defective zero pair picks up ~1e-9 noise).

Usage: python ringbench/oracle.py --seed N
Prints key=value result lines; the benchmark checks them.
"""

import argparse
import math

import numpy as np

import ringflock as rf

DENSE_NS = (64, 256)
DENSE_DRAWS = 8
RK4_N = 200
RK4_T_END = 10.0
RK4_DT = 1e-3


def _dyadic(rng, lo, hi, bits):
    scale = float(2 ** bits)
    return float(np.round(rng.uniform(lo, hi) * scale) / scale)


def _nonzero(rng, lo, hi, bits):
    while True:
        v = _dyadic(rng, lo, hi, bits)
        if v != 0.0:
            return v


def _row(rng):
    w_minus, w_plus = _dyadic(rng, -1, 1, 20), _dyadic(rng, -1, 1, 20)
    return {-1: w_minus, 0: -(w_minus + w_plus), 1: w_plus}


def dense_draw(rng, n):
    """Generic decentralized draw: any gain signs, any weight asymmetry."""
    return rf.FlockParams(n=n, g_x=_nonzero(rng, -3, 3, 10), g_v=_nonzero(rng, -3, 3, 10),
                          rho_x=_row(rng), rho_v=_row(rng))


def underdamped_draw(rng, n):
    """Gate-true draw with g_v**2 < -2 g_x, so every mode has a complex pair."""
    g_x = -_nonzero(rng, 0.5, 3, 10)
    g_v = min(-_dyadic(rng, 0.2, 0.9, 10) * math.sqrt(-2.0 * g_x), -0.05)
    rv1 = _dyadic(rng, -1.2, 0.2, 20)
    return rf.FlockParams.nearest_neighbor(n, g_x, g_v, -0.5, rv1, -0.5, -(1.0 + rv1))


def dense_check(rng):
    worst = 0.0
    for _ in range(DENSE_DRAWS):
        p = dense_draw(rng, 4)
        for n in DENSE_NS:
            pn = p.with_n(n)
            closed = rf.spectrum(pn).all_nus()
            dense = rf.dense_spectrum(rf.build_dense(pn))
            worst = max(worst, rf.max_matching_distance(closed, dense))
    return worst


def rk4_check(rng):
    p = underdamped_draw(rng, RK4_N)
    z0 = rng.uniform(-1, 1, RK4_N)
    v0 = rng.uniform(-1, 1, RK4_N)
    coeffs = rf.modal_decompose(p, z0, v0)
    traj = rf.integrate(p, z0, v0, t_end=RK4_T_END, dt=RK4_DT)
    z_ref, _ = rf.modal_evolve(p, coeffs, traj.times[-1])
    return float(np.abs(traj.z[-1] - z_ref).max() / np.abs(z_ref).max())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    print(f"dense_draws={DENSE_DRAWS}")
    print(f"dense_max_matching={dense_check(rng)!r}")
    print(f"rk4_rel_error={rk4_check(rng)!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
