"""Seeded parameter draws and checks shared by the unit and acceptance tests."""

import math
import tracemalloc

import numpy as np

from ringflock import FlockParams, mode_range, routh_hurwitz


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes tracemalloc traced while it ran)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fft_modes(n):
    """Mode index carried by each FFT bin: f for f <= n//2, else f - n."""
    f = np.arange(n)
    return np.where(f <= n // 2, f, f - n)


def dyadic(rng, lo, hi, bits=20):
    """Uniform draw snapped to a 2**-bits grid.

    Gains use a coarse grid (10 bits) and weights a fine one (20 bits) so
    every stored matrix entry g * rho is an exact binary float and the
    decentralized row sums cancel exactly; without this the dense system
    carries ~1e-17 row-sum noise whose square root pollutes the structurally
    defective zero pair at the 1e-9 level.
    """
    scale = float(2 ** bits)
    return float(np.round(rng.uniform(lo, hi) * scale) / scale)


def dyadic_nonzero(rng, lo, hi, bits=20):
    while True:
        v = dyadic(rng, lo, hi, bits)
        if v != 0.0:
            return v


def random_valid_params(rng, n):
    """Generic decentralized draw: any gain signs, any weight asymmetry."""
    return FlockParams(
        n=n,
        g_x=dyadic_nonzero(rng, -3, 3, bits=10),
        g_v=dyadic_nonzero(rng, -3, 3, bits=10),
        rho_x=_closed_row(dyadic(rng, -1, 1), dyadic(rng, -1, 1)),
        rho_v=_closed_row(dyadic(rng, -1, 1), dyadic(rng, -1, 1)),
    )


def _closed_row(w_minus, w_plus):
    return {-1: w_minus, 0: -(w_minus + w_plus), 1: w_plus}


def random_gate_true_params(rng, n):
    """Normalized draw passing the closed-form gate (any damping strength)."""
    g_x = -dyadic_nonzero(rng, 0.5, 3, bits=10)
    g_v = -dyadic_nonzero(rng, 0.2, 3, bits=10)
    rv1 = dyadic(rng, -1.2, 0.2)
    return FlockParams.nearest_neighbor(n, g_x, g_v, -0.5, rv1, -0.5, -(1.0 + rv1))


def random_underdamped_params(rng, n):
    """Gate-true draw with g_v**2 strictly below -2 g_x.

    In this regime every nonzero mode keeps a strictly complex branch pair;
    at g_v**2 = -2 g_x the half-ring mode of an even ring turns into a real
    double root and the imaginary-sign branch labels (hence the per-mode
    phase velocities) stop being defined.
    """
    g_x = -dyadic_nonzero(rng, 0.5, 3, bits=10)
    g_v = -dyadic(rng, 0.2, 0.9, bits=10) * math.sqrt(-2.0 * g_x)
    g_v = min(g_v, -0.05)
    rv1 = dyadic(rng, -1.2, 0.2)
    return FlockParams.nearest_neighbor(n, g_x, g_v, -0.5, rv1, -0.5, -(1.0 + rv1))


def random_moderate_damping_params(rng, n):
    """Underdamped draw away from the weak-damping corner, used for the
    quantitative high-mode decay property."""
    g_x = -dyadic_nonzero(rng, 1.0, 3, bits=10)
    g_v = -dyadic(rng, 0.4, 0.9, bits=10) * math.sqrt(-2.0 * g_x)
    rv1 = dyadic(rng, -0.8, -0.2)
    return FlockParams.nearest_neighbor(n, g_x, g_v, -0.5, rv1, -0.5, -(1.0 + rv1))


def random_asymmetric_x_params(rng, n, min_gap=0.15):
    """Draw with rho_x[-1] != rho_x[+1] by at least min_gap (so the first
    position moment is at least min_gap * |g_x| in magnitude)."""
    g_x = -dyadic_nonzero(rng, 0.3, 3, bits=10)
    g_v = -dyadic_nonzero(rng, 0.2, 3, bits=10)
    gap = dyadic(rng, min_gap, 0.8)
    if rng.uniform() < 0.5:
        gap = -gap
    rx1 = -0.5 + gap / 2.0
    rxm1 = -0.5 - gap / 2.0
    rv1 = dyadic(rng, -1.2, 0.2)
    return FlockParams(
        n=n, g_x=g_x, g_v=g_v,
        rho_x=_closed_row(rxm1, rx1),
        rho_v=_closed_row(-(1.0 + rv1), rv1),
    )


def routh_hurwitz_holds(p):
    """True iff every Routh-Hurwitz inequality holds at every nonzero mode of p."""
    ms = mode_range(p.n)
    return all(c.all() for c in routh_hurwitz(p, ms[ms != 0]))
