"""Asymptotic-stability verdicts for the ring flock.

Stability here means: the coherent double zero is the only eigenvalue off
the open left half plane.  Three routes to a verdict are provided, one
function each, and the test suite cross checks them against each other:

* stable_for_all_n, the closed-form gate on the weights (symmetric position
  row, both gain/center products negative), which decides stability for
  every n at once;
* routh_hurwitz, the four Routh-Hurwitz inequalities of the quadratic pencil
  with complex coefficients, evaluated at any set of modes;
* spectral_verdict, which classifies every branch eigenvalue at one n.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import RingflockError
from .model import FlockParams
from .spectral import (_mode_blocks, _symmetric_position_row, as_modes, eigenvalue_arrays,
                       lambda_curves)

#: Relative half-width of each root's marginal band around Re(nu) = 0.
MARGINAL_BAND = 1e-10

#: spectral_verdict refuses larger rings: walking this many already takes
#: over a minute (about 0.07 us per agent at n = 10**7 on a 2-core x86_64 VM).
VERDICT_N_MAX = 1 << 30


@dataclass(frozen=True)
class StabilityReport:
    """Spectral verdict at one ring size.

    witness = (m, branch, nu) is present exactly when the spectrum is not
    strictly stable: the branch eigenvalue with the largest real part above
    its mode's marginal band if there is one, else the one realizing
    max_real_part.
    """

    n: int
    spectral_stable: bool
    marginal: bool
    max_real_part: float
    witness: Optional[tuple]


def stable_for_all_n(params: FlockParams) -> bool:
    """Closed-form gate: stable at every ring size, or not.

    True iff the position weights are symmetric (rho_x[-1] = rho_x[+1] to
    spectral.SYMMETRY_TOL relative to the largest weight, the test the
    small-angle series uses too), g_x * rho_x[0] < 0, and g_v * rho_v[0] < 0.
    """
    return (_symmetric_position_row(params)
            and params.g_x * params.rho_x[0] < 0.0
            and params.g_v * params.rho_v[0] < 0.0)


def routh_hurwitz(params: FlockParams, ms):
    """The four stability inequalities (c1, c2, c3, c4) at the modes ms.

    ms is an int or an integer array; each inequality is a bool array shaped
    like ms.  At a mode all four hold iff both branch eigenvalues lie
    strictly in the left half plane.

    Raises:
        RingflockError: some m = 0 mod n (the coherent mode is excluded by
            definition), or a mode is not an integer or lies outside int64.
    """
    ms = as_modes(ms)
    if (ms % params.n == 0).any():
        raise RingflockError("mode m=0 carries the coherent double zero")
    lam_x, lam_v = lambda_curves(params, ms * params.theta)
    xr, xi = lam_x.real, lam_x.imag
    vr, vi = lam_v.real, lam_v.imag
    c1 = vr < 0.0
    # An overflowing product is a signed inf, which still compares right;
    # inf - inf is NaN, and the inequality counts as failed.
    with np.errstate(over="ignore", invalid="ignore"):
        c2 = 2.0 * xr < vr * vr + vi * vi
        c3 = xr * vr + xi * vi > 0.0
        c4 = xr * vr * vr + vr * xi * vi + xi * xi < 0.0
    return c1, c2, c3, c4


def _band_sides(nus):
    """(below, above): whether each root's real part lies below, or above,
    its marginal band of half-width MARGINAL_BAND * |nu| around 0."""
    res, band = nus.real, MARGINAL_BAND * np.abs(nus)
    return res < -band, res > band


def spectral_verdict(params: FlockParams) -> StabilityReport:
    """Classify every branch eigenvalue of the nonzero modes of mode_range(n).

    Each root nu of a nonzero mode gets its own marginal band, MARGINAL_BAND *
    |nu|, since the rounding error of Re(nu) scales with |nu| (spectral.root_pair
    keeps the smaller root of a stiff pencil accurate) and the low modes of a
    large ring are tiny.  Strict stability means every real part falls below
    minus its band; a real part above its band makes the spectrum unstable;
    anything else is marginal.  The coherent mode contributes exactly the
    double zero by construction and is excluded.

    Modes 1..n//2 are walked in the ascending blocks of
    spectral._mode_blocks, so the memory does not grow with n, and mode -m
    is read off mode m.  Every "-" root has a "+" root ranked as high by
    (above its band, Re nu): its mirror image, or its partner where both are
    real.  So the witness is the first "+" root of largest real part in
    mode_range order, taken among the roots above their band whenever there
    is one.

    Raises:
        RingflockError: n above VERDICT_N_MAX.
    """
    n = params.n
    if n > VERDICT_N_MAX:
        raise RingflockError(f"n={n} exceeds the spectral verdict cap {VERDICT_N_MAX}")
    stable, max_re, best = True, -np.inf, ((False, -np.inf, 0), 0j)
    for ms, lx, lv, plus, minus in _mode_blocks(params, range(1, n // 2 + 1)):
        # Mode -m has the roots of mode m where both symbols are real; else their
        # mirror images (imag -> 0.0 - imag), with labels swapped unless tied.
        same = (lx.imag == 0.0) & (lv.imag == 0.0)
        low = np.where(same | (plus.imag == minus.imag), plus, minus)
        low.imag = np.where(same, low.imag, 0.0 - low.imag)
        nus = np.concatenate([low[2 * ms < n][::-1], plus])  # "+" roots in mode_range order
        signed = np.concatenate([-ms[2 * ms < n][::-1], ms])
        res = nus.real
        below, above = _band_sides(nus)
        stable = stable and bool(below.all())
        max_re = max(max_re, float(res.max()))
        i = int(np.argmax(np.where(above, res, -np.inf) if above.any() else res))
        key = (bool(above[i]), float(res[i]), -int(signed[i]))  # ties: smaller m first
        best = max(best, (key, complex(nus[i])))  # keys differ in m, so nus never compare
    (above_any, _, neg_m), nu = best

    return StabilityReport(
        n=n,
        spectral_stable=stable,
        marginal=not stable and not above_any,
        max_real_part=max_re + 0.0,  # an exact zero prints as 0, not -0
        witness=None if stable else (-neg_m, "+", nu),
    )


def instability_witness(params: FlockParams) -> StabilityReport:
    """The spectral verdict of the smallest unstable ring: the least n >= 3
    with a root above its marginal band.

    In s = sin(phi/2)**2 the four Routh-Hurwitz inequalities of a mode are
    a constant (c1), two linear functions (c2, c3) and, divided by s, a
    quadratic (c4) whose value at s = 0 is g_x**2 (rho_x[+1] - rho_x[-1])**2
    >= 0.  So each inequality fails on (0, 1] in intervals that reach s = 0
    or s = 1.  One reaching s = 1 holds the half-ring mode of n = 4, so
    rings 3 and 4 get the whole verdict.  Past them only an interval
    (0, s*] is left, and ring n is unstable iff its mode 1, at
    s = sin(pi/n)**2, lies in it (mode -1 mirrors its real parts): that
    holds for every n from a threshold on.  The threshold is bracketed by
    doubling n from 8 and found by bisection on mode 1 alone; the verdict
    is walked once, at the n found.

    Raises:
        RingflockError: the closed-form gate certifies stability; no ring up
            to n = 2**62 has a root above its band (a marginal flock such as
            g_v = 0 with a symmetric position row); or the ring found is
            above VERDICT_N_MAX (spectral_verdict).
    """
    if stable_for_all_n(params):
        raise RingflockError("parameters pass the closed-form gate; no witness exists")
    for n in (3, 4):
        report = spectral_verdict(params.with_n(n))
        if not (report.spectral_stable or report.marginal):
            return report

    def unstable(n):
        _, _, plus, minus = eigenvalue_arrays(params.with_n(n), 1)
        return bool(_band_sides(np.array([plus, minus]))[1].any())

    lo, hi = 4, 8
    while not unstable(hi):
        if hi == 1 << 62:
            raise RingflockError(f"no ring up to n={hi} has a root above its marginal band")
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if unstable(mid) else (mid, hi)
    return spectral_verdict(params.with_n(hi))
