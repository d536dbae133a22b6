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
from .spectral import as_modes, eigenvalue_arrays, lambda_curves

#: Relative half-width of each root's marginal band around Re(nu) = 0.
MARGINAL_BAND = 1e-10

#: Relative tolerance for detecting a symmetric position row.
SYMMETRY_TOL = 1e-12

#: Modes per block of spectral_verdict's walk; bounds its scratch memory.
_BLOCK_MODES = 1 << 13

#: spectral_verdict refuses larger rings: walking this many already takes
#: over a minute (about 0.07 us per agent at n = 10**7 on a 2-core x86_64 VM).
VERDICT_N_MAX = 1 << 30

#: The witness search doubles the ring size from 8 agents up to this many.
WITNESS_N_MAX = 4096


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
    relative tolerance), g_x * rho_x[0] < 0, and g_v * rho_v[0] < 0.
    """
    rx = params.rho_x
    scale = max(abs(w) for w in rx.values()) or 1.0
    symmetric = abs(rx[1] - rx[-1]) <= SYMMETRY_TOL * scale
    return (symmetric
            and params.g_x * rx[0] < 0.0
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


def spectral_verdict(params: FlockParams) -> StabilityReport:
    """Classify every branch eigenvalue of the nonzero modes of mode_range(n).

    Each root nu of a nonzero mode gets its own marginal band, MARGINAL_BAND *
    |nu|, since the rounding error of Re(nu) scales with |nu| (spectral.root_pair
    keeps the smaller root of a stiff pencil accurate) and the low modes of a
    large ring are tiny.  Strict stability means every real part falls below
    minus its band; a real part above its band makes the spectrum unstable;
    anything else is marginal.  The coherent mode contributes exactly the
    double zero by construction and is excluded.

    Modes 1..n//2 are evaluated in ascending blocks of _BLOCK_MODES, so the
    memory does not grow with n, and mode -m is read off mode m.  Every "-"
    root has a "+" root ranked as high by (above its band, Re nu): its mirror
    image, or its partner where both are real.  So the witness is the first
    "+" root of largest real part in mode_range order, taken among the roots
    above their band whenever there is one.

    Raises:
        RingflockError: n above VERDICT_N_MAX.
    """
    n = params.n
    if n > VERDICT_N_MAX:
        raise RingflockError(f"n={n} exceeds the spectral verdict cap {VERDICT_N_MAX}")
    stable, max_re, best = True, -np.inf, ((False, -np.inf, 0), 0j)
    for start in range(1, n // 2 + 1, _BLOCK_MODES):
        ms = np.arange(start, min(start + _BLOCK_MODES, n // 2 + 1))
        lx, lv, plus, minus = eigenvalue_arrays(params, ms)
        # Mode -m has the roots of mode m where both symbols are real; else their
        # mirror images (imag -> 0.0 - imag), with labels swapped unless tied.
        same = (lx.imag == 0.0) & (lv.imag == 0.0)
        low = np.where(same | (plus.imag == minus.imag), plus, minus)
        low.imag = np.where(same, low.imag, 0.0 - low.imag)
        nus = np.concatenate([low[2 * ms < n][::-1], plus])  # "+" roots in mode_range order
        signed = np.concatenate([-ms[2 * ms < n][::-1], ms])
        res, band = nus.real, MARGINAL_BAND * np.abs(nus)
        stable = stable and bool((res < -band).all())
        max_re = max(max_re, float(res.max()))
        above = res > band
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


def instability_witness(params: FlockParams) -> Optional[StabilityReport]:
    """Search growing ring sizes for an eigenvalue with positive real part.

    Ring sizes double from 8 up to WITNESS_N_MAX.  Returns the spectral
    verdict of the first ring with a real part above its marginal band, or
    None when the search is inconclusive; None never means stable.

    Raises:
        RingflockError: the closed-form gate already certifies stability.
    """
    if stable_for_all_n(params):
        raise RingflockError("parameters pass the closed-form gate; no witness exists")
    n = 8
    while n <= WITNESS_N_MAX:
        report = spectral_verdict(params.with_n(n))
        if not (report.spectral_stable or report.marginal):
            return report
        n *= 2
    return None
