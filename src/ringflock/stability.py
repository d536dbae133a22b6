"""Asymptotic-stability verdicts for the ring flock.

Stability here means: the coherent double zero is the only eigenvalue off
the open left half plane.  Three routes to a verdict are provided and cross
checked against each other by the test suite:

* the closed-form gate on the weights (symmetric position row, both
  gain/center products negative), which decides stability for every n at
  once;
* the four Routh-Hurwitz inequalities applied per mode to the quadratic
  pencil with complex coefficients;
* the spectral verdict, which evaluates every branch eigenvalue at one n.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import RingflockError
from .model import FlockParams
from .spectral import eigenvalue_arrays, laplacian_eigenvalues, mode_range

#: Relative half-width of each mode's marginal band around Re(nu) = 0.
MARGINAL_BAND = 1e-10

#: Relative tolerance for detecting a symmetric position row.
SYMMETRY_TOL = 1e-12

#: The witness search doubles the ring size from 8 agents up to this many.
WITNESS_N_MAX = 4096


@dataclass(frozen=True)
class StabilityReport:
    """Combined verdict at one ring size.

    witness = (m, branch, nu) is present exactly when the spectrum is not
    strictly stable: the branch eigenvalue with the largest real part above
    its mode's marginal band if there is one, else the one realizing
    max_real_part.  rh_failures counts the violated Routh-Hurwitz
    inequalities, summed over the four conditions and the nonzero modes.
    """

    n: int
    closed_form_stable: bool
    spectral_stable: bool
    marginal: bool
    max_real_part: float
    witness: Optional[tuple]
    rh_failures: int


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


def _rh_conditions(lam_x, lam_v):
    """The four per-mode Routh-Hurwitz inequalities, vectorized."""
    xr, xi = lam_x.real, lam_x.imag
    vr, vi = lam_v.real, lam_v.imag
    c1 = vr < 0.0
    c2 = 2.0 * xr < vr * vr + vi * vi
    c3 = xr * vr + xi * vi > 0.0
    c4 = xr * vr * vr + vr * xi * vi + xi * xi < 0.0
    return c1, c2, c3, c4


def routh_hurwitz(params: FlockParams, m: int):
    """The four stability inequalities evaluated at mode m.

    All four hold iff both branch eigenvalues of the mode lie strictly in
    the left half plane.

    Raises:
        RingflockError: m = 0 mod n (the coherent mode is excluded by definition).
    """
    if m % params.n == 0:
        raise RingflockError("mode m=0 carries the coherent double zero")
    lam_x, lam_v = laplacian_eigenvalues(params, m)
    c1, c2, c3, c4 = _rh_conditions(np.asarray(lam_x), np.asarray(lam_v))
    return bool(c1), bool(c2), bool(c3), bool(c4)


def spectral_verdict(params: FlockParams, n: Optional[int] = None) -> StabilityReport:
    """Evaluate every branch eigenvalue at ring size n and classify.

    Each nonzero mode m gets its own marginal band, MARGINAL_BAND *
    (|nu_{m,+}| + |nu_{m,-}|), since the rounding error of Re(nu) scales with
    |nu| and the low modes of a large ring are tiny.  Strict stability means
    every real part falls below minus its band; a real part above its band
    makes the spectrum unstable; anything else is marginal.  The coherent
    mode contributes exactly the double zero by construction and is excluded.
    """
    p = params if n is None else params.with_n(n)
    ms = mode_range(p.n)
    lx, lv, plus, minus, _ = eigenvalue_arrays(p, ms)
    keep = ms != 0

    nus = np.concatenate([plus[keep], minus[keep]])
    res = nus.real
    band = np.tile(MARGINAL_BAND * (np.abs(plus[keep]) + np.abs(minus[keep])), 2)
    stable = bool((res < -band).all())
    above = res > band

    i = int(np.argmax(np.where(above, res, -np.inf) if above.any() else res))
    half = res.size // 2
    witness = (int(ms[keep][i % half]), "+" if i < half else "-", complex(nus[i]))

    rh_failures = sum(int(np.count_nonzero(~c)) for c in _rh_conditions(lx[keep], lv[keep]))

    return StabilityReport(
        n=p.n,
        closed_form_stable=stable_for_all_n(p),
        spectral_stable=stable,
        marginal=not stable and not above.any(),
        max_real_part=float(res.max()),
        witness=None if stable else witness,
        rh_failures=rh_failures,
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
        report = spectral_verdict(params, n)
        if not (report.spectral_stable or report.marginal):
            return report
        n *= 2
    return None
