"""Wave propagation through the flock: velocities, modes, traveling waves.

A disturbance decomposes into damped sinusoids, two per ring mode.  Under
the imaginary-sign branch labels the "-" branch of mode m moves with phase
velocity c_{m,+} = -Im(nu_{m,-}) / (m theta) > 0 agents per unit time and
the "+" branch with c_{m,-} < 0.  High modes are strongly damped, so after
the crossing time only the long waves persist and the whole field is close
to a superposition of two rigid profiles

    z_k(t) ~ f_-(k - c_- t) + f_+(k - c_+ t),

where c_+- are the m -> 0 limits of the phase velocities (the signal
velocities).  This module computes the velocities, performs exact modal
time evolution, builds the truncated-Fourier profiles f_+-, and measures
the approximation error against its closed-form three-term bound.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BadExponents,
    DegenerateBranches,
    DegenerateMode,
    EmptyTimeWindow,
    NoDecayFit,
    NonpositiveExpansionConstant,
    NotNormalized,
    UnstableParams,
)
from .model import FlockParams, moments, normalize
from .spectral import eigenvalue_arrays, fft_modes, pencil_roots
from .stability import stable_for_all_n

#: Two branch eigenvalues closer than this (relative) make the mode Jordan-like.
DEGENERATE_MODE_TOL = 1e-10


def _require_gate(params):
    if not stable_for_all_n(params):
        raise UnstableParams("operation requires closed-form stable parameters")


@dataclass(frozen=True)
class PhaseVelocities:
    """Per-mode propagation speeds and dampings for modes 1..n//2.

    c_plus[i] > 0 is the speed (agents/time) of the branch running toward
    larger agent numbers at mode ms[i]; c_minus[i] < 0 runs the other way.
    """

    ms: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray
    re_nu_plus: np.ndarray
    re_nu_minus: np.ndarray


@dataclass(frozen=True)
class SignalVelocities:
    """The two long-wave signal speeds and the expansion constant.

    c_plus = -I_v1/2 + sqrt(a) and c_minus = -I_v1/2 - sqrt(a) with
    a = I_v1**2/4 + I_x2/2; a > 0 whenever the closed-form gate passes.
    """

    c_plus: float
    c_minus: float
    a: float


@dataclass(frozen=True)
class ModalCoefficients:
    """Complex modal amplitudes in FFT bin order plus the coherent pair.

    a[f] multiplies exp(nu_plus t), b[f] multiplies exp(nu_minus t) for the
    mode in FFT bin f; bin 0 is unused (zero) and the coherent motion is
    carried by coherent = (mean position, mean velocity).

    The branch labels follow the per-mode imaginary sign, under which the
    two labels swap physical direction at negative m (nu_{-m,+} is the
    conjugate of nu_{m,-}).  Real fields therefore satisfy the cross links
    a[-m] = conj(b[m]) and b[-m] = conj(a[m]), and one traveling direction
    is the pair (a on m > 0, b on m < 0); see directional_amplitudes.
    """

    n: int
    a: np.ndarray
    b: np.ndarray
    coherent: tuple

    def directional_amplitudes(self):
        """(leftward, rightward) amplitude arrays in FFT bin order.

        leftward[f] multiplies the branch whose phase moves toward smaller
        agent numbers (speed near c_minus); rightward the other one.
        """
        ms = fft_modes(self.n)
        neg = ms < 0
        leftward = np.where(neg, self.b, self.a)
        rightward = np.where(neg, self.a, self.b)
        return leftward, rightward


def phase_velocities(params: FlockParams) -> PhaseVelocities:
    """Propagation speed and damping of every mode 1..n//2.

    Raises:
        UnstableParams: closed-form gate fails.
        DegenerateBranches: some mode has two real branch eigenvalues, which
            happens at the half-ring mode once g_v**2 rho_v0**2 reaches
            -2 g_x rho_x0 (overdamped regime); speeds are undefined there.
    """
    _require_gate(params)
    n = params.n
    ms = np.arange(1, n // 2 + 1)
    _, _, plus, minus, degenerate = eigenvalue_arrays(params, ms)
    if degenerate.any():
        bad = int(ms[degenerate][0])
        raise DegenerateBranches(f"mode m={bad} has real branches; no phase velocity")
    if not ((plus.imag > 0).all() and (minus.imag < 0).all()):
        raise DegenerateBranches("branch imaginary parts do not have opposite signs")
    mtheta = ms * params.theta
    return PhaseVelocities(
        ms=ms,
        c_plus=-minus.imag / mtheta,
        c_minus=-plus.imag / mtheta,
        re_nu_plus=plus.real,
        re_nu_minus=minus.real,
    )


def signal_velocities(params: FlockParams) -> SignalVelocities:
    """Closed-form long-wave signal speeds of a normalized stable flock.

    Raises:
        NotNormalized: center weights are not 1.
        UnstableParams: closed-form gate fails.
        NonpositiveExpansionConstant: a <= 0 (cannot occur for gate-true
            normalized parameters, kept as a guard).
    """
    if (abs(params.rho_x.get(0, 0.0) - 1.0) > 1e-12
            or abs(params.rho_v.get(0, 0.0) - 1.0) > 1e-12):
        raise NotNormalized("signal velocities need rho_x[0] = rho_v[0] = 1")
    _require_gate(params)
    mom = moments(params, 2)
    a = mom.v[1] ** 2 / 4.0 + mom.x[2] / 2.0
    if a <= 0.0:
        raise NonpositiveExpansionConstant(f"expansion constant {a:.6g} <= 0")
    root = math.sqrt(a)
    return SignalVelocities(c_plus=-mom.v[1] / 2.0 + root,
                            c_minus=-mom.v[1] / 2.0 - root,
                            a=float(a))


def signal_velocity_limit(params: FlockParams, n_ref: int = 10000):
    """Signal speeds measured as the m -> 0 limit of phase velocities.

    Richardson-extrapolates the m = 1, 2 phase velocities on an n_ref ring
    (the per-mode error is quadratic in m*theta).  Serves as the independent
    cross-check of the closed form.
    """
    _require_gate(params)
    p = params.with_n(n_ref)
    theta = p.theta
    _, _, plus, minus, degenerate = eigenvalue_arrays(p, np.array([1, 2]))
    if degenerate.any():
        raise DegenerateBranches("low modes degenerate; cannot extrapolate")
    c_plus = -minus.imag / (np.array([1.0, 2.0]) * theta)
    c_minus = -plus.imag / (np.array([1.0, 2.0]) * theta)
    extrap = lambda c: float((4.0 * c[0] - c[1]) / 3.0)
    return extrap(c_plus), extrap(c_minus)


def group_velocity(params: FlockParams, h: float = 1e-5):
    """d(omega)/d(wavenumber) of both branches at the origin.

    Central finite differences of -Im(nu) across phi = +-h, following each
    analytic branch through zero (the branch with negative imaginary part at
    +h continues into the positive-imaginary root at -h).  Returns
    (toward increasing k, toward decreasing k), which matches the signal
    velocities.

    Raises:
        UnstableParams: closed-form gate fails.
    """
    _require_gate(params)
    plus_p, minus_p, deg_p = pencil_roots(params, np.array([h]))
    plus_m, minus_m, deg_m = pencil_roots(params, np.array([-h]))
    if deg_p.any() or deg_m.any():
        raise DegenerateBranches("branches degenerate near phi = 0")
    g_plus = -(minus_p.imag[0] - plus_m.imag[0]) / (2.0 * h)
    g_minus = -(plus_p.imag[0] - minus_m.imag[0]) / (2.0 * h)
    return float(g_plus), float(g_minus)


def _mode_nus(params):
    ms = fft_modes(params.n)
    _, _, plus, minus, _ = eigenvalue_arrays(params, ms)
    return ms, plus, minus


def modal_decompose(params: FlockParams, z0, zdot0) -> ModalCoefficients:
    """Solve for the modal amplitudes reproducing the initial condition.

    The DFT turns the initial data into per-mode pairs; each nonzero mode
    gives a 2x2 linear system a + b = z_hat, nu_+ a + nu_- b = zdot_hat.
    The coherent pair holds the mean position and mean velocity.

    Raises:
        UnstableParams: closed-form gate fails.
        DegenerateMode: branch eigenvalues of some mode coincide, so the
            2x2 system is singular (Jordan case).
    """
    _require_gate(params)
    n = params.n
    z0 = np.asarray(z0, dtype=float)
    zdot0 = np.asarray(zdot0, dtype=float)
    if z0.shape != (n,) or zdot0.shape != (n,):
        raise ValueError(f"initial arrays must have shape ({n},)")
    zh = np.fft.fft(z0) / n
    vh = np.fft.fft(zdot0) / n
    ms, plus, minus = _mode_nus(params)
    den = plus - minus
    bad = (np.abs(den) < DEGENERATE_MODE_TOL * np.maximum(1.0, np.abs(plus))) & (ms != 0)
    if bad.any():
        raise DegenerateMode(f"mode m={int(ms[bad][0])} has coincident branches")
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (vh - minus * zh) / den
        b = (plus * zh - vh) / den
    a[0] = 0.0
    b[0] = 0.0
    return ModalCoefficients(n=n, a=a, b=b,
                             coherent=(float(zh[0].real), float(vh[0].real)))


def modal_evolve(params: FlockParams, coeffs: ModalCoefficients, t):
    """Exact state (z, zdot) at time t from the modal amplitudes.

    Each mode evolves by its two exponentials and the coherent pair drifts
    linearly; an inverse FFT assembles the agents.  A scalar t gives (n,)
    arrays, a 1-D array of times (len(t), n) arrays.  The imaginary residue
    of every assembled row is checked against 1e-10 before it is dropped.
    """
    n = coeffs.n
    _, plus, minus = _mode_nus(params)
    t = np.asarray(t, dtype=float)[..., None]
    ea = coeffs.a * np.exp(plus * t)
    eb = coeffs.b * np.exp(minus * t)
    w = ea + eb
    wd = plus * ea + minus * eb
    w[..., 0] = coeffs.coherent[0] + coeffs.coherent[1] * t[..., 0]
    wd[..., 0] = coeffs.coherent[1]
    z = n * np.fft.ifft(w)
    zdot = n * np.fft.ifft(wd)
    scale = np.maximum(1.0, np.maximum(np.abs(z.real).max(-1), np.abs(zdot.real).max(-1)))
    resid = np.maximum(np.abs(z.imag).max(-1), np.abs(zdot.imag).max(-1))
    if (resid > 1e-10 * scale).any():
        raise ValueError(f"modal sum has imaginary residue {resid.max():.3e}")
    return z.real.copy(), zdot.real.copy()


def power_law_coefficients(n: int, p: float, seed: int = 0,
                           amplitude: float = 1.0) -> ModalCoefficients:
    """Synthetic real-field modal data with |coeff_m| = amplitude * m**-p.

    Phases are drawn from a seeded generator, one pair per |m| in stream
    order, so rings of different sizes share the low-mode coefficients.
    The negative modes are conjugate-linked (a[-m] = conj(b[m])) to make the
    physical field real.
    """
    rng = np.random.default_rng(seed)
    half = n // 2
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(half, 2))
    a = np.zeros(n, dtype=complex)
    b = np.zeros(n, dtype=complex)
    for m in range(1, half + 1):
        mag = amplitude * float(m) ** (-p)
        am = mag * cmath.exp(1j * phases[m - 1, 0])
        bm = mag * cmath.exp(1j * phases[m - 1, 1])
        if m == n - m:  # self-conjugate half-ring bin of an even ring
            a[m] = am
            b[m] = am.conjugate()
        else:
            a[m] = am
            b[m] = bm
            a[n - m] = bm.conjugate()
            b[n - m] = am.conjugate()
    return ModalCoefficients(n=n, a=a, b=b, coherent=(0.0, 0.0))


def _band(n, lo_exp, hi_exp):
    lo = math.ceil(n ** lo_exp)
    hi = math.floor(min(n / 2.0, n ** hi_exp))
    return lo, hi


@dataclass(frozen=True)
class WaveApproximation:
    """Truncated-Fourier traveling profiles and their bound ingredients.

    f_minus_coeffs holds the amplitudes over `modes` of the leftward-moving
    branch (the profile f_-(x) = sum_m coeff_m exp(i theta m x), advected at
    c_minus) and f_plus_coeffs those of the rightward branch; for real
    fields both profiles are real-valued functions.
    damping_mid = C(alpha, beta) and damping_high = C(beta, 1) are the
    minimal |Re(nu)| over the two frequency bands, taken over both branches.
    """

    n: int
    theta: float
    cutoff: int
    modes: np.ndarray
    f_minus_coeffs: np.ndarray
    f_plus_coeffs: np.ndarray
    c_plus: float
    c_minus: float
    alpha: float
    beta: float
    k_window: float
    p: float
    m_bound: float
    damping_mid: float
    damping_high: float

    def bound_terms(self, t, d_const: float):
        """The three right-hand-side terms of the bound, shaped like t."""
        t = np.asarray(t, dtype=float)
        n, p = self.n, self.p
        term1 = np.full(t.shape, self.m_bound * d_const * self.k_window
                        * (1.0 / abs(self.c_minus) + 1.0 / self.c_plus)
                        * n ** (3.0 * self.alpha - 1.0))
        fac = 4.0 * self.m_bound / (p - 1.0)
        low = (n ** self.alpha - 1.0) ** (1.0 - p)
        mid = (n ** self.beta - 1.0) ** (1.0 - p)
        term2 = fac * (low - mid) * np.exp(-self.damping_mid * t)
        term3 = fac * mid * np.exp(-self.damping_high * t)
        return term1, term2, term3


def wave_approximation(params: FlockParams, coeffs: ModalCoefficients,
                       alpha: float, beta: float, k_window: float,
                       p: float) -> WaveApproximation:
    """Build the traveling profiles f_+- with every bound ingredient.

    The profiles keep modes |m| < n**alpha (strict); the tightest power-law
    envelope M = max |coeff_m| |m|**p is computed from the data, making the
    decay hypothesis checkable instead of assumed.

    Raises:
        BadExponents: exponent ordering violated, K or p not a finite
            number above 1, or n**alpha <= 1.
        NoDecayFit: every modal coefficient is zero.
        UnstableParams / NotNormalized via the signal velocities.
    """
    n = coeffs.n
    if not (0.0 < alpha < beta < 1.0 and 1.0 < k_window < math.inf and 1.0 < p < math.inf):
        raise BadExponents("need 0 < alpha < beta < 1, finite K > 1, finite p > 1")
    if n ** alpha <= 1.0:
        raise BadExponents(f"n**alpha = {n ** alpha:.3g} must exceed 1")

    pn = params.with_n(n) if params.n != n else params
    ms, plus, minus = _mode_nus(pn)
    nz = ms != 0
    mags = np.maximum(np.abs(coeffs.a), np.abs(coeffs.b))
    if not (mags[nz] > 0).any():
        raise NoDecayFit("all modal coefficients vanish")
    m_bound = float((mags[nz] * np.abs(ms[nz]) ** p).max())

    cutoff = math.floor(n ** alpha)
    if cutoff >= n ** alpha:  # strict inequality |m| < n**alpha
        cutoff -= 1
    sel = np.abs(ms) <= cutoff
    leftward, rightward = coeffs.directional_amplitudes()

    sigs = signal_velocities(normalize(params))

    def damping(lo_exp, hi_exp):
        lo, hi = _band(n, lo_exp, hi_exp)
        if lo > hi:
            return math.inf
        band = (np.abs(ms) >= lo) & (np.abs(ms) <= hi)
        return float(np.minimum(np.abs(plus.real[band]), np.abs(minus.real[band])).min())

    return WaveApproximation(
        n=n,
        theta=2.0 * math.pi / n,
        cutoff=cutoff,
        modes=ms[sel].copy(),
        f_minus_coeffs=leftward[sel].copy(),
        f_plus_coeffs=rightward[sel].copy(),
        c_plus=sigs.c_plus,
        c_minus=sigs.c_minus,
        alpha=alpha,
        beta=beta,
        k_window=k_window,
        p=p,
        m_bound=m_bound,
        damping_mid=damping(alpha, beta),
        damping_high=damping(beta, 1.0),
    )


@dataclass(frozen=True)
class WaveBoundReport:
    """Measured traveling-wave error against the three-term bound."""

    n: int
    d_const: float
    d_fitted: bool
    ts: np.ndarray
    measured: np.ndarray
    signal_sup: np.ndarray
    term1: np.ndarray
    term2: np.ndarray
    term3: np.ndarray
    approximation: WaveApproximation

    def bound(self) -> np.ndarray:
        return self.term1 + self.term2 + self.term3

    def bound_holds(self, slack: float = 1e-9) -> bool:
        return bool((self.measured <= self.bound() + slack).all())


def verify_wave_bound(params: FlockParams, coeffs: ModalCoefficients,
                        alpha: float, beta: float, k_window: float, p: float,
                        d_const: Optional[float] = None) -> WaveBoundReport:
    """Measure sup_k |z_k(t) - f_-(k - c_- t) - f_+(k - c_+ t)| on the window.

    The observation window is the intersection of [n/|c|, K n/|c|] for both
    signal speeds, sampled at 7 times.  Exact modal evolution provides the
    ground truth.  The profiles are summed in modal space: the coefficient
    of mode m, times exp(-i theta m c t), goes to FFT bin m mod n, and one
    inverse FFT evaluates both at every agent.  When d_const is None the
    free constant of the first bound term is fitted as the smallest value
    that makes the bound hold on this run (fit once at the smallest ring of
    a sweep, then freeze it for the larger rings).

    Raises:
        EmptyTimeWindow: the two windows do not intersect.
    """
    n = coeffs.n
    pn = params.with_n(n) if params.n != n else params
    wa = wave_approximation(pn, coeffs, alpha, beta, k_window, p)

    lo = n / min(abs(wa.c_minus), wa.c_plus)
    hi = k_window * n / max(abs(wa.c_minus), wa.c_plus)
    if lo > hi:
        raise EmptyTimeWindow(
            f"[{n / abs(wa.c_minus):.3g}, {k_window * n / abs(wa.c_minus):.3g}] and "
            f"[{n / wa.c_plus:.3g}, {k_window * n / wa.c_plus:.3g}] do not intersect")
    ts = np.linspace(lo, hi, 7)

    z, _ = modal_evolve(pn, coeffs, ts)
    phase = -1j * wa.theta * wa.modes * ts[:, None]
    w = np.zeros((len(ts), n), dtype=complex)
    w[:, wa.modes % n] = (wa.f_minus_coeffs * np.exp(phase * wa.c_minus)
                          + wa.f_plus_coeffs * np.exp(phase * wa.c_plus))
    approx = n * np.fft.ifft(w)
    measured = np.abs(z - approx).max(axis=1)
    sups = np.abs(z).max(axis=1)

    unit1, term2, term3 = wa.bound_terms(ts, 1.0)

    fitted = d_const is None
    if fitted:
        d_const = float(max(0.0, ((measured - term2 - term3) / unit1).max()))

    return WaveBoundReport(
        n=n,
        d_const=d_const,
        d_fitted=fitted,
        ts=ts,
        measured=measured,
        signal_sup=sups,
        term1=unit1 * d_const,
        term2=term2,
        term3=term3,
        approximation=wa,
    )


def exp_diff_bound_holds(a, b) -> bool:
    """Whether |exp(a) - exp(b)| < 2 |a - b|, with a = b passing as equality.

    Holds for all small arguments (it is the engine of the traveling-wave
    bound); the property suite sweeps the disk |a|, |b| <= 0.1.
    """
    a = complex(a)
    b = complex(b)
    if a == b:
        return True
    return abs(cmath.exp(a) - cmath.exp(b)) < 2.0 * abs(a - b)
