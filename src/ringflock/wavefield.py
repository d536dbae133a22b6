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

from .errors import DegenerateBranches, RingflockError
from .model import FlockParams, moments
from .spectral import eigenvalue_arrays, fft_modes, pencil_roots
from .stability import stable_for_all_n

#: Two branch eigenvalues closer than this (relative) make the mode Jordan-like.
DEGENERATE_MODE_TOL = 1e-10


def _require_gate(params):
    if not stable_for_all_n(params):
        raise RingflockError("operation requires closed-form stable parameters")


def _require_same_ring(params, coeffs):
    if coeffs.n != params.n:
        raise RingflockError(f"modal data for n={coeffs.n} on a ring of n={params.n}")


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
        RingflockError: closed-form gate fails.
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
    """Closed-form long-wave signal speeds of a stable flock.

    The moments g * sum_j rho[j] * j**l they use do not change under
    normalize, so any center weights will do.

    Raises:
        RingflockError: closed-form gate fails, a overflows float64, or
            a <= 0 (cannot occur for gate-true parameters, kept as a guard).
    """
    _require_gate(params)
    with np.errstate(all="ignore"):
        mom = moments(params, 2)
    v1, x2 = float(mom.v[1]), float(mom.x[2])  # float math: overflow gives inf
    a = v1 * v1 / 4.0 + x2 / 2.0
    if not math.isfinite(a):
        raise RingflockError("expansion constant is not finite; the gains overflow float64")
    if a <= 0.0:
        raise RingflockError(f"expansion constant {a:.6g} <= 0")
    far = -v1 / 2.0 + math.copysign(math.sqrt(a), -v1)  # the root free of cancellation
    near = -x2 / 2.0 / far if v1 else -far  # since c_+ c_- = -I_x2 / 2
    return SignalVelocities(c_plus=max(far, near), c_minus=min(far, near), a=a)


def signal_velocity_limit(params: FlockParams):
    """Signal speeds measured as the m -> 0 limit of phase velocities.

    Richardson-extrapolates the m = 1, 2 phase velocities on a 10000 ring
    (the per-mode error is quadratic in m*theta).  Serves as the independent
    cross-check of the closed form.
    """
    _require_gate(params)
    p = params.with_n(10000)
    theta = p.theta
    _, _, plus, minus, degenerate = eigenvalue_arrays(p, np.array([1, 2]))
    if degenerate.any():
        raise DegenerateBranches("low modes degenerate; cannot extrapolate")
    c_plus = -minus.imag / (np.array([1.0, 2.0]) * theta)
    c_minus = -plus.imag / (np.array([1.0, 2.0]) * theta)
    extrap = lambda c: float((4.0 * c[0] - c[1]) / 3.0)
    return extrap(c_plus), extrap(c_minus)


def group_velocity(params: FlockParams):
    """d(omega)/d(wavenumber) of both branches at the origin.

    Central finite differences of -Im(nu) across phi = +-h, h = 1e-5,
    following each analytic branch through zero (the branch with negative
    imaginary part at +h continues into the positive-imaginary root at -h).
    Returns (toward increasing k, toward decreasing k), which matches the
    signal velocities.

    Raises:
        RingflockError: closed-form gate fails.
    """
    _require_gate(params)
    h = 1e-5
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
        RingflockError: closed-form gate fails, or branch eigenvalues of
            some mode coincide, so the 2x2 system is singular (Jordan case).
    """
    _require_gate(params)
    n = params.n
    zh, vh = _dft(n, z0, zdot0)
    ms, plus, minus = _mode_nus(params)
    den = plus - minus
    bad = (np.abs(den) < DEGENERATE_MODE_TOL * np.maximum(1.0, np.abs(plus))) & (ms != 0)
    if bad.any():
        raise RingflockError(f"mode m={int(ms[bad][0])} has coincident branches")
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (vh - minus * zh) / den
        b = (plus * zh - vh) / den
    a[0] = b[0] = 0.0
    return ModalCoefficients(n=n, a=a, b=b,
                             coherent=(float(zh[0].real), float(vh[0].real)))


_BLOCK_CELLS = 1 << 16  # complex cells per block of frames; bounds the scratch memory


def _dft(n, z0, zdot0):
    """The DFT data (z_hat, zdot_hat) = fft / n of a state on n agents."""
    z0, zdot0 = np.asarray(z0, dtype=float), np.asarray(zdot0, dtype=float)
    if z0.shape != (n,) or zdot0.shape != (n,):
        raise RingflockError(f"initial arrays must have shape ({n},)")
    return np.fft.fft(z0) / n, np.fft.fft(zdot0) / n


def _propagate(params, zh, vh, t):
    """Exact (z, zdot) at the times t from the DFT data (zh, vh) of the state.

    Per mode z_hat(t) = e^(r1 t) (zh + P w), zdot_hat(t) = e^(r1 t) (vh + r2 P w)
    with r1,2 = lambda_v/2 +- sqrt(lambda_v**2/4 + lambda_x) (principal root d),
    w = vh - r1 zh and P = t expm1(y)/y, y = -2 d t, which Re y <= 0 bounds by t.
    No labels, 2x2 solve or special case: the coherent mode gives zh + t vh, a
    critical one (d = 0) its Jordan solution.  A cell whose e^(r1 t) underflows
    to 0 is 0 even where P w or the phase has overflowed (t near 1e308).  Rows
    with an imaginary residue above 1e-10 and a non-finite state raise
    RingflockError.
    """
    n = params.n
    lx, lv, _, _, _ = eigenvalue_arrays(params, fft_modes(n))
    d = np.sqrt(lv * lv / 4.0 + lx)
    r1, r2 = lv / 2.0 + d, lv / 2.0 - d
    w = vh - r1 * zh
    ts = np.asarray(t, dtype=float)
    out = np.empty((2, ts.size, n))
    step = max(1, _BLOCK_CELLS // n)
    for lo in range(0, ts.size, step):
        tb = ts.reshape(-1, 1)[lo:lo + step]
        with np.errstate(all="ignore"):
            y = -2.0 * d * tb
            pw = tb * np.where(y == 0.0, 1.0, np.expm1(y) / y) * w
            # zv is e^(r1 t), then its product with the state: one name, so
            # no block-sized array is kept alive through the inverse FFT.
            zv = np.exp(r1 * tb)
            pw[zv == 0.0] = 0.0
            zv = zv * np.stack([zh + pw, vh + r2 * pw])
            zv = n * np.fft.ifft(zv)
        if not np.isfinite(zv).all():
            raise RingflockError(f"the evolved state is not finite by t={tb[-1, 0]:.4g}")
        resid = np.abs(zv.imag).max(axis=(0, 2))
        if (resid > 1e-10 * np.maximum(1.0, np.abs(zv.real).max(axis=(0, 2)))).any():
            raise RingflockError(f"modal sum has imaginary residue {resid.max():.3e}")
        out[:, lo:lo + step] = zv.real
    return tuple(out.reshape((2,) + ts.shape + (n,)))


def evolve(params: FlockParams, z0, zdot0, t):
    """Exact state (z, zdot) at time t from initial positions and velocities:
    (n,) arrays for a scalar t, (len(t), n) arrays for a 1-D array of times."""
    return _propagate(params, *_dft(params.n, z0, zdot0), t)


def modal_evolve(params: FlockParams, coeffs: ModalCoefficients, t):
    """Exact state (z, zdot) at time t from the modal amplitudes of a ring of
    params.n agents (RingflockError otherwise), shaped as in evolve: the
    propagator runs on (a + b, nu_+ a + nu_- b), coherent in bin 0."""
    _require_same_ring(params, coeffs)
    _, plus, minus = _mode_nus(params)
    zh, vh = coeffs.a + coeffs.b, plus * coeffs.a + minus * coeffs.b
    zh[0], vh[0] = coeffs.coherent
    return _propagate(params, zh, vh, t)


def power_law_coefficients(n: int, p: float, seed: int = 0) -> ModalCoefficients:
    """Synthetic real-field modal data with |coeff_m| = m**-p.

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
        mag = float(m) ** (-p)
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
        RingflockError: exponent ordering violated, K or p not a finite
            number above 1, or n**alpha <= 1; every modal coefficient is
            zero; coeffs belong to a ring of another size; or, via the
            signal velocities, the closed-form gate fails.
    """
    _require_same_ring(params, coeffs)
    n = params.n
    if not (0.0 < alpha < beta < 1.0 and 1.0 < k_window < math.inf and 1.0 < p < math.inf):
        raise RingflockError("need 0 < alpha < beta < 1, finite K > 1, finite p > 1")
    if n ** alpha <= 1.0:
        raise RingflockError(f"n**alpha = {n ** alpha:.3g} must exceed 1")

    ms, plus, minus = _mode_nus(params)
    nz = ms != 0
    mags = np.maximum(np.abs(coeffs.a), np.abs(coeffs.b))
    if not (mags[nz] > 0).any():
        raise RingflockError("all modal coefficients vanish")
    m_bound = float((mags[nz] * np.abs(ms[nz]) ** p).max())

    cutoff = math.floor(n ** alpha)
    if cutoff >= n ** alpha:  # strict inequality |m| < n**alpha
        cutoff -= 1
    sel = np.abs(ms) <= cutoff
    leftward, rightward = coeffs.directional_amplitudes()

    sigs = signal_velocities(params)

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
    ts: np.ndarray
    measured: np.ndarray
    signal_sup: np.ndarray
    term1: np.ndarray
    term2: np.ndarray
    term3: np.ndarray
    approximation: WaveApproximation

    def bound(self) -> np.ndarray:
        return self.term1 + self.term2 + self.term3

    def bound_holds(self) -> bool:
        return bool((self.measured <= self.bound() + 1e-9).all())


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
        RingflockError: the two windows do not intersect, or coeffs belong
            to a ring of another size.
    """
    n = params.n
    wa = wave_approximation(params, coeffs, alpha, beta, k_window, p)

    lo = n / min(abs(wa.c_minus), wa.c_plus)
    hi = k_window * n / max(abs(wa.c_minus), wa.c_plus)
    if lo > hi:
        raise RingflockError(
            f"[{n / abs(wa.c_minus):.3g}, {k_window * n / abs(wa.c_minus):.3g}] and "
            f"[{n / wa.c_plus:.3g}, {k_window * n / wa.c_plus:.3g}] do not intersect")
    ts = np.linspace(lo, hi, 7)

    z, _ = modal_evolve(params, coeffs, ts)
    phase = -1j * wa.theta * wa.modes * ts[:, None]
    w = np.zeros((len(ts), n), dtype=complex)
    w[:, wa.modes % n] = (wa.f_minus_coeffs * np.exp(phase * wa.c_minus)
                          + wa.f_plus_coeffs * np.exp(phase * wa.c_plus))
    approx = n * np.fft.ifft(w)
    measured = np.abs(z - approx).max(axis=1)
    sups = np.abs(z).max(axis=1)

    unit1, term2, term3 = wa.bound_terms(ts, 1.0)

    if d_const is None:
        d_const = float(max(0.0, ((measured - term2 - term3) / unit1).max()))

    return WaveBoundReport(
        n=n,
        d_const=d_const,
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
