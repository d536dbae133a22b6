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
import random
from dataclasses import dataclass

import numpy as np

from .errors import RingflockError
from .model import FlockParams, _check_size
from .spectral import (_labeled, _signal_speeds, _symbols, eigenvalue_arrays, pencil_roots,
                       root_pair)
from .stability import stable_for_all_n

#: Two branch eigenvalues closer than this, relative to |nu_+|, make the mode Jordan-like.
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
    An overdamped mode (overdamped[i]) has two real roots: it decays
    without travelling, so both its speeds are 0.
    """

    ms: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray
    re_nu_plus: np.ndarray
    re_nu_minus: np.ndarray
    overdamped: np.ndarray


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
    """Complex modal amplitudes by direction of travel on the rfft bins
    0..n//2, arrays of shape (n//2 + 1,).

    leftward[m] multiplies exp(nu_+ t) of mode m, the "+" root, whose phase
    moves toward smaller agent numbers (speed near c_minus) unless the mode
    is overdamped, and rightward[m] exp(nu_- t): they are the Fourier
    coefficients of the profiles f_- and f_+.  Bin 0 is unused and the
    coherent motion is carried by coherent = (mean position, mean velocity).
    The state they describe has the DFT data l + r and nu_+ l + nu_- r on
    these bins; bin -m is the conjugate of bin m (irfft), so the field is
    real by construction, and an even ring's half-ring bin counts by its
    real part.
    """

    n: int
    leftward: np.ndarray
    rightward: np.ndarray
    coherent: tuple


def phase_velocities(params: FlockParams) -> PhaseVelocities:
    """Propagation speed and damping of every mode 1..n//2.

    A mode is overdamped, with speeds +0.0, when its roots' imaginary parts
    do not have opposite signs, as for two real roots (of imaginary part
    exactly 0 from symmetric rows); the half-ring mode is once
    g_v**2 rho_v0**2 reaches -2 g_x rho_x0.

    Raises:
        RingflockError: closed-form gate fails, or n is above
            model._SIZE_MAX (the message names n).
    """
    _require_gate(params)
    n = params.n
    _check_size("n", n, "modes")
    ms = np.arange(1, n // 2 + 1)
    _, _, plus, minus = eigenvalue_arrays(params, ms)
    overdamped = ~((plus.imag > 0) & (minus.imag < 0))
    mtheta = ms * params.theta
    return PhaseVelocities(
        ms=ms,
        c_plus=np.where(overdamped, 0.0, -minus.imag / mtheta),
        c_minus=np.where(overdamped, 0.0, -plus.imag / mtheta),
        re_nu_plus=plus.real,
        re_nu_minus=minus.real,
        overdamped=overdamped,
    )


def signal_velocities(params: FlockParams) -> SignalVelocities:
    """Closed-form long-wave signal speeds of a stable flock (the small-angle
    series starts from the same speeds).

    Raises:
        RingflockError: closed-form gate fails, a overflows float64,
            a <= 0 (cannot occur for gate-true parameters, kept as a guard),
            or a speed underflows to 0.
    """
    _require_gate(params)
    return SignalVelocities(*_signal_speeds(params))


def signal_velocity_limit(params: FlockParams):
    """Signal speeds measured as the m -> 0 limit of phase velocities.

    Richardson-extrapolates the m = 1, 2 phase velocities on a 10000 ring
    (the per-mode error is quadratic in m*theta).  Serves as the independent
    cross-check of the closed form.

    Raises:
        RingflockError: closed-form gate fails, or mode 1 or 2 is overdamped.
    """
    pv = phase_velocities(params.with_n(10000))
    if pv.overdamped[:2].any():
        raise RingflockError("low modes degenerate; cannot extrapolate")
    extrap = lambda c: float((4.0 * c[0] - c[1]) / 3.0)
    return extrap(pv.c_plus), extrap(pv.c_minus)


def group_velocity(params: FlockParams):
    """d(omega)/d(wavenumber) of both branches at the origin.

    Central finite differences of -Im(nu) across phi = +-h, h = 1e-5, of
    the root traveling each way.  Returns (toward increasing k, toward
    decreasing k), which matches the signal velocities.

    Raises:
        RingflockError: closed-form gate fails, or the roots at phi = +-h
            are real (imaginary parts of exactly 0).
    """
    _require_gate(params)
    h = 1e-5
    plus, minus = pencil_roots(params, np.array([h, -h]))
    if ((plus.imag == 0.0) & (minus.imag == 0.0)).any():
        raise RingflockError("branches degenerate near phi = 0")
    # toward increasing k: the "-" root at phi = h, the "+" root at -h
    return (float(-(minus.imag[0] - plus.imag[1]) / (2.0 * h)),
            float(-(plus.imag[0] - minus.imag[1]) / (2.0 * h)))


def _half_roots(params):
    """The root pair (d, r1, r2) and the (leftward, rightward) = ("+", "-")
    roots of modes 0..n//2, the labels those of eigenvalue_arrays, from one
    root_pair."""
    roots = root_pair(*_symbols(params, np.arange(params.n // 2 + 1)))
    return (roots, *_labeled(*roots[1:]))


def modal_decompose(params: FlockParams, z0, zdot0) -> ModalCoefficients:
    """Solve for the modal amplitudes reproducing the initial condition.

    The rfft turns the initial data into per-mode pairs on bins 0..n//2;
    each mode m >= 1 gives a 2x2 linear system l + r = z_hat,
    nu_+ l + nu_- r = zdot_hat in its "+" (leftward) and "-" (rightward)
    roots.  The coherent pair holds the mean position and mean velocity.

    Raises:
        RingflockError: closed-form gate fails, the initial arrays are not
            finite (n,) arrays, or branch eigenvalues of some mode coincide,
            so the 2x2 system is singular (Jordan case).
    """
    _require_gate(params)
    n = params.n
    z0, zdot0 = _initial_arrays(n, z0, zdot0)
    zh, vh = np.fft.rfft(z0) / n, np.fft.rfft(zdot0) / n
    _, plus, minus = _half_roots(params)
    den = plus - minus
    bad = np.abs(den[1:]) <= DEGENERATE_MODE_TOL * np.abs(plus[1:])
    if bad.any():
        raise RingflockError(f"mode m={int(np.argmax(bad)) + 1} has coincident branches")
    with np.errstate(divide="ignore", invalid="ignore"):
        leftward = (vh - minus * zh) / den
        rightward = (plus * zh - vh) / den
    leftward[0] = rightward[0] = 0.0
    return ModalCoefficients(n=n, leftward=leftward, rightward=rightward,
                             coherent=(float(zh[0].real), float(vh[0].real)))


#: Cells per block of frames: one block's states and each scratch array of
#: _frames, over bins 0..n//2 (0.25 MB apiece), bound the memory of every
#: frame stream, whatever the ring size.
_BLOCK_CELLS = 1 << 15


def _initial_arrays(n, z0, zdot0):
    """(z0, zdot0) as float arrays, checked to be finite and of shape (n,)."""
    z0, zdot0 = np.asarray(z0, dtype=float), np.asarray(zdot0, dtype=float)
    if z0.shape != (n,) or zdot0.shape != (n,):
        raise RingflockError(f"initial arrays must have shape ({n},)")
    if not (np.isfinite(z0).all() and np.isfinite(zdot0).all()):
        raise RingflockError("initial arrays must be finite")
    return z0, zdot0


def _propagate(n, roots, zh, vh, ts, velocities=True):
    """Exact frames on n agents of the state with DFT data (zh, vh) on bins
    0..n//2 at the times ts.ravel(), one block of _BLOCK_CELLS // n frames
    (at least one) at a time: yields (t, z, zdot), the block's own times (a
    view of ts) and the (rows, n) states at them, or (t, z) when velocities
    is false, for a consumer that reads positions only.  Each frame is
    computed on its own, so the blocking changes no bit.  No name here holds
    a block between yields, so a consumer that drops each block keeps one
    alive."""
    w = vh - roots[1] * zh
    col = ts.reshape(-1, 1)
    step = max(1, _BLOCK_CELLS // n)
    for lo in range(0, len(col), step):
        tb = col[lo:lo + step]
        yield (tb[:, 0], *_frames(n, roots, zh, vh if velocities else None, w, tb))


def _frames(n, roots, zh, vh, w, tb):
    """The states (z, zdot) at the times of the column tb, as one real
    (2, rows, n) array; with vh None, the positions z alone, as (1, rows, n).

    Per mode z_hat(t) = e^(r1 t) (zh + P w), zdot_hat(t) = e^(r1 t) (vh + r2 P w)
    with roots = (d, r1, r2) from spectral.root_pair, r1,2 = lambda_v/2 +- d (d
    the principal root), w = vh - r1 zh and P = t expm1(y)/y, y = -2 d t, which
    Re y <= 0 bounds by t; P = t where y is 0 or subnormal (1/y overflows).
    No labels, 2x2 solve or special case: the coherent mode gives zh + t vh,
    a critical one (d = 0) its Jordan solution.  A cell whose e^(r1 t)
    underflows to 0 is 0 even where P w or the phase has overflowed (t near
    1e308).  irfft makes bin -m the conjugate of bin m: the state is real by
    construction.  Each row is evolved and transformed on its own, so z is
    the same bits with or without zdot.  A non-finite state raises
    RingflockError.
    """
    d, r1, r2 = roots
    with np.errstate(all="ignore"):
        y = -2.0 * d * tb
        pw = tb * np.where(np.abs(y) < np.finfo(float).tiny, 1.0, np.expm1(y) / y) * w
        # zv is e^(r1 t), then its product with the state, then the frames:
        # one name, so each step frees the array of the step before.
        zv = np.exp(r1 * tb)
        pw[zv == 0.0] = 0.0
        zv = zv * np.stack([zh + pw] if vh is None else [zh + pw, vh + r2 * pw])
        zv = n * np.fft.irfft(zv, n)
    if not np.isfinite(zv).all():
        raise RingflockError(f"the evolved state is not finite by t={tb[-1, 0]:.4g}")
    return zv


def _collect(blocks, ts, n):
    """(z, zdot) at the float times ts from their frame blocks (t, z, zdot),
    such as _propagate's, which cover ts.ravel() in order: (n,) arrays for a
    scalar ts, ts.shape + (n,) arrays for an array of times."""
    out, lo = np.empty((2, ts.size, n)), 0
    for _, z, zdot in blocks:
        out[0, lo:lo + len(z)], out[1, lo:lo + len(z)] = z, zdot
        lo += len(z)
        del z, zdot  # so the next block is computed with this one freed
    return tuple(out.reshape((2,) + ts.shape + (n,)))


def _propagator(params, z0, zdot0):
    """The inputs (n, roots, zh, vh) of _propagate for the state (z0, zdot0)
    on the ring of params: the roots of modes 0..n//2 and the rfft data / n."""
    n = params.n
    z0, zdot0 = _initial_arrays(n, z0, zdot0)
    return n, _half_roots(params)[0], np.fft.rfft(z0) / n, np.fft.rfft(zdot0) / n


def _modal_dft(coeffs, left, right):
    """The DFT data (l + r, nu_l l + nu_r r) on bins 0..n//2 of the state the
    amplitudes describe at t = 0, coherent pair in bin 0.

    Raises:
        RingflockError: the amplitudes do not have the shape of left.
    """
    l, r = np.asarray(coeffs.leftward), np.asarray(coeffs.rightward)
    if l.shape != left.shape or r.shape != left.shape:
        raise RingflockError(f"modal amplitudes must have shape {left.shape}")
    dft = np.stack([l + r, left * l + right * r])
    dft[:, 0] = coeffs.coherent
    return dft


def evolve(params: FlockParams, z0, zdot0, t):
    """Exact state (z, zdot) at time t from initial positions and velocities:
    (n,) arrays for a scalar t, (len(t), n) arrays for a 1-D array of times."""
    ts = np.asarray(t, dtype=float)
    return _collect(_propagate(*_propagator(params, z0, zdot0), ts), ts, params.n)


def modal_evolve(params: FlockParams, coeffs: ModalCoefficients, t):
    """Exact state (z, zdot) at time t from the modal amplitudes of a ring of
    params.n agents, shaped as in evolve: the propagator runs on (l + r,
    nu_+ l + nu_- r) over bins 0..n//2.

    Raises:
        RingflockError: coeffs belong to a ring of another size or their
            amplitudes do not have shape (n//2 + 1,), or the evolved state
            is not finite.
    """
    _require_same_ring(params, coeffs)
    roots, left, right = _half_roots(params)
    ts = np.asarray(t, dtype=float)
    blocks = _propagate(params.n, roots, *_modal_dft(coeffs, left, right), ts)
    return _collect(blocks, ts, params.n)


def power_law_coefficients(n: int, p: float, seed: int = 0) -> ModalCoefficients:
    """Synthetic modal data on bins 0..n//2 with |coeff_m| = m**-p.

    Phases are 2 pi u, with u from the random() stream of the stdlib
    random.Random(seed), which Python keeps stable across versions: one pair
    per mode m >= 1 in stream order, so rings of different sizes share the
    low-mode coefficients.  Like any modal data they describe a real field
    (ModalCoefficients).  On an even ring the half-ring rightward amplitude
    is the conjugate of the leftward one, so that bin's position data are
    real.

    Raises:
        RingflockError: p is not a finite number above 1, seed is
            negative, or n is above model._SIZE_MAX.
    """
    if not 1.0 < p < math.inf:
        raise RingflockError(f"need finite p > 1, got p={p:g}")
    if seed < 0:
        raise RingflockError(f"need a non-negative seed, got seed={seed}")
    _check_size("n", n, "modes")
    rng = random.Random(seed)
    half = n // 2
    draws = np.fromiter(iter(rng.random, None), float, 2 * half)  # the first 2 * half draws
    phases = (2.0 * math.pi * draws).reshape(half, 2)
    # float ** float, not np.power, which can differ in the last bit
    mag = np.array([float(m) ** (-p) for m in range(1, half + 1)])
    left, right = np.zeros((2, half + 1), dtype=complex)
    left[1:], right[1:] = (mag[:, None] * np.exp(1j * phases)).T
    if half and n % 2 == 0:  # an even ring's half-ring bin is its own conjugate
        right[half] = left[half].conjugate()
    return ModalCoefficients(n=n, leftward=left, rightward=right, coherent=(0.0, 0.0))


@dataclass(frozen=True)
class WaveBoundReport:
    """Measured traveling-wave error against the three-term bound.

    The profiles keep the modes |m| <= cutoff < n**alpha: f_minus_coeffs
    holds the leftward amplitudes on bins 0..min(cutoff, n//2) (the profile
    f_-(x) = sum_m coeff_m exp(i theta m x) over |m| <= cutoff, coeff_-m the
    conjugate of coeff_m, advected at c_minus) and f_plus_coeffs the
    rightward ones.  The profile sum is n irfft of the kept bins, with an
    even ring's half-ring term taken by its real part.
    m_bound is the tightest envelope M = max |coeff_m| |m|**p of the data.
    damping_mid = C(alpha, beta) and damping_high = C(beta, 1) are the
    minimal |Re(nu)| over the two frequency bands, taken over both roots.
    term1 bounds the kept modes' drift from their rigid translates, term2
    and term3 the two damped bands; no term is fitted to a run.
    """

    n: int
    cutoff: int
    f_minus_coeffs: np.ndarray
    f_plus_coeffs: np.ndarray
    c_plus: float
    c_minus: float
    m_bound: float
    damping_mid: float
    damping_high: float
    ts: np.ndarray
    measured: np.ndarray
    signal_sup: np.ndarray
    term1: np.ndarray
    term2: np.ndarray
    term3: np.ndarray

    def bound(self) -> np.ndarray:
        return self.term1 + self.term2 + self.term3

    def bound_holds(self) -> bool:
        return bool((self.measured <= self.bound()).all())


def _envelope_bound(coeffs, p):
    """The tightest power-law envelope M = max |coeff_m| |m|**p over the
    modes m = 1..n//2, from the larger of the two amplitudes.

    Raises:
        RingflockError: every modal coefficient is zero.
    """
    mags = np.maximum(np.abs(coeffs.leftward[1:]), np.abs(coeffs.rightward[1:]))
    live = mags > 0
    if not live.any():
        raise RingflockError("all modal coefficients vanish")
    mags, abs_ms = mags[live], np.arange(1, len(mags) + 1)[live]
    with np.errstate(over="ignore"):
        envelope = mags * abs_ms ** p
        # |m|**p overflows where the coefficient underflows (large p): use logs there
        big = ~np.isfinite(envelope)
        envelope[big] = np.exp(np.log(mags[big]) + p * np.log(abs_ms[big]))
    return float(envelope.max())


def verify_wave_bound(params: FlockParams, coeffs: ModalCoefficients,
                        alpha: float, beta: float, k_window: float, p: float) -> WaveBoundReport:
    """Measure sup_k |z_k(t) - f_-(k - c_- t) - f_+(k - c_+ t)| on the window.

    The profiles f_+- keep the modes |m| < n**alpha (strict).  The tightest
    power-law envelope M = max |coeff_m| |m|**p is computed from the data,
    making the decay hypothesis checkable instead of assumed.  The
    observation window is [n/c_slow, K n/c_slow], c_slow = min(c_+, |c_-|)
    the slower signal speed, sampled at 7 times.  The first bound term has
    no free constant: a kept mode's exponents nu t and -i theta m c t both
    have real part <= 0, where |e^a - e^b| <= |a - b|, so the mode and its
    conjugate bin drift from the profile by at most 2 t |coeff| |nu + i
    theta m c|, summed over the kept modes and both branches at O(cutoff)
    cost.  Exact modal evolution provides the ground truth, from one
    evaluation of the mode roots, one block of frames at a time (the
    blocks of evolve, one frame each at n = 65536), positions only: no
    velocity is evolved or transformed, and the positions are the bits
    evolve gives.  Per block the profiles are summed in modal space: the
    coefficient of mode m >= 0, times exp(-i theta m c t), goes to rfft bin
    m, and one irfft evaluates both at every agent of those frames; only
    that block's positions and profiles are held.

    Raises:
        RingflockError: exponent ordering violated, K or p not a finite
            number above 1, or n**alpha <= 1; every modal coefficient is
            zero; coeffs belong to a ring of another size or their
            amplitudes do not have shape (n//2 + 1,); K n/c_slow or a
            bound term overflows; or, via the signal velocities, the
            closed-form gate fails.
    """
    _require_same_ring(params, coeffs)
    n = params.n
    if not (0.0 < alpha < beta < 1.0 and 1.0 < k_window < math.inf and 1.0 < p < math.inf):
        raise RingflockError("need 0 < alpha < beta < 1, finite K > 1, finite p > 1")
    if n ** alpha <= 1.0:
        raise RingflockError(f"n**alpha = {n ** alpha:.3g} must exceed 1")

    roots, left, right = _half_roots(params)
    zh, vh = _modal_dft(coeffs, left, right)
    rate = np.minimum(np.abs(left.real), np.abs(right.real))  # the slower decay of each mode
    m_bound = _envelope_bound(coeffs, p)

    cutoff = math.floor(n ** alpha)
    if cutoff >= n ** alpha:  # strict inequality |m| < n**alpha
        cutoff -= 1
    kept = min(cutoff, n // 2) + 1  # the profiles' rfft bins 0..kept - 1
    sigs = signal_velocities(params)
    c_plus, c_minus = sigs.c_plus, sigs.c_minus
    f_minus, f_plus = coeffs.leftward[:kept], coeffs.rightward[:kept]

    # term1 / t: bins m >= 1 count twice, with bin -m, but an even ring's half-ring bin once
    itm = 1j * params.theta * np.arange(1, kept)
    slip = (np.abs(f_minus[1:]) * np.abs(left[1:kept] + itm * c_minus)
            + np.abs(f_plus[1:]) * np.abs(right[1:kept] + itm * c_plus))
    slip_rate = 2.0 * slip.sum() - (slip[-1] if 2 * (kept - 1) == n else 0.0)
    del left, right  # each per-mode array is dropped after its last use

    def damping(lo_exp, hi_exp):
        lo = math.ceil(n ** lo_exp)
        hi = math.floor(min(n / 2.0, n ** hi_exp))
        if lo > hi:
            return math.inf
        return float(rate[lo:hi + 1].min())

    damping_mid, damping_high = damping(alpha, beta), damping(beta, 1.0)

    c_slow = min(abs(c_minus), c_plus)
    lo, hi = n / c_slow, k_window * n / c_slow
    if hi == math.inf:
        raise RingflockError(f"the window end K n/|c| overflows float64 at K={k_window:g}")
    ts = np.linspace(lo, hi, 7)

    phase = -1j * params.theta * np.arange(kept)

    def sups(block):  # (error sup, signal sup) of one block of frames
        t, z = block
        ph = phase * t[:, None]
        w = f_minus * np.exp(ph * c_minus) + f_plus * np.exp(ph * c_plus)
        return np.abs(z - n * np.fft.irfft(w, n)).max(axis=1), np.abs(z).max(axis=1)

    frames = _propagate(n, roots, zh, vh, ts, velocities=False)
    # map keeps no block alive while the generator computes the next one
    measured, signal_sup = map(np.concatenate, zip(*map(sups, frames)))

    fac = 4.0 * m_bound / (p - 1.0)
    try:  # n**alpha - 1 may be below 1, and then large p overflows
        low, mid = ((n ** e - 1.0) ** (1.0 - p) for e in (alpha, beta))
    except OverflowError:
        raise RingflockError(f"(n**alpha - 1)**(1 - p) overflows float64 at p={p:g}") from None
    term2 = fac * (low - mid) * np.exp(-damping_mid * ts)
    term3 = fac * mid * np.exp(-damping_high * ts)

    return WaveBoundReport(
        n=n, cutoff=cutoff, f_minus_coeffs=f_minus, f_plus_coeffs=f_plus,
        c_plus=c_plus, c_minus=c_minus, m_bound=m_bound, damping_mid=damping_mid,
        damping_high=damping_high, ts=ts, measured=measured,
        signal_sup=signal_sup, term1=slip_rate * ts, term2=term2, term3=term3)


def exp_diff_bound_holds(a, b) -> bool:
    """Whether |exp(a) - exp(b)| < 2 |a - b|, with a = b passing as equality.

    Holds for all small arguments; the property suite sweeps the disk
    |a|, |b| <= 0.1.  The traveling-wave bound rests instead on
    |exp(a) - exp(b)| <= |a - b| for Re a, Re b <= 0 (verify_wave_bound).
    """
    a = complex(a)
    b = complex(b)
    if a == b:
        return True
    return abs(cmath.exp(a) - cmath.exp(b)) < 2.0 * abs(a - b)
