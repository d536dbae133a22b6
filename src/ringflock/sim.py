"""Time domain: the impulse-propagation experiment and the RK4 oracle.

The experiment streams the exact evolution (wavefield._propagate).  The RK4
integrator, its independent check, never builds the dense matrix: on a
translation-invariant ring one RK4 step adds a fixed circulant stencil of
the state, read off the stage formulas once per run, so a step costs O(n)
per stencil offset (nine for n >= 9).  The stencil holds the increment, not
the full step, so no 1 + O(dt^2) center coefficient rounds away digits each
step.  Fixed steps keep runs bit-reproducible for fixtures.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import RingflockError
from .model import FlockParams, _check_size
from .wavefield import (_collect, _initial_arrays, _propagate, _propagator,
                        signal_velocities)


@dataclass(frozen=True)
class Trajectory:
    """Sampled run: z[frame, agent], zdot[frame, agent] at the given times."""

    times: np.ndarray
    z: np.ndarray
    zdot: np.ndarray


@dataclass(frozen=True)
class WavefrontReport:
    """First-arrival data of a localized impulse and the fitted front speeds.

    arrival_time[k] is the first sampled time with |zdot_k| above 2 percent
    of the unit impulse, NaN for an agent the signal never reaches; the fitted
    speeds come from straight-line fits of arrival time against agent index
    on each branch, and the predictions are the closed-form signal velocities.
    """

    arrival_time: np.ndarray
    fitted_c_plus: float
    fitted_c_minus: float
    predicted_c_plus: float
    predicted_c_minus: float


def _coupled(rho, x):
    out = np.zeros_like(x)
    for j, w in rho.items():
        if w != 0.0:
            out += w * np.concatenate([x[j:], x[:j]])  # [k] = x[(k+j) mod n]
    return out


def integrate(params: FlockParams, z0, zdot0, t_end: float, dt: float) -> Trajectory:
    """Classical RK4 on the first-order form, sampled to about 500 rows.

    The system is linear and translation invariant, so one RK4 step adds to
    the stacked state y = [z; zdot] a fixed circulant stencil of it (the
    degree-4 Taylor polynomial of exp(dt M), minus the identity, reaches
    four agents each way).  The stencil is read off the stage formulas by
    running them once on a unit impulse in z and once in zdot at agent 0;
    each step is then one gather and one (2, 2d) matmul for d offsets.  It
    holds the increment, not the step: the step's center coefficient is
    1 + O(dt^2), and its rounding error of one ulp would recur every step.

    The step cap 0.5 / R, R = |g_v| sum|rho_v| + sqrt(|g_x| sum|rho_x|) >= |nu|
    on every mode, has the unit of time and keeps |dt nu| <= 0.5, well inside
    RK4's stability region for a decaying mode.

    Raises:
        RingflockError: dt is not a finite number in (0, 0.5 / R]; t_end
            is not positive and finite; the initial arrays do not have shape
            (n,) or are not finite; or a sampled state is not finite
            (divergence or a bad step size; numpy's warnings are silenced).
    """
    g_x, g_v, rho_x, rho_v, n = params.g_x, params.g_v, params.rho_x, params.rho_v, params.n
    rate = (abs(g_v) * sum(map(abs, rho_v.values()))
            + math.sqrt(abs(g_x) * sum(map(abs, rho_x.values()))))
    cap = 0.5 / rate if rate else math.inf
    if not 0.0 < dt < math.inf or dt > cap:
        raise RingflockError(f"dt={dt:.4g} outside (0, {cap:.4g}]")
    if not 0.0 < t_end < math.inf:
        raise RingflockError(f"t_end={t_end} must be positive and finite")
    z, v = _initial_arrays(n, z0, zdot0)

    def acc(zz, vv):
        return g_x * _coupled(rho_x, zz) + g_v * _coupled(rho_v, vv)

    def increment(z, v):
        k1z, k1v = v, acc(z, v)
        z2, v2 = z + 0.5 * dt * k1z, v + 0.5 * dt * k1v
        k2z, k2v = v2, acc(z2, v2)
        z3, v3 = z + 0.5 * dt * k2z, v + 0.5 * dt * k2v
        k3z, k3v = v3, acc(z3, v3)
        z4, v4 = z + dt * k3z, v + dt * k3v
        k4z, k4v = v4, acc(z4, v4)
        return (dt / 6.0 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z),
                dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))

    # inc[c, c', k]: increment of component c at agent k from a unit c' at agent 0
    unit, zero = np.eye(1, n)[0], np.zeros(n)
    inc = np.stack([increment(unit, zero), increment(zero, unit)], axis=1)
    d = np.flatnonzero(inc.any(axis=(0, 1)))  # the whole ring when n < 9
    idx = (np.arange(n) - d[:, None]) % n
    w = inc[:, :, d].reshape(2, -1)

    steps = max(1, int(round(t_end / dt)))
    stride = max(1, steps // 500)

    y = np.stack([z, v])
    times = [0.0]
    zs = [y[0]]
    vs = [y[1]]
    with np.errstate(over="ignore", invalid="ignore"):  # the sampled check below reports it
        for step in range(1, steps + 1):
            y = y + w @ np.take(y, idx, axis=1).reshape(-1, n)
            if step % stride == 0 or step == steps:
                if not np.isfinite(y).all():
                    raise RingflockError(f"non-finite state at t={step * dt:.4g}")
                times.append(step * dt)
                zs.append(y[0])
                vs.append(y[1])

    return Trajectory(times=np.array(times), z=np.array(zs), zdot=np.array(vs))


def _fit_speed(ks, arrivals):
    # arrival ~ k / c + t0, so the slope of t against k inverts to the speed
    good = np.isfinite(arrivals)
    if good.sum() < 2:
        return math.nan
    slope = np.polyfit(ks[good], arrivals[good], 1)[0]
    return float(1.0 / slope) if slope != 0.0 else math.nan


def _wavefront_report(arrival, sigs):
    """The front speeds fitted to the arrival times (NaN: never reached)."""
    n = arrival.size
    # The two fronts meet where the arrival curve peaks (the antipode only
    # for speed-symmetric couplings); beyond that point each branch sees the
    # wrapped opposite front first, so the fits stop short of it.
    half = n // 2
    skip = 5
    if np.isfinite(arrival[1:]).any():
        meet = 1 + int(np.nanargmax(arrival[1:]))
    else:
        meet = half
    fwd = np.arange(1 + skip, min(half, meet - skip) + 1)
    bwd = np.arange(max(math.ceil(n / 2), meet + skip), n - skip)
    return WavefrontReport(
        arrival_time=arrival,
        fitted_c_plus=_fit_speed(fwd, arrival[fwd]),
        fitted_c_minus=_fit_speed(bwd - n, arrival[bwd]),  # signed index on the back branch
        predicted_c_plus=sigs.c_plus,
        predicted_c_minus=sigs.c_minus,
    )


class ImpulseRun:
    """impulse_experiment as a stream, one block of frames at a time.

    Construction checks the inputs.  Iterating yields the propagator's blocks
    (t, z, zdot), the (rows, n) states at the times t, a view of `times`,
    each scanned for drift and arrivals and then dropped.  After the last
    block the drift is checked over all frames and, when t_end > t_front,
    the arrival window is streamed the same way; then `report` holds the
    WavefrontReport.  A failed check raises before the iteration ends, so a
    consumer writing the blocks to a file can still discard it.
    """

    def __init__(self, params: FlockParams, t_end: Optional[float] = None):
        n = self._n = params.n
        self._sigs = signal_velocities(params)
        t_front = 0.6 * n / min(self._sigs.c_plus, abs(self._sigs.c_minus))
        if t_end is None:
            t_end = t_front
        if not 0.0 < t_end < math.inf:
            raise RingflockError(f"t_end={t_end} must be positive and finite")
        self.times = np.linspace(0.0, t_end, 2001)
        # Arrivals are timed on 2001 frames of [0, min(t_end, t_front)]: the
        # trajectory's own (window None) or those of a second stream.
        self._window = None if t_end <= t_front else np.linspace(0.0, t_front, 2001)
        _check_size("n", n, "agents")
        v0 = np.zeros(n)
        v0[0] = 1.0
        self._propagator = _propagator(params, np.zeros(n), v0)
        self.report = None

    def __iter__(self):
        n = self._n
        arrival = np.full(n, np.nan)

        def scan(t, zdot):  # first frames of the block with |zdot_k| above 0.02
            hit = np.abs(zdot) > 0.02
            new = hit.any(axis=0) & np.isnan(arrival)
            arrival[new] = t[hit.argmax(axis=0)[new]]

        drift = 0.0
        for t, z, zdot in _propagate(*self._propagator, self.times):
            # np.maximum, like a max over all frames, keeps a NaN
            drift = np.maximum(drift, np.abs(zdot.mean(axis=1) - 1.0 / n).max())
            if self._window is None:
                scan(t, zdot)
            yield t, z, zdot
            del z, zdot  # so the next block is computed with this one freed
        if drift > 1e-12 / n:
            raise RingflockError(f"mean velocity drifts by {drift:.3e} from 1 / n")
        if self._window is not None:
            for t, z, zdot in _propagate(*self._propagator, self._window):
                scan(t, zdot)
                del z, zdot
        self.report = _wavefront_report(arrival, self._sigs)


def impulse_experiment(params: FlockParams, t_end: Optional[float] = None):
    """Kick agent 0 and watch the disturbance run around the ring both ways.

    Initial state z = 0, zdot = 1 on agent 0 only (the dynamics are linear,
    so a kick of another size would only rescale the run), evolved exactly
    on 2001 evenly spaced frames of [0, t_end], by default
    t_front = 0.6 n / min(c_+, |c_-|).  Arrivals are measured on 2001 frames
    of [0, min(t_end, t_front)], so a long run neither samples the pulse too
    coarsely nor sees the wrapped front first.  Arrival at agent k is the
    first frame with |zdot_k| above 0.02, 2 percent of the kick.  That
    threshold matters: continuous-time lattice dynamics have no strict
    causality cone, so a tiny analytic precursor leaks ahead of the energy
    front, and a threshold much below ~2 percent tracks that leakage
    (apparent speeds several percent above the signal velocity at n = 200)
    instead of the front itself.  The five agents nearest the source and
    nearest the antipode are left out of the straight-line fits: onset
    effects distort one end and the two fronts collide at the other.

    This collects ImpulseRun's stream into 2 x 2001 x n floats; the stream
    itself holds one block of frames, whatever n.

    Raises:
        RingflockError: the closed-form gate fails, t_end is not positive
            and finite, n is above model._SIZE_MAX, the evolved
            state is not finite in float64, or the mean velocity, which the
            couplings conserve, strays from 1 / n by 1e-12 relative.
    """
    run = ImpulseRun(params, t_end)
    z, zdot = _collect(run, run.times, params.n)
    return Trajectory(run.times, z, zdot), run.report
