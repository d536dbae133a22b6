"""Time-domain oracle: RK4 integration and the impulse-propagation experiment.

The integrator never builds the dense matrix; the circulant couplings are
applied by rolling the state, so a step costs O(n) per neighbor offset.
Classical fixed-step RK4 keeps runs bit-reproducible for test fixtures.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonfiniteState, StepTooLarge, UnstableParams
from .model import FlockParams, normalize, validate
from .stability import stable_for_all_n
from .wavefield import signal_velocities


@dataclass(frozen=True)
class Trajectory:
    """Sampled run: z[frame, agent], zdot[frame, agent] at the given times."""

    times: np.ndarray
    z: np.ndarray
    zdot: np.ndarray
    params: FlockParams


@dataclass(frozen=True)
class WavefrontReport:
    """First-arrival data of a localized impulse and the fitted front speeds.

    arrival_time[k] is the first sampled time with |zdot_k| above the
    threshold (NaN when the signal never arrives); the fitted speeds come
    from straight-line fits of arrival time against agent index on each
    branch, and the predictions are the closed-form signal velocities.
    """

    arrival_time: np.ndarray
    threshold: float
    fitted_c_plus: float
    fitted_c_minus: float
    predicted_c_plus: float
    predicted_c_minus: float
    no_arrival: list


def _coupled(rho, x):
    out = np.zeros_like(x)
    for j, w in rho.items():
        if w != 0.0:
            out += w * np.roll(x, -j)  # roll(-j)[k] = x[(k+j) mod n]
    return out


def max_step(params: FlockParams) -> float:
    """Largest dt the explicit-scheme heuristic allows."""
    return 0.1 / (abs(params.g_x) + abs(params.g_v) + 1.0)


def integrate(params: FlockParams, z0, zdot0, t_end: float, dt: float,
              frames: int = 500) -> Trajectory:
    """Classical RK4 on the first-order form, sampled to about `frames` rows.

    Raises:
        StepTooLarge: dt is not in (0, 0.1 / (|g_x| + |g_v| + 1)], the
            stability heuristic (a NaN step included).
        NonfiniteState: the state stopped being finite (divergence or a bad
            step size).
        ValueError: t_end is not positive and finite.
    """
    p = validate(params)
    cap = max_step(p)
    if not 0.0 < dt <= cap:
        raise StepTooLarge(f"dt={dt:.4g} outside (0, {cap:.4g}]")
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end={t_end} must be positive and finite")
    z = np.asarray(z0, dtype=float).copy()
    v = np.asarray(zdot0, dtype=float).copy()
    if z.shape != (p.n,) or v.shape != (p.n,):
        raise ValueError(f"initial arrays must have shape ({p.n},)")

    g_x, g_v, rho_x, rho_v = p.g_x, p.g_v, p.rho_x, p.rho_v

    def acc(zz, vv):
        return g_x * _coupled(rho_x, zz) + g_v * _coupled(rho_v, vv)

    steps = max(1, int(round(t_end / dt)))
    stride = max(1, steps // frames)

    times = [0.0]
    zs = [z.copy()]
    vs = [v.copy()]
    for step in range(1, steps + 1):
        k1z, k1v = v, acc(z, v)
        z2, v2 = z + 0.5 * dt * k1z, v + 0.5 * dt * k1v
        k2z, k2v = v2, acc(z2, v2)
        z3, v3 = z + 0.5 * dt * k2z, v + 0.5 * dt * k2v
        k3z, k3v = v3, acc(z3, v3)
        z4, v4 = z + dt * k3z, v + dt * k3v
        k4z, k4v = v4, acc(z4, v4)
        z = z + dt / 6.0 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        v = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if step % stride == 0 or step == steps:
            if not (np.isfinite(z).all() and np.isfinite(v).all()):
                raise NonfiniteState(f"non-finite state at t={step * dt:.4g}")
            times.append(step * dt)
            zs.append(z.copy())
            vs.append(v.copy())

    return Trajectory(times=np.array(times), z=np.array(zs), zdot=np.array(vs),
                      params=p)


def _fit_speed(ks, arrivals):
    # arrival ~ k / c + t0, so the slope of t against k inverts to the speed
    good = np.isfinite(arrivals)
    if good.sum() < 2:
        return math.nan
    slope = np.polyfit(ks[good], arrivals[good], 1)[0]
    return float(1.0 / slope) if slope != 0.0 else math.nan


def impulse_experiment(params: FlockParams, v_impulse: float = 1.0,
                       t_end: Optional[float] = None, dt: Optional[float] = None,
                       threshold: Optional[float] = None, frames: int = 2000):
    """Kick agent 0 and watch the disturbance run around the ring both ways.

    Initial state z = 0, zdot = v_impulse on agent 0 only.  Arrival at agent
    k is the first time |zdot_k| exceeds the threshold, default 2 percent of
    the impulse.  The default matters: continuous-time lattice dynamics have
    no strict causality cone, so a tiny analytic precursor leaks ahead of
    the energy front, and a threshold much below ~2 percent tracks that
    leakage (apparent speeds several percent above the signal velocity at
    n = 200) instead of the front itself.  The five agents nearest the
    source and nearest the antipode are left out of the straight-line fits:
    onset effects distort one end and the two fronts collide at the other.

    Raises:
        ValueError: v_impulse is zero or not finite.
        UnstableParams: closed-form gate fails.
    """
    if not (math.isfinite(v_impulse) and v_impulse != 0.0):
        raise ValueError(f"v_impulse={v_impulse} must be nonzero and finite")
    if not stable_for_all_n(params):
        raise UnstableParams("impulse experiment needs gate-stable parameters")
    p = validate(params)
    n = p.n
    sigs = signal_velocities(normalize(p))
    if t_end is None:
        t_end = 0.6 * n / min(sigs.c_plus, abs(sigs.c_minus))
    if dt is None:
        dt = max_step(p)
    if threshold is None:
        threshold = 0.02 * abs(v_impulse)

    z0 = np.zeros(n)
    v0 = np.zeros(n)
    v0[0] = v_impulse
    traj = integrate(p, z0, v0, t_end, dt, frames=frames)

    hit = np.abs(traj.zdot) > threshold
    first = hit.argmax(axis=0)  # 0 both for "hit at frame 0" and "never hit"
    arrival = np.where(hit.any(axis=0), traj.times[first], np.nan)
    no_arrival = [int(k) for k in np.flatnonzero(~hit.any(axis=0))]

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
    fitted_plus = _fit_speed(fwd, arrival[fwd])
    fitted_minus = _fit_speed(bwd - n, arrival[bwd])  # signed index on the back branch

    report = WavefrontReport(
        arrival_time=arrival,
        threshold=threshold,
        fitted_c_plus=fitted_plus,
        fitted_c_minus=fitted_minus,
        predicted_c_plus=sigs.c_plus,
        predicted_c_minus=sigs.c_minus,
        no_arrival=no_arrival,
    )
    return traj, report


def positions(traj: Trajectory, delta: float, v_nominal: float = 0.0) -> np.ndarray:
    """Physical orbits x_k(t) = z_k(t) + k*delta + v_nominal*t."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    ks = np.arange(traj.z.shape[1])
    return traj.z + ks[None, :] * delta + v_nominal * traj.times[:, None]


def front_overlay(traj: Trajectory, c_plus: float, c_minus: float,
                  delta: float, v_nominal: float = 0.0):
    """Predicted wavefront positions in orbit space, one value per frame.

    The front sits at real-valued ring index c*t; its position interpolates
    the orbits linearly between neighboring agents (with the n*delta offset
    across the wrap).  NaN after the two fronts meet at the antipode.
    """
    x = positions(traj, delta, v_nominal)
    n = traj.z.shape[1]

    def locate(tidx, ring_index):
        k0 = math.floor(ring_index)
        frac = ring_index - k0
        x0 = x[tidx, k0 % n] + (k0 // n) * n * delta
        k1 = k0 + 1
        x1 = x[tidx, k1 % n] + (k1 // n) * n * delta
        return x0 + frac * (x1 - x0)

    fp = np.full(traj.times.size, np.nan)
    fm = np.full(traj.times.size, np.nan)
    for i, t in enumerate(traj.times):
        jp = c_plus * t
        if 0.0 <= jp <= n / 2.0:
            fp[i] = locate(i, jp)
        jm = n + c_minus * t
        if n / 2.0 <= jm <= n:
            fm[i] = locate(i, jm)
    return fp, fm
