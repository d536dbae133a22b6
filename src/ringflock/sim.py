"""Time domain: the impulse-propagation experiment and the RK4 oracle.

The experiment samples the exact evolution (wavefield.evolve).  The RK4
integrator, its independent check, never builds the dense matrix; the
circulant couplings are applied by rolling the state, so a step costs O(n)
per neighbor offset.  Fixed steps keep runs bit-reproducible for fixtures.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import RingflockError
from .model import FlockParams
from .stability import stable_for_all_n
from .wavefield import evolve, signal_velocities


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
    of the impulse (NaN when the signal never arrives); the fitted speeds come
    from straight-line fits of arrival time against agent index on each
    branch, and the predictions are the closed-form signal velocities.
    """

    arrival_time: np.ndarray
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


def integrate(params: FlockParams, z0, zdot0, t_end: float, dt: float) -> Trajectory:
    """Classical RK4 on the first-order form, sampled to about 500 rows.

    Raises:
        RingflockError: dt is not in (0, 0.1 / (|g_x| + |g_v| + 1)], the
            stability heuristic (a NaN step included); t_end is not positive
            and finite; the initial arrays do not have shape (n,); or the
            state stopped being finite (divergence or a bad step size).
    """
    g_x, g_v, rho_x, rho_v, n = params.g_x, params.g_v, params.rho_x, params.rho_v, params.n
    cap = 0.1 / (abs(g_x) + abs(g_v) + 1.0)
    if not 0.0 < dt <= cap:
        raise RingflockError(f"dt={dt:.4g} outside (0, {cap:.4g}]")
    if not 0.0 < t_end < math.inf:
        raise RingflockError(f"t_end={t_end} must be positive and finite")
    z = np.asarray(z0, dtype=float).copy()
    v = np.asarray(zdot0, dtype=float).copy()
    if z.shape != (n,) or v.shape != (n,):
        raise RingflockError(f"initial arrays must have shape ({n},)")

    def acc(zz, vv):
        return g_x * _coupled(rho_x, zz) + g_v * _coupled(rho_v, vv)

    steps = max(1, int(round(t_end / dt)))
    stride = max(1, steps // 500)

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
                raise RingflockError(f"non-finite state at t={step * dt:.4g}")
            times.append(step * dt)
            zs.append(z.copy())
            vs.append(v.copy())

    return Trajectory(times=np.array(times), z=np.array(zs), zdot=np.array(vs))


def _fit_speed(ks, arrivals):
    # arrival ~ k / c + t0, so the slope of t against k inverts to the speed
    good = np.isfinite(arrivals)
    if good.sum() < 2:
        return math.nan
    slope = np.polyfit(ks[good], arrivals[good], 1)[0]
    return float(1.0 / slope) if slope != 0.0 else math.nan


def impulse_experiment(params: FlockParams, v_impulse: float = 1.0,
                       t_end: Optional[float] = None):
    """Kick agent 0 and watch the disturbance run around the ring both ways.

    Initial state z = 0, zdot = v_impulse on agent 0 only, evolved exactly
    on 2001 evenly spaced frames of [0, t_end], by default
    t_front = 0.6 n / min(c_+, |c_-|).  Arrivals are measured on 2001 frames
    of [0, min(t_end, t_front)], so a long run neither samples the pulse too
    coarsely nor sees the wrapped front first.  Arrival at agent k is the
    first frame with |zdot_k| above 2 percent of the impulse.  That
    threshold matters: continuous-time lattice dynamics have no strict
    causality cone, so a tiny analytic precursor leaks ahead of the energy
    front, and a threshold much below ~2 percent tracks that leakage
    (apparent speeds several percent above the signal velocity at n = 200)
    instead of the front itself.  The five agents nearest the source and
    nearest the antipode are left out of the straight-line fits: onset
    effects distort one end and the two fronts collide at the other.

    Raises:
        RingflockError: v_impulse is zero or not finite, t_end is not
            positive and finite, the closed-form gate fails, or the evolved
            state is not finite in float64.
    """
    if not (math.isfinite(v_impulse) and v_impulse != 0.0):
        raise RingflockError(f"v_impulse={v_impulse} must be nonzero and finite")
    if not stable_for_all_n(params):
        raise RingflockError("impulse experiment needs gate-stable parameters")
    n = params.n
    sigs = signal_velocities(params)
    t_front = 0.6 * n / min(sigs.c_plus, abs(sigs.c_minus))
    if t_end is None:
        t_end = t_front
    if not 0.0 < t_end < math.inf:
        raise RingflockError(f"t_end={t_end} must be positive and finite")
    threshold = 0.02 * abs(v_impulse)

    v0 = np.zeros(n)
    v0[0] = v_impulse
    times = np.linspace(0.0, t_end, 2001)
    traj = Trajectory(times, *evolve(params, np.zeros(n), v0, times))
    window = np.linspace(0.0, min(t_end, t_front), 2001)  # traj.times if t_end <= t_front
    zdot = traj.zdot if t_end <= t_front else evolve(params, np.zeros(n), v0, window)[1]

    hit = np.abs(zdot) > threshold
    first = hit.argmax(axis=0)  # 0 both for "hit at frame 0" and "never hit"
    arrival = np.where(hit.any(axis=0), window[first], np.nan)
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
        raise RingflockError("delta must be positive")
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
    frames = np.arange(traj.times.size)

    def locate(ring_index, lo, hi):
        inside = (lo <= ring_index) & (ring_index <= hi)
        k0 = np.floor(np.where(inside, ring_index, lo)).astype(int)
        x0 = x[frames, k0 % n] + (k0 // n) * n * delta
        x1 = x[frames, (k0 + 1) % n] + ((k0 + 1) // n) * n * delta
        return np.where(inside, x0 + (ring_index - k0) * (x1 - x0), np.nan)

    with np.errstate(over="ignore", invalid="ignore"):  # c * t may overflow to inf
        return (locate(c_plus * traj.times, 0.0, n / 2.0),
                locate(n + c_minus * traj.times, n / 2.0, n))
