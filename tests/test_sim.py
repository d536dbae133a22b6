import math

import numpy as np
import pytest

import ringflock as rf
from helpers import random_underdamped_params


def test_coherent_initial_condition_drifts_exactly():
    p = rf.FlockParams.nearest_neighbor(32, -2.0, -1.0)
    traj = rf.integrate(p, np.full(32, 0.7), np.full(32, 0.3), t_end=10.0, dt=0.02)
    assert np.abs(traj.z[-1] - (0.7 + 0.3 * traj.times[-1])).max() < 1e-9
    assert np.abs(traj.zdot[-1] - 0.3).max() < 1e-12


def test_integrate_matches_modal_evolution():
    rng = np.random.default_rng(107)
    p = random_underdamped_params(rng, 64)
    z0 = rng.uniform(-1, 1, 64)
    v0 = rng.uniform(-1, 1, 64)
    traj = rf.integrate(p, z0, v0, t_end=10.0, dt=1e-3)
    co = rf.modal_decompose(p, z0, v0)
    z_ref, v_ref = rf.modal_evolve(p, co, traj.times[-1])
    scale = np.abs(z_ref).max()
    assert np.abs(traj.z[-1] - z_ref).max() / scale < 1e-6


def test_momentum_mean_velocity_conserved():
    rng = np.random.default_rng(109)
    p = random_underdamped_params(rng, 32)
    v0 = rng.uniform(-1, 1, 32)
    traj = rf.integrate(p, rng.uniform(-1, 1, 32), v0, t_end=100.0, dt=0.02)
    drift = np.abs(traj.zdot.mean(axis=1) - v0.mean()).max()
    assert drift <= 1e-9


def test_rk4_fourth_order_convergence():
    rng = np.random.default_rng(113)
    p = random_underdamped_params(rng, 64)
    z0 = rng.uniform(-1, 1, 64)
    v0 = rng.uniform(-1, 1, 64)
    co = rf.modal_decompose(p, z0, v0)

    def err(dt):
        traj = rf.integrate(p, z0, v0, t_end=5.0, dt=dt)
        z_ref, _ = rf.modal_evolve(p, co, traj.times[-1])
        return np.abs(traj.z[-1] - z_ref).max()

    ratio = err(0.02) / err(0.01)
    assert 12.0 <= ratio <= 20.0


def test_impulse_evolution_matches_rk4_through_the_critical_mode():
    # g_x = g_v = -2 is critically damped at m = 100 of n = 200, where the
    # modal amplitudes do not exist; the exact propagator needs no amplitudes.
    p = rf.FlockParams.nearest_neighbor(200, -2.0, -2.0)
    z0, v0 = np.zeros(200), np.zeros(200)
    v0[0] = 1.0
    with pytest.raises(rf.RingflockError, match="mode m=100 has coincident branches"):
        rf.modal_decompose(p, z0, v0)
    traj = rf.integrate(p, z0, v0, t_end=30.0, dt=0.02)
    z, v = rf.evolve(p, z0, v0, traj.times)
    assert np.abs(z - traj.z).max() <= 1e-7
    assert np.abs(v - traj.zdot).max() <= 1e-7


def test_integrate_rejects_large_step():
    p = rf.FlockParams.nearest_neighbor(16, -2.0, -2.0)
    with pytest.raises(rf.RingflockError, match="dt=0.5 outside"):
        rf.integrate(p, np.zeros(16), np.zeros(16), t_end=1.0, dt=0.5)
    with pytest.raises(rf.RingflockError, match="dt=-0.01 outside"):
        rf.integrate(p, np.zeros(16), np.zeros(16), t_end=1.0, dt=-0.01)


def test_integrate_caps_no_step_without_coupling():
    # zero gains give every root nu = 0, so no dt is too large for free flight
    p = rf.FlockParams.nearest_neighbor(8, 0.0, 0.0)
    z0, v0 = np.linspace(-1.0, 1.0, 8), np.linspace(0.5, -0.5, 8)
    traj = rf.integrate(p, z0, v0, t_end=1e3, dt=250.0)
    np.testing.assert_allclose(traj.z[-1], z0 + 1e3 * v0, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(traj.zdot[-1], v0)
    with pytest.raises(rf.RingflockError, match="^dt=inf outside"):
        rf.integrate(p, z0, v0, t_end=1.0, dt=math.inf)


@pytest.mark.parametrize("t_end", [0.0, -1.0, math.inf, math.nan])
def test_integrate_rejects_bad_t_end(t_end):
    p = rf.FlockParams.nearest_neighbor(16, -2.0, -2.0)
    with pytest.raises(rf.RingflockError, match=f"^t_end={t_end} must be positive and finite$"):
        rf.integrate(p, np.zeros(16), np.zeros(16), t_end=t_end, dt=0.01)


@pytest.mark.parametrize("z0,zdot0", [(np.zeros(15), np.zeros(16)),
                                      (np.zeros(16), np.zeros((1, 16)))],
                         ids=["short", "2-d"])
def test_integrate_rejects_bad_shape(z0, zdot0):
    p = rf.FlockParams.nearest_neighbor(16, -2.0, -2.0)
    with pytest.raises(rf.RingflockError, match=r"^initial arrays must have shape \(16,\)$"):
        rf.integrate(p, z0, zdot0, t_end=1.0, dt=0.01)


def test_integrate_detects_divergence():
    # positive position gain blows up; either the finiteness guard fires or
    # the state grows by orders of magnitude over the run
    p = rf.FlockParams.nearest_neighbor(16, 2.0, -0.5)
    z0 = np.zeros(16)
    v0 = np.zeros(16)
    v0[0] = 1e-3
    try:
        traj = rf.integrate(p, z0, v0, t_end=40.0, dt=0.02)
        assert np.abs(traj.z[-1]).max() > 1e3 * np.abs(traj.z[1]).max()
    except rf.RingflockError as exc:
        assert "non-finite state" in str(exc)


def _stage_by_stage_rk4(p, z, v, t_end, dt):
    """The per-step RK4 loop, one stage after another, sampled like integrate."""
    def coupled(rho, x):
        return sum(w * np.roll(x, -j) for j, w in rho.items())  # [k] = x[(k+j) mod n]

    def acc(zz, vv):
        return p.g_x * coupled(p.rho_x, zz) + p.g_v * coupled(p.rho_v, vv)

    steps = max(1, int(round(t_end / dt)))
    stride = max(1, steps // 500)
    times, zs, vs = [0.0], [z], [v]
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
            times.append(step * dt)
            zs.append(z)
            vs.append(v)
    return np.array(times), np.array(zs), np.array(vs)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 10, 200])
def test_integrate_matches_stage_by_stage_rk4(n):
    # integrate steps with a precomputed increment stencil of reach 4; below
    # n = 9 it wraps onto itself around the ring.
    p = rf.FlockParams.nearest_neighbor(n, -1.5, -0.75, -0.3, -0.8, -0.7, -0.2)
    rng = np.random.default_rng(n)
    z0, v0 = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
    traj = rf.integrate(p, z0, v0, t_end=10.0, dt=0.01)
    times, z, v = _stage_by_stage_rk4(p, z0, v0, 10.0, 0.01)
    np.testing.assert_array_equal(traj.times, times)
    assert traj.z.shape == traj.zdot.shape == z.shape == (501, n)
    assert np.abs(traj.z - z).max() <= 1e-13
    assert np.abs(traj.zdot - v).max() <= 1e-13


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_integrate_rejects_non_finite_initial_arrays(bad):
    p = rf.FlockParams.nearest_neighbor(8, -2.0, -1.0)
    z0, v0 = np.zeros(8), np.zeros(8)
    z0[3] = bad
    with pytest.raises(rf.RingflockError, match="initial arrays must be finite"):
        rf.integrate(p, z0, np.zeros(8), t_end=1.0, dt=0.01)
    v0[5] = bad
    with pytest.raises(rf.RingflockError, match="initial arrays must be finite"):
        rf.integrate(p, np.zeros(8), v0, t_end=1.0, dt=0.01)


def test_impulse_fits_symmetric_defaults():
    p = rf.FlockParams.nearest_neighbor(200, -2.0, -2.0)
    traj, front = rf.impulse_experiment(p)
    assert front.predicted_c_plus == pytest.approx(1.0, abs=1e-12)
    assert abs(front.fitted_c_plus - 1.0) < 0.05
    assert abs(front.fitted_c_minus + 1.0) < 0.05
    arr = front.arrival_time
    ks = np.arange(6, 95)
    mirror = np.abs(arr[ks] / arr[200 - ks] - 1.0)
    assert mirror.max() < 0.02


def test_impulse_asymmetric_speeds():
    p = rf.FlockParams.nearest_neighbor(200, -1.0, -1.0, -0.5, 0.0, -0.5, -1.0)
    _, front = rf.impulse_experiment(p)
    assert abs(front.fitted_c_plus / front.predicted_c_plus - 1.0) < 0.10
    assert abs(front.fitted_c_minus / front.predicted_c_minus - 1.0) < 0.10
    assert abs(front.fitted_c_plus) != pytest.approx(abs(front.fitted_c_minus), rel=0.2)


def test_impulse_requires_stability():
    with pytest.raises(rf.RingflockError,
                       match="^operation requires closed-form stable parameters$"):
        rf.impulse_experiment(rf.FlockParams.nearest_neighbor(50, 2.0, -1.0))


def test_impulse_reports_no_arrival_for_short_run():
    p = rf.FlockParams.nearest_neighbor(200, -2.0, -2.0)
    _, front = rf.impulse_experiment(p, t_end=5.0)
    assert np.isnan(front.arrival_time).sum() > 100


@pytest.mark.parametrize("n,g_v,t_end", [
    (200, -2.0, 1e4), (200, -2.0, 3e4), (200, -2.0, 1e308), (200, -1.0, 1e5),
    (16, -2.0, 1e308),
])
def test_impulse_fits_on_long_runs_match_default_window(n, g_v, t_end):
    # Arrivals are measured up to the front time whatever t_end is; frames
    # spread over a longer run would miss the pulse or see the wrapped
    # front first (nan or sign-flipped speeds).
    p = rf.FlockParams.nearest_neighbor(n, -2.0, g_v)
    traj, long_run = rf.impulse_experiment(p, t_end=t_end)
    _, default = rf.impulse_experiment(p)
    assert traj.times[-1] == t_end
    np.testing.assert_array_equal(long_run.arrival_time, default.arrival_time)
    for got, want in ((long_run.fitted_c_plus, default.fitted_c_plus),
                      (long_run.fitted_c_minus, default.fitted_c_minus)):
        assert got == want or (math.isnan(got) and math.isnan(want))
    if n == 200:
        assert abs(long_run.fitted_c_plus / long_run.predicted_c_plus - 1.0) < 0.05
        assert abs(long_run.fitted_c_minus / long_run.predicted_c_minus - 1.0) < 0.05

