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
    with pytest.raises(rf.RingflockError, match="impulse experiment needs gate-stable parameters"):
        rf.impulse_experiment(rf.FlockParams.nearest_neighbor(50, 2.0, -1.0))


def test_impulse_reports_no_arrival_for_short_run():
    p = rf.FlockParams.nearest_neighbor(200, -2.0, -2.0)
    _, front = rf.impulse_experiment(p, t_end=5.0)
    assert len(front.no_arrival) > 100
    assert all(np.isnan(front.arrival_time[k]) for k in front.no_arrival)


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
    assert long_run.no_arrival == default.no_arrival
    for got, want in ((long_run.fitted_c_plus, default.fitted_c_plus),
                      (long_run.fitted_c_minus, default.fitted_c_minus)):
        assert got == want or (math.isnan(got) and math.isnan(want))
    if n == 200:
        assert abs(long_run.fitted_c_plus / long_run.predicted_c_plus - 1.0) < 0.05
        assert abs(long_run.fitted_c_minus / long_run.predicted_c_minus - 1.0) < 0.05


def test_positions_fan_for_quiet_flock():
    p = rf.FlockParams.nearest_neighbor(8, -2.0, -1.0)
    traj = rf.integrate(p, np.zeros(8), np.zeros(8), t_end=1.0, dt=0.01)
    x = rf.positions(traj, delta=2.0, v_nominal=3.0)
    expect = np.arange(8)[None, :] * 2.0 + 3.0 * traj.times[:, None]
    np.testing.assert_allclose(x, expect, atol=1e-12)
    with pytest.raises(ValueError):
        rf.positions(traj, delta=0.0)


def _steepest_front(speed_row, lo, hi):
    """Center of the leading pulse in the color field: the wavefront pulse is
    flanked by the two steepest-gradient ridges (rising and falling edge),
    and the front line runs midway between them."""
    grad = np.diff(speed_row[lo:hi])
    k_rise = lo + int(np.argmax(grad)) + 0.5
    k_fall = lo + int(np.argmin(grad)) + 0.5
    return 0.5 * (k_rise + k_fall)


def test_front_overlay_tracks_steepest_gradient_pulse():
    p = rf.FlockParams.nearest_neighbor(200, -2.0, -2.0)
    traj, front = rf.impulse_experiment(p)
    delta = 1.0
    fp, fm = rf.front_overlay(traj, front.predicted_c_plus, front.predicted_c_minus, delta)
    x = rf.positions(traj, delta)
    checked = 0
    for frac in np.linspace(0.1, 0.7, 10):
        i = int(frac * (traj.times.size - 1))
        if not np.isfinite(fp[i]):
            continue
        k_front = _steepest_front(np.abs(traj.zdot[i]), 2, 98)
        x_front = np.interp(k_front, np.arange(200), x[i])
        assert abs(fp[i] - x_front) <= 1.0 * delta
        checked += 1
    assert checked >= 8


def test_front_overlay_curves_are_not_straight():
    # orbit-space front curves bend because the agents themselves move
    p = rf.FlockParams.nearest_neighbor(200, -2.0, -2.0)
    traj, front = rf.impulse_experiment(p, v_impulse=5.0)
    fp, _ = rf.front_overlay(traj, front.predicted_c_plus, front.predicted_c_minus, 1.0)
    good = np.isfinite(fp)
    t = traj.times[good]
    vals = fp[good]
    coeffs = np.polyfit(t, vals, 1)
    resid = np.abs(vals - np.polyval(coeffs, t)).max()
    assert resid > 1e-3


def test_impulse_experiment_rejects_bad_impulse():
    p = rf.FlockParams.nearest_neighbor(16, -2.0, -1.0)
    for v in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="v_impulse"):
            rf.impulse_experiment(p, v_impulse=v, t_end=1.0)
