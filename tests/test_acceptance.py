"""Acceptance suite: the ten exit criteria, one test per criterion.

Run `pytest tests/test_acceptance.py -v -s` to get one PASS line each.
Draws are seeded, so the suite is deterministic.
"""

import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull
from scipy.spatial.distance import cdist

import ringflock as rf
from helpers import (
    random_asymmetric_x_params,
    random_gate_true_params,
    random_moderate_damping_params,
    random_underdamped_params,
    random_valid_params,
    routh_hurwitz_holds,
)


def _pass(num, text):
    print(f"ACCEPTANCE {num:02d}: PASS - {text}")


def test_criterion_01_dense_oracle_matches_closed_form():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(50):
        p = random_valid_params(rng, 4)
        for n in (4, 16, 64):
            pn = p.with_n(n)
            closed = rf.spectrum(pn).all_nus()
            dense = rf.dense_spectrum(rf.build_dense(pn))
            worst = max(worst, rf.max_matching_distance(closed, dense))
    assert worst < 1e-9
    _pass(1, f"50 draws x n in {{4,16,64}}: worst matched distance {worst:.2e} < 1e-9")


def test_criterion_02_gate_soundness_and_necessity():
    rng = np.random.default_rng(1002)
    draws = []
    for i in range(200):
        kind = i % 4
        if kind in (0, 1):
            draws.append(random_gate_true_params(rng, 8))
        elif kind == 2:
            draws.append(random_asymmetric_x_params(rng, 8))
        else:
            draws.append(random_valid_params(rng, 8))

    gate_true = [p for p in draws if rf.stable_for_all_n(p)]
    assert len(gate_true) >= 50
    for p in gate_true:
        for n in (8, 64, 512):
            assert rf.spectral_verdict(p.with_n(n)).spectral_stable

    necessity = []
    for p in draws:
        mom = rf.moments(p, 1)
        if abs(mom.x[1]) > 0.1 * abs(p.g_x):
            necessity.append(p)
    assert len(necessity) >= 50
    for p in necessity:
        found = rf.instability_witness(p)
        assert found is not None
        assert found.max_real_part > 0.0
    _pass(2, f"{len(gate_true)} gate-true draws stable at n in {{8,64,512}}; "
             f"{len(necessity)} asymmetric draws all yield witnesses")


def test_criterion_03_routh_hurwitz_equals_spectral_verdict():
    rng = np.random.default_rng(1003)
    sizes = (4, 8, 16, 32, 64)
    checked = 0
    for i in range(100):
        n = sizes[i % len(sizes)]
        p = random_valid_params(rng, n) if i % 2 else random_gate_true_params(rng, n)
        nus = rf.dense_spectrum(rf.build_dense(p))
        order = np.argsort(np.abs(nus))
        assert np.abs(nus[order][:2]).max() < 1e-8
        max_re = nus[order][2:].real.max()
        if abs(max_re) <= 1e-10:
            continue  # inside the marginal band, verdicts undefined by contract
        rh_all = routh_hurwitz_holds(p)
        assert rh_all == (max_re < -1e-10)
        checked += 1
    assert checked >= 90
    _pass(3, f"Routh-Hurwitz conjunction == dense verdict on {checked} draws, n <= 64")


def test_criterion_04_series_error_shrinks_fifth_order():
    rng = np.random.default_rng(1004)
    lo, hi = 32.0 / 1.5, 32.0 * 1.5
    for _ in range(20):
        p = random_gate_true_params(rng, 256)
        errs = []
        for n in (256, 512, 1024):
            pn = p.with_n(n)
            _, _, ep, em = rf.eigenvalue_arrays(pn, 1)
            sp, sm = rf.mode_eigenvalues_series(pn, 1, order=4)
            errs.append(abs(ep - sp) + abs(em - sm))
        assert lo <= errs[0] / errs[1] <= hi
        assert lo <= errs[1] / errs[2] <= hi
    _pass(4, "order-4 expansion error shrinks by ~2^5 per doubling, 20 stable draws")


def _diameter(points, rows=512):
    """Largest distance between two hull vertices, a block of rows at a time
    against the vertices from that block on: all pairs at once would take
    about 0.4 GB for the ~10^4 vertices here."""
    xy = np.column_stack([points.real, points.imag])
    hull = xy[ConvexHull(xy).vertices]
    return max(float(cdist(hull[i:i + rows], hull[i:]).max()) for i in range(0, len(hull), rows))


def test_criterion_05_hausdorff_convergence_to_eigencurve():
    rng = np.random.default_rng(1005)
    for _ in range(10):
        p = random_underdamped_params(rng, 100)
        curve = rf.eigencurve(p, 10001).points()
        ds = [rf.hausdorff(rf.spectrum(p.with_n(n)).all_nus(), curve)
              for n in (100, 300, 1000)]
        assert ds[0] > ds[1] > ds[2]
        assert ds[2] < 0.05 * _diameter(curve)
    _pass(5, "d_H(spectrum, curve) decreases over n in {100,300,1000}; "
             "< 5% of curve diameter at n=1000, 10 draws")


def test_criterion_06_velocity_sign_properties_exhaustive():
    rng = np.random.default_rng(1006)
    for _ in range(100):
        p = random_underdamped_params(rng, 500)
        pv = rf.phase_velocities(p)  # an overdamped mode would have speed 0
        assert pv.ms.size == 250
        theta = p.theta
        im_plus = -pv.c_minus * pv.ms * theta
        im_minus = -pv.c_plus * pv.ms * theta
        assert (im_plus * im_minus < 0).all()
        assert (pv.c_plus > 0).all() and (pv.c_minus < 0).all()
    _pass(6, "opposite imaginary signs and velocity signs hold for every mode, "
             "100 stable draws at n=500")


def test_criterion_07_cross_oracle_evolution():
    rng = np.random.default_rng(1007)
    p = random_underdamped_params(rng, 200)
    z0 = rng.uniform(-1, 1, 200)
    v0 = rng.uniform(-1, 1, 200)
    co = rf.modal_decompose(p, z0, v0)

    traj = rf.integrate(p, z0, v0, t_end=10.0, dt=1e-3)
    z_ref, _ = rf.modal_evolve(p, co, traj.times[-1])
    rel = np.abs(traj.z[-1] - z_ref).max() / np.abs(z_ref).max()
    assert rel < 1e-6

    def err(dt):
        t = rf.integrate(p, z0, v0, t_end=5.0, dt=dt)
        z_exact, _ = rf.modal_evolve(p, co, t.times[-1])
        return np.abs(t.z[-1] - z_exact).max()

    ratio = err(0.02) / err(0.01)
    assert 12.0 <= ratio <= 20.0
    _pass(7, f"RK4 vs modal evolution: rel error {rel:.2e} < 1e-6 at t=10, n=200; "
             f"dt-halving ratio {ratio:.1f} in [12, 20]")


def test_criterion_08_signal_velocity_closed_forms():
    for g_x in (-0.5, -1.0, -2.0, -3.0):
        s = rf.signal_velocities(rf.FlockParams.nearest_neighbor(100, g_x, -0.5))
        assert abs(s.c_plus - math.sqrt(-g_x / 2.0)) <= 1e-12
        assert abs(s.c_minus + math.sqrt(-g_x / 2.0)) <= 1e-12

    p = rf.FlockParams.nearest_neighbor(100, -1.0, -1.0, -0.5, 0.0, -0.5, -1.0)
    s = rf.signal_velocities(p)
    cp, cm = rf.signal_velocity_limit(p)
    assert abs(cp / s.c_plus - 1.0) <= 1e-6
    assert abs(cm / s.c_minus - 1.0) <= 1e-6

    rng = np.random.default_rng(1008)
    for _ in range(50):
        q = random_underdamped_params(rng, 64)
        sq = rf.signal_velocities(q)
        gp, gm = rf.group_velocity(q)
        assert abs(gp - sq.c_plus) <= 1e-5 * (1.0 + abs(sq.c_plus))
        assert abs(gm - sq.c_minus) <= 1e-5 * (1.0 + abs(sq.c_minus))
    _pass(8, "signal speeds: symmetric closed form to 1e-12, asymmetric limit "
             "to 1e-6, group velocity to 1e-5 over 50 draws")


def test_criterion_09_traveling_wave_bound():
    params = rf.FlockParams.nearest_neighbor(256, -2.0, -1.0)
    rels = []
    for n in (256, 512, 1024):
        coeffs = rf.power_law_coefficients(n, 2.0, seed=1009)
        rep = rf.verify_wave_bound(params.with_n(n), coeffs, alpha=0.3, beta=0.7,
                                     k_window=2.0, p=2.0)
        assert rep.ts[0] == pytest.approx(n / abs(rep.c_minus))
        assert rep.bound_holds()
        rels.append(rep.measured[0] / rep.signal_sup[0])
    assert rels[0] > rels[1] > rels[2]
    _pass(9, f"traveling-wave error at t=n/|c-| decreases {rels[0]:.3f} > "
             f"{rels[1]:.3f} > {rels[2]:.3f}; unfitted bound dominates at all t")


def test_criterion_10_impulse_reproduction_and_exp_sweep():
    p = rf.FlockParams.nearest_neighbor(200, -2.0, -2.0)
    _, front = rf.impulse_experiment(p)
    assert abs(front.fitted_c_plus - 1.0) < 0.05
    assert abs(front.fitted_c_minus + 1.0) < 0.05

    rng = np.random.default_rng(1010)
    failures = 0
    for i in range(100000):
        if i % 2:
            a, b = rng.uniform(-0.1, 0.1, 2)
        else:
            a = complex(*rng.uniform(-math.sqrt(0.005), math.sqrt(0.005), 2))
            b = complex(*rng.uniform(-math.sqrt(0.005), math.sqrt(0.005), 2))
        if not rf.exp_diff_bound_holds(a, b):
            failures += 1
    assert failures == 0
    _pass(10, f"impulse fronts fitted ({front.fitted_c_plus:+.4f}, "
              f"{front.fitted_c_minus:+.4f}) within 5% of (+1, -1); "
              "exp-difference sweep: 0 failures in 100000 draws")
