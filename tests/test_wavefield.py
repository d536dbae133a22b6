import cmath
import math

import numpy as np
import pytest

import ringflock as rf
from ringflock.spectral import eigenvalue_arrays
from helpers import random_moderate_damping_params, random_underdamped_params

ASYM = dict(g_x=-1.0, g_v=-1.0, rho_x_plus=-0.5, rho_v_plus=0.0,
            rho_x_minus=-0.5, rho_v_minus=-1.0)
# closed form for the one-sided velocity row: 0.5 +- sqrt(3)/2
ASYM_C_PLUS = 1.3660254037844386
ASYM_C_MINUS = -0.3660254037844386


def asym_params(n):
    return rf.FlockParams.nearest_neighbor(n, **ASYM)


def test_phase_velocities_signs_and_limit():
    p = rf.FlockParams.nearest_neighbor(500, -2.0, -1.0)
    pv = rf.phase_velocities(p)
    assert pv.ms[0] == 1 and pv.ms[-1] == 250
    assert (pv.c_plus > 0).all()
    assert (pv.c_minus < 0).all()
    # m -> 0 limit approaches the signal speeds +-1 quadratically
    assert pv.c_plus[0] == pytest.approx(1.0, abs=1e-4)
    assert pv.c_minus[0] == pytest.approx(-1.0, abs=1e-4)


def test_phase_velocities_maximal_at_lowest_mode_near_symmetric_row():
    for rv1 in (-0.5, -0.45):
        p = rf.FlockParams.nearest_neighbor(500, -2.0, -1.0, -0.5, rv1, -0.5, -(1.0 + rv1))
        pv = rf.phase_velocities(p)
        assert pv.c_plus[0] == pytest.approx(pv.c_plus.max())
        assert abs(pv.c_minus[0]) == pytest.approx(np.abs(pv.c_minus).max())


def test_phase_velocities_need_stability():
    with pytest.raises(rf.RingflockError, match="requires closed-form stable parameters"):
        rf.phase_velocities(rf.FlockParams.nearest_neighbor(100, 2.0, -1.0))


def test_phase_velocities_degenerate_half_ring():
    # g_v**2 = -2 g_x puts a real double root at phi = pi of an even ring
    with pytest.raises(rf.DegenerateBranches):
        rf.phase_velocities(rf.FlockParams.nearest_neighbor(200, -2.0, -2.0))


def test_opposite_imaginary_signs_across_modes():
    rng = np.random.default_rng(83)
    for _ in range(10):
        p = random_underdamped_params(rng, 128)
        pv = rf.phase_velocities(p)
        # c_minus comes from Im(nu_plus) > 0 and c_plus from Im(nu_minus) < 0
        theta = p.theta
        im_plus = -pv.c_minus * pv.ms * theta
        im_minus = -pv.c_plus * pv.ms * theta
        assert (im_plus * im_minus < 0).all()


def test_signal_velocities_symmetric_closed_form():
    for g_x in (-0.5, -2.0, -3.0):
        p = rf.FlockParams.nearest_neighbor(100, g_x, -0.5)
        s = rf.signal_velocities(p)
        assert s.c_plus == pytest.approx(math.sqrt(-g_x / 2.0), abs=1e-12)
        assert s.c_minus == pytest.approx(-math.sqrt(-g_x / 2.0), abs=1e-12)
        assert s.a == pytest.approx(-g_x / 2.0, abs=1e-12)


def test_signal_velocities_asymmetric_frozen_values():
    s = rf.signal_velocities(asym_params(100))
    assert s.c_plus == pytest.approx(ASYM_C_PLUS, abs=1e-12)
    assert s.c_minus == pytest.approx(ASYM_C_MINUS, abs=1e-12)


def test_signal_velocities_match_low_mode_extrapolation():
    s = rf.signal_velocities(asym_params(100))
    c_plus, c_minus = rf.signal_velocity_limit(asym_params(100))
    assert c_plus == pytest.approx(s.c_plus, rel=1e-6)
    assert c_minus == pytest.approx(s.c_minus, rel=1e-6)


def test_signal_velocities_invariant_under_normalize():
    # Center weights of 2 and 3 with gains halved and thirded: the products
    # g * rho[j], and with them the speeds, are those of a normalized flock.
    p = rf.FlockParams(n=100, g_x=-1.0, g_v=-0.5,
                       rho_x={-1: -1.0, 0: 2.0, 1: -1.0},
                       rho_v={-1: -2.0, 0: 3.0, 1: -1.0})
    s, q = rf.signal_velocities(p), rf.signal_velocities(rf.normalize(p))
    assert s.c_plus == pytest.approx(q.c_plus, rel=1e-14)
    assert s.c_minus == pytest.approx(q.c_minus, rel=1e-14)
    assert s.a == pytest.approx(q.a, rel=1e-14)


def test_group_velocity_equals_signal_velocity():
    g = rf.group_velocity(rf.FlockParams.nearest_neighbor(100, -2.0, -0.5))
    assert g[0] == pytest.approx(1.0, abs=1e-5)
    assert g[1] == pytest.approx(-1.0, abs=1e-5)
    rng = np.random.default_rng(89)
    for _ in range(10):
        p = random_underdamped_params(rng, 64)
        s = rf.signal_velocities(p)
        gp, gm = rf.group_velocity(p)
        assert abs(gp - s.c_plus) <= 1e-5 * (1.0 + abs(s.c_plus))
        assert abs(gm - s.c_minus) <= 1e-5 * (1.0 + abs(s.c_minus))


def test_modal_decompose_coherent_only():
    p = rf.FlockParams.nearest_neighbor(32, -2.0, -1.0)
    co = rf.modal_decompose(p, np.full(32, 3.5), np.zeros(32))
    assert np.abs(co.a).max() < 1e-14
    assert np.abs(co.b).max() < 1e-14
    assert co.coherent == pytest.approx((3.5, 0.0))


def test_modal_decompose_single_leftward_mode():
    p = rf.FlockParams.nearest_neighbor(64, -2.0, -1.0)
    ks = np.arange(64)
    nu_plus, _ = rf.mode_eigenvalues(p, 1)
    z0 = 2.0 * np.cos(p.theta * ks)
    zdot0 = np.real(nu_plus * 2.0 * np.exp(1j * p.theta * ks))
    co = rf.modal_decompose(p, z0, zdot0)
    assert set(np.flatnonzero(np.abs(co.a) > 1e-12)) == {1}
    assert set(np.flatnonzero(np.abs(co.b) > 1e-12)) == {63}
    assert co.b[63] == pytest.approx(co.a[1].conjugate(), abs=1e-12)


def test_modal_roundtrip_and_conjugate_links():
    rng = np.random.default_rng(97)
    p = random_underdamped_params(rng, 64)
    z0 = rng.uniform(-1, 1, 64)
    v0 = rng.uniform(-1, 1, 64)
    co = rf.modal_decompose(p, z0, v0)
    ms = rf.fft_modes(64)
    for m in range(1, 32):
        f_pos = int(np.flatnonzero(ms == m)[0])
        f_neg = int(np.flatnonzero(ms == -m)[0])
        assert co.a[f_neg] == pytest.approx(co.b[f_pos].conjugate(), abs=1e-12)
    z, v = rf.modal_evolve(p, co, 0.0)
    assert np.abs(z - z0).max() <= 1e-10 * max(1.0, np.abs(z0).max())
    assert np.abs(v - v0).max() <= 1e-10 * max(1.0, np.abs(v0).max())


def test_modal_decompose_degenerate_mode():
    p = rf.FlockParams.nearest_neighbor(8, -2.0, -2.0)  # double root at m = 4
    with pytest.raises(rf.RingflockError, match="mode m=4 has coincident branches"):
        rf.modal_decompose(p, np.zeros(8), np.ones(8))


def test_modal_evolve_coherent_drift():
    p = rf.FlockParams.nearest_neighbor(16, -2.0, -1.0)
    co = rf.ModalCoefficients(n=16, a=np.zeros(16, complex), b=np.zeros(16, complex),
                              coherent=(1.25, -0.5))
    z, v = rf.modal_evolve(p, co, 5.0)
    np.testing.assert_allclose(z, 1.25 - 2.5, atol=1e-12)
    np.testing.assert_allclose(v, -0.5, atol=1e-12)


def test_modal_evolve_batched_rows_match_scalar_calls():
    rng = np.random.default_rng(98)
    p = random_underdamped_params(rng, 64)
    co = rf.modal_decompose(p, rng.uniform(-1, 1, 64), rng.uniform(-1, 1, 64))
    ts = np.array([0.0, 0.3, 2.5, 17.0])
    zs, vs = rf.modal_evolve(p, co, ts)
    assert zs.shape == vs.shape == (4, 64)
    for i, t in enumerate(ts):
        z, v = rf.modal_evolve(p, co, t)
        assert z.shape == (64,)
        assert np.abs(zs[i] - z).max() <= 1e-12
        assert np.abs(vs[i] - v).max() <= 1e-12


def _two_exponential_sum(p, co, t):
    """Reference modal evolution: each mode as a exp(nu_+ t) + b exp(nu_- t)."""
    _, _, plus, minus, _ = eigenvalue_arrays(p, rf.fft_modes(p.n))
    t = np.asarray(t, dtype=float)[..., None]
    ea, eb = co.a * np.exp(plus * t), co.b * np.exp(minus * t)
    w, wd = ea + eb, plus * ea + minus * eb
    w[..., 0] = co.coherent[0] + co.coherent[1] * t[..., 0]
    wd[..., 0] = co.coherent[1]
    return (p.n * np.fft.ifft(w)).real, (p.n * np.fft.ifft(wd)).real


def test_modal_evolve_matches_two_exponential_sum():
    rng = np.random.default_rng(99)
    for p in (random_underdamped_params(rng, 64), random_moderate_damping_params(rng, 64)):
        co = rf.modal_decompose(p, rng.uniform(-1, 1, 64), rng.uniform(-1, 1, 64))
        co = rf.ModalCoefficients(n=64, a=co.a, b=co.b, coherent=(0.4, -0.2))
        for t in (0.0, 1.7, np.array([0.0, 0.5, 3.0, 40.0])):
            z, v = rf.modal_evolve(p, co, t)
            z_ref, v_ref = _two_exponential_sum(p, co, t)
            assert z.shape == v.shape == z_ref.shape
            assert np.abs(z - z_ref).max() <= 1e-12
            assert np.abs(v - v_ref).max() <= 1e-12


def test_evolve_overdamped_long_run_is_the_coherent_drift():
    # g_v = -50 overdamps the high modes: their two roots are about -0.04
    # and -100 at m = 1, so a cosh/sinh form would overflow long before t = 1e6.
    rng = np.random.default_rng(100)
    p = rf.FlockParams.nearest_neighbor(32, -2.0, -50.0)
    z0, v0 = rng.uniform(-1, 1, 32), rng.uniform(-1, 1, 32)
    z, v = rf.evolve(p, z0, v0, 1e6)
    assert np.isfinite(z).all() and np.isfinite(v).all()
    drift = z0.mean() + 1e6 * v0.mean()
    assert np.abs(z - drift).max() <= 1e-12 * abs(drift)
    assert np.abs(v - v0.mean()).max() <= 1e-12


def test_evolve_rejects_overflowing_state():
    p = rf.FlockParams.nearest_neighbor(16, -2.0, -1.0)
    v0 = np.zeros(16)
    v0[0] = 1e300
    with pytest.raises(rf.RingflockError, match="the evolved state is not finite"):
        rf.evolve(p, np.zeros(16), v0, np.array([0.0, 1e300]))


def test_signal_velocities_keep_the_small_root():
    # A strong one-sided velocity row makes -I_v1/2 + sqrt(a) cancel to 0;
    # the product c_+ c_- = -I_x2/2 still fixes the small speed.
    p = rf.FlockParams(n=16, g_x=-1.0, g_v=-44739243.0, rho_x={-1: -1.0, 0: 2.0, 1: -1.0},
                       rho_v={-1: -2.0, 0: 1.0, 1: 1.0})
    sigs = rf.signal_velocities(rf.normalize(p))
    assert sigs.c_minus < 0.0 < sigs.c_plus
    mom = rf.moments(rf.normalize(p), 2)
    assert sigs.c_plus * sigs.c_minus == pytest.approx(-mom.x[2] / 2.0, rel=1e-12)
    assert sigs.c_plus + sigs.c_minus == pytest.approx(-mom.v[1], rel=1e-12)


def test_power_law_coefficients_real_and_nested():
    for n in (128, 256):
        co = rf.power_law_coefficients(n, 2.0, seed=5)
        p = rf.FlockParams.nearest_neighbor(n, -2.0, -1.0)
        z, v = rf.modal_evolve(p, co, 0.0)  # raises if the field is not real
        assert np.isfinite(z).all() and np.isfinite(v).all()
    small = rf.power_law_coefficients(128, 2.0, seed=5)
    large = rf.power_law_coefficients(256, 2.0, seed=5)
    for m in range(1, 60):
        assert large.a[m] == small.a[m]
        assert large.b[m] == small.b[m]


def test_wave_approximation_rightward_profile_empty_for_leftward_wave():
    p = rf.FlockParams.nearest_neighbor(64, -2.0, -1.0)
    ks = np.arange(64)
    nu_plus, _ = rf.mode_eigenvalues(p, 1)
    co = rf.modal_decompose(p, 2.0 * np.cos(p.theta * ks),
                            np.real(nu_plus * 2.0 * np.exp(1j * p.theta * ks)))
    wa = rf.wave_approximation(p, co, 0.3, 0.7, 2.0, 2.0)
    assert np.abs(wa.f_plus_coeffs).max() < 1e-14
    assert np.abs(wa.f_minus_coeffs).max() > 0.5


def test_wave_approximation_damping_band_ordering():
    p = rf.FlockParams.nearest_neighbor(512, -2.0, -1.0)
    co = rf.power_law_coefficients(512, 2.0, seed=2)
    wa = rf.wave_approximation(p, co, 0.3, 0.7, 2.0, 2.0)
    assert 0.0 <= wa.damping_mid <= wa.damping_high
    assert wa.m_bound == pytest.approx(1.0, rel=1e-12)


def test_wave_approximation_rejects_bad_exponents():
    p = rf.FlockParams.nearest_neighbor(128, -2.0, -1.0)
    co = rf.power_law_coefficients(128, 2.0, seed=2)
    for args in ((0.7, 0.3, 2.0, 2.0), (0.3, 0.7, 0.5, 2.0), (0.3, 0.7, 2.0, 1.0)):
        with pytest.raises(rf.RingflockError, match="need 0 < alpha < beta < 1"):
            rf.wave_approximation(p, co, *args)


def test_wave_approximation_rejects_zero_coefficients():
    p = rf.FlockParams.nearest_neighbor(128, -2.0, -1.0)
    empty = rf.ModalCoefficients(n=128, a=np.zeros(128, complex),
                                 b=np.zeros(128, complex), coherent=(0.0, 0.0))
    with pytest.raises(rf.RingflockError, match="all modal coefficients vanish"):
        rf.wave_approximation(p, empty, 0.3, 0.7, 2.0, 2.0)


def test_modal_calls_reject_data_of_another_ring():
    p = rf.FlockParams.nearest_neighbor(128, -2.0, -1.0)
    co = rf.power_law_coefficients(256, 2.0, seed=2)
    for call in (lambda: rf.modal_evolve(p, co, 1.0),
                 lambda: rf.wave_approximation(p, co, 0.3, 0.7, 2.0, 2.0),
                 lambda: rf.verify_wave_bound(p, co, 0.3, 0.7, 2.0, 2.0)):
        with pytest.raises(ValueError, match="modal data for n=256 on a ring of n=128"):
            call()


def test_verify_wave_bound_empty_window():
    # very unequal speeds leave no common observation window at K = 2
    p = asym_params(128)
    co = rf.power_law_coefficients(128, 2.0, seed=3)
    with pytest.raises(rf.RingflockError, match="do not intersect"):
        rf.verify_wave_bound(p, co, 0.3, 0.7, 2.0, 2.0)


def test_verify_wave_bound_bound_and_decay():
    params = rf.FlockParams.nearest_neighbor(128, -2.0, -1.0)
    d_const = None
    rels = []
    for n in (128, 256):
        co = rf.power_law_coefficients(n, 2.0, seed=12)
        rep = rf.verify_wave_bound(params.with_n(n), co, 0.3, 0.7, 2.0, 2.0,
                                     d_const=d_const)
        if d_const is None:
            d_const = rep.d_const
        assert rep.bound_holds()
        rels.append(rep.measured[0] / rep.signal_sup[0])
    assert rels[1] < rels[0]


def test_verify_wave_bound_matches_direct_profile_sum():
    # reference: each profile summed directly, sum_m c_m exp(i theta m (k - c t))
    n = 128
    p = rf.FlockParams.nearest_neighbor(n, -2.0, -1.0)
    co = rf.power_law_coefficients(n, 2.0, seed=4)
    rep = rf.verify_wave_bound(p, co, 0.3, 0.7, 2.0, 2.0)
    wa = rep.approximation
    ks = np.arange(n)

    def profile(coeffs, x):
        return coeffs @ np.exp(1j * wa.theta * np.outer(wa.modes, x))

    assert len(rep.ts) == 7
    for i, t in enumerate(rep.ts):
        z, _ = rf.modal_evolve(p, co, t)
        approx = profile(wa.f_minus_coeffs, ks - wa.c_minus * t) + \
            profile(wa.f_plus_coeffs, ks - wa.c_plus * t)
        assert abs(rep.measured[i] - np.abs(z - approx).max()) <= 1e-12
        assert abs(rep.signal_sup[i] - np.abs(z).max()) <= 1e-12


def test_exp_diff_bound_examples():
    assert rf.exp_diff_bound_holds(0.0, 0.0)
    assert rf.exp_diff_bound_holds(0.05, -0.05)
    assert abs(cmath.exp(0.05) - cmath.exp(-0.05)) == pytest.approx(0.10004, abs=1e-5)


def test_exp_diff_bound_sweep():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        if rng.uniform() < 0.5:
            a, b = rng.uniform(-0.1, 0.1, 2)
        else:
            a = complex(*rng.uniform(-0.07, 0.07, 2))
            b = complex(*rng.uniform(-0.07, 0.07, 2))
        assert rf.exp_diff_bound_holds(a, b)


def test_high_modes_die_before_crossing_time():
    rng = np.random.default_rng(103)
    n = 512
    for _ in range(5):
        p = random_moderate_damping_params(rng, n)
        s = rf.signal_velocities(p)
        spec = rf.spectrum(p)
        high = np.abs(spec.ms) >= n ** 0.55
        t_cross = n / s.c_plus
        worst = max(np.exp(spec.nu_plus.real[high] * t_cross).max(),
                    np.exp(spec.nu_minus.real[high] * t_cross).max())
        assert worst < 1e-3
