import cmath
import math

import numpy as np
import pytest

import ringflock as rf
from ringflock.model import moments
from ringflock.spectral import series_coefficients
from helpers import random_gate_true_params, random_underdamped_params, random_valid_params


def test_lambdas_vanish_at_zero_mode():
    p = rf.FlockParams.nearest_neighbor(10, -2.0, -2.0)
    assert rf.laplacian_eigenvalues(p, 0) == (0j, 0j)


def test_lambda_x_symmetric_is_exactly_real():
    p = rf.FlockParams.nearest_neighbor(10, -2.0, -2.0)
    lx, _ = rf.laplacian_eigenvalues(p, 3)
    assert lx.imag == 0.0
    # at phi = pi the row gives 2 * g_x * rho_x0
    lx_pi, _ = rf.laplacian_eigenvalues(p, 5)
    assert lx_pi == pytest.approx(-4.0, abs=1e-14)


def test_lambda_v_one_sided_example():
    p = rf.FlockParams(n=8, g_x=-2.0, g_v=-1.0,
                       rho_x={-1: -0.5, 0: 1.0, 1: -0.5},
                       rho_v={-1: -1.0, 0: 1.0, 1: 0.0})
    _, lv = rf.laplacian_eigenvalues(p, 2)
    assert lv == pytest.approx(-1.0 - 1.0j, abs=1e-14)


def test_nu_zero_mode_is_double_zero():
    p = rf.FlockParams.nearest_neighbor(12, -2.0, -2.0)
    assert rf.mode_eigenvalues(p, 0) == (0j, 0j)


def test_nu_double_root_at_half_ring():
    # g_x = g_v = -2 puts a real double root nu = -2 at phi = pi
    p = rf.FlockParams.nearest_neighbor(8, -2.0, -2.0)
    plus, minus = rf.mode_eigenvalues(p, 4)
    assert plus == pytest.approx(-2.0, abs=1e-12)
    assert minus == pytest.approx(-2.0, abs=1e-12)


def test_root_residual_small():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = random_valid_params(rng, 17)
        for m in rf.mode_range(p.n):
            if m == 0:
                continue
            lx, lv = rf.laplacian_eigenvalues(p, m)
            for nu in rf.mode_eigenvalues(p, m):
                resid = abs(nu * nu - lv * nu - lx)
                assert resid <= 1e-10 * (1.0 + abs(lv) ** 2 + abs(lx))


def test_conjugate_pairing_and_ring_identification():
    rng = np.random.default_rng(37)
    for _ in range(10):
        p = random_valid_params(rng, 12)
        for m in (1, 2, 5):
            plus, minus = rf.mode_eigenvalues(p, m)
            plus_neg, minus_neg = rf.mode_eigenvalues(p, -m)
            assert abs(plus_neg - minus.conjugate()) <= 1e-12
            assert abs(minus_neg - plus.conjugate()) <= 1e-12
            wrap = rf.mode_eigenvalues(p, m - p.n)
            assert abs(wrap[0] - plus_neg) <= 1e-12 or abs(wrap[0] - plus) <= 1e-12


def test_series_leading_order_symmetric_velocity_row():
    # I_v1 = 0 and a = 1 here, so nu ~ +- i m theta through first order
    p = rf.FlockParams.nearest_neighbor(64, -2.0, -1.0)
    u = p.theta
    plus, minus = rf.mode_eigenvalues_series(p, 1, order=1)
    assert plus == pytest.approx(1j * u, abs=1e-15)
    assert minus == pytest.approx(-1j * u, abs=1e-15)


def test_series_zero_mode():
    p = rf.FlockParams.nearest_neighbor(64, -2.0, -1.0)
    assert rf.mode_eigenvalues_series(p, 0, order=4) == (0j, 0j)


def test_series_second_order_matches_explicit_formula():
    rng = np.random.default_rng(41)
    for _ in range(10):
        p = random_gate_true_params(rng, 128)
        mom = moments(p, 3)
        a = mom.v[1] ** 2 / 4.0 + mom.x[2] / 2.0
        for eps in (+1, -1):
            c = series_coefficients(p, eps, order=2)
            expected1 = 1j * (mom.v[1] / 2.0 + eps * math.sqrt(a))
            expected2 = (-mom.v[2] / 4.0
                         - eps * (mom.v[1] * mom.v[2] / 4.0 + mom.x[3] / 6.0)
                         / (2.0 * math.sqrt(a)))
            assert c[1] == pytest.approx(expected1, rel=1e-13, abs=1e-15)
            assert c[2] == pytest.approx(expected2, rel=1e-12, abs=1e-14)


def test_series_fifth_order_convergence():
    # fit the residual constant at n = 512, then check n = 1024 shrinks ~32x
    rng = np.random.default_rng(43)
    p0 = random_gate_true_params(rng, 512)

    def err(n):
        p = p0.with_n(n)
        ep, em = rf.mode_eigenvalues(p, 1)
        sp, sm = rf.mode_eigenvalues_series(p, 1, order=4)
        return abs(ep - sp) + abs(em - sm)

    e512, e1024 = err(512), err(1024)
    c_fit = e512 / (2.0 * math.pi / 512) ** 5
    assert e1024 <= 1.5 * c_fit * (2.0 * math.pi / 1024) ** 5
    assert 32.0 / 1.5 <= e512 / e1024 <= 32.0 * 1.5


def test_series_rejects_nonpositive_expansion_constant():
    p = rf.FlockParams.nearest_neighbor(64, 2.0, -1.0)  # g_x > 0 makes a < 0
    with pytest.raises(rf.RingflockError, match=r"I_v1\^2/4 \+ I_x2/2 = .* <= 0"):
        rf.mode_eigenvalues_series(p, 1)


def test_series_rejects_asymmetric_position_row():
    p = rf.FlockParams(n=64, g_x=-1.0, g_v=-1.0,
                       rho_x={-1: -0.6, 0: 1.0, 1: -0.4},
                       rho_v={-1: -0.5, 0: 1.0, 1: -0.5})
    with pytest.raises(ValueError):
        rf.mode_eigenvalues_series(p, 1)


def test_eigencurve_closed_with_zero_point():
    p = rf.FlockParams.nearest_neighbor(50, -2.0, -1.0)
    curve = rf.eigencurve(p, 257)
    np.testing.assert_allclose(curve.roots[0], curve.roots[-1], atol=1e-12)
    assert np.abs(curve.roots[0]).max() < 1e-12


def test_eigencurve_rejects_coarse_grid():
    p = rf.FlockParams.nearest_neighbor(50, -2.0, -1.0)
    with pytest.raises(ValueError):
        rf.eigencurve(p, 8)


def test_spectrum_lies_on_eigencurve():
    p = rf.FlockParams.nearest_neighbor(16, -2.0, -1.0)
    curve = rf.eigencurve(p, 16 * 12 + 1)  # grid hits every phi = m * theta
    pts = curve.points()
    for nu in rf.spectrum(p).all_nus():
        assert np.abs(pts - nu).min() < 1e-9


def test_hausdorff_examples():
    assert rf.hausdorff([0, 1 + 1j], [0, 1 + 1j]) == 0.0
    assert rf.hausdorff([0], [3 + 4j]) == pytest.approx(5.0)
    assert rf.hausdorff([0, 1], [0]) == pytest.approx(1.0)
    with pytest.raises(rf.RingflockError, match="hausdorff needs two nonempty sets"):
        rf.hausdorff([], [0])


@pytest.mark.parametrize("sizes", [(1000, 100), (100, 1000), (3, 70000)])
def test_hausdorff_matches_full_distance_matrix(sizes):
    rng = np.random.default_rng(5)
    a, b = (rng.normal(size=k) + 1j * rng.normal(size=k) for k in sizes)
    d = np.abs(a[:, None] - b[None, :])
    want = max(d.min(axis=1).max(), d.min(axis=0).max())
    assert rf.hausdorff(a, b) == want
    assert rf.hausdorff(b, a) == want


def test_spectra_fill_out_eigencurve():
    rng = np.random.default_rng(47)
    p = random_underdamped_params(rng, 100)
    curve = rf.eigencurve(p, 4001)
    d100 = rf.hausdorff(rf.spectrum(p.with_n(100)).all_nus(), curve.points())
    d1000 = rf.hausdorff(rf.spectrum(p.with_n(1000)).all_nus(), curve.points())
    assert d1000 < d100


def test_dense_spectrum_size_guard():
    fake = rf.DenseSystem(m=np.zeros((2, 2)), l_x=np.empty((4096, 0)), l_v=np.empty((4096, 0)))
    with pytest.raises(rf.RingflockError, match="n=4096 exceeds the dense eigensolve cap"):
        rf.dense_spectrum(fake)


def test_dense_spectrum_conjugation_closed():
    rng = np.random.default_rng(53)
    p = random_gate_true_params(rng, 3)
    nus = rf.dense_spectrum(rf.build_dense(p))
    assert nus.size == 6
    assert rf.max_matching_distance(nus, nus.conjugate()) < 1e-10


def test_dense_matches_closed_form():
    rng = np.random.default_rng(59)
    for n in (4, 16):
        for _ in range(5):
            p = random_valid_params(rng, n)
            closed = rf.spectrum(p).all_nus()
            dense = rf.dense_spectrum(rf.build_dense(p))
            assert rf.max_matching_distance(closed, dense) < 1e-9
