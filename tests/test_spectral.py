import cmath
import itertools
import math
import re

import numpy as np
import pytest

import ringflock as rf
from ringflock import spectral
from ringflock.model import moments
from ringflock.spectral import series_coefficients
from helpers import (
    random_asymmetric_x_params,
    random_gate_true_params,
    random_underdamped_params,
    random_valid_params,
    traced_peak,
)


def test_lambdas_vanish_at_zero_mode():
    p = rf.FlockParams.nearest_neighbor(10, -2.0, -2.0)
    lx, lv, _, _ = rf.eigenvalue_arrays(p, 0)
    assert (lx, lv) == (0j, 0j)


@pytest.mark.parametrize("query", [rf.eigenvalue_arrays, rf.routh_hurwitz])
@pytest.mark.parametrize("ms, message", [
    (2.5, "modes must be integers, got 2.5"),
    (np.array([1.0, 2.0]), "modes must be integers, got 1.0"),
    (True, "modes must be integers, got True"),
    (10**20, "modes must lie within int64, got 100000000000000000000"),
    ([1, -2**63 - 1], "modes must lie within int64, got -9223372036854775809"),
    (np.array([1, 2**63], dtype=np.uint64), "modes must lie within int64, got 9223372036854775808"),
])
def test_mode_queries_reject_non_integer_and_int64_overflow(query, ms, message):
    p = rf.FlockParams.nearest_neighbor(10, -2.0, -2.0)
    with pytest.raises(rf.RingflockError, match=f"^{message}$"):
        query(p, ms)


def test_mode_queries_accept_every_integer_type():
    p = rf.FlockParams.nearest_neighbor(10, -2.0, -2.0)
    edge = np.array([1, 6, 2**63 - 1])
    want = rf.eigenvalue_arrays(p, edge)
    for ms in (edge.tolist(), edge.astype(np.uint64), [np.int8(1), np.int32(6), 2**63 - 1]):
        for a, b in zip(rf.eigenvalue_arrays(p, ms), want):
            assert np.array_equal(a, b)
    assert rf.routh_hurwitz(p, np.array([1, 6, 2**63 - 1], dtype=np.uint64))[0].tolist() == [True] * 3
    assert all(a.shape == (0,) for a in rf.eigenvalue_arrays(p, []))


def test_lambda_x_symmetric_is_exactly_real():
    p = rf.FlockParams.nearest_neighbor(10, -2.0, -2.0)
    lx, _, _, _ = rf.eigenvalue_arrays(p, 3)
    assert lx.imag == 0.0
    # at phi = pi the row gives 2 * g_x * rho_x0
    lx_pi, _, _, _ = rf.eigenvalue_arrays(p, 5)
    assert lx_pi == pytest.approx(-4.0, abs=1e-14)


def test_lambda_v_one_sided_example():
    p = rf.FlockParams(n=8, g_x=-2.0, g_v=-1.0,
                       rho_x={-1: -0.5, 0: 1.0, 1: -0.5},
                       rho_v={-1: -1.0, 0: 1.0, 1: 0.0})
    _, lv, _, _ = rf.eigenvalue_arrays(p, 2)
    assert lv == pytest.approx(-1.0 - 1.0j, abs=1e-14)


def test_nu_zero_mode_is_double_zero():
    p = rf.FlockParams.nearest_neighbor(12, -2.0, -2.0)
    _, _, plus, minus = rf.eigenvalue_arrays(p, 0)
    assert (plus, minus) == (0j, 0j)


def test_nu_double_root_at_half_ring():
    # g_x = g_v = -2 puts a real double root nu = -2 at phi = pi
    p = rf.FlockParams.nearest_neighbor(8, -2.0, -2.0)
    _, _, plus, minus = rf.eigenvalue_arrays(p, 4)
    assert plus == pytest.approx(-2.0, abs=1e-12)
    assert minus == pytest.approx(-2.0, abs=1e-12)


def test_half_ring_symbols_are_exactly_real():
    # an asymmetric velocity row has d * sin(pi) = -0.6 * 1.2e-16 in its
    # imaginary part, whose sqrt split the double root -2 by 1.2e-8
    p = rf.FlockParams.nearest_neighbor(4, -2.0, -2.0, rho_v_plus=-0.8, rho_v_minus=-0.2)
    for m in (2, -2, 6, -10):
        lx, lv, plus, minus = rf.eigenvalue_arrays(p, m)
        assert (lx, lv) == (-4.0, -4.0) and lx.imag == lv.imag == 0.0
        assert plus == minus == -2.0
    _, lv, _, _ = rf.eigenvalue_arrays(p, 1)
    assert lv.imag != 0.0


def test_root_residual_small():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = random_valid_params(rng, 17)
        for m in rf.mode_range(p.n):
            if m == 0:
                continue
            lx, lv, plus, minus = rf.eigenvalue_arrays(p, m)
            for nu in (plus, minus):
                resid = abs(nu * nu - lv * nu - lx)
                assert resid <= 1e-10 * (1.0 + abs(lv) ** 2 + abs(lx))


def _mirror(z, keep):
    """z with its imaginary part 0.0 - imag, except where keep."""
    z = np.array(z)
    z.imag = np.where(keep, z.imag, 0.0 - z.imag)
    return z


def test_conjugate_pairing_and_ring_identification():
    rng = np.random.default_rng(37)
    kinds = (random_valid_params, random_gate_true_params, random_underdamped_params,
             random_asymmetric_x_params)
    draws = [kind(rng, n) for n in (12, 13) for kind in kinds for _ in range(3)]
    # two real roots at most modes, the "+" one with imaginary part -0.0
    draws += [rf.FlockParams.nearest_neighbor(n, -2.0, -20.0) for n in (12, 13)]
    for p in draws:
        # Bit for bit, mode -m has each real symbol of mode m and the mirror
        # image of the others.  Where both are real its roots are those of m;
        # else they are mirrored and swap labels unless their imaginary parts
        # tie.
        ms = np.arange(1, (p.n - 1) // 2 + 1)
        lx, lv, plus, minus = rf.eigenvalue_arrays(p, ms)
        same = (lx.imag == 0.0) & (lv.imag == 0.0)
        keep = same | (plus.imag == minus.imag)
        want = (_mirror(lx, lx.imag == 0.0), _mirror(lv, lv.imag == 0.0),
                _mirror(np.where(keep, plus, minus), same),
                _mirror(np.where(keep, minus, plus), same))
        got = rf.eigenvalue_arrays(p, -ms)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], p
        for m in (1, 2, 5):
            _, _, wrap, _ = rf.eigenvalue_arrays(p, m - p.n)
            assert abs(wrap - got[2][m - 1]) <= 1e-12 or abs(wrap - plus[m - 1]) <= 1e-12
        # An int mode is a 0-d row of the spectrum, bit for bit, and every
        # multiple of n is the coherent zero.
        for q in (p, p.with_n(13)):
            sp = rf.spectrum(q)
            rows = np.column_stack([sp.lambda_x, sp.lambda_v, sp.nu_plus, sp.nu_minus])
            for m, row in zip(sp.ms, rows):
                one = rf.eigenvalue_arrays(q, int(m))
                assert [a.shape for a in one] == [()] * 4
                assert np.array(one).tobytes() == row.tobytes()
            for m in (q.n, -q.n, 2 * q.n):
                assert np.array(rf.eigenvalue_arrays(q, m)).tobytes() == bytes(4 * 16)


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
        for c, eps in zip(series_coefficients(p, order=2), (+1, -1)):
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
        _, _, ep, em = rf.eigenvalue_arrays(p, 1)
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


@pytest.mark.parametrize("order", [0, -1, 2.5])
def test_series_rejects_order_that_is_not_a_positive_int(order):
    p = rf.FlockParams.nearest_neighbor(64, -2.0, -1.0)
    with pytest.raises(rf.RingflockError, match="order must be an int"):
        series_coefficients(p, order=order)
    for m in (0, 1):
        with pytest.raises(rf.RingflockError, match="order must be an int"):
            rf.mode_eigenvalues_series(p, m, order=order)


@pytest.mark.parametrize("m, message", [
    (2.5, "modes must be integers, got 2.5"),
    (True, "modes must be integers, got True"),
    (10**20, "modes must lie within int64, got 100000000000000000000"),  # a multiple of n
])
def test_series_rejects_mode_that_is_not_an_int64(m, message):
    p = rf.FlockParams.nearest_neighbor(64, -2.0, -1.0)
    for call in (rf.mode_eigenvalues_series, rf.eigenvalue_arrays):
        with pytest.raises(rf.RingflockError, match=f"^{re.escape(message)}$"):
            call(p, m)


def test_series_rejects_an_array_of_modes():
    p = rf.FlockParams.nearest_neighbor(64, -2.0, -1.0)
    for ms, shape in (([1, 2], "(2,)"), ([3], "(1,)")):
        message = f"m must be one mode, got an array of shape {shape}"
        with pytest.raises(rf.RingflockError, match=f"^{re.escape(message)}$"):
            rf.mode_eigenvalues_series(p, ms)


@pytest.mark.parametrize("s", [1.0, 2.0 ** 20, 2.0 ** -20, 2.0 ** 40, 2.0 ** -40],
                         ids=["1", "2^20", "2^-20", "2^40", "2^-40"])
def test_series_rejects_asymmetric_position_row(s):
    # t -> t / s scales g_x by s**2 and I_x1 with it; the verdict has no unit of time
    p = rf.FlockParams(n=64, g_x=-s * s, g_v=-s,
                       rho_x={-1: -0.6, 0: 1.0, 1: -0.4},
                       rho_v={-1: -0.5, 0: 1.0, 1: -0.5})
    with pytest.raises(rf.RingflockError, match=r"^expansion requires I_x1 = 0"):
        rf.mode_eigenvalues_series(p, 1)


# The one-sided velocity row of the stiff flock and the cancelling flock makes
# -I_v1/2 + sqrt(a) cancel: partly in the first, to exactly 0 in the second.
STIFF = rf.FlockParams.nearest_neighbor(128, -1.0, -1e4, -0.5, -0.2, -0.5, -0.8)
CANCELLING = rf.FlockParams(n=4096, g_x=-1.0, g_v=-44739243.0,
                            rho_x={-1: -1.0, 0: 2.0, 1: -1.0},
                            rho_v={-1: -2.0, 0: 1.0, 1: 1.0})


def test_series_starts_from_the_signal_speeds():
    rng = np.random.default_rng(47)
    for p in [random_gate_true_params(rng, 64) for _ in range(200)] + [STIFF, CANCELLING]:
        sigs = rf.signal_velocities(p)
        c1 = series_coefficients(p, order=4)[:, 1]
        assert not c1.real.any()
        assert c1.imag.tolist() == [-sigs.c_minus, -sigs.c_plus]


def test_series_keeps_the_small_root():
    _, _, plus, minus = rf.eigenvalue_arrays(CANCELLING, 1)
    sp, sm = rf.mode_eigenvalues_series(CANCELLING, 1, 4)
    assert abs(sp - plus) <= 1e-9 * abs(plus)
    assert abs(sm - minus) <= 1e-9 * abs(minus)


def test_series_refuses_overflowing_gains():
    # The higher orders overflow float64; no numpy warning escapes (the
    # suite turns warnings into errors) and no NaN is returned.
    p = rf.FlockParams.nearest_neighbor(64, -2.0, -1e150)
    assert rf.signal_velocities(p).c_plus == 1.0
    with pytest.raises(rf.RingflockError,
                       match="^series coefficients are not finite; the gains overflow float64$"):
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
    with pytest.raises(rf.RingflockError, match="hausdorff needs finite points"):
        rf.hausdorff([0], [complex("nan")])


@pytest.mark.parametrize("sizes", [(1000, 100), (100, 1000), (3, 70000)])
def test_hausdorff_matches_full_distance_matrix(sizes):
    rng = np.random.default_rng(5)
    a, b = (rng.normal(size=k) + 1j * rng.normal(size=k) for k in sizes)
    d = np.abs(a[:, None] - b[None, :])
    want = max(d.min(axis=1).max(), d.min(axis=0).max())
    assert rf.hausdorff(a, b) == want
    assert rf.hausdorff(b, a) == want


def _hausdorff_by_rows(a, b):
    """The full distance matrix, 256 rows at a time: the reference."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    a_to_b, b_to_a = 0.0, np.full(b.size, np.inf)
    for i in range(0, a.size, 256):
        d = np.abs(a[i:i + 256, None] - b[None, :])
        a_to_b = max(a_to_b, d.min(axis=1).max())
        b_to_a = np.minimum(b_to_a, d.min(axis=0))
    return max(a_to_b, b_to_a.max())


def test_hausdorff_matches_full_distance_matrix_on_spectra():
    rng = np.random.default_rng(59)
    p = random_underdamped_params(rng, 1000)
    nus = rf.spectrum(p).all_nus()
    curve = rf.eigencurve(p, 4001).points()
    want = _hausdorff_by_rows(nus, curve)
    assert rf.hausdorff(nus, curve) == want
    assert rf.hausdorff(curve, nus) == want


@pytest.mark.parametrize("pairs", [64, 4096, spectral._PAIRS])
def test_hausdorff_is_exact_for_any_pair_block(monkeypatch, pairs):
    # A strongly overdamped flock crowds the real axis, so query blocks are
    # cut short inside each 4096-query lookup; 6000 queries take two lookups.
    monkeypatch.setattr(spectral, "_PAIRS", pairs)
    p = rf.FlockParams.nearest_neighbor(3000, -2.0, -20.0)
    nus, curve = rf.spectrum(p).all_nus(), rf.eigencurve(p, 512).points()
    want = _hausdorff_by_rows(nus, curve)
    assert rf.hausdorff(nus, curve) == rf.hausdorff(curve, nus) == want


def test_hausdorff_exact_on_tied_neighbours():
    # 85 = 9^2 + 2^2 = 7^2 + 6^2, yet np.abs can put 9+2j one ulp above
    # 7+6j (numpy's AVX-512 loop does), so a search that ranked neighbours
    # by any other rounding of the distance could return either.  Only the
    # point 0 is far from b.
    b = np.array([9 + 2j, 2 + 9j, 7 + 6j, 6 + 7j])
    a = np.concatenate([[0j], b + 1])
    assert rf.hausdorff(a, b) == rf.hausdorff(b, a) == _hausdorff_by_rows(a, b)
    rng = np.random.default_rng(61)
    for _ in range(20):
        a, b = (rng.integers(-30, 30, k) + 1j * rng.integers(-30, 30, k) for k in (400, 40))
        want = _hausdorff_by_rows(a, b)
        assert rf.hausdorff(a, b) == rf.hausdorff(b, a) == want


def test_hausdorff_matches_full_distance_matrix_at_extreme_scales():
    rng = np.random.default_rng(67)

    def normal(k, scale=1.0):
        return (rng.normal(size=k) + 1j * rng.normal(size=k)) * scale

    def integer_grid(k, step):
        return (rng.integers(-30, 30, k) + 1j * rng.integers(-30, 30, k)) * step

    cases = [
        (normal(300, 1e300), normal(50, 1e300)),
        ([-1e308, 1e308], [-1e308 + 1j, 1e308]),
        (integer_grid(400, 1e-310), integer_grid(40, 1e-310)),
        (normal(100), np.full(50, 0.3 - 2j)),
        (2 + 1j * rng.normal(size=200), 2.5 + 1j * rng.normal(size=30)),
        (rng.normal(size=200) + 0j, rng.normal(size=30) + 0.1j),
        (np.concatenate([1e6 + normal(300, 1e-3), -1e6j + normal(300, 1e-3)]),
         np.concatenate([1e6 + normal(300, 1e-3), 7e5 + normal(3, 1e-3)])),
        (np.append(normal(100, 1e-12), [0.5, 1 + 1j]), np.append(normal(30000, 1e-12), 1 + 1j)),
        ([1 + 2j], [-3 + 0.5j]),
        (1e8 + 1e8j + normal(300, 1e-8), 1e8 + 1e8j + normal(30, 1e-8)),
    ]
    for a, b in cases:
        with np.errstate(over="ignore"):  # [-1e308, 1e308] has pairs farther apart than 1.8e308
            want = _hausdorff_by_rows(a, b)
        assert rf.hausdorff(a, b) == rf.hausdorff(b, a) == want
    assert rf.hausdorff(*cases[1]) == 1.0
    assert rf.hausdorff(*cases[2]) > 0.0


def test_hausdorff_of_default_flock_at_large_n():
    # 4.8 MiB of scratch while the grid sorted a copy of its ids and built
    # each distance block from two temporaries
    p = rf.FlockParams.nearest_neighbor(50000, -2.0, -2.0)
    nus, curve = rf.spectrum(p).all_nus(), rf.eigencurve(p, 4096).points()
    d, peak = traced_peak(rf.hausdorff, nus, curve)
    assert d == 0.00076717767437023215
    assert peak < 4.4 * 2**20


def test_hausdorff_scratch_memory_is_bounded():
    # 2.8 MB when the search measured 2**17 pairs at once
    p = rf.FlockParams.nearest_neighbor(200, -2.0, -2.0)
    nus, curve = rf.spectrum(p).all_nus(), rf.eigencurve(p, 4096).points()
    d, peak = traced_peak(rf.hausdorff, nus, curve)
    assert d == 0.015688622925910674
    assert peak < 2.25 * 2**20


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


def test_max_matching_distance_is_the_bottleneck_of_every_pairing():
    # Points on a 0.1 grid tie often; on 49 of these draws the bottleneck
    # lies above the Hausdorff bound, so the threshold search runs.
    rng = np.random.default_rng(71)
    for k in range(300):
        n = int(rng.integers(1, 7))
        a = np.round(rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n), 1)
        if k % 3 == 0:
            b = rng.permutation(a)
        else:
            b = np.round(rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n), 1)
        d = np.abs(a[:, None] - b[None, :])
        perms = np.array(list(itertools.permutations(range(n))))
        assert rf.max_matching_distance(a, b) == d[np.arange(n), perms].max(axis=1).min()


def test_max_matching_distance_at_most_the_min_sum_pairing():
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(73)
    for n in (1, 2, 7, 64, 512):
        for _ in range(4):
            a, b = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
            d = np.abs(a[:, None] - b[None, :])
            rows, cols = linear_sum_assignment(d)
            assert rf.max_matching_distance(a, b) <= d[rows, cols].max()


def _bottleneck_by_threshold_search(a, b):
    """Least pair distance whose pairs hold a perfect matching, by scipy's matcher."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    # Rows are b's points: with a's as rows, scipy's matcher takes seconds on
    # some probes of the draws below.
    d = np.abs(b[:, None] - a[None, :])
    cand = np.unique(d)
    lo, hi = 0, cand.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (maximum_bipartite_matching(csr_matrix(d <= cand[mid])) >= 0).all():
            hi = mid
        else:
            lo = mid + 1
    return cand[hi]


def test_max_matching_distance_equals_a_threshold_search_over_scipy_matching():
    # Ties on a 0.1 grid, a planted pair with Hausdorff distance 0 and
    # bottleneck 10, and symmetric flocks whose doubled closed-form
    # eigenvalues share a nearest dense eigenvalue, so half the rows are free
    # after the nearest-column start.  The search runs on 9 of the 18 draws.
    rng = np.random.default_rng(79)
    searched = 0
    for n in (64, 256, 512):
        def grid():
            return np.round(rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n), 1)

        ties = grid()
        pairs = [(grid(), grid()), (grid(), grid()), (ties, rng.permutation(ties)),
                 (np.r_[np.zeros(n - 1), 10.0], np.r_[0.0, np.full(n - 1, 10.0)])]
        for g_x, g_v in ((-1.0, -0.5), (-2.0, -3.0)):
            p = rf.FlockParams.nearest_neighbor(n // 2, g_x, g_v)
            pairs.append((rf.spectrum(p).all_nus(), rf.dense_spectrum(rf.build_dense(p))))
        for a, b in pairs:
            want = _bottleneck_by_threshold_search(a, b)
            assert rf.max_matching_distance(a, b) == want
            searched += bool(want > rf.hausdorff(a, b))
    assert searched >= 9


def test_max_matching_distance_memory_is_chunked():
    # At t = 1 the last free zero row reaches every column but 3.0, all of
    # them matched, so its next front holds 2047 rows.  d alone is 32 MB.
    n = 2048
    a = np.r_[np.zeros(n - 1), 2.0]
    b = np.r_[1.0, np.zeros(n - 2), 3.0]
    got, peak = traced_peak(rf.max_matching_distance, a, b)
    assert got == 1.0
    assert peak < 40e6


def test_max_matching_distance_search_copies_the_distances_once():
    # Ties on a 0.1 grid make the threshold search run; d is 32 MiB, and
    # taking the distinct candidates with np.unique peaked at 104 MiB.
    rng = np.random.default_rng(83)
    n = 2048
    a, b = (np.round(rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n), 1)
            for _ in range(2))
    got, peak = traced_peak(rf.max_matching_distance, a, b)
    assert got > rf.hausdorff(a, b)
    assert peak < 76 * 2**20


def test_max_matching_distance_of_identical_points_is_zero():
    same = np.full(300, 0.5 - 2j)
    assert rf.max_matching_distance(same, same) == 0.0


def test_max_matching_distance_rejects_empty_sets():
    with pytest.raises(rf.RingflockError, match="max_matching_distance needs two nonempty sets"):
        rf.max_matching_distance([], [])


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0, -math.inf)])
def test_max_matching_distance_rejects_non_finite_points(bad):
    with pytest.raises(rf.RingflockError, match="max_matching_distance needs finite points"):
        rf.max_matching_distance([0, 1], [1, bad])


def test_max_matching_distance_overflow_is_inf():
    assert rf.max_matching_distance([1e308], [-1e308]) == math.inf
    assert rf.max_matching_distance([1e308, 0], [-1e308, 0]) == 1e308
