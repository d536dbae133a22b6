import cmath
import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ringflock as rf
from ringflock import wavefield
from ringflock.spectral import eigenvalue_arrays, root_pair
from helpers import fft_modes, random_moderate_damping_params, random_underdamped_params

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
    # g_v**2 = -2 g_x puts a real double root at phi = pi of an even ring:
    # that mode decays without travelling, so both its speeds are +0.0.
    p = rf.FlockParams.nearest_neighbor(200, -2.0, -2.0)
    pv = rf.phase_velocities(p)
    assert pv.ms[pv.overdamped].tolist() == [100]
    assert pv.c_plus[-1] == pv.c_minus[-1] == 0.0
    assert math.copysign(1.0, pv.c_plus[-1]) == math.copysign(1.0, pv.c_minus[-1]) == 1.0
    # every travelling mode keeps -Im(nu) / (m theta) bit for bit
    _, _, plus, minus = eigenvalue_arrays(p, pv.ms)
    mtheta = pv.ms * p.theta
    assert np.array_equal(pv.c_plus[:-1], (-minus.imag / mtheta)[:-1])
    assert np.array_equal(pv.c_minus[:-1], (-plus.imag / mtheta)[:-1])


def test_strongly_overdamped_flock_has_no_wave_speeds():
    # A tiny position gain makes every mode overdamped: phase velocities are
    # all 0, and the extrapolated and group velocities do not exist.
    p = rf.FlockParams.nearest_neighbor(64, -1e-12, -1.0)
    pv = rf.phase_velocities(p)
    assert pv.overdamped.all()
    assert not pv.c_plus.any() and not pv.c_minus.any()
    with pytest.raises(rf.RingflockError, match="low modes degenerate; cannot extrapolate"):
        rf.signal_velocity_limit(p)
    with pytest.raises(rf.RingflockError, match="branches degenerate near phi = 0"):
        rf.group_velocity(p)


# Gate-true flocks as (g_x, g_v, rho_x_plus, rho_v_plus, rho_x_minus, rho_v_minus);
# on an even ring the half-ring mode of "default" and "rho_v" is a real
# double root, which has no phase velocity and no modal amplitudes
RESCALED_FLOCKS = {
    "default": (-2.0, -2.0, -0.5, -0.5, -0.5, -0.5),
    "underdamped": (-2.0, -1.0, -0.5, -0.5, -0.5, -0.5),
    "rho_v": (-2.0, -2.0, -0.5, -0.8, -0.5, -0.2),
}


def _outcome(call):
    """call()'s result, or the text of the RingflockError it raises."""
    try:
        return call()
    except rf.RingflockError as exc:
        return str(exc)


@pytest.mark.parametrize("s", [2.0 ** 40, 2.0 ** -40], ids=["2^40", "2^-40"])
@pytest.mark.parametrize("n", [64, 65])
@pytest.mark.parametrize("flock", sorted(RESCALED_FLOCKS))
def test_rescaling_time_scales_every_speed_bit_for_bit(flock, n, s):
    # t -> t / s maps g_v -> s g_v and g_x -> s**2 g_x; every root and speed
    # scales by s, exactly for a power of two, and no verdict may change
    g_x, g_v, *rho = RESCALED_FLOCKS[flock]
    p = rf.FlockParams.nearest_neighbor(n, g_x, g_v, *rho)
    q = rf.FlockParams.nearest_neighbor(n, s * s * g_x, s * g_v, *rho)
    pv, qv = rf.phase_velocities(p), rf.phase_velocities(q)
    assert np.array_equal(qv.overdamped, pv.overdamped)
    for field in ("c_plus", "c_minus", "re_nu_plus", "re_nu_minus"):
        assert np.array_equal(getattr(qv, field), s * getattr(pv, field))
    sp, sq = rf.signal_velocities(p), rf.signal_velocities(q)
    assert (sq.c_plus, sq.c_minus, sq.a) == (s * sp.c_plus, s * sp.c_minus, s * s * sp.a)
    assert rf.group_velocity(q) == tuple(s * c for c in rf.group_velocity(p))
    for m in (1, -1, 3):
        assert rf.mode_eigenvalues_series(q, m) == tuple(
            s * nu for nu in rf.mode_eigenvalues_series(p, m))
    z0, v0 = np.random.default_rng(7).uniform(-1.0, 1.0, (2, n))
    cp = _outcome(lambda: rf.modal_decompose(p, z0, v0))
    cq = _outcome(lambda: rf.modal_decompose(q, z0, s * v0))
    if isinstance(cp, str):
        assert cq == cp
    else:
        assert np.array_equal(cq.leftward, cp.leftward)
        assert np.array_equal(cq.rightward, cp.rightward)
        assert cq.coherent == (cp.coherent[0], s * cp.coherent[1])
    # RK4 with dt -> dt / s: the step cap (0.5 / 4 or 0.5 / 6 here) refuses
    # the same steps, and an accepted run scales bit for bit
    for dt in (2.0 ** -4, 2.0 ** -2):
        rp = _outcome(lambda: rf.integrate(p, z0, v0, 2.0, dt))
        rq = _outcome(lambda: rf.integrate(q, z0, s * v0, 2.0 / s, dt / s))
        assert isinstance(rp, str) == isinstance(rq, str) == (dt > 2.0 ** -4)
        if not isinstance(rp, str):
            assert np.array_equal(rq.times, rp.times / s)
            assert np.array_equal(rq.z, rp.z)
            assert np.array_equal(rq.zdot, s * rp.zdot)


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
    assert np.abs(co.leftward).max() < 1e-14
    assert np.abs(co.rightward).max() < 1e-14
    assert co.coherent == pytest.approx((3.5, 0.0))


def test_modal_decompose_single_leftward_mode():
    p = rf.FlockParams.nearest_neighbor(64, -2.0, -1.0)
    ks = np.arange(64)
    _, _, nu_plus, _ = rf.eigenvalue_arrays(p, 1)
    z0 = 2.0 * np.cos(p.theta * ks)
    zdot0 = np.real(nu_plus * 2.0 * np.exp(1j * p.theta * ks))
    co = rf.modal_decompose(p, z0, zdot0)
    assert co.leftward.shape == co.rightward.shape == (33,)  # bins 0..n//2
    assert set(np.flatnonzero(np.abs(co.leftward) > 1e-12)) == {1}
    assert co.leftward[1] == pytest.approx(1.0, abs=1e-12)  # z0 has z_hat = 1 in bin 1
    assert np.abs(co.rightward).max() < 1e-14


def test_wave_approximation_rightward_profile_empty_for_leftward_wave():
    p = rf.FlockParams.nearest_neighbor(64, -2.0, -1.0)
    ks = np.arange(64)
    _, _, nu_plus, _ = rf.eigenvalue_arrays(p, 1)
    co = rf.modal_decompose(p, 2.0 * np.cos(p.theta * ks),
                            np.real(nu_plus * 2.0 * np.exp(1j * p.theta * ks)))
    rep = rf.verify_wave_bound(p, co, 0.3, 0.7, 2.0, 2.0)
    assert np.abs(rep.f_plus_coeffs).max() < 1e-14
    assert np.abs(rep.f_minus_coeffs).max() > 0.5


def test_modal_roundtrip_and_conjugate_links():
    # The 2x2 systems solved on all n FFT bins give bin -m the conjugates of
    # mode m's amplitudes: the full bins _full_bins builds from the half data.
    rng = np.random.default_rng(97)
    p = random_underdamped_params(rng, 64)
    z0 = rng.uniform(-1, 1, 64)
    v0 = rng.uniform(-1, 1, 64)
    co = rf.modal_decompose(p, z0, v0)
    assert co.leftward.shape == co.rightward.shape == (33,)
    left, right, l, r = (a[1:] for a in _full_bins(p, co))  # bin 0 is the coherent pair
    zh, vh = np.fft.fft(z0)[1:] / 64, np.fft.fft(v0)[1:] / 64
    for got, ref in ((l, (vh - right * zh) / (left - right)),
                     (r, (left * zh - vh) / (left - right))):
        assert np.abs(got - ref).max() <= 1e-12
    assert co.rightward[32] == pytest.approx(co.leftward[32].conjugate(), abs=1e-12)
    z, v = rf.modal_evolve(p, co, 0.0)
    assert np.abs(z - z0).max() <= 1e-10 * max(1.0, np.abs(z0).max())
    assert np.abs(v - v0).max() <= 1e-10 * max(1.0, np.abs(v0).max())


def test_modal_decompose_degenerate_mode():
    p = rf.FlockParams.nearest_neighbor(8, -2.0, -2.0)  # double root at m = 4
    with pytest.raises(rf.RingflockError, match="mode m=4 has coincident branches"):
        rf.modal_decompose(p, np.zeros(8), np.ones(8))


def test_modal_evolve_coherent_drift():
    p = rf.FlockParams.nearest_neighbor(16, -2.0, -1.0)
    co = rf.ModalCoefficients(n=16, leftward=np.zeros(9, complex),
                              rightward=np.zeros(9, complex), coherent=(1.25, -0.5))
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


@pytest.mark.parametrize("n", [8, 200, 4097])
def test_evolve_blocks_of_frames_match_scalar_calls_bit_for_bit(n):
    # The batch spans three blocks of frames and a part.  Every frame is
    # checked up to 512 of them; beyond, every k-th one and both sides of
    # each block edge.
    rng = np.random.default_rng(n)
    p = random_underdamped_params(rng, n)
    z0, v0 = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
    step = wavefield._BLOCK_CELLS // n
    rows = 3 * step + 5
    ts = np.sort(rng.uniform(0.0, 3.0 * n, rows))
    edges = np.arange(step, rows, step)
    checked = np.unique(np.r_[np.arange(0, rows, -(-rows // 512)), edges - 1, edges, rows - 1])
    batch = np.stack(rf.evolve(p, z0, v0, ts), axis=1)[checked]
    one_by_one = np.array([rf.evolve(p, z0, v0, t) for t in ts[checked]])
    assert batch.shape == one_by_one.shape == (len(checked), 2, n)
    assert batch.tobytes() == one_by_one.tobytes()


@pytest.mark.parametrize("n", [64, 65536])  # 512 frames per block, and one
def test_propagate_blocks_carry_their_own_times(n):
    # Three blocks, the last one short: their times are views of ts that
    # concatenate to ts.ravel(), and each block is _frames on those times.
    rng = np.random.default_rng(n)
    p = random_underdamped_params(rng, n)
    n, roots, zh, vh = wavefield._propagator(p, *rng.uniform(-1, 1, (2, n)))
    step = max(1, wavefield._BLOCK_CELLS // n)
    ts = np.sort(rng.uniform(0.0, 3.0 * n, 2 * step + 1)).reshape(-1, 1)
    blocks = list(wavefield._propagate(n, roots, zh, vh, ts))
    assert [len(t) for t, _, _ in blocks] == [step, step, 1]
    assert np.concatenate([t for t, _, _ in blocks]).tobytes() == ts.ravel().tobytes()
    w = vh - roots[1] * zh
    for t, z, zdot in blocks:
        assert np.shares_memory(t, ts)
        want = wavefield._frames(n, roots, zh, vh, w, t[:, None])
        assert np.stack([z, zdot]).tobytes() == want.tobytes()
    # positions only, as verify_wave_bound reads them: the same times and z rows
    positions = list(wavefield._propagate(n, roots, zh, vh, ts, velocities=False))
    assert [len(block) for block in positions] == [2, 2, 2]
    for (t, z), (t_both, z_both, _) in zip(positions, blocks):
        assert t.tobytes() == t_both.tobytes() and z.tobytes() == z_both.tobytes()


def _full_bins(p, co):
    """Roots and amplitudes (left, right, l, r) on all n FFT bins of the real
    field that the half-spectrum data co describe.  Each bin's roots come
    from eigenvalue_arrays: the "+" root (Im > 0) travels leftward at m > 0,
    rightward at m < 0.  Bin -m holds the conjugates of mode m's amplitudes,
    swapped where mode m's two roots are real (equal imaginary parts), since
    eigenvalue_arrays then labels mode -m as it labels mode m."""
    n, k = p.n, (p.n - 1) // 2  # bins -1..-k pair with 1..k
    ms = fft_modes(n)
    _, _, plus, minus = eigenvalue_arrays(p, ms)
    left, right = np.where(ms < 0, minus, plus), np.where(ms < 0, plus, minus)
    l, r = np.zeros((2, n), dtype=complex)
    l[:n // 2 + 1], r[:n // 2 + 1] = co.leftward, co.rightward
    ln, rn = co.leftward[1:k + 1].conj(), co.rightward[1:k + 1].conj()
    tie = plus[1:k + 1].imag == minus[1:k + 1].imag
    l[:-k - 1:-1], r[:-k - 1:-1] = np.where(tie, [rn, ln], [ln, rn])
    return left, right, l, r


def _two_exponential_sum(p, co, t):
    """Reference modal evolution: each mode as l exp(nu_l t) + r exp(nu_r t)."""
    left, right, l, r = _full_bins(p, co)
    t = np.asarray(t, dtype=float)[..., None]
    el, er = l * np.exp(left * t), r * np.exp(right * t)
    w, wd = el + er, left * el + right * er
    w[..., 0] = co.coherent[0] + co.coherent[1] * t[..., 0]
    wd[..., 0] = co.coherent[1]
    return (p.n * np.fft.ifft(w)).real, (p.n * np.fft.ifft(wd)).real


def test_modal_evolve_matches_two_exponential_sum():
    rng = np.random.default_rng(99)
    for p in (random_underdamped_params(rng, 64), random_moderate_damping_params(rng, 64)):
        co = rf.modal_decompose(p, rng.uniform(-1, 1, 64), rng.uniform(-1, 1, 64))
        co = dataclasses.replace(co, coherent=(0.4, -0.2))
        for t in (0.0, 1.7, np.array([0.0, 0.5, 3.0, 40.0])):
            z, v = rf.modal_evolve(p, co, t)
            z_ref, v_ref = _two_exponential_sum(p, co, t)
            assert z.shape == v.shape == z_ref.shape
            assert np.abs(z - z_ref).max() <= 1e-12
            assert np.abs(v - v_ref).max() <= 1e-12


def _full_ifft_rule(p, zh, vh, ts):
    """Reference: the closed-form propagator on all n FFT bins of the DFT data
    (zh, vh), one complex inverse FFT per frame, real part kept."""
    lx, lv = eigenvalue_arrays(p, fft_modes(p.n))[:2]
    d, r1, r2 = root_pair(lx, lv)
    t = ts[:, None]
    y = -2.0 * d * t
    with np.errstate(divide="ignore", invalid="ignore"):
        pw = t * np.where(y == 0.0, 1.0, np.expm1(y) / y) * (vh - r1 * zh)
    e = np.exp(r1 * t)
    return tuple((p.n * np.fft.ifft(e * x)).real for x in (zh + pw, vh + r2 * pw))


@pytest.mark.parametrize("n", [3, 4, 5, 16, 17, 200])
@pytest.mark.parametrize("g_v", [-2.0, -1.0, -50.0], ids=["default", "g_v=-1", "overdamped"])
@pytest.mark.parametrize("source", ["power_law", "modal_decompose"])
def test_half_spectrum_matches_the_full_ifft_rule(n, g_v, source):
    # Bins 0..n//2 and irfft against all n bins and a complex ifft.  On the
    # overdamped flock all modes but the lowest few have two real roots,
    # where the full bins pair leftward[-m] with conj(rightward[m]).
    p = rf.FlockParams.nearest_neighbor(n, -2.0, g_v)
    rng = np.random.default_rng(n)
    z0, v0 = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
    ts = np.array([0.0, 0.7, n / 2.0, 3.0 * n])
    pairs = [(rf.evolve(p, z0, v0, ts),
              _full_ifft_rule(p, np.fft.fft(z0) / n, np.fft.fft(v0) / n, ts))]
    if source == "modal_decompose" and g_v == -2.0 and n % 2 == 0:
        # the half-ring mode is a double root: modal_decompose has no solution
        with pytest.raises(rf.RingflockError, match=f"mode m={n // 2} has coincident branches"):
            rf.modal_decompose(p, z0, v0)
    else:
        co = (rf.power_law_coefficients(n, 2.0, seed=n) if source == "power_law"
              else rf.modal_decompose(p, z0, v0))
        left, right, l, r = _full_bins(p, co)
        zh, vh = l + r, left * l + right * r
        zh[0], vh[0] = co.coherent
        pairs.append((rf.modal_evolve(p, co, ts), _full_ifft_rule(p, zh, vh, ts)))
    for got, ref in pairs:
        for a, b in zip(got, ref):
            assert a.shape == b.shape == (len(ts), n)
            assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max()


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


def test_evolve_decays_the_slow_mode_of_a_stiff_pencil():
    # At g_v = -1e9 mode 1 has roots near -7.6e7 and -1e-9; lambda_v/2 + d
    # cancels the slow one to 0, which froze the mode instead of letting it
    # decay by 1/e at t = 1e9.
    p = rf.FlockParams.nearest_neighbor(16, -1.0, -1e9)
    z0 = np.cos(2.0 * np.pi * np.arange(16) / 16)
    z, v = rf.evolve(p, z0, -1e-9 * z0, 1e9)
    assert np.abs(z - z0 / math.e).max() <= 1e-12
    assert np.abs(v + 1e-9 * z0 / math.e).max() <= 1e-21


def test_evolve_at_subnormal_times_stays_at_the_initial_frame():
    # y = -2 d t is subnormal there, and numpy's complex expm1(y) / y
    # overflowed to inf + nan j.
    rng = np.random.default_rng(7)
    p = rf.FlockParams.nearest_neighbor(16, -2.0, -2.0)
    z0, v0 = rng.uniform(-1, 1, 16), rng.uniform(-1, 1, 16)
    start = np.array(rf.evolve(p, z0, v0, 0.0))
    for t in (1e-310, 5e-324):
        state = np.array(rf.evolve(p, z0, v0, t))
        assert np.isfinite(state).all()
        assert np.abs(state - start).max() <= 1e-300
    traj, _ = rf.impulse_experiment(p, t_end=1e-306)
    assert np.isfinite(traj.zdot).all()


def test_evolve_rejects_overflowing_state():
    p = rf.FlockParams.nearest_neighbor(16, -2.0, -1.0)
    v0 = np.zeros(16)
    v0[0] = 1e300
    with pytest.raises(rf.RingflockError, match="the evolved state is not finite"):
        rf.evolve(p, np.zeros(16), v0, np.array([0.0, 1e300]))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_initial_state_must_be_finite(bad):
    # A non-finite kick would become nan amplitudes, not an error.
    p = rf.FlockParams.nearest_neighbor(16, -2.0, -1.0)
    ok, broken = np.ones(16), np.full(16, bad)
    for z, zdot in ((broken, ok), (ok, broken)):
        with pytest.raises(rf.RingflockError, match="^initial arrays must be finite$"):
            rf.modal_decompose(p, z, zdot)
        with pytest.raises(rf.RingflockError, match="^initial arrays must be finite$"):
            rf.evolve(p, z, zdot, 1.0)


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
    for n in (128, 129, 256):
        co = rf.power_law_coefficients(n, 2.0, seed=5)
        assert co.leftward.shape == co.rightward.shape == (n // 2 + 1,)  # bins 0..n//2
        assert co.leftward[0] == co.rightward[0] == 0.0
        if n % 2 == 0:  # the half-ring bin is its own conjugate
            assert co.rightward[n // 2] == co.leftward[n // 2].conjugate()
        p = rf.FlockParams.nearest_neighbor(n, -2.0, -1.0)
        z, v = rf.modal_evolve(p, co, 0.0)
        assert np.isfinite(z).all() and np.isfinite(v).all()
    small = rf.power_law_coefficients(128, 2.0, seed=5)
    large = rf.power_law_coefficients(256, 2.0, seed=5)
    for m in range(1, 60):
        assert large.leftward[m] == small.leftward[m]
        assert large.rightward[m] == small.rightward[m]


def _power_law_coefficients_loop(n, p, seed):
    """The per-mode loop power_law_coefficients once ran: the reference."""
    rng = random.Random(seed)
    left = np.zeros(n // 2 + 1, dtype=complex)
    right = np.zeros(n // 2 + 1, dtype=complex)
    for m in range(1, n // 2 + 1):
        mag = float(m) ** (-p)
        lm, rm = (mag * cmath.exp(1j * (2.0 * math.pi * rng.random())) for _ in range(2))
        left[m], right[m] = lm, rm if m < n - m else lm.conjugate()
    return left, right


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 16, 17, 64, 128, 4096, 16384, 65536])
def test_power_law_coefficients_match_the_loop_bit_for_bit(n):
    for p in (1.5, 2.0, 3.7):
        co = rf.power_law_coefficients(n, p, seed=n)
        left, right = _power_law_coefficients_loop(n, p, seed=n)
        assert np.array_equal(co.leftward.view(np.uint64), left.view(np.uint64))
        assert np.array_equal(co.rightward.view(np.uint64), right.view(np.uint64))


def test_power_law_coefficients_reject_bad_p():
    # m**-p overflowed at p = -400 before the check
    for p in (-1e308, -400.0, 1.0, math.inf, math.nan):
        with pytest.raises(rf.RingflockError, match="need finite p > 1"):
            rf.power_law_coefficients(16, p)


def test_power_law_coefficients_rejects_negative_seed():
    # numpy's own error for it, "expected non-negative integer", names no seed
    for seed in (-1, -2**70):
        with pytest.raises(rf.RingflockError,
                           match=f"^need a non-negative seed, got seed={seed}$"):
            rf.power_law_coefficients(16, 2.0, seed=seed)
    assert rf.power_law_coefficients(16, 2.0, seed=2**70).n == 16


def test_verify_wave_bound_damping_band_ordering():
    p = rf.FlockParams.nearest_neighbor(512, -2.0, -1.0)
    co = rf.power_law_coefficients(512, 2.0, seed=2)
    rep = rf.verify_wave_bound(p, co, 0.3, 0.7, 2.0, 2.0)
    assert 0.0 <= rep.damping_mid <= rep.damping_high
    assert rep.m_bound == pytest.approx(1.0, rel=1e-12)


def test_verify_wave_bound_cutoff_is_strict_at_an_integer_power():
    # 64**0.5 == 8 exactly, and the profiles keep only |m| < n**alpha
    p = rf.FlockParams.nearest_neighbor(64, -2.0, -1.0)
    co = rf.power_law_coefficients(64, 2.0, seed=2)
    rep = rf.verify_wave_bound(p, co, 0.5, 0.7, 2.0, 2.0)
    assert rep.cutoff == 7
    assert len(rep.f_minus_coeffs) == len(rep.f_plus_coeffs) == 8  # bins 0..7


def test_verify_wave_bound_envelope_at_large_p():
    # The data underflow to 0 (or subnormals) where |m|**p overflows.
    p = rf.FlockParams.nearest_neighbor(128, -2.0, -1.0)
    for exponent in (400.0, 1e308):
        co = rf.power_law_coefficients(128, exponent, seed=2)
        rep = rf.verify_wave_bound(p, co, 0.3, 0.7, 2.0, exponent)
        assert abs(rep.m_bound - 1.0) <= 1e-9
        assert np.isfinite(rep.bound()).all() and rep.bound_holds()


def test_verify_wave_bound_rejects_bad_exponents():
    p = rf.FlockParams.nearest_neighbor(128, -2.0, -1.0)
    co = rf.power_law_coefficients(128, 2.0, seed=2)
    for args in ((0.7, 0.3, 2.0, 2.0), (0.3, 0.7, 0.5, 2.0), (0.3, 0.7, 2.0, 1.0)):
        with pytest.raises(rf.RingflockError, match="need 0 < alpha < beta < 1"):
            rf.verify_wave_bound(p, co, *args)


def test_verify_wave_bound_rejects_overflowing_window():
    p = rf.FlockParams.nearest_neighbor(128, -2.0, -1.0)
    co = rf.power_law_coefficients(128, 2.0, seed=2)
    with pytest.raises(rf.RingflockError, match=r"K n/\|c\| overflows float64 at K=1e\+308"):
        rf.verify_wave_bound(p, co, 0.3, 0.7, 1e308, 2.0)


def test_verify_wave_bound_rejects_zero_coefficients():
    p = rf.FlockParams.nearest_neighbor(128, -2.0, -1.0)
    empty = rf.ModalCoefficients(n=128, leftward=np.zeros(65, complex),
                                 rightward=np.zeros(65, complex), coherent=(0.0, 0.0))
    with pytest.raises(rf.RingflockError, match="all modal coefficients vanish"):
        rf.verify_wave_bound(p, empty, 0.3, 0.7, 2.0, 2.0)


@pytest.mark.parametrize("size", [8, 16, 17])
def test_modal_calls_reject_amplitudes_of_the_wrong_shape(size):
    # n = 16 has the rfft bins 0..8; all n bins or one too few are refused
    p = rf.FlockParams.nearest_neighbor(16, -2.0, -1.0)
    good, bad = np.zeros(9, complex), np.zeros(size, complex)
    good[1] = bad[1] = 1.0
    for co in (rf.ModalCoefficients(n=16, leftward=bad, rightward=good, coherent=(0.0, 0.0)),
               rf.ModalCoefficients(n=16, leftward=good, rightward=bad, coherent=(0.0, 0.0))):
        for call in (lambda: rf.modal_evolve(p, co, 1.0),
                     lambda: rf.verify_wave_bound(p, co, 0.3, 0.7, 2.0, 2.0)):
            with pytest.raises(rf.RingflockError,
                               match=r"^modal amplitudes must have shape \(9,\)$"):
                call()


def test_modal_calls_reject_data_of_another_ring():
    p = rf.FlockParams.nearest_neighbor(128, -2.0, -1.0)
    co = rf.power_law_coefficients(256, 2.0, seed=2)
    for call in (lambda: rf.modal_evolve(p, co, 1.0),
                 lambda: rf.verify_wave_bound(p, co, 0.3, 0.7, 2.0, 2.0)):
        with pytest.raises(ValueError, match="modal data for n=256 on a ring of n=128"):
            call()


def _term1_per_time(p, co, cutoff):
    """2 sum_{1<=m<=cutoff} (|l_m| |nu_+ + i theta m c_-| + |r_m| |nu_- + i theta m c_+|),
    summed term by term with the half-ring bin of an even ring once."""
    sigs = rf.signal_velocities(p)
    total = 0.0
    for m in range(1, min(cutoff, p.n // 2) + 1):
        _, _, plus, minus = eigenvalue_arrays(p, m)
        itm = 1j * p.theta * m
        term = (abs(co.leftward[m]) * abs(complex(plus) + itm * sigs.c_minus)
                + abs(co.rightward[m]) * abs(complex(minus) + itm * sigs.c_plus))
        total += term if 2 * m == p.n else 2.0 * term
    return total


def test_verify_wave_bound_window_follows_the_slower_speed():
    # speeds more than K = 2 apart: the window is [n/c, K n/c] for the slower c
    n, k_window = 128, 2.0
    p = asym_params(n)
    co = rf.power_law_coefficients(n, 2.0, seed=3)
    rep = rf.verify_wave_bound(p, co, 0.3, 0.7, k_window, 2.0)
    c_slow = min(rep.c_plus, -rep.c_minus)
    assert max(rep.c_plus, -rep.c_minus) > k_window * c_slow
    assert rep.ts[0] == n / c_slow and rep.ts[-1] == k_window * n / c_slow
    assert rep.bound_holds()
    # equal and opposite speeds: the same window for either speed
    sym = rf.verify_wave_bound(rf.FlockParams.nearest_neighbor(n, -2.0, -1.0), co,
                               0.3, 0.7, k_window, 2.0)
    assert sym.c_plus == -sym.c_minus
    assert sym.ts[0] == n / sym.c_plus and sym.ts[-1] == k_window * n / sym.c_plus


@pytest.mark.parametrize("n, alpha", [(128, 0.3), (16, 0.9), (17, 0.9)],
                         ids=["cutoff-4", "half-ring-once", "odd-ring"])
@pytest.mark.parametrize("flock", ["asymmetric", "underdamped"])
def test_verify_wave_bound_term1_is_the_kept_modes_drift(n, alpha, flock):
    # term1(t) = t times the per-mode sum, with no fitted constant; at
    # alpha = 0.9 the cutoff reaches the half-ring bin of n = 16
    p = asym_params(n) if flock == "asymmetric" else rf.FlockParams.nearest_neighbor(n, -2.0, -1.0)
    co = rf.power_law_coefficients(n, 2.0, seed=3)
    rep = rf.verify_wave_bound(p, co, alpha, 0.95, 2.0, 2.0)
    np.testing.assert_allclose(rep.term1, rep.ts * _term1_per_time(p, co, rep.cutoff),
                               rtol=1e-13, atol=0)
    assert rep.bound_holds()


def test_verify_wave_bound_bound_and_decay():
    params = rf.FlockParams.nearest_neighbor(128, -2.0, -1.0)
    rels = []
    for n in (128, 256):
        co = rf.power_law_coefficients(n, 2.0, seed=12)
        rep = rf.verify_wave_bound(params.with_n(n), co, 0.3, 0.7, 2.0, 2.0)
        assert rep.bound_holds()
        rels.append(rep.measured[0] / rep.signal_sup[0])
    assert rels[1] < rels[0]


@pytest.mark.parametrize("g_v, sweep, seeds", [
    (-2.0, (256, 512, 1024), range(41)),
    (-1.0, (256, 512, 1024), range(41)),
    (-2.0, (4096, 16384, 65536), range(21)),
], ids=["default", "underdamped", "large"])
def test_verify_wave_bound_holds_for_every_seed(g_v, sweep, seeds):
    # the CLI draws its data from any --seed; the bound has no constant to refit
    p = rf.FlockParams.nearest_neighbor(sweep[0], -2.0, g_v)
    failed = [(seed, n) for seed in seeds for n in sweep
              if not rf.verify_wave_bound(p.with_n(n), rf.power_law_coefficients(n, 2.0, seed=seed),
                                          0.3, 0.7, 2.0, 2.0).bound_holds()]
    assert failed == []


@pytest.mark.parametrize("scale, factor", [(1.0, 4.0), (1e-13, 100.0)])
def test_verify_wave_bound_fails_a_measured_error_too_large(monkeypatch, scale, factor):
    # A mutant whose frames lie factor times as far from the profiles: a
    # constant fitted at the smallest ring absorbed a factor of 4, the unfitted
    # bound fails.  Data scaled by 1e-13 put the bound near 3e-13, and the
    # check has no absolute slack that such small errors could hide under.
    p = rf.FlockParams.nearest_neighbor(256, -2.0, -2.0)
    co = rf.power_law_coefficients(256, 2.0, seed=0)
    co = dataclasses.replace(co, leftward=scale * co.leftward, rightward=scale * co.rightward)
    rep = rf.verify_wave_bound(p, co, 0.3, 0.7, 2.0, 2.0)
    assert rep.bound_holds()
    profile, propagate = _profiles(p, rep), wavefield._propagate

    def far_frames(*args, **kwargs):
        for t, z in propagate(*args, **kwargs):
            yield t, z + (factor - 1.0) * (z - profile[np.searchsorted(rep.ts, t)])

    monkeypatch.setattr(wavefield, "_propagate", far_frames)
    mutant = rf.verify_wave_bound(p, co, 0.3, 0.7, 2.0, 2.0)
    np.testing.assert_allclose(mutant.measured, factor * rep.measured, rtol=1e-9)
    assert not mutant.bound_holds()


def test_verify_wave_bound_matches_direct_profile_sum():
    # reference: each profile summed directly, sum_m c_m exp(i theta m (k - c t))
    n = 128
    p = rf.FlockParams.nearest_neighbor(n, -2.0, -1.0)
    co = rf.power_law_coefficients(n, 2.0, seed=4)
    rep = rf.verify_wave_bound(p, co, 0.3, 0.7, 2.0, 2.0)
    ks = np.arange(n)
    ms = np.arange(-rep.cutoff, rep.cutoff + 1)  # cutoff < n/2 here

    def profile(coeffs, x):  # coeffs on bins 0..cutoff; mode -m has their conjugate
        return np.r_[coeffs[:0:-1].conj(), coeffs] @ np.exp(1j * p.theta * np.outer(ms, x))

    assert len(rep.ts) == 7
    for i, t in enumerate(rep.ts):
        z, _ = rf.modal_evolve(p, co, t)
        approx = profile(rep.f_minus_coeffs, ks - rep.c_minus * t) + \
            profile(rep.f_plus_coeffs, ks - rep.c_plus * t)
        assert abs(rep.measured[i] - np.abs(z - approx).max()) <= 1e-12
        assert abs(rep.signal_sup[i] - np.abs(z).max()) <= 1e-12


def _profiles(p, rep):
    """f_-(k - c_- t) + f_+(k - c_+ t) at the report's 7 times, by one irfft
    of the profiles' bins 0..cutoff."""
    phase = -1j * p.theta * np.arange(len(rep.f_minus_coeffs)) * rep.ts[:, None]
    w = (rep.f_minus_coeffs * np.exp(phase * rep.c_minus)
         + rep.f_plus_coeffs * np.exp(phase * rep.c_plus))
    return p.n * np.fft.irfft(w, p.n)


def _whole_batch_rule(p, co, rep):
    """(measured, signal_sup) by the rule before streaming: every frame at
    once, then the profiles at all 7 times."""
    z, _ = rf.modal_evolve(p, co, rep.ts)
    return np.abs(z - _profiles(p, rep)).max(axis=1), np.abs(z).max(axis=1)


@pytest.mark.parametrize("n", [4096, 16384, 65536])  # 1, 4 and 7 blocks of frames
def test_verify_wave_bound_streams_the_whole_batch_rule(n):
    p = rf.FlockParams.nearest_neighbor(n, -2.0, -2.0)
    co = rf.power_law_coefficients(n, 2.0, seed=1)
    rep = rf.verify_wave_bound(p, co, 0.3, 0.7, 2.0, 2.0)
    measured, signal_sup = _whole_batch_rule(p, co, rep)
    assert repr(rep.measured.tolist()) == repr(measured.tolist())
    assert repr(rep.signal_sup.tolist()) == repr(signal_sup.tolist())


def test_power_law_data_on_an_overdamped_flock_pass_the_modal_calls():
    # g_v = -50 gives most modes two real roots; the data on bins 0..n//2
    # still describe a real field, which both calls evolve.
    n = 256
    p = rf.FlockParams.nearest_neighbor(n, -2.0, -50.0)
    assert rf.phase_velocities(p).overdamped.mean() > 0.9
    co = rf.power_law_coefficients(n, 2.0, seed=0)
    _, _, plus, minus = eigenvalue_arrays(p, np.arange(n // 2 + 1))
    z, v = rf.modal_evolve(p, co, 0.0)
    l, r = co.leftward, co.rightward
    np.testing.assert_allclose(z, n * np.fft.irfft(l + r, n), rtol=0, atol=1e-15)
    np.testing.assert_allclose(v, n * np.fft.irfft(plus * l + minus * r, n), rtol=0, atol=1e-12)
    rep = rf.verify_wave_bound(p, co, 0.3, 0.7, 2.0, 2.0)
    assert np.isfinite(rep.bound()).all() and rep.bound_holds()
    measured, signal_sup = _whole_batch_rule(p, co, rep)
    assert repr(rep.measured.tolist()) == repr(measured.tolist())
    assert repr(rep.signal_sup.tolist()) == repr(signal_sup.tolist())


def test_wave_bound_memory_at_n_65536():
    # holding every frame, its profile and three root evaluations at once
    # peaked at about 32 MB here; all n bins per frame, 14.2 MB; evolving the
    # unread velocities and solving the roots twice, 6.9 MB; 5.9 MB without
    p = rf.FlockParams.nearest_neighbor(65536, -2.0, -2.0)
    co = rf.power_law_coefficients(65536, 2.0, seed=1)
    tracemalloc.start()
    try:
        rep = rf.verify_wave_bound(p, co, 0.3, 0.7, 2.0, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.bound_holds()
    assert peak < 6.5 * 2**20


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("rho_v", [(-0.5, -0.5), (-0.2, -0.8)],
                         ids=["equal-speeds", "unequal-speeds"])
def test_verify_wave_bound_takes_the_half_ring_term_by_its_real_part(n, rho_v):
    # n**0.9 keeps every mode, the half-ring one too.  The full-bin rule put
    # that term in bin n/2 alone and measured |z - profile| of a complex
    # profile; irfft keeps its real part.  With equal speeds the term is real
    # and the rules agree; with unequal ones its imaginary part only added
    # error.  With rho_v = (-0.2, 1, -0.8) the half-ring roots are a double
    # root split by about 1e-8 in float64, which the link check lets pass.
    m1, p1 = rho_v
    p = rf.FlockParams.nearest_neighbor(n, -2.0, -2.0, -0.5, p1, -0.5, m1)
    co = rf.power_law_coefficients(n, 2.0, seed=1)
    rep = rf.verify_wave_bound(p, co, 0.9, 0.95, 2.0, 2.0)
    assert rep.cutoff >= n // 2 and len(rep.f_minus_coeffs) == n // 2 + 1 and rep.bound_holds()
    z, _ = rf.modal_evolve(p, co, rep.ts)
    phase = -1j * p.theta * np.arange(n // 2 + 1) * rep.ts[:, None]
    w = np.zeros((len(rep.ts), n), dtype=complex)  # all n bins, bin -m the conjugate of m
    w[:, :n // 2 + 1] = (rep.f_minus_coeffs * np.exp(phase * rep.c_minus)
                         + rep.f_plus_coeffs * np.exp(phase * rep.c_plus))
    w[:, :-n // 2:-1] = w[:, 1:n // 2].conj()
    profile = n * np.fft.ifft(w)
    full_rule = np.abs(z - profile).max(axis=1)
    np.testing.assert_allclose(rep.measured, np.abs(z - profile.real).max(axis=1), rtol=1e-12)
    if m1 == p1:
        assert rep.c_plus == -rep.c_minus and np.abs(w[:, n // 2].imag).max() < 1e-15
        np.testing.assert_allclose(rep.measured, full_rule, rtol=1e-12)
    else:
        assert np.abs(w[:, n // 2].imag).max() > 0.05
        assert (rep.measured <= full_rule).all() and (rep.measured < full_rule).any()


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


_LEFT_HALF = st.builds(complex, st.floats(-1e300, 0.0), st.floats(-1e300, 1e300))


@given(_LEFT_HALF, _LEFT_HALF)
@example(-1e300 + 1e300j, 0j)
@example(-700.0 + 3.0j, -1e-3 + 2e5j)
@example(1e5j, -1e5j)
@example(-1e-300 + 1e-300j, 0j)
def test_exp_difference_is_at_most_the_exponent_difference_in_the_left_half_plane(a, b):
    # the inequality term1 of verify_wave_bound rests on: e^a - e^b is the
    # integral of e^(b + s (a - b)) (a - b) over s in [0, 1], |e^(...)| <= 1;
    # 1e-15 covers cmath.exp's rounding, as |e^a|, |e^b| <= 1
    assert abs(cmath.exp(a) - cmath.exp(b)) <= abs(a - b) + 1e-15


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
