import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import ringflock as rf
from ringflock import spectral, stability
from helpers import (
    dyadic,
    dyadic_nonzero,
    random_asymmetric_x_params,
    random_gate_true_params,
    random_underdamped_params,
    random_valid_params,
    routh_hurwitz_holds,
)


def test_gate_passes_canonical_stable():
    p = rf.FlockParams.nearest_neighbor(10, -2.0, -2.0)
    assert rf.stable_for_all_n(p) is True


def test_gate_rejects_asymmetric_position_row():
    p = rf.FlockParams(n=10, g_x=-2.0, g_v=-2.0,
                       rho_x={-1: -0.4, 0: 1.0, 1: -0.6},
                       rho_v={-1: -0.5, 0: 1.0, 1: -0.5})
    assert rf.stable_for_all_n(p) is False


def test_gate_rejects_positive_velocity_product():
    p = rf.FlockParams.nearest_neighbor(10, -2.0, 2.0)
    assert rf.stable_for_all_n(p) is False


def test_routh_zero_mode_excluded():
    p = rf.FlockParams.nearest_neighbor(10, -2.0, -2.0)
    for ms in (0, np.array([1, 2, 20, 3])):  # an int, and an array holding a multiple of n
        with pytest.raises(rf.RingflockError, match="mode m=0 carries the coherent double zero"):
            rf.routh_hurwitz(p, ms)


def test_routh_all_hold_for_stable_params():
    p = rf.FlockParams.nearest_neighbor(64, -2.0, -1.0)
    for m in (1, 7, 20, 32):
        assert rf.routh_hurwitz(p, m) == (True, True, True, True)


def test_routh_first_condition_fails_for_positive_gv():
    p = rf.FlockParams.nearest_neighbor(512, -2.0, 2.0)
    conds = rf.routh_hurwitz(p, 1)
    assert not conds[0]
    # the vectorized call counts the same violated (mode, condition) pairs
    q = p.with_n(16)
    ms = rf.mode_range(16)[rf.mode_range(16) != 0]
    failed = [c for m in ms for c in rf.routh_hurwitz(q, m) if not c]
    assert sum(int(np.count_nonzero(~c)) for c in rf.routh_hurwitz(q, ms)) == len(failed) > 0


def test_routh_vectorized_equals_per_mode_calls():
    rng = np.random.default_rng(59)
    for i in range(40):
        p = random_valid_params(rng, 8 + i)
        ms = np.array([m for m in range(-2 * p.n, 2 * p.n) if m % p.n]).reshape(4, -1)
        conds = rf.routh_hurwitz(p, ms)
        assert [c.shape for c in conds] == [ms.shape] * 4
        for idx, m in np.ndenumerate(ms):
            assert tuple(c[idx] for c in conds) == rf.routh_hurwitz(p, m)


def test_routh_reduces_to_real_part_signs_when_symmetric():
    rng = np.random.default_rng(61)
    for _ in range(20):
        p = random_valid_params(rng, 24)
        rho_x = dict(p.rho_x)
        rho_x[-1] = rho_x[1]
        rho_x[0] = -(rho_x[1] + rho_x[-1])
        p = rf.FlockParams(n=p.n, g_x=p.g_x, g_v=p.g_v, rho_x=rho_x, rho_v=p.rho_v)
        ms = np.arange(1, p.n)
        lx, lv, _, _ = rf.eigenvalue_arrays(p, ms)
        assert (lx.imag == 0.0).all()
        reduced = (lx.real < 0.0) & (lv.real < 0.0)
        assert (np.logical_and.reduce(rf.routh_hurwitz(p, ms)) == reduced).all()


def test_verdict_stable_at_large_n():
    rng = np.random.default_rng(67)
    p = random_gate_true_params(rng, 500)
    report = rf.spectral_verdict(p)
    assert rf.stable_for_all_n(p) is True
    assert report.spectral_stable is True
    assert report.witness is None
    assert report.max_real_part < 0.0
    assert routh_hurwitz_holds(p)


def test_verdict_asymmetric_unstable_at_large_n_with_low_mode_witness():
    rng = np.random.default_rng(71)
    p = random_asymmetric_x_params(rng, 8)
    report = rf.spectral_verdict(p.with_n(4096))
    assert report.spectral_stable is False
    m, _, nu = report.witness
    assert nu.real > 0.0
    # the destabilized branch lives at low angles (the maximizing angle is
    # n-independent, so the witness index scales with n but phi stays small)
    assert abs(m) * 2.0 * np.pi / 4096 < 1.0


def test_verdict_with_overflowing_routh_products_warns_nothing():
    # g_x = 1e308 overflows the Routh-Hurwitz products; the verdict comes
    # from the roots, and the inequalities fail without a RuntimeWarning.
    p = rf.FlockParams(n=16, g_x=1e308, g_v=-2.0, rho_x={-1: 0.0, 0: -0.5, 1: 0.5},
                       rho_v={-1: -0.5, 0: 1.0, 1: -0.5})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = rf.spectral_verdict(p)
        holds = routh_hurwitz_holds(p)
    assert not report.spectral_stable and report.max_real_part > 0.0
    assert not holds


def test_verdict_matches_dense_oracle():
    rng = np.random.default_rng(73)
    for _ in range(10):
        p = random_gate_true_params(rng, 4)
        report = rf.spectral_verdict(p)
        nus = rf.dense_spectrum(rf.build_dense(p))
        nonzero = np.sort_complex(nus[np.argsort(np.abs(nus))][2:])
        assert report.max_real_part == pytest.approx(nonzero.real.max(), abs=1e-9)


def test_verdict_marginal_when_gx_zero():
    p = rf.FlockParams(n=16, g_x=0.0, g_v=-1.0,
                       rho_x={-1: -0.5, 0: 1.0, 1: -0.5},
                       rho_v={-1: -0.5, 0: 1.0, 1: -0.5})
    report = rf.spectral_verdict(p)
    assert report.spectral_stable is False
    assert report.marginal is True
    # with both gains zero every eigenvalue and every band is exactly zero
    report = rf.spectral_verdict(replace(p, g_v=0.0))
    assert (report.spectral_stable, report.marginal) == (False, True)


def test_verdict_stable_at_large_n_with_per_mode_band():
    # Re(nu) of the lowest modes at n = 4e5 is about -1.2e-10: far beyond the
    # rounding error of those tiny modes, but inside a band scaled by the
    # largest |nu| (1e-10 * 2), which used to call the spectrum marginal.
    p = rf.FlockParams.nearest_neighbor(400000, -2.0, -2.0)
    report = rf.spectral_verdict(p)
    assert -2e-10 < report.max_real_part < 0.0
    assert report.spectral_stable is True
    assert report.marginal is False
    assert report.witness is None


def test_verdict_stable_for_stiff_pencil():
    # g_v = -1e9 gives each mode a fast root near lambda_v and a slow one near
    # -lambda_x / lambda_v, about -1e-9.  lambda_v/2 + d cancelled the slow
    # root to 0 and a band scaled by the fast root hid it anyway: the verdict
    # read marginal for a gate-true flock with no Routh-Hurwitz failure.
    p = rf.FlockParams.nearest_neighbor(16, -1.0, -1e9)
    lx, _, plus, minus = rf.eigenvalue_arrays(p, np.arange(1, 9))
    plus_fast = np.abs(plus) >= np.abs(minus)
    fast, slow = np.where(plus_fast, plus, minus), np.where(plus_fast, minus, plus)
    assert slow == pytest.approx(-lx / fast, rel=1e-15)
    assert (slow.real < 0.0).all()
    report = rf.spectral_verdict(p)
    assert (report.spectral_stable, report.marginal) == (True, False)
    assert rf.stable_for_all_n(p) is True
    assert routh_hurwitz_holds(p)
    assert report.max_real_part == pytest.approx(-1e-9, rel=1e-12)


def _whole_spectrum_verdict(ms, plus, minus):
    """(stable, marginal, max_real_part, witness) by the rule on whole arrays:
    the witness is the first maximal root over all "+" roots by ascending m,
    then all "-" roots, among the roots above their band if any are."""
    keep = ms != 0
    ms, nus = ms[keep], np.concatenate([plus[keep], minus[keep]])
    res = nus.real
    band = stability.MARGINAL_BAND * np.abs(nus)
    stable = bool((res < -band).all())
    above = res > band
    witness = None
    if not stable:
        i = int(np.argmax(np.where(above, res, -np.inf) if above.any() else res))
        witness = (int(ms[i % ms.size]), "+" if i < ms.size else "-", complex(nus[i]))
    return stable, not stable and not above.any(), float(res.max()) + 0.0, witness


def _verdict_fields(report):
    return report.spectral_stable, report.marginal, report.max_real_part, report.witness


@pytest.mark.parametrize("block", [16, spectral._BLOCK_MODES])
def test_verdict_blocks_match_whole_spectrum(monkeypatch, block):
    monkeypatch.setattr(spectral, "_BLOCK_MODES", block)
    walked = []

    def spy(params, ms):
        walked.append(ms)
        return rf.eigenvalue_arrays(params, ms)

    monkeypatch.setattr(spectral, "eigenvalue_arrays", spy)
    rng = np.random.default_rng(11)
    kinds = (random_valid_params, random_gate_true_params, random_underdamped_params,
             random_asymmetric_x_params)
    # random draws on the smallest rings; then one partial block, one block
    # less one mode, exactly one block, one block and one mode, several blocks
    # and a partial one
    for n in (3, 4, block // 2 + 3, block - 1, block, block + 1, 3 * block + 5):
        draws = [(kind.__name__, kind(rng, n), None) for kind in kinds for _ in range(2)]
        cases = draws if n < 5 else draws + [  # (name, params, (stable, marginal))
            ("stable", rf.FlockParams.nearest_neighbor(n, -2.0, -2.0), (True, False)),
            ("unstable", rf.FlockParams.nearest_neighbor(n, -2.0, -2.0, -0.3, -0.5, -0.7),
             (False, False)),
            ("marginal", rf.FlockParams.nearest_neighbor(n, -2.0, 0.0), (False, True)),
            # conjugate pairs with Re = lambda_v / 2 > 0, largest at |m| = n // 2:
            # on odd rings -m and +m and both branches tie
            ("tie", rf.FlockParams.nearest_neighbor(n, -2.0, 0.1), (False, False)),
            # two real roots at most modes, the "+" one with imaginary part -0.0
            ("overdamped", rf.FlockParams.nearest_neighbor(n, -2.0, -20.0), (True, False)),
            # two real roots at every mode, the largest at |m| = n // 2: on odd
            # rings -m has the roots of +m, labels unswapped
            ("real", rf.FlockParams.nearest_neighbor(n, 2.0, -20.0), (False, False)),
        ]
        for name, p, kind in cases:
            spec = rf.spectrum(p)
            want = _whole_spectrum_verdict(spec.ms, spec.nu_plus, spec.nu_minus)
            walked.clear()
            got = _verdict_fields(rf.spectral_verdict(p))
            assert repr(got) == repr(want), (n, name)
            assert np.array_equal(np.concatenate(walked), np.arange(1, n // 2 + 1)), (n, name)
            if kind is not None:
                assert got[:2] == kind, (n, name)
            if name in ("tie", "real") and n % 2:
                assert got[3][:2] == (-(n // 2), "+"), n


def test_verdict_prefers_a_root_above_its_band(monkeypatch):
    # Modes -5 and 10 have the largest real parts, but inside their bands
    # (1e-7); among the roots above their bands (1e-13) mode -6 beats mode 3.
    # The fake honours the mirror: the "-" root of mode m is the conjugate of
    # the "+" root of mode -m.  Blocks of 4 modes walk 1..4, 5..8, ...: mode 3
    # wins the first block, and -6 (walked with 6, beside -5) beats it in the
    # second.
    special = {-6: 5e-12 + 1e-3j, -5: 1e-11 + 1e3j, 3: 1e-12 + 1e-3j, 10: 2e-11 + 1e3j}

    def roots(params, ms):
        lam = 1j * np.sign(ms)  # symbols that are not real, mirrored at -m
        plus = np.array([special.get(int(m), -1.0 + 1j) for m in ms])
        minus = np.array([special.get(-int(m), -1.0 + 1j) for m in ms]).conjugate()
        return lam, lam, plus, minus

    monkeypatch.setattr(spectral, "_BLOCK_MODES", 4)
    monkeypatch.setattr(spectral, "eigenvalue_arrays", roots)
    p = rf.FlockParams.nearest_neighbor(40, -2.0, -2.0)
    ms = rf.mode_range(40)
    got = _verdict_fields(rf.spectral_verdict(p))
    assert repr(got) == repr(_whole_spectrum_verdict(ms, *roots(p, ms)[2:]))
    assert got == (False, False, 2e-11, (-6, "+", 5e-12 + 1e-3j))


def test_verdict_memory_does_not_grow_with_n():
    # building the whole spectrum of this ring peaks at about 130 MB
    p = rf.FlockParams.nearest_neighbor(10**6, -2.0, -2.0)
    tracemalloc.start()
    try:
        report = rf.spectral_verdict(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.spectral_stable is True
    assert peak < 4 * 2**20


def test_verdict_refuses_rings_above_the_cap():
    p = rf.FlockParams.nearest_neighbor(stability.VERDICT_N_MAX + 1, -2.0, -2.0)
    with pytest.raises(rf.RingflockError, match="^n=1073741825 exceeds the spectral verdict cap 1073741824$"):
        rf.spectral_verdict(p)


def _first_unstable_ring(p, n_max):
    """The least n in 3..n_max whose spectral verdict is unstable, or None.

    A ring is unstable iff a root of one of its modes 1..n//2 lies above its
    band (mode -m mirrors mode m in real part).  Every mode of every ring is
    evaluated with eigenvalue_arrays' arithmetic (its half-ring rule
    included), 64 rings at a time, in ascending n.
    """
    lo = 3
    while lo <= n_max:
        hi = min(n_max + 1, lo + 64)
        sizes = np.arange(lo, hi)
        ns = np.repeat(sizes, sizes // 2)
        ms = np.arange(ns.size) - np.repeat(np.cumsum(sizes // 2) - sizes // 2, sizes // 2) + 1
        lx, lv = spectral.lambda_curves(p, ms * (2.0 * np.pi / ns))
        half = 2 * ms == ns
        _, r1, r2 = spectral.root_pair(np.where(half, lx.real, lx), np.where(half, lv.real, lv))
        hit = ns[stability._band_sides(r1)[1] | stability._band_sides(r2)[1]]
        if hit.size:
            return int(hit[0])
        lo = hi
    return None


def _zero_center_params(rng, n):
    """A gate-true draw whose position row is given a zero center weight."""
    p = random_gate_true_params(rng, n)
    w = dyadic_nonzero(rng, -1, 1)
    return rf.FlockParams.nearest_neighbor(n, p.g_x, p.g_v, w, p.rho_v[1], -w, p.rho_v[-1])


def _tilted_params(rng, n):
    """A position row tilted by 1e-5 to 1e-1 with |g_v| from 0.05 to 3000
    (log-uniform): first unstable rings from a few agents to millions."""
    tilt = 10.0 ** rng.uniform(-5, -1) * rng.choice([-1.0, 1.0])
    g_v = -(10.0 ** rng.uniform(np.log10(0.05), np.log10(3000)))
    g_x = -dyadic_nonzero(rng, 0.3, 3, bits=10)
    rv1 = dyadic(rng, -1.2, 0.2)
    return rf.FlockParams.nearest_neighbor(n, g_x, g_v, -0.5 + tilt, rv1, -0.5 - tilt, -(1.0 + rv1))


@pytest.mark.parametrize("kind,draws,seed", [
    (random_valid_params, 100, 83),
    (random_asymmetric_x_params, 100, 89),
    (_zero_center_params, 60, 97),
    (_tilted_params, 10, 101),
    (_tilted_params, 10, 103),
    (_tilted_params, 10, 107),
    (_tilted_params, 10, 109),
], ids=["valid", "asymmetric", "zero-center", "tilted-a", "tilted-b", "tilted-c", "tilted-d"])
def test_witness_is_the_first_unstable_ring(kind, draws, seed):
    # The brute force walks every ring up to the witness, or up to 2048
    # when the witness is larger or missing (a marginal flock).
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < draws:
        p = kind(rng, 16)
        if rf.stable_for_all_n(p):
            continue
        try:
            n = rf.instability_witness(p).n
        except rf.RingflockError:
            n = None
        want = _first_unstable_ring(p, 2048 if n is None else min(n, 2048))
        assert want == (n if n is not None and n <= 2048 else None), p
        checked += 1


@pytest.mark.parametrize("kind,seed", [(random_valid_params, 5), (random_asymmetric_x_params, 7)],
                         ids=["valid", "asymmetric"])
def test_witness_agrees_with_the_dense_oracle(kind, seed):
    # Dyadic draws close their rows exactly, so the oracle's coherent pair is
    # exactly 0.  Its other eigenvalues are off by about 1e-12, so only draws
    # whose largest closed-form real parts at n and n - 1 sit 1e-6 or more
    # from zero are kept: there the oracle cannot flip a sign.
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < 20:
        p = kind(rng, 16)
        if rf.stable_for_all_n(p):
            continue
        n = rf.instability_witness(p).n
        rings = [k for k in (n, n - 1) if k >= 3]
        if n > 128 or min(abs(rf.spectral_verdict(p.with_n(k)).max_real_part)
                          for k in rings) < 1e-6:
            continue
        tops = [rf.dense_spectrum(rf.build_dense(p.with_n(k))).real.max() for k in rings]
        assert tops[0] > 1e-9, p
        assert all(top <= 1e-9 for top in tops[1:]), p
        checked += 1


def test_witness_found_for_asymmetric_row():
    rng = np.random.default_rng(79)
    p = random_asymmetric_x_params(rng, 8)
    found = rf.instability_witness(p)
    _, _, nu = found.witness
    assert nu.real > 0.0
    assert found.n == _first_unstable_ring(p, found.n)


def test_witness_immediate_for_positive_gx():
    p = rf.FlockParams.nearest_neighbor(8, 2.0, -2.0)
    found = rf.instability_witness(p)
    assert found.n == 3


@pytest.mark.parametrize("tilt,n", [(1e-7, 9935), (1e-9, 99347), (1e-10, 314161),
                                    (1e-11, 993475), (0.2, 8)])
def test_witness_of_a_tilted_position_row(tilt, n):
    # n is the first ring whose mode 1 clears its band, a little past the
    # Routh-Hurwitz threshold at the smallest tilts (99346, 314160, 993459).
    p = rf.FlockParams.nearest_neighbor(16, -2.0, -2.0, -0.5 + tilt, -0.5, -0.5 - tilt, -0.5)
    found = rf.instability_witness(p)
    assert found.n == n
    before = rf.spectral_verdict(p.with_n(n - 1))
    assert before.spectral_stable or before.marginal
    m, branch, nu = found.witness
    assert (m, branch) == (-1, "+") and nu.real > 0.0


@pytest.mark.parametrize("rho_v", [(-0.5, -0.5), (-0.25, 0.25)], ids=["g_v-0", "rho_v0-0"])
def test_witness_refuses_a_marginal_flock(rho_v):
    # With a symmetric position row, g_v = 0 or a zero velocity center weight
    # leaves lambda_v**2 / 4 + lambda_x real and negative: every root lies on
    # the imaginary axis, at every ring size.
    g_v = 0.0 if rho_v == (-0.5, -0.5) else -2.0
    p = rf.FlockParams.nearest_neighbor(8, -2.0, g_v, -0.5, rho_v[1], -0.5, rho_v[0])
    with pytest.raises(rf.RingflockError,
                       match="^no ring up to n=4611686018427387904 has a root above"):
        rf.instability_witness(p)


def test_witness_refuses_stable_gate():
    p = rf.FlockParams.nearest_neighbor(8, -2.0, -2.0)
    with pytest.raises(rf.RingflockError, match="parameters pass the closed-form gate"):
        rf.instability_witness(p)
