from dataclasses import replace

import numpy as np
import pytest

import ringflock as rf
from helpers import (
    random_asymmetric_x_params,
    random_gate_true_params,
    random_valid_params,
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
    with pytest.raises(rf.RingflockError, match="mode m=0 carries the coherent double zero"):
        rf.routh_hurwitz(p, 0)


def test_routh_all_hold_for_stable_params():
    p = rf.FlockParams.nearest_neighbor(64, -2.0, -1.0)
    for m in (1, 7, 20, 32):
        assert rf.routh_hurwitz(p, m) == (True, True, True, True)


def test_routh_first_condition_fails_for_positive_gv():
    p = rf.FlockParams.nearest_neighbor(512, -2.0, 2.0)
    conds = rf.routh_hurwitz(p, 1)
    assert conds[0] is False
    # the verdict counts the same violated (mode, condition) pairs
    q = p.with_n(16)
    failed = [c for m in rf.mode_range(16) if m != 0 for c in rf.routh_hurwitz(q, m) if not c]
    assert rf.spectral_verdict(q).rh_failures == len(failed) > 0


def test_routh_reduces_to_real_part_signs_when_symmetric():
    rng = np.random.default_rng(61)
    for _ in range(20):
        p = random_valid_params(rng, 24)
        rho_x = dict(p.rho_x)
        rho_x[-1] = rho_x[1]
        rho_x[0] = -(rho_x[1] + rho_x[-1])
        p = rf.FlockParams(n=p.n, g_x=p.g_x, g_v=p.g_v, rho_x=rho_x, rho_v=p.rho_v)
        for m in range(1, p.n):
            lx, lv = rf.laplacian_eigenvalues(p, m)
            assert lx.imag == 0.0
            reduced = (lx.real < 0.0) and (lv.real < 0.0)
            assert all(rf.routh_hurwitz(p, m)) == reduced


def test_verdict_stable_at_large_n():
    rng = np.random.default_rng(67)
    p = random_gate_true_params(rng, 500)
    report = rf.spectral_verdict(p)
    assert report.closed_form_stable is True
    assert report.spectral_stable is True
    assert report.witness is None
    assert report.max_real_part < 0.0
    assert report.rh_failures == 0


def test_verdict_asymmetric_unstable_at_large_n_with_low_mode_witness():
    rng = np.random.default_rng(71)
    p = random_asymmetric_x_params(rng, 8)
    report = rf.spectral_verdict(p, n=4096)
    assert report.spectral_stable is False
    m, _, nu = report.witness
    assert nu.real > 0.0
    # the destabilized branch lives at low angles (the maximizing angle is
    # n-independent, so the witness index scales with n but phi stays small)
    assert abs(m) * 2.0 * np.pi / 4096 < 1.0


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


def test_witness_found_for_asymmetric_row():
    rng = np.random.default_rng(79)
    p = random_asymmetric_x_params(rng, 8)
    found = rf.instability_witness(p)
    assert found is not None
    _, _, nu = found.witness
    assert nu.real > 0.0
    assert found.n <= 4096


def test_witness_immediate_for_positive_gx():
    p = rf.FlockParams.nearest_neighbor(8, 2.0, -2.0)
    found = rf.instability_witness(p)
    assert found is not None
    assert found.n == 8


def test_witness_refuses_stable_gate():
    p = rf.FlockParams.nearest_neighbor(8, -2.0, -2.0)
    with pytest.raises(rf.RingflockError, match="parameters pass the closed-form gate"):
        rf.instability_witness(p)
