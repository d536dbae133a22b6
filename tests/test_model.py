import math
import re
from dataclasses import replace

import numpy as np
import pytest

import ringflock as rf
from ringflock import model
from helpers import random_gate_true_params, random_valid_params


def test_validate_symmetric_row_ok():
    rows = dict(rho_x={-1: -0.5, 0: 1.0, 1: -0.5}, rho_v={-1: -0.5, 0: 1.0, 1: -0.5})
    p = rf.FlockParams(n=10, g_x=-2.0, g_v=-2.0, **rows)
    assert p.rho_x == rows["rho_x"] and p.rho_v == rows["rho_v"]
    # stored rows are fresh read-only mappings; the caller's are left alone
    assert p.rho_x is not rows["rho_x"] and p.rho_v is not rows["rho_v"]
    with pytest.raises(TypeError):
        p.rho_x[0] = 2.0


def test_validate_row_sum_violation():
    with pytest.raises(rf.RingflockError, match="rho_x row sum 1.000e-01 exceeds 1e-12"):
        rf.FlockParams(n=10, g_x=-2.0, g_v=-2.0,
                       rho_x={-1: -0.5, 0: 1.0, 1: -0.4},
                       rho_v={-1: -0.5, 0: 1.0, 1: -0.5})


def test_validate_bad_agent_count():
    with pytest.raises(rf.RingflockError, match="n=2 is below 3"):
        rf.FlockParams.nearest_neighbor(2, -2.0, -2.0)
    with pytest.raises(rf.RingflockError, match="n=2 is below 3"):
        rf.FlockParams.nearest_neighbor(10, -2.0, -2.0).with_n(2)


@pytest.mark.parametrize("n", [4.0, 16.5, np.float64(16.0), "16", None, True],
                         ids=["4.0", "16.5", "float64-16", "str-16", "None", "True"])
def test_validate_rejects_non_integer_agent_count(n):
    # A float ring size would reach the integer mode arithmetic downstream.
    with pytest.raises(rf.RingflockError) as exc:
        rf.FlockParams.nearest_neighbor(n, -2.0, -1.0)
    assert str(exc.value) == f"agent count n={n!r} is not an integer"
    with pytest.raises(rf.RingflockError, match="is not an integer"):
        rf.FlockParams.nearest_neighbor(16, -2.0, -1.0).with_n(n)


def test_ring_sizes_beyond_int64_are_refused():
    # Modes are indexed in int64, so a larger ring is refused when it is built;
    # near 2**63 numpy cannot build the mode range, and spectrum says so.
    p = rf.FlockParams.nearest_neighbor(16, -2.0, -1.0)
    for n in (2**63, np.uint64(2**63), 10**30):
        with pytest.raises(rf.RingflockError, match=f"^agent count n={n} exceeds int64, "):
            p.with_n(n)
    big = p.with_n(2**63 - 1)
    with pytest.raises(rf.RingflockError,
                       match=f"^n={2**63 - 1} modes are more than numpy can index$"):
        rf.spectrum(big)
    assert np.isfinite(rf.eigenvalue_arrays(big, [1, -1])).all()
    assert all(c.all() for c in rf.routh_hurwitz(big, [1, -1]))


def test_sizes_above_the_limit_are_named():
    # A (2, n) complex128 array takes 32 n bytes; numpy refuses more than
    # intp max bytes.  The first size refused is named, never allocated.
    assert model._SIZE_MAX == np.iinfo(np.intp).max // 32
    model._check_size("n", model._SIZE_MAX, "modes")
    n = model._SIZE_MAX + 1
    with pytest.raises(rf.RingflockError, match=f"^n={n} modes are more than numpy can index$"):
        rf.mode_range(n)
    with pytest.raises(rf.RingflockError, match=f"^n={n} agents are more than numpy can index$"):
        rf.impulse_experiment(rf.FlockParams.nearest_neighbor(n, -2.0, -1.0))
    with pytest.raises(rf.RingflockError,
                       match=f"^n_phi={n} samples are more than numpy can index$"):
        rf.eigencurve(rf.FlockParams.nearest_neighbor(16, -2.0, -1.0), n)


@pytest.mark.parametrize("call, message", [
    (lambda: rf.moments(rf.FlockParams.nearest_neighbor(16, -2.0, -1.0), 0),
     "lmax must be at least 1"),
    (lambda: rf.max_matching_distance([0j], [0j, 1j]), "multiset sizes differ: 1 vs 2"),
    (lambda: rf.FlockParams(n=16, g_x=-2.0, g_v=-2.0, rho_x={-1: 1e308, 0: 0.0, 1: 1e308},
                            rho_v={-1: -0.5, 0: 1.0, 1: -0.5}),
     "rho_x row sum inf exceeds 1e-12"),
], ids=["moments-lmax-0", "matching-sizes-differ", "row-sum-overflow"])
def test_guards_refuse_bad_input(call, message):
    with pytest.raises(rf.RingflockError, match=f"^{re.escape(message)}$"):
        call()


def test_validate_accepts_numpy_integer_agent_count():
    p = rf.FlockParams.nearest_neighbor(np.int64(16), -2.0, -1.0)
    assert p.n == 16
    assert rf.spectral_verdict(p).spectral_stable


def test_violations_are_joined_in_check_order():
    rows = dict(rho_x={-1: -0.5, 0: 1.0, 1: -0.4}, rho_v={-1: -0.5, 0: 1.0, 1: -0.5, 2: 0.0})
    cases = [
        (dict(n=2, g_x=-2.0, **rows),
         "agent count n=2 is below 3; rho_x row sum 1.000e-01 exceeds 1e-12; "
         "rho_v has weights outside the neighborhood: [2]"),
        (dict(n=10, g_x=-2.0, **rows),
         "rho_x row sum 1.000e-01 exceeds 1e-12; "
         "rho_v has weights outside the neighborhood: [2]"),
        (dict(n=10, g_x=math.nan, rho_x={-1: -0.5, 0: 1.0, 1: -0.5}, rho_v=rows["rho_v"]),
         "g_x=nan is not finite; rho_v has weights outside the neighborhood: [2]"),
    ]
    for kwargs, message in cases:
        with pytest.raises(rf.RingflockError) as exc:
            rf.FlockParams(g_v=-2.0, **kwargs)
        assert type(exc.value) is rf.RingflockError
        assert str(exc.value) == message


@pytest.mark.parametrize("field,value", [
    ("g_x", math.nan), ("g_v", math.inf),
    ("rho_x", {-1: -0.5, 0: math.nan, 1: -0.5}),
    ("rho_v", {-1: -math.inf, 0: math.inf, 1: 0.0}),
], ids=["g_x-nan", "g_v-inf", "rho_x-nan", "rho_v-inf"])
def test_validate_rejects_nonfinite(field, value):
    p = rf.FlockParams.nearest_neighbor(10, -2.0, -2.0)
    with pytest.raises(rf.RingflockError, match="not finite|non-finite") as exc:
        replace(p, **{field: value})
    assert type(exc.value) is rf.RingflockError
    assert ";" not in str(exc.value)  # exactly one problem


def test_validate_recloses_tiny_row_sum():
    rho_x = {-1: -0.5, 0: 1.0 + 3e-13, 1: -0.5}
    v = rf.FlockParams(n=10, g_x=-2.0, g_v=-2.0, rho_x=rho_x,
                       rho_v={-1: -0.5, 0: 1.0, 1: -0.5})
    assert abs(math.fsum(v.rho_x.values())) < 1e-16
    assert v.rho_x[0] == 1.0
    assert rho_x[0] == 1.0 + 3e-13  # the caller's dict is not mutated


def test_construction_fills_missing_offsets():
    p = rf.FlockParams(n=10, g_x=-2.0, g_v=-1.0,
                       rho_x={-1: -0.5, 1: -0.5, 0: 1.0}, rho_v={-1: -1.0, 0: 1.0})
    assert list(p.rho_x) == [-1, 0, 1]
    assert p.rho_v == {-1: -1.0, 0: 1.0, 1: 0.0}


def test_unclosed_row_rejected_instead_of_evolving():
    # rho_x sums to 1, so g_x rho_x would pull every agent toward an
    # absolute position; this used to evolve silently as if decentralized.
    with pytest.raises(rf.RingflockError, match="rho_x row sum 1.000e\\+00"):
        rf.FlockParams(n=8, g_x=-2.0, g_v=-1.0,
                       rho_x={-1: -0.5, 0: 2.0, 1: -0.5},
                       rho_v={-1: -0.5, 0: 1.0, 1: -0.5})


def test_replace_and_normalize_are_checked():
    p = rf.FlockParams.nearest_neighbor(10, -2.0, -2.0)
    with pytest.raises(rf.RingflockError, match="g_x=nan is not finite"):
        replace(p, g_x=math.nan)
    with pytest.raises(rf.RingflockError, match="rho_v row sum 5.000e-01 exceeds 1e-12"):
        replace(p, rho_v={-1: -0.5, 0: 1.5, 1: -0.5})
    q = replace(p, rho_x={-1: -1.0, 0: 2.0 - 1e-13, 1: -1.0})
    assert q.rho_x[0] == 2.0
    assert rf.normalize(q).rho_x == {-1: -0.5, 0: 1.0, 1: -0.5}


def test_normalize_rescales():
    p = rf.FlockParams(n=10, g_x=-1.0, g_v=-2.0,
                       rho_x={-1: -1.0, 0: 2.0, 1: -1.0},
                       rho_v={-1: -0.5, 0: 1.0, 1: -0.5})
    q = rf.normalize(p)
    assert q.g_x == -2.0
    assert q.rho_x == {-1: -0.5, 0: 1.0, 1: -0.5}


def test_normalize_identity_when_normalized():
    p = rf.FlockParams.nearest_neighbor(10, -2.0, -2.0)
    q = rf.normalize(p)
    assert q.g_x == p.g_x and q.g_v == p.g_v
    assert q.rho_x == p.rho_x and q.rho_v == p.rho_v


def test_normalize_negative_center():
    p = rf.FlockParams(n=10, g_x=-2.0, g_v=3.0,
                       rho_x={-1: -0.5, 0: 1.0, 1: -0.5},
                       rho_v={-1: -2.0, 0: -1.0, 1: 3.0})
    q = rf.normalize(p)
    assert q.g_v == -3.0
    assert q.rho_v == {-1: 2.0, 0: 1.0, 1: -3.0}


def test_normalize_zero_center_rejected():
    p = rf.FlockParams(n=10, g_x=-2.0, g_v=-2.0,
                       rho_x={-1: -0.5, 0: 1.0, 1: -0.5},
                       rho_v={-1: -1.0, 0: 0.0, 1: 1.0})
    with pytest.raises(rf.RingflockError, match=r"normalization needs rho_x\[0\] != 0"):
        rf.normalize(p)


def test_normalize_idempotent_and_moment_preserving():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = random_valid_params(rng, 12)
        if p.rho_x[0] == 0.0 or p.rho_v[0] == 0.0:
            continue
        q = rf.normalize(p)
        q2 = rf.normalize(q)
        assert q2.g_x == pytest.approx(q.g_x, rel=1e-15)
        for j in (-1, 0, 1):
            assert q2.rho_x[j] == pytest.approx(q.rho_x[j], rel=1e-15, abs=1e-15)
        m0 = rf.moments(p, 5)
        m1 = rf.moments(q, 5)
        np.testing.assert_allclose(m1.x, m0.x, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(m1.v, m0.v, rtol=1e-13, atol=1e-13)


def test_moments_normalized_symmetric():
    p = rf.FlockParams.nearest_neighbor(10, -2.0, -2.0)
    m = rf.moments(p, 2)
    assert m.x[1] == 0.0
    assert m.x[2] == 2.0


def test_moments_one_sided_velocity_row():
    p = rf.FlockParams(n=10, g_x=-2.0, g_v=-1.0,
                       rho_x={-1: -0.5, 0: 1.0, 1: -0.5},
                       rho_v={-1: -1.0, 0: 1.0, 1: 0.0})
    m = rf.moments(p, 1)
    assert m.v[1] == -1.0


def test_moments_odd_vanish_for_symmetric_rows():
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = rng.uniform(-1, 0)
        p = rf.FlockParams.nearest_neighbor(16, rng.uniform(-3, -0.5), -1.0, w, -0.5)
        m = rf.moments(p, 5)
        assert m.x[1] == m.x[3] == m.x[5] == 0.0


def test_moments_stable_family_even_odd_pattern():
    # normalized stable nearest-neighbor rows: odd position moments vanish,
    # even ones equal -g_x
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = random_gate_true_params(rng, 32)
        m = rf.moments(p, 5)
        for ell in (1, 3, 5):
            assert m.x[ell] == pytest.approx(0.0, abs=1e-14)
        for ell in (2, 4):
            assert m.x[ell] == pytest.approx(-p.g_x, rel=1e-14)


def test_build_dense_rows_n3():
    p = rf.FlockParams.nearest_neighbor(3, -2.0, -2.0)
    sys = rf.build_dense(p)
    gx_lx = sys.m[3:, :3]
    np.testing.assert_allclose(gx_lx, [[-2, 1, 1], [1, -2, 1], [1, 1, -2]])


def test_build_dense_kernel_and_structure():
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = random_valid_params(rng, 9)
        sys = rf.build_dense(p)
        n = p.n
        coherent = np.concatenate([np.ones(n), np.zeros(n)])
        assert np.abs(sys.m @ coherent).max() < 1e-13
        assert np.abs(sys.l_x.sum(axis=1)).max() < 1e-14
        assert np.abs(sys.l_v.sum(axis=1)).max() < 1e-14
        # circulant: entry depends only on (column - row) mod n
        for k in range(n):
            np.testing.assert_array_equal(sys.l_x[k], np.roll(sys.l_x[0], k))


def test_dense_zero_has_multiplicity_two():
    rng = np.random.default_rng(29)
    for n in (8, 16):
        p = random_gate_true_params(rng, n)
        nus = rf.dense_spectrum(rf.build_dense(p))
        small = np.abs(nus) < 1e-8
        assert small.sum() == 2
