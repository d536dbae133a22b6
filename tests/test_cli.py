import ast
import contextlib
import io
import math
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ringflock import errors
from ringflock.cli import DEFAULTS, build_params, main
from ringflock.sim import impulse_experiment

STABLE = """
n = 500
g_x = -2
g_v = -1
"""

ASYM_X = """
n = 64
g_x = -1
g_v = -1
rho_x.m1 = -0.4
rho_x.0 = 1
rho_x.p1 = -0.6
"""

UNSTABLE_GV = """
n = 64
g_v = 2
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, tmp_path, command, text, extra=()):
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out), *extra])
    captured = capsys.readouterr()
    return code, captured.out, out


def kv(stdout, key):
    for line in stdout.splitlines():
        if line.startswith(key + "="):
            return line.split("=", 1)[1].split("#")[0].strip()
    raise KeyError(key)


def test_config_error_has_line_number(tmp_path, capsys):
    cfg = write(tmp_path, "n = 100\nthis line is wrong\n")
    code = main(["stability", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert ":2:" in err


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = write(tmp_path, "g_z = 1\n")
    assert main(["stability", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert ":1:" in capsys.readouterr().err


def test_config_bad_value_rejected(tmp_path, capsys):
    cfg = write(tmp_path, "n = 12\ng_x = minus_two\n")
    assert main(["stability", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert ":2:" in capsys.readouterr().err


def test_stability_stable_config(tmp_path, capsys):
    code, out, out_dir = run(capsys, tmp_path, "stability", STABLE)
    assert code == 0
    assert kv(out, "closed_form") == "true"
    assert kv(out, "spectral") == "true"
    assert (out_dir / "resolved_config").exists()
    resolved = (out_dir / "resolved_config").read_text()
    assert "n=500" in resolved


def test_stability_asymmetric_config_finds_witness(tmp_path, capsys):
    code, out, _ = run(capsys, tmp_path, "stability", ASYM_X)
    assert code == 2
    assert int(kv(out, "witness_n")) <= 4096
    assert float(kv(out, "witness_re")) > 0.0


def test_stability_searched_witness_prints_like_a_direct_one(tmp_path, capsys):
    # A 1% tilt of the position row is stable at n = 16; the search finds
    # the first unstable ring at n = 128.
    text = ("n = 16\ng_x = -1\ng_v = -3\n"
            "rho_x.m1 = -0.495\nrho_x.0 = 1\nrho_x.p1 = -0.505\n")
    code, out, _ = run(capsys, tmp_path, "stability", text)
    assert code == 2
    assert kv(out, "spectral") == "true"
    keys = [line.split("=")[0] for line in out.splitlines()[4:]]
    assert keys == ["witness_m", "witness_n", "witness_branch", "witness_re"]
    assert (kv(out, "witness_m"), kv(out, "witness_n"), kv(out, "witness_branch")) == \
        ("1", "128", "+")
    assert float(kv(out, "witness_re")) > 0.0


def test_stability_unstable_velocity_gain(tmp_path, capsys):
    code, out, _ = run(capsys, tmp_path, "stability", UNSTABLE_GV)
    assert code == 2
    assert kv(out, "closed_form") == "false"


def test_spectrum_emits_files(tmp_path, capsys):
    code, out, out_dir = run(capsys, tmp_path, "spectrum", STABLE)
    assert code == 0
    rows = (out_dir / "spectrum.csv").read_text().strip().splitlines()
    assert rows[0] == ("m,re_lambda_x,im_lambda_x,re_lambda_v,im_lambda_v,"
                       "re_nu_plus,im_nu_plus,re_nu_minus,im_nu_minus")
    assert len(rows) == 1 + 500
    curve_rows = (out_dir / "eigencurve.csv").read_text().strip().splitlines()
    assert curve_rows[0] == "phi,re_nu_1,im_nu_1,re_nu_2,im_nu_2"
    first = np.array(curve_rows[1].split(","), dtype=float)
    last = np.array(curve_rows[-1].split(","), dtype=float)
    np.testing.assert_allclose(first[1:], last[1:], atol=1e-9)
    assert float(kv(out, "hausdorff")) > 0.0


def test_spectrum_hausdorff_decreases_with_n(tmp_path, capsys):
    cfg = write(tmp_path, STABLE)
    values = []
    for n in (100, 1000):
        out = tmp_path / f"out{n}"
        code = main(["spectrum", "--config", cfg, "--out", str(out), "--n", str(n)])
        assert code == 0
        values.append(float(kv(capsys.readouterr().out, "hausdorff")))
    assert values[1] < values[0]


def test_velocities_symmetric_prints_unit_speeds(tmp_path, capsys):
    code, out, out_dir = run(capsys, tmp_path, "velocities", STABLE)
    assert code == 0
    assert kv(out, "c_plus") == "1.000000"
    assert kv(out, "c_minus") == "-1.000000"
    rows = (out_dir / "velocities.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 250


def test_velocities_unstable_config(tmp_path, capsys):
    code, out, _ = run(capsys, tmp_path, "velocities", UNSTABLE_GV)
    assert code == 2


def test_simulate_deterministic_and_complete(tmp_path, capsys):
    text = "n = 64\ng_x = -2\ng_v = -1\nt_end = 25\n"
    cfg = write(tmp_path, text)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(["simulate", "--config", cfg, "--out", str(out)])
        assert code == 0
        outs.append(out)
    capsys.readouterr()
    for name in ("trajectory.csv", "wavefront.csv", "orbits.csv", "resolved_config"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    front_rows = (outs[0] / "wavefront.csv").read_text().strip().splitlines()
    assert len(front_rows) == 1 + 64
    frames = {row.split(",")[0]
              for row in (outs[0] / "trajectory.csv").read_text().splitlines()[1:]}
    orbit_rows = (outs[0] / "orbits.csv").read_text().splitlines()
    assert orbit_rows[0] == "t,front_plus_x,front_minus_x"
    assert len(orbit_rows) == 1 + len(frames)


def test_simulate_csv_floats_round_trip_exactly(tmp_path, capsys):
    code, out, out_dir = run(capsys, tmp_path, "simulate", "n = 16\nt_end = 2\n")
    assert code == 0
    params = build_params({**DEFAULTS, "n": 16})
    traj, front = impulse_experiment(params, v_impulse=1.0, t_end=2.0)
    n = params.n

    rows = (out_dir / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "t,k,z,zdot"
    cells = [row.split(",") for row in rows[1:]]
    assert len(cells) == traj.times.size * n
    t, ks, z, zdot = zip(*cells)
    assert all(cell.isdigit() for cell in ks)
    assert [int(cell) for cell in ks] == list(range(n)) * traj.times.size
    for column, want in ((t, np.repeat(traj.times, n)), (z, traj.z.ravel()),
                         (zdot, traj.zdot.ravel())):
        assert [float(cell) for cell in column] == want.tolist()

    assert front.no_arrival
    rows = (out_dir / "wavefront.csv").read_text().splitlines()[1:]
    arrival = [row.split(",")[1] for row in rows]
    assert [k for k, cell in enumerate(arrival) if cell == "nan"] == front.no_arrival
    for k, cell in enumerate(arrival):
        if k not in front.no_arrival:
            assert float(cell) == front.arrival_time[k]


def test_simulate_lists_no_arrival_agents(tmp_path, capsys):
    code, out, _ = run(capsys, tmp_path, "simulate",
                       "n = 200\ng_x = -2\ng_v = -1\nt_end = 10\n")
    assert code == 0
    assert int(kv(out, "no_arrival_count")) > 0
    assert "no_arrival=" in out


def test_wave_verify_flags_large_alpha(tmp_path, capsys):
    text = "n = 128\ng_x = -2\ng_v = -1\nalpha = 0.5\nn_sweep = 128\n"
    code, out, _ = run(capsys, tmp_path, "wave-verify", text)
    assert code == 0
    assert kv(out, "alpha_guarantee") == "false"


def test_wave_verify_bound_and_decay(tmp_path, capsys):
    text = "g_x = -2\ng_v = -1\nn_sweep = 128,256\nseed = 12\n"
    code, out, out_dir = run(capsys, tmp_path, "wave-verify", text)
    assert code == 0
    assert kv(out, "alpha_guarantee") == "true"
    assert kv(out, "rel_error_monotone") == "true"
    rows = (out_dir / "wave_verify.csv").read_text().strip().splitlines()
    assert rows[0] == "n,t,measured_error,bound_term1,bound_term2,bound_term3"
    data = np.array([r.split(",") for r in rows[1:]], dtype=float)
    assert (data[:, 2] <= data[:, 3] + data[:, 4] + data[:, 5] + 1e-9).all()


# Gains this large overflow the pencil roots to inf/nan.
OVERFLOW = "g_x = -1e308\ng_v = -1e308\n"


@pytest.mark.parametrize("command,text", [
    ("stability", "g_x = nan\n"),
    ("wave-verify", "n_sweep = 2\n"),
    ("spectrum", "n = 16\nn_phi = 3\n"),
    ("simulate", "n = 16\nt_end = nan\n"),
    ("wave-verify", "K = nan\nn_sweep = 64\n"),
    ("wave-verify", "p = nan\nn_sweep = 64\n"),
    ("simulate", "n = 16\nt_end = -1\n"),
    ("simulate", "n = 16\nt_end = 0\n"),
    ("simulate", "n = 16\nv_impulse = nan\n"),
    ("simulate", "n = 16\nv_impulse = 0\n"),
    ("wave-verify", "alpha = 0.9\nn_sweep = 64\n"),
    ("wave-verify", "g_v = 1\nn_sweep = 64\n"),
    ("wave-verify", "K = inf\nn_sweep = 64\n"),
    ("wave-verify", "p = inf\nn_sweep = 64\n"),
    ("stability", f"n = 16\n{OVERFLOW}"),
    ("spectrum", f"n = 16\n{OVERFLOW}"),
    ("wave-verify", f"{OVERFLOW}n_sweep = 64\n"),
    ("wave-verify", "n_sweep = 128,64\n"),
    ("simulate", f"n = 16\n{OVERFLOW}"),
    ("simulate", "n = 16\nt_end = 1e300\nv_impulse = 1e300\n"),
    ("stability", "n = 16\nrho_v.0 = 1e308\nrho_v.p1 = 1e308\n"),
    ("stability", "n = 16\nrho_x.m1 = -4.5e307\nrho_x.0 = 9e307\nrho_x.p1 = -4.5e307\n"),
    ("simulate", "n = 16\nrho_v.m1 = 0\nrho_v.0 = 1e308\nrho_v.p1 = -1e308\n"),
    # 7 PiB each: beyond the address space, so numpy's allocation fails
    ("spectrum", "n = 16\nn_phi = 1000000000000000\n"),
    ("stability", "n = 1000000000000000\n"),
], ids=["g_x-nan", "n_sweep-2", "n_phi-3", "t_end-nan", "K-nan", "p-nan",
        "t_end-negative", "t_end-0", "v_impulse-nan", "v_impulse-0",
        "alpha-0.9", "wave-verify-unstable", "K-inf", "p-inf",
        "stability-overflow", "spectrum-overflow", "wave-verify-overflow",
        "n_sweep-decreasing", "simulate-overflow", "state-overflow",
        "row-sum-overflow", "symbol-overflow", "expansion-overflow",
        "n_phi-unallocatable", "n-unallocatable"])
def test_bad_value_exits_1_with_one_line(tmp_path, capsys, command, text):
    code = main([command, "--config", write(tmp_path, text), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    if text.endswith(OVERFLOW):
        assert "gains" in captured.err


@pytest.mark.parametrize("text", [
    "n = 16\nt_end = 1e300\n",
    # the phases of the decayed modes overflow float64 as well
    "n = 16\nt_end = 1e308\n",
    # overdamped at every mode; c_+ t overflows in the front overlay
    "n = 16\ng_x = -392\ng_v = -1340\nrho_x.m1 = -292.5\nrho_x.0 = 585\n"
    "rho_x.p1 = -292.5\nt_end = 5.3e305\n",
], ids=["t_end-1e300", "t_end-1e308", "front-overflow"])
def test_simulate_long_run_returns(tmp_path, capsys, text):
    # The exact evolution costs the same at any t_end; a stepped integrator
    # would need about 5e301 steps at t_end = 1e300.
    code, _, out_dir = run(capsys, tmp_path, "simulate", text)
    assert code == 0
    data = np.loadtxt(out_dir / "trajectory.csv", delimiter=",", skiprows=1)
    assert data.shape == (2001 * 16, 4)
    assert np.isfinite(data).all()


def test_one_package_error_type():
    # ConfigError gives the "config error:" prefix and DegenerateBranches
    # velocities' exit 3; every other failure is a plain RingflockError.
    classes = {name for name, obj in vars(errors).items() if isinstance(obj, type)}
    assert classes == {"RingflockError", "ConfigError", "DegenerateBranches"}
    assert errors.RingflockError.__bases__ == (ValueError,)
    assert errors.ConfigError.__bases__ == (errors.RingflockError,)
    assert errors.DegenerateBranches.__bases__ == (errors.RingflockError,)
    for path in Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                assert node.exc.func.id in classes, f"{path.name}:{node.lineno}"


def test_wave_verify_negative_ring_is_a_bad_agent_count(tmp_path, capsys):
    code = main(["wave-verify", "--config", write(tmp_path, "n_sweep = -5,64\n"),
                 "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: agent count n=-5 is below 3\n"


def test_simulate_long_run_prints_default_fits(tmp_path, capsys):
    code, out, _ = run(capsys, tmp_path, "simulate", "n = 16\nt_end = 1e308\n")
    assert code == 0
    assert kv(out, "fitted_c_plus") == kv(out, "fitted_c_minus") == "nan"
    code, out, _ = run(capsys, tmp_path, "simulate", "t_end = 3e4\n")
    assert code == 0
    _, front = impulse_experiment(build_params(DEFAULTS))
    assert float(kv(out, "fitted_c_plus")) == front.fitted_c_plus
    assert float(kv(out, "fitted_c_minus")) == front.fitted_c_minus


_SPECIAL = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-300, -1e-300, 0.0]
_NUMBER = st.one_of(st.sampled_from(_SPECIAL), st.floats(-5.0, 5.0))


@st.composite
def _config(draw):
    """Fuzzed simulate keys; a key left out keeps its default.  Negative
    gains and closed, symmetric rows come up often, so that many draws pass
    the stability gate and run."""
    gain = st.one_of(st.none(), _NUMBER, st.floats(-5.0, -0.01))
    weight = st.one_of(st.floats(-2.0, 2.0), _NUMBER)
    values = {"g_x": draw(gain), "g_v": draw(gain),
              "t_end": draw(st.one_of(st.none(), _NUMBER)),
              "v_impulse": draw(st.one_of(st.none(), _NUMBER))}
    for row in ("rho_x", "rho_v"):
        shape = draw(st.sampled_from(["default", "symmetric", "closed", "any"]))
        if shape != "default":
            m1 = draw(weight)
            p1 = m1 if shape == "symmetric" else draw(weight)
            center = draw(weight) if shape == "any" else -(m1 + p1)
            values.update({f"{row}.m1": m1, f"{row}.0": center, f"{row}.p1": p1})
    return "".join(f"{key} = {value!r}\n" for key, value in values.items()
                   if value is not None)


def _run_fuzzed(tmp_path, command, text):
    """Run one fuzzed config at n = 16 and check that it ends cleanly: an exit
    code in {0,1,2,3}, one stderr line and no stdout on exit 1, an empty
    stderr (warnings included) otherwise."""
    out_dir = tmp_path / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main([command, "--config", write(tmp_path, text), "--out", str(out_dir),
                     "--n", "16"])
    # A warning would reach a real run's stderr.
    err = stderr.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert len(err.splitlines()) == 1
        assert stdout.getvalue() == ""
    else:
        assert err == ""
    return code, stdout.getvalue(), out_dir


_FUZZ = settings(derandomize=True, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@settings(_FUZZ, max_examples=100)
@given(_config())
def test_simulate_fuzzed_config_ends_cleanly(tmp_path, text):
    code, _, out_dir = _run_fuzzed(tmp_path, "simulate", text)
    if code == 0:
        cells = (out_dir / "trajectory.csv").read_text().lower()
        assert "nan" not in cells and "inf" not in cells


@pytest.mark.parametrize("command,keys", [
    ("stability", ""),
    ("spectrum", "n_phi = 64\n"),
    ("velocities", ""),
    ("wave-verify", "n_sweep = 64,128\n"),
], ids=["stability", "spectrum", "velocities", "wave-verify"])
@settings(_FUZZ, max_examples=50)
@given(text=_config())
def test_subcommand_fuzzed_config_ends_cleanly(tmp_path, command, keys, text):
    code, stdout, out_dir = _run_fuzzed(tmp_path, command, text + keys)
    if code != 1:
        assert "nan" not in stdout.lower()
    for csv in out_dir.glob("*.csv"):
        cells = csv.read_text().lower()
        assert "nan" not in cells and "inf" not in cells, csv.name
