import ast
import compileall
import contextlib
import io
import itertools
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import random_gate_true_params
from ringflock import cli, errors, spectral, wavefield
from ringflock.cli import DEFAULTS, build_params, main
from ringflock.sim import impulse_experiment
from ringflock.spectral import eigencurve, hausdorff, spectrum
from test_golden import CONFIGS as GOLDEN_CONFIGS, SMALL_RUN

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
rho_x.p1 = -0.6
"""

UNSTABLE_GV = """
n = 64
g_v = 2
"""


def _modules_after(code, prefix="scipy"):
    """The modules named prefix or prefix.* loaded once a fresh interpreter
    has run code."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code += ("; import sys; print([m for m in sys.modules"
             f" if m == {prefix!r} or m.startswith({prefix + '.'!r})])")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_cli_import_loads_no_scipy():
    # No module of the package imports scipy, whose optimize package alone
    # takes about 0.6 s to import.
    assert _modules_after("import ringflock.cli") == "[]"


def test_spectrum_loads_no_scipy(tmp_path):
    # spectrum's Hausdorff search needs no scipy either.
    cfg = write(tmp_path, "")
    args = ["spectrum", "--config", cfg, "--out", str(tmp_path / "out"), "--n", "200"]
    assert _modules_after(f"from ringflock.cli import main; main({args!r})") == "[]"


@pytest.mark.parametrize("command,loaded", [
    ("stability", "[]"), ("spectrum", "['ringflock.csvtext']"),
], ids=["stability", "spectrum"])
def test_csv_module_loads_only_for_csv_output(tmp_path, command, loaded):
    # stability writes no CSV, so it never imports the CSV renderer.
    cfg = write(tmp_path, "n = 16\nn_phi = 64\n")
    args = [command, "--config", cfg, "--out", str(tmp_path / "out")]
    code = f"from ringflock.cli import main; main({args!r})"
    assert _modules_after(code, "ringflock.csvtext") == loaded


def test_wave_verify_loads_no_numpy_random(tmp_path):
    # The synthetic phases come from the stdlib random module, which every
    # interpreter has loaded at start; numpy.random adds about 5.5 MB of RSS.
    cfg = write(tmp_path, "")
    args = ["wave-verify", "--config", cfg, "--out", str(tmp_path / "out")]
    code = f"from ringflock.cli import main; main({args!r})"
    assert _modules_after(code, "numpy.random") == "[]"


_RSS_LAUNCHER = """
import os, sys
quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ,
                     file_actions=quiet)
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def _peak_rss_mb(args):
    """Peak RSS in MB of a fresh interpreter run with args, and its exit code.

    A child's ru_maxrss starts at the RSS of the process that spawned it, so
    a bare interpreter spawns the run, not this test process.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", _RSS_LAUNCHER, *args],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, check=True)
    kb, code = proc.stdout.split()
    return int(kb) / 1024, int(code)  # ru_maxrss is in KB on Linux


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB on Linux only")
@pytest.mark.parametrize("args,text,margin", [
    (["wave-verify"], "", 5.0),
    (["stability", "--n", "1000000"], "", 5.0),
    (["spectrum", "--n", "50000"], "", 10.5),
    (["wave-verify"], "n_sweep = 4096,16384,65536\n", 12.5),
], ids=["wave-verify", "stability-n1e6", "spectrum-n50000", "wave-verify-large-sweep"])
def test_job_peak_rss_stays_near_the_cli_import(tmp_path, args, text, margin):
    # The first two: 8.5 and 15.1 MB above it with numpy.random loaded and
    # 2**16-mode verdict blocks; about 2.5 MB without them.  spectrum held a
    # whole Spectrum while its rows rendered, and the large sweep evolved
    # every velocity it never read: 12.6 and 13.9 MB above it, against about
    # 8.3 and 10.8 MB with the 2n roots alone and positions only.
    # Both runs read bytecode compiled first: compiling costs RSS (about 1.1
    # MB for the CLI's imports, 0.55 MB for the lazily imported csvtext), and
    # a warm base against a job that compiled csvtext left 1.5 MB, not 2.1 MB,
    # of headroom.
    compileall.compile_dir(Path(__file__).resolve().parent.parent / "src" / "ringflock",
                           quiet=1)
    base, code = _peak_rss_mb(["-c", "import ringflock.cli"])
    assert code == 0
    cfg = write(tmp_path, text)
    peak, code = _peak_rss_mb(["-m", "ringflock", *args, "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert code == 0
    assert peak < base + margin


def test_dense_oracle_loads_no_scipy():
    # The dense check's bottleneck matching is numpy only as well.
    code = ("import ringflock as rf; p = rf.FlockParams.nearest_neighbor(16, -2.0, -1.0); "
            "rf.max_matching_distance(rf.spectrum(p).all_nus(), rf.dense_spectrum(rf.build_dense(p)))")
    assert _modules_after(code) == "[]"


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


@pytest.mark.parametrize("key", ["rho_x.0", "rho_v.0", "output_dir", "v_impulse"])
def test_config_derived_keys_rejected(tmp_path, capsys, key):
    # The center weights close their rows, --out names the directory, and
    # simulate always kicks with a unit velocity (the dynamics are linear), so
    # the config asks for none of them.
    cfg = write(tmp_path, f"n = 16\n{key} = 1\n")
    assert main(["stability", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {cfg}:2: unknown key '{key}'\n"


def _readme_config_block():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("Every key is\noptional; defaults in parentheses:\n\n```\n", 1)[1]
    return block.split("```", 1)[0]


def test_readme_config_block_lists_every_key():
    keys = [line.split("=")[0].strip() for line in _readme_config_block().splitlines()]
    assert keys == list(DEFAULTS)
    assert len(DEFAULTS) == 15


def test_readme_config_block_parses_to_the_defaults(tmp_path):
    # its t_end = auto is the default that resolved_config writes as well
    assert cli.parse_config(write(tmp_path, _readme_config_block())) == DEFAULTS


@pytest.mark.parametrize("config", sorted(GOLDEN_CONFIGS))
@pytest.mark.parametrize("extra", ["", SMALL_RUN], ids=["defaults", "small-run"])
def test_resolved_config_reruns_to_itself(tmp_path, capsys, config, extra):
    # the echo of a run is a config that reproduces the run, t_end = auto included
    echoes = []
    cfg = write(tmp_path, GOLDEN_CONFIGS[config] + extra)
    for out in ("first", "rerun"):
        main(["stability", "--config", cfg, "--out", str(tmp_path / out)])
        cfg = str(tmp_path / out / "resolved_config")
        echoes.append(Path(cfg).read_bytes())
    capsys.readouterr()
    assert (b"t_end=auto\n" in echoes[0]) == (extra == "")
    assert echoes[1] == echoes[0]


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
    assert kv(out, "witness_n") == "64"  # the configured ring is already unstable
    assert float(kv(out, "witness_re")) > 0.0


def test_stability_searched_witness_prints_like_a_direct_one(tmp_path, capsys):
    # A 1% tilt of the position row is stable at n = 16; the search finds
    # the first unstable ring at n = 65.
    text = ("n = 16\ng_x = -1\ng_v = -3\n"
            "rho_x.m1 = -0.495\nrho_x.p1 = -0.505\n")
    code, out, _ = run(capsys, tmp_path, "stability", text)
    assert code == 2
    assert kv(out, "spectral") == "true"
    keys = [line.split("=")[0] for line in out.splitlines()[4:]]
    assert keys == ["witness_m", "witness_n", "witness_branch", "witness_re"]
    assert (kv(out, "witness_m"), kv(out, "witness_n"), kv(out, "witness_branch")) == \
        ("1", "65", "+")
    assert float(kv(out, "witness_re")) > 0.0


def test_stability_stiff_pencil_is_spectrally_stable(tmp_path, capsys):
    # The slow roots (about -1e-9) used to cancel to 0: spectral=false, max_re=0.
    code, out, _ = run(capsys, tmp_path, "stability", "n = 16\ng_x = -1\ng_v = -1e9\n")
    assert code == 0
    assert kv(out, "spectral") == "true"
    assert float(kv(out, "max_re")) == pytest.approx(-1e-9, rel=1e-12)


def test_stability_unstable_velocity_gain(tmp_path, capsys):
    code, out, _ = run(capsys, tmp_path, "stability", UNSTABLE_GV)
    assert code == 2
    assert kv(out, "closed_form") == "false"


def test_stability_marginal_config(tmp_path, capsys):
    # g_x = 0 gives every mode a zero root: an exact zero maximum prints as 0, not -0.
    code, out, _ = run(capsys, tmp_path, "stability", "n = 16\ng_x = 0\ng_v = -1\n")
    assert code == 3
    assert out == ("ring of 16 agents, g_x=0, g_v=-1\n"
                   "closed_form=false\n"
                   "spectral=false\n"
                   "max_re=0\n"
                   "verdict=marginal\n")


def test_stability_witness_of_a_small_tilt(tmp_path, capsys):
    # A 2e-7 tilt of the position row first destabilizes a ring of 9935 agents.
    text = "n = 16\nrho_x.m1 = -0.5000001\nrho_x.p1 = -0.4999999\n"
    code, out, _ = run(capsys, tmp_path, "stability", text)
    assert code == 2
    assert out == ("ring of 16 agents, g_x=-2, g_v=-2\n"
                   "closed_form=false\n"
                   "spectral=true\n"
                   "max_re=-0.076120267488713284\n"
                   "witness_m=-1\n"
                   "witness_n=9935\n"
                   "witness_branch=+\n"
                   "witness_re=1.6573363146297008e-11\n")


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


@pytest.mark.parametrize("blocks,extra", [(1, -1), (1, 0), (1, 1), (2, 1)],
                         ids=["block-less-one", "block", "block-and-one", "two-blocks-and-one"])
@pytest.mark.parametrize("text", [*GOLDEN_CONFIGS.values(), "g_v = -20\n"],
                         ids=[*GOLDEN_CONFIGS, "g_v=-20"])
def test_spectrum_streams_the_whole_spectrum_byte_for_byte(tmp_path, capsys, blocks, extra,
                                                          text):
    # spectrum.csv streams blocks of spectral._BLOCK_MODES modes and hausdorff
    # sees only the 2n roots; the reference writes spectrum()'s whole arrays
    # as one block (n = 8191, 8192, 8193 and 16385 at 8192 modes a block).
    n = blocks * spectral._BLOCK_MODES + extra
    code, out, out_dir = run(capsys, tmp_path, "spectrum", text + "n_phi = 64\n",
                             ["--n", str(n)])
    assert code == 0
    params = build_params({**DEFAULTS, **cli.parse_config(tmp_path / "run.cfg"), "n": n})
    spec = spectrum(params)
    cli._write_csv(tmp_path / "spectrum.csv",
                   ["m", "re_lambda_x", "im_lambda_x", "re_lambda_v", "im_lambda_v",
                    "re_nu_plus", "im_nu_plus", "re_nu_minus", "im_nu_minus"],
                   [(spec.ms, spec.lambda_x.real, spec.lambda_x.imag, spec.lambda_v.real,
                     spec.lambda_v.imag, spec.nu_plus.real, spec.nu_plus.imag,
                     spec.nu_minus.real, spec.nu_minus.imag)])
    assert (out_dir / "spectrum.csv").read_bytes() == (tmp_path / "spectrum.csv").read_bytes()
    d_h = hausdorff(spec.all_nus(), eigencurve(params, 64).points())
    assert out == f"modes={n}\nhausdorff={d_h:.17g}\n"


def test_velocities_symmetric_prints_unit_speeds(tmp_path, capsys):
    code, out, out_dir = run(capsys, tmp_path, "velocities", STABLE)
    assert code == 0
    assert float(kv(out, "c_plus")) == pytest.approx(1.0, rel=1e-12)
    assert float(kv(out, "c_minus")) == pytest.approx(-1.0, rel=1e-12)
    rows = (out_dir / "velocities.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 250


def test_velocities_prints_tiny_speeds(tmp_path, capsys):
    # Six decimals printed these speeds as 0.000000 and -0.000000.
    code, out, _ = run(capsys, tmp_path, "velocities", "n = 16\ng_x = -1e-14\ng_v = -1e-8\n")
    assert code == 0
    assert float(kv(out, "c_plus")) == pytest.approx(math.sqrt(5e-15), rel=1e-12)
    assert float(kv(out, "c_minus")) == pytest.approx(-math.sqrt(5e-15), rel=1e-12)


def test_velocities_of_the_underdamped_flock_in_slow_time(tmp_path, capsys):
    # g_v = -1, g_x = -2 with time in units of 1e12: speeds of +-1e-12, not
    # an absolute 1e-12 threshold's "real branches" and exit 3
    code, out, _ = run(capsys, tmp_path, "velocities", "n = 200\ng_x = -2e-24\ng_v = -1e-12\n")
    assert code == 0
    assert float(kv(out, "c_plus")) == pytest.approx(1e-12, rel=1e-15)
    assert float(kv(out, "c_minus")) == pytest.approx(-1e-12, rel=1e-15)


@pytest.mark.parametrize("s", [2.0 ** 40, 2.0 ** -40], ids=["2^40", "2^-40"])
@pytest.mark.parametrize("n", [64, 65])
@pytest.mark.parametrize("flock", ["default", "underdamped", "rho_v"])
def test_velocities_scale_bit_for_bit_with_the_unit_of_time(tmp_path, capsys, flock, n, s):
    # the CLI side of test_wavefield's rescaling test: exit codes, printed
    # speeds and every velocities.csv column
    g_v = {"underdamped": -1.0}.get(flock, -2.0)
    rho = "rho_v.m1 = -0.2\nrho_v.p1 = -0.8\n" if flock == "rho_v" else ""
    runs = []
    for scale in (1.0, s):
        (tmp_path / repr(scale)).mkdir()
        text = f"n = {n}\ng_x = {scale * scale * -2.0!r}\ng_v = {scale * g_v!r}\n{rho}"
        code, out, out_dir = run(capsys, tmp_path / repr(scale), "velocities", text)
        csv = out_dir / "velocities.csv"
        runs.append((code, out, np.loadtxt(csv, delimiter=",", skiprows=1) if csv.exists() else None))
    (code, out, table), (scaled_code, scaled_out, scaled_table) = runs
    assert scaled_code == code
    if code != 0:
        assert scaled_out == out and scaled_table is None
        return
    for key, power in (("c_plus", 1), ("c_minus", 1), ("a", 2)):
        assert float(kv(scaled_out, key)) == s ** power * float(kv(out, key))
    assert np.array_equal(scaled_table[:, 0], table[:, 0])
    assert np.array_equal(scaled_table[:, 1:], s * table[:, 1:])


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
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["resolved_config", "trajectory.csv", "wavefront.csv"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    front_rows = (outs[0] / "wavefront.csv").read_text().strip().splitlines()
    assert len(front_rows) == 1 + 64
    rows = (outs[0] / "trajectory.csv").read_text().splitlines()
    assert len(rows[0].split(",")) == 1 + 2 * 64
    frames = {row.split(",")[0] for row in rows[1:]}
    assert len(rows) == 1 + len(frames) == 1 + 2001


def test_simulate_csv_floats_round_trip_exactly(tmp_path, capsys):
    code, out, out_dir = run(capsys, tmp_path, "simulate", "n = 16\nt_end = 2\n")
    assert code == 0
    params = build_params({**DEFAULTS, "n": 16})
    traj, front = impulse_experiment(params, t_end=2.0)
    n = params.n

    rows = (out_dir / "trajectory.csv").read_text().splitlines()
    assert rows[0].split(",") == (["t"] + [f"z_{k}" for k in range(n)]
                                  + [f"zdot_{k}" for k in range(n)])
    cells = [row.split(",") for row in rows[1:]]
    assert len(cells) == traj.times.size
    for row, t, z, zdot in zip(cells, traj.times, traj.z, traj.zdot):
        values = [t, *z.tolist(), *zdot.tolist()]
        assert [float(cell) for cell in row] == values
        assert row == ["%.17g" % v for v in values]

    unreached = np.isnan(front.arrival_time)
    assert unreached.any()
    rows = (out_dir / "wavefront.csv").read_text().splitlines()[1:]
    assert rows == ["%d,%.17g" % kt for kt in enumerate(front.arrival_time.tolist())]
    arrival = [row.split(",")[1] for row in rows]
    assert [cell == "nan" for cell in arrival] == unreached.tolist()
    for k, cell in enumerate(arrival):
        if not unreached[k]:
            assert float(cell) == front.arrival_time[k]


def test_write_csv_blocks_narrower_than_a_row(tmp_path, monkeypatch):
    # A block of fewer cells than one row still writes whole rows.
    columns = (np.arange(7), np.linspace(-1.0, 1.0, 7), np.full(7, math.pi))
    texts = []
    for cells in (2, 1 << 15):
        monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", cells)
        cli._write_csv(tmp_path / "out.csv", ["k", "x", "y"], [columns])
        texts.append((tmp_path / "out.csv").read_text())
    assert texts[0] == texts[1]
    assert texts[0].count("\n") == 1 + 7


def _csv_reference(header, *columns):
    """The per-cell formatter _write_csv once ran: the reference text."""
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    cells = zip(*(c.tolist() for c in columns))
    return ",".join(header) + "\n" + "".join(row % values for values in cells)


def _assert_same_text(got, want):
    """got == want; on a mismatch, fail with the first differing line instead
    of pytest's diff of two texts of many megabytes."""
    if got == want:
        return
    pairs = itertools.zip_longest(got.splitlines(True), want.splitlines(True))
    lineno, (a, b) = next((i, ab) for i, ab in enumerate(pairs, 1) if ab[0] != ab[1])
    pytest.fail(f"line {lineno} differs:\n  got:  {a!r}\n  want: {b!r}")


def _awkward_floats(rng, size):
    """87 440 chosen float64 values that reach every path of the renderer, then
    size random 64-bit patterns."""
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]
    edges = np.concatenate([10.0 ** np.arange(-323, 309), [1e-280, 1e280, 2.0**-1022,
                                                            np.finfo(float).max]])
    near = [edges]
    up = down = edges
    with np.errstate(over="ignore"):  # the largest float steps up to inf
        for _ in range(4):  # nextafter neighbours, four steps out each way
            up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
            near += [up, down]
    shifts = rng.integers(1, 64, 20_000).astype(float)
    return np.concatenate([
        specials, *near, -edges,
        2.0 ** -np.arange(1, 1075),  # powers of two: exact ties such as 2**-25
        rng.integers(1, 2**21, 20_000) * 2.0 ** -shifts,  # decimal ties n * 2**-m
        rng.integers(1, 2**52, 20_000, dtype=np.uint64).view(np.float64),  # subnormals
        rng.integers(-2**62, 2**62, 20_000).astype(float),  # integer-valued
        rng.normal(size=20_000) * 10.0 ** rng.integers(-8, 20, 20_000),
        rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64),  # any bit pattern
    ])


def test_write_csv_text_is_exactly_the_per_cell_format(tmp_path):
    rng = np.random.default_rng(17)
    floats = _awkward_floats(rng, 1_000_000)
    rows = floats.size // 3
    powers = 10 ** np.arange(16)  # integer cells stay within +-2**53
    ints = np.concatenate([[0, 1, -1, 2**53, -2**53],
                           powers, powers - 1, -powers, 1 - powers,
                           rng.integers(-2**53, 2**53 + 1, rows)])[:rows]
    columns = (ints, *floats[:3 * rows].reshape(3, rows))
    header = ["k", "x", "y", "z"]
    assert rows * len(columns) > 10**6
    cli._write_csv(tmp_path / "out.csv", header, [columns])
    _assert_same_text((tmp_path / "out.csv").read_text(), _csv_reference(header, *columns))


def test_write_csv_block_edges_match_the_per_cell_format(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    x = _awkward_floats(rng, 0)
    rng.shuffle(x)
    k, xyz = np.arange(-50, 650), x[:2100].reshape(3, 700)
    want = _csv_reference(["k", "x", "y", "z"], k, *xyz)
    for columns in ((k, *xyz), (k, xyz.T)):  # three 1-D columns, or one (700, 3) group
        for cells in (1, 3, 4, 5, 401, 8191):
            monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", cells)
            cli._write_csv(tmp_path / "out.csv", ["k", "x", "y", "z"], [columns])
            _assert_same_text((tmp_path / "out.csv").read_text(), want)


def test_failed_write_leaves_no_file(tmp_path):
    def chunks():
        yield b"t,z\n"
        raise OSError(28, "No space left on device")

    with pytest.raises(OSError):
        cli._write_atomic(tmp_path / "out.csv", chunks())
    assert not (tmp_path / "out.csv.tmp").exists()
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("late", [1, 4], ids=["last-block", "fourth-from-last"])
@pytest.mark.parametrize("bad,message", [
    (math.inf, "mean velocity drifts by inf from 1 / n"),
    (1e-3, "mean velocity drifts by 1.000e-03 from 1 / n"),
], ids=["not-finite", "drift"])
def test_simulate_failed_stream_leaves_no_files(tmp_path, capsys, monkeypatch, late, bad,
                                                message):
    # A late frame block is broken after the blocks before it went to the
    # temp file.  The drift check names the largest drift over all frames,
    # so it fails after the last block, before the file is moved into place.
    frames, rows = wavefield._frames, []
    blocks = -(-2001 // (wavefield._BLOCK_CELLS // 200))

    def broken(n, roots, zh, vh, w, tb):
        zv = frames(n, roots, zh, vh, w, tb)
        rows.append(len(tb))
        if len(rows) == blocks + 1 - late:
            zv[1, -1] += bad  # zdot of the block's last frame
        return zv

    monkeypatch.setattr(wavefield, "_frames", broken)
    out_dir = tmp_path / "out"
    code = main(["simulate", "--config", write(tmp_path, ""), "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert len(rows) == blocks > 4 and sum(rows) == 2001
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert sorted(p.name for p in out_dir.iterdir()) == ["resolved_config"]


@pytest.mark.parametrize("n,block_cells", [
    (16, None), (201, None), (16, 16 * 300), (16, 16 * 87),
], ids=["n16-one-block", "n201", "n16-ends-partway", "n16-ends-on-an-edge"])
def test_simulate_streams_the_library_run_byte_for_byte(tmp_path, capsys, monkeypatch, n,
                                                        block_cells):
    # The CLI streams its frame blocks to trajectory.csv; the library
    # collects the same stream into one Trajectory.  Blocks of 300 frames end
    # the 2001 partway through the seventh; blocks of 87 end on an edge.
    if block_cells is not None:
        monkeypatch.setattr(wavefield, "_BLOCK_CELLS", block_cells)
    params = build_params({**DEFAULTS, "n": n})
    t_front = 0.6 * n  # c_+ = -c_- = 1 on the default flock
    header = ["t", *(f"z_{k}" for k in range(n)), *(f"zdot_{k}" for k in range(n))]
    for t_end in (2.0, t_front, None, 3.0 * t_front):
        out_dir = tmp_path / f"cli-{t_end}"
        text = "" if t_end is None else f"t_end = {t_end!r}\n"
        assert main(["simulate", "--config", write(tmp_path, text), "--out", str(out_dir),
                     "--n", str(n)]) == 0
        traj, front = impulse_experiment(params, t_end=t_end)
        assert front.predicted_c_plus == -front.predicted_c_minus == 1.0  # t_front is exact
        cli._write_csv(tmp_path / "trajectory.csv", header, [(traj.times, traj.z, traj.zdot)])
        cli._write_csv(tmp_path / "wavefront.csv", ["k", "arrival_time"],
                       [(np.arange(n), front.arrival_time)])
        for name in ("trajectory.csv", "wavefront.csv"):
            assert (out_dir / name).read_bytes() == (tmp_path / name).read_bytes(), (t_end, name)
    capsys.readouterr()


def test_simulate_memory_does_not_grow_with_n(tmp_path, capsys):
    # holding the whole 2001-frame trajectory, z and zdot, is 64 MB at this n
    cfg = {**DEFAULTS, "n": 2000}
    tracemalloc.start()
    try:
        code = cli.cmd_simulate(cfg, build_params(cfg), tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "fitted_c_plus=" in capsys.readouterr().out
    assert (tmp_path / "trajectory.csv").stat().st_size > 2001 * 4000 * 10
    assert peak < 8 * 2**20


def test_simulate_counts_no_arrival_agents(tmp_path, capsys):
    # the unreached agents are the nan rows of wavefront.csv, and only counted on stdout
    code, out, out_dir = run(capsys, tmp_path, "simulate",
                             "n = 200\ng_x = -2\ng_v = -1\nt_end = 10\n")
    assert code == 0
    count = int(kv(out, "no_arrival_count"))
    assert count > 0
    rows = (out_dir / "wavefront.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows].count("nan") == count


def test_simulate_stdout_does_not_grow_with_unreached_agents(tmp_path, capsys):
    code, out, _ = run(capsys, tmp_path, "simulate", "n = 400\nt_end = 10\n")
    assert code == 0
    assert int(kv(out, "no_arrival_count")) > 300
    assert len(out.splitlines()) <= 6


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


@pytest.mark.parametrize("sweep", [(256, 512, 1024), (64, 128)], ids=["default", "64,128"])
def test_wave_verify_on_an_overdamped_flock_reaches_a_verdict(tmp_path, capsys, sweep):
    # g_v = -50 gives most modes two real roots; its power-law data once
    # failed as modal data that were not conjugate-linked
    text = "g_v = -50\nn_sweep = " + ",".join(map(str, sweep)) + "\n"
    code, out, out_dir = run(capsys, tmp_path, "wave-verify", text)
    lines = out.splitlines()
    assert [line.split("=")[0] for line in lines] == \
        ["alpha_guarantee", *["n"] * len(sweep), "rel_error_monotone"]
    holds = [kv(line.split()[-1], "bound_holds") for line in lines[1:-1]]
    assert [line.split()[0] for line in lines[1:-1]] == [f"n={n}" for n in sweep]
    assert code == (0 if holds == ["true"] * len(sweep) else 2)
    data = np.loadtxt(out_dir / "wave_verify.csv", delimiter=",", skiprows=1)
    assert data.shape == (7 * len(sweep), 6) and np.isfinite(data).all()
    assert (data[:, 0] == np.repeat(sweep, 7)).all()


def test_seed_flag_sets_and_overrides_the_config_seed(tmp_path, capsys):
    text = "g_x = -2\ng_v = -1\nn_sweep = 64\n"
    runs = {"config": (text + "seed = 12\n", []),
            "flag": (text, ["--seed", "12"]),
            "override": (text + "seed = 3\n", ["--seed", "12"]),
            "other": (text + "seed = 3\n", [])}
    results = {}
    for name, (cfg_text, extra) in runs.items():
        out_dir = tmp_path / name
        code = main(["wave-verify", "--config", write(tmp_path, cfg_text, f"{name}.cfg"),
                     "--out", str(out_dir), *extra])
        assert code == 0
        results[name] = (capsys.readouterr().out, (out_dir / "wave_verify.csv").read_bytes())
    assert results["flag"] == results["config"] == results["override"]
    assert results["other"][1] != results["config"][1]  # the seed reaches the output


def test_io_failure_exits_1_with_one_line(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg = write(tmp_path, "n = 16\n")
    for args in (["--config", cfg, "--out", str(taken)],
                 ["--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "o")]):
        assert main(["stability", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("i/o error: ")


# Gains this large overflow the pencil roots to inf/nan.
OVERFLOW = "g_x = -1e308\ng_v = -1e308\n"
# Finite side weights whose sum, and so the center -(m1 + p1), overflows.
SIDE_OVERFLOW = "rho_v.m1 = 1e308\nrho_v.p1 = 1e308\n"
# A signal speed this small underflows float64 to 0.
UNDERFLOW = "g_x = -1e-300\ng_v = -1e100\nrho_v.m1 = -0.95\nrho_v.p1 = -0.40\n"


@pytest.mark.parametrize("command,text", [
    ("stability", "g_x = nan\n"),
    ("wave-verify", "n_sweep = 2\n"),
    ("spectrum", "n = 16\nn_phi = 3\n"),
    ("simulate", "n = 16\nt_end = nan\n"),
    ("wave-verify", "K = nan\nn_sweep = 64\n"),
    ("wave-verify", "p = nan\nn_sweep = 64\n"),
    ("simulate", "n = 16\nt_end = -1\n"),
    ("simulate", "n = 16\nt_end = 0\n"),
    ("wave-verify", "alpha = 0.9\nn_sweep = 64\n"),
    ("wave-verify", "g_v = 1\nn_sweep = 64\n"),
    ("wave-verify", "K = inf\nn_sweep = 64\n"),
    ("wave-verify", "p = inf\nn_sweep = 64\n"),
    ("stability", f"n = 16\n{OVERFLOW}"),
    ("spectrum", f"n = 16\n{OVERFLOW}"),
    ("wave-verify", f"{OVERFLOW}n_sweep = 64\n"),
    ("wave-verify", "n_sweep = 128,64\n"),
    ("simulate", f"n = 16\n{OVERFLOW}"),
    ("stability", f"n = 16\n{SIDE_OVERFLOW}"),
    ("stability", "n = 16\nrho_x.m1 = -4.5e307\nrho_x.p1 = -4.5e307\n"),
    ("simulate", "n = 16\nrho_v.m1 = 0\nrho_v.p1 = -1e308\n"),
    # 7 PiB: beyond the address space, so numpy's allocation fails
    ("spectrum", "n = 16\nn_phi = 1000000000000000\n"),
    # far above the ring sizes the spectral verdict walks (VERDICT_N_MAX)
    ("stability", "n = 1000000000000000\n"),
    # beyond int64, in which modes are indexed
    ("spectrum", "n = 9223372036854775808\n"),
    # more modes, agents or eigencurve samples than numpy can index, refused
    # before numpy's own error (an empty arange near 2**63, "array is too big"
    # or an IndexError), which names no key
    ("spectrum", "n = 9223372036854775807\n"),
    ("spectrum", "n = 4611686018427387904\n"),
    ("velocities", "n = 9223372036854775807\n"),
    ("simulate", "n = 4611686018427387904\n"),
    ("wave-verify", "n_sweep = 4611686018427387904\n"),
    ("spectrum", "n = 16\nn_phi = 4611686018427387904\n"),
    ("spectrum", "n = 16\nn_phi = 9223372036854775807\n"),
    ("spectrum", "n = 16\nn_phi = 9223372036854775808\n"),
    ("spectrum", "n = 16\nn_phi = 1000000000000000000000000000000\n"),
    # a 2e-12 tilt against g_v = -2e6 first destabilizes a ring above VERDICT_N_MAX
    ("stability", "g_v = -2000000\nrho_x.m1 = -0.500000000001\nrho_x.p1 = -0.499999999999\n"),
    # m**-p overflows float64 unless p is checked first
    ("wave-verify", "p = -400\nn_sweep = 64\n"),
    # the window end K n / |c| overflows float64
    ("wave-verify", "K = 1e308\nn_sweep = 64\n"),
    # 64**0.001 - 1 < 1, raised to the power 1 - 1e308
    ("wave-verify", "alpha = 0.001\nbeta = 0.002\np = 1e308\nn_sweep = 64\n"),
    # c_- = -I_x2 / (2 c_+) underflows to 0, and both commands divide by it
    ("wave-verify", f"{UNDERFLOW}n_sweep = 64\n"),
    ("simulate", f"n = 16\n{UNDERFLOW}"),
    # 64**5e-324 rounds to exactly 1, which leaves no mode below the cutoff n**alpha
    ("wave-verify", "alpha = 5e-324\nn_sweep = 64\n"),
    # numpy's seeding refuses it with a message that names no seed
    ("wave-verify", "seed = -1\nn_sweep = 64\n"),
], ids=["g_x-nan", "n_sweep-2", "n_phi-3", "t_end-nan", "K-nan", "p-nan",
        "t_end-negative", "t_end-0",
        "alpha-0.9", "wave-verify-unstable", "K-inf", "p-inf",
        "stability-overflow", "spectrum-overflow", "wave-verify-overflow",
        "n_sweep-decreasing", "simulate-overflow",
        "row-sum-overflow", "symbol-overflow", "expansion-overflow",
        "n_phi-unallocatable", "n-unallocatable", "n-2^63", "n-2^63-1", "spectrum-n-2^62",
        "velocities-n-2^63-1", "simulate-n-2^62", "wave-verify-n-2^62",
        "n_phi-2^62", "n_phi-2^63-1", "n_phi-2^63", "n_phi-1e30", "witness-above-cap",
        "p--400", "K-1e308",
        "tail-overflow", "wave-verify-underflow", "simulate-underflow",
        "alpha-5e-324", "seed-negative"])
def test_bad_value_exits_1_with_one_line(tmp_path, capsys, command, text):
    code = main([command, "--config", write(tmp_path, text), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert not list((tmp_path / "o").glob("*.csv"))
    if text.endswith(OVERFLOW):
        assert "gains" in captured.err
    if text.endswith(SIDE_OVERFLOW):  # not an offset the config never set
        assert captured.err == "error: rho_v side weights m1 + p1 overflow float64\n"
    if text.startswith(("n = 92233720368547758", "n = 4611686018427387904",
                        "n_sweep = 4611686018427387904")):  # the error names n
        assert f"n={text.split('= ')[1][:-1]} " in captured.err
    n_phi = text.partition("n_phi = ")[2][:-1]
    if len(n_phi) > 18:  # at least 2**62: the error names n_phi
        assert captured.err == f"error: n_phi={n_phi} samples are more than numpy can index\n"
    if text.startswith("g_v = -2000000"):
        assert captured.err == "error: n=3141627560 exceeds the spectral verdict cap 1073741824\n"
    if text.startswith("alpha = 5e-324"):
        assert captured.err == "error: n**alpha = 1 must exceed 1\n"
    if text.startswith("seed = -1"):
        assert captured.err == "error: need a non-negative seed, got seed=-1\n"


def test_negative_seed_flag_exits_1_with_one_line(tmp_path, capsys):
    code = main(["wave-verify", "--config", write(tmp_path, "n_sweep = 64\n"),
                 "--out", str(tmp_path / "o"), "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: need a non-negative seed, got seed=-1\n"


@pytest.mark.parametrize("text", [
    "n = 16\nt_end = 1e300\n",
    # the phases of the decayed modes overflow float64 as well
    "n = 16\nt_end = 1e308\n",
    # overdamped at every mode, with t_end near the float64 limit
    "n = 16\ng_x = -392\ng_v = -1340\nrho_x.m1 = -292.5\nrho_x.p1 = -292.5\n"
    "t_end = 5.3e305\n",
], ids=["t_end-1e300", "t_end-1e308", "front-overflow"])
def test_simulate_long_run_returns(tmp_path, capsys, text):
    # The exact evolution costs the same at any t_end; a stepped integrator
    # would need about 5e301 steps at t_end = 1e300.
    code, _, out_dir = run(capsys, tmp_path, "simulate", text)
    assert code == 0
    data = np.loadtxt(out_dir / "trajectory.csv", delimiter=",", skiprows=1)
    assert data.shape == (2001, 1 + 2 * 16)
    assert np.isfinite(data).all()


def test_one_package_error_type():
    # ConfigError gives the "config error:" prefix; every other failure is a
    # plain RingflockError.
    classes = {name for name, obj in vars(errors).items() if isinstance(obj, type)}
    assert classes == {"RingflockError", "ConfigError"}
    assert errors.RingflockError.__bases__ == (ValueError,)
    assert errors.ConfigError.__bases__ == (errors.RingflockError,)
    for path in Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                assert node.exc.func.id in classes, f"{path.name}:{node.lineno}"


@pytest.mark.parametrize("n", ["2", "9223372036854775808"])
def test_wave_verify_ignores_the_agent_count(tmp_path, capsys, n):
    # wave-verify sweeps n_sweep; --n, which it never reads, changes nothing
    cfg = write(tmp_path, "n_sweep = 64,128\n")
    want = main(["wave-verify", "--config", cfg, "--out", str(tmp_path / "want")])
    want_out = capsys.readouterr()
    code = main(["wave-verify", "--config", cfg, "--out", str(tmp_path / "got"), "--n", n])
    got = capsys.readouterr()
    assert code == want == 0
    assert got == want_out
    assert ((tmp_path / "got" / "wave_verify.csv").read_bytes()
            == (tmp_path / "want" / "wave_verify.csv").read_bytes())


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
    gains and symmetric rows come up often, so that many draws pass the
    stability gate and run."""
    gain = st.one_of(st.none(), _NUMBER, st.floats(-5.0, -0.01))
    weight = st.one_of(st.floats(-2.0, 2.0), _NUMBER)
    values = {"g_x": draw(gain), "g_v": draw(gain),
              "t_end": draw(st.one_of(st.none(), _NUMBER))}
    for row in ("rho_x", "rho_v"):
        shape = draw(st.sampled_from(["default", "symmetric", "independent"]))
        if shape != "default":
            m1 = draw(weight)
            p1 = m1 if shape == "symmetric" else draw(weight)
            values.update({f"{row}.m1": m1, f"{row}.p1": p1})
    return _text(values)


def _text(values):
    """Config lines for the values that are not None."""
    return "".join(f"{key} = {value!r}\n" for key, value in values.items()
                   if value is not None)


@st.composite
def _gate_true_config(draw):
    """A gate-true flock (helpers.random_gate_true_params) with one float key
    set to a special value.  Many of these draws run to exit 0, which the
    draws of _config seldom do."""
    p = random_gate_true_params(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), 16)
    values = {"g_x": p.g_x, "g_v": p.g_v}
    for row in ("rho_x", "rho_v"):
        w = getattr(p, row)
        values.update({f"{row}.m1": w[-1], f"{row}.p1": w[1]})
    key = draw(st.sampled_from(["t_end", "alpha", "beta", "K", "p", *values]))
    values[key] = draw(st.sampled_from(_SPECIAL))
    return _text(values)


# At most one fuzzed wave-verify key per draw, the others at their defaults:
# each has a narrow valid range, so fuzzing all four at once would rarely get
# past the argument checks.
_WAVE_KEY = st.one_of(st.just(""), st.builds(
    "{} = {!r}\n".format, st.sampled_from(["alpha", "beta", "K", "p"]), _NUMBER))


def _run_fuzzed(tmp_path, command, text, n=16):
    """Run one fuzzed config on a ring of n agents and check that it ends
    cleanly: an exit code in {0,1,2,3}, one stderr line and no stdout on exit
    1, an empty stderr (warnings included) otherwise."""
    out_dir = tmp_path / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main([command, "--config", write(tmp_path, text), "--out", str(out_dir),
                     "--n", str(n)])
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


def _check_success(command, out_dir):
    """The invariants of a run that exits 0 (simulate: at n = 16)."""
    if command == "velocities":
        _, c_plus, c_minus, _, _ = np.loadtxt(out_dir / "velocities.csv", delimiter=",",
                                              skiprows=1, ndmin=2).T
        assert (c_plus > 0).all() and (c_minus < 0).all()
    elif command == "simulate":
        cells = (out_dir / "trajectory.csv").read_text().lower()
        assert "nan" not in cells and "inf" not in cells
        # momentum is conserved: the mean velocity of the unit kick stays 1 / n
        data = np.loadtxt(out_dir / "trajectory.csv", delimiter=",", skiprows=1)
        header = cells.split("\n", 1)[0].split(",")
        zdot = data[:, [i for i, name in enumerate(header) if name.startswith("zdot_")]]
        assert zdot.shape == (2001, 16)
        assert np.abs(zdot.mean(axis=1) - 1 / 16).max() <= 1e-12 / 16
    elif command == "wave-verify":
        cells = np.loadtxt(out_dir / "wave_verify.csv", delimiter=",", skiprows=1)
        assert cells.size and np.isfinite(cells).all()


# Each draw runs twice: the config of _config, then a gate-true one.
@settings(_FUZZ, max_examples=100)
@given(text=_config(), gate_true=_gate_true_config())
def test_simulate_fuzzed_config_ends_cleanly(tmp_path, text, gate_true):
    for flock in (text, gate_true):
        code, _, out_dir = _run_fuzzed(tmp_path, "simulate", flock)
        if code == 0:
            _check_success("simulate", out_dir)


@pytest.mark.parametrize("command,keys", [
    ("stability", ""),
    ("spectrum", "n_phi = 64\n"),
    ("velocities", ""),
    ("wave-verify", "n_sweep = 64,128\n"),
], ids=["stability", "spectrum", "velocities", "wave-verify"])
@settings(_FUZZ, max_examples=50)
@given(text=_config(), wave=_WAVE_KEY, default_flock=st.booleans(),
       gate_true=_gate_true_config(), n=st.integers(3, 33))
# Pinned draws that the random ones seldom reach: +-1e308 at p (0 * inf in the
# envelope, m**-p overflowing) and at K (the window end overflowing).
@example(text="", wave="p = 1e+308\n", default_flock=True, gate_true="", n=16)
@example(text="", wave="p = -1e+308\n", default_flock=True, gate_true="", n=16)
@example(text="", wave="K = 1e+308\n", default_flock=True, gate_true="", n=16)
def test_subcommand_fuzzed_config_ends_cleanly(tmp_path, command, keys, text, wave,
                                               default_flock, gate_true, n):
    # n is the ring of stability, spectrum and velocities; wave-verify's
    # rings come from n_sweep.
    if command == "wave-verify":
        # the default flock passes the gate, so the wave key reaches the bound
        text = wave if default_flock else text + wave
    # Each draw runs twice: the config of _config, then a gate-true one
    # (whose special value may already sit at a wave key).
    for flock in (text, gate_true):
        code, stdout, out_dir = _run_fuzzed(tmp_path, command, flock + keys, n)
        if code != 1:
            assert "nan" not in stdout.lower()
        for csv in out_dir.glob("*.csv"):
            cells = csv.read_text().lower()
            assert "nan" not in cells and "inf" not in cells, csv.name
        if code == 0:
            _check_success(command, out_dir)
