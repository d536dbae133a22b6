"""Pinned outputs of the five CLI subcommands on four small configs.

Each case runs `main()` in-process on a 16-agent ring and compares the exit
code, stdout, stderr and every written file with tests/golden/<config>/
<command>/: `result.json` holds the exit code and the two streams, and each
written file is stored gzipped under its own name.  Text, CSV headers, row
counts and integer cells must match exactly.  Floats match to a relative
1e-12, measured in a CSV against the largest magnitude of the cell's column,
so a last-bit difference in numpy's vectorized transcendentals on another
CPU passes while any real change fails.  No byte hash is used for the same
reason.

After a deliberate output change, regenerate with

    PYTHONPATH=src python tests/test_golden.py

and record the change and its reason in CHANGES.md.
"""

import contextlib
import gzip
import io
import json
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from ringflock.cli import main

GOLDEN = Path(__file__).parent / "golden"

CONFIGS = {
    "default": "",
    "underdamped": "g_v = -1\n",
    "asymmetric": "rho_x.m1 = -0.7\nrho_x.p1 = -0.3\n",
    "unstable-gain": "g_v = 1\n",
}

# Small runs keep the goldens small: n = 16 comes from --n, simulate stops
# at t = 2 (about 100 frames) and the eigencurve has 64 samples.
SMALL_RUN = "t_end = 2\nn_sweep = 64,128\nn_phi = 64\n"

COMMANDS = ("stability", "spectrum", "velocities", "simulate", "wave-verify")

CASES = [(config, command) for config in CONFIGS for command in COMMANDS]

RTOL = 1e-12

_SEPARATORS = re.compile(r"([\s,=]+)")


def run_case(work: Path, config, command):
    """Run one subcommand; return (result dict, {file name: text})."""
    cfg = work / "run.cfg"
    cfg.write_text(CONFIGS[config] + SMALL_RUN)
    out_dir = work / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([command, "--config", str(cfg), "--out", str(out_dir), "--n", "16"])
    result = {"exit_code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    files = {p.name: p.read_text() for p in sorted(out_dir.iterdir())}
    return result, files


def _number(token):
    for kind in (int, float):
        try:
            return kind(token)
        except ValueError:
            pass
    return None


def _same_token(got, want, scale):
    if got == want:
        return True
    x, y = _number(got), _number(want)
    if x is None or y is None or (isinstance(x, int) and isinstance(y, int)):
        return False
    return abs(x - y) <= RTOL * max(abs(x), abs(y), scale)


def _column_scales(lines):
    """Largest finite magnitude per comma-separated column."""
    scales = {}
    for line in lines:
        for col, cell in enumerate(line.split(",")):
            value = _number(cell)
            if value is not None and math.isfinite(value):
                scales[col] = max(scales.get(col, 0.0), abs(value))
    return scales


def assert_same_text(got, want, what, csv=False):
    got_lines, want_lines = got.split("\n"), want.split("\n")
    assert len(got_lines) == len(want_lines), (
        f"{what}: {len(got_lines)} lines, golden has {len(want_lines)}")
    if csv:
        assert got_lines[0] == want_lines[0], f"{what}: header {got_lines[0]!r}"
    scales = _column_scales(want_lines) if csv else {}
    for lineno, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        g_tokens, w_tokens = _SEPARATORS.split(g), _SEPARATORS.split(w)
        assert len(g_tokens) == len(w_tokens), f"{what}:{lineno}: {g!r} != {w!r}"
        for i, (a, b) in enumerate(zip(g_tokens, w_tokens)):
            # even positions are cells/words, odd positions the separators
            scale = scales.get(i // 2, 0.0) if i % 2 == 0 else 0.0
            assert _same_token(a, b, scale), f"{what}:{lineno}: {g!r} != {w!r}"


@pytest.mark.parametrize("config,command", CASES, ids=[f"{c}-{m}" for c, m in CASES])
def test_cli_output_matches_golden(tmp_path, config, command):
    case = GOLDEN / config / command
    result, files = run_case(tmp_path, config, command)
    want = json.loads((case / "result.json").read_text())
    assert result["exit_code"] == want["exit_code"]
    assert_same_text(result["stdout"], want["stdout"], "stdout")
    assert_same_text(result["stderr"], want["stderr"], "stderr")
    want_names = sorted(p.name[:-len(".gz")] for p in case.glob("*.gz"))
    assert sorted(files) == want_names
    for name in want_names:
        want_text = gzip.decompress((case / (name + ".gz")).read_bytes()).decode()
        assert_same_text(files[name], want_text, name, csv=name.endswith(".csv"))


def regenerate():
    for config, command in CASES:
        case = GOLDEN / config / command
        with tempfile.TemporaryDirectory() as work:
            result, files = run_case(Path(work), config, command)
        shutil.rmtree(case, ignore_errors=True)
        case.mkdir(parents=True)
        (case / "result.json").write_text(json.dumps(result, indent=1) + "\n")
        for name, text in files.items():
            (case / (name + ".gz")).write_bytes(gzip.compress(text.encode(), mtime=0))
        print(f"{config}/{command}: exit {result['exit_code']}, {len(files)} files")


if __name__ == "__main__":
    sys.exit(regenerate())
