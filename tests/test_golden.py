"""Pinned outputs of the five CLI subcommands on four small configs.

Each case runs `main()` in-process on a 16-agent ring and compares the exit
code, stdout, stderr and every written file with tests/golden/<config>/
<command>/: `result.json` holds the exit code and the two streams, and each
written file is stored gzipped under its own name.  Text, CSV headers, row
counts and integer cells must match exactly.  Floats match to a relative
1e-12, measured in a CSV against the largest magnitude of the cell's column
(of all z_<k> columns, or all zdot_<k> columns, in a trajectory), so a
last-bit difference in numpy's vectorized transcendentals on another CPU
passes while any real change fails.  No byte hash is used for the same
reason.

After a deliberate output change, regenerate with

    PYTHONPATH=src python tests/test_golden.py

which rewrites only the files that no longer match, deletes the ones no
case writes any more and prints which files it kept, wrote or deleted.
Record the change and its reason in CHANGES.md.
"""

import contextlib
import gzip
import io
import json
import math
import re
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
# at t = 2 (its fixed 2001 frames, one trajectory row each) and the
# eigencurve has 64 samples.
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


# Columns z_<k> share one scale and zdot_<k> another: each agent's cells are
# measured against the whole ring's largest value, as in one long column.
_AGENT_COLUMN = re.compile(r"(z|zdot)_\d+")


def _column_scales(lines):
    """Largest finite magnitude per comma-separated column (or column group)."""
    groups = [m.group(1) if (m := _AGENT_COLUMN.fullmatch(name)) else col
              for col, name in enumerate(lines[0].split(","))]
    largest = {}
    for line in lines[1:]:
        for group, cell in zip(groups, line.split(",")):
            value = _number(cell)
            if value is not None and math.isfinite(value):
                largest[group] = max(largest.get(group, 0.0), abs(value))
    return {col: largest.get(group, 0.0) for col, group in enumerate(groups)}


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


def golden_texts(result, files):
    """The text of each golden file, by its name under tests/golden/<case>/."""
    texts = {"result.json": json.dumps(result, indent=1) + "\n"}
    texts.update((name + ".gz", text) for name, text in files.items())
    return texts


def assert_matches_golden(name, text, path):
    """Check the new text of golden file name against the file at path."""
    if name == "result.json":
        got, want = json.loads(text), json.loads(path.read_text())
        assert got["exit_code"] == want["exit_code"]
        assert_same_text(got["stdout"], want["stdout"], "stdout")
        assert_same_text(got["stderr"], want["stderr"], "stderr")
    else:
        want = gzip.decompress(path.read_bytes()).decode()
        name = name[:-len(".gz")]
        assert_same_text(text, want, name, csv=name.endswith(".csv"))


@pytest.mark.parametrize("config,command", CASES, ids=[f"{c}-{m}" for c, m in CASES])
def test_cli_output_matches_golden(tmp_path, config, command):
    case = GOLDEN / config / command
    texts = golden_texts(*run_case(tmp_path, config, command))
    assert sorted(texts) == sorted(p.name for p in case.iterdir())
    for name, text in texts.items():
        assert_matches_golden(name, text, case / name)


def regenerate():
    """Re-record the goldens, keeping every file whose new text still matches
    it, so last-bit noise from the CPU it runs on churns no file."""
    for config, command in CASES:
        case = GOLDEN / config / command
        with tempfile.TemporaryDirectory() as work:
            texts = golden_texts(*run_case(Path(work), config, command))
        case.mkdir(parents=True, exist_ok=True)
        done = {"kept": [], "wrote": [], "deleted": []}
        for path in sorted(case.iterdir()):
            if path.name not in texts:
                path.unlink()
                done["deleted"].append(path.name)
        for name, text in texts.items():
            path = case / name
            try:
                assert_matches_golden(name, text, path)
                done["kept"].append(name)
            except (AssertionError, FileNotFoundError):
                data = text.encode()
                path.write_bytes(data if name == "result.json" else gzip.compress(data, mtime=0))
                done["wrote"].append(name)
        print(f"{config}/{command}: " + "; ".join(
            f"{verb} {', '.join(names)}" for verb, names in done.items() if names))


if __name__ == "__main__":
    sys.exit(regenerate())
