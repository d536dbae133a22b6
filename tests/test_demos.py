"""Smoke test: every script under demos/ and the README's library quick
start run to completion.

Each runs in a fresh interpreter from a temporary directory with the
package on the path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(tmp_path, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, script):
    out = run_python(tmp_path, [str(script)])
    if script.stem == "02_stability_gates":  # the tilted row, then the flipped gain
        assert [line for line in out.splitlines() if "first unstable ring" in line] == [
            "  first unstable ring: n=65, mode m=1, Re(nu)=+5.9628e-05",
            "  first unstable ring: n=3, mode m=-1, Re(nu)=+1.5000e+00",
        ]


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library quick start\n\n```python\n", 1)[1].split("```", 1)[0]
    assert "import ringflock as rf" in block
    run_python(tmp_path, ["-c", block])
