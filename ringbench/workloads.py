"""Workload job lists and the per-job output checks.

A workload is a list of jobs run one after another by one client (closed
loop).  Each job is one fresh process: `python -m ringflock <argv>` for a CLI
job, `python ringbench/oracle.py <argv>` for the oracle job.  A job fails when
its exit code differs from the documented one, its stderr holds a traceback
(or, for exit code 1, is not exactly one diagnostic line), a checked result
leaves its tolerance, or it times out.

Checks read exit codes and printed key=value results, never file bytes, so
documented output-format changes (dropping a CSV file, 1e-8-level changes to
`simulate` trajectories) do not count as failures.  Golden values were
printed by the seed version of the package.
"""

import math
from dataclasses import dataclass

# Config files the jobs read; the keys override ringflock's DEFAULTS.
CONFIGS = {
    "default": "",
    "underdamped": "g_v = -1\n",
    "asymmetric": "rho_x.m1 = -0.7\nrho_x.p1 = -0.3\n",
    "unstable-gain": "g_v = 1\n",
    "large-sweep": "n_sweep = 4096,16384,65536\n",
}

DEFAULT_SWEEP = (256, 512, 1024)
LARGE_SWEEP = (4096, 16384, 65536)


@dataclass(frozen=True)
class Job:
    name: str
    kind: str                # "cli" or "oracle"
    argv: tuple
    expect_exit: int
    checks: tuple = ()       # each: parsed stdout lines -> problem string or None
    config: str = ""         # CLI jobs: key of CONFIGS, passed as --config


def parse(stdout):
    """Each stdout line as a dict of its key=value tokens ('#' starts a comment)."""
    lines = []
    for raw in stdout.splitlines():
        tokens = raw.split("#", 1)[0].split()
        lines.append(dict(t.split("=", 1) for t in tokens if "=" in t))
    return lines


def first(lines, key):
    for fields in lines:
        if key in fields:
            return fields[key]
    return None


def _float(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def exact(key, want):
    def check(lines):
        got = first(lines, key)
        return None if got == want else f"{key}={got}, want {want}"
    return check


def close(key, want, rtol):
    def check(lines):
        got = _float(first(lines, key))
        ok = abs(got - want) <= rtol * abs(want)
        return None if ok else f"{key}={got}, want {want} within rtol {rtol:g}"
    return check


def below(key, limit):
    def check(lines):
        got = _float(first(lines, key))
        return None if 0.0 <= got < limit else f"{key}={got}, want in [0, {limit:g})"
    return check


def wave_rings(sweep):
    """Every ring of the sweep reports a relative error in (0, 1) and a holding bound."""
    def check(lines):
        for n in sweep:
            ring = next((f for f in lines if f.get("n") == str(n)), None)
            if ring is None:
                return f"no result line for ring n={n}"
            rel = _float(ring.get("rel_error"))
            if not 0.0 < rel < 1.0 or ring.get("bound_holds") != "true":
                return f"ring n={n}: rel_error={rel}, bound_holds={ring.get('bound_holds')}"
        return None
    return check


def front_speed_err(lines):
    """Larger of |fitted - predicted| / |predicted| over the two wave branches."""
    return max(abs(_float(first(lines, f"fitted_c_{b}")) - _float(first(lines, f"predicted_c_{b}")))
               / abs(_float(first(lines, f"predicted_c_{b}"))) for b in ("plus", "minus"))


def front_speeds(tol):
    def check(lines):
        err = front_speed_err(lines)
        return None if err <= tol else f"front speed error {err}, want <= {tol:g}"
    return check


def _stability(name, cfg, n, code, *checks):
    return Job(name, "cli", ("stability", "--n", str(n)), code, checks, cfg)


def _witness(m, branch, re):
    return (exact("closed_form", "false"), exact("witness_m", str(m)), exact("witness_n", "200"),
            exact("witness_branch", branch), close("witness_re", re, 1e-9))


def _cli_quick(seed):
    stable = (exact("closed_form", "true"),)
    hausdorff = {"default": 0.015688622925910674, "underdamped": 0.015551644627478409,
                 "asymmetric": 0.078363825616963576, "unstable-gain": 0.015551644627478409}
    stability = {
        "default": (0, stable),
        "underdamped": (0, stable),
        "asymmetric": (2, _witness(-10, "+", 0.24219561321408972)),
        "unstable-gain": (2, _witness(100, "+", 1.0)),
    }
    velocities = {
        "default": (3, (exact("degenerate_branches", "true"),)),
        "underdamped": (0, (close("c_plus", 1.0, 1e-6), close("c_minus", -1.0, 1e-6))),
        "asymmetric": (2, (exact("closed_form", "false"),)),
        "unstable-gain": (2, (exact("closed_form", "false"),)),
    }
    jobs = []
    for cfg in ("default", "underdamped", "asymmetric", "unstable-gain"):
        code, checks = stability[cfg]
        jobs.append(_stability(f"{cfg}/stability", cfg, 200, code, *checks))
        jobs.append(Job(f"{cfg}/spectrum", "cli", ("spectrum", "--n", "200"), 0,
                        (exact("modes", "200"), close("hausdorff", hausdorff[cfg], 1e-9)), cfg))
        code, checks = velocities[cfg]
        jobs.append(Job(f"{cfg}/velocities", "cli", ("velocities", "--n", "200"), code, checks, cfg))
        stable_cfg = cfg in ("default", "underdamped")
        jobs.append(Job(f"{cfg}/wave-verify", "cli",
                        ("wave-verify", "--n", "200", "--seed", str(seed)),
                        0 if stable_cfg else 1,
                        (wave_rings(DEFAULT_SWEEP),) if stable_cfg else (), cfg))
    return jobs


def _large_ring(seed):
    return [
        Job("default/spectrum-n50000", "cli", ("spectrum", "--n", "50000"), 0,
            (exact("modes", "50000"), close("hausdorff", 0.00076717767437023215, 1e-9)),
            "default"),
        _stability("default/stability-n1000000", "default", 1000000, 0, exact("closed_form", "true")),
        Job("large-sweep/wave-verify", "cli", ("wave-verify", "--seed", str(seed)), 0,
            (wave_rings(LARGE_SWEEP),), "large-sweep"),
    ]


def _simulate(seed):
    return [Job("default/simulate", "cli", ("simulate", "--n", "200"), 0,
                (close("predicted_c_plus", 1.0, 1e-12), close("predicted_c_minus", -1.0, 1e-12),
                 exact("no_arrival_count", "0"), front_speeds(0.01)), "default")]


def _oracle(seed):
    return [Job("oracle", "oracle", ("--seed", str(seed)), 0,
                (exact("dense_draws", "8"), below("dense_max_matching", 1e-9),
                 below("rk4_rel_error", 1e-6)))]


JOB_LISTS = {
    "cli-quick": _cli_quick,
    "large-ring": _large_ring,
    "simulate": _simulate,
    "oracle": _oracle,
}
