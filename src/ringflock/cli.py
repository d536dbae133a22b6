"""ringflock command line: config ingestion, subcommands, CSV emission.

Exit codes: 0 stable / ok, 1 usage, invalid value or I/O failure, 2
domain-negative result (instability, violated bound), 3 marginal or
inconclusive.
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DegenerateBranches, RingflockError
from .model import FlockParams
from .sim import front_overlay, impulse_experiment
from .spectral import eigencurve, hausdorff, spectrum
from .stability import WITNESS_N_MAX, instability_witness, spectral_verdict, stable_for_all_n
from .wavefield import (
    phase_velocities,
    power_law_coefficients,
    signal_velocities,
    verify_wave_bound,
)

DEFAULTS = {
    "n": 200,
    "g_x": -2.0,
    "g_v": -2.0,
    "rho_x.m1": -0.5,
    "rho_x.0": 1.0,
    "rho_x.p1": -0.5,
    "rho_v.m1": -0.5,
    "rho_v.0": 1.0,
    "rho_v.p1": -0.5,
    "n_phi": 4096,
    "alpha": 0.3,
    "beta": 0.7,
    "K": 2.0,
    "p": 2.0,
    "t_end": None,   # simulate: 0.6 * n / min signal speed
    "v_impulse": 1.0,
    "seed": 0,
    "n_sweep": (256, 512, 1024),
    "output_dir": "out",
}


def _convert(key, text):
    """Parse a value with the type of the key's default; None means float."""
    default = DEFAULTS[key]
    if isinstance(default, str):
        return text
    if isinstance(default, tuple):
        return tuple(int(part) for part in text.split(","))
    if isinstance(default, int):
        return int(text)
    return float(text)


def parse_config(path):
    """Read 'key = value' lines; '#' starts a comment."""
    cfg = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(path, lineno, "expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in DEFAULTS:
                raise ConfigError(path, lineno, f"unknown key '{key}'")
            try:
                cfg[key] = _convert(key, value)
            except ValueError:
                raise ConfigError(path, lineno, f"bad value '{value}' for key '{key}'")
    return cfg


def build_params(cfg) -> FlockParams:
    return FlockParams(
        n=cfg["n"],
        g_x=cfg["g_x"],
        g_v=cfg["g_v"],
        rho_x={-1: cfg["rho_x.m1"], 0: cfg["rho_x.0"], 1: cfg["rho_x.p1"]},
        rho_v={-1: cfg["rho_v.m1"], 0: cfg["rho_v.0"], 1: cfg["rho_v.p1"]},
    )


def _fmt(value):
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


_CSV_BLOCK_ROWS = 4096


def _write_atomic(path: Path, chunks):
    """Write the text chunks to a temp file beside path, then move it into place."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def _write_csv(path: Path, header, *columns):
    """Atomic CSV write of equal-length 1-D arrays: %d for integer columns,
    %s for string columns, %.17g (17 significant digits) for the rest."""
    row = ",".join("%d" if c.dtype.kind in "iu" else "%s" if c.dtype.kind == "U"
                   else "%.17g" for c in columns) + "\n"

    def blocks():
        yield ",".join(header) + "\n"
        # tolist() makes a Python object per cell; going block by block keeps
        # that to a few thousand rows instead of doubling simulate's peak RSS.
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = [c[start:start + _CSV_BLOCK_ROWS].tolist() for c in columns]
            yield "".join(row % cells for cells in zip(*block))

    _write_atomic(path, blocks())


def _echo_config(cfg, out_dir: Path):
    _write_atomic(out_dir / "resolved_config",
                  (f"{key}={_fmt(cfg[key])}\n" for key in sorted(cfg)))


def cmd_stability(cfg, out_dir):
    params = build_params(cfg)
    report = spectral_verdict(params)
    print(f"ring of {params.n} agents, g_x={params.g_x:g}, g_v={params.g_v:g}")
    print(f"closed_form={_fmt(report.closed_form_stable)}")
    print(f"spectral={_fmt(report.spectral_stable)}")
    print(f"max_re={_fmt(report.max_real_part)}")
    if report.closed_form_stable:
        return 0
    if report.marginal:
        print("verdict=marginal")
        return 3
    if report.spectral_stable:
        report = instability_witness(params)
        if report is None:
            print(f"verdict=inconclusive  # no witness up to n={WITNESS_N_MAX}")
            return 3
    m, branch, nu = report.witness
    print(f"witness_m={m}")
    print(f"witness_n={report.n}")
    print(f"witness_branch={branch}")
    print(f"witness_re={_fmt(nu.real)}")
    return 2


def cmd_spectrum(cfg, out_dir):
    params = build_params(cfg)
    spec = spectrum(params)
    _write_csv(out_dir / "spectrum.csv",
               ["m", "re_lambda_x", "im_lambda_x", "re_lambda_v", "im_lambda_v",
                "re_nu_plus", "im_nu_plus", "re_nu_minus", "im_nu_minus"],
               spec.ms, spec.lambda_x.real, spec.lambda_x.imag,
               spec.lambda_v.real, spec.lambda_v.imag, spec.nu_plus.real,
               spec.nu_plus.imag, spec.nu_minus.real, spec.nu_minus.imag)
    curve = eigencurve(params, cfg["n_phi"])
    r1, r2 = curve.roots.T
    _write_csv(out_dir / "eigencurve.csv",
               ["phi", "re_nu_1", "im_nu_1", "re_nu_2", "im_nu_2"],
               curve.phi, r1.real, r1.imag, r2.real, r2.imag)
    d_h = hausdorff(spec.all_nus(), curve.points())
    print(f"modes={params.n}")
    print(f"hausdorff={_fmt(d_h)}")
    return 0


def cmd_velocities(cfg, out_dir):
    params = build_params(cfg)
    if not stable_for_all_n(params):
        print("closed_form=false")
        return 2
    try:
        pv = phase_velocities(params)
    except DegenerateBranches as exc:
        print(f"degenerate_branches=true  # {exc}")
        return 3
    sigs = signal_velocities(params)
    _write_csv(out_dir / "velocities.csv",
               ["m", "c_plus", "c_minus", "re_nu_plus", "re_nu_minus"],
               pv.ms, pv.c_plus, pv.c_minus, pv.re_nu_plus, pv.re_nu_minus)
    print(f"c_plus={sigs.c_plus:.6f}")
    print(f"c_minus={sigs.c_minus:.6f}")
    print(f"a={_fmt(sigs.a)}")
    return 0


def cmd_simulate(cfg, out_dir):
    params = build_params(cfg)
    if not stable_for_all_n(params):
        print("closed_form=false")
        return 2
    traj, front = impulse_experiment(params, v_impulse=cfg["v_impulse"],
                                     t_end=cfg["t_end"])
    n = params.n
    ks = np.arange(n)
    _write_csv(out_dir / "trajectory.csv", ["t", "k", "z", "zdot"],
               np.repeat(traj.times, n), np.tile(ks, traj.times.size),
               traj.z.ravel(), traj.zdot.ravel())
    branch = np.where(ks == 0, "0", np.where(ks <= n // 2, "+", "-"))
    _write_csv(out_dir / "wavefront.csv", ["k", "arrival_time", "branch"],
               ks, front.arrival_time, branch)
    fp, fm = front_overlay(traj, front.predicted_c_plus, front.predicted_c_minus,
                           delta=1.0, v_nominal=0.0)
    _write_csv(out_dir / "orbits.csv", ["t", "front_plus_x", "front_minus_x"],
               traj.times, fp, fm)

    print(f"fitted_c_plus={_fmt(front.fitted_c_plus)}")
    print(f"fitted_c_minus={_fmt(front.fitted_c_minus)}")
    print(f"predicted_c_plus={_fmt(front.predicted_c_plus)}")
    print(f"predicted_c_minus={_fmt(front.predicted_c_minus)}")
    print(f"no_arrival_count={len(front.no_arrival)}")
    if front.no_arrival:
        print("no_arrival=" + ",".join(str(k) for k in front.no_arrival))
    return 0


def cmd_wave_verify(cfg, out_dir):
    params = build_params(cfg)
    if list(cfg["n_sweep"]) != sorted(set(cfg["n_sweep"])):
        raise RingflockError(f"n_sweep must be strictly increasing, got {_fmt(cfg['n_sweep'])}")
    alpha = cfg["alpha"]
    reports = []
    d_const = None
    for n in cfg["n_sweep"]:
        ring = params.with_n(n)  # first, so a bad n fails as a bad agent count
        coeffs = power_law_coefficients(n, cfg["p"], seed=cfg["seed"])
        reports.append(verify_wave_bound(ring, coeffs, alpha, cfg["beta"],
                                         cfg["K"], cfg["p"], d_const=d_const))
        d_const = reports[0].d_const
    per_ring = [(np.full(r.ts.size, r.n), r.ts, r.measured, r.term1, r.term2, r.term3)
                for r in reports]
    _write_csv(out_dir / "wave_verify.csv",
               ["n", "t", "measured_error", "bound_term1", "bound_term2", "bound_term3"],
               *map(np.concatenate, zip(*per_ring)))
    # Everything above can fail; print only once the whole sweep is done.
    if alpha >= 1.0 / 3.0:
        print(f"alpha_guarantee=false  # alpha={alpha:g} outside the alpha < 1/3 regime")
    else:
        print("alpha_guarantee=true")
    print(f"d_const={_fmt(d_const)}  # fitted at n={reports[0].n}, frozen afterwards")
    rel_errors = [r.measured[0] / r.signal_sup[0] for r in reports]
    for r, rel in zip(reports, rel_errors):
        print(f"n={r.n} rel_error={_fmt(rel)} bound_holds={_fmt(r.bound_holds())}")
    monotone = all(rel_errors[i + 1] < rel_errors[i] for i in range(len(rel_errors) - 1))
    print(f"rel_error_monotone={_fmt(monotone)}")
    return 0 if all(r.bound_holds() for r in reports) else 2


_COMMANDS = {
    "stability": cmd_stability,
    "spectrum": cmd_spectrum,
    "velocities": cmd_velocities,
    "simulate": cmd_simulate,
    "wave-verify": cmd_wave_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ringflock",
        description="Spectral analysis and wave diagnostics of ring flocks.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="key = value config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--n", type=int, default=None, help="override agent count")
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    args = parser.parse_args(argv)

    try:
        cfg = dict(DEFAULTS)
        cfg.update(parse_config(args.config))
        if args.n is not None:
            cfg["n"] = args.n
        if args.seed is not None:
            cfg["seed"] = args.seed
        out_dir = Path(args.out if args.out is not None else cfg["output_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        _echo_config(cfg, out_dir)
        return _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, MemoryError) as exc:  # MemoryError: arrays too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
