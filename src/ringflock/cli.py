"""ringflock command line: config ingestion, subcommands, CSV emission.

Exit codes: 0 stable / ok, 1 usage, invalid value or I/O failure, 2
domain-negative result (instability, violated bound), 3 a marginal spectrum
(stability) or an overdamped mode with no phase velocity (velocities).
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, RingflockError
from .model import FlockParams
from .sim import ImpulseRun
from .spectral import _mode_blocks, _spectrum_roots, _symmetric_modes, eigencurve, hausdorff
from .stability import instability_witness, spectral_verdict, stable_for_all_n
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
    "rho_x.m1": -0.5,  # each row's center weight is -(m1 + p1)
    "rho_x.p1": -0.5,
    "rho_v.m1": -0.5,
    "rho_v.p1": -0.5,
    "n_phi": 4096,
    "alpha": 0.3,
    "beta": 0.7,
    "K": 2.0,
    "p": 2.0,
    "t_end": None,   # simulate: 0.6 * n / min signal speed
    "seed": 0,
    "n_sweep": (256, 512, 1024),
}


def _convert(key, text):
    """Parse a value with the type of the key's default.  A default of None
    means a float, or 'auto' (None) as _fmt writes it."""
    default = DEFAULTS[key]
    if default is None and text == "auto":
        return None
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
    return FlockParams.nearest_neighbor(cfg["n"], cfg["g_x"], cfg["g_v"],
                                        cfg["rho_x.p1"], cfg["rho_v.p1"],
                                        cfg["rho_x.m1"], cfg["rho_v.m1"])


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


_CSV_BLOCK_CELLS = 1 << 13


def _write_atomic(path: Path, chunks):
    """Write the byte chunks to a temp file beside path, then move it into
    place. A failed write removes the temp file and leaves path as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already once os.replace succeeds


def _write_csv(path: Path, header, blocks):
    """Atomic CSV write of blocks: an iterable of tuples of equal-length
    columns (1-D arrays, or 2-D arrays that each give several adjacent
    columns), each a run of the next rows; a whole table is a one-block list.
    A block is rendered as it arrives and dropped before the next is asked
    for, so a streamed table costs the memory of one block; an error raised
    by the iterable leaves no file.  Each cell's text is exactly '%.17g' %
    float(v), which keeps every float64 bit and writes integers below 2**53
    as plain integers; numpy renders it _CSV_BLOCK_CELLS cells at a time."""
    from .csvtext import render  # loaded only by runs that write a CSV

    rows = max(1, _CSV_BLOCK_CELLS // len(header))

    def chunks():
        yield (",".join(header) + "\n").encode()
        for cols in blocks:
            for i in range(0, len(cols[0]), rows):
                yield render(np.column_stack([c[i:i + rows] for c in cols]))
            del cols  # so the next block is computed with this one freed

    _write_atomic(path, chunks())


def _echo_config(cfg, out_dir: Path):
    _write_atomic(out_dir / "resolved_config",
                  (f"{key}={_fmt(cfg[key])}\n".encode() for key in sorted(cfg)))


def cmd_stability(cfg, params, out_dir):
    report = spectral_verdict(params)
    closed_form = stable_for_all_n(params)
    # The witness search can fail, so it runs before anything is printed.
    found = instability_witness(params) if report.spectral_stable and not closed_form else report
    print(f"ring of {params.n} agents, g_x={params.g_x:g}, g_v={params.g_v:g}")
    print(f"closed_form={_fmt(closed_form)}")
    print(f"spectral={_fmt(report.spectral_stable)}")
    print(f"max_re={_fmt(report.max_real_part)}")
    if closed_form:
        return 0
    if report.marginal:
        print("verdict=marginal")
        return 3
    m, branch, nu = found.witness
    print(f"witness_m={m}")
    print(f"witness_n={found.n}")
    print(f"witness_branch={branch}")
    print(f"witness_re={_fmt(nu.real)}")
    return 2


def cmd_spectrum(cfg, params, out_dir):
    # Two walks of the mode blocks: the first keeps only the 2n roots, so the
    # distance and every error come before any write; the second streams the
    # rows.  Rendered after hausdorff, the rows reuse the heap its scratch
    # grew: one walk that rendered as it went took 14.1k minor page faults
    # and 214 ms here at n = 50000, against 4.5k and 197 ms (2-core x86_64 VM).
    nus = _spectrum_roots(params)
    curve = eigencurve(params, cfg["n_phi"])  # before any write: it checks n_phi
    d_h = hausdorff(nus, curve.points())
    del nus
    _write_csv(out_dir / "spectrum.csv",
               ["m", "re_lambda_x", "im_lambda_x", "re_lambda_v", "im_lambda_v",
                "re_nu_plus", "im_nu_plus", "re_nu_minus", "im_nu_minus"],
               ((ms, lx.real, lx.imag, lv.real, lv.imag, plus.real, plus.imag,
                 minus.real, minus.imag)
                for ms, lx, lv, plus, minus in _mode_blocks(params, _symmetric_modes(params.n))))
    r1, r2 = curve.roots.T
    _write_csv(out_dir / "eigencurve.csv",
               ["phi", "re_nu_1", "im_nu_1", "re_nu_2", "im_nu_2"],
               [(curve.phi, r1.real, r1.imag, r2.real, r2.imag)])
    print(f"modes={params.n}")
    print(f"hausdorff={_fmt(d_h)}")
    return 0


def cmd_velocities(cfg, params, out_dir):
    if not stable_for_all_n(params):
        print("closed_form=false")
        return 2
    pv = phase_velocities(params)
    if pv.overdamped.any():
        m = pv.ms[pv.overdamped][0]
        print(f"degenerate_branches=true  # mode m={m} has real branches; no phase velocity")
        return 3
    sigs = signal_velocities(params)
    _write_csv(out_dir / "velocities.csv",
               ["m", "c_plus", "c_minus", "re_nu_plus", "re_nu_minus"],
               [(pv.ms, pv.c_plus, pv.c_minus, pv.re_nu_plus, pv.re_nu_minus)])
    print(f"c_plus={_fmt(sigs.c_plus)}")
    print(f"c_minus={_fmt(sigs.c_minus)}")
    print(f"a={_fmt(sigs.a)}")
    return 0


def cmd_simulate(cfg, params, out_dir):
    if not stable_for_all_n(params):
        print("closed_form=false")
        return 2
    run = ImpulseRun(params, t_end=cfg["t_end"])
    n = params.n
    _write_csv(out_dir / "trajectory.csv",
               ["t", *(f"z_{k}" for k in range(n)), *(f"zdot_{k}" for k in range(n))],
               run)
    front = run.report
    _write_csv(out_dir / "wavefront.csv", ["k", "arrival_time"],
               [(np.arange(n), front.arrival_time)])

    print(f"fitted_c_plus={_fmt(front.fitted_c_plus)}")
    print(f"fitted_c_minus={_fmt(front.fitted_c_minus)}")
    print(f"predicted_c_plus={_fmt(front.predicted_c_plus)}")
    print(f"predicted_c_minus={_fmt(front.predicted_c_minus)}")
    print(f"no_arrival_count={np.isnan(front.arrival_time).sum()}")
    return 0


def cmd_wave_verify(cfg, params, out_dir):
    if list(cfg["n_sweep"]) != sorted(set(cfg["n_sweep"])):
        raise RingflockError(f"n_sweep must be strictly increasing, got {_fmt(cfg['n_sweep'])}")
    alpha = cfg["alpha"]
    reports = []
    for n in cfg["n_sweep"]:
        ring = build_params({**cfg, "n": n})  # first, so a bad n fails as a bad agent count
        coeffs = power_law_coefficients(n, cfg["p"], seed=cfg["seed"])
        reports.append(verify_wave_bound(ring, coeffs, alpha, cfg["beta"], cfg["K"], cfg["p"]))
    _write_csv(out_dir / "wave_verify.csv",
               ["n", "t", "measured_error", "bound_term1", "bound_term2", "bound_term3"],
               [(np.full(r.ts.size, r.n), r.ts, r.measured, r.term1, r.term2, r.term3)
                for r in reports])
    # Everything above can fail; print only once the whole sweep is done.
    if alpha >= 1.0 / 3.0:
        print(f"alpha_guarantee=false  # alpha={alpha:g} outside the alpha < 1/3 regime")
    else:
        print("alpha_guarantee=true")
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
    parser.add_argument("--out", default="out", help="output directory (out)")
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
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _echo_config(cfg, out_dir)
        # wave-verify builds the rings of its sweep and never reads n
        params = None if args.command == "wave-verify" else build_params(cfg)
        return _COMMANDS[args.command](cfg, params, out_dir)
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
