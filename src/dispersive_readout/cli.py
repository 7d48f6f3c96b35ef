"""Command-line front-end.

Subcommands reproduce the main simulated data products as plot-ready CSV
(resonator phase sweep, chopped relaxation traces, shift vs field,
sensitivity estimate, phase-noise traces) and fit recorded/emitted CSVs,
writing JSON fit reports.

Exit codes: 0 success, 2 configuration error, 3 fit non-convergence
(the report is still written). Every command is deterministic given
(config, seed): reruns produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import dynamics, fitting, io, noiselockin, physics
from .config import load_config
from .errors import (
    ConfigError,
    DomainError,
    InvalidParameterError,
    SingularJacobianError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3


def _out_dir(args, cfg=None):
    out = args.out or (cfg.output_dir if cfg is not None else ".")
    os.makedirs(out, exist_ok=True)
    return out


def _linewidth(cav):
    # fractional half-width of the resonant phase feature
    return np.sqrt(max(1.0 - cav.beta**2, 1e-6)) / (2.0 * cav.q)


def cmd_spectrum(args):
    cfg = load_config(args.config)
    cav = cfg.cavity
    lw_hz = _linewidth(cav) * cav.omega_c
    det_min = args.det_min if args.det_min is not None else -5.0 * lw_hz
    det_max = args.det_max if args.det_max is not None else 5.0 * lw_hz
    det = np.linspace(det_min, det_max, args.n_points)
    omega0 = physics.transition_frequency(cfg.b_fields[0], cfg.ensemble)
    shift = physics.ensemble_dispersive_shift(
        cfg.ensemble, cav.omega_c, omega0, cfg.p_sat
    )
    phase = physics.reflection_phase(cav, (det - shift) / cav.omega_c)
    phase = np.atleast_1d(phase)
    out = _out_dir(args, cfg)
    path = os.path.join(out, "spectrum.csv")
    io.write_csv(path, ["detuning_hz", "phase_rad"], [det, phase])
    print(path)
    return EXIT_OK


def cmd_relaxation(args):
    cfg = load_config(args.config)
    ptrace = dynamics.polarization_trace(cfg.cycle, cfg.ensemble, p_sat=cfg.p_sat)
    header = ["time_s"]
    columns = [ptrace.times]
    for b in cfg.b_fields:
        phase = dynamics.phase_trace(
            ptrace, cfg.ensemble, cfg.cavity, b,
            subtract_offset=args.subtract_offset,
        ).phase
        if len(cfg.b_fields) == 1:
            header.append("phase_rad")
        else:
            header.append(f"phase_rad_b{io.format_float(b)}")
        columns.append(phase)
    out = _out_dir(args, cfg)
    path = os.path.join(out, "relaxation.csv")
    io.write_csv(path, header, columns)
    print(path)
    return EXIT_OK


def cmd_shift_vs_field(args):
    cfg = load_config(args.config)
    b = np.linspace(args.b_min, args.b_max, args.n_points)
    model = fitting.shift_vs_field_model(cfg.ensemble, cfg.cavity, cfg.p_sat)
    phase = np.atleast_1d(
        model.func([cfg.ensemble.n_spins, cfg.ensemble.t2_star], b)
    )
    out = _out_dir(args, cfg)
    path = os.path.join(out, "shift_vs_field.csv")
    io.write_csv(path, ["b_gauss", "phase_rad"], [b, phase])
    print(path)
    return EXIT_OK


def cmd_sensitivity(args):
    cfg = load_config(args.config)
    f = np.geomspace(args.f_min, args.f_max, args.n_points)
    s_sqrt = np.sqrt(noiselockin.psd_value(cfg.psd, f))
    eta = noiselockin.sensitivity(cfg.optimized, s_sqrt)
    limits = noiselockin.shot_noise_limit(cfg.optimized.n_spins, cfg.optimized.t2)
    out = _out_dir(args, cfg)
    path = os.path.join(out, "sensitivity.csv")
    io.write_csv(
        path,
        ["f_hz", "sensitivity_t_per_sqrthz", "shot_noise_t_per_sqrthz",
         "optical_t_per_sqrthz"],
        [f, eta, np.full_like(f, limits.eta_spin),
         np.full_like(f, limits.optical_estimate)],
    )
    print(path)
    return EXIT_OK


def cmd_noise(args):
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    series = noiselockin.synthesize_phase_noise(
        cfg.psd, cfg.lockin.fs, args.n_samples, seed
    )
    times = np.arange(args.n_samples) / cfg.lockin.fs
    out = _out_dir(args, cfg)
    path = os.path.join(out, "noise.csv")
    io.write_csv(path, ["time_s", "value"], [times, series])
    print(path)
    return EXIT_OK


def _load_init(path):
    """The init JSON: an object whose "init" maps names to starting values."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc.msg}", exc.lineno, path) from exc
    if not isinstance(spec, dict) or not isinstance(spec.get("init"), dict):
        raise ConfigError('expected an object with an "init" object of '
                          "starting values", path=path)
    return spec


def _bad_csv_row(path):
    """(line, reason) for the first data row of ``path`` that is not a row of
    numbers as wide as the first one, or None. Only runs after a failed read."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    width = None
    for line, text in enumerate(lines[1:], start=2):
        cells = text.split("#")[0].strip()
        if not cells:
            continue
        cells = cells.split(",")
        width = width or len(cells)
        if len(cells) != width:
            return line, f"expected {width} columns, found {len(cells)}"
        for col, cell in enumerate(cells, start=1):
            try:
                float(cell)
            except ValueError:
                return line, f"column {col}: {cell.strip()!r} is not a number"
    return None


def _read_xy(path):
    """The first two columns of a data CSV, or a ConfigError naming the file."""
    try:
        _, columns = io.read_csv(path)
    except ValueError as exc:
        bad = _bad_csv_row(path)
        if bad is None:
            raise ConfigError(str(exc), path=path) from exc
        raise ConfigError(bad[1], bad[0], path) from exc
    if len(columns) < 2:
        raise ConfigError("expected x and y columns of numbers", path=path)
    return columns[0], columns[1]


def cmd_fit(args):
    init_spec = _load_init(args.init)
    init = init_spec["init"]
    x, y = _read_xy(args.input_csv)

    max_iter = args.max_iterations
    if args.model == "shift_vs_field":
        if args.config is None:
            raise ConfigError("model 'shift_vs_field' requires --config for the "
                              "fixed ensemble/cavity parameters")
        cfg = load_config(args.config)
    try:  # the fit entry points look up the starting values they need by name
        if args.model == "reflection_phase":
            result = fitting.fit_reflection_phase(
                x, y, init, x_scale=init_spec.get("x_scale"),
                max_iterations=max_iter,
            )
        elif args.model == "exponential":
            result = fitting.fit_exponential(x, y, init, max_iterations=max_iter)
        else:
            result = fitting.fit_shift_vs_field(
                x, y,
                fixed={"ensemble": cfg.ensemble, "cavity": cfg.cavity,
                       "polarization": cfg.p_sat},
                init=init,
                max_iterations=max_iter,
            )
    except KeyError as exc:
        raise ConfigError(f'"init" has no starting value for {exc.args[0]!r}, '
                          f"which model '{args.model}' needs",
                          path=args.init) from exc

    out = _out_dir(args)
    path = os.path.join(out, f"fit_{args.model}.json")
    io.write_json(path, result.report())
    print(path)
    print(result.summary())
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dispersive-readout",
        description="Simulate and fit cavity-dispersive spin-ensemble readout",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("spectrum", help="resonator reflection-phase sweep")
    common(p)
    p.add_argument("--det-min", type=float, default=None, help="Hz")
    p.add_argument("--det-max", type=float, default=None, help="Hz")
    p.add_argument("--n-points", type=int, default=401)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("relaxation", help="chopped polarization phase traces")
    common(p)
    p.add_argument("--subtract-offset", action=argparse.BooleanOptionalAction,
                   default=True)
    p.set_defaults(func=cmd_relaxation)

    p = sub.add_parser("shift-vs-field", help="dispersive phase vs magnetic field")
    common(p)
    p.add_argument("--b-min", type=float, default=28.0, help="gauss")
    p.add_argument("--b-max", type=float, default=38.5, help="gauss")
    p.add_argument("--n-points", type=int, default=106)
    p.set_defaults(func=cmd_shift_vs_field)

    p = sub.add_parser("sensitivity", help="phase-noise-limited sensitivity sweep")
    common(p)
    p.add_argument("--f-min", type=float, default=1e2, help="Hz")
    p.add_argument("--f-max", type=float, default=1e5, help="Hz")
    p.add_argument("--n-points", type=int, default=101)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("noise", help="synthesize a phase-noise trace")
    common(p)
    p.add_argument("--n-samples", type=int, default=2**16)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("fit", help="fit a CSV to one of the built-in models")
    p.add_argument("input_csv")
    p.add_argument("--model", required=True,
                   choices=["reflection_phase", "exponential", "shift_vs_field"])
    p.add_argument("--init", required=True,
                   help="JSON file: {\"init\": {...}, \"x_scale\": optional}")
    p.add_argument("--max-iterations", type=int, default=200)
    common(p, config_required=False)
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidParameterError, DomainError,
            SingularJacobianError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
