"""Command-line front-end.

Subcommands reproduce the main simulated data products as plot-ready CSV
(resonator phase sweep, chopped relaxation traces, shift vs field,
sensitivity estimate, phase-noise traces) and fit recorded/emitted CSVs,
writing JSON fit reports. ``main`` alone decides how a failure ends (see
its docstring for the exit codes). Every command is deterministic given
(config, seed): reruns produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
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
from .params import MAX_SAMPLES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3


def _out_dir(args, cfg=None):
    """The output directory, which is created only when an output is
    written. Checked before any work: a path that exists and is not a
    directory raises the FileExistsError ``os.makedirs`` would."""
    out = args.out or (cfg.output_dir if cfg is not None else ".")
    if os.path.lexists(out) and not os.path.isdir(out):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), out)
    return out


def _flag(name):
    return "--" + name.replace("_", "-")


def _count_option(args, name):
    """The integer option --name, or a ConfigError naming it below 1 or at
    more samples than one array can hold."""
    value = getattr(args, name)
    if value < 1:
        raise ConfigError(f"{_flag(name)} must be an integer >= 1, got {value}")
    if not value < MAX_SAMPLES:
        raise ConfigError(f"{_flag(name)} = {value}: more samples than one "
                          f"array can hold ({MAX_SAMPLES:g})")
    return value


def _float_option(args, name, low=-math.inf, strict=False):
    """The float option --name (None when not given), or a ConfigError
    naming it when it is not finite, or below ``low`` (not above it where
    ``strict``)."""
    value = getattr(args, name)
    if value is None or (math.isfinite(value)
                         and (value > low or value == low and not strict)):
        return value
    requirement = "a finite number"
    if low > -math.inf:
        requirement += f" {'>' if strict else '>='} {low:g}"
    raise ConfigError(f"{_flag(name)} must be {requirement}, got {value}")


def _require_finite(labels, columns, path, message):
    """Raise a ConfigError naming ``path`` for the first cell of ``columns``
    that is not finite; ``message`` is formatted with the column's ``label``,
    the cell's ``value`` and its 1-based data ``row``."""
    for label, column in zip(labels, columns):
        finite = np.isfinite(column)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ConfigError(message.format(label=label, value=column[row],
                                             row=row + 1), path=path)


def _emits_csv(compute):
    """A CSV subcommand from ``compute(args, cfg)``, which returns the file
    name, the header and the columns: the config is loaded, the output
    directory checked, the columns computed and checked to be finite, and
    the file written."""
    @functools.wraps(compute)
    def command(args):
        cfg = load_config(args.config)
        out = _out_dir(args, cfg)
        name, header, columns = compute(args, cfg)
        _require_finite(header, columns, args.config,
                        "column '{label}' would hold {value} at data row {row}: "
                        "values outside the floating-point range; nothing written")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, name)
        io.write_csv(path, header, columns)
        print(path)
        return EXIT_OK

    return command


@_emits_csv
def cmd_spectrum(args, cfg):
    cav = cfg.cavity
    lw_hz = np.sqrt(max(1.0 - cav.beta**2, 1e-6)) / (2.0 * cav.q) * cav.omega_c
    det_min = _float_option(args, "det_min")
    det_max = _float_option(args, "det_max")
    det = np.linspace(-5.0 * lw_hz if det_min is None else det_min,
                      5.0 * lw_hz if det_max is None else det_max,
                      _count_option(args, "n_points"))
    omega0 = physics.transition_frequency(cfg.b_fields[0], cfg.ensemble)
    shift = physics.ensemble_dispersive_shift(
        cfg.ensemble, cav.omega_c, omega0, cfg.p_sat
    )
    x = (det - shift) / cav.omega_c
    if cav.beta > 1:  # the tangent form has a pole; see physics
        pole = math.sqrt(cav.beta**2 - 1.0) / (2.0 * cav.q)
        lo, hi = x.min(), x.max()
        if lo <= pole <= hi or lo <= -pole <= hi:
            raise ConfigError(
                f"cavity beta = {cav.beta} > 1 puts poles of the reflection "
                f"phase at detunings {shift - pole * cav.omega_c:g} Hz and "
                f"{shift + pole * cav.omega_c:g} Hz, inside the sweep; keep "
                "--det-min/--det-max clear of them", path=args.config)
    phase = physics.reflection_phase(cav, x)
    return "spectrum.csv", ["detuning_hz", "phase_rad"], [det, phase]


@_emits_csv
def cmd_relaxation(args, cfg):
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
    return "relaxation.csv", header, columns


@_emits_csv
def cmd_shift_vs_field(args, cfg):
    b = np.linspace(_float_option(args, "b_min", low=0),
                    _float_option(args, "b_max", low=0),
                    _count_option(args, "n_points"))
    model = fitting.shift_vs_field_model(cfg.ensemble, cfg.cavity, cfg.p_sat)
    phase = model.func([cfg.ensemble.n_spins, cfg.ensemble.t2_star], b)
    return "shift_vs_field.csv", ["b_gauss", "phase_rad"], [b, phase]


@_emits_csv
def cmd_sensitivity(args, cfg):
    bounds = {name: _float_option(args, name, low=0, strict=True)
              for name in ("f_min", "f_max")}
    for name, value in bounds.items():
        try:  # the sweep's ends are its extremes
            noiselockin.psd_value(cfg.psd, value)
        except DomainError as exc:
            raise ConfigError(f"{_flag(name)} = {value}: {exc}") from exc
    f = np.geomspace(*bounds.values(), _count_option(args, "n_points"))
    s_sqrt = np.sqrt(noiselockin.psd_value(cfg.psd, f))
    eta = noiselockin.sensitivity(cfg.optimized, s_sqrt)
    limits = noiselockin.shot_noise_limit(cfg.optimized.n_spins, cfg.optimized.t2)
    return (
        "sensitivity.csv",
        ["f_hz", "sensitivity_t_per_sqrthz", "shot_noise_t_per_sqrthz",
         "optical_t_per_sqrthz"],
        [f, eta, np.full_like(f, limits.eta_spin),
         np.full_like(f, limits.optical_estimate)],
    )


@_emits_csv
def cmd_noise(args, cfg):
    n_samples = _count_option(args, "n_samples")
    seed = args.seed if args.seed is not None else cfg.seed
    series = noiselockin.synthesize_phase_noise(
        cfg.psd, cfg.lockin.fs, n_samples, seed
    )
    times = np.arange(n_samples) / cfg.lockin.fs
    return "noise.csv", ["time_s", "value"], [times, series]


def _load_init(path, model):
    """The init JSON: an object whose "init" maps parameters of ``model`` to
    starting values under ``fitting.start_values``' rules. Returns the
    starting values and the entry point's other keyword arguments: only
    reflection_phase reads "x_scale", and no model reads any other key."""
    _, spec = io.read_json(path)
    if not isinstance(spec, dict) or not isinstance(spec.get("init"), dict):
        raise ConfigError('expected an object with an "init" object of '
                          "starting values", path=path)
    options = {key: value for key, value in spec.items() if key != "init"}
    read = {"x_scale"} if model.name == "reflection_phase" else set()
    unread = sorted(set(options) - read)
    try:
        fitting.start_values(model, spec["init"])
        if unread:
            raise ConfigError(f"\"{unread[0]}\" is not read by model "
                              f"'{model.name}'", path=path)
        fitting.check_x_scale(options.get("x_scale"))
    except InvalidParameterError as exc:
        raise ConfigError(str(exc), path=path) from exc
    return spec["init"], options


def cmd_fit(args):
    if args.max_iterations < 1:
        raise ConfigError("--max-iterations: max_iterations must be an integer "
                          f">= 1, got {args.max_iterations}")
    options = {}
    if args.model == "shift_vs_field":
        if args.config is None:
            raise ConfigError("model 'shift_vs_field' requires --config for the "
                              "fixed ensemble/cavity parameters")
        cfg = load_config(args.config)
        model = fitting.shift_vs_field_model(cfg.ensemble, cfg.cavity, cfg.p_sat)
        options["fixed"] = {"ensemble": cfg.ensemble, "cavity": cfg.cavity,
                            "polarization": cfg.p_sat}
    else:
        model = getattr(fitting, f"{args.model}_model")()
    init, init_options = _load_init(args.init, model)
    _, columns = io.read_csv(args.input_csv)
    if len(columns) < 2:
        raise ConfigError("expected x and y columns of numbers",
                          path=args.input_csv)
    _require_finite(("x", "y"), columns[:2], args.input_csv,
                    "the {label} column holds {value} at data row {row}: "
                    "a fit needs finite numbers")
    x, y = columns[:2]
    needed = len(model.names) + 1
    if len(x) < needed:
        raise ConfigError(f"{len(x)} data row(s), but model '{model.name}' "
                          f"needs at least {needed}", path=args.input_csv)
    out = _out_dir(args)
    # looked up on every call, so a replaced entry point is the one run
    fit = getattr(fitting, f"fit_{args.model}")
    try:
        result = fit(x, y, init=init, max_iterations=args.max_iterations,
                     **options, **init_options)
    except SingularJacobianError as exc:
        raise ConfigError(f"model '{model.name}': {exc}",
                          path=args.input_csv) from exc
    if not math.isfinite(result.chi2_reduced):  # the cost overflowed, no step taken
        raise FloatingPointError(f"model '{model.name}' ends the fit with "
                                 f"chi2_reduced = {result.chi2_reduced}")

    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"fit_{args.model}.json")
    io.write_json(path, result.report())
    print(path)
    print(result.summary())
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


@functools.cache  # argparse keeps no state between parse_args calls
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

    p = sub.add_parser("relaxation", help="chopped polarization phase traces")
    common(p)
    p.add_argument("--subtract-offset", action=argparse.BooleanOptionalAction,
                   default=True)

    p = sub.add_parser("shift-vs-field", help="dispersive phase vs magnetic field")
    common(p)
    p.add_argument("--b-min", type=float, default=28.0, help="gauss")
    p.add_argument("--b-max", type=float, default=38.5, help="gauss")
    p.add_argument("--n-points", type=int, default=106)

    p = sub.add_parser("sensitivity", help="phase-noise-limited sensitivity sweep")
    common(p)
    p.add_argument("--f-min", type=float, default=1e2, help="Hz")
    p.add_argument("--f-max", type=float, default=1e5, help="Hz")
    p.add_argument("--n-points", type=int, default=101)

    p = sub.add_parser("noise", help="synthesize a phase-noise trace")
    common(p)
    p.add_argument("--n-samples", type=int, default=2**16)

    p = sub.add_parser("fit", help="fit a CSV to one of the built-in models")
    p.add_argument("input_csv")
    p.add_argument("--model", required=True,
                   choices=["reflection_phase", "exponential", "shift_vs_field"])
    p.add_argument("--init", required=True,
                   help="JSON file: {\"init\": {...}, \"x_scale\": optional}")
    p.add_argument("--max-iterations", type=int,
                   default=fitting.MAX_ITERATIONS)
    common(p, config_required=False)

    return parser


def main(argv=None):
    """Run one subcommand; the exit code is 0 on success, 3 when a fit does
    not converge (its report is still written) and 2, with one ``error:``
    line, for a bad input or option. A path that cannot be read or written
    and a file that is not UTF-8 are named. Numpy's floating-point warnings
    are off: a result past the float range (an arithmetic error, a CSV
    column or a fit's chi-square that is not finite) names the config, and
    a failed allocation names the command's size option (else the config)
    with numpy's text; a fit without a config names its data CSV instead.
    A rank-deficient fit names the data CSV and the model.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    source = args.config if args.config is not None else getattr(args, "input_csv", None)
    try:
        with np.errstate(all="ignore"):
            return command(args)
    except ArithmeticError as exc:
        error = ConfigError("values outside the floating-point range "
                            f"({type(exc).__name__}: {exc})", path=source)
    except MemoryError as exc:
        reason = f"out of memory ({exc}); nothing written"
        size = next((n for n in ("n_points", "n_samples") if hasattr(args, n)), None)
        error = (ConfigError(reason, path=source) if size is None
                 else ConfigError(f"{_flag(size)} = {getattr(args, size)}: {reason}"))
    except (ConfigError, InvalidParameterError, DomainError, OSError) as exc:
        error = exc
    print(f"error: {error}", file=sys.stderr)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
