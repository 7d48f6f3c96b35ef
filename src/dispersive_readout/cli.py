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
from .errors import ConfigError, InvalidParameterError, SingularJacobianError
from .params import check_count, check_samples, check_seed

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3


def _out_dir(args, cfg=None):
    """The output directory, which is created only when an output is
    written. Checked before any work: an empty --out is refused, and a path
    that exists and is not a directory raises the FileExistsError
    ``os.makedirs`` would."""
    if args.out == "":
        raise ConfigError("--out must name a directory, got ''")
    out = args.out if args.out is not None else (
        cfg.output_dir if cfg is not None else ".")
    if os.path.lexists(out) and not os.path.isdir(out):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), out)
    return out


def _flag(name):
    return "--" + name.replace("_", "-")


def _count_option(args, name):
    """The integer option --name under the library's count and array-size
    rules, which name it."""
    value = getattr(args, name)
    check_count(value, _flag(name))
    check_samples(value, _flag(name))
    return value


def _float_option(args, name, check=None):
    """The float option --name (None when not given), or a ConfigError naming
    it when it is not finite or ``check``, the library rule it feeds, fails."""
    value = getattr(args, name)
    if value is not None and not math.isfinite(value):
        raise ConfigError(f"{_flag(name)} must be a finite number, got {value}")
    if check is not None:
        try:
            check(value)
        except InvalidParameterError as exc:
            raise ConfigError(f"{_flag(name)} = {value}: {exc}") from exc
    return value


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
        for label, column in zip(header, columns):
            finite = np.isfinite(column)
            if not finite.all():
                row = int(np.argmin(finite))
                raise ConfigError(
                    f"column '{label}' would hold {column[row]} at data row "
                    f"{row + 1}: values outside the floating-point range; "
                    "nothing written", path=args.config)
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
    in_range = functools.partial(physics.transition_frequency, ens=cfg.ensemble)
    b = np.linspace(_float_option(args, "b_min", in_range),
                    _float_option(args, "b_max", in_range),
                    _count_option(args, "n_points"))
    model = fitting.shift_vs_field_model(cfg.ensemble, cfg.cavity, cfg.p_sat)
    phase = model.func([cfg.ensemble.n_spins, cfg.ensemble.t2_star], b)
    return "shift_vs_field.csv", ["b_gauss", "phase_rad"], [b, phase]


@_emits_csv
def cmd_sensitivity(args, cfg):
    in_psd = functools.partial(noiselockin.psd_value, cfg.psd)  # ends bound the sweep
    f = np.geomspace(_float_option(args, "f_min", in_psd),
                     _float_option(args, "f_max", in_psd),
                     _count_option(args, "n_points"))
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
    seed = cfg.seed if args.seed is None else check_seed(args.seed, "--seed")
    try:  # the config's lock-in rate against its PSD band (Nyquist)
        series = noiselockin.synthesize_phase_noise(
            cfg.psd, cfg.lockin.fs, n_samples, seed
        )
    except InvalidParameterError as exc:
        raise ConfigError(str(exc), path=args.config) from exc
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
    check_count(args.max_iterations, "--max-iterations")
    cfg = None if args.config is None else load_config(args.config)
    options = {}
    if args.model == "shift_vs_field":
        if cfg is None:
            raise ConfigError("model 'shift_vs_field' requires --config for the "
                              "fixed ensemble/cavity parameters")
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
    x, y = columns[:2]
    out = _out_dir(args)
    # looked up on every call, so a replaced entry point is the one run
    fit = getattr(fitting, f"fit_{args.model}")
    try:
        result = fit(x, y, init=init, max_iterations=args.max_iterations,
                     **options, **init_options)
    except (InvalidParameterError, SingularJacobianError) as exc:
        raise ConfigError(f"model '{model.name}': {exc}",
                          path=args.input_csv) from exc
    if not math.isfinite(result.chi2_reduced):  # the cost overflowed, no step taken
        raise FloatingPointError(f"model '{model.name}' ends the fit with "
                                 f"chi2_reduced = {result.chi2_reduced}")
    if result.converged and not np.isfinite(result.sigma).all():  # no covariance
        raise FloatingPointError(f"model '{model.name}' converges with "
                                 f"sigma = {result.sigma}")

    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"fit_{args.model}.json")
    io.write_json(path, result.report())
    print(path)
    print(result.summary())
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line with a ConfigError, which ``main`` prints
    as one ``error:`` line; ``--help`` still exits 0."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache  # argparse keeps no state between parse_args calls
def build_parser():
    parser = _Parser(
        prog="dispersive-readout",
        description="Simulate and fit cavity-dispersive spin-ensemble readout",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed (read by noise only)")
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
    with numpy's text. The config is named only by a command whose results
    use it: the CSV commands and ``fit --model shift_vs_field``; any other
    fit names its data CSV instead, whether or not ``--config`` is given
    (a given config is still loaded and checked, and its own errors name it).
    A rank-deficient fit, and an InvalidParameterError the fit raises after
    the CLI's checks (too few rows, or for ``shift_vs_field`` a field that
    is negative or past the level crossing), name the data CSV and the model.
    """
    try:
        args = build_parser().parse_args(argv)  # refuses with a ConfigError only
        uses_config = args.command != "fit" or args.model == "shift_vs_field"
        source = args.config if uses_config else args.input_csv
        with np.errstate(all="ignore"):
            return globals()["cmd_" + args.command.replace("-", "_")](args)
    except ArithmeticError as exc:
        error = ConfigError("values outside the floating-point range "
                            f"({type(exc).__name__}: {exc})", path=source)
    except MemoryError as exc:
        reason = f"out of memory ({exc}); nothing written"
        size = next((n for n in ("n_points", "n_samples") if hasattr(args, n)), None)
        error = (ConfigError(reason, path=source) if size is None
                 else ConfigError(f"{_flag(size)} = {getattr(args, size)}: {reason}"))
    except (ConfigError, InvalidParameterError, OSError) as exc:
        error = exc
    print(f"error: {error}", file=sys.stderr)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
