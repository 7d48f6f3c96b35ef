"""The fault catalogue: deliberate defects in ``src/`` that tier-1 must catch.

Each row of ``FAULTS`` is (name, file, exact old text, new text). The runner
copies the checkout, without ``.git`` or caches, into a temporary directory
outside it, applies one fault at a time to the copy and runs tier-1 there
with ``-x``. It prints, for each fault, the first failing test id or
``SURVIVED``, and exits 1 if any fault survives. The checkout is never
edited.

    python tests/faults.py

The copy's unmutated suite runs first and must pass, so a fault is never
counted as caught by a test that fails anyway, and each mutant must compile,
so a row whose new text is not Python is refused rather than counted as caught
by the collection error it causes. Hypothesis runs with a fixed
seed, so each run reports the same ids. ``tests/test_faults.py``, which
checks that each old text occurs exactly once under ``src/``, is left out of
the mutant runs: every fault breaks it by construction. A fix for a defect
adds the defect as a row; a test fold runs the catalogue before and after,
and a fold that lets a fault survive is not a fold.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHES = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work",
          ".benchmarks", "*.egg-info")
TIER_1 = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
          "--continue-on-collection-errors", "--hypothesis-seed=0",
          "--ignore=tests/test_faults.py"]
TIMEOUT_S = 900

NOISE = "src/dispersive_readout/noiselockin.py"
FIT = "src/dispersive_readout/fitting.py"
CLI = "src/dispersive_readout/cli.py"
IO = "src/dispersive_readout/io.py"
PARAMS = "src/dispersive_readout/params.py"
DYNAMICS = "src/dispersive_readout/dynamics.py"
SPACING = "and (t.size < 3 or np.ptp(dts) <= 4 * np.spacing(max(-t[0], t[-1])))"

FAULTS = [
    # the readout chain and the trace
    ("psd-value-without-its-index-clip", NOISE,
     'idx = np.clip(np.searchsorted(breaks, farr, side="right") - 1, 0, len(breaks) - 1)',
     'idx = np.searchsorted(breaks, farr, side="right") - 1'),
    ("noise-drawn-at-seed-0", NOISE, "rng = np.random.default_rng(seed)",
     "rng = np.random.default_rng(0)"),
    ("lock-in-without-its-factor-2", NOISE,
     "return _demodulate(signal, _references(cfg).sin)",
     "return _demodulate(signal, _references(cfg).sin) / 2.0"),
    ("sensitivity-of-the-squared-density", NOISE, "/ optimized_phase_shift(p) * s",
     "/ optimized_phase_shift(p) * s**2"),
    ("shot-noise-without-its-square-root", NOISE, "math.sqrt(n_spins * t2)",
     "(n_spins * t2)"),
    ("dark-decay-at-t1-light", DYNAMICS,
     "np.exp(-t / ens.t1_dark)", "np.exp(-t / ens.t1_light)"),
    ("phase-trace-at-the-resonant-slope", DYNAMICS,
     "phase = cav.phase_slope * (delta_c / cav.omega_c)",
     "phase = cav.resonant_slope * (delta_c / cav.omega_c)"),
    ("trace-without-the-uniform-spacing-check", DYNAMICS, SPACING, "and True"),
    ("trace-spacing-at-a-relative-tolerance-of-1e-9", DYNAMICS, SPACING,
     "and np.allclose(dts, dts[:1], rtol=1e-9, atol=0)"),
    # the fit engine, the ensemble formula, the CSV writer and the config
    ("jacobian-by-forward-differences", FIT,
     "np.divide(func(p_hi, x) - func(p_lo, x), 2.0 * step, out=jac[:, i])",
     "np.divide(func(p_hi, x) - func(params, x), step, out=jac[:, i])"),
    ("covariance-not-scaled-by-chi2", FIT, "cov = cov * chi2_reduced", "cov = cov * 1.0"),
    ("projection-drops-the-offset-column", FIT,
     "        out -= out.sum() / len(out)\n        out *= _amplitude(out, y_centred)\n"
     "        out += y_mean\n", "        out *= _amplitude(out, y)\n"),
    ("covariance-tau-column-over-tau-not-tau-squared", FIT,
     "decay * (t / tau) * (amplitude / tau)", "decay * (t / tau) * amplitude"),
    ("lm-accepts-an-uphill-step", FIT, "if np.isfinite(cost_new) and cost_new <= cost:",
     "if np.isfinite(cost_new):"),
    ("dawson-argument-over-2-sigma", "src/dispersive_readout/physics.py",
     "return dawson(detuning / (SQRT2 * sigma))",
     "return dawson(detuning / (2.0 * sigma))"),
    ("csv-block-drops-its-last-row", IO, "c[start:start + _BLOCK_ROWS]",
     "c[start:start + _BLOCK_ROWS - 1]"),
    ("repeated-field-accepted", "src/dispersive_readout/config.py",
     "if len(set(fields)) < len(fields):", "if False:"),
    # the parameter rules and the readers
    ("negative-beta-accepted", PARAMS, "if self.beta < 0:", "if False:"),
    ("psd-continuity-at-1e-3", PARAMS, "rel_tol=1e-6", "rel_tol=1e-3"),
    ("duty-outside-the-unit-interval-accepted", PARAMS, "if not 0 <= self.duty <= 1:",
     "if False:"),
    ("fraction-is-a-finite-number", PARAMS, "isinstance(value, (bool, fractions.Fraction))",
     "isinstance(value, bool)"),
    ("nested-repeated-key-not-found", IO, "inner = _first_repeat(source, start)",
     "inner = None"),
    ("underscore-cell-is-a-number", IO, 'return "_" not in cell and cell.strip().isascii()',
     "return cell.strip().isascii()"),
    # how the CLI routes a refusal: its exit, its one line and what it writes
    ("init-key-unread-by-the-model-accepted", CLI, "        if unread:",
     "        if False:"),
    ("every-fit-names-the-config", CLI,
     'uses_config = args.command != "fit" or args.model == "shift_vs_field"',
     "uses_config = True"),
    ("non-utf8-input-not-named", IO,
     "        except UnicodeDecodeError as exc:\n            raise ConfigError("
     'f"not UTF-8 text ({exc.reason})", path=path) from exc\n', ""),
    ("fit-creates-out-before-reading-its-inputs", CLI,
     "    init, init_options = _load_init(args.init, model)",
     "    os.makedirs(_out_dir(args), exist_ok=True)\n"
     "    init, init_options = _load_init(args.init, model)"),
    ("fit-writes-a-report-whose-cost-overflowed", CLI,
     "if not math.isfinite(result.chi2_reduced):", "if False:"),
    ("unreadable-path-escapes-main", CLI,
     "except (ConfigError, InvalidParameterError, OSError) as exc:",
     "except (ConfigError, InvalidParameterError) as exc:"),
    ("argparse-refusal-prints-its-usage", CLI, "        raise ConfigError(message)",
     "        super().error(message)"),
    # what a successful run prints and writes
    ("no-subtract-offset-ignored", CLI, "subtract_offset=args.subtract_offset,",
     "subtract_offset=True,"),
    ("one-field-column-named-by-its-field", CLI, 'header.append("phase_rad")',
     'header.append(f"phase_rad_b{io.format_float(b)}")'),
    ("csv-commands-print-nothing", CLI,
     "        io.write_csv(path, header, columns)\n        print(path)\n",
     "        io.write_csv(path, header, columns)\n"),
    ("fit-prints-no-report-path", CLI,
     "    io.write_json(path, result.report())\n    print(path)\n",
     "    io.write_json(path, result.report())\n"),
    ("fit-prints-no-summary", CLI, "    print(result.summary())\n", ""),
    ("fit-reads-the-last-two-columns", CLI, "x, y = columns[:2]", "x, y = columns[-2:]"),
]


def _first_failure(output):
    """The first failing or erroring test id in pytest's short summary."""
    for row in output.splitlines():
        kind, _, rest = row.partition(" ")
        if kind in ("FAILED", "ERROR"):
            return rest.split(" - ")[0]
    return None


def _tier_1(copy):
    """(passed, first failing id or the reason none is named) of tier-1 in ``copy``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])))
    try:
        run = subprocess.run(TIER_1, cwd=copy, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    if run.returncode == 0:
        return True, None
    return False, _first_failure(run.stdout) or f"exit {run.returncode}"


def main():
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*CACHES))
        passed, failure = _tier_1(copy)
        if not passed:
            sys.exit(f"the unmutated copy fails tier-1: {failure}")
        survived = []
        for name, path, old, new in FAULTS:
            source = (copy / path).read_text(encoding="utf-8")
            if source.count(old) != 1:
                sys.exit(f"{name}: the old text does not occur exactly once in {path}")
            mutant = source.replace(old, new)
            try:
                compile(mutant, path, "exec")
            except SyntaxError as exc:
                sys.exit(f"{name}: the mutant does not compile: {exc}")
            (copy / path).write_text(mutant, encoding="utf-8")
            start = time.perf_counter()
            try:
                passed, failure = _tier_1(copy)
            finally:
                (copy / path).write_text(source, encoding="utf-8")
            if passed:
                survived.append(name)
            print(f"{name}: {'SURVIVED' if passed else failure} "
                  f"({time.perf_counter() - start:.0f} s)", flush=True)
    print(f"{len(FAULTS) - len(survived)} of {len(FAULTS)} faults caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
