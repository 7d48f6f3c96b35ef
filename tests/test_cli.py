import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest.mock import sentinel

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispersive_readout.cli import main
from dispersive_readout.io import read_csv

CONFIGS = Path(__file__).parent.parent / "configs"
DEFAULT_CONFIG = json.loads((CONFIGS / "default.json").read_text())
DROP = sentinel.DROP  # removes the key instead of replacing its value
SWEEP = sentinel.SWEEP  # the 12-point shift-vs-field sweep of configs/default.json
DIRECTORY = sentinel.DIRECTORY  # an empty directory where a file is read


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _mutated(*changes):
    """The default config with each (path, value) of ``changes`` applied:
    the value replaces the one at the path, or DROP removes it."""
    data = json.loads(json.dumps(DEFAULT_CONFIG))
    for path, value in changes:
        node = data
        for key in path[:-1]:
            node = node[key]
        if value is DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return data


@functools.cache
def _sweep_bytes():
    """SWEEP's CSV, as ``shift-vs-field`` writes it."""
    with tempfile.TemporaryDirectory() as tmp:
        assert main(["shift-vs-field", "--config", str(CONFIGS / "default.json"),
                     "--out", tmp, "--n-points", "12"]) == 0
        return (Path(tmp) / "shift_vs_field.csv").read_bytes()


def _write(path, content):
    """Write an input file: a JSON value as JSON on one line, text or bytes
    as given, SWEEP as its CSV, DIRECTORY as an empty directory, and None as
    no file at all."""
    if content is SWEEP:
        content = _sweep_bytes()
    if content is DIRECTORY:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif isinstance(content, str):
        path.write_text(content)
    elif content is not None:
        path.write_text(json.dumps(content))


def _line(text, pattern):
    """The number of the first line of ``text`` that starts with a match of
    the regular expression ``pattern``."""
    return next(i for i, row in enumerate(text.splitlines(), start=1)
                if re.match(pattern, row))


@pytest.fixture
def config_path(tmp_path):
    dst = tmp_path / "config.json"
    shutil.copy(CONFIGS / "default.json", dst)
    return dst


class TestSpectrum:
    def test_dispersion_shape_and_zero_crossing(self, config_path, tmp_path):
        _write(config_path, _mutated((("ensemble", "n_spins"), 1.0)))
        assert main(["spectrum", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 0
        header, (det, phase) = read_csv(tmp_path / "spectrum.csv")
        assert header == ["detuning_hz", "phase_rad"]
        mid = len(det) // 2
        assert abs(phase[mid]) < 1e-9  # zero crossing at resonance
        assert phase[mid + 5] * phase[mid - 5] < 0

    def test_sweep_clear_of_an_overcoupled_pole_is_written(self, config_path,
                                                           tmp_path):
        _write(config_path, _mutated((("cavity", "beta"), 1.1)))
        assert main(["spectrum", "--det-min=-1e5", "--det-max=1e5",
                     "--config", str(config_path), "--out", str(tmp_path)]) == 0
        _, (_, phase) = read_csv(tmp_path / "spectrum.csv")
        assert np.all(np.isfinite(phase))

    def test_without_out_writes_into_the_configs_output_dir(
            self, config_path, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["spectrum", "--config", str(config_path)]) == 0  # "out"
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                      ) == ["config.json", "out", "out/spectrum.csv"]

    def test_round_trip_through_cmd_fit(self, config_path, tmp_path):
        _write(config_path, _mutated((("ensemble", "n_spins"), 1.0)))
        main(["spectrum", "--config", str(config_path), "--out", str(tmp_path)])
        init = tmp_path / "init.json"
        init.write_text(json.dumps(
            {"init": {"q": 5.0e3, "beta": 0.6}, "x_scale": 2.8175e9}
        ))
        code = main(["fit", str(tmp_path / "spectrum.csv"),
                     "--model", "reflection_phase", "--init", str(init),
                     "--config", str(config_path), "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "fit_reflection_phase.json").read_text(),
                            parse_constant=lambda name: pytest.fail(name))
        assert report["converged"]
        assert report["params"]["q"]["value"] == pytest.approx(6.0e3, rel=1e-4, abs=0)
        assert report["params"]["beta"]["value"] == pytest.approx(0.74, rel=1e-4, abs=0)


class TestRelaxation:
    def test_map_mode_columns_and_offset(self, config_path, tmp_path):
        assert main(["relaxation", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 0
        header, cols = read_csv(tmp_path / "relaxation.csv")
        assert header[0] == "time_s"
        assert len(cols) == 4  # three configured fields
        for col in cols[1:]:
            assert abs(np.mean(col)) < 1e-12 * max(np.max(np.abs(col)), 1e-300)

    def test_zero_duty_gives_flat_zero_trace(self, config_path, tmp_path):
        _write(config_path, _mutated((("cycle", "duty"), 0.0),
                                     (("b_fields_gauss",), [32.0])))
        assert main(["relaxation", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 0
        _, cols = read_csv(tmp_path / "relaxation.csv")
        assert np.all(cols[1] == 0.0)

    def test_exponential_fit_round_trip(self, config_path, tmp_path):
        _write(config_path, _mutated((("b_fields_gauss",), [30.0]),
                                     (("cycle", "n_periods"), 6)))
        main(["relaxation", "--config", str(config_path), "--out", str(tmp_path),
              "--no-subtract-offset"])
        header, (t, phase) = read_csv(tmp_path / "relaxation.csv")
        # last dark half-cycle decays with t1_dark = 740 us
        per = int(round(4e-3 / 4e-6))
        seg = slice(5 * per + per // 2, 6 * per)
        seg_csv = tmp_path / "segment.csv"
        from dispersive_readout.io import write_csv
        write_csv(seg_csv, ["time_s", "phase_rad"],
                  [t[seg] - t[seg][0], phase[seg]])
        init = tmp_path / "init.json"
        init.write_text(json.dumps(
            {"init": {"amplitude": float(phase[seg][0]), "tau": 1e-3,
                      "offset": 0.0}}
        ))
        assert main(["fit", str(seg_csv), "--model", "exponential",
                     "--init", str(init), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "fit_exponential.json").read_text())
        assert report["params"]["tau"]["value"] == pytest.approx(740e-6, rel=5e-3, abs=0)


class TestShiftVsField:
    def test_antisymmetric_about_resonance(self, config_path, tmp_path):
        assert main(["shift-vs-field", "--config", str(config_path),
                     "--out", str(tmp_path), "--b-min", "20",
                     "--b-max", "45", "--n-points", "251"]) == 0
        _, (b, phase) = read_csv(tmp_path / "shift_vs_field.csv")
        assert np.min(phase) < 0 < np.max(phase)
        # of order 2 mrad at the peak, within a tighter band than criterion 10's
        assert 1e-3 < np.max(np.abs(phase)) < 4e-3

    def test_linearity_in_n_spins(self, config_path, tmp_path):
        main(["shift-vs-field", "--config", str(config_path),
              "--out", str(tmp_path / "a")])
        _write(config_path, _mutated((("ensemble", "n_spins"), 4.0e12)))
        main(["shift-vs-field", "--config", str(config_path),
              "--out", str(tmp_path / "b")])
        _, (_, y1) = read_csv(tmp_path / "a" / "shift_vs_field.csv")
        _, (_, y2) = read_csv(tmp_path / "b" / "shift_vs_field.csv")
        assert np.allclose(y2, 2 * y1, rtol=1e-12)

    def test_fit_round_trip(self, config_path, tmp_path):
        main(["shift-vs-field", "--config", str(config_path),
              "--out", str(tmp_path)])
        init = tmp_path / "init.json"
        init.write_text(json.dumps(
            {"init": {"n_spins": 1.6e12, "t2_star": 22e-9}}
        ))
        assert main(["fit", str(tmp_path / "shift_vs_field.csv"),
                     "--model", "shift_vs_field", "--init", str(init),
                     "--config", str(config_path), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "fit_shift_vs_field.json").read_text())
        assert report["params"]["n_spins"]["value"] == pytest.approx(2e12, rel=1e-4, abs=0)
        assert report["params"]["t2_star"]["value"] == pytest.approx(18e-9, rel=1e-4, abs=0)


class TestSensitivity:
    def test_white_psd_gives_flat_reference_lines(self, config_path, tmp_path):
        _write(config_path, _mutated((("psd", "segments"), [
            {"f_break_hz": 1.0, "exponent": 0.0, "level_rad2_per_hz": 1e-12}])))
        assert main(["sensitivity", "--config", str(config_path),
                     "--out", str(tmp_path), "--f-min", "1e3",
                     "--f-max", "1e5", "--n-points", "11"]) == 0
        _, (f, eta, shot, optical) = read_csv(tmp_path / "sensitivity.csv")
        assert np.allclose(eta, 2.0e-15, rtol=0.01)
        assert np.allclose(shot, 1.8e-17, rtol=0.01)
        assert np.allclose(optical, 2.7e-15, rtol=0.01)

    def test_one_over_f_log_slope(self, config_path, tmp_path):
        _write(config_path, _mutated((("psd", "segments"), [
            {"f_break_hz": 1.0, "exponent": -1.0, "level_rad2_per_hz": 1e-10}])))
        main(["sensitivity", "--config", str(config_path), "--out",
              str(tmp_path), "--f-min", "1e2", "--f-max", "1e5",
              "--n-points", "31"])
        _, (f, eta, _, _) = read_csv(tmp_path / "sensitivity.csv")
        slopes = np.diff(np.log(eta)) / np.diff(np.log(f))
        assert np.allclose(slopes, -0.5, rtol=0.01)


class TestNoise:
    def test_near_zero_psd_gives_zero_series(self, config_path, tmp_path):
        _write(config_path, _mutated((("psd", "segments"), [
            {"f_break_hz": 1.0, "exponent": 0.0, "level_rad2_per_hz": 1e-60}])))
        main(["noise", "--config", str(config_path), "--out", str(tmp_path),
              "--n-samples", "1024"])
        _, (_, value) = read_csv(tmp_path / "noise.csv")
        assert np.max(np.abs(value)) < 1e-20


class TestExitCodes:
    def test_non_convergence_exits_3_but_writes_report(self, tmp_path):
        from dispersive_readout.io import write_csv
        t = np.linspace(0, 2e-3, 60)
        y = 0.8 * np.exp(-t / 7e-4) + 0.1
        csv = tmp_path / "data.csv"
        write_csv(csv, ["time_s", "value"], [t, y])
        init = tmp_path / "init.json"
        init.write_text(json.dumps(
            {"init": {"amplitude": 0.3, "tau": 2e-3, "offset": 0.5}}
        ))
        code = main(["fit", str(csv), "--model", "exponential",
                     "--init", str(init), "--out", str(tmp_path),
                     "--max-iterations", "1"])
        assert code == 3
        # strict JSON: the sigma that cannot be computed is null, not NaN
        report = json.loads((tmp_path / "fit_exponential.json").read_text(),
                            parse_constant=lambda name: pytest.fail(name))
        assert report["converged"] is False
        assert [p["sigma"] for p in report["params"].values()] == [None] * 3


class TestConsoleScript:
    """The ``dispersive-readout`` entry point in a fresh process: the
    installed script when PATH has it, ``python -m dispersive_readout.cli``
    otherwise. A sweep writes the bytes of an in-process run, and a bad input
    exits 2 with one error line and writes nothing."""

    @staticmethod
    def run(argv, env):
        """The entry point run on ``argv``, and the runner it was run by."""
        script = shutil.which("dispersive-readout")
        runner = [script] if script else [sys.executable, "-m",
                                          "dispersive_readout.cli"]
        return subprocess.run(runner + argv, capture_output=True, text=True,
                              env=env, timeout=120), runner

    def test_spectrum_writes_the_bytes_of_an_in_process_run(self, tmp_path, src_env):
        argv = ["spectrum", "--config", str(CONFIGS / "default.json")]
        run, runner = self.run(argv + ["--out", str(tmp_path / "out")], src_env)
        assert (run.returncode, run.stderr) == (0, ""), runner
        assert main(argv + ["--out", str(tmp_path / "in_process")]) == 0
        assert sha256(tmp_path / "out" / "spectrum.csv") == sha256(
            tmp_path / "in_process" / "spectrum.csv"), runner

    def test_header_only_csv_prints_one_error_line(self, tmp_path, src_env):
        csv, init = fit_inputs(tmp_path)
        csv.write_text("time_s,value\n")
        out = tmp_path / "out"
        run, runner = self.run(["fit", str(csv), "--model", "exponential",
                                "--init", str(init), "--out", str(out)], src_env)
        assert (run.returncode, run.stderr) == (
            2, f"error: {csv}: expected x and y columns of numbers\n"), runner
        assert not out.exists(), runner


CSV_ROWS = "x,y\n0.0,1.0\n1.0,0.5\n2.0,0.2\n"
EXP_INIT = {"init": {"amplitude": 1.0, "tau": 1.0}}
RP_INIT = {"init": {"q": 5.0e3, "beta": 0.6}}
SVF_INIT = {"init": {"n_spins": 1.5e12, "t2_star": 1.5e-8}}
# noiseless shift-vs-field sweeps at configs/default.json, 4 digits: one
# starts below 0 G, one crosses the level crossing near 1775.35 G
NEGATIVE_FIELD_ROWS = ("x,y\n-5,-2.710e-4\n0,-3.153e-4\n5,-3.779e-4\n10,-4.753e-4\n"
                       "15,-6.550e-4\n20,-1.018e-3\n25,-1.387e-3\n30,-7.679e-4\n")
CROSSING_ROWS = ("x,y\n1700,5.954e-6\n1725,5.867e-6\n1750,5.781e-6\n1775,5.698e-6\n"
                 "1800,5.618e-6\n1825,5.539e-6\n1850,5.463e-6\n1875,5.389e-6\n"
                 "1900,5.317e-6\n")
SWEEP_INIT = {"init": {"n_spins": 1.6e12, "t2_star": 22e-9}}
DECAY = {"amplitude": 0.8, "tau": 7e-4, "offset": 0.1}
DECAY_T = np.linspace(0.0, 2e-3, 40)
DECAY_Y = DECAY["amplitude"] * np.exp(-DECAY_T / DECAY["tau"]) + DECAY["offset"]
OVERFLOW = ("values outside the floating-point range (OverflowError: (34, "
            "'Numerical result out of range'))")
# finite config values whose formulas overflow in Python floats: the CSV
# commands named the config, and a fit ended in an OverflowError traceback
FIT_OVERFLOWS = [(("cavity", "beta"), 1e200), (("ensemble", "g_hz"), 1e200)]


def _csv_text(x, y):
    return "x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))


DECAY_CSV = _csv_text(DECAY_T, DECAY_Y)
DECAY_START = {"amplitude": 0.7, "tau": 5e-4, "offset": 0.0}


def fit_inputs(tmp_path, init=None):
    """A noiseless exponential-decay CSV of ``DECAY`` and its init JSON in
    ``tmp_path``: ``init`` if given (``DECAY`` itself converges on the first
    iteration), else ``DECAY_START``, off the true values."""
    csv, init_path = tmp_path / "decay.csv", tmp_path / "decay_init.json"
    _write(csv, DECAY_CSV)
    _write(init_path, {"init": init or DECAY_START})
    return csv, init_path


class TestInputFiles:
    def test_malformed_csv_is_opened_once(self, tmp_path, capsys, monkeypatch):
        import builtins
        csv, init = fit_inputs(tmp_path)
        csv.write_text("x,y\n0.0,1.0\n1.0,oops\n2.0,0.2\n")
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert main(["fit", str(csv), "--model", "exponential", "--init", str(init),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {csv}: line 3: column 2: 'oops' is not a number\n")
        assert opened.count(str(csv)) == 1

    def test_load_config_errors_start_with_the_path(self, config_path):
        from dispersive_readout import ConfigError, load_config
        _write(config_path, _mutated((("seed",), -1)))
        with pytest.raises(ConfigError) as info:
            load_config(config_path)
        assert str(info.value) == (
            f"{config_path}: line 1: seed must be a non-negative integer, got -1")
        assert (info.value.line, info.value.reason) == (
            1, "seed must be a non-negative integer, got -1")


SIZE_OPTIONS = [("spectrum", "--n-points"), ("shift-vs-field", "--n-points"),
                ("sensitivity", "--n-points"), ("noise", "--n-samples")]
FLOAT_OPTIONS = [("spectrum", "--det-min"), ("spectrum", "--det-max"),
                 ("shift-vs-field", "--b-min"), ("shift-vs-field", "--b-max"),
                 ("sensitivity", "--f-min"), ("sensitivity", "--f-max")]


# a second "cavity" section in configs/default.json, whose bad q must not be
# blamed on the first
REPEATED_CAVITY = ((CONFIGS / "default.json").read_text().rstrip()
                   .removesuffix("}").rstrip() + ',\n  "cavity": {"omega_c_hz": '
                   '2.8175e9, "q": -5, "beta": 0.74}\n}\n')
FIT_ARGV = "fit {csv} --model exponential --init {init}"
NO_CONFIG = "[Errno 2] No such file or directory: '{config}'"
POLE = ("{config}: cavity beta = 1.1 > 1 puts poles of the reflection phase at "
        "detunings -107650 Hz and 107540 Hz, inside the sweep; keep "
        "--det-min/--det-max clear of them")
# the transition frequency at 2000 G, past the level crossing
NEGATIVE_AT_2000_G = ("the transition frequency zfs - gamma * projection_factor "
                      "* B is -3.63162e+08 Hz at B = 2000 G, not > 0")


def _argparse_refusal(option, value, **spec):
    """The line argparse gives for ``option value`` on a parser that holds
    the one option ``spec`` declares."""
    parser = argparse.ArgumentParser(exit_on_error=False)
    parser.add_argument(option, **spec)
    try:
        parser.parse_args([option, value])
    except argparse.ArgumentError as exc:
        return str(exc)


# raised by an entry point that a row's defect must stop before it is reached
NOT_RUN = AssertionError("the work ran before its input was checked")
NOT_UTF8 = "not UTF-8 text (invalid start byte)"
# the inputs of a row that does not give its own
DEFAULT_INPUTS = {"config": DEFAULT_CONFIG, "csv": DECAY_CSV,
                  "init": {"init": DECAY_START}}


def _fit(model, init, csv, line, config=DEFAULT_CONFIG, raises=None):
    """The COMMAND_DEFECTS row of a fit of ``csv`` by ``model`` from
    ``init``, with --config at ``config``, or without for None."""
    argv = f"fit {{csv}} --model {model} --init {{init}}" + (
        "" if config is None else " --config {config}")
    return {"config": config, "csv": csv, "init": init}, argv, line, raises or {}


# id: (the inputs: "config", "csv" and "init" each map to what _write
# writes, DEFAULT_INPUTS for any left out; the argv, whose {config}, {csv}
# and {init} name those files, with --out <tmp>/out added unless it gives
# one; the one error line after "error: "; each entry point patched, to the
# exception it raises: NOT_RUN where the defect is found before the work)
COMMAND_DEFECTS = {
    # beta = 1.1, q = 6e3: poles near +/-107.6 kHz, where the phase jumps
    # from about -2400 to +2400 rad
    **{f"spectrum-pole-in-{lo}..{hi}": (
        {"config": _mutated((("cavity", "beta"), 1.1))},
        f"spectrum --det-min={lo} --det-max={hi} --config {{config}}", POLE, {})
       for lo, hi in [("-1e6", "1e6"), ("-1e6", "-1e5"), ("1e5", "1e6")]},
    # a numpy traceback before --seed went through params.check_seed
    "noise-negative-seed": ({}, "noise --config {config} --seed -1",
                            "--seed must be a non-negative integer, got -1", {}),
    "noise-psd-band-below-nyquist": (
        {"config": _mutated((("psd", "f_max_hz"), 1e5))}, "noise --config {config}",
        "{config}: Nyquist fs/2 = 500000.0 exceeds PSD f_max = 100000.0", {}),
    "config-not-an-object": ({"config": "[1, 2]\n"}, "spectrum --config {config}",
                             "{config}: the configuration must be a JSON object", {}),
    "config-missing": ({"config": None}, "spectrum --config {config}", NO_CONFIG, {}),
    "config-invalid-json": (
        {"config": "{\n  oops\n}\n"}, "spectrum --config {config}", "{config}: line 2: "
        "invalid JSON: Expecting property name enclosed in double quotes", {}),
    "config-repeated-section": ({"config": REPEATED_CAVITY}, "spectrum --config {config}",
                                "{config}: line 49: repeated key 'cavity'", {}),
    # every input is read through io: a directory, or bytes that are not
    # UTF-8, where a config, an init JSON or a CSV is read
    **{f"{name}-is-a-directory": ({name: DIRECTORY}, argv,
                                  f"[Errno 21] Is a directory: '{{{name}}}'", {})
       for name, argv in [("config", "spectrum --config {config}"), ("init", FIT_ARGV),
                          ("csv", FIT_ARGV)]},
    **{f"{name}-non-utf8": ({name: b"\xff\xfe"}, argv, f"{{{name}}}: {NOT_UTF8}", {})
       for name, argv in [("config", "spectrum --config {config}"), ("init", FIT_ARGV),
                          ("csv", FIT_ARGV)]},
    # numpy stops at the bad row; the row search then meets the bytes
    "csv-bad-row-then-non-utf8": (
        {"csv": b"x,y\n0.0,oops\n" + b"1.0,2.0\n" * 200_000 + b"3.0,\xff\xfe\n"},
        FIT_ARGV, f"{{csv}}: {NOT_UTF8}", {}),
    # the header decodes from the first 8 KiB buffer, so numpy's reader is
    # the one to meet the byte
    "csv-non-utf8-past-the-first-buffer": (
        {"csv": b"x,y\n" + b"1.0,2.0\n" * 2000 + b"3.0,\xff\n"}, FIT_ARGV,
        f"{{csv}}: {NOT_UTF8}", {}),
    # a fit's init JSON, then its CSV, each named for its own defect
    "fit-no-init": _fit("exponential", '{"amplitude": 1.0, "tau": 1.0}', CSV_ROWS,
                        '{init}: expected an object with an "init" object of '
                        "starting values"),
    "fit-invalid-json": _fit("exponential", '{"init":\n', CSV_ROWS,
                             "{init}: line 2: invalid JSON: Expecting value"),
    "fit-repeated-key": _fit(
        "exponential", '{"init": {"amplitude": 1.0,\n"tau": 1.0, "tau": 2.0}}', CSV_ROWS,
        "{init}: line 2: repeated key 'tau'"),
    "fit-non-numeric-cell": _fit("exponential", EXP_INIT,
                                 "x,y\n0.0,1.0\n1.0,oops\n2.0,0.2\n",
                                 "{csv}: line 3: column 2: 'oops' is not a number"),
    # float() reads '1_000', numpy's reader does not
    "fit-underscore-cell": _fit("exponential", EXP_INIT,
                                "x,y\n1_000,1.0\n2.0,0.5\n3.0,0.2\n4.0,0.1\n",
                                "{csv}: line 2: column 1: '1_000' is not a number"),
    "fit-ragged": _fit("exponential", EXP_INIT, "x,y\n0.0,1.0\n\n1.0\n",
                       "{csv}: line 4: expected 2 columns, found 1"),
    "fit-one-column": _fit("exponential", EXP_INIT, "x,y\n0.0\n1.0\n",
                           "{csv}: expected x and y columns of numbers"),
    **{f"fit-{value}-cell": _fit(
        "exponential", EXP_INIT, f"x,y\n0.0,1.0\n1.0,0.5\n2.0,{value}\n3.0,0.1\n",
        f"{{csv}}: line 4: column 2: '{value}' is not a finite number")
       for value in ("nan", "inf")},
    **{f"fit-{model}-missing": _fit(
        model, {"init": init}, CSV_ROWS, f"{{init}}: \"init\" has no starting value "
        f"for '{key}', which model '{model}' needs")
       for model, init, key in [("reflection_phase", {"q": 5.0e3}, "beta"),
                                ("shift_vs_field", {"t2_star": 2.0e-8}, "n_spins"),
                                ("exponential", {"tau": 1.0, "offset": 0.0}, "amplitude")]},
    **{f"fit-{model}-{kind}": _fit(
        model, {"init": init}, CSV_ROWS, f"{{init}}: \"init\" value for '{key}' must be "
        f"a finite number, got {init[key]!r}")
       for model, kind, init, key in [
           ("reflection_phase", "non-numeric", {"q": "big", "beta": 0.6}, "q"),
           ("shift_vs_field", "nan", {"n_spins": 1.5e12, "t2_star": math.nan}, "t2_star"),
           ("exponential", "inf", {"amplitude": math.inf, "tau": 1.0}, "amplitude")]},
    **{f"fit-{model}-key": _fit(
        model, {"init": {**init, key: value}}, CSV_ROWS, f"{{init}}: \"init\" key "
        f"'{key}' is not a parameter of model '{model}' ({names})")
       for model, init, key, value, names in [
           ("reflection_phase", {"q": 5.0e3, "beta": 0.6}, "phi_0", 0.1,
            "q, beta, k, phi0"),
           ("exponential", {"amplitude": 1.0, "tau": 1.0}, "rate", 1.0,
            "amplitude, tau, offset"),
           ("shift_vs_field", SVF_INIT["init"], "g", 0.024, "n_spins, t2_star")]},
    # a start below its model's bound: the exponential exited 2 naming the
    # CSV for a non-finite Jacobian, the shift vs field exited 3 with the
    # start in its report
    "fit-exponential-tau-below-its-bound": _fit(
        "exponential", {"init": {"amplitude": 0.7, "tau": -1e-3}}, DECAY_CSV,
        "{init}: \"init\" value for 'tau' must be >= 1e-300, got -0.001"),
    "fit-shift_vs_field-t2_star-below-its-bound": _fit(
        "shift_vs_field", {"init": {"n_spins": 1.6e12, "t2_star": -1e-8}}, SWEEP,
        "{init}: \"init\" value for 't2_star' must be >= 1e-300, got -1e-08"),
    **{f"fit-{model}-x_scale": _fit(model, {**init, "x_scale": 2.0}, CSV_ROWS,
                                    f"{{init}}: \"x_scale\" is not read by model '{model}'")
       for model, init in [("exponential", EXP_INIT), ("shift_vs_field", SVF_INIT)]},
    "fit-reflection_phase-top-level-key": _fit(
        "reflection_phase", {**RP_INIT, "xscale": 2.0}, CSV_ROWS,
        "{init}: \"xscale\" is not read by model 'reflection_phase'"),
    "fit-non-numeric-x_scale": _fit(
        "reflection_phase", {**RP_INIT, "x_scale": "GHz"}, CSV_ROWS,
        "{init}: \"x_scale\" must be a finite non-zero number, got 'GHz'"),
    "fit-exponential-too-few-rows": _fit(
        "exponential", EXP_INIT, "x,y\n30.0,1.0\n", "{csv}: model 'exponential': need "
        "at least 4 data points for 3 parameters, got 1"),
    "fit-reflection_phase-too-few-rows": _fit(
        "reflection_phase", RP_INIT, "x,y\n30.0,1.0\n31.0,1.0\n32.0,1.0\n33.0,1.0\n",
        "{csv}: model 'reflection_phase': need at least 5 data points for 4 "
        "parameters, got 4"),
    "fit-shift_vs_field-too-few-rows": _fit(
        "shift_vs_field", {"init": {"n_spins": 2.0e12, "t2_star": 2.0e-8}},
        "x,y\n30.0,1.0\n31.0,1.0\n", "{csv}: model 'shift_vs_field': need at least "
        "3 data points for 2 parameters, got 2"),
    "fit-shift_vs_field-negative-field": _fit(
        "shift_vs_field", SVF_INIT, NEGATIVE_FIELD_ROWS,
        "{csv}: model 'shift_vs_field': b_field must be finite and >= 0"),
    "fit-shift_vs_field-past-the-level-crossing": _fit(
        "shift_vs_field", SVF_INIT, CROSSING_ROWS, "{csv}: model 'shift_vs_field': the "
        "transition frequency zfs - gamma * projection_factor * B is -3.98454e+07 Hz "
        "at B = 1800 G, not > 0"),
    **{f"fit-{model}-x-times-{scale:g}": _fit(
        model, {"init": init}, _csv_text(DECAY_T * scale, DECAY_Y), f"{{csv}}: model "
        f"'{model}': rank-deficient Jacobian: a parameter has no influence on the model",
        None)
       for model, init in [("exponential", {"amplitude": 0.7, "tau": 5e-4}),
                           ("reflection_phase", {"q": 5.0e3, "beta": 0.6})]
       for scale in (1e-300, 1e300)},
    # the config, given but unread by the model, is not named
    "fit-exponential-cost-overflows": _fit(
        "exponential", {"init": {"amplitude": 0.7, "tau": 5e-4}},
        _csv_text(DECAY_T, 1e200 * DECAY_Y), "{csv}: values outside the floating-point "
        "range (FloatingPointError: model 'exponential' ends the fit with chi2_reduced "
        "= inf)"),
    # exit 2 with "parameters are exactly degenerate" while the rank check
    # overflowed, and exit 3 with an Infinity and NaN report once it did not
    "fit-shift_vs_field-cost-overflows": _fit(
        "shift_vs_field", SWEEP_INIT, SWEEP, "{config}: values outside the floating-"
        "point range (FloatingPointError: model 'shift_vs_field' ends the fit with "
        "chi2_reduced = inf)", _mutated((("cavity", "q"), 1e200))),
    # exit 0 with a report of NaN sigmas before: the fit converges at the
    # bounds, where the model has underflowed and no covariance exists
    "fit-shift_vs_field-converges-without-sigma": _fit(
        "shift_vs_field", SWEEP_INIT, SWEEP, "{config}: values outside the floating-"
        "point range (FloatingPointError: model 'shift_vs_field' converges with sigma "
        "= [nan nan])", _mutated((("p_sat",), 1e-200),
                                 (("cavity", "omega_c_hz"), 2.8175e9 * 1e-200))),
    **{f"fit-shift_vs_field-{'.'.join(path)}={value:g}": _fit(
        "shift_vs_field", SWEEP_INIT, SWEEP, f"{{config}}: {OVERFLOW}",
        _mutated((path, value)))
       for path, value in FIT_OVERFLOWS},
    # the config is written on one line
    "fit-shift_vs_field-config-defect": _fit(
        "shift_vs_field", SVF_INIT, CSV_ROWS, "{config}: line 1: invalid 'cavity' "
        "section: beta must be >= 0, got -0.5", _mutated((("cavity", "beta"), -0.5))),
    "fit-shift_vs_field-without-config": _fit(
        "shift_vs_field", SVF_INIT, CSV_ROWS, "model 'shift_vs_field' requires --config "
        "for the fixed ensemble/cavity parameters", None),
    # an entry point fitting.fit_<model> that raises names the source of the
    # values: the config for the model whose results use it, else the CSV
    **{f"fit-{model}-{kind}-{'with' if config else 'no'}-config": _fit(
        model, init, CSV_ROWS, f"{{{named}}}: {line}",
        DEFAULT_CONFIG if config else None, {f"fitting.fit_{model}": failure})
       for model, init, named, configs in [
           ("exponential", EXP_INIT, "csv", (False, True)),
           ("reflection_phase", RP_INIT, "csv", (False, True)),
           ("shift_vs_field", SVF_INIT, "config", (True,))]
       for kind, failure, line in [
           ("overflow", OverflowError("(34, 'Numerical result out of range')"), OVERFLOW),
           ("memory", MemoryError("Unable to allocate 8.00 EiB"),
            "out of memory (Unable to allocate 8.00 EiB); nothing written")]
       for config in configs},
    # a fit loads and checks a given config first, whatever its model
    **{f"fit-{model}-config-{bad}": (
        {"config": config}, f"fit {{csv}} --model {model} --init {{init}} "
        "--config {config}", line, {})
       for model in ("exponential", "reflection_phase")
       for bad, config, line in [
           ("missing", None, NO_CONFIG),
           ("malformed", '{"ensemble": ',
            "{config}: line 1: invalid JSON: Expecting value")]},
    **{f"shift-vs-field{flag}={value}": (
        {}, f"shift-vs-field {flag} {value} --config {{config}}",
        f"{flag} = {float(value)}: {reason}", {"fitting.shift_vs_field_model": NOT_RUN})
       for flag, value, reason in [
           ("--b-min", "-5", "b_field must be finite and >= 0"),
           ("--b-max", "-5", "b_field must be finite and >= 0"),
           ("--b-max", "2000", NEGATIVE_AT_2000_G)]},
    **{f"fit--max-iterations={value}": (
        {}, f"{FIT_ARGV} --max-iterations {value}",
        f"--max-iterations must be an integer >= 1, got {value}", {"io.read_csv": NOT_RUN})
       for value in ("0", "-5")},
    # refused before the 256 PiB that --n-points asks for is allocated
    **{f"sensitivity{flag}={value}": (
        {}, f"sensitivity {flag}={value} --n-points {2**55} --config {{config}}",
        f"{flag} = {float(value)}: frequency outside PSD range [1.0, 500000.0] Hz",
        {})
       for flag, value in [*((flag, value) for flag in ("--f-min", "--f-max")
                             for value in ("0", "-0", "-100")),
                           ("--f-max", "1e9"), ("--f-min", "0.5"), ("--f-min", "1e6")]},
    **{f"{command}{flag}={value}": (
        {}, f"{command} {flag}={value} --config {{config}}",
        f"{flag} must be an integer >= 1, got {value}", {})
       for command, flag in SIZE_OPTIONS for value in ("0", "-5")},
    # rejected before anything is allocated
    **{f"{command}{flag}={value}": (
        {}, f"{command} {flag}={value} --config {{config}}",
        f"{flag} = {value} samples: more than one array can hold (1.15292e+18)", {})
       for command, flag, value in [*((command, flag, 10**19)
                                      for command, flag in SIZE_OPTIONS),
                                    ("noise", "--n-samples", 2**61)]},
    # 256 PiB per column, past any 64-bit address space: the allocation
    # fails at once and nothing is allocated
    **{f"{command}{flag}={2**55}": (
        {}, f"{command} {flag}={2**55} --config {{config}}",
        f"{flag} = {2**55}: out of memory (Unable to allocate 256. PiB for an "
        f"array with shape ({2**55},) and data type float64); nothing written", {})
       for command, flag in SIZE_OPTIONS},
    **{f"{command}{flag}={value}": (
        {}, f"{command} {flag}={value} --config {{config}}",
        f"{flag} must be a finite number, got {float(value)}", {})
       for command, flag in FLOAT_OPTIONS for value in ("inf", "-inf", "nan", "1e400")},
    # finite config values whose results leave the float range: each ended in
    # exit 0 with NaN cells or in an OverflowError traceback before the CSV
    # commands were guarded
    "cavity.q=1e308-relaxation": (
        {"config": _mutated((("cavity", "q"), 1e308))}, "relaxation --config {config}",
        "{config}: column 'phase_rad_b30.0' would hold nan at data row 1: values "
        "outside the floating-point range; nothing written", {}),
    "cavity.q=1e308-shift-vs-field": (
        {"config": _mutated((("cavity", "q"), 1e308))}, "shift-vs-field --config {config}",
        "{config}: column 'phase_rad' would hold -inf at data row 1: values "
        "outside the floating-point range; nothing written", {}),
    **{f"ensemble.g_hz=1e308-{command}": (
        {"config": _mutated((("ensemble", "g_hz"), 1e308))},
        f"{command} --config {{config}}", f"{{config}}: {OVERFLOW}", {})
       for command in ("spectrum", "relaxation", "shift-vs-field")},
    # found before any work, once the config is loaded or a fit's inputs read
    "noise-out-is-a-file": ({}, "noise --config {config} --out {csv}",
                            "[Errno 17] File exists: '{csv}'",
                            {"noiselockin.synthesize_phase_noise": NOT_RUN}),
    "fit-out-is-a-file": ({}, f"{FIT_ARGV} --out {{csv}}",
                          "[Errno 17] File exists: '{csv}'",
                          {"fitting.fit_nonlinear": NOT_RUN}),
    # an empty --out wrote to the config's output_dir, or a fit's report to
    # the working directory
    "spectrum-empty-out": ({}, "spectrum --config {config} --out=",
                           "--out must name a directory, got ''", {}),
    "fit-empty-out": ({}, f"{FIT_ARGV} --out=", "--out must name a directory, got ''",
                      {"fitting.fit_nonlinear": NOT_RUN}),
    # argparse's own refusals: its usage and a SystemExit(2) out of main before
    "spectrum--n-points=x": ({}, "spectrum --config {config} --n-points x",
                             "argument --n-points: invalid int value: 'x'", {}),
    # worded as this Python's argparse words it
    "fit--model=nope": ({}, "fit {csv} --model nope --init {init}",
                        _argparse_refusal("--model", "nope", choices=[
                            "reflection_phase", "exponential", "shift_vs_field"]), {}),
    "spectrum-without-config": ({}, "spectrum",
                                "the following arguments are required: --config", {}),
    "spectrum-unknown-option": ({}, "spectrum --config {config} --bogus",
                                "unrecognized arguments: --bogus", {}),
    # no subcommand: the row gives its own --out, as an --out added after it
    # would be read where the subcommand belongs
    "no-subcommand": ({}, "--out=out", "the following arguments are required: command",
                      {}),
}


def _raising(exc):
    """An entry point that raises ``exc``, whatever it is called with."""
    def entry_point(*args, **kwargs):
        raise exc
    return entry_point


def _tree(path):
    """Every file and directory below ``path``, with each file's bytes."""
    return {p: p.is_file() and p.read_bytes() for p in path.rglob("*")}


class TestCommandDefects:
    @pytest.mark.parametrize("inputs, argv, line, raises",
                             COMMAND_DEFECTS.values(), ids=list(COMMAND_DEFECTS))
    def test_defect_exits_2_with_its_one_line_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch, inputs, argv, line, raises):
        monkeypatch.chdir(tmp_path)
        files = {"config": tmp_path / "config.json", "csv": tmp_path / "data.csv",
                 "init": tmp_path / "init.json"}
        for name, content in {**DEFAULT_INPUTS, **inputs}.items():
            _write(files[name], content)
        for entry_point, exc in raises.items():
            monkeypatch.setattr(f"dispersive_readout.{entry_point}", _raising(exc))
        argv = [arg.format(**files) for arg in argv.split()]
        if not any(arg.startswith("--out") for arg in argv):
            argv += ["--out", str(tmp_path / "out")]
        before = _tree(tmp_path)
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {line.format(**files)}\n"
        assert _tree(tmp_path) == before


class TestSweepOptions:
    @pytest.mark.parametrize("command, flag", SIZE_OPTIONS)
    def test_a_size_of_one_writes_one_row(self, config_path, tmp_path, command, flag):
        assert main([command, f"{flag}=1", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 0
        (written,) = tmp_path.glob("*.csv")
        _, cols = read_csv(written)
        assert [len(col) for col in cols] == [1] * len(cols)


class TestDeterminism:
    def test_reruns_are_byte_identical(self, config_path, tmp_path):
        # each run writes <name>.csv; noise at the config's seed and at --seed 99
        runs = {"spectrum": ["spectrum"], "relaxation": ["relaxation"],
                "shift_vs_field": ["shift-vs-field", "--n-points", "50"],
                "sensitivity": ["sensitivity", "--n-points", "20"],
                "noise": ["noise", "--n-samples", "4096"],
                "seed_99/noise": ["noise", "--n-samples", "4096", "--seed", "99"]}
        for sub in ("a", "b"):
            for name, cmd in runs.items():
                out = (tmp_path / sub / name).parent
                assert main(cmd + ["--config", str(config_path),
                                   "--out", str(out)]) == 0
        for name in runs:
            assert sha256(tmp_path / "a" / f"{name}.csv") == sha256(
                tmp_path / "b" / f"{name}.csv"
            ), name
        assert sha256(tmp_path / "a" / "noise.csv") != sha256(
            tmp_path / "a" / "seed_99" / "noise.csv")


class TestParserReuse:
    def test_second_call_matches_a_fresh_parser(self, config_path, tmp_path):
        from dispersive_readout import cli
        from dispersive_readout.cli import build_parser
        assert build_parser() is build_parser()
        first, second, fresh = (tmp_path / d for d in ("first", "second", "fresh"))
        assert main(["spectrum", "--n-points", "11", "--config", str(config_path),
                     "--out", str(first)]) == 0
        assert main(["spectrum", "--config", str(config_path),
                     "--out", str(second)]) == 0
        args = build_parser.__wrapped__().parse_args(
            ["spectrum", "--config", str(config_path), "--out", str(fresh)])
        assert cli.cmd_spectrum(args) == 0
        assert sha256(second / "spectrum.csv") == sha256(fresh / "spectrum.csv")
        assert sha256(first / "spectrum.csv") != sha256(second / "spectrum.csv")

    def test_a_command_replaced_after_the_first_call_is_the_one_run(
            self, config_path, tmp_path, monkeypatch):
        from dispersive_readout import cli
        argv = ["sensitivity", "--config", str(config_path), "--out", str(tmp_path)]
        assert main(argv) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_sensitivity",
                            lambda args: calls.append(args.command) or 0)
        assert main(argv) == 0
        assert calls == ["sensitivity"]

    @pytest.mark.parametrize("model, x, init_values", [
        ("reflection_phase", np.linspace(-1e-3, 1e-3, 8), {"q": 5.0e3, "beta": 0.6}),
        ("exponential", np.linspace(0.0, 3.0, 8), {"amplitude": 1.0, "tau": 1.0}),
        ("shift_vs_field", np.linspace(28.0, 38.5, 8),
         {"n_spins": 1.5e12, "t2_star": 1.5e-8}),
    ], ids=["reflection_phase", "exponential", "shift_vs_field"])
    def test_a_fit_entry_point_replaced_after_the_first_call_is_the_one_run(
            self, config_path, tmp_path, monkeypatch, model, x, init_values):
        from dispersive_readout import fitting, load_config
        from dispersive_readout.io import write_csv
        cfg = load_config(config_path)
        fit_model = (fitting.shift_vs_field_model(cfg.ensemble, cfg.cavity, cfg.p_sat)
                     if model == "shift_vs_field"
                     else getattr(fitting, f"{model}_model")())
        csv = tmp_path / "data.csv"
        write_csv(csv, ["x", "y"],
                  [x, fit_model.func(fitting.start_values(fit_model, init_values), x)])
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"init": init_values}))
        argv = ["fit", str(csv), "--model", model, "--init", str(init),
                "--config", str(config_path), "--out", str(tmp_path)]
        assert main(argv) == 0
        calls = []
        original = getattr(fitting, f"fit_{model}")
        monkeypatch.setattr(fitting, f"fit_{model}",
                            lambda *a, **kw: calls.append(model) or original(*a, **kw))
        assert main(argv) == 0
        assert calls == [model]


# (path into the config, value, the rest of the one error line after the
# line number); a key inside a section is located at the section's line, a
# top-level key at its own
CONFIG_DEFECTS = [
    (("lockin", "duration_s"), math.inf,
     "invalid 'lockin' section: duration must be finite and > 0, got inf"),
    (("lockin", "duration_s"), 1e308, "invalid 'lockin' section: fs*duration = inf "
     "samples: more than one array can hold (1.15292e+18)"),
    (("lockin", "fs_hz"), 1000050.0, "invalid 'lockin' section: fs*duration = "
     "10000.5 must be a whole number of samples"),
    (("ensemble", "t2_star_s"), math.inf,
     "invalid 'ensemble' section: t2_star must be finite and > 0, got inf"),
    (("ensemble", "g_hz"), math.inf,
     "invalid 'ensemble' section: g must be finite and > 0, got inf"),
    (("ensemble", "n_spins"), math.inf,
     "invalid 'ensemble' section: n_spins must be finite and > 0, got inf"),
    (("cycle", "period_s"), math.inf,
     "invalid 'cycle' section: period must be finite and > 0, got inf"),
    (("cycle", "n_periods"), 2.5,
     "invalid 'cycle' section: n_periods must be an integer >= 1, got 2.5"),
    (("cycle", "n_periods"), True,
     "invalid 'cycle' section: n_periods must be an integer >= 1, got True"),
    (("cycle", "dt_s"), 1e-308, "invalid 'cycle' section: n_periods*period/dt = "
     "2.0000000000000003e+306 samples: more than one array can hold (1.15292e+18)"),
    (("cycle", "dt_s"), 1e-3, "invalid 'cycle' section: dt = 0.001 must resolve "
     "the period: dt < period/20"),
    *((("psd", "segments", 1, "exponent"), value,
       f"invalid 'psd.segments.1' section: exponent must be finite, got {value!r}")
      for value in (math.nan, math.inf, "steep", None)),
    (("psd", "segments", 0, "f_break_hz"), 0,
     "invalid 'psd.segments.0' section: f_break must be finite and > 0, got 0"),
    (("optimized", "omega_0_hz"), math.inf,
     "invalid 'optimized' section: omega_0 must be finite and > 0, got inf"),
    (("optimized", "delta_hz"), math.inf,
     "invalid 'optimized' section: delta must be finite and > 0, got inf"),
    *((("p_sat",), value, f"p_sat must be a number in (0, 1], got {value!r}")
      for value in ("x", None, True)),
    *((("seed",), value, f"seed must be a non-negative integer, got {value!r}")
      for value in ("x", None, [1], {}, math.nan, math.inf, -math.inf, -1, False)),
    (("cavity", "beta"), 1.0, "invalid 'cavity' section: beta = 1.0 lies within "
     "0.001 of the critical-coupling singularity at beta = 1"),
    (("cavity", "beta"), math.nan, "invalid 'cavity' section: beta must be finite, "
     "got nan"),
    (("cavity", "q"), math.inf,
     "invalid 'cavity' section: q must be finite and > 0, got inf"),
    (("cavity", "omega_c_hz"), math.inf,
     "invalid 'cavity' section: omega_c must be finite and > 0, got inf"),
    (("b_fields_gauss",), [],
     "b_fields_gauss must be a non-empty list of numbers, got []"),
    (("b_fields_gauss",), [math.nan],
     "b_fields_gauss = [nan]: b_field must be finite and >= 0"),
    (("b_fields_gauss",), [32.0, math.inf],
     "b_fields_gauss = [32.0, inf]: b_field must be finite and >= 0"),
    (("b_fields_gauss",), 32.0,
     "b_fields_gauss must be a non-empty list of numbers, got 32.0"),
    (("psd",), 1.0, "section 'psd' must be an object"),
    (("psd", "segments"), DROP, "invalid 'psd' section: missing key 'segments'"),
    (("psd", "f_min_hz"), DROP, "invalid 'psd' section: missing key 'f_min_hz'"),
    (("psd", "f_max_hz"), DROP, "invalid 'psd' section: missing key 'f_max_hz'"),
    (("psd", "segments", 0, "level_rad2_per_hz"), DROP,
     "invalid 'psd.segments.0' section: missing key 'level_rad2_per_hz'"),
    (("psd", "segments", 0), 1.0, "section 'psd.segments.0' must be an object"),
    (("psd", "segments"), 1.0,
     "invalid 'psd' section: 'segments' must be a list of objects"),
    (("psd", "segments", 0, "level_rad2_per_hz"), "low",
     "invalid 'psd.segments.0' section: level must be finite and > 0, got 'low'"),
    (("lockin",), [1e4, 1e6, 0.01], "section 'lockin' must be an object"),
    (("p_sat",), 0, "p_sat must be a number in (0, 1], got 0"),
    (("b_fields_gauss",), [32.0, -1.0],
     "b_fields_gauss = [32.0, -1.0]: b_field must be finite and >= 0"),
    # two columns once shared one name; 32 and 32.0, 0.0 and -0.0 are one field
    *((("b_fields_gauss",), fields,
       f"b_fields_gauss = {fields!r}: field {fields[1]!r} is listed more than once")
      for fields in ([32.0, 32], [0.0, -0.0])),
    # the transition frequency is < 0 at any field: the fields' rule, at
    # their line
    (("ensemble", "zfs_hz"), 1e-308, "b_fields_gauss = [30.0, 32.0, 34.0]: the "
     "transition frequency zfs - gamma * projection_factor * B is -4.84974e+07 Hz "
     "at B = 30 G, not > 0"),
    # "q" is also a key of "cavity" and "optimized", both above it
    (("q",), 1.0, "unknown top-level key 'q'"),
    (("output_dir",), "", "output_dir must be a non-empty string, got ''"),
]

CSV_NAMES = {"spectrum": "spectrum", "relaxation": "relaxation",
             "shift-vs-field": "shift_vs_field", "sensitivity": "sensitivity"}


def _paths(node, prefix=()):
    """The path of every value below ``node``: sections, lists and leaves."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


CONFIG_PATHS = list(_paths(DEFAULT_CONFIG))


class TestConfigMutations:
    # each row under each command, so a failure names both
    @pytest.mark.parametrize("command", [*CSV_NAMES, "noise", "fit"])
    @pytest.mark.parametrize("path, value, message", CONFIG_DEFECTS,
                             ids=[f"{'.'.join(map(str, p))}={v!r}"
                                  for p, v, _ in CONFIG_DEFECTS])
    def test_defect_exits_2_at_its_line(self, config_path, tmp_path, capsys,
                                        path, value, message, command):
        text = json.dumps(_mutated((path, value)), indent=2)
        config_path.write_text(text)
        # a defect is located at its top-level key, and a broken field rule at
        # b_fields_gauss, which its message names first
        key = message.partition(" ")[0]
        if key not in DEFAULT_CONFIG:
            key = path[0]
        line = _line(text, f'  "{key}"')
        out = tmp_path / "out"
        argv = ([command, "--config", str(config_path), "--out", str(out)]
                if command != "fit" else _shift_vs_field_fit(config_path, tmp_path, out))
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {config_path}: line {line}: {message}\n"
        assert not out.exists()


def _at(path):
    node = DEFAULT_CONFIG
    for key in path:
        node = node[key]
    return node


# every object of configs/default.json below the top: its sections and the
# objects in their lists (the PSD segments)
SECTION_PATHS = [p for p in CONFIG_PATHS if isinstance(_at(p), dict)]
KEY_PATHS = [p + (key,) for p in SECTION_PATHS for key in _at(p)]


class TestConfigKeys:
    @pytest.mark.parametrize("path", KEY_PATHS,
                             ids=[".".join(map(str, p)) for p in KEY_PATHS])
    def test_dropped_key_is_named_at_its_section_line(self, config_path, tmp_path,
                                                      capsys, path):
        text = json.dumps(_mutated((path, DROP)), indent=2)
        config_path.write_text(text)
        code = main(["sensitivity", "--config", str(config_path),
                     "--out", str(tmp_path), "--n-points", "3"])
        assert code in (0, 2)
        if code == 2:
            line = _line(text, f'  "{path[0]}"')
            err = capsys.readouterr().err
            assert f"line {line}: " in err and f"'{path[-1]}'" in err, err

    @pytest.mark.parametrize("path", SECTION_PATHS,
                             ids=[".".join(map(str, p)) for p in SECTION_PATHS])
    def test_unknown_key_is_located_at_its_own_line(self, config_path, tmp_path,
                                                     capsys, path):
        # the first key of another section, which may also be a key of a
        # section above this one
        key = next(p[-1] for p in KEY_PATHS if p[-1] not in _at(path))
        text = json.dumps(_mutated((path + (key,), "unknown")), indent=2)
        config_path.write_text(text)
        line = _line(text, rf'\s*"{key}": "unknown"')
        assert main(["sensitivity", "--config", str(config_path),
                     "--out", str(tmp_path), "--n-points", "3"]) == 2
        section = ".".join(map(str, path))
        assert (f"line {line}: unknown key '{key}' in section '{section}'"
                in capsys.readouterr().err)


def _run(argv):
    """(exit code, stderr) of ``main(argv)``, its stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _shift_vs_field_fit(config, tmp_path, out):
    """argv of a shift_vs_field fit at ``config`` of SWEEP, whose inputs are
    written to ``tmp_path``."""
    csv, init = tmp_path / "sweep.csv", tmp_path / "init.json"
    _write(csv, SWEEP)
    _write(init, SWEEP_INIT)
    return ["fit", str(csv), "--model", "shift_vs_field", "--init", str(init),
            "--config", str(config), "--out", str(out)]


CONTRACT_VALUES = [DROP, 0, -1, 1e308, -1e308, 1e200, 1e-308, math.inf, -math.inf,
                   math.nan, "x", None, [], {}, True, False]
INTEGER_KEYS = {"n_periods", "seed"}
# one (path, value) at any section, list or leaf: the value replaces the one
# at the path, or DROP removes it; a key that takes an integer may also get a
# fraction
MUTATION = st.sampled_from(CONFIG_PATHS).flatmap(lambda path: st.tuples(
    st.just(path),
    st.sampled_from(CONTRACT_VALUES + ([2.5] if path[-1] in INTEGER_KEYS else []))))


def _finite_numbers(node):
    """Whether every number in the JSON value ``node`` is finite."""
    if isinstance(node, dict):
        return all(_finite_numbers(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite_numbers(v) for v in node)
    return not isinstance(node, float) or math.isfinite(node)


# the numbers of configs/default.json other than 0, each of which a
# 10^+-200 scaling changes
NUMBER_PATHS = [p for p in CONFIG_PATHS if type(_at(p)) in (int, float) and _at(p) != 0]
# three distinct numbers, each multiplied by 1e200 or 1e-200
SCALINGS = st.lists(st.tuples(st.sampled_from(NUMBER_PATHS),
                              st.sampled_from([1e200, 1e-200])),
                    min_size=3, max_size=3, unique_by=lambda s: s[0])


def _assert_contract(data, fit_codes=(0, 2)):
    """Run all six subcommands on the config ``data``: each exits 0 or 2,
    the fit one of ``fit_codes``, without a traceback, and an exit 0 or 3
    writes only finite numbers."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "config.json"
        config.write_text(json.dumps(data, indent=2))
        out = tmp / "out"
        runs = {name: [cmd, "--config", str(config), "--out", str(out / cmd)]
                for cmd, name in CSV_NAMES.items()}
        runs["noise"] = ["noise", "--n-samples", "256", "--config", str(config),
                         "--out", str(out / "noise")]
        runs["fit_shift_vs_field"] = _shift_vs_field_fit(config, tmp, out / "fit")
        for name, argv in runs.items():
            code, err = _run(argv)
            assert code in (fit_codes if argv[0] == "fit" else (0, 2)), (name, err)
            assert "Traceback" not in err, err
            if code in (0, 3) and argv[0] == "fit":
                report = json.loads((out / "fit" / f"{name}.json").read_text())
                assert _finite_numbers(report), report
            elif code == 0:
                _, columns = read_csv(out / argv[0] / f"{name}.csv")
                assert all(np.all(np.isfinite(c)) for c in columns), name


class TestInputContract:
    """Any one config value, section or list replaced or dropped, or any
    three numbers scaled by 10^+-200, under every subcommand: the exit code
    is 0 or 2, nothing escapes main as a traceback, and no output of an exit
    0 holds a non-finite number. A fit of data the scaled config cannot
    describe may also end without converging: exit 3, its report written
    and finite."""

    @settings(max_examples=150, deadline=None)
    @given(mutation=MUTATION)
    @example(mutation=FIT_OVERFLOWS[0])
    @example(mutation=FIT_OVERFLOWS[1])
    @example(mutation=(("ensemble", "zfs_hz"), 1e-308))  # crossing below 30 G
    @example(mutation=(("p_sat",), 1e-308))  # the fit's jac.T @ jac is 0
    def test_one_bad_value_exits_0_or_2_with_finite_output(self, mutation):
        _assert_contract(_mutated(mutation))

    @settings(max_examples=40, deadline=None)
    @given(scalings=SCALINGS)
    @example(scalings=[(("p_sat",), 1e-200), (("cavity", "omega_c_hz"), 1e-200),
                       (("optimized", "n_spins"), 1e-200)])
    @example(scalings=[(("ensemble", "zfs_hz"), 1e-200), (("optimized", "q"), 1e200),
                       (("psd", "f_max_hz"), 1e200)])
    def test_three_scaled_values_exit_0_2_or_3_with_finite_output(self, scalings):
        scaled = _mutated(*((path, _at(path) * factor) for path, factor in scalings))
        _assert_contract(scaled, fit_codes=(0, 2, 3))


FLOAT_VALUES = ["nan", "inf", "-inf", "1e400", "-1", "-0.0", "0", "1e308",
                "-1e308", "5e-324", "3e9", "x"]
# no size between 2**20 and 2**54, so no drawn run allocates more than a few MB
COUNT_VALUES = [0, -1, -2**63, 2**60, 2**61, 10**19, 1, 2, "x"]
OPTION_CASES = ([(command, flag, value) for command, flag in FLOAT_OPTIONS
                 for value in FLOAT_VALUES]
                + [(command, flag, str(value))
                   for command, flag in SIZE_OPTIONS + [("fit", "--max-iterations"),
                                                        ("noise", "--seed")]
                   for value in COUNT_VALUES])


class TestOptionContract:
    """Any one numeric option at an edge value: the exit code is 0 or 2 and
    nothing escapes main as a traceback. An exit 2 prints one ``error:`` line
    naming the option, the config or the CSV, and creates no output
    directory; an exit 0 writes only finite numbers."""

    @settings(max_examples=120, deadline=None)
    @given(case=st.sampled_from(OPTION_CASES))
    @example(case=("noise", "--seed", "-1"))
    def test_one_option_exits_0_or_2_naming_its_source(self, case):
        command, flag, value = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            if command == "fit":
                csv, init = fit_inputs(tmp, DECAY)
                argv, source = ["fit", str(csv), "--model", "exponential",
                                "--init", str(init)], str(csv)
            else:
                source = str(CONFIGS / "default.json")
                argv = [command, "--config", source]
            out = tmp / "out"
            code, err = _run(argv + [f"{flag}={value}", "--out", str(out)])
            assert code in (0, 2), err
            assert "Traceback" not in err, err
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, err
                assert err.endswith("\n") and (flag in err or source in err), err
                assert not out.exists()
                return
            for path in out.iterdir():
                if path.suffix == ".json":
                    assert _finite_numbers(json.loads(path.read_text())), path
                else:
                    _, columns = read_csv(path)
                    assert all(np.all(np.isfinite(c)) for c in columns), path


class TestChopperRecordsPastTheAddressSpace:
    """A chopper record of 2^47 to 2^62 samples: ``relaxation`` exits 2 with
    one error line naming the config and writes nothing. Below
    ``MAX_SAMPLES`` = 2^60 the time grid cannot be allocated: at 2^47
    samples and up it needs 1 PiB or more, past a 47-bit user address space,
    so it fails at once. From 2^60 up ``ChopperCycle`` refuses the count at
    the ``cycle`` line. Nothing below 2^47 is drawn: under overcommit such a
    record could be allocated and fill the machine's memory."""

    @settings(max_examples=20, deadline=None)
    @given(log2_samples=st.floats(min_value=47.0, max_value=62.0))
    @example(log2_samples=47.0)
    @example(log2_samples=math.log2(5000 * 2**40))  # dt = 4e-6 / 2**40: 39.1 PiB
    @example(log2_samples=50.0)
    @example(log2_samples=60.0)
    @example(log2_samples=62.0)
    def test_relaxation_exits_2_naming_the_config(self, log2_samples):
        cycle = DEFAULT_CONFIG["cycle"]
        dt = cycle["n_periods"] * cycle["period_s"] / 2.0**log2_samples
        samples = cycle["n_periods"] * cycle["period_s"] / dt
        text = json.dumps(_mutated((("cycle", "dt_s"), dt)), indent=2)
        with tempfile.TemporaryDirectory() as tmp:
            config, out = Path(tmp) / "config.json", Path(tmp) / "out"
            config.write_text(text)
            code, err = _run(["relaxation", "--config", str(config),
                              "--out", str(out)])
            assert code == 2, err
            assert not out.exists()
        assert err.startswith(f"error: {config}: ") and err.count("\n") == 1, err
        if samples < 2**60:
            assert "out of memory (Unable to allocate " in err, err
            assert err.endswith("; nothing written\n"), err
        else:
            line = _line(text, '  "cycle"')
            assert (f"line {line}: invalid 'cycle' section: "
                    "n_periods*period/dt = ") in err, err
