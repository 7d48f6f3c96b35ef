import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispersive_readout.cli import main
from dispersive_readout.io import read_csv

CONFIGS = Path(__file__).parent.parent / "configs"


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture
def config_path(tmp_path):
    dst = tmp_path / "config.json"
    shutil.copy(CONFIGS / "default.json", dst)
    return dst


def edit_config(path, **overrides):
    data = json.loads(Path(path).read_text())
    for dotted, value in overrides.items():
        node = data
        keys = dotted.split(".")
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    Path(path).write_text(json.dumps(data))


class TestSpectrum:
    def test_dispersion_shape_and_zero_crossing(self, config_path, tmp_path):
        edit_config(config_path, **{"ensemble.n_spins": 1.0})
        assert main(["spectrum", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 0
        header, (det, phase) = read_csv(tmp_path / "spectrum.csv")
        assert header == ["detuning_hz", "phase_rad"]
        mid = len(det) // 2
        assert abs(phase[mid]) < 1e-9  # zero crossing at resonance
        assert phase[mid + 5] * phase[mid - 5] < 0

    @pytest.mark.parametrize("det_min, det_max", [("-1e6", "1e6"),
                                                  ("-1e6", "-1e5"),
                                                  ("1e5", "1e6")])
    def test_sweep_across_an_overcoupled_pole_exits_2(
            self, config_path, tmp_path, capsys, det_min, det_max):
        # beta = 1.1, q = 6e3: poles at (det - shift)/f_c = +/-sqrt(0.21)/12e3,
        # near +/-107.6 kHz; the phase jumps from about -2400 to +2400 rad
        edit_config(config_path, **{"cavity.beta": 1.1})
        out = tmp_path / "out"
        assert main(["spectrum", f"--det-min={det_min}", f"--det-max={det_max}",
                     "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config_path}: cavity beta = 1.1 > 1"), err
        assert "--det-min/--det-max" in err
        assert not out.exists()

    def test_sweep_clear_of_an_overcoupled_pole_is_written(self, config_path,
                                                           tmp_path):
        edit_config(config_path, **{"cavity.beta": 1.1})
        assert main(["spectrum", "--det-min=-1e5", "--det-max=1e5",
                     "--config", str(config_path), "--out", str(tmp_path)]) == 0
        _, (_, phase) = read_csv(tmp_path / "spectrum.csv")
        assert np.all(np.isfinite(phase))

    def test_single_point_sweep(self, config_path, tmp_path):
        assert main(["spectrum", "--config", str(config_path),
                     "--out", str(tmp_path), "--n-points", "1"]) == 0
        _, cols = read_csv(tmp_path / "spectrum.csv")
        assert len(cols[0]) == 1

    def test_round_trip_through_cmd_fit(self, config_path, tmp_path):
        edit_config(config_path, **{"ensemble.n_spins": 1.0})
        main(["spectrum", "--config", str(config_path), "--out", str(tmp_path)])
        init = tmp_path / "init.json"
        init.write_text(json.dumps(
            {"init": {"q": 5.0e3, "beta": 0.6}, "x_scale": 2.8175e9}
        ))
        code = main(["fit", str(tmp_path / "spectrum.csv"),
                     "--model", "reflection_phase", "--init", str(init),
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "fit_reflection_phase.json").read_text())
        assert report["converged"]
        assert report["params"]["q"]["value"] == pytest.approx(6.0e3, rel=1e-4)
        assert report["params"]["beta"]["value"] == pytest.approx(0.74, rel=1e-4)


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
        edit_config(config_path, **{"cycle.duty": 0.0,
                                    "b_fields_gauss": [32.0]})
        assert main(["relaxation", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 0
        _, cols = read_csv(tmp_path / "relaxation.csv")
        assert np.all(cols[1] == 0.0)

    def test_trace_no_memory_holds_exits_2_naming_the_config(
            self, config_path, tmp_path, capsys):
        # 5.5e15 samples, 39.1 PiB per array: the allocation fails at once
        edit_config(config_path, **{"cycle.dt_s": 4e-6 / 2**40})
        out = tmp_path / "out"
        assert main(["relaxation", "--config", str(config_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config_path}: out of memory (Unable to "
                              "allocate 39.1 PiB"), err
        assert err.endswith("; nothing written\n"), err
        assert not out.exists()

    def test_exponential_fit_round_trip(self, config_path, tmp_path):
        edit_config(config_path, **{"b_fields_gauss": [30.0],
                                    "cycle.n_periods": 6})
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
        assert report["params"]["tau"]["value"] == pytest.approx(740e-6, rel=5e-3)


class TestShiftVsField:
    def test_antisymmetric_about_resonance(self, config_path, tmp_path):
        assert main(["shift-vs-field", "--config", str(config_path),
                     "--out", str(tmp_path), "--b-min", "20",
                     "--b-max", "45", "--n-points", "251"]) == 0
        _, (b, phase) = read_csv(tmp_path / "shift_vs_field.csv")
        assert np.min(phase) < 0 < np.max(phase)

    def test_linearity_in_n_spins(self, config_path, tmp_path):
        main(["shift-vs-field", "--config", str(config_path),
              "--out", str(tmp_path / "a")])
        edit_config(config_path, **{"ensemble.n_spins": 4.0e12})
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
        assert report["params"]["n_spins"]["value"] == pytest.approx(2e12, rel=1e-4)
        assert report["params"]["t2_star"]["value"] == pytest.approx(18e-9, rel=1e-4)


class TestSensitivity:
    def test_white_psd_gives_flat_reference_lines(self, config_path, tmp_path):
        edit_config(config_path, **{
            "psd.segments": [{"f_break_hz": 1.0, "exponent": 0.0,
                              "level_rad2_per_hz": 1e-12}],
        })
        assert main(["sensitivity", "--config", str(config_path),
                     "--out", str(tmp_path), "--f-min", "1e3",
                     "--f-max", "1e5", "--n-points", "11"]) == 0
        _, (f, eta, shot, optical) = read_csv(tmp_path / "sensitivity.csv")
        assert np.allclose(eta, 2.0e-15, rtol=0.01)
        assert np.allclose(shot, 1.8e-17, rtol=0.01)
        assert np.allclose(optical, 2.7e-15, rtol=0.01)

    def test_one_over_f_log_slope(self, config_path, tmp_path):
        edit_config(config_path, **{
            "psd.segments": [{"f_break_hz": 1.0, "exponent": -1.0,
                              "level_rad2_per_hz": 1e-10}],
        })
        main(["sensitivity", "--config", str(config_path), "--out",
              str(tmp_path), "--f-min", "1e2", "--f-max", "1e5",
              "--n-points", "31"])
        _, (f, eta, _, _) = read_csv(tmp_path / "sensitivity.csv")
        slopes = np.diff(np.log(eta)) / np.diff(np.log(f))
        assert np.allclose(slopes, -0.5, rtol=0.01)

    def test_single_frequency(self, config_path, tmp_path):
        assert main(["sensitivity", "--config", str(config_path),
                     "--out", str(tmp_path), "--f-min", "1e4",
                     "--f-max", "1e4", "--n-points", "1"]) == 0
        _, cols = read_csv(tmp_path / "sensitivity.csv")
        assert len(cols[0]) == 1


class TestNoise:
    def test_determinism_identical_hash(self, config_path, tmp_path):
        main(["noise", "--config", str(config_path), "--out",
              str(tmp_path / "a"), "--n-samples", "4096"])
        main(["noise", "--config", str(config_path), "--out",
              str(tmp_path / "b"), "--n-samples", "4096"])
        assert sha256(tmp_path / "a" / "noise.csv") == sha256(
            tmp_path / "b" / "noise.csv"
        )

    def test_seed_override_changes_output(self, config_path, tmp_path):
        main(["noise", "--config", str(config_path), "--out",
              str(tmp_path / "a"), "--n-samples", "4096"])
        main(["noise", "--config", str(config_path), "--out",
              str(tmp_path / "b"), "--n-samples", "4096", "--seed", "99"])
        assert sha256(tmp_path / "a" / "noise.csv") != sha256(
            tmp_path / "b" / "noise.csv"
        )

    def test_near_zero_psd_gives_zero_series(self, config_path, tmp_path):
        edit_config(config_path, **{
            "psd.segments": [{"f_break_hz": 1.0, "exponent": 0.0,
                              "level_rad2_per_hz": 1e-60}],
        })
        main(["noise", "--config", str(config_path), "--out", str(tmp_path),
              "--n-samples", "1024"])
        _, (_, value) = read_csv(tmp_path / "noise.csv")
        assert np.max(np.abs(value)) < 1e-20


class TestExitCodes:
    def test_unknown_key_exits_2_with_line_number(self, config_path, tmp_path,
                                                  capsys):
        data = json.loads(config_path.read_text())
        data["typo_section"] = 1
        config_path.write_text(json.dumps(data, indent=2))
        code = main(["spectrum", "--config", str(config_path),
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "typo_section" in err
        assert "line" in err

    def test_invalid_value_exits_2(self, config_path, tmp_path):
        edit_config(config_path, **{"cavity.beta": 1.0})
        assert main(["spectrum", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["spectrum", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("fields",
                             [[], [float("nan")], [32.0, float("inf")], 32.0],
                             ids=["empty", "nan", "inf", "not-a-list"])
    def test_bad_b_fields_exit_2_at_their_line(self, config_path, tmp_path,
                                               capsys, fields):
        data = json.loads(config_path.read_text())
        data["b_fields_gauss"] = fields
        text = json.dumps(data, indent=2)
        config_path.write_text(text)
        line = next(i for i, row in enumerate(text.splitlines(), start=1)
                    if '"b_fields_gauss"' in row)
        assert main(["spectrum", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"line {line}: b_fields_gauss" in err
        assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"amplitude": 1.0, "tau": 1.0}', 'expected an object with an "init"'),
        ('{"init":\n', "line 2: invalid JSON"),
    ], ids=["no-init", "invalid-json"])
    def test_fit_bad_init_exits_2_naming_file(self, tmp_path, capsys,
                                              text, message):
        from dispersive_readout.io import write_csv
        csv = tmp_path / "data.csv"
        write_csv(csv, ["time_s", "value"], [[0.0, 1.0, 2.0], [1.0, 0.5, 0.2]])
        init = tmp_path / "init.json"
        init.write_text(text)
        assert main(["fit", str(csv), "--model", "exponential",
                     "--init", str(init), "--out", str(tmp_path)]) == 2
        assert f"{init}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, message", [
        ("0.0,1.0\n1.0,oops\n2.0,0.2\n", "line 3: column 2: 'oops' is not a number"),
        ("0.0,1.0\n\n1.0\n", "line 4: expected 2 columns, found 1"),
        ("0.0\n1.0\n", "expected x and y columns"),
    ], ids=["non-numeric", "ragged", "one-column"])
    def test_fit_malformed_csv_exits_2_naming_file(self, tmp_path, capsys,
                                                   rows, message):
        csv = tmp_path / "data.csv"
        csv.write_text("time_s,value\n" + rows)
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"init": {"amplitude": 1.0, "tau": 1.0}}))
        assert main(["fit", str(csv), "--model", "exponential",
                     "--init", str(init), "--out", str(tmp_path)]) == 2
        assert f"{csv}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("model, init_values, missing", [
        ("reflection_phase", {"q": 5.0e3}, "beta"),
        ("shift_vs_field", {"t2_star": 2.0e-8}, "n_spins"),
        ("exponential", {"tau": 1.0, "offset": 0.0}, "amplitude"),
    ], ids=["reflection_phase", "shift_vs_field", "exponential"])
    def test_fit_init_missing_starting_value_exits_2(self, config_path, tmp_path,
                                                     capsys, model, init_values,
                                                     missing):
        from dispersive_readout.io import write_csv
        csv = tmp_path / "data.csv"
        write_csv(csv, ["x", "y"], [[0.0, 1.0, 2.0], [1.0, 0.5, 0.2]])
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"init": init_values}))
        assert main(["fit", str(csv), "--model", model, "--init", str(init),
                     "--config", str(config_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f'{init}: "init" has no starting value for \'{missing}\'' in err
        assert not (tmp_path / f"fit_{model}.json").exists()

    def test_non_finite_beta_exits_2_at_cavity_line(self, config_path, tmp_path,
                                                   capsys):
        text = config_path.read_text().replace('"beta": 0.74', '"beta": NaN')
        config_path.write_text(text)
        line = next(i for i, row in enumerate(text.splitlines(), start=1)
                    if '"cavity"' in row)
        assert main(["spectrum", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"line {line}: invalid 'cavity' section: beta must be finite" in err

    def test_unknown_key_is_located_in_its_own_section(self, config_path,
                                                       tmp_path, capsys):
        # "g_hz" is also a key of "ensemble" and "optimized"
        text = config_path.read_text().replace(
            '"f_mod_hz": 1e4,', '"g_hz": 0.024,\n    "f_mod_hz": 1e4,')
        config_path.write_text(text)
        rows = text.splitlines()
        lockin = next(i for i, row in enumerate(rows) if '"lockin"' in row)
        line = next(i for i, row in enumerate(rows[lockin:], start=lockin + 1)
                    if '"g_hz"' in row)
        assert main(["spectrum", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"line {line}: unknown key 'g_hz' in section 'lockin'" in err

    @pytest.mark.parametrize("key", ["q", "omega_c_hz"])
    def test_infinite_q_or_frequency_exits_2_at_cavity_line(self, config_path,
                                                            tmp_path, capsys, key):
        data = json.loads(config_path.read_text())
        data["cavity"][key] = float("inf")
        text = json.dumps(data, indent=2)  # writes Infinity
        config_path.write_text(text)
        line = next(i for i, row in enumerate(text.splitlines(), start=1)
                    if '"cavity"' in row)
        assert main(["spectrum", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"line {line}: invalid 'cavity' section:" in err
        assert "must be finite and > 0, got inf" in err
        assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda psd: 1.0, "section 'psd' must be an object"),
        (lambda psd: {k: v for k, v in psd.items() if k != "segments"},
         "invalid 'psd' section: missing key 'segments'"),
        (lambda psd: {k: v for k, v in psd.items() if k != "f_min_hz"},
         "invalid 'psd' section: missing key 'f_min_hz'"),
        (lambda psd: {k: v for k, v in psd.items() if k != "f_max_hz"},
         "invalid 'psd' section: missing key 'f_max_hz'"),
        (lambda psd: dict(psd, segments=[{"f_break_hz": 1.0, "exponent": 0.0}]),
         "invalid 'psd.segments.0' section: missing key 'level_rad2_per_hz'"),
        (lambda psd: dict(psd, segments=[1.0]),
         "section 'psd.segments.0' must be an object"),
        (lambda psd: dict(psd, segments=1.0),
         "invalid 'psd' section: 'segments' must be a list of objects"),
        (lambda psd: dict(psd, segments=[{"f_break_hz": 1.0, "exponent": 0.0,
                                          "level_rad2_per_hz": "low"}]),
         "invalid 'psd.segments.0' section: level must be finite and > 0, "
         "got 'low'"),
    ], ids=["not-an-object", "no-segments", "no-f_min", "no-f_max",
            "segment-without-level", "segment-not-an-object",
            "segments-not-a-list", "non-numeric-level"])
    def test_malformed_psd_exits_2_at_psd_line(self, config_path, tmp_path,
                                               capsys, edit, message):
        data = json.loads(config_path.read_text())
        data["psd"] = edit(data["psd"])
        text = json.dumps(data, indent=2)
        config_path.write_text(text)
        line = next(i for i, row in enumerate(text.splitlines(), start=1)
                    if '"psd"' in row)
        assert main(["sensitivity", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"line {line}: {message}" in err

    def test_section_that_is_not_an_object_exits_2_at_its_line(
            self, config_path, tmp_path, capsys):
        data = json.loads(config_path.read_text())
        data["lockin"] = [1e4, 1e6, 0.01]
        text = json.dumps(data, indent=2)
        config_path.write_text(text)
        line = next(i for i, row in enumerate(text.splitlines(), start=1)
                    if '"lockin"' in row)
        assert main(["spectrum", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 2
        assert (f"line {line}: section 'lockin' must be an object"
                in capsys.readouterr().err)

    def test_config_that_is_not_an_object_exits_2(self, config_path, tmp_path,
                                                  capsys):
        config_path.write_text("[1, 2]\n")
        assert main(["spectrum", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    def test_unknown_top_level_key_is_located_at_its_own_line(self, config_path,
                                                             tmp_path, capsys):
        # "q" is also a key of "cavity" and "optimized", both above it
        text = config_path.read_text().replace('"seed": 1234,',
                                               '"seed": 1234,\n  "q": 1.0,')
        config_path.write_text(text)
        line = next(i for i, row in enumerate(text.splitlines(), start=1)
                    if row.startswith('  "q"'))
        assert main(["spectrum", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 2
        assert (f"line {line}: unknown top-level key 'q'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("model, init_values, key, shown", [
        ("reflection_phase", {"q": "big", "beta": 0.6}, "q", "'big'"),
        ("shift_vs_field", {"n_spins": 1.5e12, "t2_star": float("nan")},
         "t2_star", "nan"),
        ("exponential", {"amplitude": float("inf"), "tau": 1.0}, "amplitude",
         "inf"),
    ], ids=["reflection_phase", "shift_vs_field", "exponential"])
    def test_fit_bad_init_value_exits_2_naming_file_and_key(
            self, config_path, tmp_path, capsys, model, init_values, key, shown):
        from dispersive_readout.io import write_csv
        csv = tmp_path / "data.csv"
        write_csv(csv, ["x", "y"], [[0.0, 1.0, 2.0], [1.0, 0.5, 0.2]])
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"init": init_values}))
        assert main(["fit", str(csv), "--model", model, "--init", str(init),
                     "--config", str(config_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert (f'{init}: "init" value for {key!r} must be a finite number, '
                f"got {shown}") in err
        assert not (tmp_path / f"fit_{model}.json").exists()

    @pytest.mark.parametrize("model, spec, message", [
        ("reflection_phase", {"init": {"q": 5.0e3, "beta": 0.6, "phi_0": 0.1}},
         "\"init\" key 'phi_0' is not a parameter of model 'reflection_phase'"),
        ("exponential", {"init": {"amplitude": 1.0, "tau": 1.0, "rate": 1.0}},
         "\"init\" key 'rate' is not a parameter of model 'exponential'"),
        ("shift_vs_field", {"init": {"n_spins": 1.5e12, "t2_star": 1.5e-8,
                                     "g": 0.024}},
         "\"init\" key 'g' is not a parameter of model 'shift_vs_field'"),
        ("exponential", {"init": {"amplitude": 1.0, "tau": 1.0}, "x_scale": 2.0},
         "\"x_scale\" is not read by model 'exponential'"),
        ("shift_vs_field", {"init": {"n_spins": 1.5e12, "t2_star": 1.5e-8},
                            "x_scale": 2.0},
         "\"x_scale\" is not read by model 'shift_vs_field'"),
        ("reflection_phase", {"init": {"q": 5.0e3, "beta": 0.6}, "xscale": 2.0},
         "\"xscale\" is not read by model 'reflection_phase'"),
    ], ids=["reflection_phase-key", "exponential-key", "shift_vs_field-key",
            "exponential-x_scale", "shift_vs_field-x_scale",
            "reflection_phase-top-level-key"])
    def test_fit_init_key_the_model_does_not_read_exits_2(
            self, config_path, tmp_path, capsys, model, spec, message):
        from dispersive_readout.io import write_csv
        csv = tmp_path / "data.csv"
        write_csv(csv, ["x", "y"], [[0.0, 1.0, 2.0], [1.0, 0.5, 0.2]])
        init = tmp_path / "init.json"
        init.write_text(json.dumps(spec))
        assert main(["fit", str(csv), "--model", model, "--init", str(init),
                     "--config", str(config_path), "--out", str(tmp_path)]) == 2
        assert f"{init}: {message}" in capsys.readouterr().err
        assert not (tmp_path / f"fit_{model}.json").exists()

    def test_fit_non_numeric_x_scale_exits_2_naming_file(self, tmp_path, capsys):
        from dispersive_readout.io import write_csv
        csv = tmp_path / "data.csv"
        write_csv(csv, ["x", "y"], [[0.0, 1.0, 2.0], [1.0, 0.5, 0.2]])
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"init": {"q": 5e3, "beta": 0.6},
                                    "x_scale": "GHz"}))
        assert main(["fit", str(csv), "--model", "reflection_phase",
                     "--init", str(init), "--out", str(tmp_path)]) == 2
        assert (f'{init}: "x_scale" must be a finite non-zero number'
                in capsys.readouterr().err)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_fit_non_finite_data_cell_exits_2_naming_file_and_row(
            self, tmp_path, capsys, cell):
        csv = tmp_path / "data.csv"
        csv.write_text(f"time_s,value\n0.0,1.0\n1.0,0.5\n2.0,{cell}\n3.0,0.1\n")
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"init": {"amplitude": 1.0, "tau": 1.0}}))
        assert main(["fit", str(csv), "--model", "exponential",
                     "--init", str(init), "--out", str(tmp_path)]) == 2
        assert (f"{csv}: the y column holds {cell} at data row 3"
                in capsys.readouterr().err)
        assert not (tmp_path / "fit_exponential.json").exists()

    @pytest.mark.parametrize("model, init_values, rows, needed", [
        ("exponential", {"amplitude": 1.0, "tau": 1.0}, 1, 4),
        ("reflection_phase", {"q": 5.0e3, "beta": 0.6}, 4, 5),
        ("shift_vs_field", {"n_spins": 2.0e12, "t2_star": 2.0e-8}, 2, 3),
    ], ids=["exponential", "reflection_phase", "shift_vs_field"])
    def test_fit_too_few_rows_exits_2_naming_file_and_counts(
            self, config_path, tmp_path, capsys, model, init_values, rows,
            needed):
        from dispersive_readout.io import write_csv
        csv = tmp_path / "data.csv"
        write_csv(csv, ["x", "y"], [np.arange(rows) + 30.0, np.ones(rows)])
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"init": init_values}))
        assert main(["fit", str(csv), "--model", model, "--init", str(init),
                     "--config", str(config_path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {csv}: {rows} data row(s), but model '{model}' needs at "
            f"least {needed}\n")
        assert not (tmp_path / f"fit_{model}.json").exists()

    def test_fit_header_only_csv_prints_one_error_line(self, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_text("time_s,value\n")
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"init": {"amplitude": 1.0, "tau": 1.0}}))
        src = str(Path(__file__).parent.parent / "src")
        paths = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        run = subprocess.run(
            [sys.executable, "-m", "dispersive_readout.cli", "fit", str(csv),
             "--model", "exponential", "--init", str(init), "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 2
        assert run.stderr == f"error: {csv}: expected x and y columns of numbers\n"

    @pytest.mark.parametrize("max_iterations", ["0", "-5"])
    def test_fit_max_iterations_below_one_exits_2(self, tmp_path, capsys,
                                                  max_iterations):
        from dispersive_readout.io import write_csv
        csv = tmp_path / "data.csv"
        write_csv(csv, ["x", "y"], [[0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.2, 0.1]])
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"init": {"amplitude": 1.0, "tau": 1.0}}))
        assert main(["fit", str(csv), "--model", "exponential",
                     "--init", str(init), "--out", str(tmp_path),
                     "--max-iterations", max_iterations]) == 2
        assert (f"max_iterations must be an integer >= 1, got {max_iterations}"
                in capsys.readouterr().err)
        assert not (tmp_path / "fit_exponential.json").exists()

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
        report = json.loads((tmp_path / "fit_exponential.json").read_text())
        assert report["converged"] is False


def fit_inputs(tmp_path):
    """A well-formed exponential-decay CSV and its init JSON in ``tmp_path``."""
    from dispersive_readout.io import write_csv
    t = np.linspace(0.0, 2e-3, 40)
    csv = tmp_path / "decay.csv"
    write_csv(csv, ["time_s", "value"], [t, 0.8 * np.exp(-t / 7e-4) + 0.1])
    init = tmp_path / "decay_init.json"
    init.write_text(json.dumps(
        {"init": {"amplitude": 0.7, "tau": 5e-4, "offset": 0.0}}))
    return csv, init


def reading(target, path, tmp_path):
    """argv of a command that reads ``path`` as its config, init or CSV."""
    out = str(tmp_path / "out")
    if target == "config":
        return ["spectrum", "--config", str(path), "--out", out]
    csv, init = fit_inputs(tmp_path)
    csv, init = (csv, path) if target == "init" else (path, init)
    return ["fit", str(csv), "--model", "exponential", "--init", str(init),
            "--out", out]


def one_error_naming(capsys, path):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(path) in err
    return err


class TestInputFiles:
    """Every input is read through io: a path that cannot be read or written,
    or an input that is not UTF-8, exits 2 with one error line naming the
    path and writes nothing."""

    @pytest.mark.parametrize("target", ["config", "init", "csv"])
    def test_directory_as_input_exits_2(self, tmp_path, capsys, target):
        folder = tmp_path / "a_folder"
        folder.mkdir()
        assert main(reading(target, folder, tmp_path)) == 2
        one_error_naming(capsys, folder)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("target", ["config", "init", "csv"])
    def test_non_utf8_input_exits_2(self, tmp_path, capsys, target):
        bad = tmp_path / ("bad.csv" if target == "csv" else "bad.json")
        bad.write_bytes(b"\xff\xfe")
        assert main(reading(target, bad, tmp_path)) == 2
        assert "not UTF-8 text" in one_error_naming(capsys, bad)
        assert not (tmp_path / "out").exists()

    def test_csv_with_a_bad_row_then_non_utf8_bytes_exits_2(self, tmp_path,
                                                            capsys):
        # numpy stops at the bad row; the row search then meets the bytes
        csv = tmp_path / "late.csv"
        csv.write_bytes(b"x,y\n0.0,oops\n" + b"1.0,2.0\n" * 200_000
                        + b"3.0,\xff\xfe\n")
        assert main(reading("csv", csv, tmp_path)) == 2
        assert "not UTF-8 text" in one_error_naming(capsys, csv)

    @pytest.mark.parametrize("command", ["noise", "fit"])
    def test_out_naming_a_file_exits_2(self, config_path, tmp_path, capsys,
                                       command):
        out = tmp_path / "taken"
        out.write_text("keep\n")
        if command == "noise":
            argv = ["noise", "--config", str(config_path), "--n-samples", "16"]
        else:
            csv, init = fit_inputs(tmp_path)
            argv = ["fit", str(csv), "--model", "exponential", "--init", str(init)]
        before = sorted(tmp_path.iterdir())
        assert main(argv + ["--out", str(out)]) == 2
        one_error_naming(capsys, out)
        assert out.read_text() == "keep\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["noise", "fit"])
    def test_out_naming_a_file_is_refused_before_the_work(
            self, config_path, tmp_path, capsys, monkeypatch, command):
        from dispersive_readout import fitting, noiselockin

        def must_not_run(*args, **kwargs):
            raise AssertionError("the work ran before --out was checked")

        monkeypatch.setattr(noiselockin, "synthesize_phase_noise", must_not_run)
        monkeypatch.setattr(fitting, "fit_nonlinear", must_not_run)
        out = tmp_path / "taken"
        out.write_text("keep\n")
        if command == "noise":
            argv = ["noise", "--config", str(config_path)]
        else:
            csv, init = fit_inputs(tmp_path)
            argv = ["fit", str(csv), "--model", "exponential", "--init", str(init)]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{out}'\n"
        assert out.read_text() == "keep\n"

    def test_missing_config_message_is_the_os_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["spectrum", "--config", str(missing),
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{missing}'\n")

    def test_malformed_csv_is_opened_once(self, tmp_path, capsys, monkeypatch):
        import builtins
        csv = tmp_path / "data.csv"
        csv.write_text("x,y\n0.0,1.0\n1.0,oops\n2.0,0.2\n")
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert main(reading("csv", csv, tmp_path)) == 2
        assert capsys.readouterr().err == (
            f"error: {csv}: line 3: column 2: 'oops' is not a number\n")
        assert opened.count(str(csv)) == 1

    def test_cell_numpy_rejects_but_float_accepts_keeps_numpy_message(
            self, tmp_path, capsys):
        csv = tmp_path / "data.csv"
        csv.write_text("x,y\n1_000,1.0\n2.0,0.5\n3.0,0.2\n4.0,0.1\n")
        assert main(reading("csv", csv, tmp_path)) == 2
        assert "'1_000'" in one_error_naming(capsys, csv)
        assert not (tmp_path / "out").exists()

    def test_invalid_json_config_names_the_file_once(self, config_path,
                                                     tmp_path, capsys):
        config_path.write_text('{\n  oops\n}\n')
        assert main(reading("config", config_path, tmp_path)) == 2
        assert capsys.readouterr().err == (
            f"error: {config_path}: line 2: invalid JSON: Expecting property "
            "name enclosed in double quotes\n")

    def test_config_defect_in_fit_names_the_config_once(self, config_path,
                                                        tmp_path, capsys):
        edit_config(config_path, **{"cavity.beta": -0.5})
        csv, init = fit_inputs(tmp_path)
        init.write_text(json.dumps({"init": {"n_spins": 1e12, "t2_star": 2e-8}}))
        assert main(["fit", str(csv), "--model", "shift_vs_field",
                     "--init", str(init), "--config", str(config_path),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {config_path}: line 1: invalid 'cavity' section: "
            "beta must be >= 0, got -0.5\n")

    def test_load_config_errors_start_with_the_path(self, config_path):
        from dispersive_readout import ConfigError, load_config
        edit_config(config_path, seed=-1)
        with pytest.raises(ConfigError) as info:
            load_config(config_path)
        assert str(info.value) == (
            f"{config_path}: line 1: seed must be a non-negative integer, got -1")
        assert (info.value.line, info.value.reason) == (
            1, "seed must be a non-negative integer, got -1")

    def test_fit_shift_vs_field_without_config_exits_2(self, tmp_path, capsys):
        csv, init = fit_inputs(tmp_path)
        assert main(["fit", str(csv), "--model", "shift_vs_field",
                     "--init", str(init), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: model 'shift_vs_field' requires --config for the fixed "
            "ensemble/cavity parameters\n")
        assert not (tmp_path / "out").exists()


SIZE_OPTIONS = [("spectrum", "--n-points"), ("shift-vs-field", "--n-points"),
                ("sensitivity", "--n-points"), ("noise", "--n-samples")]
FLOAT_OPTIONS = [("spectrum", "--det-min"), ("spectrum", "--det-max"),
                 ("shift-vs-field", "--b-min"), ("shift-vs-field", "--b-max"),
                 ("sensitivity", "--f-min"), ("sensitivity", "--f-max")]


class TestSweepOptions:
    """A sweep option outside its range exits 2 naming the option, and no
    file or output directory is written."""

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize("command, flag", SIZE_OPTIONS)
    def test_size_below_one_exits_2(self, config_path, tmp_path, capsys,
                                    command, flag, value):
        out = tmp_path / "out"
        assert main([command, f"{flag}={value}", "--config", str(config_path),
                     "--out", str(out)]) == 2
        assert (capsys.readouterr().err
                == f"error: {flag} must be an integer >= 1, got {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        *((command, flag, str(10**19)) for command, flag in SIZE_OPTIONS),
        ("noise", "--n-samples", str(2**61))])
    def test_size_beyond_one_array_exits_2(self, config_path, tmp_path, capsys,
                                           command, flag, value):
        # rejected before anything is allocated
        out = tmp_path / "out"
        assert main([command, f"{flag}={value}", "--config", str(config_path),
                     "--out", str(out)]) == 2
        assert (capsys.readouterr().err
                == f"error: {flag} = {value}: more samples than one array can "
                   "hold (1.15292e+18)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", SIZE_OPTIONS)
    def test_size_no_memory_holds_exits_2(self, config_path, tmp_path, capsys,
                                          command, flag):
        # 256 PiB per column, past any 64-bit address space: the allocation
        # fails at once and nothing is allocated
        out, value = tmp_path / "out", 2**55
        assert main([command, f"{flag}={value}", "--config", str(config_path),
                     "--out", str(out)]) == 2
        assert (capsys.readouterr().err
                == f"error: {flag} = {value}: out of memory (Unable to allocate "
                   f"256. PiB for an array with shape ({value},) and data type "
                   "float64); nothing written\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    @pytest.mark.parametrize("command, flag", FLOAT_OPTIONS)
    def test_non_finite_float_exits_2_naming_the_option(
            self, config_path, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        assert main([command, f"{flag}={value}", "--config", str(config_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be a finite number"), err
        assert err.endswith(f", got {float(value)}\n"), err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-0", "-100"])
    @pytest.mark.parametrize("flag", ["--f-min", "--f-max"])
    def test_frequency_bound_not_above_zero_exits_2(self, config_path, tmp_path,
                                                    capsys, flag, value):
        out = tmp_path / "out"
        assert main(["sensitivity", f"{flag}={value}", "--config",
                     str(config_path), "--out", str(out)]) == 2
        assert (capsys.readouterr().err
                == f"error: {flag} must be a finite number > 0, got {float(value)}\n")
        assert not out.exists()


class TestDeterminism:
    def test_reruns_are_byte_identical(self, config_path, tmp_path):
        for sub in ("a", "b"):
            for cmd in (["spectrum"], ["relaxation"],
                        ["shift-vs-field", "--n-points", "50"],
                        ["sensitivity", "--n-points", "20"]):
                main(cmd + ["--config", str(config_path),
                            "--out", str(tmp_path / sub)])
        for name in ("spectrum", "relaxation", "shift_vs_field", "sensitivity"):
            assert sha256(tmp_path / "a" / f"{name}.csv") == sha256(
                tmp_path / "b" / f"{name}.csv"
            ), name


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


# (path into the config, value, message); a key inside a section is located
# at the section's line, a top-level key at its own
CONFIG_DEFECTS = [
    (("lockin", "duration_s"), math.inf, "duration must be finite and > 0"),
    (("lockin", "duration_s"), 1e308, "invalid 'lockin' section"),
    (("ensemble", "t2_star_s"), math.inf, "t2_star must be finite and > 0"),
    (("ensemble", "g_hz"), math.inf, "g must be finite and > 0"),
    (("ensemble", "n_spins"), math.inf, "n_spins must be finite and > 0"),
    (("cycle", "period_s"), math.inf, "period must be finite and > 0"),
    (("cycle", "n_periods"), 2.5, "n_periods must be an integer >= 1"),
    (("cycle", "n_periods"), True, "n_periods must be an integer >= 1"),
    (("cycle", "dt_s"), 1e-308, "samples: more than one array can hold"),
    (("cycle", "dt_s"), 1e-3, "dt = 0.001 must resolve the period"),
    (("psd", "segments", 1, "exponent"), math.nan, "exponent must be finite"),
    (("psd", "segments", 1, "exponent"), math.inf, "exponent must be finite"),
    (("psd", "segments", 1, "exponent"), "steep", "exponent must be finite"),
    (("psd", "segments", 1, "exponent"), None, "exponent must be finite"),
    (("psd", "segments", 0, "f_break_hz"), 0, "f_break must be finite and > 0"),
    (("optimized", "omega_0_hz"), math.inf, "omega_0 must be finite and > 0"),
    (("optimized", "delta_hz"), math.inf, "delta must be finite and > 0"),
    (("p_sat",), "x", "p_sat must be a number in (0, 1]"),
    (("p_sat",), None, "p_sat must be a number in (0, 1]"),
    (("p_sat",), True, "p_sat must be a number in (0, 1]"),
    (("seed",), "x", "seed must be a non-negative integer"),
    (("seed",), None, "seed must be a non-negative integer"),
    (("seed",), [1], "seed must be a non-negative integer"),
    (("seed",), {}, "seed must be a non-negative integer"),
    (("seed",), math.nan, "seed must be a non-negative integer"),
    (("seed",), math.inf, "seed must be a non-negative integer"),
    (("seed",), -math.inf, "seed must be a non-negative integer"),
    (("seed",), -1, "seed must be a non-negative integer"),
    (("seed",), False, "seed must be a non-negative integer"),
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


DEFAULT_CONFIG = json.loads((CONFIGS / "default.json").read_text())
CONFIG_PATHS = list(_paths(DEFAULT_CONFIG))
DROP = object()
MUTATIONS = [DROP, math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-308,
             "x", None, [], {}, True, False]
INTEGER_KEYS = {"n_periods", "seed"}
# one (path, value): the value replaces the one at the path, or DROP removes
# it; a key that takes an integer may also get a fraction
MUTATION = st.sampled_from(CONFIG_PATHS).flatmap(lambda path: st.tuples(
    st.just(path),
    st.sampled_from(MUTATIONS + ([2.5] if path[-1] in INTEGER_KEYS else []))))


def _mutated(path, value):
    data = json.loads(json.dumps(DEFAULT_CONFIG))
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return data


# (path into the config, value, command): finite values whose results leave
# the float range; each ended in exit 0 with NaN cells or in an
# OverflowError traceback before the CSV commands were guarded
OUT_OF_RANGE = [
    (("cavity", "q"), 1e308, "relaxation"),
    (("cavity", "q"), 1e308, "shift-vs-field"),
    (("ensemble", "g_hz"), 1e308, "spectrum"),
    (("ensemble", "g_hz"), 1e308, "relaxation"),
    (("ensemble", "g_hz"), 1e308, "shift-vs-field"),
]


class TestConfigMutations:
    @pytest.mark.parametrize("path, value, cmd", OUT_OF_RANGE,
                             ids=[f"{'.'.join(p)}={v!r}-{c}"
                                  for p, v, c in OUT_OF_RANGE])
    def test_out_of_range_value_exits_2_without_output(self, config_path,
                                                       tmp_path, capsys,
                                                       path, value, cmd):
        config_path.write_text(json.dumps(_mutated(path, value), indent=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([cmd, "--config", str(config_path), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config_path}: "), err
        assert "floating-point range" in err, err
        assert not any(tmp_path.glob("*.csv"))

    def test_non_finite_column_is_named_with_its_row(self, config_path,
                                                     tmp_path, capsys):
        edit_config(config_path, **{"cavity.q": 1e308})
        assert main(["shift-vs-field", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 2
        assert "column 'phase_rad' would hold -inf at data row 1" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("path, value, message", CONFIG_DEFECTS,
                             ids=[f"{'.'.join(map(str, p))}={v!r}"
                                  for p, v, _ in CONFIG_DEFECTS])
    def test_defect_exits_2_at_its_line(self, config_path, tmp_path, capsys,
                                        path, value, message):
        text = json.dumps(_mutated(path, value), indent=2)
        config_path.write_text(text)
        line = next(i for i, row in enumerate(text.splitlines(), start=1)
                    if row.startswith(f'  "{path[0]}"'))
        for cmd in CSV_NAMES:
            assert main([cmd, "--config", str(config_path),
                         "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert f"line {line}: " in err and message in err, err
        assert not any(tmp_path.glob("*.csv"))

    @settings(max_examples=150, deadline=None)
    @given(mutation=MUTATION)
    def test_any_one_mutation_exits_0_or_2_with_finite_output(self, mutation):
        path, value = mutation
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(_mutated(path, value), indent=2))
            for cmd, name in CSV_NAMES.items():
                out = Path(tmp) / cmd
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main([cmd, "--config", str(config), "--out", str(out)])
                assert code in (0, 2), (cmd, code)
                if code == 0:
                    _, columns = read_csv(out / f"{name}.csv")
                    assert all(np.all(np.isfinite(c)) for c in columns), cmd


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
        text = json.dumps(_mutated(path, DROP), indent=2)
        config_path.write_text(text)
        code = main(["sensitivity", "--config", str(config_path),
                     "--out", str(tmp_path), "--n-points", "3"])
        assert code in (0, 2)
        if code == 2:
            line = next(i for i, row in enumerate(text.splitlines(), start=1)
                        if row.startswith(f'  "{path[0]}"'))
            err = capsys.readouterr().err
            assert f"line {line}: " in err and f"'{path[-1]}'" in err, err

    @pytest.mark.parametrize("path", SECTION_PATHS,
                             ids=[".".join(map(str, p)) for p in SECTION_PATHS])
    def test_unknown_key_is_located_at_its_own_line(self, config_path, tmp_path,
                                                     capsys, path):
        text = json.dumps(_mutated(path + ("typo_key",), 1.0), indent=2)
        config_path.write_text(text)
        line = next(i for i, row in enumerate(text.splitlines(), start=1)
                    if '"typo_key"' in row)
        assert main(["sensitivity", "--config", str(config_path),
                     "--out", str(tmp_path), "--n-points", "3"]) == 2
        section = ".".join(map(str, path))
        assert (f"line {line}: unknown key 'typo_key' in section '{section}'"
                in capsys.readouterr().err)


def _run(argv):
    """(exit code, stderr) of ``main(argv)``, its stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _shift_vs_field_fit(config, tmp_path, out):
    """argv of a shift_vs_field fit at ``config`` of the default config's
    sweep, whose inputs are written to ``tmp_path``."""
    assert main(["shift-vs-field", "--config", str(CONFIGS / "default.json"),
                 "--out", str(tmp_path), "--n-points", "12"]) == 0
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"init": {"n_spins": 1.6e12, "t2_star": 22e-9}}))
    return ["fit", str(tmp_path / "shift_vs_field.csv"), "--model",
            "shift_vs_field", "--init", str(init), "--config", str(config),
            "--out", str(out)]


# finite config values whose formulas overflow in Python floats: the CSV
# commands named the config, and a fit ended in an OverflowError traceback
FIT_OVERFLOWS = [(("cavity", "beta"), 1e200), (("ensemble", "g_hz"), 1e200)]


class TestOneFailurePath:
    """main alone turns a failure of any subcommand into exit 2: a fit
    reports float-range and memory failures as the CSV commands do."""

    @pytest.mark.parametrize("path, value", FIT_OVERFLOWS,
                             ids=[".".join(p) for p, _ in FIT_OVERFLOWS])
    def test_fit_past_the_float_range_names_the_config(self, config_path,
                                                       tmp_path, capsys,
                                                       path, value):
        config_path.write_text(json.dumps(_mutated(path, value), indent=2))
        out = tmp_path / "out"
        argv = _shift_vs_field_fit(config_path, tmp_path, out)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {config_path}: values outside the floating-point range "
            "(OverflowError: (34, 'Numerical result out of range'))\n")
        assert not out.exists()

    def test_fit_out_of_memory_names_the_config(self, config_path, tmp_path,
                                                capsys, monkeypatch):
        from dispersive_readout import fitting

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 EiB")

        monkeypatch.setattr(fitting, "fit_shift_vs_field", no_memory)
        out = tmp_path / "out"
        argv = _shift_vs_field_fit(config_path, tmp_path, out)
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {config_path}: out of memory (Unable to allocate 8.00 EiB); "
            "nothing written\n")
        assert not out.exists()


class TestFitFailuresAreLocated:
    """A fit's own failure names the data CSV and the model, and a fit
    without a config lays a float-range or memory failure to its CSV."""

    @pytest.mark.parametrize("model, init", [
        ("exponential", {"amplitude": 0.7, "tau": 5e-4}),
        ("reflection_phase", {"q": 5.0e3, "beta": 0.6})])
    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_rank_deficient_fit_names_the_csv_and_the_model(self, tmp_path, capsys,
                                                            model, init, scale):
        from dispersive_readout.io import write_csv
        t = np.linspace(0.0, 2e-3, 40)
        csv = tmp_path / "scaled.csv"
        write_csv(csv, ["x", "y"], [t * scale, 0.8 * np.exp(-t / 7e-4) + 0.1])
        init_path = tmp_path / "init.json"
        init_path.write_text(json.dumps({"init": init}))
        out = tmp_path / "out"
        assert main(["fit", str(csv), "--model", model, "--init", str(init_path),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {csv}: model '{model}': rank-deficient Jacobian: a parameter "
            "has no influence on the model\n")
        assert not out.exists()

    @pytest.mark.parametrize("failure, reason", [
        (OverflowError("(34, 'Numerical result out of range')"),
         "values outside the floating-point range (OverflowError: "
         "(34, 'Numerical result out of range'))"),
        (MemoryError("Unable to allocate 8.00 EiB"),
         "out of memory (Unable to allocate 8.00 EiB); nothing written")],
        ids=["overflow", "memory"])
    def test_fit_without_config_names_the_csv(self, tmp_path, capsys, monkeypatch,
                                              failure, reason):
        from dispersive_readout import fitting

        def failing(*args, **kwargs):
            raise failure

        monkeypatch.setattr(fitting, "fit_exponential", failing)
        csv, init = fit_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["fit", str(csv), "--model", "exponential", "--init", str(init),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {csv}: {reason}\n"
        assert not out.exists()

    def test_fit_whose_cost_overflows_names_the_config(self, config_path, tmp_path,
                                                       capsys):
        # exit 2 with "parameters are exactly degenerate" while the rank check
        # overflowed, and exit 3 with an Infinity and NaN report once it did not
        config_path.write_text(json.dumps(_mutated(("cavity", "q"), 1e200), indent=2))
        out = tmp_path / "out"
        argv = _shift_vs_field_fit(config_path, tmp_path, out)
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {config_path}: values outside the floating-point range "
            "(FloatingPointError: model 'shift_vs_field' ends the fit with "
            "chi2_reduced = inf)\n")
        assert not out.exists()


class TestLocatedOptionErrors:
    """An option or config value the library would reject during the work is
    rejected with the other options, before any work, naming the flag or the
    config and line."""

    @pytest.mark.parametrize("flag", ["--b-min", "--b-max"])
    def test_negative_field_bound_names_the_flag(self, config_path, tmp_path,
                                                 capsys, monkeypatch, flag):
        from dispersive_readout import fitting
        monkeypatch.setattr(fitting, "shift_vs_field_model", None)  # never run
        out = tmp_path / "out"
        assert main(["shift-vs-field", flag, "-5", "--config", str(config_path),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {flag} must be a finite number >= 0, got -5.0\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", list(CSV_NAMES))
    def test_negative_config_field_is_named_at_its_line(self, config_path,
                                                        tmp_path, capsys, command):
        data = json.loads(config_path.read_text())
        data["b_fields_gauss"] = [32.0, -1.0]
        text = json.dumps(data, indent=2)
        config_path.write_text(text)
        line = next(i for i, row in enumerate(text.splitlines(), start=1)
                    if '"b_fields_gauss"' in row)
        assert main([command, "--config", str(config_path),
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {config_path}: line {line}: b_fields_gauss must be a "
            "non-empty list of finite numbers >= 0, got [32.0, -1.0]\n")

    @pytest.mark.parametrize("flag, value", [("--f-max", "1e9"), ("--f-min", "0.5"),
                                             ("--f-min", "1e6")])
    def test_frequency_outside_the_psd_names_the_flag(self, config_path, tmp_path,
                                                      capsys, flag, value):
        out = tmp_path / "out"
        assert main(["sensitivity", flag, value, "--config", str(config_path),
                     "--out", str(out), "--n-points", str(2**55)]) == 2
        assert capsys.readouterr().err == (
            f"error: {flag} = {float(value)}: frequency outside PSD range "
            "[1.0, 500000.0] Hz\n")
        assert not out.exists()

    def test_max_iterations_below_one_names_the_flag(self, tmp_path, capsys,
                                                     monkeypatch):
        from dispersive_readout import io as readers
        csv, init = fit_inputs(tmp_path)
        monkeypatch.setattr(readers, "read_csv", None)  # never run
        assert main(["fit", str(csv), "--model", "exponential", "--init",
                     str(init), "--out", str(tmp_path / "out"),
                     "--max-iterations", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: --max-iterations: max_iterations must be an integer >= 1, "
            "got 0\n")


LEAF_PATHS = [p for p in CONFIG_PATHS if not isinstance(_at(p), (dict, list))]
CONTRACT_VALUES = [0, -1, 1e308, -1e308, 1e200, math.inf, -math.inf, math.nan,
                   "x", None, True]


def _finite_numbers(node):
    """Whether every number in the JSON value ``node`` is finite."""
    if isinstance(node, dict):
        return all(_finite_numbers(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite_numbers(v) for v in node)
    return not isinstance(node, float) or math.isfinite(node)


class TestInputContract:
    """Any one config value replaced, under every subcommand: the exit code
    is 0 or 2, nothing escapes main as a traceback, and no output of an
    exit 0 holds a non-finite number."""

    @settings(max_examples=40, deadline=None)
    @given(mutation=st.tuples(st.sampled_from(LEAF_PATHS),
                              st.sampled_from(CONTRACT_VALUES)))
    @example(mutation=FIT_OVERFLOWS[0])
    @example(mutation=FIT_OVERFLOWS[1])
    def test_one_bad_value_exits_0_or_2_with_finite_output(self, mutation):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            config = tmp / "config.json"
            config.write_text(json.dumps(_mutated(*mutation), indent=2))
            out = tmp / "out"
            runs = {name: [cmd, "--config", str(config), "--out", str(out / cmd)]
                    for cmd, name in CSV_NAMES.items()}
            runs["noise"] = ["noise", "--n-samples", "256", "--config", str(config),
                             "--out", str(out / "noise")]
            runs["fit_shift_vs_field"] = _shift_vs_field_fit(config, tmp, out / "fit")
            for name, argv in runs.items():
                code, err = _run(argv)
                assert code in (0, 2), (name, err)
                assert "Traceback" not in err, err
                if code == 0 and argv[0] == "fit":
                    report = json.loads((out / "fit" / f"{name}.json").read_text())
                    assert _finite_numbers(report), report
                elif code == 0:
                    _, columns = read_csv(out / argv[0] / f"{name}.csv")
                    assert all(np.all(np.isfinite(c)) for c in columns), name
