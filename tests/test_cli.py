import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

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
