"""The cold path and the readout's working set.

``scipy.special`` is most of the package's import time and only the Dawson
function needs it, so the package loads it on the first ``physics.dawson``
call. The pytest process has scipy already (``oracles`` imports it), so the
cold path is checked in a fresh interpreter.
"""

import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from dispersive_readout import load_config, simulate_readout
from dispersive_readout.io import write_csv
from dispersive_readout.physics import reflection_phase

ROOT = Path(__file__).parent.parent
CONFIG = ROOT / "configs" / "default.json"

# Runs in a fresh interpreter: argv[1] is the config, argv[2] the output
# directory, argv[3] a reflection-phase CSV, argv[4] its init JSON, argv[5]
# an exponential-decay CSV and argv[6] its init JSON. Prints
# the scipy modules loaded after each step, then the Dawson inputs on which
# physics.dawson and scipy.special.dawsn differ in value, type or bits.
COLD_PATH = r"""
import contextlib, io, json, sys
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

config, out, csv, init, decay_csv, decay_init = sys.argv[1:7]
steps = {}
import dispersive_readout
from dispersive_readout import cli, load_config, physics, simulate_readout
steps["import"] = scipy_modules()
for step, argv in (
        ("sensitivity", ["sensitivity", "--config", config]),
        ("noise", ["noise", "--config", config, "--n-samples", "256"]),
        ("fit reflection_phase",
         ["fit", csv, "--model", "reflection_phase", "--init", init]),
        ("fit exponential",
         ["fit", decay_csv, "--model", "exponential", "--init", decay_init])):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--out", out])
    steps[step] = [code, scipy_modules()]
cfg = load_config(config)
simulate_readout(cfg.optimized, cfg.psd, cfg.lockin, 0.01, 0)
steps["simulate_readout"] = scipy_modules()

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["spectrum", "--config", config, "--out", out])
steps["spectrum"] = [code, scipy_modules()[:1]]

inputs = [0.0, -0.0, 1.5, -2.0, 1e308, -1e308, float("nan"),
          np.array(0.7), np.array(-0.0), np.array([]),
          np.array([0.0, -0.0, 0.924, 1e308, -1e308, np.nan, np.inf])]
got = [physics.dawson(x) for x in inputs]
from scipy.special import dawsn

def same(a, b):
    return (type(a) is type(b) and np.shape(a) == np.shape(b)
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())

want = [float(v) if np.ndim(v) == 0 else v
        for v in (dawsn(np.asarray(x, dtype=float)) for x in inputs)]
steps["dawson_mismatches"] = [repr(x) for x, g, w in zip(inputs, got, want)
                              if not same(g, w)]
print(json.dumps(steps))
"""


def test_scipy_loads_only_with_the_dawson_function(tmp_path, src_env):
    x = np.linspace(-2e-4, 2e-4, 201)
    csv = tmp_path / "phase.csv"
    write_csv(csv, ["detuning", "phase_rad"],
              [x, reflection_phase(load_config(CONFIG).cavity, x)])
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"init": {"q": 5.0e3, "beta": 0.6}}))
    t = np.linspace(0.0, 2e-3, 201)
    decay_csv = tmp_path / "decay.csv"
    write_csv(decay_csv, ["time_s", "phase_rad"], [t, 0.9 * np.exp(-t / 4e-4) + 0.1])
    decay_init = tmp_path / "decay_init.json"
    decay_init.write_text(json.dumps(
        {"init": {"amplitude": 0.7, "tau": 5e-4, "offset": 0.0}}))
    out = subprocess.run(
        [sys.executable, "-c", COLD_PATH, str(CONFIG), str(tmp_path / "out"),
         str(csv), str(init), str(decay_csv), str(decay_init)],
        capture_output=True, text=True, env=src_env, timeout=120, check=True)
    steps = json.loads(out.stdout.splitlines()[-1])
    assert steps["import"] == []
    for command in ("sensitivity", "noise", "fit reflection_phase",
                    "fit exponential"):
        assert steps[command] == [0, []], command
    assert steps["simulate_readout"] == []
    assert steps["spectrum"] == [0, ["scipy"]]
    assert steps["dawson_mismatches"] == []


def test_readout_working_set_stays_within_two_and_a_half_records():
    """Traced peak of one simulate_readout call at the default config: at
    most two arrays of a record's size are live at once (the white noise
    and its spectrum, the spectrum and the noise record, or the noise record
    and the scaled square wave or a demodulation product), about 2.03
    records of 10^4 float64 samples. One more such array held across a step
    breaks the bound."""
    cfg = load_config(CONFIG)
    args = (cfg.optimized, cfg.psd, cfg.lockin, 0.01)
    simulate_readout(*args, 0)
    tracemalloc.start()
    try:
        simulate_readout(*args, 1)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        simulate_readout(*args, 2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    record = 8 * cfg.lockin.n_samples
    assert peak <= 2.5 * record, f"peak {peak} B = {peak / record:.2f} records"
