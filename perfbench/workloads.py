"""The benchmark's three workloads.

Constructing a workload, ``Workload(root, workdir, seed, scale)``, is its
set-up: every input is generated from the workload seed alone. A workload
exposes ``round(i)``, the list of ops for round ``i``. An op is a
zero-argument callable that performs one call a user waits on and returns a
zero-argument check; the check runs after the op's timer stops and returns
``None`` on success or a message describing the miss. Rounds are the unit
the runner loops over, so counts per op are exact whenever whole rounds are
measured. ``tail_pct`` is the percentile reported as ``op_tail_ms`` and
``calibration`` the kind of calibration unit (see calibration.py).

``scale`` < 1 shrinks the inputs for the smoke run; reference checks that
depend on the full input size are skipped there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import math
import os

import numpy as np

REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
CLI_REFS = os.path.join(REFS, "cli_paper.json")
READOUT_REFS = os.path.join(REFS, "readout_mc.npy")

# cli-paper: op seeds are drawn from [0, NOISE_SEEDS); noise.csv is recorded
# for each of them because `noise` is the one subcommand that reads --seed.
NOISE_SEEDS = 256
# readout-mc: 10^3 op seeds per run, drawn from a recorded universe.
READOUT_SEED_UNIVERSE = 2048
READOUT_SEEDS_PER_RUN = 1000
READOUT_SIGNAL_PHASE = 0.01
READOUT_REL_TOL = 1e-12
# fit-roundtrip
FIT_POINTS = 10_000
# Noisy datasets per model per round. Each round draws fresh noise from
# (workload seed, round), so no dataset repeats and the tail latency samples
# the spread of fit difficulty instead of one hard case. Starting values are
# fixed (about 0.8x the truth), so each model's iteration count barely moves
# with the noise and the latency distribution has one mode per model.
FIT_PER_ROUND = 8
FIT_NOISE = 0.01         # Gaussian sigma as a fraction of the peak |truth|
# Recovered parameters must lie within 1 % of the truth. Over 10^4 points
# with 1 % noise the per-parameter scatter is at most ~0.1 %, so a miss is a
# fitter defect, not bad luck.
FIT_REL_TOL = 0.01


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _psd_at(psd_section, f):
    """Piecewise power law of the config's psd section, evaluated directly
    from the JSON (independent of the program's psd_value)."""
    segments = sorted(psd_section["segments"], key=lambda s: s["f_break_hz"])
    seg = [s for s in segments if s["f_break_hz"] <= f][-1]
    return seg["level_rad2_per_hz"] * (f / seg["f_break_hz"]) ** seg["exponent"]


class CliPaper:
    """Regenerate the paper's figures through ``cli.main`` in-process."""

    name = "cli-paper"
    tail_pct = 95.0  # ~600 ops per 20 s run: ~30 beyond; a fifth of the noise ops
    calibration = "text"
    ARTIFACTS = {
        "spectrum": "spectrum.csv",
        "relaxation": "relaxation.csv",
        "shift-vs-field": "shift_vs_field.csv",
        "sensitivity": "sensitivity.csv",
        "noise": "noise.csv",
        "fit-reflection_phase": "fit_reflection_phase.json",
        "fit-shift_vs_field": "fit_shift_vs_field.json",
    }
    INITS = {
        "reflection_phase": {"init": {"q": 5.0e3, "beta": 0.6}, "x_scale": 2.8175e9},
        "shift_vs_field": {"init": {"n_spins": 1.5e12, "t2_star": 1.5e-8}},
    }

    def __init__(self, root, workdir, seed, scale=1.0, refs=None):
        from dispersive_readout import cli

        self.cli = cli
        self.config = os.path.join(root, "configs", "default.json")
        self.out = os.path.join(workdir, "out")
        os.makedirs(self.out, exist_ok=True)
        self.init_paths = {}
        for model, spec in self.INITS.items():
            path = os.path.join(workdir, f"init_{model}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            self.init_paths[model] = path
        if refs is None:
            with open(CLI_REFS, encoding="utf-8") as fh:
                refs = json.load(fh)
        self.refs = refs
        self.full_size = scale >= 1.0
        # the smoke run shrinks the noise trace; its digest is then not checked
        self.noise_samples = max(64, int(2**16 * scale))
        self.rng = np.random.default_rng(seed)
        self.seeds = []

    def argv(self, op, seed):
        common = ["--config", self.config, "--out", self.out, "--seed", str(seed)]
        if op.startswith("fit-"):
            model = op[len("fit-"):]
            source = "spectrum.csv" if model == "reflection_phase" else "shift_vs_field.csv"
            return ["fit", os.path.join(self.out, source), "--model", model,
                    "--init", self.init_paths[model]] + common
        if op == "noise":
            return ["noise", "--n-samples", str(self.noise_samples)] + common
        return [op] + common

    def expected_sha(self, op, seed):
        if op == "noise":
            return self.refs["noise_csv_by_seed"].get(str(seed))
        return self.refs["artifacts"][self.ARTIFACTS[op]]

    def _op(self, op, seed):
        artifact = os.path.join(self.out, self.ARTIFACTS[op])
        argv = self.argv(op, seed)
        # a stale artifact from an earlier round must not pass the check
        if os.path.exists(artifact):
            os.remove(artifact)

        def run():
            with contextlib.redirect_stdout(_stdio.StringIO()):
                code = self.cli.main(argv)

            def check():
                expected_code = self.refs["exit_codes"][op]
                if code != expected_code:
                    return f"{op}: exit code {code}, expected {expected_code}"
                if not os.path.exists(artifact):
                    return f"{op}: {self.ARTIFACTS[op]} not written"
                if op == "noise" and not self.full_size:
                    return None
                want = self.expected_sha(op, seed)
                got = sha256(artifact)
                if got != want:
                    return f"{op} --seed {seed}: sha256 {got[:12]} != recorded {str(want)[:12]}"
                return None

            return check

        return run

    def round(self, i):
        seed = int(self.rng.integers(NOISE_SEEDS))
        self.seeds.append(seed)
        return [self._op(op, seed) for op in self.ARTIFACTS]

    def result_rel_err(self):
        return None


class ReadoutMC:
    """One Monte-Carlo lock-in readout per op at the default lock-in config."""

    name = "readout-mc"
    tail_pct = 99.0  # ~14000 ops per 20 s run: ~140 beyond
    calibration = "text"

    def __init__(self, root, workdir, seed, scale=1.0, refs=None):
        from dispersive_readout import load_config, noiselockin

        config = os.path.join(root, "configs", "default.json")
        cfg = load_config(config)
        with open(config, encoding="utf-8") as fh:
            raw = json.load(fh)
        self.noiselockin = noiselockin  # looked up per call, so tracing sees it
        self.args = (cfg.optimized, cfg.psd, cfg.lockin, READOUT_SIGNAL_PHASE)
        self.analytic_floor = math.sqrt(_psd_at(raw["psd"], cfg.lockin.f_mod))
        self.refs = np.load(READOUT_REFS) if refs is None else refs
        n = max(1, int(READOUT_SEEDS_PER_RUN * scale))
        self.seeds = np.random.default_rng(seed).choice(
            READOUT_SEED_UNIVERSE, n, replace=False)
        self.floors = {}

    def round(self, i):
        op_seed = int(self.seeds[i % len(self.seeds)])

        def run():
            result = self.noiselockin.simulate_readout(*self.args, op_seed)

            def check():
                got = (result.estimated_amplitude, result.noise_floor)
                want = self.refs[op_seed]
                for label, g, w in zip(("estimated_amplitude", "noise_floor"), got, want):
                    if not abs(g - w) <= READOUT_REL_TOL * abs(w):
                        return (f"seed {op_seed}: {label} {g!r} differs from "
                                f"recorded {float(w)!r}")
                self.floors[op_seed] = result.noise_floor
                return None

            return check

        return [run]

    def result_rel_err(self):
        """RMS Monte-Carlo noise floor over the distinct seeds run, against
        the analytic sqrt(S_phi(f_mod))."""
        if not self.floors:
            return None
        floors = np.fromiter(self.floors.values(), float)
        return abs(math.sqrt(float(np.mean(floors**2))) / self.analytic_floor - 1.0)


class FitRoundtrip:
    """Recover known parameters from noisy 10^4-point curves."""

    name = "fit-roundtrip"
    # ~2500 ops per 20 s run, ~125 beyond p95; p99 (~25 beyond) spread 0.08
    # between runs on a shared 2-core VM, p95 0.04
    tail_pct = 95.0
    calibration = "numeric"

    def __init__(self, root, workdir, seed, scale=1.0, refs=None):
        from dispersive_readout import fitting, load_config, reflection_phase

        cfg = load_config(os.path.join(root, "configs", "default.json"))
        ens, cav = cfg.ensemble, cfg.cavity
        n = max(16, int(FIT_POINTS * scale))
        half_width = math.sqrt(1 - cav.beta**2) / (2 * cav.q)
        x = np.linspace(-10 * half_width, 10 * half_width, n)
        b = np.linspace(28.0, 38.5, n)
        t = np.linspace(0.0, 2e-3, n)
        fixed = {"ensemble": ens, "cavity": cav}
        # (label, x, truth curve, gated truth params, starting values, fit
        # call); the entry points are looked up on the module per call, so
        # tracing sees them
        models = [
            ("reflection_phase", x, reflection_phase(cav, x),
             {"q": cav.q, "beta": cav.beta}, {"q": 5.0e3, "beta": 0.6},
             lambda x, y, init: fitting.fit_reflection_phase(x, y, init)),
            ("shift_vs_field", b,
             fitting.shift_vs_field_model(ens, cav).func([ens.n_spins, ens.t2_star], b),
             {"n_spins": ens.n_spins, "t2_star": ens.t2_star},
             {"n_spins": 1.5e12, "t2_star": 1.5e-8},
             lambda x, y, init: fitting.fit_shift_vs_field(x, y, fixed, init)),
            ("exponential", t, -1.0 * np.exp(-t / ens.t1_light) + 1.0,
             {"amplitude": -1.0, "tau": ens.t1_light, "offset": 1.0},
             {"amplitude": -0.8, "tau": 3.5e-4, "offset": 0.9},
             lambda x, y, init: fitting.fit_exponential(x, y, init)),
        ]
        self.models = models
        self.seed = seed
        self.worst = {}

    def _op(self, label, x, y, init, truth, fit):
        def run():
            result = fit(x, y, init)

            def check():
                if not result.converged:
                    return f"{label}: not converged after {result.n_iterations} iterations"
                for name, value in truth.items():
                    err = abs(result[name] / value - 1.0)
                    self.worst[(label, name)] = max(err, self.worst.get((label, name), 0.0))
                    if not err <= FIT_REL_TOL:
                        return f"{label}: {name} off by {err:.3g} (tolerance {FIT_REL_TOL})"
                return None

            return check

        return run

    def round(self, i):
        rng = np.random.default_rng([self.seed, i])
        ops = []
        for _ in range(FIT_PER_ROUND):
            for label, x, truth, params, init, fit in self.models:
                noisy = truth + rng.normal(0.0, FIT_NOISE * np.max(np.abs(truth)), len(x))
                ops.append(self._op(label, x, noisy, init, params, fit))
        return ops

    def result_rel_err(self):
        """Largest relative error of a recovered parameter against the truth."""
        return max(self.worst.values()) if self.worst else None


WORKLOADS = {w.name: w for w in (CliPaper, ReadoutMC, FitRoundtrip)}
