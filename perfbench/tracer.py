"""Tracing of the program from the benchmark's side of its public API.

The program under test is not modified: each traced public function is
replaced by a wrapper in every ``dispersive_readout`` module namespace that
holds a reference to it, so callers that imported a function by name
(``cli`` imports ``load_config``; ``dynamics`` and ``fitting`` import the
``physics`` kernels) reach the wrapper too. Spans are kept in memory as
``[name, start_ns, end_ns, parent_index]``; self time is a span's duration
minus the durations of its direct children. Counts are exact and recorded
at the same boundaries.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

PACKAGE = "dispersive_readout"


def _csv_write_counts(counts, args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    columns = kwargs.get("columns", args[2] if len(args) > 2 else None)
    counts["io.write_csv.bytes"] += os.path.getsize(path)
    counts["io.write_csv.rows"] += len(columns[0])


def _csv_read_counts(counts, args, kwargs, result):
    _, columns = result
    counts["io.read_csv.rows"] += len(columns[0]) if columns else 0


def _size_counter(metric):
    def count(counts, args, kwargs, result):
        counts[metric] += int(np.size(result))
    return count


def _calls_counter(metric):
    def count(counts, args, kwargs, result):
        counts[metric] += 1
    return count


def _synth_counts(counts, args, kwargs, result):
    counts["noiselockin.synthesize_phase_noise.samples"] += len(result)


def _polarization_counts(counts, args, kwargs, result):
    counts["dynamics.polarization_trace.samples"] += len(result.times)


def _fit_counts(counts, args, kwargs, result):
    counts["fitting.fits"] += 1
    counts["fitting.iterations"] += result.n_iterations
    counts["fitting.converged"] += bool(result.converged)


# (module, function, span name, counter or None)
TARGETS = [
    ("config", "load_config", "config.load_config",
     _calls_counter("config.load_config.calls")),
    ("io", "write_csv", "io.write_csv", _csv_write_counts),
    ("io", "read_csv", "io.read_csv", _csv_read_counts),
    ("io", "write_json", "io.write_json", None),
    ("cli", "cmd_spectrum", "cli.spectrum", None),
    ("cli", "cmd_relaxation", "cli.relaxation", None),
    ("cli", "cmd_shift_vs_field", "cli.shift-vs-field", None),
    ("cli", "cmd_sensitivity", "cli.sensitivity", None),
    ("cli", "cmd_noise", "cli.noise", None),
    ("cli", "cmd_fit", "cli.fit", None),
    ("noiselockin", "simulate_readout", "noiselockin.simulate_readout", None),
    ("noiselockin", "synthesize_phase_noise",
     "noiselockin.synthesize_phase_noise", _synth_counts),
    ("noiselockin", "psd_value", "noiselockin.psd_value", None),
    ("noiselockin", "square_wave", "noiselockin.square_wave", None),
    ("noiselockin", "lockin_demodulate", "noiselockin.lockin_demodulate", None),
    ("fitting", "fit_reflection_phase", "fitting.fit_reflection_phase",
     _fit_counts),
    ("fitting", "fit_shift_vs_field", "fitting.fit_shift_vs_field", _fit_counts),
    ("fitting", "fit_exponential", "fitting.fit_exponential", _fit_counts),
    ("physics", "reflection_phase", "physics.reflection_phase",
     _size_counter("physics.reflection_phase.samples")),
    ("physics", "ensemble_dispersive_shift", "physics.ensemble_dispersive_shift",
     _size_counter("physics.ensemble_dispersive_shift.samples")),
    ("physics", "dawson", "physics.dawson",
     _size_counter("physics.dawson.samples")),
    ("physics", "transition_frequency", "physics.transition_frequency",
     _size_counter("physics.transition_frequency.samples")),
    ("dynamics", "polarization_trace", "dynamics.polarization_trace",
     _polarization_counts),
    ("dynamics", "phase_trace", "dynamics.phase_trace", None),
]

# Per-layer metrics: (name, unit, source). Time sources are
# ("s", span) for inclusive time and ("self_s", span) for self time; both are
# reported per op. Count sources are counter names, also per op.
LAYER_METRICS = [
    ("config.load_config.s", "s/op", ("s", "config.load_config")),
    ("config.load_config.calls", "count/op", "config.load_config.calls"),
    ("io.write_csv.s", "s/op", ("s", "io.write_csv")),
    ("io.write_csv.bytes", "B/op", "io.write_csv.bytes"),
    ("io.write_csv.rows", "count/op", "io.write_csv.rows"),
    ("io.write_json.s", "s/op", ("s", "io.write_json")),
    ("io.read_csv.s", "s/op", ("s", "io.read_csv")),
    ("io.read_csv.rows", "count/op", "io.read_csv.rows"),
    ("cli.spectrum.s", "s/op", ("s", "cli.spectrum")),
    ("cli.relaxation.s", "s/op", ("s", "cli.relaxation")),
    ("cli.shift-vs-field.s", "s/op", ("s", "cli.shift-vs-field")),
    ("cli.sensitivity.s", "s/op", ("s", "cli.sensitivity")),
    ("cli.noise.s", "s/op", ("s", "cli.noise")),
    ("cli.fit.s", "s/op", ("s", "cli.fit")),
    ("noiselockin.simulate_readout.self_s", "s/op",
     ("self_s", "noiselockin.simulate_readout")),
    ("noiselockin.synthesize_phase_noise.s", "s/op",
     ("s", "noiselockin.synthesize_phase_noise")),
    ("noiselockin.synthesize_phase_noise.samples", "count/op",
     "noiselockin.synthesize_phase_noise.samples"),
    ("noiselockin.psd_value.s", "s/op", ("s", "noiselockin.psd_value")),
    ("noiselockin.square_wave.s", "s/op", ("s", "noiselockin.square_wave")),
    ("noiselockin.lockin_demodulate.s", "s/op",
     ("s", "noiselockin.lockin_demodulate")),
    ("fitting.fit_reflection_phase.self_s", "s/op",
     ("self_s", "fitting.fit_reflection_phase")),
    ("fitting.fit_shift_vs_field.self_s", "s/op",
     ("self_s", "fitting.fit_shift_vs_field")),
    ("fitting.fit_exponential.self_s", "s/op",
     ("self_s", "fitting.fit_exponential")),
    ("fitting.model_func.s", "s/op", ("s", "fitting.model_func")),
    ("fitting.iterations", "count/op", "fitting.iterations"),
    ("fitting.model_evals", "count/op", "fitting.model_evals"),
    ("physics.reflection_phase.s", "s/op", ("s", "physics.reflection_phase")),
    ("physics.reflection_phase.samples", "count/op",
     "physics.reflection_phase.samples"),
    ("physics.ensemble_dispersive_shift.s", "s/op",
     ("s", "physics.ensemble_dispersive_shift")),
    ("physics.ensemble_dispersive_shift.samples", "count/op",
     "physics.ensemble_dispersive_shift.samples"),
    ("physics.dawson.s", "s/op", ("s", "physics.dawson")),
    ("physics.dawson.samples", "count/op", "physics.dawson.samples"),
    ("physics.transition_frequency.s", "s/op",
     ("s", "physics.transition_frequency")),
    ("physics.transition_frequency.samples", "count/op",
     "physics.transition_frequency.samples"),
    ("dynamics.polarization_trace.s", "s/op",
     ("s", "dynamics.polarization_trace")),
    ("dynamics.polarization_trace.samples", "count/op",
     "dynamics.polarization_trace.samples"),
    ("dynamics.phase_trace.s", "s/op", ("s", "dynamics.phase_trace")),
]
# computed outside LAYER_METRICS: fitting.converged_ratio, trace.overhead_frac


class Tracer:
    """Installs span-recording wrappers around the program's public functions.

    ``install``/``uninstall`` may be called repeatedly; spans and counts
    accumulate only while installed.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                span[1] = start
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def _wrap_fit_nonlinear(self, fn):
        """Count and time every model evaluation of a fit by substituting a
        wrapped model function into the FitModel the entry point built."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(model, *args, **kwargs):
            timed = tracer._wrap(model.func, "fitting.model_func",
                                 _calls_counter("fitting.model_evals"))
            return fn(dataclasses.replace(model, func=timed), *args, **kwargs)

        return wrapper

    def install(self):
        if self._patches:
            return
        replacements = {}
        for mod_name, fn_name, span_name, counter in TARGETS:
            original = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), fn_name)
            replacements[id(original)] = (original, self._wrap(original, span_name, counter))
        fit_nonlinear = importlib.import_module(f"{PACKAGE}.fitting").fit_nonlinear
        replacements[id(fit_nonlinear)] = (fit_nonlinear,
                                           self._wrap_fit_nonlinear(fit_nonlinear))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def times(self):
        """Inclusive and self seconds summed per span name."""
        inclusive = defaultdict(int)
        child = defaultdict(int)
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
            if parent >= 0:
                p = self.spans[parent]
                child[p[0]] += end - start
        return ({n: t * 1e-9 for n, t in inclusive.items()},
                {n: (inclusive[n] - child[n]) * 1e-9 for n in inclusive})

    def layer_metrics(self, n_ops, overhead_frac):
        """Per-layer metrics, each normalised per traced op."""
        inclusive, self_time = self.times()
        out = {}
        for name, unit, source in LAYER_METRICS:
            if isinstance(source, tuple):
                kind, span = source
                total = (inclusive if kind == "s" else self_time).get(span, 0.0)
            else:
                total = self.counts.get(source, 0)
            out[name] = {"value": total / n_ops, "unit": unit}
        fits = self.counts.get("fitting.fits", 0)
        out["fitting.converged_ratio"] = {
            "value": self.counts.get("fitting.converged", 0) / fits if fits else 0.0,
            "unit": "ratio",
        }
        out["trace.overhead_frac"] = {"value": overhead_frac, "unit": "ratio"}
        return out
