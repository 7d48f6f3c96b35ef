"""Machine-speed calibration for the end-to-end timings.

On a small shared machine the speed of the same code drifts by +/-30 % over
seconds to minutes (neighbours on the host, not this process), so raw wall
times of identical runs disagree by more than any useful bound. The runner
therefore interleaves a fixed calibration unit with the ops, one unit after
every ``EVERY_NS`` of ops, and scales each op's latency by the speed the
units measured within ``WINDOW_NS`` of it:

    scaled = raw * REF_NS / median(unit times near the op)

A scaled time reads as the time on a machine where one unit takes exactly
``REF_NS``. A unit never calls the program, so no program change can move
it. Contention slows different kinds of code by different amounts, so each
workload names the unit whose slow-downs its own latency follows: ``text``
(float formatting) for ``cli-paper`` and ``readout-mc``, ``numeric``
(array kernels and a tall SVD) for ``fit-roundtrip``. Set-up probes run
``numeric`` units in their own interpreter right after set-up. The choices
were made on a 2-core shared VM by comparing, over repeated runs, the
spread of the scaled medians and the slope of log latency on log unit time;
with the other unit the slope was about 0.6 (``fit-roundtrip`` on ``text``)
or 1.3 (``readout-mc`` on ``numeric``) and the spread was larger.
Raw times are kept in the results file.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np
from scipy import special

REF_NS = 1_000_000
EVERY_NS = 20_000_000
WINDOW_NS = 50_000_000

_X = np.random.default_rng(0).standard_normal(4096)
_Y = np.random.default_rng(1).standard_normal(10_000)


def text_unit_ns():
    """Mostly Python-level float formatting, plus a little numpy: the kind of
    work of CSV emission. About a millisecond; returns its time."""
    start = perf_counter_ns()
    ",".join(repr(float(v)) for v in _X[:1024])
    np.fft.irfft(np.fft.rfft(_X))
    np.exp(-np.abs(_X)).sum()
    np.linalg.svd(_X[:2048].reshape(512, 4), compute_uv=False)
    return perf_counter_ns() - start


def numeric_unit_ns():
    """Numpy and scipy kernels on 10^4-element arrays and a tall SVD: the kind
    of work of a least-squares fit. About a millisecond; returns its time."""
    start = perf_counter_ns()
    z = np.fft.irfft(np.fft.rfft(_Y) * 0.5, n=len(_Y))
    w = np.exp(-np.abs(z)) * z + 1.0
    float(np.mean(w * _Y))
    special.dawsn(w)
    np.linalg.svd(np.column_stack([_Y, z, w, _Y * z]), compute_uv=False)
    return perf_counter_ns() - start


UNITS = {"text": text_unit_ns, "numeric": numeric_unit_ns}


class Calibrator:
    """Runs one kind of calibration unit and records ``(start_ns,
    duration_ns)`` for each."""

    def __init__(self, kind):
        self.unit_ns = UNITS[kind]
        self.units = []
        self._next = 0

    def run(self, n=1):
        for _ in range(n):
            start = perf_counter_ns()
            self.units.append((start, self.unit_ns()))
        self._next = perf_counter_ns() + EVERY_NS

    def maybe_run(self):
        """Run one unit if ``EVERY_NS`` has passed since the last one."""
        if perf_counter_ns() >= self._next:
            self.run()

    def speed(self, times_ns):
        """Slow-down factor (local unit time / REF_NS) at each time."""
        units = np.array(self.units, dtype=np.int64)
        starts, durations = units[:, 0], units[:, 1]
        times = np.asarray(times_ns, dtype=np.int64)
        lo = np.searchsorted(starts, times - WINDOW_NS)
        hi = np.searchsorted(starts, times + WINDOW_NS)
        overall = np.median(durations)
        local = [np.median(durations[a:b]) if b > a else overall
                 for a, b in zip(lo, hi)]
        return np.asarray(local) / REF_NS
