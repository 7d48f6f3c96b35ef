"""The chopped polarization trace and the phase trace it gives: one property
holds the trace laws over random cycles, and tables hold the regimes a
random draw rarely reaches, the refusals, the numeric forms and the
phase-trace laws."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (phase_trace_linearized, phase_trace_nonlinear,
                     polarization_trace_inline)

from dispersive_readout import (
    CavityParams,
    ChopperCycle,
    InvalidParameterError,
    PolarizationTrace,
    SpinEnsembleParams,
    phase_trace,
    polarization_trace,
)

# the measured device of conftest, for tables, which take no fixtures
ENSEMBLE = SpinEnsembleParams(n_spins=2.0e12, g=2.4e-2, t2_star=18e-9,
                              t1_dark=740e-6, t1_light=427e-6)
CAVITY = CavityParams(omega_c=2.8175e9, q=6.0e3, beta=0.74)
CYCLE = ChopperCycle(period=4e-3, duty=0.5, n_periods=6, dt=2e-6)
PER = int(round(CYCLE.period / CYCLE.dt))  # samples per period
TRACE = polarization_trace(CYCLE, ENSEMBLE)


def test_a_long_trace_is_built_in_about_its_own_size():
    # 2e6 samples over 2000 periods, 31 blocks of samples: the peak of
    # everything allocated stays within 1.75x the times and p the trace
    # holds (trace-length masks and index arrays reach 3.3x), and every bit
    # is the inline oracle's
    cycle = dataclasses.replace(CYCLE, n_periods=2000, dt=4e-6)
    tracemalloc.start()
    try:
        trace = polarization_trace(cycle, ENSEMBLE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.p) == 2_000_000
    assert peak <= 1.75 * (trace.times.nbytes + trace.p.nbytes)
    times, p = polarization_trace_inline(cycle, ENSEMBLE)
    assert trace.times.tobytes() == times.tobytes()
    assert trace.p.tobytes() == p.tobytes()


@settings(max_examples=200, deadline=None)
@given(period=st.floats(1e-6, 1.0), duty=st.floats(0.0, 1.0),
       n_periods=st.integers(1, 6), per_period=st.integers(21, 300),
       t1_light=st.floats(1e-3, 1e3), t1_dark=st.floats(1e-3, 1e3),
       p_sat=st.floats(0.0, 1.0, exclude_min=True))
def test_equals_the_inline_trace_bit_for_bit(period, duty, n_periods,
                                             per_period, t1_light, t1_dark,
                                             p_sat):
    """The trace is the inline oracle's, and keeps the relaxation laws: it
    lies in [0, p_sat], steps by at most dt*p_sat/min(T1) (so no jump where
    segments join), and within one segment rises strictly in the light and
    falls strictly in the dark while more than 1e-9*p_sat from its limit."""
    # T1 values drawn relative to the period, from far shorter to far longer
    cycle = ChopperCycle(period=period, duty=duty, n_periods=n_periods,
                         dt=period / per_period)
    ens = SpinEnsembleParams(n_spins=2.0e12, g=2.4e-2, t2_star=18e-9,
                             t1_dark=t1_dark * period,
                             t1_light=t1_light * period)
    trace = polarization_trace(cycle, ens, p_sat=p_sat)
    times, p = polarization_trace_inline(cycle, ens, p_sat)
    assert trace.times.tobytes() == times.tobytes()
    assert trace.p.tobytes() == p.tobytes()
    assert np.all((0.0 <= p) & (p <= p_sat))
    step = np.diff(p)
    assert np.all(np.abs(step) <= cycle.dt * p_sat / min(ens.t1_light, ens.t1_dark)
                  + 4 * np.finfo(float).eps)
    # a subnormal p_sat's samples are multiples of 5e-324, so a step of a
    # small fraction of it rounds to none
    if p_sat >= np.finfo(float).tiny:
        dark = times % period >= duty * period
        segment = 2 * (times // period) + dark
        same = segment[1:] == segment[:-1]
        assert np.all(step[same & ~dark[1:] & (p[:-1] < (1 - 1e-9) * p_sat)] > 0)
        assert np.all(step[same & dark[1:] & (p[:-1] > 1e-9 * p_sat)] < 0)


# name: (cycle, p_sat, a measure of the trace, the bound each of its values
# stays below)
TRACE_REGIMES = {
    # ten T1 into continuous light the trace sits at p_sat
    "saturation-under-continuous-light": (
        ChopperCycle(period=10e-3, duty=0.999, n_periods=1, dt=10e-6), 0.8,
        lambda trace: np.abs(trace.p[trace.times > 10 * ENSEMBLE.t1_light] - 0.8),
        1e-4),
    # the last sample ends a dark half that started at most at 1
    "decay-in-the-dark": (CYCLE, 1.0, lambda trace: trace.p[-1:],
                          np.exp(-(0.5 * CYCLE.period) / ENSEMBLE.t1_dark) * 1.01),
    # the sixth period repeats the fifth
    "periodic-steady-state": (
        CYCLE, 1.0,
        lambda trace: np.abs(trace.p[5 * PER:6 * PER] - trace.p[4 * PER:5 * PER]), 1e-8),
}


@pytest.mark.parametrize("cycle, p_sat, measure, bound", TRACE_REGIMES.values(),
                         ids=list(TRACE_REGIMES))
def test_trace_regime(cycle, p_sat, measure, bound):
    values = measure(polarization_trace(cycle, ENSEMBLE, p_sat=p_sat))
    assert values.size and np.all(values < bound)


ONE_STEP = PolarizationTrace([0.0, 1e-6], [0.5, 1.0])
# name: (a call, its whole message)
TRACE_REFUSALS = {
    # the config's rule: a number in (0, 1], so no TypeError and no bool
    **{f"p_sat={value!r}": (
        functools.partial(polarization_trace, CYCLE, ENSEMBLE, p_sat=value),
        f"p_sat must be a number in (0, 1], got {value!r}")
       for value in ("x", None, [0.5], True, 0, 1.5, math.nan)},
    **{name: (functools.partial(PolarizationTrace, np.array(times), np.array(p)),
              message)
       for name, times, p, message in [
           ("unequal-lengths", [0.0, 1.0, 2.0], [0.5, 0.5],
            "times and p must be 1-D arrays of equal length > 0"),
           ("non-uniform", [0.0, 1.0, 3.0], [0.5, 0.5, 0.5],
            "times must be finite, strictly increasing and uniform"),
           ("out-of-range", [0.0, 1.0, 2.0], [0.5, 1.1, 0.5],
            "polarization must lie within [0, 1]"),
           ("empty", [], [], "times and p must be 1-D arrays of equal length > 0")]},
    # one or two samples pass the spacing test: an infinite step is uniform
    **{f"times={times!r}": (functools.partial(PolarizationTrace, times,
                                              [0.5] * len(times)),
                            "times must be finite, strictly increasing and uniform")
       for times in ([math.nan], [0.0, math.inf], [-math.inf, 0.0],
                     [0.0, 1.0, math.nan])},
    # as many fields as samples once paired them; another count broadcast;
    # a one-element list or array is not one field either
    **{f"b_field={b!r}": (functools.partial(phase_trace, ONE_STEP, ENSEMBLE, CAVITY, b),
                          f"b_field must be one field, got shape {np.shape(b)}")
       for b in ([30.0, 34.0], [30.0, 32.0, 34.0], [32.0], np.array([[32.0]]))},
}


@pytest.mark.parametrize("call, message", TRACE_REFUSALS.values(),
                         ids=list(TRACE_REFUSALS))
def test_refusal_states_its_cause(call, message):
    with pytest.raises(InvalidParameterError) as info:
        call()
    assert type(info.value) is InvalidParameterError
    assert str(info.value) == message


# name: times whose steps differ only by float rounding: those of the grid
# offset by 1 s span 2.2e-7 of a step, and those of np.linspace through zero
# three float spacings at max|t|
UNIFORM_GRIDS = {"offset-by-1-s": 1.0 + np.arange(8) * 1e-9,
                 "through-zero": np.linspace(-3.3, 7.1, 11)}


@pytest.mark.parametrize("times", UNIFORM_GRIDS.values(), ids=list(UNIFORM_GRIDS))
def test_a_grid_uniform_to_float_rounding_is_accepted(times):
    trace = PolarizationTrace(times, np.full(times.size, 0.5))
    assert trace.times.tobytes() == times.tobytes()


# name: (a call giving a trace's samples, a number of another type than float)
TRACE_FORMS = {
    **{f"p_sat-{type(v).__name__}": (
        lambda v: polarization_trace(CYCLE, ENSEMBLE, p_sat=v).p, v)
       for v in (1, np.float32(0.75), np.float64(0.75))},
    **{f"b_field-{name}": (lambda v: phase_trace(TRACE, ENSEMBLE, CAVITY, v).phase, v)
       for name, v in [("int", 32), ("float32", np.float32(32.0)),
                       ("float64", np.float64(32.0)), ("0-d-array", np.array(32.0))]},
}


@pytest.mark.parametrize("call, value", TRACE_FORMS.values(), ids=list(TRACE_FORMS))
def test_any_numeric_type_gives_the_float_trace(call, value):
    assert call(value).tobytes() == call(float(value)).tobytes()


def _phase(b, ens=ENSEMBLE, trace=TRACE):
    return phase_trace(trace, ens, CAVITY, b).phase


def _peak(b):
    """The sample of the phase trace at ``b`` largest in magnitude, signed."""
    phase = _phase(b)
    return phase[np.argmax(np.abs(phase))]


# the field that puts the line on the cavity resonance
B_RES = (ENSEMBLE.zfs - CAVITY.omega_c) / (ENSEMBLE.gamma * ENSEMBLE.projection_factor)
ZEROS = PolarizationTrace(np.arange(100) * CYCLE.dt, np.zeros(100))
# name: a call giving (got, expected, rtol, atol)
PHASE_TRACE_LAWS = {
    "zero-polarization": lambda: (_phase(32.0, trace=ZEROS), 0.0, 0.0, 0.0),
    "offset-removed": lambda: (np.mean(_phase(31.0)), 0.0, 0.0, 1e-15 * abs(_peak(31.0))),
    "mirror-field": lambda: (_phase(B_RES - 2.0), -_phase(B_RES + 2.0), 1e-10, 1e-18),
    # the dispersion curve peaks ~7 G off resonance: approaching it from the
    # far wing the signal grows, and it changes sign across resonance
    "sign-change-across-resonance": lambda: (
        np.sign([_peak(B_RES - 8) * _peak(B_RES + 8),
                 abs(_peak(B_RES - 8)) - abs(_peak(B_RES - 14))]), [-1.0, 1.0], 0.0, 0.0),
    "small-signal-at-31-G": lambda: (_peak(31.0), 0.0, 0.0, 10e-3),
    "linear-in-n_spins": lambda: (
        _phase(31.0, ens=dataclasses.replace(ENSEMBLE, n_spins=ENSEMBLE.n_spins / 2)),
        _phase(31.0) / 2, 0.0, 1e-3 * abs(_peak(31.0))),
    "nonlinear-equals-linearized": lambda: (
        phase_trace_nonlinear(TRACE.p, ENSEMBLE, CAVITY, 31.0), _phase(31.0), 0.0,
        1e-4 * abs(_peak(31.0))),
}


@pytest.mark.parametrize("law", PHASE_TRACE_LAWS)
def test_phase_trace_law(law):
    got, expected, rtol, atol = PHASE_TRACE_LAWS[law]()
    np.testing.assert_allclose(got, expected, rtol=rtol, atol=atol)


@pytest.mark.parametrize("b_field", [0.0, 28.0, 31.0, 34.0, 60.0])
def test_equals_the_inline_linearized_trace(measured_ensemble, b_field):
    cav = CavityParams(omega_c=2.8175e9, q=6.0e3, beta=0.74, k=3.0, phi0=0.1)
    trace = polarization_trace(CYCLE, measured_ensemble, p_sat=0.8)
    out = phase_trace(trace, measured_ensemble, cav, b_field,
                      subtract_offset=False)
    expected = phase_trace_linearized(trace.p, measured_ensemble, cav, b_field)
    assert out.phase.tobytes() == expected.tobytes()
