import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    phase_trace_linearized,
    phase_trace_nonlinear,
    polarization_trace_inline,
)

from dispersive_readout import (
    CavityParams,
    ChopperCycle,
    InvalidParameterError,
    PolarizationTrace,
    SpinEnsembleParams,
    fit_exponential,
    phase_trace,
    polarization_trace,
    transition_frequency,
)


@pytest.fixture
def cycle():
    return ChopperCycle(period=4e-3, duty=0.5, n_periods=6, dt=2e-6)


def test_saturation_under_continuous_light(measured_ensemble):
    cycle = ChopperCycle(period=10e-3, duty=0.999, n_periods=1, dt=10e-6)
    trace = polarization_trace(cycle, measured_ensemble, p_sat=0.8)
    t_on = 10 * measured_ensemble.t1_light
    late = trace.p[trace.times > t_on]
    assert np.all(np.abs(late - 0.8) < 1e-4)


def test_decay_to_thermal_in_the_dark(measured_ensemble, cycle):
    trace = polarization_trace(cycle, measured_ensemble)
    # end of the dark half of the last full period
    t_end = cycle.n_periods * cycle.period - cycle.dt
    assert trace.p[trace.times >= t_end - 10e-6][-1] < np.exp(
        -(0.5 * cycle.period) / measured_ensemble.t1_dark
    ) * 1.01


def test_segment_continuity(measured_ensemble, cycle):
    trace = polarization_trace(cycle, measured_ensemble)
    jumps = np.abs(np.diff(trace.p))
    assert np.max(jumps) < 0.01  # dt / t1 bounded increments, no segment jumps


def test_monotone_within_segments(measured_ensemble, cycle):
    trace = polarization_trace(cycle, measured_ensemble)
    t_on = cycle.duty * cycle.period
    in_period = trace.times % cycle.period
    dp = np.diff(trace.p)
    same_segment = (in_period[1:] < t_on) == (in_period[:-1] < t_on)
    rising = (in_period[:-1] < t_on) & same_segment & (trace.p[:-1] < 1.0 - 1e-9)
    falling = (in_period[:-1] >= t_on) & same_segment & (trace.p[:-1] > 1e-9)
    assert np.all(dp[rising] > 0)
    assert np.all(dp[falling] < 0)


def test_periodic_steady_state(measured_ensemble, cycle):
    trace = polarization_trace(cycle, measured_ensemble)
    per = int(round(cycle.period / cycle.dt))
    p5 = trace.p[4 * per:5 * per]
    p6 = trace.p[5 * per:6 * per]
    assert np.max(np.abs(p6 - p5)) < 1e-8


def test_segment_fits_recover_t1_values(measured_ensemble, cycle):
    trace = polarization_trace(cycle, measured_ensemble)
    per = int(round(cycle.period / cycle.dt))
    half = per // 2
    last = trace.p[5 * per:6 * per]
    t = trace.times[:per] - trace.times[0]

    on = fit_exponential(
        t[:half], last[:half],
        init={"amplitude": -0.5, "tau": 300e-6, "offset": 1.0},
    )
    assert on.converged
    assert on["tau"] == pytest.approx(427e-6, rel=5e-3)

    off = fit_exponential(
        t[:half], last[half:],
        init={"amplitude": 0.5, "tau": 1e-3, "offset": 0.0},
    )
    assert off.converged
    assert off["tau"] == pytest.approx(740e-6, rel=5e-3)


@settings(max_examples=200, deadline=None)
@given(period=st.floats(1e-6, 1.0), duty=st.floats(0.0, 1.0),
       n_periods=st.integers(1, 6), per_period=st.integers(21, 300),
       t1_light=st.floats(1e-3, 1e3), t1_dark=st.floats(1e-3, 1e3),
       p_sat=st.floats(0.0, 1.0, exclude_min=True))
def test_equals_the_inline_trace_bit_for_bit(period, duty, n_periods,
                                             per_period, t1_light, t1_dark,
                                             p_sat):
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


@pytest.mark.parametrize("p_sat", ["x", None, [0.5], True, 0, 1.5, float("nan")])
def test_p_sat_outside_the_config_rule_is_named(measured_ensemble, cycle, p_sat):
    # the config's rule: a number in (0, 1], so no TypeError and no bool
    with pytest.raises(InvalidParameterError,
                       match=rf"^p_sat must be a number in \(0, 1\], got "):
        polarization_trace(cycle, measured_ensemble, p_sat=p_sat)


@pytest.mark.parametrize("p_sat", [1, np.float32(0.75), np.float64(0.75)])
def test_p_sat_of_any_numeric_type_gives_the_float_trace(measured_ensemble, cycle,
                                                         p_sat):
    expected = polarization_trace(cycle, measured_ensemble, p_sat=float(p_sat))
    trace = polarization_trace(cycle, measured_ensemble, p_sat=p_sat)
    assert trace.p.tobytes() == expected.p.tobytes()


@pytest.mark.parametrize("times, p, message", [
    ([0.0, 1.0, 2.0], [0.5, 0.5], "1-D arrays of equal length"),
    ([0.0, 1.0, 3.0], [0.5, 0.5, 0.5], "strictly increasing and uniform"),
    ([0.0, 1.0, 2.0], [0.5, 1.1, 0.5], r"within \[0, 1\]"),
], ids=["unequal-lengths", "non-uniform", "out-of-range"])
def test_polarization_trace_validation(times, p, message):
    with pytest.raises(InvalidParameterError, match=message):
        PolarizationTrace(np.array(times), np.array(p))


@pytest.mark.parametrize("times", [[np.nan], [0.0, np.inf], [-np.inf, 0.0],
                                   [0.0, 1.0, np.nan]])
def test_polarization_trace_refuses_times_that_are_not_finite(times):
    # one or two samples pass the spacing test: an infinite step is uniform
    with pytest.raises(InvalidParameterError, match="^times must be finite"):
        PolarizationTrace(times, [0.5] * len(times))


class TestPhaseTrace:
    def test_zero_polarization_gives_zero_trace(self, measured_ensemble,
                                                measured_cavity, cycle):
        from dispersive_readout import PolarizationTrace
        times = np.arange(100) * cycle.dt
        trace = PolarizationTrace(times, np.zeros_like(times))
        out = phase_trace(trace, measured_ensemble, measured_cavity, 32.0)
        assert np.all(out.phase == 0.0)

    def test_offset_subtraction_zeroes_the_mean(self, measured_ensemble,
                                                measured_cavity, cycle):
        trace = polarization_trace(cycle, measured_ensemble)
        out = phase_trace(trace, measured_ensemble, measured_cavity, 31.0)
        assert abs(np.mean(out.phase)) < 1e-15 * np.max(np.abs(out.phase))

    def test_mirror_field_negates_trace(self, measured_ensemble,
                                        measured_cavity, cycle):
        ens = measured_ensemble
        # field where the ensemble sits exactly on the cavity resonance
        b_res = (ens.zfs - measured_cavity.omega_c) / (
            ens.gamma * ens.projection_factor
        )
        trace = polarization_trace(cycle, ens)
        lo = phase_trace(trace, ens, measured_cavity, b_res - 2.0)
        hi = phase_trace(trace, ens, measured_cavity, b_res + 2.0)
        assert np.allclose(lo.phase, -hi.phase, rtol=1e-10, atol=1e-18)

    def test_signal_grows_toward_small_detuning_and_changes_sign(
            self, measured_ensemble, measured_cavity, cycle):
        ens = measured_ensemble
        b_res = (ens.zfs - measured_cavity.omega_c) / (
            ens.gamma * ens.projection_factor
        )
        trace = polarization_trace(cycle, ens)
        amplitudes = {}
        # the dispersion curve peaks ~7 G off resonance; approaching it from
        # the far wings the signal grows, and it changes sign across resonance
        for b in (b_res - 14, b_res - 8, b_res + 8, b_res + 14):
            out = phase_trace(trace, ens, measured_cavity, b)
            amplitudes[b] = out.phase[np.argmax(np.abs(out.phase))]
        assert abs(amplitudes[b_res - 8]) > abs(amplitudes[b_res - 14])
        assert amplitudes[b_res - 8] * amplitudes[b_res + 8] < 0

    def test_linear_response_to_ensemble_size(self, measured_cavity, cycle,
                                              measured_ensemble):
        from dataclasses import replace
        ens_half = replace(measured_ensemble, n_spins=measured_ensemble.n_spins / 2)
        trace = polarization_trace(cycle, measured_ensemble)
        full = phase_trace(trace, measured_ensemble, measured_cavity, 31.0)
        half = phase_trace(trace, ens_half, measured_cavity, 31.0)
        assert np.max(np.abs(full.phase)) < 10e-3  # small-signal regime
        scale = np.max(np.abs(full.phase))
        assert np.allclose(half.phase, full.phase / 2,
                           atol=1e-3 * scale, rtol=0)

    def test_full_nonlinear_path_matches_linearized_for_small_signals(
            self, measured_ensemble, measured_cavity, cycle):
        trace = polarization_trace(cycle, measured_ensemble)
        lin = phase_trace(trace, measured_ensemble, measured_cavity, 31.0)
        full = phase_trace_nonlinear(trace.p, measured_ensemble,
                                     measured_cavity, 31.0)
        scale = np.max(np.abs(lin.phase))
        assert np.allclose(full, lin.phase, atol=1e-4 * scale, rtol=0)

    @pytest.mark.parametrize("b_field", [[30.0, 34.0], [30.0, 32.0, 34.0],
                                         [32.0], np.array([[32.0]])])
    def test_more_than_one_field_is_refused(self, measured_ensemble,
                                            measured_cavity, b_field):
        # as many fields as samples once paired them; another count broadcast;
        # a one-element list or array is not one field either
        trace = PolarizationTrace([0.0, 1e-6], [0.5, 1.0])
        with pytest.raises(InvalidParameterError, match="^b_field must be one field"):
            phase_trace(trace, measured_ensemble, measured_cavity, b_field)

    @pytest.mark.parametrize("b_field", [32, np.float32(32.0), np.float64(32.0),
                                         np.array(32.0)],
                             ids=["int", "float32", "float64", "0-d-array"])
    def test_one_field_of_any_type_gives_the_float_trace(
            self, measured_ensemble, measured_cavity, cycle, b_field):
        trace = polarization_trace(cycle, measured_ensemble)
        out = phase_trace(trace, measured_ensemble, measured_cavity, b_field)
        expected = phase_trace(trace, measured_ensemble, measured_cavity, 32.0)
        assert np.array_equal(out.phase, expected.phase)

    @pytest.mark.parametrize("b_field", [0.0, 28.0, 31.0, 34.0, 60.0])
    def test_equals_the_inline_linearized_trace(self, measured_ensemble, cycle,
                                                b_field):
        cav = CavityParams(omega_c=2.8175e9, q=6.0e3, beta=0.74, k=3.0, phi0=0.1)
        trace = polarization_trace(cycle, measured_ensemble, p_sat=0.8)
        out = phase_trace(trace, measured_ensemble, cav, b_field,
                          subtract_offset=False)
        expected = phase_trace_linearized(trace.p, measured_ensemble, cav, b_field)
        assert out.phase.tobytes() == expected.tobytes()
