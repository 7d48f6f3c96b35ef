"""Property-based invariants: odd symmetries, linearity/scaling laws and
demodulator algebra."""

import dataclasses
import json
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dispersive_readout import (
    CavityParams,
    ConfigError,
    InvalidParameterError,
    LockinConfig,
    OptimizedDeviceParams,
    PolarizationTrace,
    SpinEnsembleParams,
    dawson,
    ensemble_dispersive_shift,
    fit_shift_vs_field,
    load_config,
    lockin_demodulate,
    optimized_phase_shift,
    phase_trace,
    photon_budget,
    psd_value,
    reflection_phase,
    sensitivity,
    shot_noise_limit,
    square_wave,
    synthesize_phase_noise,
    transition_frequency,
)
from dispersive_readout.fitting import (
    FitModel,
    fit_nonlinear,
    fit_reflection_phase,
    shift_vs_field_model,
)
from dispersive_readout.params import PhaseNoisePSD, PSDSegment
from oracles import reflection_phase_arctan

finite = st.floats(allow_nan=False, allow_infinity=False)


def ensemble(n_spins, g, t2_star):
    return SpinEnsembleParams(n_spins=n_spins, g=g, t2_star=t2_star,
                              t1_dark=1e-3, t1_light=1e-3)


@given(x=st.floats(min_value=-30, max_value=30))
@example(x=0.0)
def test_dawson_is_odd(x):
    assert dawson(-x) == -dawson(x)


@given(x=st.floats(min_value=-1e8, max_value=1e8))
def test_dawson_is_bounded_by_its_maximum(x):
    assert abs(dawson(x)) <= 0.5411


@given(
    detuning=st.floats(min_value=1.0, max_value=1e9),
    t2_star=st.floats(min_value=1e-9, max_value=1e-6),
    n_spins=st.floats(min_value=1.0, max_value=1e14),
    g=st.floats(min_value=1e-3, max_value=1.0),
)
@example(detuning=0.0, t2_star=18e-9, n_spins=2e12, g=2.4e-2)
def test_ensemble_shift_is_odd_in_detuning(detuning, t2_star, n_spins, g):
    ens = ensemble(n_spins, g, t2_star)
    # evaluate at a representable detuning pair so only the shift's own
    # symmetry is probed, not the rounding of omega_c +/- detuning
    plus = ensemble_dispersive_shift(ens, detuning, 0.0, 1.0)
    minus = ensemble_dispersive_shift(ens, -detuning, 0.0, 1.0)
    assert plus == -minus and math.isfinite(plus)


NOT_POLARIZATIONS = [math.nan, math.inf, -math.inf, -1e-300, 1 + 1e-13, 5.0, True,
                     "x", None]
POLARIZATION = st.one_of(
    st.sampled_from(NOT_POLARIZATIONS + [0, 1, 0.5]),
    st.floats(),
    st.lists(st.one_of(st.floats(), st.sampled_from(NOT_POLARIZATIONS)),
             min_size=1, max_size=4))


@given(polarization=POLARIZATION)
@example(polarization=1.5)
@example(polarization=[0.5, [0.5]])  # ragged: numpy cannot make one array of it
@example(polarization=[0.5, math.nan])
def test_every_entry_applies_the_one_polarization_rule(polarization):
    """The shift, a trace of samples and the shift-vs-field model accept the
    same polarizations: real numbers within [0, 1], alone or in an array.
    Each rejects the rest with an InvalidParameterError naming polarization,
    a real number outside [0, 1] with the one message of the range."""
    ens = ensemble(2e12, 2.4e-2, 18e-9)
    cav = CavityParams(omega_c=2.8175e9, q=6e3, beta=0.74)
    samples = polarization if isinstance(polarization, list) else [polarization] * 2
    entries = [
        lambda: ensemble_dispersive_shift(ens, cav.omega_c, 2.8e9, polarization),
        lambda: PolarizationTrace(np.arange(len(samples)) * 1e-6, samples),
        lambda: shift_vs_field_model(ens, cav, polarization),
    ]
    real = all(type(v) in (int, float) for v in samples)
    accepted = []
    for entry in entries:
        try:
            entry()
        except InvalidParameterError as exc:
            assert "polarization" in str(exc)
            if real:
                assert str(exc) == "polarization must lie within [0, 1]"
            accepted.append(False)
        else:
            accepted.append(True)
    assert accepted in ([True] * 3, [False] * 3), (polarization, accepted)
    if not isinstance(polarization, list):
        assert accepted[0] == (type(polarization) in (int, float)
                               and 0 <= polarization <= 1)


_DEFAULT = Path(__file__).resolve().parent.parent / "configs" / "default.json"
_CFG = load_config(_DEFAULT)


def _last_field_below_the_crossing(ens):
    """The largest float field at which zfs - gamma * projection_factor * B
    is still > 0."""
    slope = ens.gamma * ens.projection_factor
    b = ens.zfs / slope
    while ens.zfs - slope * b <= 0:
        b = math.nextafter(b, 0)
    while ens.zfs - slope * math.nextafter(b, math.inf) > 0:
        b = math.nextafter(b, math.inf)
    return b


_BELOW = _last_field_below_the_crossing(_CFG.ensemble)
FIELDS = [-1.0, -5e-324, 0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 32.0,
          _BELOW, math.nextafter(_BELOW, math.inf), 1e308]


@settings(max_examples=60, deadline=None)
@given(b=st.floats())
def test_every_entry_applies_the_one_field_rule(b):
    """The transition frequency, a phase trace, the shift-vs-field model, its
    fit and a config's ``b_fields_gauss`` accept the same fields: finite,
    >= 0 and below the level crossing. Each refuses the rest with an
    InvalidParameterError, the config with a ConfigError at the key's line."""
    ens, cav = _CFG.ensemble, _CFG.cavity
    params = [ens.n_spins, ens.t2_star]
    model = shift_vs_field_model(ens, cav, _CFG.p_sat)
    sweep = np.array([30.0, 32.0, 34.0])
    y = np.append(model.func(params, sweep), 0.0)
    data = json.loads(_DEFAULT.read_text())
    data["b_fields_gauss"] = [b]
    text = json.dumps(data, indent=2)
    line = next(i for i, row in enumerate(text.splitlines(), start=1)
                if '"b_fields_gauss"' in row)
    entries = [
        lambda: transition_frequency(b, ens),
        lambda: phase_trace(PolarizationTrace([0.0, 1e-6], [0.5, 1.0]), ens, cav, b),
        lambda: model.func(params, np.array([b])),
        lambda: fit_shift_vs_field(np.append(sweep, b), y,
                                   {"ensemble": ens, "cavity": cav,
                                    "polarization": _CFG.p_sat},
                                   dict(zip(model.names, params)), max_iterations=1),
    ]
    accepted = []
    for entry in entries:
        try:
            entry()
        except InvalidParameterError:
            accepted.append(False)
        else:
            accepted.append(True)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(text)
        try:
            load_config(config)
        except ConfigError as exc:
            assert exc.line == line, exc
            accepted.append(False)
        else:
            accepted.append(True)
    assert accepted in ([True] * 5, [False] * 5), (b, accepted)
    assert accepted[0] == (0 <= b <= _BELOW), b
    if accepted[0]:
        assert transition_frequency(b, ens) == (
            ens.zfs - ens.gamma * ens.projection_factor * b)
    else:
        with pytest.raises(InvalidParameterError, match=_field_refusal(b)):
            transition_frequency(b, ens)


def _field_refusal(b):
    """The message of a refused field ``b``: the rule's own, or the
    crossing's, whose frequency reads 0 Hz just past the crossing."""
    if not 0 <= b < math.inf:
        return "^b_field must be finite and >= 0$"
    return (r"^the transition frequency zfs - gamma \* projection_factor \* B is "
            rf"\S+ Hz at B = {re.escape(f'{b:g}')} G, not > 0$")


for _b in FIELDS:  # each named field is tried on every run
    test_every_entry_applies_the_one_field_rule = example(b=_b)(
        test_every_entry_applies_the_one_field_rule)


@pytest.mark.parametrize("b, first", [([32.0, math.nan], math.nan),
                                      ([30.0, 1800.0, 1900.0], 1800.0)])
def test_an_array_of_fields_is_refused_at_its_first_refused_field(b, first):
    with pytest.raises(InvalidParameterError, match=_field_refusal(first)):
        transition_frequency(b, _CFG.ensemble)


# The thirteen array arguments that physics.check_real parses, each as (its name,
# a call that passes a value in its place and valid values elsewhere, a
# valid value of whole numbers in [0, 255], so every integer type holds it).
_ENS = ensemble(2e12, 2.4e-2, 18e-9)
_CAV = CavityParams(omega_c=2.8175e9, q=5e3, beta=0.6)
_PSD = PhaseNoisePSD((PSDSegment(1.0, -1.0, 1e-6),), 1.0, 1e5)
_LOCKIN = LockinConfig(f_mod=10.0, fs=200.0, duration=0.5)  # 100 samples
_LINE = FitModel(("a", "b"), lambda p, x: p[0] * x + p[1])
_RAMP = np.arange(10.0)
_LINE_Y = np.array([1.0, 3, 6, 7, 9, 11, 14, 15, 17, 19])
_DETUNING = np.arange(0.0, 200.0, 10.0)  # Hz, at an x_scale of 1e6 Hz
_PHASE_Y = reflection_phase(_CAV, _DETUNING / 1e6) + 1e-3 * np.sin(_DETUNING)
ARRAY_ARGUMENTS = {
    "dawson-x": ("x", dawson, _RAMP),
    "ensemble_dispersive_shift-omega_c": (
        "omega_c", lambda v: ensemble_dispersive_shift(_ENS, v, 2.8e9, 1.0), _RAMP),
    "ensemble_dispersive_shift-mean_omega0": (
        "mean_omega0", lambda v: ensemble_dispersive_shift(_ENS, 2.8e9, v, 1.0),
        _RAMP),
    "ensemble_dispersive_shift-polarization": (
        "polarization", lambda v: ensemble_dispersive_shift(_ENS, 2.8e9, 2.9e9, v),
        np.array([0.0, 1.0, 1.0, 0.0])),
    "transition_frequency-b_field": (
        "b_field", lambda v: transition_frequency(v, _ENS), _RAMP),
    "reflection_phase-delta": ("delta", lambda v: reflection_phase(_CAV, v), _RAMP),
    "psd_value-f": ("f", lambda v: psd_value(_PSD, v), _RAMP + 1.0),
    "sensitivity-s_phi_sqrt": (
        "s_phi_sqrt", lambda v: sensitivity(OptimizedDeviceParams(), v), _RAMP),
    "lockin_demodulate-signal": (
        "signal", lambda v: lockin_demodulate(v, _LOCKIN), np.arange(100.0) % 7),
    "PolarizationTrace-times": (
        "times", lambda v: PolarizationTrace(v, [0.0, 0.5, 1.0, 0.5]).times,
        _RAMP[:4]),
    "fit_nonlinear-x": (
        "x", lambda v: fit_nonlinear(_LINE, v, _LINE_Y, {"a": 1, "b": 0}).params,
        _RAMP),
    "fit_nonlinear-y": (
        "y", lambda v: fit_nonlinear(_LINE, _RAMP, v, {"a": 1, "b": 0}).params,
        _LINE_Y),
    "fit_reflection_phase-x": (
        "x", lambda v: fit_reflection_phase(v, _PHASE_Y, {"q": 4.8e3, "beta": 0.55},
                                            x_scale=1e6).params, _DETUNING),
}
NOT_REAL = ["1e-4", "x", True, np.bool_(True), None, 1 + 0j, [1.0, [2.0]],
            Fraction(1, 2), [True, 0.5], [0.5, np.bool_(True)], 2**64, [True, False],
            ["3"]]
REAL_FORMS = {
    "int": lambda a: [int(v) for v in a],
    "int32": lambda a: a.astype(np.int32),
    "uint8": lambda a: a.astype(np.uint8),
    "float32": lambda a: a.astype(np.float32),
    "list": lambda a: a.tolist(),
    "tuple": lambda a: tuple(a.tolist()),
}


@pytest.mark.parametrize("argument", ARRAY_ARGUMENTS)
@settings(max_examples=25, deadline=None)
@given(value=st.one_of(st.sampled_from(NOT_REAL), st.text(), st.complex_numbers(),
                       st.lists(st.sampled_from(NOT_REAL[:6]), min_size=1,
                                max_size=3)))
def test_every_array_argument_refuses_what_is_not_a_real_number(argument, value):
    """Each of the thirteen array arguments refuses a value that is not a real
    number or an array of them with an InvalidParameterError naming it."""
    name, call, _ = ARRAY_ARGUMENTS[argument]
    with pytest.raises(InvalidParameterError,
                       match=f"^{name} must be a real number or an array of them, got "):
        call(value)


for _value in NOT_REAL:  # each named value is tried for every argument
    test_every_array_argument_refuses_what_is_not_a_real_number = example(
        value=_value)(test_every_array_argument_refuses_what_is_not_a_real_number)


@pytest.mark.parametrize("argument", ARRAY_ARGUMENTS)
@pytest.mark.parametrize("form", REAL_FORMS)
def test_every_array_argument_takes_any_real_type_as_the_float_array(argument,
                                                                     form):
    _, call, base = ARRAY_ARGUMENTS[argument]
    value = REAL_FORMS[form](base)
    expected = call(np.asarray(value, dtype=float))
    assert np.asarray(call(value)).tobytes() == np.asarray(expected).tobytes()


# The arguments of ARRAY_ARGUMENTS that also take one number, and the forms
# of a whole number each takes it in
SCALAR_ARGUMENTS = ["dawson-x", "ensemble_dispersive_shift-omega_c",
                    "ensemble_dispersive_shift-mean_omega0",
                    "ensemble_dispersive_shift-polarization",
                    "transition_frequency-b_field", "reflection_phase-delta",
                    "psd_value-f", "sensitivity-s_phi_sqrt"]
SCALAR_FORMS = {"int": int, "int64": np.int64, "int32": np.int32, "uint8": np.uint8,
                "float32": np.float32, "float64": np.float64, "0-d-array": np.array}


@pytest.mark.parametrize("argument", SCALAR_ARGUMENTS)
@pytest.mark.parametrize("form", SCALAR_FORMS)
def test_every_scalar_argument_gives_the_python_float(argument, form):
    _, call, base = ARRAY_ARGUMENTS[argument]
    expected = call(float(base[1]))
    got = call(SCALAR_FORMS[form](base[1]))
    assert type(got) is float and type(expected) is float and got == expected


@pytest.mark.parametrize("omega_c, mean_omega0, polarization, shapes", [
    (np.full(2, 2.8e9), np.full(3, 2.9e9), 1.0, r"\(2,\), \(3,\) and \(\)"),
    (2.8e9, np.full(2, 2.9e9), np.full(3, 0.5), r"\(\), \(2,\) and \(3,\)"),
], ids=["omega_c-mean_omega0", "detuning-polarization"])
def test_ensemble_shift_names_arguments_that_do_not_broadcast(omega_c, mean_omega0,
                                                              polarization, shapes):
    with pytest.raises(InvalidParameterError,
                       match="^omega_c, mean_omega0 and polarization must broadcast "
                             f"together, got shapes {shapes}$"):
        ensemble_dispersive_shift(_ENS, omega_c, mean_omega0, polarization)


@pytest.mark.parametrize("argument", ARRAY_ARGUMENTS)
def test_a_long_refused_array_gives_a_short_message(argument):
    name, call, _ = ARRAY_ARGUMENTS[argument]
    with pytest.raises(InvalidParameterError) as info:
        call(["x"] * 10**4)
    assert str(info.value).startswith(f"{name} must be") and len(str(info.value)) < 200


@given(
    polarization=st.floats(min_value=0.0, max_value=1.0),
    scale=st.floats(min_value=0.1, max_value=8.0),
)
def test_ensemble_shift_scaling_laws(polarization, scale, ):
    base = ensemble(1e12, 0.02, 20e-9)
    omega_c, omega0 = 2.82e9, 2.80e9
    ref = ensemble_dispersive_shift(base, omega_c, omega0, 1.0)
    # linear in polarization
    assert ensemble_dispersive_shift(base, omega_c, omega0, polarization) == (
        pytest.approx(polarization * ref, rel=1e-12, abs=1e-300)
    )
    # linear in n_spins
    scaled_n = ensemble(1e12 * scale, 0.02, 20e-9)
    assert ensemble_dispersive_shift(scaled_n, omega_c, omega0, 1.0) == (
        pytest.approx(scale * ref, rel=1e-12)
    )
    # quadratic in g
    scaled_g = ensemble(1e12, 0.02 * scale, 20e-9)
    assert ensemble_dispersive_shift(scaled_g, omega_c, omega0, 1.0) == (
        pytest.approx(scale**2 * ref, rel=1e-12)
    )


def _flux(p):
    return photon_budget(p).flux


_D = OptimizedDeviceParams()
_PHASE, _FLUX = optimized_phase_shift(_D), _flux(_D)
_ETA, _ETA_SPIN = sensitivity(_D, 1e-6), shot_noise_limit(_D.n_spins, _D.t2).eta_spin
_LOCKIN_1E4 = LockinConfig(f_mod=1e4, fs=1e6, duration=1e-2)  # 100 samples a period
DEVICE_LAWS = {  # (quantity, fields changed from the defaults, value, rel)
    "phase-q": (optimized_phase_shift, {"q": 2 * _D.q}, 2 * _PHASE, 1e-12),
    "phase-n_spins": (optimized_phase_shift, {"n_spins": 2 * _D.n_spins}, 2 * _PHASE,
                      1e-12),
    "phase-g": (optimized_phase_shift, {"g": 2 * _D.g}, 4 * _PHASE, 1e-12),
    "phase-omega_0": (optimized_phase_shift, {"omega_0": 2 * _D.omega_0}, _PHASE / 2,
                      1e-12),
    "phase-delta": (optimized_phase_shift, {"delta": 2 * _D.delta}, _PHASE / 2, 1e-12),
    # pi*Q*N/omega_0 times the single-spin dispersive pull g^2/Delta
    "phase-value": (optimized_phase_shift, {},
                    math.pi * _D.q * (_D.g**2 / _D.delta) * _D.n_spins / _D.omega_0,
                    1e-15),
    "flux-n_spins": (_flux, {"n_spins": 2 * _D.n_spins}, 2 * _FLUX, 1e-12),
    "flux-t2": (_flux, {"t2": 2 * _D.t2}, _FLUX / 2, 1e-12),
    # g*sqrt(N*Q/(omega_0*T2)) = 0.3 Hz * sqrt(1e11 photons) at the defaults
    "rabi-value": (lambda p: photon_budget(p).rabi_from_photons, {},
                   0.3 * math.sqrt(1e11), 1e-12),
    "sensitivity-s_phi_sqrt": (lambda p: sensitivity(p, 2e-6), {}, 2 * _ETA, 1e-12),
    "sensitivity-n_spins": (lambda p: sensitivity(p, 1e-6), {"n_spins": 2 * _D.n_spins},
                            _ETA / 2, 1e-12),
    "shot-noise-n_spins": (lambda p: shot_noise_limit(p.n_spins, p.t2).eta_spin,
                           {"n_spins": 4 * _D.n_spins}, _ETA_SPIN / 2, 1e-12),
    # the square wave's fundamental: 4/pi in the limit of many samples a period
    "square-wave-lock-in-gain": (
        lambda p: lockin_demodulate(square_wave(_LOCKIN_1E4), _LOCKIN_1E4), {}, 4 / math.pi,
        1e-3),
}


@pytest.mark.parametrize("law", DEVICE_LAWS)
def test_optimized_device_laws(law):
    """The phase shift pi*Q*N*g^2/(omega_0*Delta) and the photon flux N/T2
    scale with each argument as their formulas say, and hold their values
    at the defaults; the sensitivity is linear in the noise density and in
    1/N, the projection-noise limit goes as 1/sqrt(N), and the square wave
    demodulates to 4/pi."""
    quantity, changes, value, rel = DEVICE_LAWS[law]
    # abs=0: approx's default 1e-12 would pass any sensitivity, about 1e-15 T/sqrt(Hz)
    assert quantity(dataclasses.replace(_D, **changes)) == pytest.approx(value, rel=rel,
                                                                         abs=0)


@settings(max_examples=200)
@given(
    t2_star=st.floats(min_value=1e-12, max_value=1e-3),
    ratio=st.floats(min_value=20.0, max_value=1e6),
    sign=st.sampled_from([1.0, -1.0]),
    polarization=st.floats(min_value=1e-3, max_value=1.0),
    n_spins=st.floats(min_value=1.0, max_value=1e15),
    g=st.floats(min_value=1e-3, max_value=10.0),
)
def test_ensemble_shift_approaches_the_narrow_line_limit(t2_star, ratio, sign,
                                                         polarization, n_spins, g):
    """At |Delta| >= 20 sigma the shift is p*N*g^2/Delta times
    1 + (sigma/Delta)^2 + O((sigma/Delta)^4), from the Dawson tail
    D(x) = 1/(2x) + 1/(4x^3) + ...; its excess over the limit lies within
    [0.5, 2] (sigma/Delta)^2. The draw stops at |Delta| = 10^6 sigma, where
    (sigma/Delta)^2 = 1e-12 still dwarfs the few ulps the formula rounds,
    and keeps p >= 1e-3, away from subnormal shifts."""
    ens = ensemble(n_spins, g, t2_star)
    omega_c = 2.8175e9
    omega0 = omega_c - sign * ratio * ens.sigma_f
    delta = omega_c - omega0  # the detuning the shift sees
    limit = polarization * n_spins * g**2 / delta
    excess = ensemble_dispersive_shift(ens, omega_c, omega0, polarization) / limit - 1
    assert 0.5 * (ens.sigma_f / delta) ** 2 <= excess <= 2 * (ens.sigma_f / delta) ** 2


@given(
    beta=st.floats(min_value=0.05, max_value=0.95),
    q=st.floats(min_value=1e2, max_value=1e6),
    delta=st.floats(min_value=1e-9, max_value=1e-2),
)
@example(beta=0.74, q=6e3, delta=0.0)
def test_reflection_phase_is_odd_without_background(beta, q, delta):
    cav = CavityParams(omega_c=2.8e9, q=q, beta=beta)
    assert reflection_phase(cav, delta) == -reflection_phase(cav, -delta)


def test_reflection_phase_slope_by_central_difference():
    cav = CavityParams(omega_c=2.8175e9, q=6.0e3, beta=0.74, k=3.0, phi0=0.1)
    h = 1e-12
    slope = (reflection_phase(cav, h) - reflection_phase(cav, -h)) / (2 * h)
    expected = 4 * cav.beta * cav.q / (1 - cav.beta**2) + cav.k
    assert slope == pytest.approx(expected, rel=1e-6)


def test_reflection_phase_undercoupled_sweep_peak_to_peak(measured_cavity):
    delta = np.linspace(-5e-4, 5e-4, 2001)
    phase = reflection_phase(measured_cavity, delta)
    peak = measured_cavity.beta / math.sqrt(1 - measured_cavity.beta**2)
    # peak-to-peak excursion is twice the resonant-term maximum
    assert np.max(phase) - np.min(phase) == pytest.approx(2 * peak, rel=1e-3)


def test_reflection_phase_is_the_tangent_of_arg_s11_at_the_measured_cavity():
    cav = CavityParams(omega_c=2.8175e9, q=6e3, beta=0.74)
    arg_s11 = float(reflection_phase_arctan(cav.q, cav.beta, 5.6e-5))
    assert arg_s11 == pytest.approx(0.83307, abs=1e-5)
    assert reflection_phase(cav, 5.6e-5) == pytest.approx(1.10020, abs=1e-5)
    assert reflection_phase(cav, 5.6e-5) == pytest.approx(math.tan(arg_s11),
                                                          rel=1e-14)


@settings(max_examples=300)
@given(
    beta=st.one_of(st.floats(min_value=0.05, max_value=0.998),
                   st.floats(min_value=1.002, max_value=3.0)),
    q=st.floats(min_value=1e2, max_value=1e6),
    u=st.floats(min_value=-50.0, max_value=50.0),
)
def test_reflection_phase_is_the_tangent_of_arg_s11(beta, q, u):
    """Without background, the reflection phase is tan(arg S11) to 1e-9
    relative: the arctangent difference loses a few ulps to cancellation,
    and both forms lose more next to the pole at 2*Q*|x| =
    sqrt(beta^2 - 1) of beta > 1, which the draw keeps 1e-3 away from."""
    assume(abs(u * u + 1.0 - beta * beta) > 1e-3)
    cav = CavityParams(omega_c=2.8e9, q=q, beta=beta)
    x = u / (2.0 * q)
    expected = math.tan(float(reflection_phase_arctan(q, beta, x)))
    assert reflection_phase(cav, x) == pytest.approx(expected, rel=1e-9,
                                                     abs=1e-300)


@given(
    a=st.floats(min_value=-10, max_value=10),
    b=st.floats(min_value=-10, max_value=10),
    harmonic=st.integers(min_value=2, max_value=9),
)
@example(a=1.0, b=1.0, harmonic=3)
@settings(max_examples=30, deadline=None)
def test_demodulator_linearity_and_orthogonality(a, b, harmonic):
    cfg = LockinConfig(f_mod=1e3, fs=5e4, duration=1e-2)
    t = np.arange(cfg.n_samples) / cfg.fs
    fundamental = np.sin(2 * math.pi * cfg.f_mod * t)
    other = np.sin(2 * math.pi * harmonic * cfg.f_mod * t)
    out = lockin_demodulate(a * fundamental + b * other, cfg)
    assert out == pytest.approx(a, abs=1e-11 * max(1.0, abs(a) + abs(b)))


@given(seed=st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=20, deadline=None)
def test_noise_synthesis_deterministic_per_seed(seed):
    psd = PhaseNoisePSD((PSDSegment(1.0, 0.0, 1e-8),), 0.1, 1e5)
    a = synthesize_phase_noise(psd, 1e5, 1024, seed)
    b = synthesize_phase_noise(psd, 1e5, 1024, seed)
    assert np.array_equal(a, b)
