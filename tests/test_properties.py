"""The physics formulas and the input rules that every entry shares. One
property each holds the laws of the Dawson function, the ensemble shift and
the reflection phase over random draws; ``PHYSICS_LAWS`` holds their fixed
points and the quadrature oracle's own laws, ``DEVICE_LAWS`` the optimized
device's, and ``PHYSICS_REFUSALS`` what the formulas refuse. The field rule,
the polarization rule and ``ARRAY_ARGUMENTS``, the array parse of every
entry, are properties of their own."""

import dataclasses
import functools
import json
import math
import re
import reprlib
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
    transition_frequency,
)
from dispersive_readout.fitting import (
    FitModel,
    fit_nonlinear,
    fit_reflection_phase,
    shift_vs_field_model,
)
from dispersive_readout.params import PhaseNoisePSD, PSDSegment
from oracles import dawson_series, ensemble_shift_oracle, reflection_phase_arctan


def ensemble(n_spins, g, t2_star):
    return SpinEnsembleParams(n_spins=n_spins, g=g, t2_star=t2_star,
                              t1_dark=1e-3, t1_light=1e-3)


@settings(max_examples=200, deadline=None)
@given(x=st.one_of(st.floats(min_value=-30, max_value=30),
                   st.floats(min_value=-1e8, max_value=1e8)))
@example(x=0.0)
def test_dawson_laws(x):
    """D is odd and bounded by its maximum, 0.5411, and within |x| <= 10 it
    is the series oracle's to 1e-10."""
    d = dawson(x)
    assert dawson(-x) == -d and abs(d) <= 0.5411
    if abs(x) <= 10:
        assert abs(d - dawson_series(x)) < 1e-10


def _quadrature_error(ens, omega_c, omega0, polarization=1.0, n_grid=1_000_000):
    """|quadrature - closed form| / |closed form|, the shift floored at 1e-30."""
    closed = ensemble_dispersive_shift(ens, omega_c, omega0, polarization)
    quadrature = ensemble_shift_oracle(ens, omega_c, omega0, polarization, n_grid=n_grid)
    return abs(quadrature - closed) / max(abs(closed), 1e-30)


@settings(max_examples=200, deadline=None)
@given(log_t2_star=st.floats(min_value=-12.0, max_value=-3.0),
       log_ratio=st.floats(min_value=-3.0, max_value=5.0),
       far=st.floats(min_value=20.0, max_value=1e6),
       sign=st.sampled_from([1.0, -1.0]),
       polarization=st.floats(min_value=1e-3, max_value=1.0),
       n_spins=st.floats(min_value=10.0, max_value=1e15),
       g=st.floats(min_value=1e-3, max_value=10.0),
       scale=st.floats(min_value=0.1, max_value=8.0))
@example(log_t2_star=-12.0, log_ratio=5.0, far=1e6, sign=-1.0, polarization=1.0,
         n_spins=1e12, g=2.4e-2, scale=8.0)
@example(log_t2_star=-3.0, log_ratio=-3.0, far=20.0, sign=1.0, polarization=1e-3,
         n_spins=1e12, g=2.4e-2, scale=0.1)
def test_ensemble_shift_laws(log_t2_star, log_ratio, far, sign, polarization, n_spins,
                             g, scale):
    """At T2* log-uniform over 1 ps .. 1 ms and a detuning Delta with
    |Delta|/sigma log-uniform over 1e-3 .. 1e5, either sign, the shift is
    odd in Delta, linear in p and in N and quadratic in g to 1e-12, and
    meets the principal-value quadrature on the oracle's default grid to
    1e-9. The detuning stops at 1e5 sigma: further out the 10^6-point grid,
    which spans |Delta| + 8 sigma, no longer resolves the Gaussian.

    At |Delta| = ``far`` sigma >= 20 sigma the shift is p*N*g^2/Delta times
    1 + (sigma/Delta)^2 + O((sigma/Delta)^4), from the Dawson tail
    D(x) = 1/(2x) + 1/(4x^3) + ...; its excess over the limit lies within
    [0.5, 2] (sigma/Delta)^2. ``far`` stops at 10^6 sigma, where
    (sigma/Delta)^2 = 1e-12 still dwarfs the few ulps the formula rounds,
    and p >= 1e-3 keeps the shifts away from subnormals. N >= 10 keeps the
    scaled ensemble's N * scale >= 1."""
    ens = ensemble(n_spins, g, 10.0**log_t2_star)
    omega_c = 2.8175e9
    omega0 = omega_c - sign * 10.0**log_ratio * ens.sigma_f
    delta = omega_c - omega0  # the detuning the shift sees
    # at a representable detuning pair only the shift's own symmetry is probed,
    # not the rounding of omega_c +/- detuning
    plus = ensemble_dispersive_shift(ens, delta, 0.0, 1.0)
    assert plus == -ensemble_dispersive_shift(ens, -delta, 0.0, 1.0) and math.isfinite(plus)
    ref = ensemble_dispersive_shift(ens, omega_c, omega0, 1.0)
    for changed, p, factor in [(ens, polarization, polarization),
                               (dataclasses.replace(ens, n_spins=n_spins * scale), 1.0, scale),
                               (dataclasses.replace(ens, g=g * scale), 1.0, scale**2)]:
        assert ensemble_dispersive_shift(changed, omega_c, omega0, p) == pytest.approx(
            factor * ref, rel=1e-12, abs=0)
    assert _quadrature_error(ens, omega_c, omega0, polarization) < 1e-9
    omega0 = omega_c - sign * far * ens.sigma_f
    delta = omega_c - omega0
    limit = polarization * n_spins * g**2 / delta
    excess = ensemble_dispersive_shift(ens, omega_c, omega0, polarization) / limit - 1
    assert 0.5 * (ens.sigma_f / delta) ** 2 <= excess <= 2 * (ens.sigma_f / delta) ** 2


@settings(max_examples=300)
@given(beta=st.one_of(st.floats(min_value=0.05, max_value=0.998),
                      st.floats(min_value=1.002, max_value=3.0)),
       q=st.floats(min_value=1e2, max_value=1e6),
       u=st.floats(min_value=-50.0, max_value=50.0),
       delta=st.floats(min_value=1e-9, max_value=1e-2))
@example(beta=0.74, q=6e3, u=2 * 6e3 * 5.6e-5, delta=0.0)  # the measured cavity
def test_reflection_phase_laws(beta, q, u, delta):
    """Without background the reflection phase is odd in the detuning, and
    at x = u/(2Q) it is tan(arg S11) to 1e-9 relative: the arctangent
    difference loses a few ulps to cancellation, and both forms lose more
    next to the pole at 2*Q*|x| = sqrt(beta^2 - 1) of beta > 1, which the
    draw keeps 1e-3 away from."""
    assume(abs(u * u + 1.0 - beta * beta) > 1e-3)
    cav = CavityParams(omega_c=2.8e9, q=q, beta=beta)
    assert reflection_phase(cav, delta) == -reflection_phase(cav, -delta)
    x = u / (2.0 * q)
    expected = math.tan(float(reflection_phase_arctan(q, beta, x)))
    assert reflection_phase(cav, x) == pytest.approx(expected, rel=1e-9, abs=1e-300)


MEASURED = CavityParams(omega_c=2.8175e9, q=6.0e3, beta=0.74)
BACKGROUND = dataclasses.replace(MEASURED, k=3.0, phi0=0.1)
ARG_S11 = float(reflection_phase_arctan(MEASURED.q, MEASURED.beta, 5.6e-5))
_ENS = ensemble(2e12, 2.4e-2, 18e-9)  # the measured ensemble
_H = 1e-12
SERIES_GRID = np.linspace(-10, 10, 401)


def _grid_refinement():
    """The quadrature's error at 10^4 points less its error at 10^6, and 1e-8
    less the latter: both > 0 as the quadrature converges."""
    coarse, fine = (_quadrature_error(_ENS, 2.8175e9, 2.8175e9 - 3e6, n_grid=n)
                    for n in (10_000, 1_000_000))
    return [coarse - fine, 1e-8 - fine]


# name: a call giving (got, expected, rtol, atol)
PHYSICS_LAWS = {
    "dawson-maximum-near-0.92": lambda: (dawson(0.92), 0.541, 0.0, 1e-3),
    "dawson-is-the-series-on-401-points": lambda: (np.sign(1e-10 - np.abs(
        dawson(SERIES_GRID) - [dawson_series(x) for x in SERIES_GRID])), 1.0, 0.0, 0.0),
    # no detuning or no polarization, no shift; the quadrature's grid is
    # symmetric about the pole, so it gives 0 exactly too
    "no-shift-without-detuning": lambda: (ensemble_dispersive_shift(_ENS, 0.0, 0.0, 1.0),
                                          0.0, 0.0, 0.0),
    "no-shift-without-polarization": lambda: (
        ensemble_dispersive_shift(_ENS, 2.82e9, 2.80e9, 0.0), 0.0, 0.0, 0.0),
    "no-quadrature-shift-without-detuning": lambda: (
        ensemble_shift_oracle(_ENS, 2.8e9, 2.8e9, 1.0), 0.0, 0.0, 0.0),
    "quadrature-falls-with-broadening": lambda: (np.sign(np.diff(np.abs([
        ensemble_shift_oracle(ensemble(1e12, 2.4e-2, t2_star), 2.8175e9, 2.8175e9 - 1e6,
                              1.0, n_grid=200_000)
        for t2_star in (100e-9, 30e-9, 10e-9, 3e-9)]))), -1.0, 0.0, 0.0),
    "quadrature-converges-with-its-grid": lambda: (np.sign(_grid_refinement()), 1.0, 0.0,
                                                   0.0),
    "reflection-slope-by-central-difference": lambda: (
        (reflection_phase(BACKGROUND, _H) - reflection_phase(BACKGROUND, -_H)) / (2 * _H),
        4 * BACKGROUND.beta * BACKGROUND.q / (1 - BACKGROUND.beta**2) + BACKGROUND.k,
        1e-6, 0.0),
    # the peak-to-peak excursion is twice the resonant term's maximum
    "reflection-peak-to-peak-undercoupled": lambda: (
        np.ptp(reflection_phase(MEASURED, np.linspace(-5e-4, 5e-4, 2001))),
        2 * MEASURED.beta / math.sqrt(1 - MEASURED.beta**2), 1e-3, 0.0),
    # README's numbers: the kernel is tan(arg S11), not the phase
    "arg-s11-at-the-measured-cavity": lambda: (ARG_S11, 0.83307, 0.0, 1e-5),
    "reflection-phase-at-the-measured-cavity": lambda: (
        reflection_phase(MEASURED, 5.6e-5), 1.10020, 0.0, 1e-5),
    "tangent-at-the-measured-cavity": lambda: (
        reflection_phase(MEASURED, 5.6e-5), math.tan(ARG_S11), 1e-14, 0.0),
}


@pytest.mark.parametrize("law", PHYSICS_LAWS)
def test_physics_law(law):
    got, expected, rtol, atol = PHYSICS_LAWS[law]()
    np.testing.assert_allclose(got, expected, rtol=rtol, atol=atol)


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


# The thirteen array arguments that physics.check_real parses, each as (its name,
# a call that passes a value in its place and valid values elsewhere, a
# valid value of whole numbers in [0, 255], so every integer type holds it).
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
            ["3"], ["x"] * 10**4]  # reprlib keeps the last one's message short
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
    number or an array of them with an InvalidParameterError naming it and
    the value, shortened by ``reprlib``."""
    name, call, _ = ARRAY_ARGUMENTS[argument]
    with pytest.raises(InvalidParameterError) as info:
        call(value)
    assert str(info.value) == (f"{name} must be a real number or an array of them, "
                               f"got {reprlib.repr(value)}")


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


# name: (a call, its whole message)
PHYSICS_REFUSALS = {
    # an array of fields is refused at its first refused field
    "fields-32-nan": (functools.partial(transition_frequency, [32.0, math.nan], _CFG.ensemble),
                      "b_field must be finite and >= 0"),
    "fields-30-1800-1900": (
        functools.partial(transition_frequency, [30.0, 1800.0, 1900.0], _CFG.ensemble),
        "the transition frequency zfs - gamma * projection_factor * B is -3.98454e+07 Hz "
        "at B = 1800 G, not > 0"),
    **{f"broadcast-{name}": (
        functools.partial(ensemble_dispersive_shift, _ENS, *args),
        f"omega_c, mean_omega0 and polarization must broadcast together, got shapes {shapes}")
       for name, args, shapes in [
           ("omega_c-mean_omega0", (np.full(2, 2.8e9), np.full(3, 2.9e9), 1.0),
            "(2,), (3,) and ()"),
           ("detuning-polarization", (2.8e9, np.full(2, 2.9e9), np.full(3, 0.5)),
            "(), (2,) and (3,)")]},
    "quadrature-n_grid=100": (
        functools.partial(ensemble_shift_oracle, _ENS, 2.8e9, 2.9e9, 1.0, n_grid=100),
        "n_grid must be >= 1000"),
}


@pytest.mark.parametrize("call, message", PHYSICS_REFUSALS.values(),
                         ids=list(PHYSICS_REFUSALS))
def test_refusal_states_its_cause(call, message):
    with pytest.raises(InvalidParameterError) as info:
        call()
    assert type(info.value) is InvalidParameterError
    assert str(info.value) == message
