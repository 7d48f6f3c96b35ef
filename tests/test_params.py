"""Each parameter class rejects a value outside its model's domain."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from dispersive_readout import (
    CavityParams,
    ChopperCycle,
    InvalidParameterError,
    LockinConfig,
    OptimizedDeviceParams,
    PhaseNoisePSD,
    PSDSegment,
    SpinEnsembleParams,
)
from dispersive_readout.fitting import exponential_model, start_values
from dispersive_readout.params import check_fraction, check_positive, is_finite_number


def test_negative_beta_rejected():
    with pytest.raises(InvalidParameterError, match="beta must be >= 0, got -0.1"):
        CavityParams(omega_c=2.8e9, q=6e3, beta=-0.1)


@pytest.mark.parametrize("field, value, message", [
    ("n_spins", 0.5, "n_spins must be >= 1, got 0.5"),
    ("projection_factor", 1.5, r"projection_factor must be a number in \(0, 1\], got 1.5"),
])
def test_ensemble_out_of_range_rejected(measured_ensemble, field, value, message):
    with pytest.raises(InvalidParameterError, match=message):
        dataclasses.replace(measured_ensemble, **{field: value})


@pytest.mark.parametrize("check, value", [
    (check_positive, 2), (check_positive, np.float32(0.5)), (check_positive, 1e308),
    (check_fraction, 1), (check_fraction, np.float32(0.5)), (check_fraction, 5e-324)])
def test_scalar_rule_returns_a_python_float(check, value):
    out = check(value, "v")
    assert type(out) is float and out == float(value)


@pytest.mark.parametrize("check, rule, value", [
    (check, rule, value)
    for check, rule in ((check_positive, "finite and > 0"),
                        (check_fraction, r"a number in \(0, 1\]"))
    for value in (0, -0.0, -1, math.inf, math.nan, 10**400, True, "1", None, [0.5])
] + [(check_fraction, r"a number in \(0, 1\]", 1.0 + 2**-52)])
def test_scalar_rule_names_the_argument(check, rule, value):
    with pytest.raises(InvalidParameterError, match=rf"^v must be {rule}, got "):
        check(value, "v")


@pytest.mark.parametrize("duty", [-0.1, 1.5])
def test_duty_outside_unit_interval_rejected(duty):
    with pytest.raises(InvalidParameterError, match=r"duty must be in \[0, 1\]"):
        ChopperCycle(duty=duty)


WHITE = PSDSegment(f_break=10.0, exponent=0.0, level=1e-6)


@pytest.mark.parametrize("segments, f_min, f_max, message", [
    ((), 0.1, 1e5, "at least one segment"),
    ((WHITE,), 1e5, 1e5, "require 0 < f_min < f_max"),
    ((WHITE,), 2e5, 1e5, "require 0 < f_min < f_max"),
    ((WHITE, WHITE), 0.1, 1e5, "strictly increasing"),
    ((PSDSegment(1.0, -1.0, 1e-6), PSDSegment(100.0, 0.0, 5e-8)), 0.5, 1e5,
     r"^PSD discontinuous at 100\.0 Hz: 1e-08 from below vs 5e-08 from above$"),
], ids=["no-segments", "f_min-equals-f_max", "f_min-above-f_max",
        "repeated-break", "discontinuous"])
def test_malformed_psd_rejected(segments, f_min, f_max, message):
    with pytest.raises(InvalidParameterError, match=message):
        PhaseNoisePSD(segments, f_min, f_max)


@pytest.mark.parametrize("f_mod, fs, duration, message", [
    (1e4, 1e6, 1.5e-4, "duration must be an integer number of modulation periods"),
    # 11 samples spanning 1.028 periods: a unit sine would demodulate to 0.9736
    (1.0, 10.7, 1.0, "fs*duration = 10.7 must be a whole number of samples"),
    # 1e306 and 1e19 samples; the longest array holds 2**60 (1.15e18)
    *((1e4, 1e6, duration, f"fs*duration = {1e6 * duration:g} samples: more than one "
       "array can hold (1.15292e+18)") for duration in (1e300, 1e13)),
], ids=["partial-period", "partial-sample", "1e306-samples", "1e19-samples"])
def test_malformed_lockin_record_rejected(f_mod, fs, duration, message):
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        LockinConfig(f_mod=f_mod, fs=fs, duration=duration)


def test_integer_beyond_float_range_is_not_finite():
    assert is_finite_number(10**400) is False
    assert is_finite_number(10**300) is True


def test_fraction_is_not_a_finite_number():
    # the array parse, physics.check_real, refuses a Fraction too
    assert is_finite_number(Fraction(1, 2)) is False
    with pytest.raises(InvalidParameterError, match=r"^fs must be finite and > 0"):
        check_positive(Fraction(1, 2), "fs")
    with pytest.raises(InvalidParameterError,
                       match="\"init\" value for 'tau' must be a finite number"):
        start_values(exponential_model(), {"amplitude": 1.0, "tau": Fraction(1, 2)})


# every value is exact in float32, so each numeric type builds an equal container
EXACT_VALUES = [
    (CavityParams, dict(omega_c=2.0**31, q=6000, beta=0.75, k=0.5, phi0=-0.25)),
    (SpinEnsembleParams, dict(n_spins=2.0**40, g=0.0625, t2_star=2.0**-26,
                              t1_dark=2.0**-10, t1_light=2.0**-11, zfs=2.0**31,
                              gamma=2.0**21, projection_factor=0.5)),
    (OptimizedDeviceParams, dict(g=0.25, omega_0=2.0**33, q=2.0**13,
                                 delta=2.0**23, t2=2.0**-10, n_spins=2.0**46)),
    (ChopperCycle, dict(period=2.0**-8, duty=0.5, dt=2.0**-16)),
    (PSDSegment, dict(f_break=1024, exponent=-1, level=2.0**-20)),
    (PhaseNoisePSD, dict(f_min=0.5, f_max=2.0**20)),
    (LockinConfig, dict(f_mod=2.0**10, fs=2.0**16, duration=2.0**-6)),
]


@pytest.mark.parametrize("kind", [int, np.float32, np.float64, float])
@pytest.mark.parametrize("cls, values", EXACT_VALUES,
                         ids=[cls.__name__ for cls, _ in EXACT_VALUES])
def test_checked_numbers_are_stored_as_python_floats(cls, values, kind):
    typed = {name: kind(v) if kind is not int or float(v).is_integer() else v
             for name, v in values.items()}
    extra = {"segments": [WHITE]} if cls is PhaseNoisePSD else {}
    built = cls(**typed, **extra)
    plain = cls(**{name: float(v) for name, v in values.items()}, **extra)
    assert all(type(getattr(built, name)) is float for name in values)
    assert built == plain and hash(built) == hash(plain)
    if extra:
        assert built.segments == (WHITE,)


FIELDS = [(cls, values, name) for cls, values in EXACT_VALUES for name in values]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, values, field", FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, _, name in FIELDS])
def test_every_field_refuses_a_value_that_is_not_finite(cls, values, field, value):
    extra = {"segments": [WHITE]} if cls is PhaseNoisePSD else {}
    with pytest.raises(InvalidParameterError, match=f"^{field} must be"):
        cls(**dict(values, **{field: value}), **extra)
