"""Each parameter class rejects a value outside its model's domain."""

import dataclasses

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
from dispersive_readout.params import is_finite_number


def test_negative_beta_rejected():
    with pytest.raises(InvalidParameterError, match="beta must be >= 0, got -0.1"):
        CavityParams(omega_c=2.8e9, q=6e3, beta=-0.1)


@pytest.mark.parametrize("field, value, message", [
    ("n_spins", 0.5, "n_spins must be >= 1, got 0.5"),
    ("projection_factor", 1.5, r"projection_factor must be in \(0, 1\], got 1.5"),
])
def test_ensemble_out_of_range_rejected(measured_ensemble, field, value, message):
    with pytest.raises(InvalidParameterError, match=message):
        dataclasses.replace(measured_ensemble, **{field: value})


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
], ids=["no-segments", "f_min-equals-f_max", "f_min-above-f_max",
        "repeated-break"])
def test_malformed_psd_rejected(segments, f_min, f_max, message):
    with pytest.raises(InvalidParameterError, match=message):
        PhaseNoisePSD(segments, f_min, f_max)


def test_lockin_record_of_partial_periods_rejected():
    with pytest.raises(InvalidParameterError, match="integer number of modulation"):
        LockinConfig(f_mod=1e4, fs=1e6, duration=1.5e-4)


def test_integer_beyond_float_range_is_not_finite():
    assert is_finite_number(10**400) is False
    assert is_finite_number(10**300) is True


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
