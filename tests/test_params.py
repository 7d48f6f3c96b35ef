"""Each parameter class rejects a value outside its model's domain."""

import dataclasses

import pytest

from dispersive_readout import (
    CavityParams,
    ChopperCycle,
    InvalidParameterError,
    LockinConfig,
    PhaseNoisePSD,
    PSDSegment,
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
