"""The parameter containers and their scalar rules: each container stores
Python floats, each refusal is one row of ``PARAM_REFUSALS`` and each scalar
rule's outcome one row of ``SCALAR_RULES``."""

import math
import reprlib
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
from dispersive_readout.params import check_fraction, check_positive, is_finite_number

WHITE = PSDSegment(f_break=10.0, exponent=0.0, level=1e-6)
# a valid instance of each container; every value is exact in float32, so
# each numeric type builds an equal container
EXACT_VALUES = {
    CavityParams: dict(omega_c=2.0**31, q=6000, beta=0.75, k=0.5, phi0=-0.25),
    SpinEnsembleParams: dict(n_spins=2.0**40, g=0.0625, t2_star=2.0**-26,
                             t1_dark=2.0**-10, t1_light=2.0**-11, zfs=2.0**31,
                             gamma=2.0**21, projection_factor=0.5),
    OptimizedDeviceParams: dict(g=0.25, omega_0=2.0**33, q=2.0**13,
                                delta=2.0**23, t2=2.0**-10, n_spins=2.0**46),
    ChopperCycle: dict(period=2.0**-8, duty=0.5, dt=2.0**-16),
    PSDSegment: dict(f_break=1024, exponent=-1, level=2.0**-20),
    PhaseNoisePSD: dict(f_min=0.5, f_max=2.0**20),
    LockinConfig: dict(f_mod=2.0**10, fs=2.0**16, duration=2.0**-6),
}


def build(cls, **changes):
    """``cls`` at its ``EXACT_VALUES``, one white segment for a PSD, with ``changes``."""
    segments = {"segments": [WHITE]} if cls is PhaseNoisePSD else {}
    return cls(**{**segments, **EXACT_VALUES[cls], **changes})


@pytest.mark.parametrize("kind", [int, np.float32, np.float64, float])
@pytest.mark.parametrize("cls", EXACT_VALUES, ids=[cls.__name__ for cls in EXACT_VALUES])
def test_checked_numbers_are_stored_as_python_floats(cls, kind):
    values = EXACT_VALUES[cls]
    built = build(cls, **{name: kind(v) if kind is not int or float(v).is_integer() else v
                          for name, v in values.items()})
    plain = build(cls, **{name: float(v) for name, v in values.items()})
    assert all(type(getattr(built, name)) is float for name in values)
    assert built == plain and hash(built) == hash(plain)
    if cls is PhaseNoisePSD:
        assert built.segments == (WHITE,)


# the rule each field's non-finite value breaks, where it is not "finite and > 0"
RULES = {"beta": "finite", "k": "finite", "phi0": "finite", "duty": "finite",
         "exponent": "finite", "projection_factor": "a number in (0, 1]"}
# name: (a container, the fields changed from its EXACT_VALUES, the whole message)
PARAM_REFUSALS = {
    **{f"{cls.__name__}.{name}={value!r}": (
        cls, {name: value}, f"{name} must be {RULES.get(name, 'finite and > 0')}, "
                            f"got {value!r}")
       for cls, values in EXACT_VALUES.items() for name in values
       for value in (math.nan, math.inf, -math.inf)},
    "beta=-0.1": (CavityParams, {"beta": -0.1}, "beta must be >= 0, got -0.1"),
    "beta=1.0005": (CavityParams, {"beta": 1.0005}, "beta = 1.0005 lies within 0.001 of "
                    "the critical-coupling singularity at beta = 1"),
    "n_spins=0.5": (SpinEnsembleParams, {"n_spins": 0.5}, "n_spins must be >= 1, got 0.5"),
    "projection_factor=1.5": (SpinEnsembleParams, {"projection_factor": 1.5},
                              "projection_factor must be a number in (0, 1], got 1.5"),
    **{f"duty={duty!r}": (ChopperCycle, {"duty": duty},
                          f"duty must be in [0, 1], got {duty!r}") for duty in (-0.1, 1.5)},
    "dt=period/20": (ChopperCycle, {"dt": 2.0**-8 / 20},
                     "dt = 0.0001953125 must resolve the period: dt < period/20"),
    **{f"n_periods={n!r}": (ChopperCycle, {"n_periods": n},
                            f"n_periods must be an integer >= 1, got {n!r}")
       for n in (0, 2.5, True)},
    "n_periods=2**53": (ChopperCycle, {"n_periods": 2**53}, "n_periods*period/dt = "
                        "2.305843009213694e+18 samples: more than one array can hold "
                        "(1.15292e+18)"),
    **{f"psd-{name}": (PhaseNoisePSD, dict(zip(("segments", "f_min", "f_max"), args)),
                       message)
       for name, args, message in [
           ("no-segments", ((), 0.1, 1e5), "PSD needs at least one segment"),
           ("f_min-equals-f_max", ((WHITE,), 1e5, 1e5), "require 0 < f_min < f_max"),
           ("f_min-above-f_max", ((WHITE,), 2e5, 1e5), "require 0 < f_min < f_max"),
           ("repeated-break", ((WHITE, WHITE), 0.1, 1e5),
            "segment breakpoints must be strictly increasing"),
           ("discontinuous", ((PSDSegment(1.0, -1.0, 1e-6), PSDSegment(100.0, 0.0, 5e-8)),
                              0.5, 1e5),
            "PSD discontinuous at 100.0 Hz: 1e-08 from below vs 5e-08 from above"),
           # twice the 1e-6 relative step that continuity allows
           ("discontinuous-by-2e-6", ((PSDSegment(1.0, -1.0, 1e-6),
                                       PSDSegment(100.0, 0.0, 1.000002e-08)), 0.5, 1e5),
            "PSD discontinuous at 100.0 Hz: 1e-08 from below vs 1.000002e-08 from above")]},
    **{f"lockin-{name}": (LockinConfig, dict(zip(("f_mod", "fs", "duration"), args)),
                          message)
       for name, args, message in [
           ("fs=10*f_mod", (2.0**10, 10 * 2.0**10, 2.0**-6),
            "fs = 10240.0 must exceed 10*f_mod = 10240.0"),
           ("partial-period", (1e4, 1e6, 1.5e-4),
            "duration must be an integer number of modulation periods"),
           # 11 samples spanning 1.028 periods: a unit sine would demodulate to 0.9736
           ("partial-sample", (1.0, 10.7, 1.0),
            "fs*duration = 10.7 must be a whole number of samples"),
           # 1e306 and 1e19 samples; the longest array holds 2**60 (1.15e18)
           *((f"{1e6 * duration:g}-samples", (1e4, 1e6, duration),
              f"fs*duration = {1e6 * duration:g} samples: more than one array can hold "
              "(1.15292e+18)") for duration in (1e300, 1e13))]},
}


@pytest.mark.parametrize("cls, changes, message", PARAM_REFUSALS.values(),
                         ids=list(PARAM_REFUSALS))
def test_refusal_states_its_cause(cls, changes, message):
    with pytest.raises(InvalidParameterError) as info:
        build(cls, **changes)
    assert type(info.value) is InvalidParameterError
    assert str(info.value) == message


# name: (a call, what it returns, or the whole message of the InvalidParameterError
# it raises); a Fraction, which the array parse physics.check_real refuses too,
# is no finite number
SCALAR_RULES = {
    **{f"{check.__name__}({value!r})": (lambda c=check, v=value: c(v, "v"), float(value))
       for check, values in ((check_positive, (2, np.float32(0.5), 1e308)),
                             (check_fraction, (1, np.float32(0.5), 5e-324)))
       for value in values},
    **{f"{check.__name__}({reprlib.repr(value)})": (
        lambda c=check, v=value: c(v, "v"), f"v must be {rule}, got {value!r}")
       for check, rule, values in (
           (check_positive, "finite and > 0", ()),
           (check_fraction, "a number in (0, 1]", (1.0 + 2**-52,)))
       for value in (0, -0.0, -1, math.inf, math.nan, 10**400, True, "1", None, [0.5],
                     *values)},
    **{f"is_finite_number({name})": (lambda v=value: is_finite_number(v), finite)
       for name, value, finite in [("10**400", 10**400, False), ("10**300", 10**300, True),
                                   ("Fraction", Fraction(1, 2), False)]},
    "check_positive(Fraction)": (lambda: check_positive(Fraction(1, 2), "fs"),
                                 "fs must be finite and > 0, got Fraction(1, 2)"),
}


@pytest.mark.parametrize("call, outcome", SCALAR_RULES.values(), ids=list(SCALAR_RULES))
def test_scalar_rule(call, outcome):
    if isinstance(outcome, str):
        with pytest.raises(InvalidParameterError) as info:
            call()
        assert str(info.value) == outcome
    else:
        got = call()
        assert type(got) is type(outcome) and got == outcome
