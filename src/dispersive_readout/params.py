"""Immutable parameter containers for the cavity, the spin ensemble, the
chopper cycle, the phase-noise model and the lock-in detector.

Unit convention: all frequencies are stored as ordinary frequencies in Hz.
Angular-frequency factors of 2*pi enter only inside the formulas that need
them and are written out explicitly there.

Storage rule: each container stores every number it checks as a Python
float, whatever its numeric type, and its segments as a tuple. Equal
containers then hold the same numbers, so they compute the same bits.
"""

from __future__ import annotations

import fractions
import math
import numbers
from dataclasses import dataclass

from .errors import InvalidParameterError

# Cosine of the angle between any NV axis and a field along [001];
# all four orientations are degenerate in this geometry.
PROJECTION_001 = 1.0 / math.sqrt(3.0)

# numpy's ceiling on the length of one float64 array (2**63 bytes)
MAX_SAMPLES = 2**60

# half-width of the band around critical coupling (beta = 1) that beta may not enter
BETA_EXCLUSION = 1e-3


def linewidth(t2_star):
    """Gaussian inhomogeneous linewidth 1/(2*pi*T2*) in Hz."""
    return 1.0 / (2.0 * math.pi * t2_star)


def is_finite_number(value):
    """True for a finite real number; False for a bool, a non-number, a
    ``Fraction`` (which ``check_real`` refuses too) and an integer beyond
    the float range."""
    if (isinstance(value, (bool, fractions.Fraction))
            or not isinstance(value, numbers.Real)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_positive(value, name):
    """``value``, the argument ``name``, as a float if finite and > 0."""
    if not (is_finite_number(value) and float(value) > 0):
        raise InvalidParameterError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def check_fraction(value, name):
    """``value``, the argument ``name``, as a float if a number in (0, 1].

    A subnormal fraction such as 5e-324 is accepted. A ``p_sat`` that small
    is resolved only in steps of 5e-324, the spacing of subnormal floats:
    ``dynamics.polarization_trace`` at ``p_sat=5e-324`` holds 2 distinct
    values, and at 1e-320 it holds 1292."""
    if not (is_finite_number(value) and 0 < float(value) <= 1):
        raise InvalidParameterError(f"{name} must be a number in (0, 1], got {value!r}")
    return float(value)


def check_finite(obj, names, positive=False):
    """Store fields ``names`` of ``obj`` as floats, each finite (> 0 if ``positive``)."""
    for name in names:
        value = getattr(obj, name)
        if positive:
            value = check_positive(value, name)
        elif not is_finite_number(value):
            raise InvalidParameterError(f"{name} must be finite, got {value!r}")
        object.__setattr__(obj, name, float(value))


def _is_whole(x):
    """True when ``x`` is within 1e-9*max(1, x) of an integer."""
    return abs(x - round(x)) <= 1e-9 * max(1.0, x)


def check_count(value, name):
    """Reject ``value``, the count ``name``, unless an integer >= 1 and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise InvalidParameterError(f"{name} must be an integer >= 1, got {value!r}")


def check_seed(value, name):
    """``value``, the random seed ``name``, if an integer >= 0 and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise InvalidParameterError(
            f"{name} must be a non-negative integer, got {value!r}")
    return value


def check_samples(n_samples, expression):
    """Reject a record of ``n_samples`` samples, the value of
    ``expression``, that is more than one array can hold."""
    if not n_samples < MAX_SAMPLES:
        raise InvalidParameterError(f"{expression} = {n_samples!r} samples: more "
                                    f"than one array can hold ({MAX_SAMPLES:g})")


@dataclass(frozen=True)
class CavityParams:
    """Reflection-measured resonator: resonance frequency, quality factor,
    port coupling coefficient and background phase terms.

    ``k`` is the background phase slope in rad per unit *fractional*
    detuning (f - f_c)/f_c, the same normalization in which Q*delta is
    dimensionless inside the reflection-phase model.
    """

    omega_c: float          # resonance frequency (Hz)
    q: float                # quality factor
    beta: float             # port coupling coefficient; beta = 1 is critical
    k: float = 0.0          # background phase slope (rad / fractional detuning)
    phi0: float = 0.0       # phase offset (rad)

    def __post_init__(self):
        check_finite(self, ("omega_c", "q"), positive=True)
        check_finite(self, ("beta", "k", "phi0"))
        if self.beta < 0:
            raise InvalidParameterError(f"beta must be >= 0, got {self.beta}")
        if abs(self.beta - 1.0) < BETA_EXCLUSION:
            raise InvalidParameterError(
                f"beta = {self.beta} lies within {BETA_EXCLUSION} of the "
                "critical-coupling singularity at beta = 1")

    @property
    def resonant_slope(self):
        """Slope of the resonant phase term at zero detuning: 4*beta*Q/(1-beta^2)."""
        return 4.0 * self.beta * self.q / (1.0 - self.beta**2)

    @property
    def phase_slope(self):
        """Small-shift slope of the full reflection phase at zero detuning,
        resonant term plus background: 4*beta*Q/(1-beta^2) + k."""
        return self.resonant_slope + self.k


@dataclass(frozen=True)
class SpinEnsembleParams:
    """NV-like spin ensemble: size, single-spin coupling, Zeeman model and
    relaxation/dephasing times."""

    n_spins: float          # number of spins
    g: float                # single-spin coupling (Hz)
    t2_star: float          # inhomogeneous dephasing time (s)
    t1_dark: float          # longitudinal relaxation time, laser off (s)
    t1_light: float         # polarization time constant, laser on (s)
    zfs: float = 2.87e9     # zero-field splitting D (Hz)
    gamma: float = 2.8e6    # gyromagnetic ratio (Hz/gauss)
    projection_factor: float = PROJECTION_001  # cos(NV axis, field)

    def __post_init__(self):
        check_finite(self, ("n_spins", "g", "t2_star", "t1_dark", "t1_light",
                            "zfs", "gamma"), positive=True)
        if not self.n_spins >= 1:
            raise InvalidParameterError(f"n_spins must be >= 1, got {self.n_spins}")
        object.__setattr__(self, "projection_factor", check_fraction(
            self.projection_factor, "projection_factor"))

    @property
    def sigma_f(self):
        """Gaussian inhomogeneous linewidth 1/(2*pi*T2*) in Hz."""
        return linewidth(self.t2_star)


@dataclass(frozen=True)
class OptimizedDeviceParams:
    """Projected parameters of an optimized readout device.

    Defaults are the optimized-device operating point used throughout the
    performance estimates (g/2pi = 0.3 Hz, omega_0/2pi = 1e10 Hz, Q = 1e4,
    Delta/2pi = 1e7 Hz, T2 = 1 ms, N = 1e14 spins).
    """

    g: float = 0.3          # coupling (Hz)
    omega_0: float = 1e10   # spin transition frequency (Hz)
    q: float = 1e4          # quality factor
    delta: float = 1e7      # spin-cavity detuning (Hz)
    t2: float = 1e-3        # coherence time (s)
    n_spins: float = 1e14   # number of spins

    def __post_init__(self):
        check_finite(self, ("g", "omega_0", "q", "delta", "t2", "n_spins"),
                     positive=True)


@dataclass(frozen=True)
class ChopperCycle:
    """Square modulation of the pump laser: alternating on/off segments."""

    period: float = 4e-3    # full chopper period (s)
    duty: float = 0.5       # fraction of the period with the laser on
    n_periods: int = 5
    dt: float = 4e-6        # sample interval (s)

    def __post_init__(self):
        check_finite(self, ("period", "dt"), positive=True)
        check_finite(self, ("duty",))
        if not 0 <= self.duty <= 1:
            raise InvalidParameterError(f"duty must be in [0, 1], got {self.duty}")
        check_count(self.n_periods, "n_periods")
        if not self.dt < self.period / 20:
            raise InvalidParameterError(
                f"dt = {self.dt} must resolve the period: dt < period/20")
        check_samples(self.n_periods * self.period / self.dt, "n_periods*period/dt")


@dataclass(frozen=True)
class PSDSegment:
    f_break: float          # anchor frequency (Hz)
    exponent: float         # power-law exponent (0 white, -1, -3, ...)
    level: float            # S_phi at f_break (rad^2/Hz)

    def __post_init__(self):
        check_finite(self, ("f_break", "level"), positive=True)
        check_finite(self, ("exponent",))


@dataclass(frozen=True)
class PhaseNoisePSD:
    """Piecewise power-law one-sided phase-noise spectral density.

    Segment i applies from its breakpoint up to the next one (the first
    segment extends down to f_min, the last up to f_max):
    S_phi(f) = level_i * (f / f_break_i)^exponent_i.
    Continuity across breakpoints is enforced at construction.
    """

    segments: tuple         # PSDSegments: any sequence, stored as a tuple
    f_min: float
    f_max: float

    def __post_init__(self):
        segments = tuple(self.segments)
        object.__setattr__(self, "segments", segments)
        if len(segments) == 0:
            raise InvalidParameterError("PSD needs at least one segment")
        check_finite(self, ("f_min", "f_max"), positive=True)
        if not self.f_min < self.f_max:
            raise InvalidParameterError("require 0 < f_min < f_max")
        breaks = [s.f_break for s in segments]
        if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
            raise InvalidParameterError("segment breakpoints must be strictly increasing")
        for lo, hi in zip(segments, segments[1:]):
            left = lo.level * (hi.f_break / lo.f_break) ** lo.exponent
            if not math.isclose(left, hi.level, rel_tol=1e-6):
                raise InvalidParameterError(
                    f"PSD discontinuous at {hi.f_break} Hz: "
                    f"{left} from below vs {hi.level} from above")


@dataclass(frozen=True)
class LockinConfig:
    """Digital lock-in: sine reference at f_mod, zero phase. The record holds
    a whole number of modulation periods and of samples."""

    f_mod: float            # modulation frequency (Hz)
    fs: float               # sample rate (Hz)
    duration: float         # record length (s): whole periods, whole samples

    def __post_init__(self):
        check_finite(self, ("f_mod", "fs", "duration"), positive=True)
        if not self.fs > 10 * self.f_mod:
            raise InvalidParameterError(
                f"fs = {self.fs} must exceed 10*f_mod = {10 * self.f_mod}")
        n_samples = self.fs * self.duration
        check_samples(n_samples, "fs*duration")
        # both finite now: f_mod*duration < fs*duration < MAX_SAMPLES
        if not _is_whole(self.duration * self.f_mod):
            raise InvalidParameterError(
                "duration must be an integer number of modulation periods")
        if not _is_whole(n_samples):
            raise InvalidParameterError(
                f"fs*duration = {n_samples!r} must be a whole number of samples")

    @property
    def n_samples(self):
        return int(round(self.fs * self.duration))
