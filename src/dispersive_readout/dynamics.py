"""Time-domain traces: spin polarization under a chopped pump laser and its
conversion to a dispersive reflection-phase trace.

Both laser-on buildup and laser-off decay are mono-exponential, so every
segment is evaluated in closed form (no integrator error):

    laser on:  dp/dt = (p_sat - p)/t1_light
    laser off: dp/dt = -p/t1_dark
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .params import CavityParams, ChopperCycle, SpinEnsembleParams, check_fraction
from .physics import (
    check_polarization,
    check_real,
    ensemble_dispersive_shift,
    transition_frequency,
)


_BLOCK = 1 << 16  # samples per block of polarization_trace


@dataclass(frozen=True)
class PolarizationTrace:
    times: np.ndarray   # s, uniform spacing
    p: np.ndarray       # polarization in [0, 1]

    def __post_init__(self):
        t = check_real(self.times, "times")
        p = check_polarization(self.p)
        if t.shape != p.shape or t.ndim != 1 or not t.size:
            raise InvalidParameterError("times and p must be 1-D arrays of equal length > 0")
        dts = np.diff(t)
        # uniform up to rounding: the steps span at most four float spacings at
        # max|t|, as do those of np.arange(10**7) * 4e-6 and of np.linspace
        if not (np.isfinite(t).all() and np.all(dts > 0)
                and (t.size < 3 or np.ptp(dts) <= 4 * np.spacing(max(-t[0], t[-1])))):
            raise InvalidParameterError(
                "times must be finite, strictly increasing and uniform")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class PhaseTrace:
    times: np.ndarray
    phase: np.ndarray   # rad


def polarization_trace(cycle: ChopperCycle, ens: SpinEnsembleParams,
                       p_sat=1.0) -> PolarizationTrace:
    """Sampled polarization p(t) over ``cycle.n_periods`` chopper periods,
    starting unpolarized (p = 0).

    Segments are joined continuously; samples are exact closed-form values.
    The samples are computed in blocks of ``_BLOCK`` with the same
    operations per sample, so the working set beyond the trace is bounded.
    """
    p_sat = check_fraction(p_sat, "p_sat")
    n = int(round(cycle.n_periods * cycle.period / cycle.dt))
    times = np.arange(n) * cycle.dt
    p = np.empty(n)
    t_on = cycle.duty * cycle.period

    def build_up(p_start, t):  # t after the laser turns on
        return p_sat + (p_start - p_sat) * np.exp(-t / ens.t1_light)

    def decay(p_start, t):  # t after the laser turns off
        return p_start * np.exp(-t / ens.t1_dark)

    # polarization at the start of each period / each dark segment
    p_period = np.empty(cycle.n_periods)
    p_dark = np.empty(cycle.n_periods)
    p0 = 0.0
    for i in range(cycle.n_periods):
        p_period[i] = p0
        p_dark[i] = build_up(p0, t_on)
        p0 = decay(p_dark[i], cycle.period - t_on)

    for start in range(0, n, _BLOCK):
        block = times[start:start + _BLOCK]
        in_period = block % cycle.period
        period_idx = np.minimum((block // cycle.period).astype(int), cycle.n_periods - 1)
        on = in_period < t_on
        off = ~on
        p_block = p[start:start + _BLOCK]
        p_block[on] = build_up(p_period[period_idx[on]], in_period[on])
        p_block[off] = decay(p_dark[period_idx[off]], in_period[off] - t_on)
    return PolarizationTrace(times, np.clip(p, 0.0, 1.0, out=p))


def phase_trace(trace: PolarizationTrace, ens: SpinEnsembleParams,
                cav: CavityParams, b_field, subtract_offset=True) -> PhaseTrace:
    """Dispersive reflection-phase trace for a probe parked on the cavity.

    Each sample maps the instantaneous ensemble pull delta_c(t) (polarization
    p(t)) through the small-shift slope of the reflection phase,
    ``cav.phase_slope``, at fractional detuning delta_c/f_c; ``b_field`` is one field.
    """
    omega0 = transition_frequency(b_field, ens)
    if np.ndim(omega0) > 0:
        raise InvalidParameterError(f"b_field must be one field, got shape {np.shape(omega0)}")
    delta_c = ensemble_dispersive_shift(ens, cav.omega_c, omega0, trace.p)
    phase = cav.phase_slope * (delta_c / cav.omega_c) + cav.phi0
    if subtract_offset:
        phase = phase - np.mean(phase)
    return PhaseTrace(trace.times, phase)
