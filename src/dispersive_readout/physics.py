"""Closed-form cavity/spin physics: dispersive shifts, the Gaussian-broadened
ensemble shift via the Dawson function, the reflection-phase model, and the
photon-budget numbers for an optimized device.

The reflection-phase model is the tangent of the phase of S11, not the phase
itself: its resonant term 4*beta*Q*x / ((2*Q*x)^2 + 1 - beta^2) equals
tan(atan(2*Q*x/(1 - beta)) - atan(2*Q*x/(1 + beta))). The two agree to first
order in x; for beta > 1 the tangent has a pole at |x| = sqrt(beta^2 - 1)/(2*Q).

All frequencies are plain Hz; 2*pi factors cancel in every formula below that
the literature writes in angular frequencies (they appear squared in the
numerator and once in each of two denominator factors), so the expressions
are evaluated directly with Hz values.

A bad argument raises InvalidParameterError. Each rule has one owner: a
real number or array (``check_real``), a polarization
(``check_polarization``) and a bias field (``transition_frequency``, which
also refuses a field past the level crossing).
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .params import CavityParams, OptimizedDeviceParams, SpinEnsembleParams

SQRT2 = math.sqrt(2.0)


_BOOLS = frozenset({bool, np.bool_})


def check_real(value, name):
    """``value``, the argument ``name``, as a float64 array (0-d for a
    number) if it is a real number or an array of them; InvalidParameterError
    naming it otherwise (a bool, a string, a complex number, None, a
    ``Fraction`` or a ragged list is not such a number, nor is a list or
    tuple that holds a bool, which numpy would read as 0 or 1)."""
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged list, refused below as not numeric
        a = np.asarray(None)
    if a.dtype.kind not in "iuf" or (isinstance(value, (list, tuple)) and not
            _BOOLS.isdisjoint(map(type, np.asarray(value, dtype=object).flat))):
        raise InvalidParameterError(f"{name} must be a real number or an array "
                                    f"of them, got {reprlib.repr(value)}")
    return a.astype(float, copy=False)


def transition_frequency(b_field, ens: SpinEnsembleParams):
    """Mean spin transition frequency (Hz) at field ``b_field`` (gauss).

    Linear Zeeman model for the lower (m_s = -1) branch with the field along
    [001]: f0 = D - gamma * projection_factor * B, monotone decreasing in B.
    ``b_field`` is a real number or an array of them (``check_real``),
    finite and >= 0, below the level crossing: f0 must be > 0 at every
    field. Any other field raises InvalidParameterError.
    """
    b = check_real(b_field, "b_field")
    if not np.all((b >= 0) & (b < np.inf)):
        raise InvalidParameterError("b_field must be finite and >= 0")
    with np.errstate(over="ignore"):  # past the float range it reads -inf
        out = ens.zfs - ens.gamma * ens.projection_factor * b
    below = out > 0
    if not np.all(below):
        i = int(np.argmin(below))
        raise InvalidParameterError(f"the transition frequency zfs - gamma * "
                                    f"projection_factor * B is {out.flat[i]:g} Hz "
                                    f"at B = {b.flat[i]:g} G, not > 0")
    return float(out) if np.ndim(out) == 0 else out


def check_polarization(polarization):
    """``polarization``, a real number or array of them (``check_real``)
    within [0, 1], as a float64 scalar or array; InvalidParameterError
    otherwise."""
    p = check_real(polarization, "polarization")
    if not np.all((p >= 0) & (p <= 1)):
        raise InvalidParameterError("polarization must lie within [0, 1]")
    return p[()]


def dawson(x):
    """Dawson integral D(x) = exp(-x^2) * int_0^x exp(t^2) dt.

    Odd, peaks at ~0.541 near x = 0.924, decays as 1/(2x) for large |x|.
    ``scipy.special`` is imported on the first call, not with the package:
    it is most of the package's import time, and only the Dawson-based
    models need it.
    """
    from scipy.special import dawsn

    out = dawsn(check_real(x, "x"))
    return float(out) if out.ndim == 0 else out


def ensemble_profile(detuning, sigma):
    """The line shape D(detuning / (sqrt(2) * sigma)) of ``ensemble_shift``."""
    return dawson(detuning / (SQRT2 * sigma))


def ensemble_shift(p, n_spins, g, sigma, profile):
    """Cavity pull (Hz) of a Gaussian-broadened ensemble on plain arrays:
    p * N * g^2 * (sqrt(2)/sigma) times ``profile``, the
    ``ensemble_profile`` of the detuning at the linewidth sigma (Hz)."""
    return p * n_spins * g**2 * (SQRT2 / sigma) * profile


def ensemble_dispersive_shift(ens: SpinEnsembleParams, omega_c, mean_omega0,
                              polarization):
    """Cavity pull (Hz) from a Gaussian-broadened ensemble of ``n_spins``.

    The principal-value average of g^2/(omega_c - omega0) over a Gaussian
    distribution of transition frequencies (std sigma_f = 1/(2*pi*T2*))
    evaluates in closed form through the Dawson function:

        shift = p * N * g^2 * (sqrt(2)/sigma_f) * D(x),
        x = (omega_c - mean_omega0) / (sqrt(2) * sigma_f).

    Finite for all detunings (including zero), odd in the detuning, and
    reduces to p*N*g^2/Delta in the narrow-line limit sigma_f -> 0.
    """
    p = check_polarization(polarization)
    omega_c, omega0 = check_real(omega_c, "omega_c"), check_real(mean_omega0, "mean_omega0")
    shapes = omega_c.shape, omega0.shape, np.shape(p)
    try:
        np.broadcast_shapes(*shapes)
    except ValueError:
        raise InvalidParameterError("omega_c, mean_omega0 and polarization must broadcast "
                                    "together, got shapes %s, %s and %s" % shapes) from None
    detuning = omega_c - omega0
    sigma = ens.sigma_f
    out = ensemble_shift(p, ens.n_spins, ens.g, sigma, ensemble_profile(detuning, sigma))
    return float(out) if np.ndim(out) == 0 else out


def reflection_resonance(x, q, beta):
    """The resonant term 4*beta*Q*x / ((2*Q*x)^2 + (1 - beta^2)) of the
    reflection phase, tan(arg S11) of the bare resonator at fractional
    detuning ``x``.

    Built in place from two temporaries, with the formula's operations: the
    augmented operators keep numpy's ``square`` for arrays and ``pow`` for
    scalars, as ``**`` does."""
    qd = q * x
    den = 2.0 * qd
    den **= 2
    den += 1.0 - beta**2
    qd *= 4.0 * beta
    qd /= den
    return qd


def add_phase_background(resonance, x, k, phi0):
    """The reflection phase: the resonant term ``resonance`` at fractional
    detuning ``x`` plus the linear background k*x + phi0, summed in place
    (addition commutes bit for bit)."""
    out = k * x
    out += resonance
    out += phi0
    return out


def reflection_phase(cav: CavityParams, delta):
    """Reflection phase (rad) of a single-port resonator, in the tangent
    form tan(arg S11) of its resonant term (see the module docstring).

    ``delta`` is the probe-cavity *fractional* detuning (f - f_c)/f_c, the
    normalization in which Q*delta is dimensionless:

        phase = 4*beta*Q*delta / ((2*Q*delta)^2 + (1 - beta^2))
                + k*delta + phi0.

    With k = phi0 = 0 the response is odd in delta, has slope
    4*beta*Q/(1-beta^2) at delta = 0 and decays to zero far off resonance.
    """
    x = check_real(delta, "delta")
    out = add_phase_background(reflection_resonance(x, cav.q, cav.beta), x,
                               cav.k, cav.phi0)
    return float(out) if out.ndim == 0 else out


def optimized_phase_shift(p: OptimizedDeviceParams):
    """Maximum dispersive reflection-phase shift pi*Q*N*g^2/(omega_0*Delta) (rad)."""
    return math.pi * p.q * p.n_spins * p.g**2 / (p.omega_0 * p.delta)


@dataclass(frozen=True)
class PhotonBudget:
    flux: float               # required photon flux N/T2 (photons/s)
    avg_photons: float        # mean intracavity photon number
    rabi_from_photons: float  # g*sqrt(avg_photons) (Hz), reported for comparison


def photon_budget(p: OptimizedDeviceParams) -> PhotonBudget:
    """Microwave photon budget for readout at the spin projection limit.

    flux = N/T2; avg_photons = N*Q/(f_c*T2) with f_c ~ f_0 (the angular-
    frequency form 2*pi*N*Q/(omega_c*T2) with omega_c = 2*pi*f_c). The Rabi
    frequency g*sqrt(avg_photons) is reported alongside, not asserted against
    any external figure.
    """
    flux = p.n_spins / p.t2
    avg = p.n_spins * p.q / (p.omega_0 * p.t2)
    return PhotonBudget(flux, avg, p.g * math.sqrt(avg))
