"""Colored phase-noise synthesis, lock-in demodulation and sensitivity
estimates for the dispersive readout chain.

Between calls the module keeps, read-only, what does not depend on the
seed, each for the last arguments only: one lock-in record per
``LockinConfig`` (the sine and cosine references and the unit square wave,
three float64 arrays of ``n_samples``, and the square wave's lock-in gain, a
float; see ``_references``), and one noise-shaping gain per (PSD, fs,
n_samples), a float64 array of ``n_samples//2 + 1`` (see ``_shaping_gain``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .params import (
    LockinConfig,
    OptimizedDeviceParams,
    PhaseNoisePSD,
    check_count,
    check_positive,
    check_samples,
    check_seed,
    is_finite_number,
)
from .physics import check_real, optimized_phase_shift

HBAR = 1.054571817e-34      # J s
MU_B = 9.2740100783e-24     # J/T
G_LANDE = 2.0028            # NV electron Lande factor


def psd_value(psd: PhaseNoisePSD, f):
    """One-sided phase-noise PSD S_phi(f) in rad^2/Hz.

    Piecewise power-law evaluation; InvalidParameterError outside [f_min,
    f_max], NaN too.
    """
    farr = check_real(f, "f")
    ok = (farr >= psd.f_min * (1 - 1e-12)) & (farr <= psd.f_max * (1 + 1e-12))
    if not np.all(ok):
        raise InvalidParameterError(
            f"frequency outside PSD range [{psd.f_min}, {psd.f_max}] Hz")
    breaks, levels, exponents = np.array(
        [(s.f_break, s.level, s.exponent) for s in psd.segments]).T
    idx = np.clip(np.searchsorted(breaks, farr, side="right") - 1, 0, len(breaks) - 1)
    out = levels[idx] * (farr / breaks[idx]) ** exponents[idx]
    return float(out) if out.ndim == 0 else out


def synthesize_phase_noise(psd: PhaseNoisePSD, fs, n_samples, seed):
    """Gaussian time series (rad) whose one-sided PSD matches ``psd``.

    Spectral shaping: the real FFT of unit white noise is scaled by
    sqrt(S_phi(f) * fs / 2) bin by bin and inverted; the DC bin is zeroed.
    Frequencies outside [f_min, f_max] (only possible below f_min, since
    fs/2 <= f_max is required) are clamped to the nearest band edge.
    Deterministic per seed. ``fs`` is taken as a Python float, so a rate of
    any numeric type equal to it gives the same bits. The noise is drawn on
    every call; the shaping gain is kept (see the module docstring). A rate
    that is not finite and > 0, an ``n_samples`` that is not a count one
    array can hold, or a ``seed`` that ``check_seed`` rejects, raises
    InvalidParameterError before any allocation.
    """
    fs = check_positive(fs, "fs")
    check_count(n_samples, "n_samples")
    check_samples(n_samples, "n_samples")
    check_seed(seed, "seed")
    if fs / 2 > psd.f_max * (1 + 1e-12):
        raise InvalidParameterError(
            f"Nyquist fs/2 = {fs / 2} exceeds PSD f_max = {psd.f_max}"
        )
    rng = np.random.default_rng(seed)
    spectrum = np.fft.rfft(rng.standard_normal(n_samples))
    spectrum *= _shaping_gain(psd, fs, n_samples)
    spectrum[0] = 0.0
    return np.fft.irfft(spectrum, n=n_samples)


@functools.lru_cache(maxsize=1)
def _shaping_gain(psd: PhaseNoisePSD, fs, n_samples):
    """The shaping gain sqrt(S_phi(f) * fs / 2) on the ``n_samples//2 + 1``
    bins of a real FFT at rate ``fs``, read-only."""
    freqs = np.clip(np.fft.rfftfreq(n_samples, d=1.0 / fs), psd.f_min, psd.f_max)
    gain = np.sqrt(psd_value(psd, freqs) * fs / 2.0)
    gain.flags.writeable = False
    return gain


def _unit_square(cfg: LockinConfig, t):
    """+1 where floor(2*f_mod*t) is even (first half of a modulation period),
    -1 where it is odd. For t >= 0 this equals the test (t*f_mod) % 1.0 < 0.5
    bit for bit: doubling, floor and the remainder are all exact."""
    odd_half = np.floor(t * cfg.f_mod * 2.0).astype(np.int64) & 1
    return np.where(odd_half, -1.0, 1.0)


def _demodulate(x, ref):
    """Lock-in output 2*mean(x * ref)."""
    return 2.0 * float(np.mean(x * ref))


class _References(NamedTuple):
    sin: np.ndarray      # in-phase reference sin(2*pi*f_mod*t)
    cos: np.ndarray      # quadrature reference cos(2*pi*f_mod*t)
    unit_sq: np.ndarray  # unit square wave, +1 on each period's first half
    sq_gain: float       # its in-phase lock-in gain 2*mean(unit_sq * sin), ~4/pi


@functools.lru_cache(maxsize=1)
def _references(cfg: LockinConfig):
    """The lock-in record of ``cfg`` on the grid t = arange(n_samples)/fs,
    its arrays read-only."""
    t = np.arange(cfg.n_samples) / cfg.fs
    unit_sq = _unit_square(cfg, t)
    arg = t * (2.0 * math.pi * cfg.f_mod)
    sin, cos = np.sin(arg), np.cos(arg)
    for ref in (sin, cos, unit_sq):
        ref.flags.writeable = False
    return _References(sin, cos, unit_sq, _demodulate(unit_sq, sin))


def lockin_demodulate(signal, cfg: LockinConfig):
    """In-phase lock-in output 2*mean(signal * sin(2*pi*f_mod*t)).

    Returns A for an in-phase sinusoid of amplitude A and 4A/pi for an
    in-phase square wave of amplitude +/-A (fundamental Fourier coefficient);
    linear in the signal. A signal whose length is not ``cfg.n_samples``
    raises InvalidParameterError.
    """
    signal = check_real(signal, "signal")
    if signal.shape != (cfg.n_samples,):
        raise InvalidParameterError(
            f"signal length {signal.shape} does not match fs*duration = {cfg.n_samples}"
        )
    return _demodulate(signal, _references(cfg).sin)


def square_wave(cfg: LockinConfig, amplitude=1.0):
    """Unit-phase square wave at f_mod sampled on the lock-in grid: +A on the
    first half of each modulation period, -A on the second. An ``amplitude``
    that is not a finite number raises InvalidParameterError."""
    if not is_finite_number(amplitude):
        raise InvalidParameterError(f"amplitude must be a finite number, got {amplitude!r}")
    return _references(cfg).unit_sq * amplitude


def sensitivity(p: OptimizedDeviceParams, s_phi_sqrt):
    """Phase-noise-limited magnetic sensitivity (T/sqrt(Hz)).

    eta_B = hbar/(g_e*mu_B*T2) * (omega_0*Delta)/(pi*Q*g^2*N) * S_phi^(1/2),
    with the leading g the Lande factor and the squared g the spin-cavity
    coupling. S_phi^(1/2) is an amplitude spectral density (rad/sqrt(Hz))
    at the modulation frequency; an array gives one eta_B per element.
    """
    s = check_real(s_phi_sqrt, "s_phi_sqrt")
    if not np.all((s >= 0) & (s < np.inf)):
        raise InvalidParameterError("s_phi_sqrt must be finite and >= 0")
    out = HBAR / (G_LANDE * MU_B * p.t2) / optimized_phase_shift(p) * s
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ShotNoiseLimit:
    eta_spin: float          # spin projection noise limit (T/sqrt(Hz))
    optical_estimate: float  # 150x worse, typical optical-readout performance


def shot_noise_limit(n_spins, t2) -> ShotNoiseLimit:
    """Spin projection-noise sensitivity limit hbar/(g_e*mu_B*sqrt(N*T2))."""
    n_spins, t2 = check_positive(n_spins, "n_spins"), check_positive(t2, "t2")
    eta = HBAR / (G_LANDE * MU_B * math.sqrt(n_spins * t2))
    return ShotNoiseLimit(eta, 150.0 * eta)


@dataclass(frozen=True)
class ReadoutResult:
    estimated_amplitude: float  # demodulated in-phase amplitude (rad)
    noise_floor: float          # quadrature density estimate (rad/sqrt(Hz))


def simulate_readout(p: OptimizedDeviceParams, psd: PhaseNoisePSD,
                     cfg: LockinConfig, signal_phase, seed) -> ReadoutResult:
    """End-to-end Monte-Carlo readout: synthesize phase noise, add a
    square-wave-modulated dispersive phase of amplitude ``signal_phase`` at
    f_mod, demodulate with the sine reference.

    ``estimated_amplitude`` is ~(4/pi)*signal_phase in the mean.
    ``noise_floor`` is a signed single-shot density estimate: the quadrature
    (cosine) demodulation of the record after removing the coherent
    square-wave component, scaled by sqrt(duration). Its rms over seeds
    estimates sqrt(S_phi(f_mod)); it is exactly zero for zero noise.
    """
    if not (is_finite_number(signal_phase) and abs(signal_phase) <= 0.1):
        raise InvalidParameterError(
            "signal_phase must be finite and at most 0.1 rad in magnitude, the "
            f"intended linear range, got {signal_phase!r}")
    noise = synthesize_phase_noise(psd, cfg.fs, cfg.n_samples, seed)
    noise += square_wave(cfg, signal_phase)  # the recorded total
    est = lockin_demodulate(noise, cfg)
    refs = _references(cfg)
    # remove the coherent component before estimating the quadrature density
    noise -= square_wave(cfg, est / refs.sq_gain)
    quad = _demodulate(noise, refs.cos)
    return ReadoutResult(est, quad * math.sqrt(cfg.duration))
