"""Colored phase-noise synthesis, lock-in demodulation and sensitivity
estimates for the dispersive readout chain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError
from .params import LockinConfig, OptimizedDeviceParams, PhaseNoisePSD
from .physics import optimized_phase_shift

HBAR = 1.054571817e-34      # J s
MU_B = 9.2740100783e-24     # J/T
G_LANDE = 2.0028            # NV electron Lande factor


def psd_value(psd: PhaseNoisePSD, f):
    """One-sided phase-noise PSD S_phi(f) in rad^2/Hz.

    Piecewise power-law evaluation; errors outside [f_min, f_max].
    """
    farr = np.asarray(f, dtype=float)
    if np.any((farr < psd.f_min * (1 - 1e-12)) | (farr > psd.f_max * (1 + 1e-12))):
        raise DomainError(
            f"frequency outside PSD range [{psd.f_min}, {psd.f_max}] Hz"
        )
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
    any numeric type equal to it gives the same bits. The gain is built once
    per (psd, fs, n_samples) and kept, read-only, until a call with other
    arguments (see ``_shaping_gain``); the noise is drawn on every call.
    """
    fs = float(fs)
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
    bins of a real FFT at rate ``fs``, read-only. Built once per arguments:
    the last call's float64 array stays in memory."""
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / fs)
    gain = psd_value(psd, np.clip(freqs, psd.f_min, psd.f_max, out=freqs))
    del freqs
    gain *= fs
    gain /= 2.0
    np.sqrt(gain, out=gain)
    gain.flags.writeable = False
    return gain


def _time_grid(cfg: LockinConfig):
    t = np.arange(cfg.n_samples, dtype=float)
    t /= cfg.fs
    return t


def _unit_square(cfg: LockinConfig, t, amplitude=1.0):
    """+A where floor(2*f_mod*t) is even (first half of a modulation period),
    -A where it is odd. For t >= 0 this equals the test (t*f_mod) % 1.0 < 0.5
    bit for bit: doubling, floor and the remainder are all exact."""
    half_periods = t * cfg.f_mod
    half_periods *= 2.0
    odd_half = np.floor(half_periods, out=half_periods).astype(np.int64)
    del half_periods
    odd_half &= 1
    return np.where(odd_half, -amplitude, amplitude)


def _demodulate(x, ref, out=None):
    """Lock-in output 2*mean(x * ref); the product goes to ``out`` if given."""
    return 2.0 * float(np.mean(np.multiply(x, ref, out=out)))


@functools.lru_cache(maxsize=1)
def _references(cfg: LockinConfig):
    """The sine (in-phase) and cosine (quadrature) references
    sin/cos(2*pi*f_mod*t) on the lock-in grid, read-only, and the unit
    square wave's in-phase lock-in gain 2*mean(unit_sq * sin) (~4/pi).
    Built once per config: the last config's pair stays in memory, two
    float64 arrays of ``n_samples``; the square wave built for the gain
    does not."""
    arg = _time_grid(cfg)
    unit_sq = _unit_square(cfg, arg)
    arg *= 2.0 * math.pi * cfg.f_mod
    sin = np.sin(arg)
    sq_gain = _demodulate(unit_sq, sin, out=unit_sq)
    del unit_sq
    cos = np.cos(arg, out=arg)
    sin.flags.writeable = False
    cos.flags.writeable = False
    return sin, cos, sq_gain


def lockin_demodulate(signal, cfg: LockinConfig):
    """In-phase lock-in output 2*mean(signal * sin(2*pi*f_mod*t)).

    Returns A for an in-phase sinusoid of amplitude A and 4A/pi for an
    in-phase square wave of amplitude +/-A (fundamental Fourier coefficient);
    linear in the signal. The sine reference is built once per ``cfg`` and
    kept, read-only, until a call with another config (see ``_references``);
    the product goes to a fresh array.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.shape != (cfg.n_samples,):
        raise ValueError(
            f"signal length {signal.shape} does not match fs*duration = {cfg.n_samples}"
        )
    return _demodulate(signal, _references(cfg)[0])


def square_wave(cfg: LockinConfig, amplitude=1.0):
    """Unit-phase square wave at f_mod sampled on the lock-in grid: +A on the
    first half of each modulation period, -A on the second."""
    return _unit_square(cfg, _time_grid(cfg), amplitude)


def sensitivity(p: OptimizedDeviceParams, s_phi_sqrt):
    """Phase-noise-limited magnetic sensitivity (T/sqrt(Hz)).

    eta_B = hbar/(g_e*mu_B*T2) * (omega_0*Delta)/(pi*Q*g^2*N) * S_phi^(1/2),
    with the leading g the Lande factor and the squared g the spin-cavity
    coupling. S_phi^(1/2) is an amplitude spectral density (rad/sqrt(Hz))
    at the modulation frequency; an array gives one eta_B per element.
    """
    return HBAR / (G_LANDE * MU_B * p.t2) / optimized_phase_shift(p) * s_phi_sqrt


@dataclass(frozen=True)
class ShotNoiseLimit:
    eta_spin: float          # spin projection noise limit (T/sqrt(Hz))
    optical_estimate: float  # 150x worse, typical optical-readout performance


def shot_noise_limit(n_spins, t2) -> ShotNoiseLimit:
    """Spin projection-noise sensitivity limit hbar/(g_e*mu_B*sqrt(N*T2))."""
    if not (n_spins > 0 and t2 > 0):
        raise InvalidParameterError("n_spins and t2 must be > 0")
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

    The sine and cosine references and the unit square wave's lock-in gain
    are built once per ``cfg``, and the noise-shaping gain once per
    (``psd``, ``cfg``), each kept, read-only, for the last arguments only:
    after a call, two float64 arrays of ``n_samples`` and one of
    ``n_samples//2 + 1`` stay in memory. The noise and the unit square wave
    are computed on every call.
    """
    if abs(signal_phase) > 0.1:
        raise InvalidParameterError(
            "signal_phase above 0.1 rad is outside the intended linear range"
        )
    noise = synthesize_phase_noise(psd, cfg.fs, cfg.n_samples, seed)
    sin, cos, sq_gain = _references(cfg)
    unit_sq = square_wave(cfg)
    # one product buffer serves every demodulation
    product = np.multiply(unit_sq, signal_phase)
    noise += product  # the recorded total: noise plus the modulated signal
    est = _demodulate(noise, sin, out=product)
    # remove the coherent component before estimating the quadrature density
    noise -= np.multiply(unit_sq, est / sq_gain, out=product)
    quad = _demodulate(noise, cos, out=product)
    return ReadoutResult(est, quad * math.sqrt(cfg.duration))
