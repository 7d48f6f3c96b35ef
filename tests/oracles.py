"""Independent verification oracles used by the test suite.

These deliberately avoid the production code paths: the Dawson oracle is a
high-precision power/asymptotic series in mpmath, and the PSD variance
oracle is the Parseval identity. The CSV oracle is the row-by-row writer
the block writer replaced: one cell at a time, one write per row. The rank
oracle is the fitter's SVD-only Jacobian rank check, which the Gram-matrix
screen in front of it must never contradict. The readout oracle is the
Monte-Carlo lock-in readout composed step by step, with the square wave
taken from the fractional phase and each reference computed where it is
used, as it was before the lock-in arrays were shared.
"""

import math

import mpmath
import numpy as np

from dispersive_readout import synthesize_phase_noise


def dawson_series(x, dps=150):
    """Dawson function by its Maclaurin series summed in high precision:
    D(x) = sum_n (-2)^n x^(2n+1) / (2n+1)!!."""
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        term = xm
        total = xm
        n = 0
        while abs(term) > mpmath.mpf(10) ** (-dps + 10) * max(abs(total), 1):
            n += 1
            term = term * (-2) * xm * xm / (2 * n + 1)
            total += term
            if n > 10000:
                raise RuntimeError("series did not converge")
        return float(total)


def dawson_asymptotic(x, n_terms=8):
    """Large-|x| expansion D(x) ~ sum_n (2n-1)!! / (2^(n+1) x^(2n+1))."""
    total = 0.0
    term = 1.0 / (2.0 * x)
    total += term
    for n in range(1, n_terms):
        term *= (2 * n - 1) / (2.0 * x * x)
        total += term
    return total


def white_noise_variance(level, fs):
    """Parseval: variance of a white phase-noise series with one-sided PSD
    ``level`` sampled at ``fs`` is level * fs / 2."""
    return level * fs / 2.0


def write_csv_rowwise(path, header, columns):
    """Reference CSV writer: header row, then each row's cells formatted one
    at a time as ``repr(float(cell))``, comma-joined, one LF-terminated
    write per row."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(columns[0])):
            fh.write(",".join(repr(float(c[i])) for c in columns) + "\n")


def jacobian_rank_defect(jac, rtol=1e-10):
    """The SVD-only rank check on a Jacobian: None when it is full rank,
    else the kind of defect ("non-finite", "no influence" for a zero
    column, "degenerate" when the column-normalized Jacobian's singular
    values have a ratio of at most ``rtol``)."""
    if not np.all(np.isfinite(jac)):
        return "non-finite"
    norms = np.linalg.norm(jac, axis=0)
    if np.any(norms == 0.0):
        return "no influence"
    svals = np.linalg.svd(jac / norms, compute_uv=False)
    if svals[-1] <= rtol * svals[0]:
        return "degenerate"
    return None


def square_wave_fmod(t, f_mod):
    """+1 where the fractional modulation phase (t*f_mod) % 1.0 is below a
    half, -1 elsewhere."""
    return np.where((t * f_mod) % 1.0 < 0.5, 1.0, -1.0)


def simulate_readout_reference(psd, cfg, signal_phase, seed):
    """(estimated_amplitude, noise_floor) of ``simulate_readout``: phase
    noise plus the square-wave signal, demodulated twice against the sine
    (the signal, then the unit square wave's gain) and once against the
    cosine after removing the coherent part."""
    noise = synthesize_phase_noise(psd, cfg.fs, cfg.n_samples, seed)
    t = np.arange(cfg.n_samples) / cfg.fs
    unit_sq = square_wave_fmod(t, cfg.f_mod)
    total = noise + signal_phase * unit_sq
    est = 2.0 * float(np.mean(total * np.sin(2.0 * math.pi * cfg.f_mod * t)))
    sq_gain = 2.0 * float(np.mean(unit_sq * np.sin(2.0 * math.pi * cfg.f_mod * t)))
    residual = total - (est / sq_gain) * unit_sq
    quad = 2.0 * float(np.mean(residual * np.cos(2.0 * math.pi * cfg.f_mod * t)))
    return est, quad * math.sqrt(cfg.duration)
