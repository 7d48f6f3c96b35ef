"""Independent verification oracles used by the test suite.

These deliberately avoid the production code paths: the Dawson oracle is a
high-precision power/asymptotic series in mpmath, and the PSD variance
oracle is the Parseval identity. The CSV oracle is the row-by-row writer
the block writer replaced: one cell at a time, one write per row. The rank
oracle is the fitter's SVD-only Jacobian rank check, which the Gram-matrix
screen in front of it must never contradict. The readout oracle is the
Monte-Carlo lock-in readout composed step by step, with the square wave
taken from the fractional phase and each reference computed where it is
used, as it was before the lock-in arrays were shared; its phase noise is
the synthesis oracle's, which evaluates the PSD and the shaping gain
inline on every call, as the program did before it kept the gain. The
one-bin readout oracle takes no FFT-shaped noise at all: a record of whole
periods puts f_mod in one DFT bin, so the readout is the shaping gain at
f_mod times that bin of the unit white noise, plus the square wave's bin
times the signal. The ensemble
oracle is the principal-value quadrature of the Gaussian-broadened
dispersive shift, which the closed-form Dawson expression must reproduce.
The arctangent oracle is the exact phase of S11, whose tangent the
reflection-phase model computes. The polarization oracle is the chopped
trace with each relaxation law written out at both places it is used.
The reflection-phase, exponential, shift-vs-field and phase-trace oracles
are the formulas as the fitting models and the phase trace wrote them
inline before they evaluated the shared physics kernels and reused their
costly parts; the nonlinear trace maps each sample through the full
reflection phase, as the trace once could. The fit oracle is the
Levenberg-Marquardt loop written plainly: a fresh Jacobian for every
iteration, each column computed in one expression, no buffers and no
reused model parts.
"""

import math

import mpmath
import numpy as np
from scipy import special

from dispersive_readout import InvalidParameterError, SingularJacobianError


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
    values have a ratio of at most ``rtol``). Each column is divided by its
    largest |entry| first, so its norm cannot overflow."""
    if not np.all(np.isfinite(jac)):
        return "non-finite"
    peaks = np.abs(jac).max(axis=0)
    if np.any(peaks == 0.0):
        return "no influence"
    unit = jac / peaks
    svals = np.linalg.svd(unit / np.linalg.norm(unit, axis=0), compute_uv=False)
    if svals[-1] <= rtol * svals[0]:
        return "degenerate"
    return None


def square_wave_fmod(t, f_mod):
    """+1 where the fractional modulation phase (t*f_mod) % 1.0 is below a
    half, -1 elsewhere."""
    return np.where((t * f_mod) % 1.0 < 0.5, 1.0, -1.0)


def synthesize_phase_noise_reference(psd, fs, n_samples, seed):
    """``synthesize_phase_noise`` composed step by step: the real FFT of
    seeded unit white noise, scaled bin by bin by sqrt(S_phi(f) * fs / 2)
    with S_phi's power law evaluated here at the clamped bin frequencies,
    the DC bin zeroed, inverted."""
    rng = np.random.default_rng(seed)
    spectrum = np.fft.rfft(rng.standard_normal(n_samples))
    f = np.clip(np.fft.rfftfreq(n_samples, d=1.0 / fs), psd.f_min, psd.f_max)
    breaks = np.array([s.f_break for s in psd.segments])
    levels = np.array([s.level for s in psd.segments])
    exponents = np.array([s.exponent for s in psd.segments])
    i = np.clip(np.searchsorted(breaks, f, side="right") - 1, 0, len(breaks) - 1)
    s_phi = levels[i] * (f / breaks[i]) ** exponents[i]
    spectrum = spectrum * np.sqrt(s_phi * fs / 2.0)
    spectrum[0] = 0.0
    return np.fft.irfft(spectrum, n=n_samples)


def simulate_readout_reference(psd, cfg, signal_phase, seed):
    """(estimated_amplitude, noise_floor) of ``simulate_readout``: phase
    noise plus the square-wave signal, demodulated twice against the sine
    (the signal, then the unit square wave's gain) and once against the
    cosine after removing the coherent part."""
    noise = synthesize_phase_noise_reference(psd, cfg.fs, cfg.n_samples, seed)
    t = np.arange(cfg.n_samples) / cfg.fs
    unit_sq = square_wave_fmod(t, cfg.f_mod)
    total = noise + signal_phase * unit_sq
    est = 2.0 * float(np.mean(total * np.sin(2.0 * math.pi * cfg.f_mod * t)))
    sq_gain = 2.0 * float(np.mean(unit_sq * np.sin(2.0 * math.pi * cfg.f_mod * t)))
    residual = total - (est / sq_gain) * unit_sq
    quad = 2.0 * float(np.mean(residual * np.cos(2.0 * math.pi * cfg.f_mod * t)))
    return est, quad * math.sqrt(cfg.duration)


def psd_at(psd, f):
    """S_phi at the scalar frequency ``f``, clamped to the PSD's band: the
    power law of the segment whose break is the last one at or below it."""
    f = min(max(f, psd.f_min), psd.f_max)
    segment = ([s for s in psd.segments if s.f_break <= f] or psd.segments[:1])[-1]
    return segment.level * (f / segment.f_break) ** segment.exponent


def lockin_bin(x, cfg):
    """(in-phase, quadrature) lock-in outputs 2*mean(x*sin), 2*mean(x*cos)
    of a record that holds whole modulation periods, read from its one DFT
    bin k0 = f_mod*n/fs: -2*Im X[k0]/n and 2*Re X[k0]/n."""
    n = len(x)
    k0 = round(cfg.f_mod * n / cfg.fs)
    assert abs(k0 - cfg.f_mod * n / cfg.fs) < 1e-6 * k0, "not one DFT bin"
    bin_k0 = np.fft.rfft(x)[k0]
    return -2.0 * bin_k0.imag / n, 2.0 * bin_k0.real / n


def square_wave_bin(cfg):
    """(sq_gain, c_sq): the lock-in bin of the unit square wave."""
    t = np.arange(cfg.n_samples) / cfg.fs
    return lockin_bin(square_wave_fmod(t, cfg.f_mod), cfg)


def simulate_readout_one_bin(psd, cfg, signal_phase, seed):
    """(estimated_amplitude, noise_floor) of ``simulate_readout`` from the
    one DFT bin the lock-in reads, for a record of whole periods. The noise
    is unit white noise x shaped bin by bin, so its lock-in outputs are the
    gain G = sqrt(S_phi(f_mod)*fs/2) times x's, (d_sin, d_cos). With the
    square wave's (sq_gain, c_sq), est = G*d_sin + signal_phase*sq_gain,
    and removing est/sq_gain square waves leaves the quadrature
    G*(d_cos - d_sin*c_sq/sq_gain), times sqrt(duration) for the floor."""
    x = np.random.default_rng(seed).standard_normal(cfg.n_samples)
    d_sin, d_cos = lockin_bin(x, cfg)
    gain = math.sqrt(psd_at(psd, cfg.f_mod) * cfg.fs / 2.0)
    sq_gain, c_sq = square_wave_bin(cfg)
    est = gain * d_sin + signal_phase * sq_gain
    floor = math.sqrt(cfg.duration) * gain * (d_cos - d_sin * c_sq / sq_gain)
    return est, floor


def ensemble_shift_oracle(ens, omega_c, mean_omega0, polarization,
                          n_grid=1_000_000):
    """Ensemble shift by direct principal-value quadrature.

    Midpoint rule on a grid symmetric about the pole at omega0 = omega_c,
    summing paired +/- offsets so the singular contributions cancel exactly.
    The grid spans the Gaussian out to mean +/- 8 sigma. Converges to
    ``ensemble_dispersive_shift`` as n_grid grows.
    """
    if n_grid < 1000:
        raise InvalidParameterError("n_grid must be >= 1000")
    sigma = 1.0 / (2.0 * math.pi * ens.t2_star)  # Gaussian linewidth (Hz)
    delta = float(omega_c) - float(mean_omega0)
    half_width = abs(delta) + 8.0 * sigma
    n_half = n_grid // 2
    h = half_width / n_half
    u = (np.arange(n_half) + 0.5) * h
    # density of omega0, evaluated at omega_c -/+ u; pole terms pair as
    # [rho(omega_c - u) - rho(omega_c + u)] / u
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)
    rho_minus = norm * np.exp(-0.5 * ((delta - u) / sigma) ** 2)
    rho_plus = norm * np.exp(-0.5 * ((delta + u) / sigma) ** 2)
    integral = float(np.sum((rho_minus - rho_plus) / u) * h)
    return polarization * ens.n_spins * ens.g**2 * integral


def reflection_phase_inline(params, x):
    """arg(S11) at fractional detuning ``x`` for params (q, beta, k, phi0),
    written out in one expression."""
    q, beta, k, phi0 = params
    qd = q * x
    return 4.0 * beta * qd / ((2.0 * qd) ** 2 + (1.0 - beta**2)) + k * x + phi0


def reflection_phase_arctan(q, beta, x):
    """arg(S11) (rad) of the bare resonator at fractional detuning ``x``,
    as the difference of the two arctangents of its pole and zero:
    atan(2Qx/(1 - beta)) - atan(2Qx/(1 + beta)). Its tangent is the
    resonant term of ``reflection_phase_inline``."""
    u = 2.0 * q * np.asarray(x, dtype=float)
    return np.arctan(u / (1.0 - beta)) - np.arctan(u / (1.0 + beta))


def exponential_inline(params, t):
    """amplitude * exp(-t/tau) + offset for params (amplitude, tau, offset),
    written out in one expression."""
    amplitude, tau, offset = params
    return amplitude * np.exp(-np.asarray(t, float) / tau) + offset


def shift_vs_field_inline(ens, cav, polarization=1.0):
    """The linearized phase vs field b as a model of (n_spins, t2_star): the
    Zeeman line, the Dawson pull and the slope (4*beta*Q/(1-beta^2) + k)/f_c
    written out in place."""
    slope = (4.0 * cav.beta * cav.q / (1.0 - cav.beta**2) + cav.k) / cav.omega_c

    def func(params, b):
        n_spins, t2_star = params
        sigma = 1.0 / (2.0 * math.pi * t2_star)
        omega0 = ens.zfs - ens.gamma * ens.projection_factor * np.asarray(b, float)
        delta = cav.omega_c - omega0
        shift = (
            polarization * n_spins * ens.g**2 * (math.sqrt(2.0) / sigma)
            * special.dawsn(delta / (math.sqrt(2.0) * sigma))
        )
        return slope * shift

    return func


def polarization_trace_inline(cycle, ens, p_sat=1.0):
    """(times, p) of ``polarization_trace`` with each relaxation law written
    out where it is used: once per period for the segment ends, once per
    sample for the trace."""
    n = int(round(cycle.n_periods * cycle.period / cycle.dt))
    times = np.arange(n) * cycle.dt
    p = np.empty(n)
    t_on = cycle.duty * cycle.period
    in_period = times % cycle.period
    period_idx = np.minimum((times // cycle.period).astype(int), cycle.n_periods - 1)
    p_period = np.empty(cycle.n_periods)
    p_dark = np.empty(cycle.n_periods)
    p0 = 0.0
    for i in range(cycle.n_periods):
        p_period[i] = p0
        p_end_on = p_sat + (p0 - p_sat) * np.exp(-t_on / ens.t1_light)
        p_dark[i] = p_end_on
        p0 = p_end_on * np.exp(-(cycle.period - t_on) / ens.t1_dark)
    on = in_period < t_on
    p[on] = p_sat + (p_period[period_idx[on]] - p_sat) * np.exp(
        -in_period[on] / ens.t1_light)
    off = ~on
    p[off] = p_dark[period_idx[off]] * np.exp(-(in_period[off] - t_on) / ens.t1_dark)
    return times, np.clip(p, 0.0, 1.0)


def _dawson_pull(p, ens, cav, b_field):
    """Cavity pull (Hz) of the ensemble at polarizations ``p``, field
    ``b_field``."""
    omega0 = ens.zfs - ens.gamma * ens.projection_factor * b_field
    sigma = 1.0 / (2.0 * math.pi * ens.t2_star)  # Gaussian linewidth (Hz)
    return (
        np.asarray(p, float) * ens.n_spins * ens.g**2 * (math.sqrt(2.0) / sigma)
        * special.dawsn((cav.omega_c - omega0) / (math.sqrt(2.0) * sigma))
    )


def phase_trace_linearized(p, ens, cav, b_field):
    """Phase trace through the small-shift slope 4*beta*Q/(1-beta^2) + k,
    without offset subtraction."""
    slope = 4.0 * cav.beta * cav.q / (1.0 - cav.beta**2) + cav.k
    return slope * (_dawson_pull(p, ens, cav, b_field) / cav.omega_c) + cav.phi0


def phase_trace_nonlinear(p, ens, cav, b_field):
    """Offset-subtracted phase trace through the full reflection phase: the
    pull of each polarization sample, as a fractional detuning, mapped
    through ``reflection_phase_inline``."""
    phase = reflection_phase_inline((cav.q, cav.beta, cav.k, cav.phi0),
                                    _dawson_pull(p, ens, cav, b_field) / cav.omega_c)
    return phase - np.mean(phase)


def fit_nonlinear_reference(func, bounds, x, y, start, max_iterations=200):
    """(params, sigma, covariance, chi2_reduced, converged, n_iterations) of
    the damped Gauss-Newton fit of ``func(params, x)`` to ``y`` from the
    start vector ``start``, with per-parameter (lo, hi) ``bounds`` (None for
    an open side). Central-difference steps of max(1e-6*|p|, 1e-12); a
    rank-deficient Jacobian raises SingularJacobianError."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.array(start, dtype=float)
    lo = np.array([-np.inf if a is None else a for a, _ in bounds])
    hi = np.array([np.inf if b is None else b for _, b in bounds])

    def residuals(params):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return y - func(params, x)

    def jacobian(params):
        jac = np.empty((len(x), len(params)))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i in range(len(params)):
                step = max(1e-6 * abs(params[i]), 1e-12)
                p_hi = params.copy()
                p_lo = params.copy()
                p_hi[i] += step
                p_lo[i] -= step
                jac[:, i] = (func(p_hi, x) - func(p_lo, x)) / (2.0 * step)
        return jac

    r = residuals(p)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iterations + 1):
        jac = jacobian(p)
        defect = jacobian_rank_defect(jac)
        if defect is not None:
            raise SingularJacobianError(defect)
        jtj = jac.T @ jac
        grad = jac.T @ r
        diag = np.diag(np.diag(jtj))
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(jtj + lam * diag, grad)
            except np.linalg.LinAlgError:
                lam *= 5.0
                continue
            p_new = np.clip(p + step, lo, hi)
            r_new = residuals(p_new)
            cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                accepted = True
                break
            lam *= 5.0
        if not accepted:
            break
        rel_step = np.linalg.norm(p_new - p) / max(np.linalg.norm(p), 1e-300)
        rel_dcost = (cost - cost_new) / max(cost, 1e-300)
        p, r, cost = p_new, r_new, cost_new
        lam = max(lam / 3.0, 1e-14)
        if rel_dcost < 1e-10 or rel_step < 1e-10:
            converged = True
            break

    jac = jacobian(p)
    chi2_reduced = cost / max(len(y) - len(p), 1)
    try:
        if not np.all(np.isfinite(jac)):
            raise np.linalg.LinAlgError("non-finite Jacobian")
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        cov = np.full((len(p), len(p)), np.nan)
    cov = cov * chi2_reduced
    sigma = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return p, sigma, cov, chi2_reduced, converged, n_iter
