"""Acceptance suite: end-to-end checks of the published/derived target
values, each printed as a single PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math

import numpy as np
import pytest
from oracles import ensemble_shift_oracle

from dispersive_readout import (
    CavityParams,
    ChopperCycle,
    LockinConfig,
    OptimizedDeviceParams,
    PhaseNoisePSD,
    PSDSegment,
    SpinEnsembleParams,
    ensemble_dispersive_shift,
    fit_exponential,
    fit_reflection_phase,
    fit_shift_vs_field,
    lockin_demodulate,
    optimized_phase_shift,
    photon_budget,
    polarization_trace,
    sensitivity,
    shot_noise_limit,
    simulate_readout,
    square_wave,
    synthesize_phase_noise,
    psd_value,
)
from dispersive_readout.fitting import reflection_phase_model, shift_vs_field_model


def report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}  {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


MEASURED_ENSEMBLE = SpinEnsembleParams(
    n_spins=2.0e12, g=2.4e-2, t2_star=18e-9, t1_dark=740e-6, t1_light=427e-6
)
MEASURED_CAVITY = CavityParams(omega_c=2.8175e9, q=6.0e3, beta=0.74)


def test_criterion_1_optimized_phase_shift():
    """Maximum dispersive phase for the optimized device: 2.83 rad
    (commonly rounded to 3 rad)."""
    value = optimized_phase_shift(OptimizedDeviceParams())
    report(1, abs(value - 2.83) <= 0.01, f"phase = {value:.4f} rad")


def test_criterion_2_reflection_phase_round_trip():
    model = reflection_phase_model()
    q_true, beta_true = 6.0e3, 0.74
    half_width = math.sqrt(1 - beta_true**2) / (2 * q_true)
    x = np.linspace(-10 * half_width, 10 * half_width, 401)
    y = model.func([q_true, beta_true, 0.0, 0.0], x)

    rng = np.random.default_rng(101)
    perturb = lambda v: v * rng.uniform(0.8, 1.2)
    res = fit_reflection_phase(
        x, y, init={"q": perturb(q_true), "beta": perturb(beta_true)}
    )
    noiseless_ok = (
        abs(res["q"] / q_true - 1) < 1e-4 and abs(res["beta"] / beta_true - 1) < 1e-4
    )

    peak = np.max(np.abs(y))
    q_err, b_err = [], []
    for _ in range(100):
        noisy = y + rng.normal(0, 0.01 * peak, size=len(y))
        r = fit_reflection_phase(
            x, noisy, init={"q": perturb(q_true), "beta": perturb(beta_true)}
        )
        q_err.append(r["q"] / q_true - 1)
        b_err.append(r["beta"] / beta_true - 1)
    q_rms = float(np.sqrt(np.mean(np.square(q_err))))
    b_rms = float(np.sqrt(np.mean(np.square(b_err))))
    report(
        2,
        noiseless_ok and q_rms < 0.02 and b_rms < 0.08,
        f"noiseless ok = {noiseless_ok}, Q rms err = {q_rms:.4f}, "
        f"beta rms err = {b_rms:.4f}",
    )


def test_criterion_3_relaxation_round_trip():
    cycle = ChopperCycle(period=4e-3, duty=0.5, n_periods=6, dt=2e-6)
    trace = polarization_trace(cycle, MEASURED_ENSEMBLE)
    per = int(round(cycle.period / cycle.dt))
    half = per // 2
    last = trace.p[5 * per:6 * per]
    t = trace.times[:half]

    on = fit_exponential(t, last[:half],
                         init={"amplitude": -0.5, "tau": 3e-4, "offset": 1.0})
    off = fit_exponential(t, last[half:],
                          init={"amplitude": 0.5, "tau": 1e-3, "offset": 0.0})
    err_on = abs(on["tau"] / 427e-6 - 1)
    err_off = abs(off["tau"] / 740e-6 - 1)
    report(
        3,
        err_on < 5e-3 and err_off < 5e-3,
        f"T1(light) err = {err_on:.2e}, T1(dark) err = {err_off:.2e}",
    )


def test_criterion_4_shift_vs_field_round_trip():
    n_true, t2_true = 2.0e12, 18e-9
    b = np.linspace(28, 38.5, 106)
    model = shift_vs_field_model(MEASURED_ENSEMBLE, MEASURED_CAVITY)
    y = model.func([n_true, t2_true], b)
    fixed = {"ensemble": MEASURED_ENSEMBLE, "cavity": MEASURED_CAVITY}

    rng = np.random.default_rng(202)
    perturb = lambda v: v * rng.uniform(0.8, 1.2)
    res = fit_shift_vs_field(
        b, y, fixed, init={"n_spins": perturb(n_true), "t2_star": perturb(t2_true)}
    )
    noiseless_ok = (
        abs(res["n_spins"] / n_true - 1) < 1e-4
        and abs(res["t2_star"] / t2_true - 1) < 1e-4
    )

    peak = np.max(np.abs(y))
    n_err, t_err = [], []
    for _ in range(100):
        noisy = y + rng.normal(0, 0.01 * peak, size=len(y))
        r = fit_shift_vs_field(
            b, noisy, fixed,
            init={"n_spins": perturb(n_true), "t2_star": perturb(t2_true)},
        )
        n_err.append(r["n_spins"] / n_true - 1)
        t_err.append(r["t2_star"] / t2_true - 1)
    n_rms = float(np.sqrt(np.mean(np.square(n_err))))
    t_rms = float(np.sqrt(np.mean(np.square(t_err))))
    report(
        4,
        noiseless_ok and n_rms < 0.05 and t_rms < 0.06,
        f"noiseless ok = {noiseless_ok}, N rms err = {n_rms:.4f}, "
        f"T2* rms err = {t_rms:.4f}",
    )


def test_criterion_5_oracle_equivalence_and_asymptote():
    rng = np.random.default_rng(303)
    omega_c = 2.8175e9
    worst = 0.0
    for _ in range(1000):
        sigma = 10 ** rng.uniform(4, 8)
        t2_star = 1.0 / (2 * math.pi * sigma)
        ens = SpinEnsembleParams(
            n_spins=10 ** rng.uniform(6, 14), g=10 ** rng.uniform(-3, 0),
            t2_star=t2_star, t1_dark=1e-3, t1_light=1e-3,
        )
        delta = 10 ** rng.uniform(3, 9) * rng.choice([-1, 1])
        closed = ensemble_dispersive_shift(ens, omega_c, omega_c - delta, 1.0)
        oracle = ensemble_shift_oracle(ens, omega_c, omega_c - delta, 1.0,
                                       n_grid=200_000)
        worst = max(worst, abs(oracle - closed) / max(abs(closed), 1e-30))

    # asymptotic narrow-line limit
    asym_ok = True
    sigma = MEASURED_ENSEMBLE.sigma_f
    for mult in (20, 50, 200):
        delta = mult * sigma
        shift = ensemble_dispersive_shift(
            MEASURED_ENSEMBLE, omega_c, omega_c - delta, 1.0
        )
        limit = MEASURED_ENSEMBLE.n_spins * MEASURED_ENSEMBLE.g**2 / delta
        asym_ok &= abs(shift - limit) / abs(limit) < 0.01
    report(
        5,
        worst < 1e-6 and asym_ok,
        f"worst closed/oracle rel err = {worst:.2e}, asymptote ok = {asym_ok}",
    )


def test_criterion_6_sensitivity_chain():
    p = OptimizedDeviceParams()
    eta = sensitivity(p, 1e-6)
    lim = shot_noise_limit(p.n_spins, p.t2)
    point_ok = (
        abs(eta / 2.0e-15 - 1) < 0.01
        and abs(lim.eta_spin / 1.8e-17 - 1) < 0.01
        and lim.optical_estimate == 150 * lim.eta_spin
    )

    # Monte-Carlo white-noise floor against the analytic density
    level = 1e-6
    psd = PhaseNoisePSD((PSDSegment(1.0, 0.0, level),), 0.1, 5e5)
    cfg = LockinConfig(f_mod=1e4, fs=1e6, duration=1e-2)
    ests, floors = [], []
    for seed in range(100):
        out = simulate_readout(p, psd, cfg, 0.01, seed)
        ests.append(out.estimated_amplitude)
        floors.append(out.noise_floor)
    gain = lockin_demodulate(square_wave(cfg), cfg)
    mean_est = float(np.mean(ests))
    spread = float(np.std(ests)) / math.sqrt(len(ests))
    mean_ok = abs(mean_est - gain * 0.01) < 3 * spread
    mc_floor = float(np.sqrt(np.mean(np.square(floors))))
    floor_ok = abs(mc_floor / math.sqrt(level) - 1) < 0.25
    report(
        6,
        point_ok and mean_ok and floor_ok,
        f"eta = {eta:.3e}, shot = {lim.eta_spin:.3e}, "
        f"MC floor/sqrt(S) = {mc_floor / math.sqrt(level):.3f}",
    )


@pytest.mark.parametrize("exponent", [0.0, -1.0, -3.0])
def test_criterion_7_noise_synthesis_fidelity(exponent):
    fs, n = 1e6, 2**14
    f0 = fs / n
    psd = PhaseNoisePSD((PSDSegment(f0, exponent, 1e-6),), f0 / 2, fs / 2)
    acc = np.zeros(n // 2 + 1)
    for seed in range(100):
        x = synthesize_phase_noise(psd, fs, n, seed)
        acc += 2.0 * np.abs(np.fft.rfft(x)) ** 2 / (fs * n)
    periodogram = acc / 100
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    target = psd_value(psd, np.clip(freqs, psd.f_min, psd.f_max))
    worst = 0.0
    f_lo = 8 * f0
    while f_lo < fs / 4:
        band = (freqs >= f_lo) & (freqs < 2 * f_lo)
        ratio = np.mean(periodogram[band]) / np.mean(target[band])
        worst = max(worst, abs(ratio - 1))
        f_lo *= 2
    report(7, worst < 0.10,
           f"exponent {exponent}: worst octave deviation = {worst:.3f}")


def test_criterion_8_photon_budget():
    b = photon_budget(OptimizedDeviceParams())
    ok = (
        b.flux == pytest.approx(1e17, rel=1e-12, abs=0)
        and b.avg_photons == pytest.approx(1.0e11, rel=1e-12, abs=0)
    )
    report(
        8, ok,
        f"flux = {b.flux:.3e}/s, n_avg = {b.avg_photons:.3e} "
        f"(Rabi {b.rabi_from_photons:.3e} Hz reported, not asserted)",
    )


def test_criterion_9_property_suites():
    # delegated: the property suites live in test_properties.py and the
    # per-module tests; here we spot-check the headline invariants directly.
    ens = MEASURED_ENSEMBLE
    odd = all(
        ensemble_dispersive_shift(ens, d, 0.0, 1.0)
        == -ensemble_dispersive_shift(ens, -d, 0.0, 1.0)
        for d in (1e3, 1e6, 1e9)
    )
    ref = ensemble_dispersive_shift(ens, 2.82e9, 2.80e9, 1.0)
    linear = ensemble_dispersive_shift(ens, 2.82e9, 2.80e9, 0.5) == pytest.approx(
        0.5 * ref, rel=1e-12, abs=0
    )
    cfg = LockinConfig(f_mod=1e3, fs=1e5, duration=1e-2)
    t = np.arange(cfg.n_samples) / cfg.fs
    ortho = abs(lockin_demodulate(np.sin(2 * math.pi * 3e3 * t), cfg)) < 1e-10
    psd = PhaseNoisePSD((PSDSegment(1.0, 0.0, 1e-8),), 0.1, 5e4)
    det = np.array_equal(
        synthesize_phase_noise(psd, 1e5, 1024, 7),
        synthesize_phase_noise(psd, 1e5, 1024, 7),
    )
    report(9, odd and linear and ortho and det,
           f"odd = {odd}, linear = {linear}, ortho = {ortho}, determinism = {det}")


def test_criterion_10_phase_contrast_order_of_magnitude():
    """Simulated maximum phase contrast within a factor of 3 of the measured
    2 mrad (achieved polarization fraction unknown)."""
    b = np.linspace(28, 38.5, 500)
    model = shift_vs_field_model(MEASURED_ENSEMBLE, MEASURED_CAVITY)
    peak = float(np.max(np.abs(model.func([2.0e12, 18e-9], b))))
    ok = 2e-3 / 3 < peak < 2e-3 * 3
    report("2mrad", ok, f"simulated peak = {peak * 1e3:.2f} mrad")
