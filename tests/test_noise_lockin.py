import math

import numpy as np
import pytest

from dispersive_readout import (
    DomainError,
    InvalidParameterError,
    LockinConfig,
    OptimizedDeviceParams,
    PhaseNoisePSD,
    PSDSegment,
    lockin_demodulate,
    psd_value,
    sensitivity,
    shot_noise_limit,
    simulate_readout,
    square_wave,
    synthesize_phase_noise,
)

from oracles import white_noise_variance


def white_psd(level=1e-6, f_max=5e5):
    return PhaseNoisePSD((PSDSegment(1.0, 0.0, level),), 0.1, f_max)


@pytest.fixture
def cfg():
    return LockinConfig(f_mod=1e4, fs=1e6, duration=1e-2)


class TestPsdValue:
    def test_white_segment_is_constant(self):
        psd = white_psd(3e-7)
        for f in (0.1, 1.0, 123.4, 5e5):
            assert psd_value(psd, f) == 3e-7

    def test_one_over_f_halves_per_doubling(self):
        psd = PhaseNoisePSD((PSDSegment(10.0, -1.0, 1e-6),), 1.0, 1e5)
        assert psd_value(psd, 200.0) == pytest.approx(psd_value(psd, 100.0) / 2,
                                                      rel=1e-12)

    def test_two_segment_continuity(self):
        psd = PhaseNoisePSD(
            (PSDSegment(1.0, -1.0, 1e-6), PSDSegment(100.0, 0.0, 1e-8)),
            0.5, 1e5,
        )
        eps = 1e-9
        assert psd_value(psd, 100.0 - eps) == pytest.approx(
            psd_value(psd, 100.0 + eps), rel=1e-9
        )

    def test_discontinuous_model_rejected(self):
        with pytest.raises(InvalidParameterError):
            PhaseNoisePSD(
                (PSDSegment(1.0, -1.0, 1e-6), PSDSegment(100.0, 0.0, 5e-8)),
                0.5, 1e5,
            )

    def test_out_of_range_rejected(self):
        psd = white_psd()
        with pytest.raises(DomainError):
            psd_value(psd, 1e7)


class TestSynthesis:
    def test_determinism(self):
        psd = white_psd()
        a = synthesize_phase_noise(psd, 1e6, 4096, seed=42)
        b = synthesize_phase_noise(psd, 1e6, 4096, seed=42)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        psd = white_psd()
        a = synthesize_phase_noise(psd, 1e6, 4096, seed=1)
        b = synthesize_phase_noise(psd, 1e6, 4096, seed=2)
        assert not np.array_equal(a, b)

    def test_vanishing_level_gives_vanishing_series(self):
        psd = white_psd(level=1e-40)
        x = synthesize_phase_noise(psd, 1e6, 4096, seed=0)
        assert np.max(np.abs(x)) < 1e-10

    def test_white_variance_matches_parseval(self):
        level, fs = 1e-6, 1e6
        psd = white_psd(level)
        var = np.mean(
            [
                np.var(synthesize_phase_noise(psd, fs, 8192, seed=s))
                for s in range(100)
            ]
        )
        assert var == pytest.approx(white_noise_variance(level, fs), rel=0.05)

    def test_nyquist_above_band_rejected(self):
        psd = white_psd(f_max=1e3)
        with pytest.raises(InvalidParameterError):
            synthesize_phase_noise(psd, 1e6, 1024, seed=0)

    @pytest.mark.parametrize("exponent", [0.0, -1.0, -3.0])
    def test_periodogram_matches_target_per_octave(self, exponent):
        fs, n = 1e6, 2**14
        f0 = fs / n  # anchor at the first bin so low octaves stay finite
        psd = PhaseNoisePSD((PSDSegment(f0, exponent, 1e-6),), f0 / 2, fs / 2)
        seeds = range(100)
        acc = np.zeros(n // 2 + 1)
        for s in seeds:
            x = synthesize_phase_noise(psd, fs, n, seed=s)
            spec = np.fft.rfft(x)
            acc += 2.0 * np.abs(spec) ** 2 / (fs * n)
        periodogram = acc / len(list(seeds))
        freqs = np.fft.rfftfreq(n, d=1.0 / fs)
        target = psd_value(psd, np.clip(freqs, psd.f_min, psd.f_max))
        # octave-averaged comparison, skipping DC and the sparse lowest octaves
        f_lo = 8 * f0
        while f_lo < fs / 4:
            band = (freqs >= f_lo) & (freqs < 2 * f_lo)
            ratio = np.mean(periodogram[band]) / np.mean(target[band])
            assert abs(ratio - 1) < 0.10, f"octave at {f_lo} Hz off by {ratio}"
            f_lo *= 2


class TestDemodulation:
    def test_in_phase_sine_returns_amplitude(self, cfg):
        t = np.arange(cfg.n_samples) / cfg.fs
        sig = 1.0 * np.sin(2 * math.pi * cfg.f_mod * t)
        assert lockin_demodulate(sig, cfg) == pytest.approx(1.0, abs=1e-10)

    def test_square_wave_returns_four_over_pi(self, cfg):
        out = lockin_demodulate(square_wave(cfg), cfg)
        assert out == pytest.approx(4 / math.pi, rel=1e-3)

    def test_third_harmonic_rejected(self, cfg):
        t = np.arange(cfg.n_samples) / cfg.fs
        sig = np.sin(2 * math.pi * 3 * cfg.f_mod * t)
        assert abs(lockin_demodulate(sig, cfg)) < 1e-10

    def test_linearity(self, cfg):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(cfg.n_samples)
        b = rng.standard_normal(cfg.n_samples)
        lhs = lockin_demodulate(2.0 * a + 3.0 * b, cfg)
        rhs = 2.0 * lockin_demodulate(a, cfg) + 3.0 * lockin_demodulate(b, cfg)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_length_mismatch_rejected(self, cfg):
        with pytest.raises(ValueError):
            lockin_demodulate(np.zeros(cfg.n_samples - 1), cfg)


class TestSensitivity:
    def test_optimized_device_point(self):
        eta = sensitivity(OptimizedDeviceParams(), 1e-6)
        assert eta == pytest.approx(2.0e-15, rel=0.01)

    def test_linear_in_noise_density(self):
        p = OptimizedDeviceParams()
        assert sensitivity(p, 2e-6) == pytest.approx(2 * sensitivity(p, 1e-6),
                                                     rel=1e-12)

    def test_inverse_in_n(self):
        p1 = OptimizedDeviceParams()
        p2 = OptimizedDeviceParams(n_spins=2e14)
        assert sensitivity(p2, 1e-6) == pytest.approx(sensitivity(p1, 1e-6) / 2,
                                                      rel=1e-12)

    def test_array_matches_elementwise(self):
        p = OptimizedDeviceParams()
        s = np.geomspace(1e-8, 1e-4, 37)
        assert np.array_equal(sensitivity(p, s), [sensitivity(p, v) for v in s])


class TestShotNoise:
    def test_optimized_device_point(self):
        lim = shot_noise_limit(1e14, 1e-3)
        assert lim.eta_spin == pytest.approx(1.8e-17, rel=0.01)
        assert lim.optical_estimate == pytest.approx(2.7e-15, rel=0.01)
        assert lim.optical_estimate == pytest.approx(150 * lim.eta_spin, rel=1e-12)

    def test_sqrt_scaling_in_n(self):
        assert shot_noise_limit(4e14, 1e-3).eta_spin == pytest.approx(
            shot_noise_limit(1e14, 1e-3).eta_spin / 2, rel=1e-12
        )


class TestSimulateReadout:
    def test_zero_noise_returns_square_wave_gain(self, cfg):
        psd = white_psd(level=1e-40)
        out = simulate_readout(OptimizedDeviceParams(), psd, cfg, 0.01, seed=0)
        gain = lockin_demodulate(square_wave(cfg), cfg)
        assert out.estimated_amplitude == pytest.approx(0.01 * gain, rel=1e-8)
        assert abs(out.noise_floor) < 1e-12

    def test_determinism(self, cfg):
        psd = white_psd()
        a = simulate_readout(OptimizedDeviceParams(), psd, cfg, 0.01, seed=5)
        b = simulate_readout(OptimizedDeviceParams(), psd, cfg, 0.01, seed=5)
        assert a == b

    def test_amplitude_std_scales_with_duration(self):
        psd = white_psd(level=1e-6)
        p = OptimizedDeviceParams()
        cfg1 = LockinConfig(f_mod=1e4, fs=1e6, duration=2e-3)
        cfg4 = LockinConfig(f_mod=1e4, fs=1e6, duration=8e-3)
        est1 = [simulate_readout(p, psd, cfg1, 0.01, seed=s).estimated_amplitude
                for s in range(100)]
        est4 = [simulate_readout(p, psd, cfg4, 0.01, seed=s).estimated_amplitude
                for s in range(100)]
        ratio = np.std(est4) / np.std(est1)
        assert ratio == pytest.approx(0.5, rel=0.20)

    def test_noise_floor_rms_estimates_psd(self, cfg):
        level = 1e-6
        psd = white_psd(level)
        p = OptimizedDeviceParams()
        floors = [simulate_readout(p, psd, cfg, 0.01, seed=s).noise_floor
                  for s in range(100)]
        rms = float(np.sqrt(np.mean(np.square(floors))))
        assert rms == pytest.approx(math.sqrt(level), rel=0.20)

    def test_one_over_f_noise_with_f_mod_in_flat_region(self, cfg):
        # 1/f below 1 kHz, flat at the modulation frequency
        psd = PhaseNoisePSD(
            (PSDSegment(1.0, -1.0, 1e-3), PSDSegment(1e3, 0.0, 1e-6)),
            0.5, 5e5,
        )
        p = OptimizedDeviceParams()
        est = [simulate_readout(p, psd, cfg, 0.01, seed=s).estimated_amplitude
               for s in range(100)]
        predicted = math.sqrt(1e-6 / cfg.duration)
        assert np.std(est) == pytest.approx(predicted, rel=0.20)

    def test_large_signal_rejected(self, cfg):
        with pytest.raises(InvalidParameterError):
            simulate_readout(OptimizedDeviceParams(), white_psd(), cfg, 0.5, seed=0)
