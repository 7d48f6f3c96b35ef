import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from dispersive_readout import (
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

from dispersive_readout import noiselockin
from dispersive_readout.noiselockin import _unit_square
from oracles import (
    psd_at,
    simulate_readout_one_bin,
    simulate_readout_reference,
    square_wave_bin,
    square_wave_fmod,
    synthesize_phase_noise_reference,
    white_noise_variance,
)


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
        with pytest.raises(InvalidParameterError):
            psd_value(psd, 1e7)

    @pytest.mark.parametrize("f", [math.nan, [10.0, math.nan]])
    def test_nan_frequency_rejected(self, f):
        with pytest.raises(InvalidParameterError, match="frequency outside PSD range"):
            psd_value(white_psd(), f)


class TestSynthesis:
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

    def test_length_mismatch_is_an_invalid_parameter(self, cfg):
        with pytest.raises(InvalidParameterError,
                           match=r"signal length \(9999,\) does not match "
                                 r"fs\*duration = 10000"):
            lockin_demodulate(np.zeros(cfg.n_samples - 1), cfg)


class TestSensitivity:
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

    @pytest.mark.parametrize("seed", [-1, True, 2.5, "3"])
    def test_seed_outside_the_rule_is_named(self, cfg, seed):
        # numpy's own ValueError or TypeError before params.check_seed
        message = rf"^seed must be a non-negative integer, got {seed!r}$"
        with pytest.raises(InvalidParameterError, match=message):
            synthesize_phase_noise(white_psd(), cfg.fs, cfg.n_samples, seed)
        with pytest.raises(InvalidParameterError, match=message):
            simulate_readout(OptimizedDeviceParams(), white_psd(), cfg, 0.01, seed)

    @pytest.mark.parametrize("seed", [0, 2**64])
    def test_seed_at_the_rule_s_edges_keeps_its_bits(self, cfg, seed):
        psd = white_psd()
        assert np.array_equal(
            synthesize_phase_noise(psd, cfg.fs, cfg.n_samples, seed),
            synthesize_phase_noise_reference(psd, cfg.fs, cfg.n_samples, seed))
        out = simulate_readout(OptimizedDeviceParams(), psd, cfg, 0.01, seed)
        assert (out.estimated_amplitude, out.noise_floor) == (
            simulate_readout_reference(psd, cfg, 0.01, seed))

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

    @pytest.mark.parametrize("duration", [1e300, 1e13])
    def test_record_longer_than_an_array_rejected(self, duration):
        # 1e306 and 1e19 samples; the longest array holds 2**60 (1.15e18)
        with pytest.raises(InvalidParameterError,
                           match="samples: more than one array can hold"):
            LockinConfig(f_mod=1e4, fs=1e6, duration=duration)


def one_over_f_psd(f_max):
    return PhaseNoisePSD(
        (PSDSegment(1.0, -1.0, 1e-3), PSDSegment(1e3, 0.0, 1e-6)), 0.5, f_max,
    )


@st.composite
def lockin_configs(draw):
    """Lock-in configs with an integer number of modulation periods and of
    samples, over 10 and up to 300 samples per period, at most 3600 in all, at
    arbitrary (not only round) rates: fs = f_mod*n/periods."""
    f_mod = draw(st.floats(min_value=1.0, max_value=1e5))
    periods = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=10 * periods + 1, max_value=300 * periods))
    return LockinConfig(f_mod=f_mod, fs=f_mod * n / periods,
                        duration=periods / f_mod)


class TestSharedLockinArrays:
    @given(cfg=lockin_configs())
    @settings(max_examples=100, deadline=None)
    def test_square_wave_matches_fmod_form_on_the_grid(self, cfg):
        t = np.arange(cfg.n_samples) / cfg.fs
        assert np.array_equal(square_wave(cfg), square_wave_fmod(t, cfg.f_mod))
        assert np.array_equal(square_wave(cfg, 0.25),
                              0.25 * square_wave_fmod(t, cfg.f_mod))

    @given(f_mod=st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=1e6)),
           k=st.one_of(st.integers(min_value=0, max_value=2**12),
                       st.integers(min_value=0, max_value=2**62)))
    @settings(max_examples=300, deadline=None)
    def test_parity_equals_fmod_at_half_periods_and_neighbours(self, f_mod, k):
        # t*f_mod lands on k/2 (exactly so for f_mod = 1) and on the floats
        # either side of it, where the two forms could first disagree
        cfg = LockinConfig(f_mod=f_mod, fs=20.0 * f_mod, duration=1.0 / f_mod)
        half = (k / 2.0) / f_mod
        t = np.array([half, np.nextafter(half, 0.0), np.nextafter(half, np.inf)])
        assert np.array_equal(_unit_square(cfg, t), square_wave_fmod(t, f_mod))

    def test_parity_equals_fmod_on_every_half_period_of_a_long_record(self):
        cfg = LockinConfig(f_mod=1.0, fs=20.0, duration=1.0)
        halves = np.arange(2**16) / 2.0
        t = np.concatenate([halves, np.nextafter(halves, 0.0),
                            np.nextafter(halves, np.inf)])
        assert np.array_equal(_unit_square(cfg, t), square_wave_fmod(t, 1.0))


@st.composite
def whole_bin_configs(draw):
    """Lock-in configs whose record of n samples holds a whole number of
    periods exactly, so f_mod is DFT bin k0 = periods: fs = f_mod*n/periods,
    n at most 4000."""
    f_mod = draw(st.floats(min_value=1.0, max_value=1e5))
    periods = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=10 * periods + 1, max_value=4000))
    return LockinConfig(f_mod=f_mod, fs=f_mod * n / periods,
                        duration=periods / f_mod)


@st.composite
def continuous_psds(draw, f_mod, fs):
    """Continuous PSDs of one to three power laws (exponents in [-3, 1]),
    breaks anywhere in a band from 10^-4..2 f_mod up to 1..10 times fs/2."""
    f_min = f_mod * 10.0 ** draw(st.floats(min_value=-4.0, max_value=0.3))
    f_max = fs / 2.0 * 10.0 ** draw(st.floats(min_value=0.0, max_value=1.0))
    breaks = sorted(draw(st.lists(st.floats(min_value=f_min, max_value=f_max),
                                  min_size=1, max_size=3, unique=True)))
    exponents = draw(st.lists(st.floats(min_value=-3.0, max_value=1.0),
                              min_size=len(breaks), max_size=len(breaks)))
    level = 10.0 ** draw(st.floats(min_value=-14.0, max_value=-4.0))
    segments = [PSDSegment(breaks[0], exponents[0], level)]
    for f_break, exponent in zip(breaks[1:], exponents[1:]):
        last = segments[-1]
        segments.append(PSDSegment(
            f_break, exponent, last.level * (f_break / last.f_break) ** last.exponent))
    return PhaseNoisePSD(tuple(segments), f_min, f_max)


@st.composite
def one_bin_readouts(draw):
    cfg = draw(whole_bin_configs())
    return (draw(continuous_psds(cfg.f_mod, cfg.fs)), cfg,
            draw(st.floats(min_value=-0.1, max_value=0.1)),
            draw(st.integers(min_value=0, max_value=2**63 - 1)))


DEFAULT_LOCKIN = LockinConfig(f_mod=1e4, fs=1e6, duration=1e-2)
DEFAULT_PSD = PhaseNoisePSD(
    (PSDSegment(1.0, -1.0, 1e-8), PSDSegment(1e4, 0.0, 1e-12)), 1.0, 5e5)


class TestOneBinReadout:
    """The lock-in reads one DFT bin of a record of whole periods, so the
    readout is the shaping gain G = sqrt(S_phi(f_mod)*fs/2) times the bin of
    unit white noise, plus the square wave's bin (sq_gain, c_sq) times the
    signal: an oracle independent of the FFT-shaped chain."""

    # Both fields compared in noise-floor units, sqrt(S_phi(f_mod)) plus the
    # signal's |signal_phase|*sqrt(duration), whose rounding also reaches the
    # floor through the coherent removal. 3e-14 is the largest error seen
    # over 9000 such draws, and 4e-13 at the default config (10^4 samples,
    # 100 periods).
    REL_TOL = 1e-11

    @given(case=one_bin_readouts())
    @example(case=(DEFAULT_PSD, DEFAULT_LOCKIN, 0.01, 2024))
    @settings(max_examples=150, deadline=None)
    def test_readout_matches_the_one_bin_formula(self, case):
        psd, cfg, signal_phase, seed = case
        out = simulate_readout(OptimizedDeviceParams(), psd, cfg, signal_phase, seed)
        est, floor = simulate_readout_one_bin(psd, cfg, signal_phase, seed)
        root_t = math.sqrt(cfg.duration)
        tol = self.REL_TOL * (math.sqrt(psd_at(psd, cfg.f_mod))
                              + abs(signal_phase) * root_t)
        assert abs(out.estimated_amplitude - est) * root_t <= tol
        assert abs(out.noise_floor - floor) <= tol

    @pytest.mark.parametrize("cfg, n_seeds", [
        (DEFAULT_LOCKIN, 1000),
        # 11 samples per period: c_sq/sq_gain = 0.144, against 0.027 at the default
        (LockinConfig(f_mod=1e4, fs=1.1e5, duration=1e-4), 10000)],
        ids=["default", "11-samples-per-period"])
    def test_floor_and_amplitude_follow_their_exact_laws(self, cfg, n_seeds):
        # floor = sqrt(T)*G*(d_cos - d_sin*c_sq/sq_gain) with d_sin, d_cos
        # independent N(0, 2/n), so E[floor^2] = S_phi(f_mod)*(1 + (c_sq/sq_gain)^2);
        # est - signal*sq_gain = G*d_sin, so E[(est - signal*sq_gain)^2] =
        # S_phi(f_mod)/T. Summed over seeds, each normalized square is
        # chi-square with n_seeds degrees of freedom: the test fails with
        # probability 2e-7 per law when the law holds, and misses an error
        # in a law's variance of less than about 23 % (1000 seeds) or 7 %
        # (10^4 seeds). The (c_sq/sq_gain)^2 term, at most 2 %, is held to
        # rounding by the formula test above.
        s_phi = psd_at(DEFAULT_PSD, cfg.f_mod)
        sq_gain, c_sq = square_wave_bin(cfg)
        outs = [simulate_readout(OptimizedDeviceParams(), DEFAULT_PSD, cfg, 0.01, seed)
                for seed in range(n_seeds)]
        floors = np.array([o.noise_floor for o in outs])
        noise = np.array([o.estimated_amplitude for o in outs]) - 0.01 * sq_gain
        lo, hi = stats.chi2.ppf(1e-7, n_seeds), stats.chi2.isf(1e-7, n_seeds)
        assert lo < np.sum(floors**2) / (s_phi * (1.0 + (c_sq / sq_gain) ** 2)) < hi
        assert lo < np.sum(noise**2) * cfg.duration / s_phi < hi


def uncached_demodulate(x, cfg):
    t = np.arange(cfg.n_samples) / cfg.fs
    return 2.0 * float(np.mean(x * np.sin(2.0 * math.pi * cfg.f_mod * t)))


class TestReferenceCache:
    """The sine and cosine references are built once per LockinConfig and
    kept, read-only, for the last config only; switching configs back and
    forth changes no bit."""

    def check_interleaved(self, configs, psd_for, seed, signal_phase=0.01):
        noiselockin._references.cache_clear()
        rng = np.random.default_rng(seed)
        for cfg in configs:
            psd = psd_for(cfg)
            out = simulate_readout(OptimizedDeviceParams(), psd, cfg, signal_phase, seed)
            assert ((out.estimated_amplitude, out.noise_floor)
                    == simulate_readout_reference(psd, cfg, signal_phase, seed))
            x = rng.standard_normal(cfg.n_samples)
            assert lockin_demodulate(x, cfg) == uncached_demodulate(x, cfg)
            assert noiselockin._references.cache_info().currsize <= 1

    def test_configs_a_b_a_match_the_uncached_forms(self, cfg):
        other = LockinConfig(f_mod=3e3, fs=2e5, duration=2e-3)
        self.check_interleaved([cfg, other, cfg], lambda c: white_psd(f_max=c.fs),
                               seed=11)
        # each switch rebuilt the pair: the cache held one config at a time
        assert noiselockin._references.cache_info().misses == 3

    def test_repeated_config_is_built_once(self, cfg):
        noiselockin._references.cache_clear()
        for seed in range(3):
            simulate_readout(OptimizedDeviceParams(), white_psd(), cfg, 0.01, seed)
            lockin_demodulate(np.ones(cfg.n_samples), cfg)
        # four lookups per readout (two square waves, the in-phase and the
        # quadrature demodulation) and one per lockin_demodulate, one a miss
        info = noiselockin._references.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 14, 1)

    def test_cached_references_are_read_only(self, cfg):
        sin, cos, unit_sq, sq_gain = noiselockin._references(cfg)
        for ref in (sin, cos, unit_sq):
            assert ref.shape == (cfg.n_samples,) and ref.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                ref[0] = 1.0
        # a float, immutable, equal to the demodulated unit square wave
        assert type(sq_gain) is float
        assert sq_gain == uncached_demodulate(square_wave(cfg), cfg)
        assert noiselockin._references.cache_info().currsize <= 1

    def test_warm_cache_builds_no_square_wave(self, cfg, monkeypatch):
        noiselockin._references.cache_clear()
        simulate_readout(OptimizedDeviceParams(), white_psd(), cfg, 0.01, 0)
        calls = []
        unit_square = noiselockin._unit_square
        monkeypatch.setattr(noiselockin, "_unit_square",
                            lambda *args: calls.append(args) or unit_square(*args))
        for seed in range(1, 4):
            simulate_readout(OptimizedDeviceParams(), white_psd(), cfg, 0.01, seed)
        assert square_wave(cfg, 0.5)[0] == 0.5
        assert calls == []

    @given(configs=st.lists(lockin_configs(), min_size=2, max_size=2),
           order=st.lists(st.integers(min_value=0, max_value=1),
                          min_size=3, max_size=6),
           seed=st.integers(min_value=0, max_value=2**63 - 1),
           signal_phase=st.floats(min_value=-0.1, max_value=0.1),
           one_over_f=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_interleaved_configs_match_the_oracle_bitwise(self, configs, order,
                                                         seed, signal_phase,
                                                         one_over_f):
        self.check_interleaved(
            [configs[i] for i in order],
            lambda c: one_over_f_psd(c.fs) if one_over_f else white_psd(f_max=c.fs),
            seed, signal_phase)


@st.composite
def synthesis_args(draw):
    """(psd, fs, n_samples): a white or 1/f PSD up to 20 MHz, so that two
    draws often share it, at an arbitrary rate up to 10 MHz and a length of
    either parity; a few rates and lengths recur, so that two draws also
    share those."""
    fs = draw(st.one_of(st.sampled_from([1e6, 2e6]),
                        st.floats(min_value=1e3, max_value=1e7)))
    n_samples = draw(st.one_of(st.sampled_from([64, 1001]),
                               st.integers(min_value=1, max_value=5000)))
    psd = one_over_f_psd(2e7) if draw(st.booleans()) else white_psd(f_max=2e7)
    return psd, fs, n_samples


class TestShapingGainCache:
    """The noise-shaping gain is built once per (psd, fs, n_samples) and
    kept, read-only, for the last arguments only; switching arguments back
    and forth changes no bit against the inline synthesis oracle."""

    @given(args=st.lists(synthesis_args(), min_size=2, max_size=2),
           order=st.lists(st.integers(min_value=0, max_value=1),
                          min_size=3, max_size=6),
           seed=st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=60, deadline=None)
    def test_interleaved_arguments_match_the_oracle_bitwise(self, args, order, seed):
        noiselockin._shaping_gain.cache_clear()
        for psd, fs, n_samples in (args[i] for i in order):
            assert np.array_equal(
                synthesize_phase_noise(psd, fs, n_samples, seed),
                synthesize_phase_noise_reference(psd, fs, n_samples, seed))
            assert noiselockin._shaping_gain.cache_info().currsize <= 1
            gain = noiselockin._shaping_gain(psd, fs, n_samples)
            assert gain.shape == (n_samples // 2 + 1,) and gain.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                gain[0] = 1.0

    def test_repeated_arguments_are_built_once(self, cfg):
        noiselockin._shaping_gain.cache_clear()
        for seed in range(3):
            simulate_readout(OptimizedDeviceParams(), white_psd(), cfg, 0.01, seed)
        info = noiselockin._shaping_gain.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    def test_equal_rate_of_another_type_shares_the_float_gain(self):
        # np.float32(1e6) == 1e6: taken as the float 1e6, it gives its bits
        psd = one_over_f_psd(2e7)
        noiselockin._shaping_gain.cache_clear()
        for fs in (np.float32(1e6), 1e6, np.float32(1e6)):
            assert np.array_equal(synthesize_phase_noise(psd, fs, 1001, seed=5),
                                  synthesize_phase_noise_reference(psd, 1e6, 1001, 5))
        info = noiselockin._shaping_gain.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    def test_rejected_nyquist_leaves_the_cache_alone(self):
        psd = white_psd(f_max=5e5)
        noiselockin._shaping_gain.cache_clear()
        synthesize_phase_noise(psd, 1e6, 64, seed=0)
        with pytest.raises(InvalidParameterError, match="Nyquist"):
            synthesize_phase_noise(psd, 1e6 * (1 + 1e-9), 64, seed=0)
        synthesize_phase_noise(psd, 1e6, 64, seed=1)
        info = noiselockin._shaping_gain.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


class TestScalarArguments:
    """A scalar argument of the readout library that is not finite, or not
    in its range, raises InvalidParameterError naming it; a rejected rate
    leaves the shaping-gain cache empty."""

    @pytest.mark.parametrize("fs", [math.nan, -1e6, 0.0, -0.0, math.inf, "1e6"])
    def test_bad_rate_is_named_and_never_cached(self, fs):
        noiselockin._shaping_gain.cache_clear()
        with pytest.raises(InvalidParameterError,
                           match=f"fs must be finite and > 0, got {fs!r}"):
            synthesize_phase_noise(white_psd(), fs, 16, seed=0)
        assert noiselockin._shaping_gain.cache_info().currsize == 0

    @pytest.mark.parametrize("n_samples", [0, -3, 2.5, True, 2**61])
    def test_bad_sample_count_is_named_before_any_allocation(self, monkeypatch,
                                                             n_samples):
        # no noise is drawn and no shaping gain is built
        monkeypatch.setattr(noiselockin.np.random, "default_rng", None)
        noiselockin._shaping_gain.cache_clear()
        with pytest.raises(InvalidParameterError,
                           match=f"^n_samples (must|= {n_samples!r})"):
            synthesize_phase_noise(white_psd(), 1e6, n_samples, seed=0)
        assert noiselockin._shaping_gain.cache_info().currsize == 0

    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf, None])
    def test_non_finite_signal_phase_is_named(self, cfg, phase):
        with pytest.raises(InvalidParameterError,
                           match=f"^signal_phase must be finite.*got {phase!r}$"):
            simulate_readout(OptimizedDeviceParams(), white_psd(), cfg, phase, seed=0)

    @pytest.mark.parametrize("n_spins, t2, name", [
        (math.inf, 1e-3, "n_spins"), (math.nan, 1e-3, "n_spins"), (0, 1.0, "n_spins"),
        (1e14, math.inf, "t2"), (1e14, math.nan, "t2"), (1e14, -1e-3, "t2"),
        (1e14, 0.0, "t2")])
    def test_shot_noise_limit_names_its_argument(self, n_spins, t2, name):
        with pytest.raises(InvalidParameterError, match=f"^{name} must be finite and > 0"):
            shot_noise_limit(n_spins, t2)


NUMBER_TYPES = (int, np.float32, np.float64, float)


@st.composite
def typed(draw, value):
    """``value``, exact in float32, as an int (where it is integral), a
    numpy float32 or float64, or a Python float."""
    kinds = [t for t in NUMBER_TYPES if t is not int or float(value).is_integer()]
    return draw(st.sampled_from(kinds))(value)


@st.composite
def typed_readout_args(draw):
    """Two (psd, cfg, fs) triples equal in value, each number drawn of its
    own type and the segments as a tuple or a list. Every value is exact in
    float32: f_mod = c*2^e, fs = r*f_mod and duration = p*2^-e, so the record
    holds c*p whole periods of c*r*p samples."""
    c, e = draw(st.integers(1, 20)), draw(st.integers(4, 12))
    p, r = draw(st.integers(1, 4)), draw(st.integers(11, 40))
    level = 2.0 ** -draw(st.integers(10, 30))

    def build():
        segments = draw(st.sampled_from([tuple, list]))((
            PSDSegment(draw(typed(1.0)), draw(typed(-1.0)), draw(typed(level))),
            PSDSegment(draw(typed(1024.0)), draw(typed(0.0)),
                       draw(typed(level / 1024))),
        ))
        psd = PhaseNoisePSD(segments, draw(typed(0.5)), draw(typed(2.0**25)))
        cfg = LockinConfig(draw(typed(c * 2.0**e)), draw(typed(c * r * 2.0**e)),
                           draw(typed(p * 2.0**-e)))
        return psd, cfg, draw(typed(c * r * 2.0**e))

    return build(), build()


class TestEqualValuesComputeEqualBits:
    """Containers store every checked number as a Python float and their
    segments as a tuple, so equal containers hash alike and the readout
    caches, keyed on values alone, serve each of them the same bits."""

    @given(args=typed_readout_args(),
           order=st.lists(st.integers(min_value=0, max_value=1),
                          min_size=3, max_size=6),
           seed=st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=40, deadline=None)
    def test_any_numeric_type_gives_the_cache_cleared_bits(self, args, order, seed):
        for psd, cfg, _ in args:
            assert type(psd.segments) is tuple
            for obj in (cfg, psd, *psd.segments):
                assert all(type(getattr(obj, f.name)) is float
                           for f in dataclasses.fields(obj) if f.name != "segments")
        (psd_a, cfg_a, _), (psd_b, cfg_b, _) = args
        assert (psd_a, cfg_a) == (psd_b, cfg_b)
        assert hash((psd_a, cfg_a)) == hash((psd_b, cfg_b))
        x = np.random.default_rng(seed).standard_normal(cfg_a.n_samples)

        def results(psd, cfg, fs):
            return (simulate_readout(OptimizedDeviceParams(), psd, cfg, 0.01, seed),
                    lockin_demodulate(x, cfg),
                    synthesize_phase_noise(psd, fs, cfg.n_samples, seed).tobytes())

        def cache_cleared(psd, cfg, fs):
            noiselockin._references.cache_clear()
            noiselockin._shaping_gain.cache_clear()
            return results(psd, cfg, fs)

        expected = cache_cleared(*args[0])
        assert cache_cleared(*args[1]) == expected
        for i in order:
            assert results(*args[i]) == expected

    def test_float32_config_leaves_no_float32_references(self, cfg):
        # equal to cfg and hashed alike, LockinConfig(np.float32(1e4), ...)
        # once cached sines of the float32-rounded 2*pi*f_mod for both
        x = np.random.default_rng(3).standard_normal(cfg.n_samples)
        noiselockin._references.cache_clear()
        lockin_demodulate(x, LockinConfig(np.float32(1e4), cfg.fs, cfg.duration))
        assert lockin_demodulate(x, cfg) == uncached_demodulate(x, cfg)

    def test_psd_from_a_list_of_segments_reads_out_like_the_oracle(self, cfg):
        psd = PhaseNoisePSD([PSDSegment(1.0, -1.0, 1e-3), PSDSegment(1e3, 0.0, 1e-6)],
                            0.5, cfg.fs)
        assert psd == one_over_f_psd(cfg.fs)
        out = simulate_readout(OptimizedDeviceParams(), psd, cfg, 0.01, seed=7)
        assert ((out.estimated_amplitude, out.noise_floor)
                == simulate_readout_reference(psd, cfg, 0.01, 7))
