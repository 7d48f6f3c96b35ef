import dataclasses
import functools
import math
from unittest import mock

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
def psds_and_frequencies(draw):
    """A ``continuous_psds()`` PSD and one to eight frequencies in its band:
    its edges, its breaks or anywhere between."""
    cfg = draw(whole_bin_configs())
    psd = draw(continuous_psds(cfg.f_mod, cfg.fs))
    edges = [psd.f_min, psd.f_max, *(s.f_break for s in psd.segments)]
    anywhere = st.floats(min_value=psd.f_min, max_value=psd.f_max)
    return psd, draw(st.lists(st.one_of(st.sampled_from(edges), anywhere),
                              min_size=1, max_size=8))


@given(case=psds_and_frequencies())
@example(case=(white_psd(3e-7), [0.1, 1.0, 123.4, 5e5]))
@example(case=(PhaseNoisePSD((PSDSegment(10.0, -1.0, 1e-6),), 1.0, 1e5), [100.0, 200.0]))
@example(case=(PhaseNoisePSD((PSDSegment(1.0, -1.0, 1e-6), PSDSegment(100.0, 0.0, 1e-8)),
                             0.5, 1e5), [100.0 - 1e-9, 100.0, 100.0 + 1e-9]))
@settings(max_examples=300, deadline=None)
def test_psd_value_is_the_power_law_of_its_segment(case):
    """One frequency gives the oracle's float bit for bit; in an array each
    agrees to 4 eps, numpy's vectorized pow rounding a few ulps apart."""
    psd, freqs = case
    expected = np.array([psd_at(psd, f) for f in freqs])
    for f, value in zip(freqs, expected):
        got = psd_value(psd, f)
        assert type(got) is float and got == value
    got = psd_value(psd, np.array(freqs))
    assert np.all(np.abs(got - expected) <= 4 * np.finfo(float).eps * expected)


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
    @example(case=(white_psd(level=1e-40), DEFAULT_LOCKIN, 0.01, 0))  # no noise
    @example(case=(white_psd(), DEFAULT_LOCKIN, 0.01, 0))  # the seed rule's edges
    @example(case=(white_psd(), DEFAULT_LOCKIN, 0.01, 2**64))
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


def test_white_variance_matches_parseval():
    level, fs = 1e-6, 1e6
    psd = white_psd(level)
    var = np.mean([np.var(synthesize_phase_noise(psd, fs, 8192, seed=s))
                   for s in range(100)])
    assert var == pytest.approx(white_noise_variance(level, fs), rel=0.05, abs=0)


def test_array_matches_elementwise():
    p = OptimizedDeviceParams()
    s = np.geomspace(1e-8, 1e-4, 37)
    assert np.array_equal(sensitivity(p, s), [sensitivity(p, v) for v in s])


SYNTHESIZE = functools.partial(synthesize_phase_noise, white_psd())
READ = functools.partial(simulate_readout, OptimizedDeviceParams(), white_psd(),
                         DEFAULT_LOCKIN)
# name: (a call, its whole message)
LOCKIN_REFUSALS = {
    **{f"psd_value-f={f!r}": (functools.partial(psd_value, white_psd(), f),
                              "frequency outside PSD range [0.1, 500000.0] Hz")
       for f in (1e7, math.nan, [10.0, math.nan])},
    "nyquist-above-the-band": (
        functools.partial(synthesize_phase_noise, white_psd(f_max=1e3), 1e6, 1024, 0),
        "Nyquist fs/2 = 500000.0 exceeds PSD f_max = 1000.0"),
    "signal-length": (
        functools.partial(lockin_demodulate, np.zeros(9999), DEFAULT_LOCKIN),
        "signal length (9999,) does not match fs*duration = 10000"),
    **{f"s_phi_sqrt={s!r}": (functools.partial(sensitivity, OptimizedDeviceParams(), s),
                             "s_phi_sqrt must be finite and >= 0")
       for s in (-1.0, math.nan)},
    **{f"signal_phase={phase!r}": (
        functools.partial(READ, phase, 0),
        "signal_phase must be finite and at most 0.1 rad in magnitude, the intended "
        f"linear range, got {phase!r}")
       for phase in (0.5, math.nan, math.inf, -math.inf, None)},
    # numpy's own ValueError or TypeError before params.check_seed
    **{f"{name}-seed={seed!r}": (functools.partial(call, seed),
                                 f"seed must be a non-negative integer, got {seed!r}")
       for name, call in [("synthesize", functools.partial(SYNTHESIZE, 1e6, 10000)),
                          ("readout", functools.partial(READ, 0.01))]
       for seed in (-1, True, 2.5, "3")},
    **{f"fs={fs!r}": (functools.partial(SYNTHESIZE, fs, 16, 0),
                      f"fs must be finite and > 0, got {fs!r}")
       for fs in (math.nan, -1e6, 0.0, -0.0, math.inf, "1e6")},
    **{f"n_samples={n!r}": (functools.partial(SYNTHESIZE, 1e6, n, 0),
                            f"n_samples must be an integer >= 1, got {n!r}")
       for n in (0, -3, 2.5, True)},
    "n_samples=2**61": (functools.partial(SYNTHESIZE, 1e6, 2**61, 0),
                        "n_samples = 2305843009213693952 samples: more than one "
                        "array can hold (1.15292e+18)"),
    **{f"shot_noise-{name}={value!r}": (
        functools.partial(shot_noise_limit, **{"n_spins": 1e14, "t2": 1e-3, name: value}),
        f"{name} must be finite and > 0, got {value!r}")
       for name, values in [("n_spins", (math.inf, math.nan, 0)),
                            ("t2", (math.inf, math.nan, -1e-3, 0.0))] for value in values},
    **{f"amplitude={a!r}": (functools.partial(square_wave, DEFAULT_LOCKIN, a),
                            f"amplitude must be a finite number, got {a!r}")
       for a in (math.nan, math.inf, "x", None, [1, 2], True)},
}


@pytest.mark.parametrize("call, message", LOCKIN_REFUSALS.values(),
                         ids=list(LOCKIN_REFUSALS))
def test_refusal_states_its_cause_and_builds_nothing(monkeypatch, call, message):
    """A refused call raises InvalidParameterError with its whole message
    before it draws noise or builds a lock-in record or a shaping gain."""
    default_rng = mock.Mock(wraps=np.random.default_rng)
    monkeypatch.setattr(noiselockin.np.random, "default_rng", default_rng)
    noiselockin._references.cache_clear()
    noiselockin._shaping_gain.cache_clear()
    with pytest.raises(InvalidParameterError) as info:
        call()
    assert type(info.value) is InvalidParameterError
    assert str(info.value) == message
    assert not default_rng.called
    assert noiselockin._references.cache_info().currsize == 0
    assert noiselockin._shaping_gain.cache_info().currsize == 0


def uncached_demodulate(x, cfg):
    t = np.arange(cfg.n_samples) / cfg.fs
    return 2.0 * float(np.mean(x * np.sin(2.0 * math.pi * cfg.f_mod * t)))


@st.composite
def synthesis_args(draw):
    """(psd, fs, n_samples): a white or 1/f PSD up to 20 MHz (past the
    Nyquist rate of every ``lockin_configs()`` config) at a rate up to 10 MHz
    and a length of either parity; a few rates and lengths recur."""
    fs = draw(st.one_of(st.sampled_from((1e6, 2e6)),
                        st.floats(min_value=1e3, max_value=1e7)))
    n_samples = draw(st.one_of(st.sampled_from((64, 1001)),
                               st.integers(min_value=1, max_value=5000)))
    psd = one_over_f_psd(2e7) if draw(st.booleans()) else white_psd(f_max=2e7)
    return psd, fs, n_samples


@st.composite
def typed_readout_args(draw):
    """Two (psd, cfg, fs) triples equal in value, each number an int (where
    integral), a numpy float32 or float64 or a float, the segments a tuple or
    a list; all exact in float32: f_mod = c*2^e, fs = r*f_mod, duration = p*2^-e."""
    c, e, p, r = (draw(st.integers(*b)) for b in ((1, 20), (4, 12), (1, 4), (11, 40)))
    level = 2.0 ** -draw(st.integers(10, 30))

    def t(value):
        kinds = (int,) * float(value).is_integer() + (np.float32, np.float64, float)
        return draw(st.sampled_from(kinds))(value)

    def build():
        segments = draw(st.sampled_from((tuple, list)))((
            PSDSegment(t(1.0), t(-1.0), t(level)),
            PSDSegment(t(1024.0), t(0.0), t(level / 1024))))
        return (PhaseNoisePSD(segments, t(0.5), t(2.0**25)),
                LockinConfig(t(c * 2.0**e), t(c * r * 2.0**e), t(p * 2.0**-e)),
                t(c * r * 2.0**e))

    return build(), build()


OTHER_LOCKIN = LockinConfig(f_mod=3e3, fs=2e5, duration=2e-3)
PLAIN = (one_over_f_psd(1e6), DEFAULT_LOCKIN, 1e6)
CALLS = ["readout", "demodulate", "synthesize"]


def cache_example(calls, pair=(PLAIN, PLAIN)):
    return example(configs=[DEFAULT_LOCKIN, OTHER_LOCKIN], pair=pair, calls=calls, seed=7,
                   syntheses=[(white_psd(f_max=2e7), 1e6, 1001)] * 2, phase=0.01)


def read(cfg=DEFAULT_LOCKIN, seed=0):
    simulate_readout(OptimizedDeviceParams(), white_psd(f_max=cfg.fs), cfg, 0.01, seed)
    return lockin_demodulate(np.ones(cfg.n_samples), cfg)


class TestReadoutCaches:
    """Each cache keeps, read-only, the entry of its last arguments, shared by
    equal values of any type; no order of calls changes a bit."""

    @given(configs=st.lists(lockin_configs(), min_size=2, max_size=2),
           syntheses=st.lists(synthesis_args(), min_size=2, max_size=2),
           pair=typed_readout_args(),
           calls=st.lists(st.tuples(st.sampled_from(CALLS), st.integers(0, 3)),
                          min_size=3, max_size=12),
           seed=st.integers(min_value=0, max_value=2**63 - 1),
           phase=st.floats(min_value=-0.1, max_value=0.1))
    @cache_example([(call, i) for i in (0, 1, 0) for call in CALLS[:2]])
    # a float32 f_mod once cached float32-rounded sines for the equal config
    @cache_example([("demodulate", 2), ("demodulate", 3), ("synthesize", 2)],
                   pair=((PLAIN[0], LockinConfig(np.float32(1e4), 1e6, 1e-2),
                          np.float32(1e6)), PLAIN))
    @cache_example([("readout", 2), ("readout", 3)],
                   pair=((PhaseNoisePSD(list(PLAIN[0].segments), 0.5, 1e6),
                          *PLAIN[1:]), PLAIN))
    @settings(max_examples=250, deadline=None)
    def test_interleaved_calls_keep_the_oracle_bits(self, configs, syntheses, pair,
                                                    calls, seed, phase):
        for psd, cfg, _ in pair:  # numbers stored as Python floats, segments as a tuple
            assert {type(getattr(obj, f.name)) for obj in (cfg, psd, *psd.segments)
                    for f in dataclasses.fields(obj)} == {float, tuple}
        assert len({(psd, cfg) for psd, cfg, _ in pair}) == 1  # equal, hashed alike
        lockins = [(s[0], c) for s, c in zip(syntheses, configs)] + [p[:2] for p in pair]
        syntheses = syntheses + [(psd, fs, cfg.n_samples) for psd, cfg, fs in pair]
        noiselockin._references.cache_clear()
        noiselockin._shaping_gain.cache_clear()
        for call, i in calls:
            psd, cfg = lockins[i]
            gains = [(psd, cfg.fs, cfg.n_samples)]
            if call == "readout":
                out = simulate_readout(OptimizedDeviceParams(), psd, cfg, phase, seed)
                assert (dataclasses.astuple(out)
                        == simulate_readout_reference(psd, cfg, phase, seed))
            elif call == "demodulate":
                x, gains = np.random.default_rng(seed).standard_normal(cfg.n_samples), []
                assert lockin_demodulate(x, cfg) == uncached_demodulate(x, cfg)
            else:
                psd, fs, n_samples = syntheses[i]
                gains, cfg = [(psd, float(fs), n_samples)], None
                assert np.array_equal(synthesize_phase_noise(psd, fs, n_samples, seed),
                                      synthesize_phase_noise_reference(*gains[0], seed))
            assert noiselockin._references.cache_info().currsize <= 1
            assert noiselockin._shaping_gain.cache_info().currsize <= 1
            arrays = [(noiselockin._shaping_gain(*key), key[2] // 2 + 1) for key in gains]
            if cfg is not None:
                *refs, sq_gain = noiselockin._references(cfg)
                arrays += [(ref, cfg.n_samples) for ref in refs]
                assert type(sq_gain) is float
                assert sq_gain == uncached_demodulate(square_wave(cfg), cfg)
            for a, n in arrays:
                assert (a.shape, a.dtype, a.flags.writeable) == ((n,), np.float64, False)

    @pytest.mark.parametrize("calls, cache, counts", [
        # read() looks the record up five times, four of them in the readout
        (lambda: [read(seed=s) for s in range(3)], "_references", (1, 14, 1)),
        (lambda: [read(c, 11) for c in (DEFAULT_LOCKIN, OTHER_LOCKIN, DEFAULT_LOCKIN)],
         "_references", (3, 12, 1)),
        (lambda: [read(seed=s) for s in range(3)], "_shaping_gain", (1, 2, 1)),
        (lambda: [synthesize_phase_noise(PLAIN[0], fs, 1001, seed=5)
                  for fs in (np.float32(1e6), 1e6, np.float32(1e6))],
         "_shaping_gain", (1, 2, 1)),
        (lambda: [synthesize_phase_noise(white_psd(), 1e6, 64, seed=0),
                  pytest.raises(InvalidParameterError, synthesize_phase_noise,
                                white_psd(), 1e6 * (1 + 1e-9), 64, 0).match("Nyquist"),
                  synthesize_phase_noise(white_psd(), 1e6, 64, seed=1)],
         "_shaping_gain", (1, 1, 1)),
        (lambda: [read(seed=s) for s in range(4)] + [square_wave(DEFAULT_LOCKIN, 0.5)],
         "_references", (1, 20, 1)),
    ], ids=["repeated-config", "configs-a-b-a", "repeated-shaping-arguments",
            "float32-rate", "rejected-nyquist", "warm-cache"])
    def test_cache_counts(self, monkeypatch, calls, cache, counts):
        unit_square = mock.Mock(wraps=noiselockin._unit_square)
        monkeypatch.setattr(noiselockin, "_unit_square", unit_square)
        noiselockin._references.cache_clear()
        noiselockin._shaping_gain.cache_clear()
        calls()
        info = getattr(noiselockin, cache).cache_info()
        assert (info.misses, info.hits, info.currsize) == counts
        # a warm cache builds no square wave: one build per miss
        assert unit_square.call_count == noiselockin._references.cache_info().misses
