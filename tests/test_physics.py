import math

import numpy as np
import pytest

from dispersive_readout import (
    CavityParams,
    DomainError,
    InvalidParameterError,
    OptimizedDeviceParams,
    dawson,
    dispersive_shift_single,
    ensemble_dispersive_shift,
    optimized_phase_shift,
    photon_budget,
    reflection_phase,
    transition_frequency,
)

from oracles import dawson_asymptotic, dawson_series


class TestTransitionFrequency:
    def test_zero_field_returns_zfs(self, measured_ensemble):
        assert transition_frequency(0.0, measured_ensemble) == 2.87e9

    def test_linear_zeeman_at_32_gauss(self, measured_ensemble):
        expected = 2.87e9 - 2.8e6 * (1 / math.sqrt(3)) * 32.0
        assert transition_frequency(32.0, measured_ensemble) == pytest.approx(
            expected, rel=1e-12
        )

    def test_shift_from_zfs_is_linear(self, measured_ensemble):
        d = measured_ensemble.zfs
        shift1 = d - transition_frequency(10.0, measured_ensemble)
        shift2 = d - transition_frequency(20.0, measured_ensemble)
        assert shift2 == pytest.approx(2 * shift1, rel=1e-12)

    def test_negative_field_rejected(self, measured_ensemble):
        with pytest.raises(DomainError):
            transition_frequency(-1.0, measured_ensemble)


class TestDispersiveShiftSingle:
    def test_optimized_device_point(self):
        assert dispersive_shift_single(0.3, 1e7) == pytest.approx(9e-9, rel=1e-12)

    def test_measured_coupling_point(self):
        assert dispersive_shift_single(2.4e-2, 1e6) == pytest.approx(
            5.76e-10, rel=1e-12
        )

    def test_odd_in_delta(self):
        assert dispersive_shift_single(0.5, -3e6) == -dispersive_shift_single(0.5, 3e6)

    def test_resonance_rejected(self):
        with pytest.raises(DomainError):
            dispersive_shift_single(0.3, 0.0)


class TestDawson:
    def test_zero(self):
        assert dawson(0.0) == 0.0

    def test_near_maximum(self):
        assert dawson(0.92) == pytest.approx(0.541, abs=1e-3)

    def test_far_tail_matches_asymptotic(self):
        assert dawson(50.0) == pytest.approx(
            dawson_asymptotic(50.0, n_terms=2), rel=1e-3
        )
        assert dawson(50.0) == pytest.approx(0.01, rel=1e-3)

    def test_against_series_oracle_over_range(self):
        xs = np.linspace(-10, 10, 401)
        errs = [abs(dawson(x) - dawson_series(x)) for x in xs]
        assert max(errs) < 1e-10


class TestEnsembleShift:
    def test_zero_on_resonance(self, measured_ensemble):
        f0 = 2.8175e9
        assert ensemble_dispersive_shift(measured_ensemble, f0, f0, 1.0) == 0.0

    def test_narrow_line_asymptote(self, measured_ensemble):
        sigma = measured_ensemble.sigma_f
        delta = 50 * sigma
        omega_c = 2.8175e9
        shift = ensemble_dispersive_shift(
            measured_ensemble, omega_c, omega_c - delta, 1.0
        )
        expected = measured_ensemble.n_spins * measured_ensemble.g**2 / delta
        assert shift == pytest.approx(expected, rel=1e-3)

    def test_narrow_line_limit_within_1pct_at_20_sigma(self, measured_ensemble):
        sigma = measured_ensemble.sigma_f
        for mult in (20, 30, 100):
            delta = mult * sigma
            shift = ensemble_dispersive_shift(
                measured_ensemble, 2.8175e9, 2.8175e9 - delta, 1.0
            )
            expected = measured_ensemble.n_spins * measured_ensemble.g**2 / delta
            assert abs(shift - expected) / abs(expected) < 0.01

    def test_polarization_out_of_range(self, measured_ensemble):
        with pytest.raises(InvalidParameterError):
            ensemble_dispersive_shift(measured_ensemble, 2.8e9, 2.9e9, 1.5)

    def test_finite_everywhere(self, measured_ensemble):
        detunings = np.linspace(-1e9, 1e9, 101)
        shifts = ensemble_dispersive_shift(
            measured_ensemble, 2.8175e9 + detunings, 2.8175e9, 1.0
        )
        assert np.all(np.isfinite(shifts))

    def test_field_sweep_peak_magnitude(self, measured_ensemble, measured_cavity):
        # dispersion-shaped curve over 28-38.5 G whose extrema straddle
        # resonance; peak phase of order 2 mrad after phase conversion
        b = np.linspace(28, 38.5, 500)
        omega0 = transition_frequency(b, measured_ensemble)
        shift = ensemble_dispersive_shift(
            measured_ensemble, measured_cavity.omega_c, omega0, 1.0
        )
        phase = measured_cavity.resonant_slope * shift / measured_cavity.omega_c
        peak = np.max(np.abs(phase))
        assert 2e-3 / 2 < peak < 2e-3 * 2
        # antisymmetric about the resonance field: extrema on both sides
        assert np.min(phase) < 0 < np.max(phase)


class TestReflectionPhase:
    def test_zero_at_resonance(self, measured_cavity):
        assert reflection_phase(measured_cavity, 0.0) == 0.0

    def test_slope_by_central_difference(self):
        cav = CavityParams(omega_c=2.8175e9, q=6.0e3, beta=0.74, k=3.0, phi0=0.1)
        h = 1e-12
        slope = (reflection_phase(cav, h) - reflection_phase(cav, -h)) / (2 * h)
        expected = 4 * cav.beta * cav.q / (1 - cav.beta**2) + cav.k
        assert slope == pytest.approx(expected, rel=1e-6)

    def test_decays_off_resonance(self, measured_cavity):
        assert abs(reflection_phase(measured_cavity, 1.0)) < 1e-3

    def test_overcoupled_sweep_peak_to_peak(self, measured_cavity):
        delta = np.linspace(-5e-4, 5e-4, 2001)
        phase = reflection_phase(measured_cavity, delta)
        peak = measured_cavity.beta / math.sqrt(1 - measured_cavity.beta**2)
        # peak-to-peak excursion is twice the resonant-term maximum
        assert np.max(phase) - np.min(phase) == pytest.approx(2 * peak, rel=1e-3)

    def test_critical_coupling_rejected(self):
        with pytest.raises(InvalidParameterError):
            CavityParams(omega_c=2.8e9, q=6e3, beta=1.0005)

    @pytest.mark.parametrize("name", ["beta", "k", "phi0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_terms_rejected(self, name, value):
        kwargs = {"omega_c": 2.8e9, "q": 6e3, "beta": 0.74, name: value}
        with pytest.raises(InvalidParameterError, match=f"{name} must be finite"):
            CavityParams(**kwargs)


class TestOptimizedDevice:
    def test_table_defaults_give_2p83_rad(self):
        assert optimized_phase_shift(OptimizedDeviceParams()) == pytest.approx(
            2.83, abs=0.01
        )

    def test_linear_in_n(self):
        p1 = OptimizedDeviceParams()
        p2 = OptimizedDeviceParams(n_spins=2e14)
        assert optimized_phase_shift(p2) == pytest.approx(
            2 * optimized_phase_shift(p1), rel=1e-12
        )

    def test_inverse_in_delta(self):
        p1 = OptimizedDeviceParams()
        p2 = OptimizedDeviceParams(delta=2e7)
        assert optimized_phase_shift(p2) == pytest.approx(
            optimized_phase_shift(p1) / 2, rel=1e-12
        )

    def test_consistency_with_single_spin_shift(self):
        p = OptimizedDeviceParams()
        expected = (
            math.pi * p.q * dispersive_shift_single(p.g, p.delta) * p.n_spins / p.omega_0
        )
        assert optimized_phase_shift(p) == pytest.approx(expected, rel=1e-15)


class TestPhotonBudget:
    def test_table_defaults(self):
        b = photon_budget(OptimizedDeviceParams())
        assert b.flux == pytest.approx(1e17, rel=1e-12)
        assert b.avg_photons == pytest.approx(1.0e11, rel=1e-12)
        assert b.rabi_from_photons == pytest.approx(0.3 * math.sqrt(1e11), rel=1e-12)

    def test_flux_halves_when_t2_doubles(self):
        b1 = photon_budget(OptimizedDeviceParams())
        b2 = photon_budget(OptimizedDeviceParams(t2=2e-3))
        assert b2.flux == pytest.approx(b1.flux / 2, rel=1e-12)
