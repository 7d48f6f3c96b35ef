"""The Dawson function against its series oracle, and the closed-form
(Dawson) ensemble shift against the principal-value quadrature oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import dawson_series, ensemble_shift_oracle

from dispersive_readout import (
    InvalidParameterError,
    SpinEnsembleParams,
    dawson,
    ensemble_dispersive_shift,
)

FLOOR = 1e-30


def _ensemble(t2_star):
    return SpinEnsembleParams(
        n_spins=1e12, g=2.4e-2, t2_star=t2_star,
        t1_dark=740e-6, t1_light=427e-6,
    )


def _rel_err(ens, omega_c, omega0, n_grid=1_000_000):
    closed = ensemble_dispersive_shift(ens, omega_c, omega0, 1.0)
    orc = ensemble_shift_oracle(ens, omega_c, omega0, 1.0, n_grid=n_grid)
    return abs(orc - closed) / max(abs(closed), FLOOR)


def test_dawson_against_series_oracle_over_range():
    xs = np.linspace(-10, 10, 401)
    errs = [abs(dawson(x) - dawson_series(x)) for x in xs]
    assert max(errs) < 1e-10
    assert dawson(0.92) == pytest.approx(0.541, abs=1e-3)  # near the maximum


def test_exact_zero_on_symmetric_grid(measured_ensemble):
    assert ensemble_shift_oracle(measured_ensemble, 2.8e9, 2.8e9, 1.0) == 0.0


def test_magnitude_decreases_with_broadening():
    delta = 1e6
    omega_c = 2.8175e9
    values = []
    for t2_star in (100e-9, 30e-9, 10e-9, 3e-9):
        ens = _ensemble(t2_star)
        values.append(
            abs(ensemble_shift_oracle(ens, omega_c, omega_c - delta, 1.0,
                                      n_grid=200_000))
        )
    assert all(a > b for a, b in zip(values, values[1:]))


def test_convergence_with_grid_refinement(measured_ensemble):
    omega_c = 2.8175e9
    omega0 = omega_c - 3e6
    errs = [
        _rel_err(measured_ensemble, omega_c, omega0, n_grid=n)
        for n in (10_000, 100_000, 1_000_000)
    ]
    assert errs[0] > errs[2]
    assert errs[2] < 1e-8


def test_small_grid_rejected(measured_ensemble):
    with pytest.raises(InvalidParameterError):
        ensemble_shift_oracle(measured_ensemble, 2.8e9, 2.9e9, 1.0, n_grid=100)


@settings(max_examples=40, deadline=None)
@given(log_t2_star=st.floats(min_value=-12.0, max_value=-3.0),
       log_ratio=st.floats(min_value=-3.0, max_value=5.0),
       sign=st.sampled_from([1.0, -1.0]))
@example(log_t2_star=-12.0, log_ratio=5.0, sign=-1.0)
@example(log_t2_star=-3.0, log_ratio=-3.0, sign=1.0)
def test_closed_form_matches_quadrature_over_t2_star_and_detuning(log_t2_star,
                                                                  log_ratio, sign):
    """T2* log-uniform over 1 ps .. 1 ms and |Delta|/sigma log-uniform over
    1e-3 .. 1e5, either sign, on the oracle's default grid. The draw stops
    at 1e5 sigma: further out the 10^6-point grid, which spans
    |Delta| + 8 sigma, no longer resolves the Gaussian."""
    ens = _ensemble(10.0**log_t2_star)
    omega_c = 2.8175e9
    omega0 = omega_c - sign * 10.0**log_ratio * ens.sigma_f
    assert _rel_err(ens, omega_c, omega0) < 1e-9
