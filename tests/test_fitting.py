import dataclasses
import functools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    exponential_inline,
    fit_nonlinear_reference,
    jacobian_rank_defect,
    reflection_phase_inline,
    shift_vs_field_inline,
)

from dispersive_readout import (
    CavityParams,
    FitModel,
    FitResult,
    SpinEnsembleParams,
    InvalidParameterError,
    SingularJacobianError,
    fit_exponential,
    fit_nonlinear,
    fit_reflection_phase,
    fit_shift_vs_field,
    reflection_phase,
)
from dispersive_readout import fitting, physics
from dispersive_readout.fitting import (
    SINGULAR_RTOL,
    _check_rank,
    exponential_model,
    format_with_uncertainty,
    reflection_phase_model,
    shift_vs_field_model,
    start_values,
)


def linear_model():
    return FitModel(names=("a",), func=lambda p, x: p[0] * x)


def reflection_sweep(q=6.0e3, beta=0.74, k=0.0, phi0=0.0, n=401, span=10.0):
    half_width = math.sqrt(1 - beta**2) / (2 * q)
    x = np.linspace(-span * half_width, span * half_width, n)
    y = reflection_phase_model().func([q, beta, k, phi0], x)
    return x, y


class TestEngine:
    def test_exact_linear_recovery(self):
        x = np.linspace(0, 10, 50)
        res = fit_nonlinear(linear_model(), x, 3.5 * x, init={"a": 1.0})
        assert res.converged
        assert res["a"] == pytest.approx(3.5, abs=1e-10)
        assert res.chi2_reduced == pytest.approx(0.0, abs=1e-20)

    def test_no_descent_ends_the_fit_unconverged(self):
        # finite only at the start and its two finite-difference points, on
        # data 1e30 times the model's scale: even the most damped trial step
        # leaves those points, so no step is ever accepted
        start = 1.0
        step = fitting.JAC_REL_STEP * start
        finite_at = {start, start + step, start - step}

        def func(p, x):
            return p[0] * x if p[0] in finite_at else np.full_like(x, np.nan)

        x = np.linspace(1.0, 2.0, 20)
        res = fit_nonlinear(FitModel(names=("a",), func=func), x, 1e30 * x,
                            init={"a": start}, max_iterations=50)
        assert res.converged is False
        assert res.n_iterations == 1 < 50
        assert res["a"] == start

    def test_multi_start_agreement(self):
        rng = np.random.default_rng(3)
        x = np.linspace(-2, 2, 60)
        true = [1.3, 0.7, -0.4]
        model = FitModel(
            names=("a", "b", "c"),
            func=lambda p, x: p[0] * x**2 + p[1] * x + p[2],
        )
        y = model.func(true, x)
        fits = [
            fit_nonlinear(model, x, y,
                          init=dict(zip(model.names, rng.uniform(-3, 3, size=3)))).params
            for _ in range(10)
        ]
        for p in fits:
            assert np.allclose(p, true, rtol=1e-6, atol=1e-8)

    def test_coverage_of_one_sigma_intervals(self):
        # 500 noisy mono-exponential trials: ~68% of per-parameter intervals
        # should cover the truth
        rng = np.random.default_rng(11)
        t = np.linspace(0, 3e-3, 120)
        true = {"amplitude": 0.8, "tau": 700e-6, "offset": 0.1}
        hits = np.zeros(3)
        n_trials = 500
        for _ in range(n_trials):
            y = true["amplitude"] * np.exp(-t / true["tau"]) + true["offset"]
            y = y + rng.normal(0, 0.01, size=len(t))
            res = fit_exponential(t, y, init={"amplitude": 0.7, "tau": 500e-6,
                                              "offset": 0.0})
            for i, name in enumerate(("amplitude", "tau", "offset")):
                if abs(res[name] - true[name]) < res.sigma_of(name):
                    hits[i] += 1
        for frac in hits / n_trials:
            assert 0.60 <= frac <= 0.76

    def test_three_sigma_coverage(self):
        rng = np.random.default_rng(21)
        t = np.linspace(0, 3e-3, 120)
        true = {"amplitude": 0.8, "tau": 700e-6, "offset": 0.1}
        good = 0
        n_trials = 500
        for _ in range(n_trials):
            y = true["amplitude"] * np.exp(-t / true["tau"]) + true["offset"]
            y = y + rng.normal(0, 0.01, size=len(t))
            res = fit_exponential(t, y, init={"amplitude": 0.7, "tau": 500e-6,
                                              "offset": 0.0})
            if all(abs(res[n] - true[n]) < 3 * res.sigma_of(n)
                   for n in ("amplitude", "tau", "offset")):
                good += 1
        assert good / n_trials >= 0.99

    def test_scale_invariance(self):
        x = np.linspace(0, 5e-3, 80)
        y = 0.6 * np.exp(-x / 8e-4) + 0.05
        y = y + 0.001 * np.sin(1000 * x)  # deterministic "noise"
        init = {"amplitude": 0.5, "tau": 1e-3, "offset": 0.0}
        r1 = fit_exponential(x, y, init)
        r2 = fit_exponential(x, 1e3 * y, {"amplitude": 500, "tau": 1e-3,
                                          "offset": 0.0})
        assert r2["tau"] == pytest.approx(r1["tau"], rel=1e-10)
        assert r2["amplitude"] == pytest.approx(1e3 * r1["amplitude"], rel=1e-10)

    def test_non_convergence_is_flagged_not_raised(self):
        x = np.linspace(0, 1, 20)
        y = np.exp(-x / 0.2)
        res = fit_exponential(x, y, init={"amplitude": 5.0, "tau": 5.0,
                                          "offset": -2.0}, )
        assert isinstance(res.converged, bool)  # never raises for slow progress

    def test_singular_jacobian_for_uninfluential_parameter(self):
        x = np.linspace(0, 1, 30)
        y = np.full(30, 0.5)
        with pytest.raises(SingularJacobianError):
            # amplitude = 0 makes tau unidentifiable
            fit_exponential(x, y, init={"amplitude": 0.0, "tau": 0.3,
                                        "offset": 0.5})

    def test_covariance_is_symmetric_psd(self):
        rng = np.random.default_rng(5)
        t = np.linspace(0, 3e-3, 100)
        y = 0.8 * np.exp(-t / 7e-4) + 0.1 + rng.normal(0, 0.01, 100)
        res = fit_exponential(t, y, init={"amplitude": 0.7, "tau": 5e-4,
                                          "offset": 0.0})
        cov = res.covariance
        assert np.allclose(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) > -1e-18)
        assert np.allclose(res.sigma, np.sqrt(np.diag(cov)))



@st.composite
def jacobians(draw):
    """An n x k Jacobian of Gaussian columns. One column may be zero, hold a
    non-finite entry, or be a combination of the others plus a perturbation
    of relative size 10^(-17..0); every column is then scaled by
    10^(-160..160), so squared norms can underflow or overflow. Continuous
    values come from a seeded generator, so they are spread evenly over
    their ranges."""
    k = draw(st.integers(1, 5))
    n = draw(st.one_of(st.integers(k + 1, 64), st.integers(k + 1, 10**5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jac = rng.normal(size=(n, k))
    j = draw(st.integers(0, k - 1))
    defect = draw(st.sampled_from(["none", "near-degenerate", "near-degenerate",
                                   "zero", "non-finite"]))
    if defect == "near-degenerate" and k > 1:
        combo = np.delete(jac, j, axis=1) @ rng.normal(size=k - 1)
        eps = 10.0 ** rng.uniform(-17.0, 0.0)
        jac[:, j] = combo + eps * np.linalg.norm(combo) / math.sqrt(n) * rng.normal(size=n)
    elif defect == "zero":
        jac[:, j] = 0.0
    elif defect == "non-finite":
        jac[rng.integers(n), j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    extremes = draw(st.lists(st.sampled_from([None, -160.0, 160.0]),
                             min_size=k, max_size=k))
    exponents = [rng.uniform(-160.0, 160.0) if e is None else e for e in extremes]
    return jac * 10.0 ** np.array(exponents)


class TestRankCheck:
    @given(jac=jacobians())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_svd_only_oracle(self, jac):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            defect = jacobian_rank_defect(jac, SINGULAR_RTOL)
            if defect is None:
                _check_rank(jac, jac.T @ jac)
            else:
                with pytest.raises(SingularJacobianError, match=defect):
                    _check_rank(jac, jac.T @ jac)

    def test_well_conditioned_fit_never_needs_the_svd(self, monkeypatch):
        svd_calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **kw: svd_calls.append(1) or svd(*a, **kw))
        x, y = reflection_sweep()
        res = fit_reflection_phase(x, y, init={"q": 5.0e3, "beta": 0.6})
        assert res.converged
        assert svd_calls == []

    def test_column_norm_past_the_float_range_is_full_rank(self):
        # the squared norm overflows; the SVD fallback once divided the
        # column by its infinite norm and called it exactly degenerate
        jac = np.array([[1.25730221e159], [-1.32104863e159]])
        with np.errstate(over="ignore"):
            _check_rank(jac, jac.T @ jac)

    def test_degeneracy_past_the_float_range_is_still_found(self):
        column = np.linspace(1.0, 2.0, 20) * 1e160
        jac = np.column_stack([column, -2.0 * column])
        with np.errstate(over="ignore"), pytest.raises(
                SingularJacobianError, match="exactly degenerate"):
            _check_rank(jac, jac.T @ jac)


# the measured device of conftest, for strategies, which take no fixtures
ENSEMBLE = SpinEnsembleParams(n_spins=2.0e12, g=2.4e-2, t2_star=18e-9,
                              t1_dark=740e-6, t1_light=427e-6)
CAVITY = CavityParams(omega_c=2.8175e9, q=6.0e3, beta=0.74)


@st.composite
def scaled_fits(draw):
    """(fit, x, y, init) of one public fit on 50 points of 1 %-noisy data
    whose y values are multiplied by 10^ky and, where the model has a free x
    scale, whose x values by 10^kx (ky, kx in -150..150), with the start
    values scaled to match."""
    sy, sx = (10.0 ** draw(st.integers(-150, 150)) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = 1.0 + 0.01 * rng.normal(size=50)
    model = draw(st.sampled_from(["exponential", "reflection_phase",
                                  "shift_vs_field"]))
    if model == "exponential":
        t = np.linspace(0.0, 2e-3, 50)
        y = (1.0 - np.exp(-t / 4e-4)) * noise * sy
        return fit_exponential, t * sx, y, {"amplitude": -0.8 * sy,
                                            "tau": 3.5e-4 * sx, "offset": 0.9 * sy}
    if model == "reflection_phase":
        x, y = reflection_sweep(n=50)
        return (functools.partial(fit_reflection_phase, x_scale=sx), x * sx,
                y * noise * sy, {"q": 5.0e3, "beta": 0.6})
    b = np.linspace(28.0, 38.5, 50)
    y = shift_vs_field_model(ENSEMBLE, CAVITY).func([2.0e12, 18e-9], b)
    return (functools.partial(fit_shift_vs_field,
                              fixed={"ensemble": ENSEMBLE, "cavity": CAVITY}),
            b, y * noise * sy, {"n_spins": 1.7e12 * sy, "t2_star": 20e-9})


class TestFloatPolicy:
    """fit_nonlinear decides once what a float error does: nothing, until a
    non-finite value reaches the data check, the step-acceptance test, the
    rank check or the covariance."""

    @given(case=scaled_fits())
    @example(case=(fit_exponential, np.linspace(0.0, 1.0, 50), np.full(50, 1e160),
                   {"amplitude": 1e160, "tau": 1.0}))
    @settings(max_examples=150, deadline=None)
    def test_data_at_any_scale_ends_in_a_result_or_a_named_error(self, case):
        fit, x, y, init = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning fails
            try:
                assert isinstance(fit(x, y, init=init), FitResult)
            except (InvalidParameterError, SingularJacobianError):
                pass

    def test_shift_vs_field_past_squared_norm_overflow_is_not_degenerate(
            self, measured_ensemble, measured_cavity):
        # noiseless |y| ~ 7e149; at n_spins = 1e158 the fit converges, at
        # this scale the rank check's norms overflowed and it raised
        # "parameters are exactly degenerate"
        b = np.linspace(28.0, 38.5, 106)
        params = [1e165, measured_ensemble.t2_star]
        y = shift_vs_field_model(measured_ensemble, measured_cavity).func(params, b)
        res = fit_shift_vs_field(
            b, y, fixed={"ensemble": measured_ensemble, "cavity": measured_cavity},
            init=dict(zip(("n_spins", "t2_star"), params)))
        assert isinstance(res, FitResult)


class TestReflectionPhaseFit:
    def test_noiseless_round_trip(self):
        x, y = reflection_sweep()
        res = fit_reflection_phase(x, y, init={"q": 5.0e3, "beta": 0.6})
        assert res.converged
        assert res["q"] == pytest.approx(6.0e3, rel=1e-6)
        assert res["beta"] == pytest.approx(0.74, rel=1e-6)

    def test_x_scale_converts_absolute_detuning(self):
        f_c = 2.8175e9
        x, y = reflection_sweep()
        res = fit_reflection_phase(x * f_c, y, init={"q": 5.0e3, "beta": 0.6},
                                   x_scale=f_c)
        assert res["q"] == pytest.approx(6.0e3, rel=1e-6)

    @pytest.mark.parametrize("x_scale", [0, 0.0, math.inf, -math.inf, math.nan])
    def test_x_scale_not_finite_and_non_zero_is_rejected_by_name(self, x_scale):
        # 0 once divided by zero, inf ended in a singular Jacobian
        x, y = reflection_sweep()
        with pytest.raises(InvalidParameterError,
                           match='"x_scale" must be a finite non-zero number'):
            fit_reflection_phase(x, y, init={"q": 5.0e3, "beta": 0.6},
                                 x_scale=x_scale)

    def test_noisy_recovery_within_quoted_uncertainties(self):
        rng = np.random.default_rng(17)
        x, y = reflection_sweep()
        peak = np.max(np.abs(y))
        q_err, beta_err = [], []
        for _ in range(100)[:30]:
            noisy = y + rng.normal(0, 0.01 * peak, size=len(y))
            res = fit_reflection_phase(noisy_x := x, noisy,
                                       init={"q": 5.5e3, "beta": 0.7})
            q_err.append(res["q"] / 6.0e3 - 1)
            beta_err.append(res["beta"] / 0.74 - 1)
        assert np.sqrt(np.mean(np.square(q_err))) < 0.02
        assert np.sqrt(np.mean(np.square(beta_err))) < 0.08

    def test_undercoupled_init_stays_undercoupled(self):
        x, y = reflection_sweep()
        res = fit_reflection_phase(x, y, init={"q": 6.5e3, "beta": 0.5})
        assert res["beta"] < 1.0


class TestExponentialFit:
    @pytest.mark.parametrize("tau", [740e-6, 427e-6])
    def test_noiseless_round_trip(self, tau):
        t = np.linspace(0, 2e-3, 500)
        y = 0.9 * np.exp(-t / tau) + 0.05
        res = fit_exponential(t, y, init={"amplitude": 0.7, "tau": 1.2 * tau,
                                          "offset": 0.0})
        assert res.converged
        assert res["tau"] == pytest.approx(tau, rel=1e-8)


class TestShiftVsFieldFit:
    def test_noiseless_round_trip(self, measured_ensemble, measured_cavity):
        b = np.linspace(28, 38.5, 106)
        model = shift_vs_field_model(measured_ensemble, measured_cavity)
        y = model.func([2.0e12, 18e-9], b)
        res = fit_shift_vs_field(
            b, y,
            fixed={"ensemble": measured_ensemble, "cavity": measured_cavity},
            init={"n_spins": 1.7e12, "t2_star": 21e-9},
        )
        assert res.converged
        assert res["n_spins"] == pytest.approx(2.0e12, rel=1e-6)
        assert res["t2_star"] == pytest.approx(18e-9, rel=1e-6)

    def test_n_and_g_jointly_degenerate(self, measured_ensemble, measured_cavity):
        b = np.linspace(28, 38.5, 60)
        base = shift_vs_field_model(measured_ensemble, measured_cavity)
        y = base.func([2.0e12, 18e-9], b)
        slope = (measured_cavity.resonant_slope + measured_cavity.k
                 ) / measured_cavity.omega_c
        ens = measured_ensemble
        sigma = 1.0 / (2 * math.pi * 18e-9)

        def func(params, bb):
            n_spins, g = params
            delta = measured_cavity.omega_c - (
                ens.zfs - ens.gamma * ens.projection_factor * bb
            )
            from dispersive_readout import dawson
            shift = n_spins * g**2 * (math.sqrt(2) / sigma) * dawson(
                delta / (math.sqrt(2) * sigma)
            )
            return slope * shift

        degenerate = FitModel(names=("n_spins", "g"), func=func)
        with pytest.raises(SingularJacobianError):
            fit_nonlinear(degenerate, b, y, init={"n_spins": 2.0e12, "g": 2.4e-2})

    def test_noisy_recovery(self, measured_ensemble, measured_cavity):
        rng = np.random.default_rng(29)
        b = np.linspace(28, 38.5, 106)
        model = shift_vs_field_model(measured_ensemble, measured_cavity)
        y = model.func([2.0e12, 18e-9], b)
        peak = np.max(np.abs(y))
        n_err, t_err = [], []
        for _ in range(30):
            noisy = y + rng.normal(0, 0.01 * peak, size=len(y))
            res = fit_shift_vs_field(
                b, noisy,
                fixed={"ensemble": measured_ensemble, "cavity": measured_cavity},
                init={"n_spins": 1.8e12, "t2_star": 20e-9},
            )
            n_err.append(res["n_spins"] / 2.0e12 - 1)
            t_err.append(res["t2_star"] / 18e-9 - 1)
        assert np.sqrt(np.mean(np.square(n_err))) < 0.05
        assert np.sqrt(np.mean(np.square(t_err))) < 0.06


class TestRoundTripFromPerturbedInits:
    """Zero-noise data fits back to the generating parameters from +/-20%
    perturbed starting values, for every model."""

    def test_reflection(self):
        rng = np.random.default_rng(41)
        x, y = reflection_sweep(k=5.0, phi0=0.02)
        for _ in range(5):
            f = lambda v: v * rng.uniform(0.8, 1.2)
            res = fit_reflection_phase(
                x, y, init={"q": f(6.0e3), "beta": f(0.74), "k": f(5.0),
                            "phi0": f(0.02)},
            )
            assert np.allclose(res.params, [6.0e3, 0.74, 5.0, 0.02], rtol=1e-6)

    def test_exponential(self):
        rng = np.random.default_rng(43)
        t = np.linspace(0, 3e-3, 200)
        y = exponential_model().func([0.8, 7.4e-4, 0.1], t)
        for _ in range(5):
            f = lambda v: v * rng.uniform(0.8, 1.2)
            res = fit_exponential(t, y, init={"amplitude": f(0.8),
                                              "tau": f(7.4e-4),
                                              "offset": f(0.1)})
            assert np.allclose(res.params, [0.8, 7.4e-4, 0.1], rtol=1e-6)


# a complete init of each fit entry point, optional parameters left out
ENTRY_POINT_INITS = {
    "reflection_phase": {"q": 5.0e3, "beta": 0.6},
    "exponential": {"amplitude": 0.7, "tau": 1e-3},
    "shift_vs_field": {"n_spins": 1.5e12, "t2_star": 1.5e-8},
}


def fit_entry_point(model, init, ensemble, cavity):
    x = np.linspace(28.0, 38.5, 40)
    y = np.linspace(1.0, 0.5, 40)
    if model == "reflection_phase":
        return fit_reflection_phase(x, y, init)
    if model == "exponential":
        return fit_exponential(x, y, init)
    return fit_shift_vs_field(x, y, {"ensemble": ensemble, "cavity": cavity}, init)


class TestStartValues:
    """Every entry point takes its starting values through start_values, so
    a bad init raises InvalidParameterError naming the key."""

    @pytest.mark.parametrize("model", ENTRY_POINT_INITS)
    def test_unknown_key_is_named(self, model, measured_ensemble,
                                  measured_cavity):
        init = {**ENTRY_POINT_INITS[model], "typo": 1.0}
        with pytest.raises(InvalidParameterError,
                           match=f"'typo' is not a parameter of model '{model}'"):
            fit_entry_point(model, init, measured_ensemble, measured_cavity)

    @pytest.mark.parametrize("value", [math.nan, math.inf, "big", None, True])
    @pytest.mark.parametrize("model", ENTRY_POINT_INITS)
    def test_value_that_is_not_a_finite_number_is_named(
            self, model, value, measured_ensemble, measured_cavity):
        init = dict(ENTRY_POINT_INITS[model])
        key = next(iter(init))
        init[key] = value
        with pytest.raises(InvalidParameterError,
                           match=f"value for '{key}' must be a finite number"):
            fit_entry_point(model, init, measured_ensemble, measured_cavity)

    @pytest.mark.parametrize("model", ENTRY_POINT_INITS)
    def test_missing_required_key_is_named(self, model, measured_ensemble,
                                           measured_cavity):
        key, *_ = ENTRY_POINT_INITS[model]
        init = {k: v for k, v in ENTRY_POINT_INITS[model].items() if k != key}
        with pytest.raises(InvalidParameterError,
                           match=f"no starting value for '{key}', which model "
                                 f"'{model}' needs"):
            fit_entry_point(model, init, measured_ensemble, measured_cavity)

    def test_optional_parameters_start_at_zero(self):
        assert start_values(reflection_phase_model(),
                            {"beta": 0.6, "q": 5.0e3}).tolist() == [5.0e3, 0.6, 0.0, 0.0]
        assert start_values(exponential_model(),
                            {"tau": 1e-3, "amplitude": 0.7}).tolist() == [0.7, 1e-3, 0.0]

    def test_init_that_is_not_a_mapping_is_rejected(self):
        x = np.linspace(0, 10, 30)
        with pytest.raises(InvalidParameterError, match="must map parameter names"):
            fit_nonlinear(linear_model(), x, 2.0 * x, init=[1.5])


class TestEngineInputs:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_non_finite_data_is_rejected(self, axis, value):
        data = {"x": np.linspace(0, 10, 30), "y": np.linspace(0, 20, 30)}
        data[axis][7] = value
        with pytest.raises(InvalidParameterError, match="data point 7 is not finite"):
            fit_nonlinear(linear_model(), data["x"], data["y"], init={"a": 1.5})

    def test_x_that_is_not_1d_is_rejected(self):
        t = np.linspace(0, 1, 20)
        with pytest.raises(InvalidParameterError,
                           match="x and y must be 1-D arrays of equal length"):
            fit_exponential(t[:, None], np.exp(-t),
                            init={"amplitude": 1.0, "tau": 1.0})

    def test_too_few_points_states_both_counts(self):
        x = np.linspace(0, 10, 3)
        with pytest.raises(InvalidParameterError,
                           match="need at least 4 data points for 3 parameters, "
                                 "got 3"):
            fit_exponential(x, np.exp(-x), init={"amplitude": 1.0, "tau": 1.0})

    @pytest.mark.parametrize("max_iterations", [0, -5, 2.5])
    def test_max_iterations_not_a_positive_integer_is_rejected(self, max_iterations):
        x = np.linspace(0, 10, 30)
        with pytest.raises(InvalidParameterError, match="max_iterations must be"):
            fit_nonlinear(linear_model(), x, 2.0 * x, init={"a": 1.5},
                          max_iterations=max_iterations)


class TestReporting:
    def test_report_structure(self):
        x = np.linspace(0, 10, 30)
        res = fit_nonlinear(linear_model(), x, 2.0 * x, init={"a": 1.5})
        rep = res.report()
        assert set(rep) == {"model", "params", "chi2_reduced", "converged",
                            "n_iterations"}
        assert set(rep["params"]["a"]) == {"value", "sigma"}

    @pytest.mark.parametrize("value,sigma,expected", [
        (6.0e3, 1.0e2, "6.0(1)e+03"),
        (0.74, 0.06, "7.4(6)e-01"),
        (740e-6, 10e-6, "7.4(1)e-04"),
        (2.0e12, 1.0e11, "2.0(1)e+12"),
    ])
    def test_parenthetical_notation(self, value, sigma, expected):
        assert format_with_uncertainty(value, sigma) == expected

    @pytest.mark.parametrize("value,sigma,expected", [
        (3.0, 0.96, "3(1)e+00"),      # 9.6 rounds to 10: one digit up
        (12.34, 0.96, "1.2(1)e+01"),
        (0.0, 0.02, "0(2)e-02"),      # a zero value takes sigma's exponent
        (0.0, 0.96, "0(1)e+00"),
    ])
    def test_rounding_bump_and_zero_value(self, value, sigma, expected):
        assert format_with_uncertainty(value, sigma) == expected

    @pytest.mark.parametrize("value,sigma,expected", [
        (0.0, 5e-324, "0(5)e-324"),   # 10.0**-324 underflows to 0
        (1.0, 5e-324, f"1.{'0' * 324}(5)e+00"),
        (3e-323, 1e-323, "3(1)e-323"),  # 1e-323 is 9.88e-324: bumped to 1
    ], ids=["zero", "one", "bumped"])
    def test_subnormal_sigma(self, value, sigma, expected):
        assert format_with_uncertainty(value, sigma) == expected

    @settings(max_examples=300, deadline=None)
    @given(value=st.floats(allow_nan=False, allow_infinity=False),
           sigma=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_any_finite_sigma_formats_as_before_or_newly(self, value, sigma):
        # the formula as it stood before subnormal sigmas were handled; every
        # text it gave is kept
        exp_sigma = int(math.floor(math.log10(sigma)))
        text = format_with_uncertainty(value, sigma)
        try:
            digit = int(round(sigma / 10.0**exp_sigma))
        except ZeroDivisionError:
            return
        if digit == 10:
            digit, exp_sigma = 1, exp_sigma + 1
        exp_val = (exp_sigma if value == 0
                   else max(int(math.floor(math.log10(abs(value)))), exp_sigma))
        try:
            mantissa = value / 10.0**exp_val
        except ZeroDivisionError:
            return
        assert text == (f"{mantissa:.{exp_val - exp_sigma}f}({digit})"
                        f"e{exp_val:+03d}")


FRACTIONAL_DETUNINGS = st.lists(st.floats(-1e-2, 1e-2), min_size=1, max_size=16)


class TestModelsEvaluateTheKernels:
    """The fit models, the physics wrappers and the inline formulas agree
    bit for bit, so a reordered kernel expression fails here."""

    @settings(max_examples=100, deadline=None)
    @given(q=st.floats(1.0, 1e6),
           beta=st.one_of(st.floats(0.0, 0.99), st.floats(1.01, 10.0)),
           k=st.floats(-10.0, 10.0), phi0=st.floats(-4.0, 4.0),
           x=FRACTIONAL_DETUNINGS)
    def test_reflection_phase(self, q, beta, k, phi0, x):
        x = np.array(x)
        expected = reflection_phase_inline((q, beta, k, phi0), x).tobytes()
        model = reflection_phase_model().func(np.array([q, beta, k, phi0]), x)
        cav = CavityParams(omega_c=2.8175e9, q=q, beta=beta, k=k, phi0=phi0)
        assert model.tobytes() == expected
        assert reflection_phase(cav, x).tobytes() == expected

    @settings(max_examples=100, deadline=None)
    @given(n_spins=st.floats(1.0, 1e16), t2_star=st.floats(1e-10, 1e-5),
           polarization=st.floats(0.0, 1.0),
           b=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=16),
           omega_c=st.floats(2.0e9, 4.0e9), q=st.floats(1e2, 1e5),
           beta=st.floats(0.0, 0.99), k=st.floats(-10.0, 10.0))
    def test_shift_vs_field(self, n_spins, t2_star, polarization, b, omega_c,
                            q, beta, k):
        ens = SpinEnsembleParams(n_spins=2.0e12, g=2.4e-2, t2_star=18e-9,
                                 t1_dark=740e-6, t1_light=427e-6)
        cav = CavityParams(omega_c=omega_c, q=q, beta=beta, k=k)
        b = np.array(b)
        model = shift_vs_field_model(ens, cav, polarization)
        expected = shift_vs_field_inline(ens, cav, polarization)
        assert (model.func(np.array([n_spins, t2_star]), b).tobytes()
                == expected((n_spins, t2_star), b).tobytes())


# x values a model may be handed next to ordinary ones: signed zeros,
# subnormals and values near 0
NEAR_ZERO = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-12]


def pooled(data, values):
    """A strategy over a pool of at most three values drawn from ``values``
    and their negations, so that a parameter returns to earlier values as
    in the +/- steps, and a signed zero meets its twin."""
    pool = data.draw(st.lists(values, min_size=1, max_size=3))
    return st.sampled_from(pool + [-v for v in pool])


def check_call_sequence(data, func, oracle, params, x_value):
    """Call ``func`` over a drawn sequence of parameter vectors, each one
    the last with a single parameter redrawn from its strategy in
    ``params``, as in a finite-difference Jacobian, while x is kept,
    replaced by an immutable array (the kind fit_nonlinear evaluates on) or
    a writeable one, or mutated in place. Every result must equal
    ``oracle`` bit for bit."""
    xs = st.lists(x_value, min_size=1, max_size=6)
    x = np.frombuffer(np.array(data.draw(xs), dtype=float).tobytes())
    p = np.array([data.draw(values) for values in params])
    for _ in range(data.draw(st.integers(1, 12))):
        action = data.draw(st.sampled_from(["keep", "immutable", "writeable",
                                            "mutate"]))
        if action == "immutable":
            x = np.frombuffer(np.array(data.draw(xs), dtype=float).tobytes())
        elif action == "writeable":
            x = np.array(data.draw(xs), dtype=float)
        elif action == "mutate":
            if not x.flags.writeable:
                x = x.copy()
            x[data.draw(st.integers(0, len(x) - 1))] = data.draw(x_value)
        i = data.draw(st.integers(0, len(params) - 1))
        p = p.copy()
        p[i] = data.draw(params[i])
        with np.errstate(all="ignore"):
            got, expected = func(p, x), oracle(p, x)
        assert got.tobytes() == expected.tobytes(), (action, p, x)


class TestModelsReuseTheirCore:
    """A model reuses its costly core only for the same immutable x and core
    parameters of the same bits, so over any sequence of calls each result
    equals the inline formula bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_reflection_phase(self, data):
        q = st.one_of(st.floats(1.0, 1e6), st.sampled_from([0.0, -0.0]))
        beta = st.one_of(st.floats(0.0, 10.0), st.sampled_from([-0.0, 1.0]))
        params = [pooled(data, q), pooled(data, beta), st.floats(-10.0, 10.0),
                  st.floats(-4.0, 4.0)]
        x_value = st.one_of(st.floats(-1e-3, 1e-3), st.sampled_from(NEAR_ZERO))
        check_call_sequence(data, reflection_phase_model().func,
                            reflection_phase_inline, params, x_value)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exponential(self, data):
        tau = st.one_of(st.floats(1e-6, 10.0), st.sampled_from([0.0, -0.0, 5e-324]))
        params = [st.floats(-10.0, 10.0), pooled(data, tau), st.floats(-1.0, 1.0)]
        x_value = st.one_of(st.floats(-1.0, 10.0), st.sampled_from(NEAR_ZERO))
        check_call_sequence(data, exponential_model().func, exponential_inline,
                            params, x_value)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_shift_vs_field(self, data):
        ens = SpinEnsembleParams(n_spins=2.0e12, g=2.4e-2, t2_star=18e-9,
                                 t1_dark=740e-6, t1_light=427e-6)
        cav = CavityParams(omega_c=2.8175e9, q=6.0e3, beta=0.74, k=0.5)
        params = [st.floats(1.0, 1e16), pooled(data, st.floats(1e-10, 1e-5))]
        x_value = st.one_of(st.floats(0.0, 100.0),
                            st.sampled_from([v for v in NEAR_ZERO if v >= 0]))
        check_call_sequence(data, shift_vs_field_model(ens, cav, 0.9).func,
                            shift_vs_field_inline(ens, cav, 0.9), params, x_value)


class TestCoreEvaluationCounts:
    """A fit evaluates a model's core at the start point, once per trial
    step and once per finite-difference step in a parameter the core reads,
    plus once to return to the current core values when a parameter it does
    not read follows those steps in the Jacobian's order."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()
        engine = fitting.fit_nonlinear

        def fit_counting_evals(model, *args, **kwargs):
            func = model.func

            def counted(params, x):
                counts["func"] += 1
                return func(params, x)

            return engine(dataclasses.replace(model, func=counted), *args, **kwargs)

        monkeypatch.setattr(fitting, "fit_nonlinear", fit_counting_evals)
        return counts

    @staticmethod
    def count_calls(monkeypatch, module, name, counts):
        original = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    @staticmethod
    def core_calls(result, counts, per_jacobian):
        """Core evaluations the rule allows for ``result``: one Jacobian per
        iteration and a final one, and every other model call a trial step
        or the start point."""
        jacobians = result.n_iterations + 1
        other = counts["func"] - 2 * len(result.names) * jacobians
        return other + per_jacobian * jacobians

    def test_shift_vs_field(self, monkeypatch, counts, measured_ensemble,
                            measured_cavity):
        b = np.linspace(28.0, 38.5, 300)
        fixed = {"ensemble": measured_ensemble, "cavity": measured_cavity}
        y = shift_vs_field_inline(measured_ensemble, measured_cavity)(
            (2.0e12, 18e-9), b)
        y = y + np.random.default_rng(5).normal(0.0, 0.01 * np.ptp(y), b.size)
        self.count_calls(monkeypatch, physics, "dawson", counts)
        self.count_calls(monkeypatch, fitting, "transition_frequency", counts)
        res = fit_shift_vs_field(b, y, fixed,
                                 init={"n_spins": 1.4e12, "t2_star": 25e-9})
        assert res.converged
        # two t2_star steps per Jacobian; the n_spins steps reuse the profile
        assert counts["dawson"] == self.core_calls(res, counts, 2)
        assert counts["transition_frequency"] == 1

    def test_reflection_phase(self, monkeypatch, counts):
        x, y = reflection_sweep(k=5.0, phi0=0.02)
        y = y + np.random.default_rng(6).normal(0.0, 0.01, y.size)
        self.count_calls(monkeypatch, fitting, "reflection_resonance", counts)
        res = fit_reflection_phase(x, y, init={"q": 5.0e3, "beta": 0.6})
        assert res.converged
        # q and beta steps, then one back to (q, beta) for the k and phi0 steps
        assert counts["reflection_resonance"] == self.core_calls(res, counts, 5)

    def test_exponential(self, monkeypatch, counts):
        t = np.linspace(0.0, 3e-3, 300)
        y = exponential_inline((0.8, 7.4e-4, 0.1), t)
        y = y + np.random.default_rng(7).normal(0.0, 0.01, t.size)
        self.count_calls(monkeypatch, fitting, "_decay", counts)
        res = fit_exponential(t, y, init={"amplitude": 0.6, "tau": 1e-3})
        assert res.converged
        # tau steps, then one back to tau for the offset steps
        assert counts["_decay"] == self.core_calls(res, counts, 3)


def reference_case(model, n, variant, ensemble, cavity):
    """A seeded noisy fit of ``n`` points: (public fit call, inline model,
    bounds, x, y, start vector). Variant 1 adds the optional init keys and,
    for the reflection phase, absolute detunings with ``x_scale``; for the
    shift vs field it sets a polarization."""
    rng = np.random.default_rng([("reflection_phase", "exponential",
                                  "shift_vs_field").index(model), n, variant])
    if model == "reflection_phase":
        truth, f_c = (6.0e3, 0.74, 5.0, 0.02), 2.8175e9
        half_width = math.sqrt(1 - 0.74**2) / (2 * 6.0e3)
        x = np.linspace(-10 * half_width, 10 * half_width, n)
        init = {"q": 5.0e3, "beta": 0.6}
        if variant:
            init.update(k=4.0, phi0=0.01)
        start = [init.get(name, 0.0) for name in ("q", "beta", "k", "phi0")]
        x_scale = f_c if variant else None
        x_given = x * f_c if variant else x
        x_ref = x_given / f_c if variant else x
        func, bounds = reflection_phase_inline, ((0.0, None), (0.0, None),
                                                 (None, None), (None, None))
        fit = lambda y, m: fit_reflection_phase(x_given, y, init, x_scale, m)
    elif model == "exponential":
        truth = (0.8, 7.4e-4, 0.1)
        x_ref = x = np.linspace(0.0, 3e-3, n)
        init = {"amplitude": 0.6, "tau": 1e-3}
        if variant:
            init["offset"] = 0.05
        start = [init.get(name, 0.0) for name in ("amplitude", "tau", "offset")]
        func, bounds = exponential_inline, ((None, None), (1e-300, None),
                                            (None, None))
        fit = lambda y, m: fit_exponential(x, y, init, m)
    else:
        truth = (2.0e12, 18e-9)
        x_ref = x = np.linspace(28.0, 38.5, n)
        init = {"n_spins": 1.5e12, "t2_star": 1.5e-8}
        start = [init["n_spins"], init["t2_star"]]
        polarization = 0.9 if variant else 1.0
        fixed = {"ensemble": ensemble, "cavity": cavity,
                 "polarization": polarization}
        func = shift_vs_field_inline(ensemble, cavity, polarization)
        bounds = ((1.0, None), (1e-300, None))
        fit = lambda y, m: fit_shift_vs_field(x, y, fixed, init, m)
    y = func(truth, x_ref)
    y = y + rng.normal(0.0, 0.01 * np.max(np.abs(y)), n)
    return fit, func, bounds, x_ref, y, start


class TestEngineMatchesTheReference:
    """The public fits give the plain Levenberg-Marquardt loop's results bit
    for bit: its Jacobian buffer, in-place model sums and reused model parts
    change no bit of a result."""

    @pytest.mark.parametrize("max_iterations", [2, 3, 200])
    @pytest.mark.parametrize("variant", [0, 1])
    @pytest.mark.parametrize("n", [10, 100, 1000, 10_000])
    @pytest.mark.parametrize("model", ["reflection_phase", "exponential",
                                       "shift_vs_field"])
    def test_results_keep_every_bit(self, model, n, variant, max_iterations,
                                    measured_ensemble, measured_cavity):
        fit, func, bounds, x, y, start = reference_case(
            model, n, variant, measured_ensemble, measured_cavity)
        result = fit(y, max_iterations)
        params, sigma, cov, chi2_reduced, converged, n_iter = (
            fit_nonlinear_reference(func, bounds, x, y, start, max_iterations))
        assert result.params.tobytes() == params.tobytes()
        assert result.sigma.tobytes() == sigma.tobytes()
        assert result.covariance.tobytes() == cov.tobytes()
        assert result.chi2_reduced == chi2_reduced
        assert result.converged == converged
        assert result.n_iterations == n_iter
