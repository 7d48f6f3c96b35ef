import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import jacobian_rank_defect

from dispersive_readout import (
    CavityParams,
    FitModel,
    SingularJacobianError,
    fit_exponential,
    fit_nonlinear,
    fit_reflection_phase,
    fit_shift_vs_field,
)
from dispersive_readout.fitting import (
    SINGULAR_RTOL,
    _check_rank,
    exponential_model,
    format_with_uncertainty,
    reflection_phase_model,
    shift_vs_field_model,
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
        res = fit_nonlinear(linear_model(), x, 3.5 * x, init=[1.0])
        assert res.converged
        assert res["a"] == pytest.approx(3.5, abs=1e-10)
        assert res.chi2_reduced == pytest.approx(0.0, abs=1e-20)

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
            fit_nonlinear(model, x, y, init=rng.uniform(-3, 3, size=3)).params
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
        r1 = fit_exponential(x, y, init, y_err=0.01)
        r2 = fit_exponential(x, 1e3 * y, {"amplitude": 500, "tau": 1e-3,
                                          "offset": 0.0}, y_err=10.0)
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


    def test_uniform_y_err_forms_give_bitwise_equal_fits(self):
        rng = np.random.default_rng(7)
        x, y = reflection_sweep(n=2001)
        y = y + rng.normal(0, 0.01 * np.max(np.abs(y)), size=len(y))
        init = {"q": 5.0e3, "beta": 0.6}
        fits = [fit_reflection_phase(x, y, init, y_err=e)
                for e in (None, 1.0, np.ones(len(y)))]
        for res in fits[1:]:
            for name in ("params", "sigma", "covariance"):
                assert getattr(res, name).tobytes() == getattr(fits[0], name).tobytes()
            assert (np.float64(res.chi2_reduced).tobytes()
                    == np.float64(fits[0].chi2_reduced).tobytes())
            assert res.n_iterations == fits[0].n_iterations


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
            fit_nonlinear(degenerate, b, y, init=[2.0e12, 2.4e-2])

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


class TestReporting:
    def test_report_structure(self):
        x = np.linspace(0, 10, 30)
        res = fit_nonlinear(linear_model(), x, 2.0 * x, init=[1.5])
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
