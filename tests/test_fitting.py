import dataclasses
import functools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
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
)

# the measured device of conftest, for tables and strategies, which take no
# fixtures
ENSEMBLE = SpinEnsembleParams(n_spins=2.0e12, g=2.4e-2, t2_star=18e-9,
                              t1_dark=740e-6, t1_light=427e-6)
CAVITY = CavityParams(omega_c=2.8175e9, q=6.0e3, beta=0.74)
SHIFT_VS_FIELD = shift_vs_field_model(ENSEMBLE, CAVITY)
FIXED = {"ensemble": ENSEMBLE, "cavity": CAVITY}
FIT_SHIFT_VS_FIELD = functools.partial(fit_shift_vs_field, fixed=FIXED)
LINEAR = FitModel(names=("a",), func=lambda p, x: p[0] * x)
QUADRATIC = FitModel(names=("a", "b", "c"),
                     func=lambda p, x: p[0] * x**2 + p[1] * x + p[2])


def reflection_sweep(q=6.0e3, beta=0.74, k=0.0, phi0=0.0, n=401, span=10.0):
    half_width = math.sqrt(1 - beta**2) / (2 * q)
    x = np.linspace(-span * half_width, span * half_width, n)
    y = reflection_phase_model().func([q, beta, k, phi0], x)
    return x, y


def perturbed(seed, truth, n=5):
    """``n`` starts, each value of ``truth`` times a seeded factor drawn
    uniformly from [0.8, 1.2)."""
    rng = np.random.default_rng(seed)
    return [{name: v * rng.uniform(0.8, 1.2) for name, v in truth.items()}
            for _ in range(n)]


X_LINEAR, X_QUADRATIC = np.linspace(0, 10, 50), np.linspace(-2, 2, 60)
X_SWEEP, Y_SWEEP = reflection_sweep()
X_BACKGROUND, Y_BACKGROUND = reflection_sweep(k=5.0, phi0=0.02)
T_500, T_200 = np.linspace(0, 2e-3, 500), np.linspace(0, 3e-3, 200)
B_106 = np.linspace(28, 38.5, 106)
F_C = 2.8175e9
REFLECTION = {"q": 6.0e3, "beta": 0.74, "k": 5.0, "phi0": 0.02}
DECAY = {"amplitude": 0.8, "tau": 7.4e-4, "offset": 0.1}
# name: (fit call, x, noiseless y, the truth of the parameters checked, the
# starts, rtol, atol)
ROUND_TRIPS = {
    "linear": (functools.partial(fit_nonlinear, LINEAR), X_LINEAR, 3.5 * X_LINEAR,
               {"a": 3.5}, [{"a": 1.0}], 0.0, 1e-10),
    "quadratic-from-10-random-starts": (
        functools.partial(fit_nonlinear, QUADRATIC), X_QUADRATIC,
        QUADRATIC.func([1.3, 0.7, -0.4], X_QUADRATIC), {"a": 1.3, "b": 0.7, "c": -0.4},
        [dict(zip("abc", start))
         for start in np.random.default_rng(3).uniform(-3, 3, size=(10, 3))], 1e-6, 1e-8),
    "reflection_phase": (fit_reflection_phase, X_SWEEP, Y_SWEEP,
                         {"q": 6.0e3, "beta": 0.74}, [{"q": 5.0e3, "beta": 0.6}],
                         1e-6, 0.0),
    # absolute detunings, converted by x_scale
    "reflection_phase-x_scale": (
        functools.partial(fit_reflection_phase, x_scale=F_C), X_SWEEP * F_C, Y_SWEEP,
        {"q": 6.0e3, "beta": 0.74}, [{"q": 5.0e3, "beta": 0.6}], 1e-6, 0.0),
    # an undercoupled start reaches the overcoupled truth
    "reflection_phase-undercoupled-start": (
        fit_reflection_phase, X_SWEEP, Y_SWEEP, {"q": 6.0e3, "beta": 0.74},
        [{"q": 6.5e3, "beta": 0.5}], 1e-6, 0.0),
    **{f"exponential-tau={tau:g}": (
        fit_exponential, T_500, 0.9 * np.exp(-T_500 / tau) + 0.05, {"tau": tau},
        [{"amplitude": 0.7, "tau": 1.2 * tau, "offset": 0.0}], 1e-8, 0.0)
       for tau in (740e-6, 427e-6)},
    "shift_vs_field": (FIT_SHIFT_VS_FIELD, B_106,
                       SHIFT_VS_FIELD.func([2.0e12, 18e-9], B_106),
                       {"n_spins": 2.0e12, "t2_star": 18e-9},
                       [{"n_spins": 1.7e12, "t2_star": 21e-9}], 1e-6, 0.0),
    # every parameter started +/-20 % off
    "reflection_phase-from-5-perturbed-starts": (
        fit_reflection_phase, X_BACKGROUND, Y_BACKGROUND, REFLECTION,
        perturbed(41, REFLECTION), 1e-6, 1e-8),
    "exponential-from-5-perturbed-starts": (
        fit_exponential, T_200, exponential_model().func(list(DECAY.values()), T_200),
        DECAY, perturbed(43, DECAY), 1e-6, 1e-8),
}

X_40, Y_40 = np.linspace(28.0, 38.5, 40), np.linspace(1.0, 0.5, 40)
# model: (its entry point on 40 points, a complete init with the optional
# parameters left out, the model's parameters)
ENTRY_POINTS = {
    "reflection_phase": (functools.partial(fit_reflection_phase, X_40, Y_40),
                         {"q": 5.0e3, "beta": 0.6}, "q, beta, k, phi0"),
    "exponential": (functools.partial(fit_exponential, X_40, Y_40),
                    {"amplitude": 0.7, "tau": 1e-3}, "amplitude, tau, offset"),
    "shift_vs_field": (functools.partial(FIT_SHIFT_VS_FIELD, X_40, Y_40),
                       {"n_spins": 1.5e12, "t2_star": 1.5e-8}, "n_spins, t2_star"),
}
# (model, parameter, a start below its lower bound, that bound)
BELOW_BOUNDS = [("reflection_phase", "q", -5.0e3, "0"),
                ("reflection_phase", "beta", -0.6, "0"),
                ("exponential", "tau", -1e-3, "1e-300"),
                ("shift_vs_field", "n_spins", 0.5, "1"),
                ("shift_vs_field", "t2_star", -1.5e-8, "1e-300")]


def fit_line(x=np.linspace(0, 10, 30), y=np.linspace(0, 20, 30), **kwargs):
    """fit_nonlinear of y = a * x from a = 1.5, with ``kwargs``."""
    return functools.partial(fit_nonlinear, LINEAR, x, y, **{"init": {"a": 1.5}, **kwargs})


def with_point_7(axis, value):
    x, y = np.linspace(0, 10, 30), np.linspace(0, 20, 30)
    {"x": x, "y": y}[axis][7] = value
    return fit_line(x, y)


T_20, X_3 = np.linspace(0, 1, 20), np.linspace(0, 10, 3)
B_60 = np.linspace(28, 38.5, 60)
# the shift vs field with g floated next to n_spins: it reads them only
# through n_spins * g**2
N_AND_G = FitModel(names=("n_spins", "g"), func=lambda p, b: SHIFT_VS_FIELD.func(
    [p[0] * (p[1] / ENSEMBLE.g) ** 2, 18e-9], b))
# full rank, but every entry of jac.T @ jac underflows to 0, so no damping
# makes a step solvable
TINY = FitModel(names=("a", "b"), func=lambda p, x: 1e-170 * (p[0] * x + p[1]))
E = InvalidParameterError
# name: (a call, the exception it raises, the whole message)
REFUSALS = {
    **{f"{model}-unknown-key": (
        functools.partial(fit, init={**init, "typo": 1.0}), E,
        f"\"init\" key 'typo' is not a parameter of model '{model}' ({names})")
       for model, (fit, init, names) in ENTRY_POINTS.items()},
    # the first key of the init not a finite number, or left out
    **{f"{model}-{key}={value!r}": (
        functools.partial(fit, init={**init, key: value}), E,
        f"\"init\" value for '{key}' must be a finite number, got {value!r}")
       for model, (fit, init, _) in ENTRY_POINTS.items() for key in list(init)[:1]
       for value in (math.nan, math.inf, "big", None, True)},
    **{f"{model}-without-{key}": (
        functools.partial(fit, init={k: v for k, v in init.items() if k != key}), E,
        f"\"init\" has no starting value for '{key}', which model '{model}' needs")
       for model, (fit, init, _) in ENTRY_POINTS.items() for key in list(init)[:1]},
    **{f"{model}-{key}-below-its-bound": (
        functools.partial(fit, init={**init, key: value}), E,
        f"\"init\" value for '{key}' must be >= {bound}, got {value!r}")
       for model, key, value, bound in BELOW_BOUNDS
       for fit, init, _ in [ENTRY_POINTS[model]]},
    # no built-in model has an upper bound
    "custom-a-above-its-bound": (
        functools.partial(fit_nonlinear, dataclasses.replace(LINEAR, bounds=((None, 2.0),)),
                          X_LINEAR, 2.0 * X_LINEAR, init={"a": 2.5}), E,
        "\"init\" value for 'a' must be <= 2, got 2.5"),
    # a misspelt key once fitted as if the polarization were 1
    **{f"fixed-{name}": (
        functools.partial(fit_shift_vs_field, X_40, Y_40, fixed,
                          init=ENTRY_POINTS["shift_vs_field"][1]), E, message)
       for name, fixed, message in [
           ("not-a-mapping", None, "fixed must map 'ensemble', 'cavity' and optionally "
            "'polarization' to values, got None"),
           ("unknown-key", {"ensemble": ENSEMBLE, "cavity": CAVITY, "polarisation": 0.5},
            "\"fixed\" key 'polarisation' is not one of 'ensemble', 'cavity', "
            "'polarization'"),
           *((f"without-{key}", {k: v for k, v in FIXED.items() if k != key},
              f"\"fixed\" has no '{key}', which model 'shift_vs_field' needs")
             for key in FIXED)]},
    "init-not-a-mapping": (fit_line(init=[1.5]), E,
                           "init must map parameter names to starting values, got [1.5]"),
    **{f"{axis}-point-7={value}": (
        with_point_7(axis, value), E, "data point 7 is not finite: " + (
            f"x = {value}, y = 4.827586206896552" if axis == "x"
            else f"x = 2.413793103448276, y = {value}"))
       for axis in "xy" for value in (math.nan, math.inf, -math.inf)},
    "x-not-1d": (functools.partial(fit_exponential, T_20[:, None], np.exp(-T_20),
                                   init={"amplitude": 1.0, "tau": 1.0}),
                 E, "x and y must be 1-D arrays of equal length"),
    "too-few-points": (functools.partial(fit_exponential, X_3, np.exp(-X_3),
                                         init={"amplitude": 1.0, "tau": 1.0}),
                       E, "need at least 4 data points for 3 parameters, got 3"),
    **{f"max_iterations={value!r}": (
        fit_line(max_iterations=value), E,
        f"max_iterations must be an integer >= 1, got {value!r}")
       for value in (0, -5, 2.5, True)},
    # 0 once divided by zero, inf ended in a singular Jacobian
    **{f"x_scale={value!r}": (
        functools.partial(fit_reflection_phase, X_SWEEP, Y_SWEEP,
                          init={"q": 5.0e3, "beta": 0.6}, x_scale=value), E,
        f'"x_scale" must be a finite non-zero number, got {value!r}')
       for value in (0, 0.0, math.inf, -math.inf, math.nan)},
    # amplitude = 0 makes tau unidentifiable
    "exponential-amplitude=0": (
        functools.partial(fit_exponential, np.linspace(0, 1, 30), np.full(30, 0.5),
                          init={"amplitude": 0.0, "tau": 0.3, "offset": 0.5}),
        SingularJacobianError,
        "rank-deficient Jacobian: a parameter has no influence on the model"),
    "n_spins-and-g": (
        functools.partial(fit_nonlinear, N_AND_G, B_60,
                          SHIFT_VS_FIELD.func([2.0e12, 18e-9], B_60),
                          init={"n_spins": 2.0e12, "g": 2.4e-2}),
        SingularJacobianError,
        "rank-deficient Jacobian: parameters are exactly degenerate"),
    "derivatives-square-to-0": (
        functools.partial(fit_nonlinear, TINY, np.linspace(1.0, 2.0, 20), np.ones(20),
                          init={"a": 1.0, "b": 0.0}),
        SingularJacobianError,
        "singular normal equations: the model's derivatives square to 0 in "
        "floating point"),
}


class TestEngine:
    @pytest.mark.parametrize("fit, x, y, truth, starts, rtol, atol",
                             ROUND_TRIPS.values(), ids=list(ROUND_TRIPS))
    def test_noiseless_data_fits_back_to_its_truth(self, fit, x, y, truth, starts,
                                                   rtol, atol):
        for init in starts:
            res = fit(x, y, init=init)
            assert res.converged
            assert res.chi2_reduced == pytest.approx(0.0, abs=1e-20)
            np.testing.assert_allclose([res[name] for name in truth],
                                       list(truth.values()), rtol=rtol, atol=atol)
            report = res.report()
            assert set(report) == {"model", "params", "chi2_reduced", "converged",
                                   "n_iterations"}
            assert list(report["params"]) == list(res.names)
            assert all(set(p) == {"value", "sigma"} for p in report["params"].values())

    @pytest.mark.parametrize("call, error, message", REFUSALS.values(),
                             ids=list(REFUSALS))
    def test_refusal_states_its_cause(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        assert str(info.value) == message

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

    @pytest.mark.parametrize("model, n_trials", [("exponential", 500),
                                                  ("reflection_phase", 300),
                                                  ("shift_vs_field", 300)])
    def test_sigma_is_calibrated(self, model, n_trials, measured_ensemble,
                                 measured_cavity):
        # z = (estimate - truth) / sigma over seeded noisy fits: each
        # parameter's var(z) lies in its 99.9 % chi-square interval and its
        # |mean z| < 3.3 / sqrt(n_trials); every covariance is symmetric and
        # positive semi-definite, and sigma is the root of its diagonal
        if model == "exponential":
            x, truth, noise = np.linspace(0, 3e-3, 120), [0.8, 700e-6, 0.1], 0.01
            fit_model = exponential_model()
            fit = lambda y: fit_exponential(x, y, init={"amplitude": 0.7, "tau": 500e-6,
                                                        "offset": 0.0})
        elif model == "reflection_phase":
            x, _ = reflection_sweep(n=120)
            truth, noise = [6.0e3, 0.74, 0.0, 0.0], 0.01
            fit_model = reflection_phase_model()
            fit = lambda y: fit_reflection_phase(x, y, init={"q": 5.0e3, "beta": 0.6})
        else:
            x, truth, noise = np.linspace(28.0, 38.5, 120), [2.0e12, 18e-9], 1e-5
            fit_model = shift_vs_field_model(measured_ensemble, measured_cavity)
            fixed = {"ensemble": measured_ensemble, "cavity": measured_cavity,
                     "polarization": 1.0}
            fit = lambda y: fit_shift_vs_field(x, y, fixed, init={"n_spins": 1.5e12,
                                                                  "t2_star": 1.5e-8})
        y = fit_model.func(np.array(truth), x)
        rng = np.random.default_rng(11)
        z = []
        for _ in range(n_trials):
            res = fit(y + rng.normal(0, noise, size=len(x)))
            z.append((res.params - truth) / res.sigma)
            cov = res.covariance
            correlation = cov / np.outer(res.sigma, res.sigma)
            assert np.allclose(correlation, correlation.T)
            assert np.all(np.linalg.eigvalsh(cov) > -1e-18)
            assert np.array_equal(res.sigma, np.sqrt(np.diag(cov)))
        z = np.array(z)
        # the 0.05 % and 99.95 % points of chi-square with n_trials - 1 degrees
        lo, hi = special.chdtri(n_trials - 1, [0.9995, 0.0005]) / (n_trials - 1)
        assert np.all((lo < z.var(axis=0, ddof=1)) & (z.var(axis=0, ddof=1) < hi))
        assert np.all(np.abs(z.mean(axis=0)) < 3.3 / math.sqrt(n_trials))
        if model == "exponential":
            # ~68 % of per-parameter 1-sigma intervals cover the truth, and
            # at least 99 % of trials have all three parameters within 3 sigma
            assert all(0.60 <= frac <= 0.76 for frac in np.mean(np.abs(z) < 1, axis=0))
            assert np.mean(np.all(np.abs(z) < 3, axis=1)) >= 0.99

    def test_scale_invariance(self):
        x = np.linspace(0, 5e-3, 80)
        y = 0.6 * np.exp(-x / 8e-4) + 0.05
        y = y + 0.001 * np.sin(1000 * x)  # deterministic "noise"
        init = {"amplitude": 0.5, "tau": 1e-3, "offset": 0.0}
        r1 = fit_exponential(x, y, init)
        r2 = fit_exponential(x, 1e3 * y, {"amplitude": 500, "tau": 1e-3,
                                          "offset": 0.0})
        assert r2["tau"] == pytest.approx(r1["tau"], rel=1e-10, abs=0)
        assert r2["amplitude"] == pytest.approx(1e3 * r1["amplitude"], rel=1e-10, abs=0)


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
    # full rank: the squared norm overflows; the SVD fallback once divided
    # the column by its infinite norm and called it exactly degenerate
    @example(jac=np.array([[1.25730221e159], [-1.32104863e159]]))
    # full rank: every square of the first column underflows to 0; the SVD
    # fallback once read its norm as 0 and called the parameter without
    # influence
    @example(jac=np.array([[1.03646549e-162, 4.02576096e+036],
                           [-3.29953168e-163, -1.36539139e+036],
                           [-3.03651672e-163, -1.21177612e+036]]))
    # exact degeneracies below and past the float range
    @example(jac=np.outer(np.linspace(1.0, 2.0, 20), [1e-170, -2e-170]))
    @example(jac=np.outer(np.linspace(1.0, 2.0, 20), [1e160, -2e160]))
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


B_50 = np.linspace(28.0, 38.5, 50)
Y_50 = SHIFT_VS_FIELD.func([2.0e12, 18e-9], B_50)
BOUNDS = {model.name: model.bounds
          for model in (reflection_phase_model(), exponential_model(), SHIFT_VS_FIELD)}


@st.composite
def scaled_fits(draw):
    """(fit, x, y, init) of one public fit on 50 points of 1 %-noisy data
    whose y values are multiplied by 10^ky and, where the model has a free x
    scale, whose x values by 10^kx (ky, kx in -150..150), with the start
    values scaled to match; one start may have its sign flipped."""
    sy, sx = (10.0 ** draw(st.integers(-150, 150)) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = 1.0 + 0.01 * rng.normal(size=50)
    model = draw(st.sampled_from(["exponential", "reflection_phase",
                                  "shift_vs_field"]))
    if model == "exponential":
        t = np.linspace(0.0, 2e-3, 50)
        y = (1.0 - np.exp(-t / 4e-4)) * noise * sy
        fit, x, y, init = fit_exponential, t * sx, y, {
            "amplitude": -0.8 * sy, "tau": 3.5e-4 * sx, "offset": 0.9 * sy}
    elif model == "reflection_phase":
        x, y = reflection_sweep(n=50)
        fit, x, y, init = (functools.partial(fit_reflection_phase, x_scale=sx), x * sx,
                           y * noise * sy, {"q": 5.0e3, "beta": 0.6})
    else:
        fit, x, y, init = (FIT_SHIFT_VS_FIELD, B_50, Y_50 * noise * sy,
                           {"n_spins": 1.7e12 * sy, "t2_star": 20e-9})
    flipped = draw(st.one_of(st.none(), st.sampled_from(list(init))))
    if flipped is not None:
        init[flipped] = -init[flipped]
    return fit, x, y, init


class TestFloatPolicy:
    """fit_nonlinear decides once what a float error does: nothing, until a
    non-finite value reaches the data check, the step-acceptance test, the
    rank check or the covariance. Every result lies within its model's
    bounds."""

    @given(case=scaled_fits())
    @example(case=(fit_exponential, np.linspace(0.0, 1.0, 50), np.full(50, 1e160),
                   {"amplitude": 1e160, "tau": 1.0}))
    # a start below its bound once stayed there, unconverged
    @example(case=(FIT_SHIFT_VS_FIELD, B_50, Y_50, {"n_spins": 1.7e12, "t2_star": -1e-8}))
    @settings(max_examples=150, deadline=None)
    def test_data_at_any_scale_ends_in_a_result_or_a_named_error(self, case):
        # an overflow warning fails: pyproject.toml turns warnings into errors
        fit, x, y, init = case
        try:
            res = fit(x, y, init=init)
        except (InvalidParameterError, SingularJacobianError):
            return
        assert isinstance(res, FitResult)
        assert all((lo is None or lo <= p) and (hi is None or p <= hi)
                   for p, (lo, hi) in zip(res.params, BOUNDS[res.model_name]))

    def test_shift_vs_field_past_squared_norm_overflow_is_not_degenerate(self):
        # noiseless |y| ~ 7e149; at n_spins = 1e158 the fit converges, at
        # this scale the rank check's norms overflowed and it raised
        # "parameters are exactly degenerate"
        params = [1e165, ENSEMBLE.t2_star]
        res = FIT_SHIFT_VS_FIELD(B_106, SHIFT_VS_FIELD.func(params, B_106),
                                 init=dict(zip(("n_spins", "t2_star"), params)))
        assert isinstance(res, FitResult)


# name: (value, sigma, its text)
NOTATION = {
    "q": (6.0e3, 1.0e2, "6.0(1)e+03"),
    "beta": (0.74, 0.06, "7.4(6)e-01"),
    "t1": (740e-6, 10e-6, "7.4(1)e-04"),
    "n_spins": (2.0e12, 1.0e11, "2.0(1)e+12"),
    # a value that is not finite stands alone
    "inf": (math.inf, 1.0, "inf"),
    "nan": (math.nan, 1.0, "nan"),
    # 9.6 rounds to 10: one digit up
    "bumped": (3.0, 0.96, "3(1)e+00"),
    "bumped-two-digits": (12.34, 0.96, "1.2(1)e+01"),
    # a zero value takes sigma's exponent
    "zero": (0.0, 0.02, "0(2)e-02"),
    "zero-bumped": (0.0, 0.96, "0(1)e+00"),
    # 10.0**-324 underflows to 0
    "subnormal-zero": (0.0, 5e-324, "0(5)e-324"),
    "subnormal-one": (1.0, 5e-324, f"1.{'0' * 324}(5)e+00"),
    # 1e-323 is 9.88e-324: bumped to 1
    "subnormal-bumped": (3e-323, 1e-323, "3(1)e-323"),
}


class TestReporting:
    @pytest.mark.parametrize("value, sigma, expected", NOTATION.values(),
                             ids=list(NOTATION))
    def test_parenthetical_notation(self, value, sigma, expected):
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


# x values a model may be handed next to ordinary ones: signed zeros,
# subnormals and values near 0
NEAR_ZERO = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-12]


def pooled(data, values):
    """A strategy over a pool of at most three values drawn from ``values``
    and their negations, so that a parameter returns to earlier values as
    in the +/- steps, and a signed zero meets its twin."""
    pool = data.draw(st.lists(values, min_size=1, max_size=3))
    return st.sampled_from(pool + [-v for v in pool])


def reuse_case(model, data):
    """(the model's func, its inline formula, a strategy per parameter, one
    for an x value, the most x values) for ``model``; the strategies of the
    parameters a reused core reads are pooled."""
    if model == "reflection_phase":
        q = st.one_of(st.floats(1.0, 1e6), st.sampled_from([0.0, -0.0]))
        beta = st.one_of(st.floats(0.0, 10.0), st.sampled_from([-0.0, 1.0]))
        params = [pooled(data, q), pooled(data, beta), st.floats(-10.0, 10.0),
                  st.floats(-4.0, 4.0)]
        x_value = st.one_of(st.floats(-1e-3, 1e-3), st.sampled_from(NEAR_ZERO))
        return reflection_phase_model().func, reflection_phase_inline, params, x_value, 6
    if model == "exponential":
        tau = st.one_of(st.floats(1e-6, 10.0), st.sampled_from([0.0, -0.0, 5e-324]))
        params = [st.floats(-10.0, 10.0), pooled(data, tau), st.floats(-1.0, 1.0)]
        x_value = st.one_of(st.floats(-1.0, 10.0), st.sampled_from(NEAR_ZERO))
        return exponential_model().func, exponential_inline, params, x_value, 6
    cav = CavityParams(omega_c=data.draw(st.floats(2.0e9, 4.0e9)),
                       q=data.draw(st.floats(1e2, 1e5)),
                       beta=data.draw(st.floats(0.0, 0.99)),
                       k=data.draw(st.floats(-10.0, 10.0)))
    polarization = data.draw(st.floats(0.0, 1.0))
    params = [st.floats(1.0, 1e16), pooled(data, st.floats(1e-10, 1e-5))]
    x_value = st.one_of(st.floats(0.0, 100.0),
                        st.sampled_from([v for v in NEAR_ZERO if v >= 0]))
    return (shift_vs_field_model(ENSEMBLE, cav, polarization).func,
            shift_vs_field_inline(ENSEMBLE, cav, polarization), params, x_value, 16)


class TestModelsReuseTheirCore:
    """A model reuses its costly core only for the same immutable x and core
    parameters of the same bits, so over any sequence of calls each result
    equals the inline formula bit for bit."""

    @pytest.mark.parametrize("model", ["reflection_phase", "exponential",
                                       "shift_vs_field"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_call_sequence_keeps_every_bit(self, model, data):
        # a sequence of parameter vectors, each the last with a single
        # parameter redrawn, as in a finite-difference Jacobian, while x is
        # kept, replaced by an immutable array (the kind fit_nonlinear
        # evaluates on) or a writeable one, or mutated in place
        func, oracle, params, x_value, max_size = reuse_case(model, data)
        xs = st.lists(x_value, min_size=1, max_size=max_size)
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


def counting(counts, name, func):
    """``func``, counting its calls in ``counts[name]``."""
    def counted(*args):
        counts[name] += 1
        return func(*args)
    return counted


# model: (the module of its costly core, the core, its calls per Jacobian,
# the fit's calls of transition_frequency)
CORE_COUNTS = {
    # two t2_star steps per Jacobian, the n_spins steps reuse the profile,
    # and the detuning grid is computed once
    "shift_vs_field": (physics, "dawson", 2, 1),
    # q and beta steps, then one back to (q, beta) for the k and phi0 steps
    "reflection_phase": (fitting, "reflection_resonance", 5, 0),
    # tau steps, then one back to tau for the offset steps
    "exponential": (fitting, "_decay", 3, 0),
}


class TestCoreEvaluationCounts:
    """A fit evaluates a model's core at the start point, once per trial
    step and once per finite-difference step in a parameter the core reads,
    plus once to return to the current core values when a parameter it does
    not read follows those steps in the Jacobian's order."""

    @pytest.mark.parametrize("model", CORE_COUNTS)
    def test_core_runs_once_per_new_core_value(self, monkeypatch, model):
        module, core, per_jacobian, grids = CORE_COUNTS[model]
        fit, _, _, _, y, _ = reference_case(model, 300, 0, ENSEMBLE, CAVITY)
        counts = Counter()
        for mod, name in [(module, core), (fitting, "transition_frequency")]:
            monkeypatch.setattr(mod, name, counting(counts, name, getattr(mod, name)))
        engine = fitting.fit_nonlinear
        monkeypatch.setattr(fitting, "fit_nonlinear", lambda m, *args: engine(
            dataclasses.replace(m, func=counting(counts, "func", m.func)), *args))
        res = fit(y, 200)
        assert res.converged
        # one Jacobian per iteration and a final one; every other model
        # call is the start point or a trial step
        jacobians = res.n_iterations + 1
        others = counts["func"] - 2 * len(res.names) * jacobians
        assert counts[core] == others + per_jacobian * jacobians
        assert counts["transition_frequency"] == grids


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
