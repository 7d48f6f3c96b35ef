"""Nonlinear least squares: a damped Gauss-Newton (Levenberg-Marquardt)
engine with finite-difference Jacobians, plus the three concrete models
used throughout the package (reflection phase, mono-exponential relaxation,
dispersive shift vs magnetic field).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameterError, SingularJacobianError
from .params import CavityParams, SpinEnsembleParams
from .physics import dawson, transition_frequency

JAC_REL_STEP = 1e-6
JAC_ABS_FLOOR = 1e-12
COST_TOL = 1e-10
STEP_TOL = 1e-10
MAX_ITERATIONS = 200
# on the column-normalized Jacobian; exact degeneracies land at the finite-
# difference rounding floor (~1e-11), genuine fits stay many orders above
SINGULAR_RTOL = 1e-10
# _check_rank settles a Jacobian as full rank without the SVD when the
# eigenvalues of its columns' Gram matrix (the squared singular values of
# the column-normalized Jacobian) have a ratio above _GRAM_SCREEN_RTOL: the
# Gram matrix's rounding error, about k*n*eps, is far below it, and the
# singular-value ratio is then about 1e-3, far above SINGULAR_RTOL. Squared
# column norms below _GRAM_MIN_SQ_NORM are too close to underflow to trust.
_GRAM_SCREEN_RTOL = 1e-6
_GRAM_MIN_SQ_NORM = np.finfo(float).tiny / np.finfo(float).eps


@dataclass(frozen=True)
class FitModel:
    """A model y = func(params, x) with named parameters.

    ``bounds`` are per-parameter (lo, hi) with None for an open side;
    ``fixed`` is a boolean mask of parameters held at their initial value.
    """

    names: tuple
    func: Callable
    bounds: Optional[tuple] = None
    fixed: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if self.bounds is not None:
            object.__setattr__(self, "bounds", tuple(tuple(b) for b in self.bounds))
        if self.fixed is not None:
            fixed = tuple(bool(f) for f in self.fixed)
            object.__setattr__(self, "fixed", fixed)
            if all(fixed):
                raise InvalidParameterError("at least one parameter must be free")


@dataclass(frozen=True)
class FitResult:
    names: tuple
    params: np.ndarray        # best-fit values (fixed params at init values)
    sigma: np.ndarray         # 1-sigma uncertainties (0 for fixed params)
    covariance: np.ndarray    # covariance of the free parameters, embedded
    chi2_reduced: float
    converged: bool
    n_iterations: int
    model_name: str = "custom"

    def __getitem__(self, name):
        return float(self.params[self.names.index(name)])

    def sigma_of(self, name):
        return float(self.sigma[self.names.index(name)])

    def report(self) -> dict:
        """JSON-ready fit report."""
        return {
            "model": self.model_name,
            "params": {
                n: {"value": float(v), "sigma": float(s)}
                for n, v, s in zip(self.names, self.params, self.sigma)
            },
            "chi2_reduced": float(self.chi2_reduced),
            "converged": bool(self.converged),
            "n_iterations": int(self.n_iterations),
        }

    def summary(self) -> str:
        lines = [f"model: {self.model_name}"]
        for n, v, s in zip(self.names, self.params, self.sigma):
            lines.append(f"  {n} = {format_with_uncertainty(v, s)}")
        lines.append(
            f"  chi2_reduced = {self.chi2_reduced:.4g}, converged = {self.converged},"
            f" iterations = {self.n_iterations}"
        )
        return "\n".join(lines)


def format_with_uncertainty(value, sigma):
    """Parenthetical 1-sigma-on-last-digit notation, e.g. 6.0(1)e+03."""
    if not (np.isfinite(sigma) and sigma > 0):
        return f"{value:.6g}"
    exp_sigma = int(math.floor(math.log10(abs(sigma))))
    sig_digit = int(round(sigma / 10.0**exp_sigma))
    if sig_digit == 10:  # rounding bumped a digit, e.g. 0.96 -> 1
        sig_digit, exp_sigma = 1, exp_sigma + 1
    if value == 0:
        exp_val = exp_sigma
    else:
        exp_val = int(math.floor(math.log10(abs(value))))
        exp_val = max(exp_val, exp_sigma)
    digits = exp_val - exp_sigma
    mantissa = value / 10.0**exp_val
    return f"{mantissa:.{digits}f}({sig_digit})e{exp_val:+03d}"


def _prepare(model, init):
    p0 = np.asarray(init, dtype=float).copy()
    if len(p0) != len(model.names):
        raise InvalidParameterError("init length does not match parameter names")
    fixed = np.array(model.fixed) if model.fixed is not None else np.zeros(len(p0), bool)
    lo = np.full(len(p0), -np.inf)
    hi = np.full(len(p0), np.inf)
    if model.bounds is not None:
        for i, (a, b) in enumerate(model.bounds):
            if a is not None:
                lo[i] = a
            if b is not None:
                hi[i] = b
    return p0, ~fixed, lo, hi


def _jacobian(func, params, x, free_idx, y_err):
    """Central finite differences over the free parameters, one row per
    data point (a model value independent of x fills its column)."""
    jac = np.empty((len(x), len(free_idx)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j, i in enumerate(free_idx):
            step = max(JAC_REL_STEP * abs(params[i]), JAC_ABS_FLOOR)
            p_hi = params.copy()
            p_lo = params.copy()
            p_hi[i] += step
            p_lo[i] -= step
            jac[:, j] = (func(p_hi, x) - func(p_lo, x)) / (2.0 * step) / y_err
    return jac


def _check_rank(jac, jtj):
    """Raise when a column-normalized Jacobian is rank deficient: a zero
    column means a parameter without influence, proportional columns mean an
    exact degeneracy. Column normalization makes the check insensitive to
    parameter scale.

    ``jtj`` is ``jac.T @ jac``. A well-conditioned Jacobian passes on its
    normalized k x k form; every other one, including any whose squared
    column norms overflow or come near underflow, is decided by the SVD of
    the normalized Jacobian."""
    if not np.all(np.isfinite(jac)):
        raise SingularJacobianError(
            "non-finite Jacobian: model not differentiable at current parameters"
        )
    sq_norms = np.diag(jtj)
    if sq_norms.min() >= _GRAM_MIN_SQ_NORM and sq_norms.max() < np.inf:
        norms = np.sqrt(sq_norms)
        eig = np.linalg.eigvalsh(jtj / np.outer(norms, norms))
        if eig[0] > _GRAM_SCREEN_RTOL * eig[-1]:
            return
    norms = np.linalg.norm(jac, axis=0)
    if np.any(norms == 0.0):
        raise SingularJacobianError(
            "rank-deficient Jacobian: a parameter has no influence on the model"
        )
    svals = np.linalg.svd(jac / norms, compute_uv=False)
    if svals[-1] <= SINGULAR_RTOL * svals[0]:
        raise SingularJacobianError(
            "rank-deficient Jacobian: parameters are exactly degenerate"
        )


def fit_nonlinear(model: FitModel, x, y, y_err=None, init=None,
                  max_iterations=MAX_ITERATIONS) -> FitResult:
    """Levenberg-Marquardt minimization of sum(((y - f(x))/y_err)^2).

    Accepted steps never increase the cost. Convergence when the relative
    cost change or the relative step norm drops below 1e-10; non-convergence
    is reported through ``converged = False``, not an exception. A rank-
    deficient Jacobian (a parameter without influence, or an exact parameter
    degeneracy) raises SingularJacobianError.

    With uniform/absent ``y_err`` the covariance is scaled by the reduced
    chi-square, so the quoted uncertainties reflect the observed scatter.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if init is None:
        raise InvalidParameterError("init is required")
    p, free, lo, hi = _prepare(model, init)
    free_idx = np.flatnonzero(free)
    n_free = len(free_idx)
    if len(x) != len(y):
        raise InvalidParameterError("x and y must have equal length")
    if len(y) < n_free + 1:
        raise InvalidParameterError("need at least n_free + 1 data points")

    uniform_err = y_err is None or np.isscalar(y_err)
    err = float(y_err) if np.isscalar(y_err) and y_err else 1.0
    if not uniform_err:
        err = np.asarray(y_err, dtype=float)
        if np.allclose(err, err[0]):
            uniform_err = True

    def residuals(params):
        # trial steps may probe wild parameter values; non-finite costs are
        # rejected by the step-acceptance test, so silence the transients
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return (y - model.func(params, x)) / err

    r = residuals(p)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    n_iter = 0

    for n_iter in range(1, max_iterations + 1):
        jac = _jacobian(model.func, p, x, free_idx, err)
        with np.errstate(over="ignore", invalid="ignore"):
            jtj = jac.T @ jac  # non-finite or overflowed: _check_rank reports it
        _check_rank(jac, jtj)
        grad = jac.T @ r
        diag = np.diag(np.diag(jtj))

        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(jtj + lam * diag, grad)
            except np.linalg.LinAlgError:
                lam *= 5.0
                continue
            p_new = p.copy()
            p_new[free_idx] += step
            p_new = np.clip(p_new, lo, hi)
            r_new = residuals(p_new)
            cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                accepted = True
                break
            lam *= 5.0
        if not accepted:
            break

        rel_step = np.linalg.norm(p_new[free_idx] - p[free_idx]) / max(
            np.linalg.norm(p[free_idx]), 1e-300
        )
        rel_dcost = (cost - cost_new) / max(cost, 1e-300)
        p, r, cost = p_new, r_new, cost_new
        lam = max(lam / 3.0, 1e-14)
        if rel_dcost < COST_TOL or rel_step < STEP_TOL:
            converged = True
            break

    jac = _jacobian(model.func, p, x, free_idx, err)
    dof = max(len(y) - n_free, 1)
    chi2_reduced = cost / dof
    try:
        if not np.all(np.isfinite(jac)):
            raise np.linalg.LinAlgError("non-finite Jacobian")
        cov_free = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        cov_free = np.full((n_free, n_free), np.nan)
    if uniform_err:
        cov_free = cov_free * chi2_reduced
    cov = np.zeros((len(p), len(p)))
    cov[np.ix_(free_idx, free_idx)] = cov_free
    sigma = np.sqrt(np.clip(np.diag(cov), 0.0, None))

    return FitResult(model.names, p, sigma, cov, chi2_reduced, converged, n_iter)


# ---------------------------------------------------------------------------
# Concrete models


def _reflection_phase_func(params, x):
    q, beta, k, phi0 = params
    qd = q * x
    return 4.0 * beta * qd / ((2.0 * qd) ** 2 + (1.0 - beta**2)) + k * x + phi0


def reflection_phase_model(fixed=None) -> FitModel:
    return FitModel(
        names=("q", "beta", "k", "phi0"),
        func=_reflection_phase_func,
        bounds=((0.0, None), (0.0, None), (None, None), (None, None)),
        fixed=fixed,
    )


def fit_reflection_phase(x, y, init, y_err=None, x_scale=None,
                         max_iterations=MAX_ITERATIONS) -> FitResult:
    """Fit the single-port reflection-phase response over (Q, beta, k, phi0).

    ``x`` is the probe-cavity fractional detuning; pass ``x_scale`` (the
    cavity frequency in Hz) to fit data recorded against absolute detuning.
    ``init`` maps parameter names to starting values (k, phi0 default to 0).
    """
    x = np.asarray(x, dtype=float)
    if x_scale is not None:
        x = x / x_scale
    p0 = [init["q"], init["beta"], init.get("k", 0.0), init.get("phi0", 0.0)]
    result = fit_nonlinear(reflection_phase_model(), x, y, y_err=y_err, init=p0,
                           max_iterations=max_iterations)
    return replace(result, model_name="reflection_phase")


def _exponential_func(params, x):
    amplitude, tau, offset = params
    return amplitude * np.exp(-x / tau) + offset


def exponential_model(fixed=None) -> FitModel:
    return FitModel(
        names=("amplitude", "tau", "offset"),
        func=_exponential_func,
        bounds=((None, None), (1e-300, None), (None, None)),
        fixed=fixed,
    )


def fit_exponential(t, y, init, y_err=None,
                    max_iterations=MAX_ITERATIONS) -> FitResult:
    """Fit y = amplitude * exp(-t/tau) + offset."""
    p0 = [init["amplitude"], init["tau"], init.get("offset", 0.0)]
    result = fit_nonlinear(exponential_model(), np.asarray(t, float), y,
                           y_err=y_err, init=p0, max_iterations=max_iterations)
    return replace(result, model_name="exponential")


def shift_vs_field_model(ens: SpinEnsembleParams, cav: CavityParams,
                         polarization=1.0) -> FitModel:
    """Phase vs magnetic field with (n_spins, t2_star) free.

    The coupling g and all geometry enter through ``ens`` and stay fixed:
    the model depends only on the product N*g^2, so floating g alongside
    n_spins would be exactly degenerate.
    """

    slope = (cav.resonant_slope + cav.k) / cav.omega_c

    def func(params, b):
        n_spins, t2_star = params
        sigma = 1.0 / (2.0 * math.pi * t2_star)
        delta = cav.omega_c - transition_frequency(b, ens)
        shift = (
            polarization * n_spins * ens.g**2 * (math.sqrt(2.0) / sigma)
            * dawson(delta / (math.sqrt(2.0) * sigma))
        )
        return slope * shift

    return FitModel(
        names=("n_spins", "t2_star"),
        func=func,
        bounds=((1.0, None), (1e-300, None)),
    )


def fit_shift_vs_field(b, y, fixed, init, y_err=None,
                       max_iterations=MAX_ITERATIONS) -> FitResult:
    """Fit the field sweep of the linearized dispersive phase over
    (n_spins, t2_star).

    ``fixed`` carries the non-fitted physics: {"ensemble": SpinEnsembleParams
    (provides g, the Zeeman model and geometry), "cavity": CavityParams,
    "polarization": float (default 1.0)}.
    """
    model = shift_vs_field_model(
        fixed["ensemble"], fixed["cavity"], fixed.get("polarization", 1.0)
    )
    p0 = [init["n_spins"], init["t2_star"]]
    result = fit_nonlinear(model, np.asarray(b, float), y, y_err=y_err, init=p0,
                           max_iterations=max_iterations)
    return replace(result, model_name="shift_vs_field")

