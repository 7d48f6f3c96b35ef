"""Nonlinear least squares: a damped Gauss-Newton (Levenberg-Marquardt)
engine with finite-difference Jacobians, plus the three concrete models
used throughout the package (reflection phase, mono-exponential relaxation,
dispersive shift vs magnetic field).

The exponential is fitted by variable projection (Golub & Pereyra, SIAM J.
Numer. Anal. 10, 413 (1973)): the engine iterates over tau alone, and the
amplitude and offset, which enter linearly, are solved exactly at each tau.

A model's ``func`` must be pure in (params, x): its value depends on
nothing else, and it writes neither argument. The engine evaluates it on a
private copy of x that no one can write to, and a central-difference step
changes one parameter at a time, so the reflection phase and the shift vs
field keep the costly part of their last evaluation and reuse it while the
parameters that part reads keep their bits: the resonant term in (q, beta)
of the reflection phase, and the field's detuning grid and the Dawson
profile in t2_star of the shift vs field. The reused part is the same
array the formula would compute again, so results keep every bit.

A fit allocates its n x k Jacobian once: every iteration's Jacobian and
the final one behind the covariance fill the same buffer, each column
with the same floating-point operations as a freshly built one, and the
models add their terms in place. The n x k scan for non-finite entries
runs only when ``jac.T @ jac`` is not finite.

A fit decides once what a floating-point error does: ``fit_nonlinear``
and the exponential's projection run with overflow, invalid operations and
division by zero ignored, because trial steps probe wild parameter values,
so no fit warns.
Non-finite values are handled where the fit acts on them: the data check
rejects them, the step-acceptance test refuses a step whose cost is not
finite, the rank check raises on a non-finite Jacobian, and a covariance
that cannot be computed is NaN (its sigma is null in the report).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameterError, SingularJacobianError
from .params import (
    CavityParams,
    SpinEnsembleParams,
    check_count,
    is_finite_number,
    linewidth,
)
from .physics import (
    add_phase_background,
    check_polarization,
    check_real,
    ensemble_profile,
    ensemble_shift,
    reflection_resonance,
    transition_frequency,
)

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

    ``func`` must be pure in (params, x) and write neither; the reflection
    phase and the shift vs field reuse the costly part of their last
    evaluation (see the module docstring). ``bounds`` are per-parameter
    (lo, hi) with None for an open side.
    Parameters named in ``optional`` start at 0 when ``init`` leaves them
    out; every other parameter needs a starting value.
    """

    names: tuple
    func: Callable
    bounds: Optional[tuple] = None
    name: str = "custom"
    optional: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if self.bounds is not None:
            object.__setattr__(self, "bounds", tuple(tuple(b) for b in self.bounds))


@dataclass(frozen=True)
class FitResult:
    names: tuple
    params: np.ndarray        # best-fit values
    sigma: np.ndarray         # 1-sigma uncertainties
    covariance: np.ndarray    # parameter covariance
    chi2_reduced: float
    converged: bool
    n_iterations: int
    model_name: str

    def __getitem__(self, name):
        return float(self.params[self.names.index(name)])

    def report(self) -> dict:
        """JSON-ready fit report; a sigma that cannot be computed is None."""
        return {
            "model": self.model_name,
            "params": {
                n: {"value": float(v), "sigma": float(s) if np.isfinite(s) else None}
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


def _over_power_of_ten(x, exp):
    """x / 10**exp. Where 10.0**exp underflows to 0 (exp = -324, reached by
    a subnormal sigma), x is scaled up by 1e300 first."""
    power = 10.0**exp
    return x / power if power else x * 1e300 / 10.0**(exp + 300)


def format_with_uncertainty(value, sigma):
    """Parenthetical 1-sigma-on-last-digit notation, e.g. 6.0(1)e+03."""
    if not (np.isfinite(value) and np.isfinite(sigma) and sigma > 0):
        return f"{value:.6g}"
    exp_sigma = int(math.floor(math.log10(abs(sigma))))
    sig_digit = int(round(_over_power_of_ten(sigma, exp_sigma)))
    if sig_digit == 10:  # rounding bumped a digit, e.g. 0.96 -> 1
        sig_digit, exp_sigma = 1, exp_sigma + 1
    if value == 0:
        exp_val = exp_sigma
    else:
        exp_val = int(math.floor(math.log10(abs(value))))
        exp_val = max(exp_val, exp_sigma)
    digits = exp_val - exp_sigma
    mantissa = _over_power_of_ten(value, exp_val)
    return f"{mantissa:.{digits}f}({sig_digit})e{exp_val:+03d}"


def start_values(model: FitModel, init) -> np.ndarray:
    """The start vector of ``model`` from ``init``, a mapping of parameter
    names to finite numbers. Parameters in ``model.optional`` default to 0;
    an unknown key, a value that is not a finite number, a missing required
    parameter or a value outside its bounds raises InvalidParameterError
    naming the key."""
    if not isinstance(init, Mapping):
        raise InvalidParameterError(
            f"init must map parameter names to starting values, got {init!r}")
    for key, value in init.items():
        if key not in model.names:
            raise InvalidParameterError(
                f'"init" key {key!r} is not a parameter of model '
                f"'{model.name}' ({', '.join(model.names)})")
        if not is_finite_number(value):
            raise InvalidParameterError(
                f'"init" value for {key!r} must be a finite number, got {value!r}')
    start = {**dict.fromkeys(model.optional, 0.0), **init}
    for name in model.names:
        if name not in start:
            raise InvalidParameterError(
                f'"init" has no starting value for {name!r}, which model '
                f"'{model.name}' needs")
    for name, (lo, hi) in zip(model.names, model.bounds or ()):
        bound = (lo is not None and start[name] < lo and f">= {lo:g}"
                 or hi is not None and start[name] > hi and f"<= {hi:g}")
        if bound:
            raise InvalidParameterError(f'"init" value for {name!r} must be '
                                        f"{bound}, got {start[name]!r}")
    return np.array([start[name] for name in model.names], dtype=float)


def _jacobian(func, params, x, jac):
    """Central finite differences over the parameters into ``jac``, one row
    per data point (a model value independent of x fills its column)."""
    for i in range(len(params)):
        step = max(JAC_REL_STEP * abs(params[i]), JAC_ABS_FLOOR)
        p_hi = params.copy()
        p_lo = params.copy()
        p_hi[i] += step
        p_lo[i] -= step
        np.divide(func(p_hi, x) - func(p_lo, x), 2.0 * step, out=jac[:, i])


def _all_finite(jac, jtj):
    """Whether every entry of ``jac`` is finite, given ``jtj = jac.T @ jac``.
    A non-finite entry of jac makes its column's diagonal entry of jtj non-
    finite, so the n x k scan runs only when the k x k test fails."""
    return bool(np.all(np.isfinite(jtj)) or np.all(np.isfinite(jac)))


def _check_rank(jac, jtj):
    """Raise when a column-normalized Jacobian is rank deficient: a zero
    column means a parameter without influence, proportional columns mean an
    exact degeneracy. Column normalization makes the check insensitive to
    parameter scale.

    ``jtj`` is ``jac.T @ jac``. A well-conditioned Jacobian passes on its
    normalized k x k form; every other one, including any whose squared
    column norms overflow or come near underflow, is decided by the SVD of
    the normalized Jacobian."""
    if not _all_finite(jac, jtj):
        raise SingularJacobianError(
            "non-finite Jacobian: model not differentiable at current parameters"
        )
    sq_norms = np.diag(jtj)
    if sq_norms.min() >= _GRAM_MIN_SQ_NORM and sq_norms.max() < np.inf:
        norms = np.sqrt(sq_norms)
        eig = np.linalg.eigvalsh(jtj / np.outer(norms, norms))
        if eig[0] > _GRAM_SCREEN_RTOL * eig[-1]:
            return
    # each column is scaled, exactly, by a power of two that puts its largest
    # |entry| into [0.5, 1), so no norm overflows or underflows and only a
    # column of zeros reads as no influence
    exponents = np.frexp(np.abs(jac).max(axis=0))[1]
    scaled = np.ldexp(jac, -exponents)
    norms = np.linalg.norm(scaled, axis=0)
    if np.any(norms == 0.0):
        raise SingularJacobianError(
            "rank-deficient Jacobian: a parameter has no influence on the model"
        )
    svals = np.linalg.svd(scaled / norms, compute_uv=False)
    if svals[-1] <= SINGULAR_RTOL * svals[0]:
        raise SingularJacobianError(
            "rank-deficient Jacobian: parameters are exactly degenerate"
        )


def _checked_data(x, y, n_params, max_iterations):
    """``x`` and ``y`` as float arrays, once ``max_iterations`` is a count
    and the data are real, 1-D, of equal length, at least one point more
    than ``n_params`` and finite; InvalidParameterError otherwise."""
    check_count(max_iterations, "max_iterations")
    x, y = check_real(x, "x"), check_real(y, "y")
    if x.ndim != 1 or x.shape != y.shape:
        raise InvalidParameterError("x and y must be 1-D arrays of equal length")
    if len(y) < n_params + 1:
        raise InvalidParameterError(
            f"need at least {n_params + 1} data points for {n_params} "
            f"parameters, got {len(y)}")
    finite = np.isfinite(x) & np.isfinite(y)
    if not finite.all():
        i = int(np.argmin(finite))
        raise InvalidParameterError(
            f"data point {i} is not finite: x = {x[i]}, y = {y[i]}")
    return x, y


def _fit_result(model, p, jac, cost, converged, n_iter):
    """The FitResult of ``model`` at ``p``, whose Jacobian there is ``jac``
    (one row per data point) and whose cost is ``cost``: the covariance is
    inv(jac.T @ jac) scaled by the reduced chi-square, NaN where it cannot
    be computed."""
    n_points, n_params = jac.shape
    chi2_reduced = cost / (n_points - n_params)
    jtj = jac.T @ jac
    try:
        if not _all_finite(jac, jtj):
            raise np.linalg.LinAlgError("non-finite Jacobian")
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.full((n_params, n_params), np.nan)
    cov = cov * chi2_reduced
    sigma = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FitResult(model.names, p, sigma, cov, chi2_reduced, converged, n_iter,
                     model.name)


# the fit's one floating-point policy; the module docstring says where
# non-finite values are handled
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit_nonlinear(model: FitModel, x, y, init,
                  max_iterations=MAX_ITERATIONS) -> FitResult:
    """Levenberg-Marquardt minimization of the unweighted sum((y - f(x))^2),
    from the start vector ``start_values(model, init)``.

    Accepted steps never increase the cost. Convergence when the relative
    cost change or the relative step norm drops below 1e-10; non-convergence
    is reported through ``converged = False``, not an exception. A rank-
    deficient Jacobian (a parameter without influence, or an exact parameter
    degeneracy), or normal equations that no damping makes solvable, raise
    SingularJacobianError; data that is not real
    (``check_real``) or not finite, too few points or a ``max_iterations``
    below 1 or not an integer raise InvalidParameterError.

    The covariance is scaled by the reduced chi-square, so the quoted
    uncertainties reflect the observed scatter.
    """
    p = start_values(model, init)
    n_params = len(p)
    bounds = model.bounds or ((None, None),) * n_params
    lo = np.array([-np.inf if a is None else a for a, _ in bounds], dtype=float)
    hi = np.array([np.inf if b is None else b for _, b in bounds], dtype=float)
    x, y = _checked_data(x, y, n_params, max_iterations)
    # a copy no one can write to, so the built-in models may reuse what they
    # computed from it (see _reuse_last)
    x = np.frombuffer(x.tobytes(), dtype=float)

    r = y - model.func(p, x)
    cost = float(r @ r)
    lam = 1e-3
    converged = False

    jac = np.empty((len(x), n_params))  # every Jacobian of the fit fills it
    for n_iter in range(1, max_iterations + 1):
        _jacobian(model.func, p, x, jac)
        jtj = jac.T @ jac  # non-finite or overflowed: _check_rank reports it
        _check_rank(jac, jtj)
        grad = jac.T @ r
        diag = np.diag(np.diag(jtj))

        accepted = solved = False
        for _ in range(60):
            try:
                step = np.linalg.solve(jtj + lam * diag, grad)
            except np.linalg.LinAlgError:
                lam *= 5.0
                continue
            solved = True
            p_new = np.clip(p + step, lo, hi)
            r_new = y - model.func(p_new, x)
            cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                accepted = True
                break
            lam *= 5.0
        if not solved:  # full rank, but jac.T @ jac underflows (to 0, say)
            raise SingularJacobianError(
                "singular normal equations: the model's derivatives square "
                "to 0 in floating point")
        if not accepted:
            break

        rel_step = np.linalg.norm(p_new - p) / max(np.linalg.norm(p), 1e-300)
        rel_dcost = (cost - cost_new) / max(cost, 1e-300)
        p, r, cost = p_new, r_new, cost_new
        lam = max(lam / 3.0, 1e-14)
        if rel_dcost < COST_TOL or rel_step < STEP_TOL:
            converged = True
            break

    _jacobian(model.func, p, x, jac)
    return _fit_result(model, p, jac, cost, converged, n_iter)


# ---------------------------------------------------------------------------
# Concrete models


def _reuse_last(core):
    """``core(x, *args)``, returning the last value again when called with
    the same ``x`` and ``args`` of the same bits, so a finite-difference step
    in a parameter that ``core`` does not read costs no new evaluation.

    The identity of ``x`` stands for its contents only when ``x`` views a
    bytes object, a buffer no one can write to; ``fit_nonlinear`` evaluates
    on such a copy. Any other ``x`` is evaluated afresh on every call.
    """
    last_x = last_key = last_value = None

    def reused(x, *args):
        nonlocal last_x, last_key, last_value
        key = np.array(args, dtype=float).tobytes()
        if x is last_x and key == last_key:
            return last_value
        value = core(x, *args)
        if type(getattr(x, "base", None)) is bytes:
            value.flags.writeable = False  # shared by later calls
            last_x, last_key, last_value = x, key, value
        return value

    return reused


def reflection_phase_model() -> FitModel:
    """The reflection phase over (q, beta, k, phi0); ``func`` reuses the
    resonant term while only k and phi0 change."""
    resonance = _reuse_last(reflection_resonance)

    def func(params, x):
        q, beta, k, phi0 = params
        return add_phase_background(resonance(x, q, beta), x, k, phi0)

    return FitModel(
        names=("q", "beta", "k", "phi0"),
        func=func,
        bounds=((0.0, None), (0.0, None), (None, None), (None, None)),
        name="reflection_phase",
        optional=("k", "phi0"),
    )


def check_x_scale(x_scale):
    """Raise InvalidParameterError naming ``x_scale`` unless it is None or a
    finite, non-zero number."""
    if x_scale is not None and not (is_finite_number(x_scale) and x_scale != 0):
        raise InvalidParameterError('"x_scale" must be a finite non-zero '
                                    f"number, got {x_scale!r}")


def fit_reflection_phase(x, y, init, x_scale=None,
                         max_iterations=MAX_ITERATIONS) -> FitResult:
    """Fit the single-port reflection-phase response over (Q, beta, k, phi0).

    ``x`` is the probe-cavity fractional detuning; pass ``x_scale`` (the
    cavity frequency in Hz, finite and non-zero) to fit data recorded against
    absolute detuning. ``init`` maps parameter names to starting values (k,
    phi0 default to 0).
    """
    check_x_scale(x_scale)
    x = check_real(x, "x")
    if x_scale is not None:
        x = x / x_scale
    return fit_nonlinear(reflection_phase_model(), x, y, init, max_iterations)


def _decay(t, tau):
    # t / -tau has the bits of -t / tau: division rounds symmetrically in sign
    out = np.divide(t, -tau, out=np.empty(np.shape(t)))
    return np.exp(out, out=out)


def exponential_model() -> FitModel:
    """amplitude * exp(-t/tau) + offset. The amplitude and the offset are
    optional because ``fit_exponential`` solves them at each tau; a plain
    ``fit_nonlinear`` of this model starts a left-out amplitude at 0, where
    tau has no influence, so it needs an amplitude start."""

    def func(params, t):
        amplitude, tau, offset = params
        out = amplitude * _decay(t, tau)
        out += offset
        return out

    return FitModel(
        names=("amplitude", "tau", "offset"),
        func=func,
        bounds=((None, None), (1e-300, None), (None, None)),
        name="exponential",
        optional=("amplitude", "offset"),
    )


def _amplitude(centred, y_centred):
    """The least-squares amplitude of the centred decay against the centred
    data; 0, the least-norm one, when the decay is constant."""
    norm = centred @ centred
    return (centred @ y_centred) / norm if norm else 0.0


# a decay that overflows or a norm of 0 * inf: the policy of fit_nonlinear
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit_exponential(t, y, init, max_iterations=MAX_ITERATIONS) -> FitResult:
    """Fit y = amplitude * exp(-t/tau) + offset: ``fit_nonlinear`` over tau
    alone, on the exact least-squares amplitude and offset at each tau.
    ``init`` needs tau; a given amplitude or offset is checked and otherwise
    unused. The covariance of all three parameters comes from their
    closed-form Jacobian at the solution."""
    model = exponential_model()
    tau = start_values(model, init)[1]
    t, y = _checked_data(t, y, len(model.names), max_iterations)
    y_mean = y.mean()
    y_centred = y - y_mean

    def projected(params, t):
        # the data's mean plus the least-squares amplitude times the centred
        # decay: the least-squares amplitude * decay + offset at this tau (the
        # sum over n has the bits of np.mean, without its overhead)
        out = _decay(t, params[0])
        out -= out.sum() / len(out)
        out *= _amplitude(out, y_centred)
        out += y_mean
        return out

    fit = fit_nonlinear(FitModel(("tau",), projected, model.bounds[1:2], model.name),
                        t, y, {"tau": tau}, max_iterations)
    tau = fit.params[0]
    decay = _decay(t, tau)
    decay_mean = decay.mean()
    centred = decay - decay_mean
    amplitude = _amplitude(centred, y_centred)
    residual = y_centred - amplitude * centred
    # d/d(amplitude, tau, offset) of amplitude * decay + offset
    jac = np.array((decay, decay * (t / tau) * (amplitude / tau), np.ones_like(t))).T
    return _fit_result(model, np.array([amplitude, tau, y_mean - amplitude * decay_mean]),
                       jac, float(residual @ residual), fit.converged, fit.n_iterations)


def shift_vs_field_model(ens: SpinEnsembleParams, cav: CavityParams,
                         polarization=1.0) -> FitModel:
    """Phase vs magnetic field with (n_spins, t2_star) free.

    The coupling g and all geometry enter through ``ens`` and stay fixed:
    the model depends only on the product N*g^2, so floating g alongside
    n_spins would be exactly degenerate. ``func`` computes the detuning grid
    once per field array and reuses the Dawson profile while only n_spins
    changes. A ``polarization`` that ``check_polarization`` rejects raises
    InvalidParameterError when the model is built.
    """

    polarization = check_polarization(polarization)
    slope = cav.phase_slope / cav.omega_c
    detuning = _reuse_last(lambda b: cav.omega_c - transition_frequency(b, ens))
    profile = _reuse_last(lambda b, sigma: ensemble_profile(detuning(b), sigma))

    def func(params, b):
        n_spins, t2_star = params
        sigma = linewidth(t2_star)
        return slope * ensemble_shift(polarization, n_spins, ens.g, sigma,
                                      profile(b, sigma))

    return FitModel(
        names=("n_spins", "t2_star"),
        func=func,
        bounds=((1.0, None), (1e-300, None)),
        name="shift_vs_field",
    )


_FIXED = ("ensemble", "cavity", "polarization")


def fit_shift_vs_field(b, y, fixed, init,
                       max_iterations=MAX_ITERATIONS) -> FitResult:
    """Fit the field sweep of the linearized dispersive phase over
    (n_spins, t2_star).

    ``fixed`` carries the non-fitted physics: {"ensemble": SpinEnsembleParams
    (provides g, the Zeeman model and geometry), "cavity": CavityParams,
    "polarization": float (default 1.0)}. A ``fixed`` that is not a mapping,
    or has another key or lacks a required one, raises InvalidParameterError.
    """
    if not isinstance(fixed, Mapping):
        raise InvalidParameterError("fixed must map 'ensemble', 'cavity' and "
                                    f"optionally 'polarization' to values, got {fixed!r}")
    for key in fixed:
        if key not in _FIXED:
            raise InvalidParameterError(f'"fixed" key {key!r} is not one of '
                                        + ", ".join(map(repr, _FIXED)))
    for key in _FIXED[:2]:
        if key not in fixed:
            raise InvalidParameterError(
                f"\"fixed\" has no {key!r}, which model 'shift_vs_field' needs")
    model = shift_vs_field_model(
        fixed["ensemble"], fixed["cavity"], fixed.get("polarization", 1.0)
    )
    return fit_nonlinear(model, b, y, init, max_iterations)
