"""Per-hour time-series filtering of forecast errors.

Three filters are available: a raw pass-through, an AR(1)-GARCH(1,1)
estimated by Gaussian quasi-maximum likelihood, and a seasonal AR model
(one regular and one seasonal AR coefficient, homoskedastic residuals)
estimated by conditional least squares.  A ``FilterSpec`` names one model:
its kind, and the period of the seasonal AR only.  ``fit_filter`` fits an
(n, H) error window of H hours, each column on its own, and
``filter_output`` recomputes the paths of a window for given params; a
one-hour caller passes an (n, 1) window.  Both yield, by one function for
all three filters, the (n, H) conditional standard deviation paths over the
learning window, the (n, H) standardized residuals, and a one-step-ahead
(mu, sigma) forecast for the target day, two (H,) arrays.

Both fitted filters minimize their objective, with its analytic gradient,
by one BFGS search over all H hours at once; every hour keeps its own search
state and sees only its own column, so its estimate does not depend on the
hours that share its window.  An hour whose search does not converge is
searched again from its best point plus a seeded jitter, up to 4 times; a
fit with an hour whose 5 searches all fail raises ``FitError``, and the
backtest skips the setting's days of that block.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import signal
from scipy.special import expit

RAW = "raw"
AR_GARCH = "argarch"
SARIMA = "sarima"

_MIN_ARGARCH_WINDOW = 100
_ONE = np.ones(1)
# BFGS stopping rules (see _bfgs); a relative decrease of 1e-12 instead of
# _FTOL stopped early on the flat alpha -> 0 ridge of the likelihood.  An
# unconverged hour gets up to _RESTARTS more searches.
_MAXITER = 500
_GTOL = 1e-8
_FTOL = 1e-14
_RESTARTS = 4


class FitError(RuntimeError):
    """Filter estimation failed (non-convergence, degenerate input, short window)."""


@dataclass(frozen=True)
class FilterSpec:
    """A filter kind and the seasonal AR's period (default 7); None for the other kinds."""

    kind: str = RAW
    seasonal_period: int | None = None

    def __post_init__(self):
        if self.kind not in (RAW, AR_GARCH, SARIMA):
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.kind != SARIMA or self.seasonal_period is None:
            object.__setattr__(self, "seasonal_period", 7 if self.kind == SARIMA else None)
        elif not (isinstance(self.seasonal_period, numbers.Integral)
                  and self.seasonal_period >= 2):
            raise ValueError(f"seasonal_period must be an integer >= 2, "
                             f"got {self.seasonal_period!r}")


@dataclass(frozen=True)
class ArGarchParams:
    c: float
    phi: float
    omega: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.omega > 0 and self.alpha >= 0 and self.beta >= 0):
            raise ValueError("require omega > 0, alpha >= 0, beta >= 0")
        if not self.alpha + self.beta < 1:
            raise ValueError("require alpha + beta < 1")
        if not abs(self.phi) < 1:
            raise ValueError("require |phi| < 1")


@dataclass(frozen=True)
class SarimaParams:
    c: float
    phi1: float
    seasonal_phi: float
    sigma: float

    def __post_init__(self):
        if not (abs(self.phi1) < 1 and abs(self.seasonal_phi) < 1):
            raise ValueError("require |phi1| < 1 and |seasonal_phi| < 1")
        if not self.sigma > 0:
            raise ValueError("require sigma > 0")


@dataclass(frozen=True)
class FilterOutput:
    """Filtered (n, H) paths over the learning window plus the one-step forecast.

    ``one_step`` is (mu, sigma), two (H,) arrays.
    """

    sigma_hat: np.ndarray
    z: np.ndarray
    one_step: tuple  # (mu, sigma) for the target day


def _rows(errors) -> np.ndarray:
    """An (n, H) window as (H, n), one contiguous row per hour, in new memory."""
    eps = np.asarray(errors, dtype=float)
    if eps.ndim != 2 or eps.size < 1:
        raise FitError(f"error window must be a non-empty (n, H) array, got shape {eps.shape}; "
                       "pass one hour as (n, 1)")
    return np.array(eps.T, order="C")


def _hours(columns) -> str:
    """' for hours ...' naming ``columns`` as 1-based hours."""
    return " for hours " + ", ".join(str(h + 1) for h in columns)


# ---------------------------------------------------------------------------
# AR(1)-GARCH(1,1) quasi-maximum likelihood
# ---------------------------------------------------------------------------

def _ar1_filter(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """y_t = x_t + beta*y_{t-1} along each row of x, with that row's beta.

    ``lfilter`` takes one denominator per call, so it runs once per row.
    """
    y = np.empty(x.shape)
    a = np.ones((len(beta), 2))
    a[:, 1] = -beta
    for i in range(len(beta)):
        y[i] = signal.lfilter(_ONE, a[i], x[i])
    return y


def _argarch_paths(eps, c, phi, omega, alpha, beta):
    """Mean residuals and conditional variance paths, one hour per row.

    ``eps`` is (H, n) and the parameters are (H,).  The first observation
    uses the unconditional mean c/(1-phi); the variance recursion
    h_t = omega + alpha*e_{t-1}^2 + beta*h_{t-1} is seeded with the sample
    variance of the mean residuals.  Returns (e, h) with e the (H, n) mean
    residuals and h the (H, n + 1) variances: the paths, then the one-step
    forecasts.
    """
    n = eps.shape[1]
    e = np.empty_like(eps)
    e[:, 0] = eps[:, 0] - c / (1.0 - phi)
    e[:, 1:] = eps[:, 1:] - c[:, None] - phi[:, None] * eps[:, :-1]
    e2 = e * e
    h0 = e2.sum(axis=1) / n
    x = np.empty((eps.shape[0], n + 1))
    x[:, 0] = np.where(h0 > 0.0, h0, 1e-12)
    np.multiply(alpha[:, None], e2, out=x[:, 1:])
    x[:, 1:] += omega[:, None]
    return e, _ar1_filter(x, beta)


def _argarch_objective(theta, eps):
    """Negative log-likelihoods and their gradients with respect to ``theta``.

    ``theta`` is (H, 5), one transformed parameter vector per hour, and
    ``eps`` (H, n), one error window per row; returns the (H,) NLLs and the
    (H, 5) gradients.  The gradient runs the variance recursion backwards
    (the adjoint): lam_t = dL/dh_t + beta*lam_{t+1} is the total derivative
    of the likelihood with respect to h_t, including its effect on later
    variances.  Hours where the likelihood is not finite return (inf, 0).
    """
    c, phi, omega, alpha, beta = _argarch_untransform(theta)
    n = eps.shape[1]
    with np.errstate(all="ignore"):
        e, h = _argarch_paths(eps, c, phi, omega, alpha, beta)
        h = h[:, :-1]
        e2 = e * e
        inv_h = 1.0 / h
        u = e2 * inv_h
        nll = 0.5 * (n * math.log(2.0 * math.pi) + np.log(h).sum(axis=1) + u.sum(axis=1))
        # lam2 = 2*lam, from dL/dh_t = 0.5*(1 - u_t)/h_t
        lam2 = np.ascontiguousarray(_ar1_filter(((1.0 - u) * inv_h)[:, ::-1], beta)[:, ::-1])
        lam2_next = lam2[:, 1:]
        # dL/de_t: directly, through h_{t+1}, and through h_0 = mean(e^2)
        d_e = (inv_h + lam2[:, :1] / n) * e
        d_e[:, :-1] += alpha[:, None] * lam2_next * e[:, :-1]
        grad = np.empty(theta.shape)
        grad[:, 0] = -d_e[:, 1:].sum(axis=1) - d_e[:, 0] / (1.0 - phi)
        grad[:, 1] = (-(d_e[:, 1:] * eps[:, :-1]).sum(axis=1)
                      - d_e[:, 0] * c / (1.0 - phi) ** 2) * (1.0 - phi * phi)
        d_omega = 0.5 * lam2_next.sum(axis=1)
        d_alpha = 0.5 * (lam2_next * e2[:, :-1]).sum(axis=1)
        d_beta = 0.5 * (lam2_next * h[:, :-1]).sum(axis=1)
        # chain rule through _argarch_untransform
        persistence, share = expit(theta[:, 3]), expit(theta[:, 4])
        grad[:, 2] = np.where(np.abs(theta[:, 2]) < 700.0, d_omega * omega, 0.0)
        grad[:, 3] = (d_alpha * share + d_beta * (1.0 - share)) * np.where(
            persistence < 1.0 - 1e-8, persistence * (1.0 - persistence), 0.0)
        grad[:, 4] = ((d_alpha - d_beta) * np.minimum(persistence, 1.0 - 1e-8)
                      * share * (1.0 - share))
        bad = ~np.isfinite(nll + grad.sum(axis=1))
    if bad.any():
        nll[bad] = math.inf
        grad[bad] = 0.0
    return nll, grad


def _argarch_untransform(theta):
    """(c, phi, omega, alpha, beta) from transformed parameters ``theta`` (..., 5)."""
    c = theta[..., 0]
    # keep strictly inside the parameter space even when the search saturates
    phi = np.minimum(np.maximum(np.tanh(theta[..., 1]), -1.0 + 1e-12), 1.0 - 1e-12)
    omega = np.exp(np.minimum(np.maximum(theta[..., 2], -700.0), 700.0))
    persistence = np.minimum(expit(theta[..., 3]), 1.0 - 1e-8)
    share = expit(theta[..., 4])
    return c, phi, omega, persistence * share, persistence * (1.0 - share)


def _argarch_start(eps: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Moment-based transformed start per row of the (H, n) windows ``eps``.

    phi from the lag-1 autocorrelation, c from the mean, and the GARCH part
    at (omega, alpha, beta) = (0.1*var, 0.05, 0.9).
    """
    mean = eps.mean(axis=1)
    demeaned = eps - mean[:, None]
    phi = np.clip((demeaned[:, 1:] * demeaned[:, :-1]).sum(axis=1)
                  / (demeaned * demeaned).sum(axis=1), -0.95, 0.95)
    persistence, share = 0.05 + 0.9, 0.05 / (0.05 + 0.9)
    ones = np.ones(eps.shape[0])
    return np.column_stack([mean * (1.0 - phi), np.arctanh(phi), np.log(0.1 * var),
                            math.log(persistence / (1.0 - persistence)) * ones,
                            math.log(share / (1.0 - share)) * ones])


def _bfgs(fun, x0, args, h0):
    """Minimize k independent objectives at once by BFGS.

    ``fun(x, args)`` takes parameter rows x (j, d) and the matching rows of
    ``args`` and returns the j objective values and their (j, d) gradients.
    ``h0`` (k, d) is the diagonal of each row's initial inverse Hessian, the
    metric of the first step.  Every row keeps its own inverse-Hessian
    approximation and line search, and each call passes only the rows still
    searching, so no row's result depends on the other rows.  The line
    search backtracks from the full step (a step of unit length in the h0
    metric on the first iteration) to the argmin of a quadratic
    interpolant, kept in [0.1, 0.5] times the last trial, until the Armijo
    condition holds.  After the first step the inverse Hessian restarts from
    diag(h0) scaled by s'y/y'diag(h0)y; the update is skipped when
    s'y <= 1e-10 |s||y|, and a direction that is not a finite descent
    direction restarts from diag(h0).  A row converges when
    max |gradient| <= _GTOL or an accepted step lowers its objective by a
    relative _FTOL or less.  It fails when its objective is not finite at
    x0, when backtracking no longer moves it, or when it reaches _MAXITER
    iterations.

    Returns (x, f, converged), with x (k, d) and f and converged (k,).
    """
    x_out = np.array(x0, dtype=float)
    k, d = x_out.shape
    f_out, g = fun(x_out, args)
    converged = np.max(np.abs(g), axis=1) <= _GTOL
    diag = np.asarray(h0, dtype=float)[:, :, None] * np.eye(d)
    p = -h0 * g
    slope = (g * p).sum(axis=1)
    with np.errstate(divide="ignore"):
        step = np.minimum(1.0, 1.0 / np.sqrt(-slope))
    # the search state holds only the rows still searching, in ``rows`` order
    keep = np.isfinite(f_out) & np.isfinite(slope) & ~converged
    rows = np.flatnonzero(keep)
    x, f, g, p, slope, step, diag, args = (
        v[keep] for v in (x_out, f_out, g, p, slope, step, diag, args))
    hinv, nit = diag, np.zeros(rows.size, dtype=int)
    while rows.size:
        trial = x + step[:, None] * p
        f_new, g_new = fun(trial, args)
        ok = f_new <= f + 1e-4 * step * slope
        accepted, rejected = ok.any(), not ok.all()
        finished = np.zeros(rows.size, dtype=bool)
        with np.errstate(all="ignore"):
            if rejected:
                # backtrack; a step that no longer moves x ends the search
                t_back = np.minimum(np.maximum(
                    -slope * step * step / (2.0 * (f_new - f - slope * step)), 0.1 * step),
                    0.5 * step)
                finished |= ~ok & ~(np.isfinite(t_back)
                                    & np.any(x + t_back[:, None] * p != x, axis=1))
            if accepted:
                nit += ok
                s, y = step[:, None] * p, g_new - g
                sy = (s * y).sum(axis=1)
                curved = sy > 1e-10 * np.sqrt((s * s).sum(axis=1) * (y * y).sum(axis=1))
                h = hinv
                first = curved & (nit == 1)
                if first.any():
                    ydy = (y * (diag * y[:, None, :]).sum(axis=2)).sum(axis=1)
                    h = np.where(first[:, None, None], (sy / ydy)[:, None, None] * diag, h)
                hy = (h * y[:, None, :]).sum(axis=2)
                h = np.where(curved[:, None, None],
                             h + (((sy + (y * hy).sum(axis=1)) / (sy * sy))[:, None, None]
                                  * (s[:, :, None] * s[:, None, :])
                                  - (hy[:, :, None] * s[:, None, :]
                                     + s[:, :, None] * hy[:, None, :]) / sy[:, None, None]), h)
                p_new = -(h * g_new[:, None, :]).sum(axis=2)
                slope_new = (g_new * p_new).sum(axis=1)
                reset = ~(np.isfinite(slope_new) & (slope_new < 0.0))
                if reset.any():
                    h = np.where(reset[:, None, None], diag, h)
                    p_new = np.where(reset[:, None], -(diag * g_new[:, None, :]).sum(axis=2),
                                     p_new)
                    slope_new = (g_new * p_new).sum(axis=1)
                decrease = (f - f_new) / np.maximum(np.maximum(np.abs(f), np.abs(f_new)), 1.0)
                done = ok & ((np.max(np.abs(g_new), axis=1) <= _GTOL) | (decrease <= _FTOL))
                converged[rows[done]] = True
                finished |= done | (nit >= _MAXITER)
        if not rejected:
            x, f, g, hinv, p, slope = trial, f_new, g_new, h, p_new, slope_new
            step = np.ones(rows.size)
        elif not accepted:
            step = t_back
        else:
            x = np.where(ok[:, None], trial, x)
            f = np.where(ok, f_new, f)
            g = np.where(ok[:, None], g_new, g)
            hinv = np.where(ok[:, None, None], h, hinv)
            p = np.where(ok[:, None], p_new, p)
            slope = np.where(ok, slope_new, slope)
            step = np.where(ok, 1.0, t_back)
        if finished.any():
            x_out[rows[finished]], f_out[rows[finished]] = x[finished], f[finished]
            keep = ~finished
            rows, x, f, g, p, slope, step, hinv, diag, nit, args = (
                v[keep] for v in (rows, x, f, g, p, slope, step, hinv, diag, nit, args))
    return x_out, f_out, converged


def _search(objective, theta0, rows, h0, seed, what):
    """Minimize ``objective`` for each of the k ``rows`` from (k, d) ``theta0``.

    One ``_bfgs`` search runs on all rows; those that do not converge are
    searched again, together, up to 4 times, each from its lowest point theta
    plus 0.1 * max(|theta|, 1) * jitter, the jitters one (4, d) standard
    normal draw from ``Philox(seed)``.  Returns the (k, d) lowest points, or
    raises ``FitError`` naming ``what`` and the hours whose 5 searches fail.
    """
    theta, f, converged = _bfgs(objective, theta0, rows, h0)
    rng = np.random.Generator(np.random.Philox(seed))
    for z in rng.standard_normal((_RESTARTS, theta.shape[1])):
        retry = np.flatnonzero(~converged)
        if not retry.size:
            break
        start = theta[retry] + 0.1 * np.maximum(np.abs(theta[retry]), 1.0) * z
        x, f_retry, converged[retry] = _bfgs(objective, start, rows[retry], h0[retry])
        better = f_retry < f[retry]
        theta[retry[better]], f[retry[better]] = x[better], f_retry[better]
    if not converged.all():
        raise FitError(f"{what} did not converge after {_RESTARTS + 1} attempts"
                       f"{_hours(np.flatnonzero(~converged))}")
    return theta


def _params(cls, columns, what) -> list:
    """One ``cls(*values)`` per hour from (H,) ``columns``; ``FitError`` if ``cls`` refuses one."""
    params = []
    for h, values in enumerate(zip(*(v.tolist() for v in columns))):
        try:
            params.append(cls(*values))
        except ValueError as exc:
            raise FitError(f"{what} estimate outside parameter space"
                           f"{_hours([h])}: {exc}") from None
    return params


def _fit_argarch(rows: np.ndarray, seed: int) -> list:
    """Fit AR(1)-GARCH(1,1) by Gaussian QMLE to (H, n) ``rows``, one hour per row.

    The search runs in a transformed unconstrained space, so the stationarity
    and positivity constraints hold by construction, and uses the analytic
    gradient of the likelihood.  It starts from moment estimates and runs
    ``_search``.  Returns a list of one ``ArGarchParams`` per row.
    """
    n = rows.shape[1]
    if n < _MIN_ARGARCH_WINDOW:
        raise FitError(f"AR-GARCH needs >= {_MIN_ARGARCH_WINDOW} observations, got {n}")
    var = np.var(rows, axis=1)
    if np.any(var <= 0.0):
        raise FitError(f"constant input series{_hours(np.flatnonzero(var <= 0.0))}: "
                       "AR-GARCH fit is undefined")

    theta0 = _argarch_start(rows, var)
    # the first step's metric scales c with the data, so the search path
    # does not depend on the units of the errors
    h0 = np.column_stack([var, np.ones((len(var), 4))])
    theta = _search(_argarch_objective, theta0, rows, h0, seed, "AR-GARCH QMLE")
    return _params(ArGarchParams, _argarch_untransform(theta), "AR-GARCH")


# ---------------------------------------------------------------------------
# Seasonal AR by conditional least squares
# ---------------------------------------------------------------------------

def _sarima_objective(theta, eps, s):
    """Half the mean squared residual of the seasonal AR, (H,), and its (H, 3) gradient.

    ``theta`` holds one (c, phi1, seasonal_phi) per row of the (H, n) ``eps``;
    the residuals of days s+1 .. n-1 are those of the multiplicative AR.
    """
    c, phi1, sphi = (theta[:, [i]] for i in range(3))
    lag1, lag_s, lag_s1 = eps[:, s:-1], eps[:, 1:-s], eps[:, :-s - 1]
    r = eps[:, s + 1:] - c - phi1 * lag1 - sphi * lag_s + phi1 * sphi * lag_s1
    grad = -np.column_stack([r.mean(axis=1), (r * (lag1 - sphi * lag_s1)).mean(axis=1),
                             (r * (lag_s - phi1 * lag_s1)).mean(axis=1)])
    return 0.5 * (r * r).mean(axis=1), grad


def _fit_sarima(rows: np.ndarray, s: int, seed: int) -> list:
    """Fit the seasonal AR model to (H, n) ``rows`` by conditional least squares.

    With no MA terms, conditional least squares on the multiplicative
    representation is exact.  ``_search`` fits each row divided by its
    standard deviation, so the search does not depend on the units, from
    (mean, 0, 0).  The constant sigma path is sqrt(SSR / (N - 1)) over the N
    residuals.  Returns a list of one ``SarimaParams`` per row.
    """
    if rows.shape[1] < 3 * s:
        raise FitError(f"seasonal AR needs >= {3 * s} observations, got {rows.shape[1]}")
    sd = np.std(rows, axis=1)
    if np.any(sd <= 0.0):
        raise FitError(f"constant input series{_hours(np.flatnonzero(sd <= 0.0))}: "
                       "seasonal AR fit is undefined")

    z = rows / sd[:, None]
    theta0 = np.column_stack([z.mean(axis=1), np.zeros((len(z), 2))])
    objective = functools.partial(_sarima_objective, s=s)
    theta = _search(objective, theta0, z, np.ones(theta0.shape), seed,
                    "seasonal AR conditional least squares")
    n_res = rows.shape[1] - s - 1
    sigma = sd * np.sqrt(2.0 * objective(theta, z)[0] * n_res / (n_res - 1))
    return _params(SarimaParams, (sd * theta[:, 0], *theta[:, 1:].T, sigma), "seasonal AR")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _paths(rows: np.ndarray, spec: FilterSpec, params) -> FilterOutput:
    """Filtered paths and one-step forecasts of (H, n) ``rows`` for an existing estimate.

    ``params`` holds one estimate per row.  Every filter computes its (H, n)
    paths and (H,) forecasts on the rows, one hour per row; the paths are
    then returned as (n, H).
    """
    if spec.kind == RAW:
        sigma, z = np.ones(rows.shape), rows
        mu_next, sigma_next = np.zeros(len(rows)), np.ones(len(rows))
    elif spec.kind == AR_GARCH:
        c, phi, omega, alpha, beta = (np.array(v) for v in zip(
            *((p.c, p.phi, p.omega, p.alpha, p.beta) for p in params)))
        e, h = _argarch_paths(rows, c, phi, omega, alpha, beta)
        sd = np.sqrt(h)
        sigma, z = sd[:, :-1], e / sd[:, :-1]
        mu_next, sigma_next = c + phi * rows[:, -1], sd[:, -1]
    else:
        s = spec.seasonal_period
        c, phi1, sphi, sig = (np.array(v)[:, None] for v in zip(
            *((p.c, p.phi1, p.seasonal_phi, p.sigma) for p in params)))
        # the conditional means of days s+1 .. n, the last one the target day's
        mean = (c + phi1 * rows[:, s:] + sphi * rows[:, 1:rows.shape[1] + 1 - s]
                - phi1 * sphi * rows[:, :-s])
        mu = np.full(rows.shape, c / ((1.0 - phi1) * (1.0 - sphi)))
        mu[:, s + 1:] = mean[:, :-1]
        sigma = np.full(rows.shape, sig)
        z = (rows - mu) / sigma
        mu_next, sigma_next = mean[:, -1], sig[:, 0]
    return FilterOutput(np.ascontiguousarray(sigma.T), np.ascontiguousarray(z.T),
                        (mu_next, sigma_next))


def fit_filter(errors, spec: FilterSpec, seed: int = 0):
    """Fit the filter named by ``spec`` to an (n, H) error window.

    Each column is one hour, fitted on its own; both fitted filters search
    all hours at once (see ``_search``).  A one-hour caller passes an (n, 1)
    window.  Returns ``(params, FilterOutput)``: a list of H params and the
    window's (n, H) paths.  Params are None for the raw filter, which is the
    identity with one-step forecast (0, 1).
    """
    rows = _rows(errors)
    if spec.kind == AR_GARCH:
        params = _fit_argarch(rows, seed)
    elif spec.kind == SARIMA:
        params = _fit_sarima(rows, spec.seasonal_period, seed)
    else:  # the raw filter has no params: None per column
        params = [None] * len(rows)
    # _paths, not filter_output: bench/spans.py counts filter_output's calls as passes
    return params, _paths(rows, spec, params)


def filter_output(eps, spec: FilterSpec, params) -> FilterOutput:
    """Recompute the paths of an (n, H) window for ``fit_filter``'s list of H params."""
    return _paths(_rows(eps), spec, params)
