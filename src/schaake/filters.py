"""Per-hour time-series filtering of forecast errors.

Three filters are available: a raw pass-through, an AR(1)-GARCH(1,1)
estimated by Gaussian quasi-maximum likelihood, and a seasonal AR model
(one regular and one seasonal AR coefficient, homoskedastic residuals)
estimated by conditional least squares.  Each fit yields conditional mean
and standard deviation paths over the learning window, the standardized
residuals, and a one-step-ahead (mu, sigma) forecast for the target day.

The AR-GARCH likelihood computes the variance recursion with one linear
filter call and its gradient with one more, run backwards (the adjoint
method), and is minimized by L-BFGS-B.  A fit whose searches all fail to
converge raises ``FitError``; the backtest skips that day.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, signal

RAW = "raw"
AR_GARCH = "argarch"
SARIMA = "sarima"

_MIN_ARGARCH_WINDOW = 100


class FitError(RuntimeError):
    """Filter estimation failed (non-convergence, degenerate input, short window)."""


@dataclass(frozen=True)
class FilterSpec:
    kind: str = RAW
    seasonal_period: int = 7

    def __post_init__(self):
        if self.kind not in (RAW, AR_GARCH, SARIMA):
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.kind == SARIMA and self.seasonal_period < 2:
            raise ValueError("seasonal_period must be >= 2")


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
    seasonal_period: int = 7

    def __post_init__(self):
        if not (abs(self.phi1) < 1 and abs(self.seasonal_phi) < 1):
            raise ValueError("require |phi1| < 1 and |seasonal_phi| < 1")
        if not self.sigma > 0:
            raise ValueError("require sigma > 0")


@dataclass(frozen=True)
class FilterOutput:
    """Filtered paths over the learning window plus the one-step forecast."""

    mu_hat: np.ndarray
    sigma_hat: np.ndarray
    z: np.ndarray
    one_step: tuple  # (mu, sigma) for the target day


# ---------------------------------------------------------------------------
# AR(1)-GARCH(1,1) quasi-maximum likelihood
# ---------------------------------------------------------------------------

def _argarch_paths(eps, c, phi, omega, alpha, beta):
    """Mean residuals and conditional variance path.

    The first observation uses the unconditional mean c/(1-phi); the variance
    recursion h_t = omega + alpha*e_{t-1}^2 + beta*h_{t-1} is seeded with the
    sample variance of the mean residuals.  Returns (e, h) with e the n mean
    residuals and h the n + 1 variances: the path, then the one-step forecast.
    """
    e = np.empty_like(eps)
    e[0] = eps[0] - c / (1.0 - phi)
    e[1:] = eps[1:] - c - phi * eps[:-1]
    e2 = e * e
    h0 = e2.sum() / eps.size
    x = np.empty(eps.size + 1)
    x[0] = h0 if h0 > 0.0 else 1e-12
    x[1:] = omega + alpha * e2
    return e, signal.lfilter([1.0], [1.0, -beta], x)


def _argarch_objective(theta, eps):
    """Negative log-likelihood and its gradient with respect to ``theta``.

    The gradient runs the variance recursion backwards (the adjoint):
    lam_t = dL/dh_t + beta*lam_{t+1} is the total derivative of the
    likelihood with respect to h_t, including its effect on later variances.
    Points where the likelihood is not finite return (inf, 0).
    """
    c, phi, omega, alpha, beta = _argarch_untransform(theta)
    n = eps.size
    with np.errstate(all="ignore"):
        e, h = _argarch_paths(eps, c, phi, omega, alpha, beta)
        h = h[:-1]
        e2 = e * e
        u = e2 / h
        nll = 0.5 * (n * math.log(2.0 * math.pi) + float(np.log(h).sum()) + float(u.sum()))
        lam = signal.lfilter([1.0], [1.0, -beta], ((0.5 - 0.5 * u) / h)[::-1])[::-1]
        lam_next = lam[1:]
        d_omega = float(lam_next.sum())
        d_alpha = float(np.dot(lam_next, e2[:-1]))
        d_beta = float(np.dot(lam_next, h[:-1]))
        # dL/de_t: directly, through h_{t+1}, and through h_0 = mean(e^2)
        d_e = (1.0 / h + 2.0 * lam[0] / n) * e
        d_e[:-1] += (2.0 * alpha) * lam_next * e[:-1]
        d_c = -float(d_e[1:].sum()) - d_e[0] / (1.0 - phi)
        d_phi = -float(np.dot(d_e[1:], eps[:-1])) - d_e[0] * c / (1.0 - phi) ** 2
    # chain rule through _argarch_untransform
    persistence, share = _sigmoid(theta[3]), _sigmoid(theta[4])
    d_persistence = persistence * (1.0 - persistence) if persistence < 1.0 - 1e-8 else 0.0
    persistence = min(persistence, 1.0 - 1e-8)
    grad = [d_c,
            d_phi * (1.0 - phi * phi),
            d_omega * omega if abs(theta[2]) < 700.0 else 0.0,
            (d_alpha * share + d_beta * (1.0 - share)) * d_persistence,
            (d_alpha - d_beta) * persistence * share * (1.0 - share)]
    if not all(map(math.isfinite, [nll, *grad])):
        return math.inf, np.zeros(5)
    return nll, np.array(grad)


def _sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _logit(p):
    return math.log(p / (1.0 - p))


def _argarch_transform(c, phi, omega, alpha, beta):
    """Map constrained parameters to an unconstrained search space."""
    persistence = alpha + beta
    share = alpha / persistence if persistence > 0 else 0.5
    persistence = min(max(persistence, 1e-6), 1.0 - 1e-6)
    share = min(max(share, 1e-6), 1.0 - 1e-6)
    return np.array([c, math.atanh(max(min(phi, 0.999), -0.999)),
                     math.log(omega), _logit(persistence), _logit(share)])


def _argarch_untransform(theta):
    c = theta[0]
    phi = math.tanh(theta[1])
    omega = math.exp(min(max(theta[2], -700.0), 700.0))
    # keep strictly inside the parameter space even when the search saturates
    persistence = min(_sigmoid(theta[3]), 1.0 - 1e-8)
    share = _sigmoid(theta[4])
    phi = max(min(phi, 1.0 - 1e-12), -1.0 + 1e-12)
    return c, phi, omega, persistence * share, persistence * (1.0 - share)


def fit_argarch(eps: np.ndarray, seed: int = 0) -> tuple:
    """Fit AR(1)-GARCH(1,1) by Gaussian QMLE with L-BFGS-B.

    The search runs in a transformed unconstrained space so the stationarity
    and positivity constraints hold by construction, and uses the analytic
    gradient of the likelihood.  It starts from moment estimates; up to 4
    seeded, jittered restarts follow a search that does not converge.  Raises
    ``FitError`` when all 5 searches fail to converge.
    """
    eps = np.asarray(eps, dtype=float)
    n = eps.size
    if n < _MIN_ARGARCH_WINDOW:
        raise FitError(f"AR-GARCH needs >= {_MIN_ARGARCH_WINDOW} observations, got {n}")
    var = float(np.var(eps))
    if var <= 0.0:
        raise FitError("constant input series: AR-GARCH fit is undefined")

    # moment-based start: phi from lag-1 autocorrelation, GARCH at (0.1*var, 0.05, 0.9)
    demeaned = eps - eps.mean()
    phi0 = float(np.dot(demeaned[1:], demeaned[:-1]) / np.dot(demeaned, demeaned))
    phi0 = max(min(phi0, 0.95), -0.95)
    c0 = float(eps.mean()) * (1.0 - phi0)
    theta0 = _argarch_transform(c0, phi0, 0.1 * var, 0.05, 0.9)

    rng = np.random.Generator(np.random.Philox(seed))
    best = None
    start = theta0
    for attempt in range(5):
        res = optimize.minimize(
            _argarch_objective, start, args=(eps,), jac=True, method="L-BFGS-B",
            options={"maxiter": 500, "ftol": 1e-12, "gtol": 1e-8},
        )
        if best is None or res.fun < best.fun:
            best = res
        if res.success:
            break
        scale = np.maximum(np.abs(best.x), 1.0)
        start = best.x + 0.1 * scale * rng.standard_normal(best.x.size)
    else:
        raise FitError(f"AR-GARCH QMLE did not converge after 5 attempts: {best.message}")

    c, phi, omega, alpha, beta = _argarch_untransform(best.x)
    try:
        params = ArGarchParams(c, phi, omega, alpha, beta)
    except ValueError as exc:
        raise FitError(f"AR-GARCH estimate outside parameter space: {exc}") from None
    return params, argarch_output(eps, params)


def argarch_output(eps: np.ndarray, params: ArGarchParams) -> FilterOutput:
    """Filtered paths and one-step forecast for given AR-GARCH parameters."""
    eps = np.asarray(eps, dtype=float)
    e, h = _argarch_paths(eps, params.c, params.phi, params.omega,
                          params.alpha, params.beta)
    sigma = np.sqrt(h)
    mu_next = params.c + params.phi * eps[-1]
    return FilterOutput(eps - e, sigma[:-1], e / sigma[:-1],
                        (float(mu_next), float(sigma[-1])))


# ---------------------------------------------------------------------------
# Seasonal AR by conditional least squares
# ---------------------------------------------------------------------------

def _sarima_residuals(coef, eps, s):
    c, phi1, sphi = coef
    # multiplicative AR representation: lags 1, s and s+1
    return (eps[s + 1:] - c - phi1 * eps[s:-1] - sphi * eps[1:-s]
            + phi1 * sphi * eps[:-s - 1])


def fit_sarima(eps: np.ndarray, seasonal_period: int = 7) -> tuple:
    """Fit the seasonal AR model by conditional least squares.

    The model has one AR coefficient at lag 1 and one seasonal AR coefficient
    at lag ``seasonal_period``; with no MA terms, conditional least squares on
    the multiplicative representation is exact.  The residual standard
    deviation serves as the constant sigma path.
    """
    eps = np.asarray(eps, dtype=float)
    s = int(seasonal_period)
    if eps.size < 3 * s:
        raise FitError(f"seasonal AR needs >= {3 * s} observations, got {eps.size}")
    if np.var(eps) <= 0.0:
        raise FitError("constant input series: seasonal AR fit is undefined")

    res = optimize.least_squares(_sarima_residuals, x0=np.array([eps.mean(), 0.0, 0.0]),
                                 args=(eps, s), method="lm")
    if not res.success:
        raise FitError("seasonal AR conditional least squares did not converge")
    c, phi1, sphi = res.x
    resid = _sarima_residuals(res.x, eps, s)
    sigma = float(np.std(resid, ddof=1))
    if not sigma > 0:
        raise FitError("degenerate residuals in seasonal AR fit")
    try:
        params = SarimaParams(float(c), float(phi1), float(sphi), sigma, s)
    except ValueError as exc:
        raise FitError(f"seasonal AR estimate outside parameter space: {exc}") from None
    return params, sarima_output(eps, params)


def sarima_output(eps: np.ndarray, params: SarimaParams) -> FilterOutput:
    """Filtered paths and one-step forecast for given seasonal AR parameters."""
    eps = np.asarray(eps, dtype=float)
    s = params.seasonal_period
    mu = np.full(eps.size, params.c / ((1.0 - params.phi1) * (1.0 - params.seasonal_phi)))
    if eps.size > s + 1:
        mu[s + 1:] = (params.c + params.phi1 * eps[s:-1] + params.seasonal_phi * eps[1:-s]
                      - params.phi1 * params.seasonal_phi * eps[:-s - 1])
    sigma = np.full(eps.size, params.sigma)
    mu_next = (params.c + params.phi1 * eps[-1] + params.seasonal_phi * eps[-s]
               - params.phi1 * params.seasonal_phi * eps[-s - 1])
    return FilterOutput(mu, sigma, (eps - mu) / sigma, (float(mu_next), params.sigma))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def fit_filter(errors, spec: FilterSpec, seed: int = 0):
    """Fit the filter named by ``spec`` to one hour's error window.

    Returns ``(params, FilterOutput)``; ``params`` is None for the raw filter,
    which is the identity with one-step forecast (0, 1).
    """
    eps = np.asarray(errors, dtype=float)
    if eps.ndim != 1 or eps.size < 1:
        raise FitError("error window must be a non-empty 1-d sequence")
    if spec.kind == RAW:
        return None, FilterOutput(np.zeros_like(eps), np.ones_like(eps),
                                  eps.copy(), (0.0, 1.0))
    if spec.kind == AR_GARCH:
        return fit_argarch(eps, seed=seed)
    return fit_sarima(eps, seasonal_period=spec.seasonal_period)


def filter_output(eps, spec: FilterSpec, params) -> FilterOutput:
    """Recompute filtered paths for an existing parameter estimate."""
    eps = np.asarray(eps, dtype=float)
    if spec.kind == RAW:
        return FilterOutput(np.zeros_like(eps), np.ones_like(eps),
                            eps.copy(), (0.0, 1.0))
    if spec.kind == AR_GARCH:
        return argarch_output(eps, params)
    return sarima_output(eps, params)
