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
by one BFGS search over all H hours at once, AR-GARCH's projected on a box
of natural parameters; an hour sees only its own column, so its estimate
does not depend on the hours that share its window.  A fit raises
``FitError``, and the backtest skips the setting's days of that block, for
an hour whose 5 searches (see ``_search``) all fail, a short window, or an
hour whose errors are equal or underflow.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import signal

RAW = "raw"
AR_GARCH = "argarch"
SARIMA = "sarima"

_MIN_ARGARCH_WINDOW = 100
_ONE = np.ones(1)
# BFGS stopping rules (see _bfgs); an unconverged hour gets up to _RESTARTS more searches,
# and AR-GARCH's second start searches for at most _MAXITER_AGAIN iterations
_MAXITER = 500
_MAXITER_AGAIN = 100
_GTOL = 1e-8
_FTOL = 1e-14
_RESTARTS = 4
# AR-GARCH's box: omega >= _OMEGA_FLOOR * the hour's variance, alpha + beta <= _CAP
_OMEGA_FLOOR = 1e-12
_CAP = 1.0 - 1e-8


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
    """y_t = x_t + beta*y_{t-1} along each row of x, one ``lfilter`` call per row's beta."""
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


def _argarch_objective(v, eps):
    """Negative log-likelihoods and (H, 5) gradients at (H, 5) ``v`` for (H, n) ``eps``.

    A row of ``v`` is (c, phi, omega, alpha, r), beta = r * (_CAP - alpha), and of
    ``eps`` one error window.  The gradient runs the variance recursion backwards
    (the adjoint): lam_t = dL/dh_t + beta*lam_{t+1} is the total derivative of the
    likelihood in h_t, with its effect on later variances; non-finite ones return (inf, 0).
    """
    c, phi, omega, alpha, r = v.T
    beta = r * (_CAP - alpha)
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
        grad = np.empty(v.shape)
        grad[:, 0] = -d_e[:, 1:].sum(axis=1) - d_e[:, 0] / (1.0 - phi)
        grad[:, 1] = -(d_e[:, 1:] * eps[:, :-1]).sum(axis=1) - d_e[:, 0] * c / (1.0 - phi) ** 2
        grad[:, 2] = 0.5 * lam2_next.sum(axis=1)
        d_alpha = 0.5 * (lam2_next * e2[:, :-1]).sum(axis=1)
        d_beta = 0.5 * (lam2_next * h[:, :-1]).sum(axis=1)
        grad[:, 3] = d_alpha - r * d_beta
        grad[:, 4] = d_beta * (_CAP - alpha)
        bad = ~np.isfinite(nll + grad.sum(axis=1))
    if bad.any():
        nll[bad] = math.inf
        grad[bad] = 0.0
    return nll, grad


def _argarch_start(eps: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Moment start (c, phi, omega, alpha, r) per row of (H, n) ``eps``: c and phi from the
    mean and lag-1 autocorrelation, (omega, alpha, beta) = (0.1*var, 0.05, 0.9)."""
    mean = eps.mean(axis=1)
    demeaned = eps - mean[:, None]
    phi = np.clip((demeaned[:, 1:] * demeaned[:, :-1]).sum(axis=1)
                  / (demeaned * demeaned).sum(axis=1), -0.95, 0.95)
    ones = np.ones(eps.shape[0])
    return np.column_stack([mean * (1.0 - phi), phi, 0.1 * var, 0.05 * ones,
                            0.9 / (_CAP - 0.05) * ones])


def _direction(h, g, x, lo, hi):
    """Projected gradient pg, direction p and slope of rows at ``x`` in boxes [lo, hi].

    Held, with p = 0: a coordinate on a bound whose gradient (then pg = 0), or
    then whose p, points out; the rest follows -h g, h Gauss-eliminated of the held."""
    held = ((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0))
    pg, new = np.where(held, 0.0, g), held
    while True:
        for j in np.flatnonzero(new.any(axis=0)):
            hj = h[:, :, j]
            h = np.where(new[:, j, None, None],
                         h - hj[:, :, None] * hj[:, None, :] / hj[:, j, None, None], h)
        p = np.where(held, 0.0, -(h * pg[:, None, :]).sum(axis=2))
        new = ~held & (((x <= lo) & (p < 0.0)) | ((x >= hi) & (p > 0.0)))
        if not new.any():
            return pg, p, (g * p).sum(axis=1)
        held = held | new


def _bfgs(fun, x0, args, h0, lo, hi, maxiter=_MAXITER):
    """Minimize k independent objectives at once by BFGS projected on boxes.

    ``fun(x, args)`` takes parameter rows x (j, d) and the matching rows of
    ``args`` and returns the j objective values and their (j, d) gradients.
    ``h0`` (k, d) is the diagonal of each row's initial inverse Hessian, the
    metric of the first step; ``lo`` and ``hi`` (k, d) bound each row's box
    (+-inf: free), and x0 is projected onto it.  Each call passes only the
    rows still searching, so no row's result depends on the others.  A row
    tries the step along ``_direction`` (Bertsekas 1982), cut where a
    coordinate reaches its bound; on the Armijo condition it moves there and
    next tries the full step (of unit h0 length at first), else backtracks to
    a quadratic interpolant's argmin in [0.1, 0.5] times the trial.  The
    inverse Hessian restarts from diag(h0) scaled by s'y/y'diag(h0)y after the
    first step, and from diag(h0) where the direction's cosine with -g is
    1e-12 or less; the update is skipped when s'y <= 1e-10 |s||y|.  A row
    converges when max |projected gradient| <= _GTOL, or when a step not cut
    at a bound lowers f by a relative _FTOL or less, on a face twice running;
    it fails when f is not finite at x0, an accepted step or backtracking
    leaves x unchanged, or at ``maxiter`` iterations.  Returns (x, f, converged):
    x (k, d), f and converged (k,).
    """
    x_out = np.clip(np.array(x0, dtype=float), lo, hi)
    k, d = x_out.shape
    f_out, g = fun(x_out, args)
    diag = np.asarray(h0, dtype=float)[:, :, None] * np.eye(d)
    with np.errstate(all="ignore"):
        pg, p, slope = _direction(diag, g, x_out, lo, hi)
        step = np.minimum(1.0, 1.0 / np.sqrt(-slope))
    converged = np.max(np.abs(pg), axis=1) <= _GTOL
    # the search state holds only the rows still searching, in ``rows`` order
    keep = np.isfinite(f_out) & np.isfinite(slope) & ~converged
    rows = np.flatnonzero(keep)
    x, f, g, p, slope, step, diag, lo, hi, args = (
        v[keep] for v in (x_out, f_out, g, p, slope, step, diag, lo, hi, args))
    hinv, nit, quiet = diag, np.zeros(rows.size, dtype=int), np.zeros(rows.size, dtype=bool)
    while rows.size:
        # the step ends where a first coordinate reaches its bound, exactly on it
        with np.errstate(all="ignore"):
            reach = np.where(p < 0.0, (lo - x) / p, np.where(p > 0.0, (hi - x) / p, math.inf))
        step = np.minimum(step, reach.min(axis=1))
        move = step[:, None] * p
        cut = reach <= step[:, None]
        trial = np.where(cut, np.where(p < 0.0, lo, hi), np.clip(x + move, lo, hi))
        f_new, g_new = fun(trial, args)
        ok = f_new <= f + 1e-4 * step * slope
        with np.errstate(all="ignore"):
            # backtrack; a step that no longer moves x ends the search
            t_back = np.minimum(np.maximum(
                -slope * step * step / (2.0 * (f_new - f - slope * step)), 0.1 * step),
                0.5 * step)
            finished = ~ok & ~(np.isfinite(t_back)
                               & np.any(x + t_back[:, None] * p != x, axis=1))
            if ok.any():
                nit += ok
                s, y = move, g_new - g
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
                pg, p_new, slope_new = _direction(h, g_new, trial, lo, hi)
                reset = ~(slope_new < -1e-12 * np.max(np.abs(pg), axis=1)
                          * np.max(np.abs(p_new), axis=1))
                if reset.any():
                    h = np.where(reset[:, None, None], diag, h)
                    pg, p_new, slope_new = _direction(h, g_new, trial, lo, hi)
                decrease = (f - f_new) / np.maximum(np.maximum(np.abs(f), np.abs(f_new)), 1.0)
                stall = ok & np.all(trial == x, axis=1)  # an accepted step that leaves x
                # small: an uncut step lowers f by relative _FTOL or less; on a face, twice running
                small = (decrease <= _FTOL) & ~cut.any(axis=1)
                face = np.any((trial <= lo) | (trial >= hi), axis=1)
                done = ok & ~stall & ((np.max(np.abs(pg), axis=1) <= _GTOL)
                                      | (small & (quiet | ~face)))
                converged[rows[done]] = True
                finished |= done | stall | (nit >= maxiter)
                # the accepted rows move to the trial point; the others keep their state
                x = np.where(ok[:, None], trial, x)
                f = np.where(ok, f_new, f)
                g = np.where(ok[:, None], g_new, g)
                hinv = np.where(ok[:, None, None], h, hinv)
                p = np.where(ok[:, None], p_new, p)
                slope = np.where(ok, slope_new, slope)
                quiet = np.where(ok, small, quiet)
        step = np.where(ok, 1.0, t_back)
        if finished.any():
            x_out[rows[finished]], f_out[rows[finished]] = x[finished], f[finished]
            keep = ~finished
            state = (rows, x, f, g, p, slope, step, hinv, diag, nit, quiet, lo, hi, args)
            rows, x, f, g, p, slope, step, hinv, diag, nit, quiet, lo, hi, args = (
                v[keep] for v in state)
    return x_out, f_out, converged


def _search(objective, theta0, rows, h0, lo, hi, seed, what):
    """Minimize ``objective`` for each of the k ``rows`` from (k, d) ``theta0`` in [lo, hi].

    One ``_bfgs`` search runs on all rows; those that do not converge are searched
    again, together, up to 4 times, each from its lowest point theta plus
    0.1 * max(|theta|, 1) * jitter (projected onto its box), the jitters one (4, d)
    standard normal draw from ``Philox(seed)``.  Returns the lowest points and
    values, or raises ``FitError`` naming ``what`` and the hours whose 5 searches fail.
    """
    theta, f, converged = _bfgs(objective, theta0, rows, h0, lo, hi)
    rng = np.random.Generator(np.random.Philox(seed))
    for z in rng.standard_normal((_RESTARTS, theta.shape[1])):
        retry = np.flatnonzero(~converged)
        if not retry.size:
            break
        start = theta[retry] + 0.1 * np.maximum(np.abs(theta[retry]), 1.0) * z
        x, f_retry, converged[retry] = _bfgs(objective, start, rows[retry], h0[retry],
                                             lo[retry], hi[retry])
        better = f_retry < f[retry]
        theta[retry[better]], f[retry[better]] = x[better], f_retry[better]
    if not converged.all():
        raise FitError(f"{what} did not converge after {_RESTARTS + 1} attempts"
                       f"{_hours(np.flatnonzero(~converged))}")
    return theta, f


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
    """``ArGarchParams`` by Gaussian QMLE for each of the (H, n) ``rows``, one hour per row.

    ``_search`` runs from moment estimates in the box |phi| <= 1 - 1e-12,
    omega >= _OMEGA_FLOOR * var (var the hour's variance), 0 <= alpha <= _CAP
    and 0 <= r = beta / (_CAP - alpha) <= 1, whose faces it reaches in finitely
    many steps.  An hour ending at alpha = 0 or above its NLL at (omega, alpha,
    beta) = (0.8 * var, 0.2, 0) is searched from there on the beta = 0 face,
    then in the box where that ends lower or at alpha > 0, each search for at
    most _MAXITER_AGAIN iterations; only a converged box search that ends lower
    replaces the estimate, as a face point need not be one.
    """
    var = np.var(rows, axis=1)
    lo = np.tile([-math.inf, -1.0 + 1e-12, 0.0, 0.0, 0.0], (len(var), 1))
    lo[:, 2] = _OMEGA_FLOOR * var
    hi = np.tile([math.inf, 1.0 - 1e-12, math.inf, _CAP, 1.0], (len(var), 1))
    # the metric of c and omega scales with the data: the search path is unit-free
    h0 = np.column_stack([var, np.ones(len(var)), 0.01 * var * var, np.full((len(var), 2), 0.01)])
    v, f = _search(_argarch_objective, _argarch_start(rows, var), rows, h0, lo, hi, seed,
                   "AR-GARCH QMLE")
    x = np.column_stack([v[:, :2], 0.8 * var, np.full((len(var), 2), [0.2, 0.0])])
    again = np.flatnonzero((v[:, 3] == 0.0) | (_argarch_objective(x, rows)[0] < f))
    if again.size:
        hi_face = hi[again].copy()
        hi_face[:, 4] = 0.0
        x, f_face, converged = _bfgs(_argarch_objective, x[again], rows[again], h0[again],
                                     lo[again], hi_face, _MAXITER_AGAIN)
        on = converged & ((x[:, 3] > 0.0) | (f_face < f[again]))
        box = again[on]
        x, f_box, converged = _bfgs(_argarch_objective, x[on], rows[box], h0[box], lo[box],
                                    hi[box], _MAXITER_AGAIN)
        lower = converged & (f_box < f[box])
        v[box[lower]] = x[lower]
    return _params(ArGarchParams, (*v[:, :4].T, v[:, 4] * (_CAP - v[:, 3])), "AR-GARCH")


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
    sd = np.std(rows, axis=1)
    z = rows / sd[:, None]
    theta0 = np.column_stack([z.mean(axis=1), np.zeros((len(z), 2))])
    objective = functools.partial(_sarima_objective, s=s)
    free = np.full(theta0.shape, math.inf)  # no bounds
    theta, f = _search(objective, theta0, z, np.ones(theta0.shape), -free, free, seed,
                       "seasonal AR conditional least squares")
    n_res = rows.shape[1] - s - 1
    sigma = sd * np.sqrt(2.0 * f * n_res / (n_res - 1))
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
    identity with one-step forecast (0, 1).  A fitted filter raises
    ``FitError`` for a window shorter than 100 days (AR-GARCH) or 3 periods
    (seasonal AR), or an hour whose values are equal or whose variance underflows.
    """
    rows = _rows(errors)
    if spec.kind == RAW:  # no params: None per column
        params = [None] * len(rows)
    else:
        what, need = (("AR-GARCH", _MIN_ARGARCH_WINDOW) if spec.kind == AR_GARCH
                      else ("seasonal AR", 3 * spec.seasonal_period))
        if rows.shape[1] < need:
            raise FitError(f"{what} needs >= {need} observations, got {rows.shape[1]}")
        for bad, why in ((np.ptp(rows, axis=1) == 0.0, "constant input series"),
                         (np.var(rows, axis=1) < np.finfo(float).tiny, "variance underflow")):
            if bad.any():
                raise FitError(f"{why}{_hours(np.flatnonzero(bad))}: {what} fit is undefined")
        params = (_fit_argarch(rows, seed) if spec.kind == AR_GARCH
                  else _fit_sarima(rows, spec.seasonal_period, seed))
    # _paths, not filter_output: bench/spans.py counts filter_output's calls as passes
    return params, _paths(rows, spec, params)


def filter_output(eps, spec: FilterSpec, params) -> FilterOutput:
    """Recompute the paths of an (n, H) window for ``fit_filter``'s list of H params."""
    return _paths(_rows(eps), spec, params)
