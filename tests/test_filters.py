import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from _simulate import argarch_copula_errors, argarch_series, equicorrelated_normals, rng_for
from schaake import filters
from schaake.filters import (
    AR_GARCH,
    RAW,
    SARIMA,
    ArGarchParams,
    FilterOutput,
    FilterSpec,
    FitError,
    SarimaParams,
    fit_filter,
    filter_output,
)


def reference_argarch_paths(eps, c, phi, omega, alpha, beta):
    """Mean residuals and variance path by the scalar recursion."""
    e = np.empty_like(eps)
    e[0] = eps[0] - c / (1.0 - phi)
    e[1:] = eps[1:] - c - phi * eps[:-1]
    h = np.empty(eps.size + 1)
    h[0] = max(float(np.mean(e * e)), 1e-12)
    for t in range(1, eps.size + 1):
        h[t] = omega + alpha * e[t - 1] ** 2 + beta * h[t - 1]
    return e, h


def reference_nll(eps, params):
    e, h = reference_argarch_paths(eps, params.c, params.phi, params.omega,
                                   params.alpha, params.beta)
    h = h[:-1]
    return 0.5 * float(np.sum(np.log(2.0 * math.pi * h) + e * e / h))


FITTED = [FilterSpec(AR_GARCH), FilterSpec(SARIMA, seasonal_period=7)]
FREE = np.full((1, 2), math.inf)  # the bounds of an unconstrained two-parameter search


def sarima_residuals(coef, eps, s):
    """Residuals of the multiplicative seasonal AR at lags 1, s and s+1."""
    c, phi1, sphi = coef
    return (eps[s + 1:] - c - phi1 * eps[s:-1] - sphi * eps[1:-s]
            + phi1 * sphi * eps[:-s - 1])


def sarima_series(n, c, phi1, sphi, sigma, s, seed, burn=300):
    rng = rng_for(seed)
    e = rng.standard_normal(n + burn) * sigma
    x = np.zeros(n + burn)
    for t in range(s + 1, n + burn):
        x[t] = c + phi1 * x[t - 1] + sphi * x[t - s] - phi1 * sphi * x[t - s - 1] + e[t]
    return x[burn:]


def test_raw_filter_is_identity():
    eps = np.array([[0.3], [-0.5], [1.2]])
    params, out = fit_filter(eps, FilterSpec(RAW))
    assert params == [None]
    assert np.array_equal(out.z, eps)
    assert np.all(out.sigma_hat == 1.0)
    assert [v.tolist() for v in out.one_step] == [[0.0], [1.0]]


@pytest.mark.parametrize("spec", [FilterSpec(RAW), FilterSpec(AR_GARCH),
                                  FilterSpec(SARIMA, seasonal_period=7)])
def test_one_hour_window_is_passed_as_n_by_1(spec):
    eps = argarch_series(200, 0.0, 0.3, 0.1, 0.1, 0.8, seed=3)
    with pytest.raises(FitError, match=r"\(n, H\) array, got shape \(200,\); "
                                       r"pass one hour as \(n, 1\)"):
        fit_filter(eps, spec)
    params, _ = fit_filter(eps[:, None], spec)
    with pytest.raises(FitError, match=r"\(n, H\) array, got shape \(200,\)"):
        filter_output(eps, spec, params)


def test_argarch_recovers_known_parameters():
    eps = argarch_series(5000, 0.0, 0.5, 0.1, 0.1, 0.8, seed=42)[:, None]
    (params,), out = fit_filter(eps, FilterSpec(AR_GARCH))
    truth = {"c": 0.0, "phi": 0.5, "omega": 0.1, "alpha": 0.1, "beta": 0.8}
    for key, value in truth.items():
        assert abs(getattr(params, key) - value) <= 0.1, key
    assert np.all(out.sigma_hat > 0)
    assert out.z.shape == eps.shape


def test_argarch_on_iid_normal_input():
    eps = rng_for(7).standard_normal((5000, 1))
    (params,), out = fit_filter(eps, FilterSpec(AR_GARCH))
    uncond = params.omega / (1.0 - params.alpha - params.beta)
    assert 0.8 <= uncond <= 1.25
    assert abs(out.z.mean()) <= 0.1


def test_argarch_standardization_quality():
    # well-specified data: standardized residuals close to mean 0, sd 1
    eps = argarch_series(2000, 0.1, 0.3, 0.2, 0.1, 0.8, seed=9)[:, None]
    _, out = fit_filter(eps, FilterSpec(AR_GARCH))
    assert abs(out.z.mean()) <= 0.15
    assert 0.85 <= out.z.std() <= 1.15


@pytest.mark.parametrize("spec, tol", [(FilterSpec(AR_GARCH), 1e-3),
                                       (FilterSpec(SARIMA, seasonal_period=7), 1e-9)])
def test_fit_scale_equivariance(spec, tol):
    eps = argarch_series(2000, 0.0, 0.4, 0.1, 0.1, 0.8, seed=21)[:, None]
    _, out1 = fit_filter(eps, spec)
    _, out2 = fit_filter(1000.0 * eps, spec)
    assert np.max(np.abs(out1.z - out2.z)) <= tol


def argarch_params(v) -> ArGarchParams:
    """The params of a search point v = (c, phi, omega, alpha, r), beta = r * (_CAP - alpha)."""
    c, phi, omega, alpha, r = map(float, v)
    return ArGarchParams(c, phi, omega, alpha, r * (filters._CAP - alpha))


# the search points of the objective property: c in [-1, 1] times the scale
# of the errors, omega in [e^-3, e] times its square, alpha in [0, 0.5] and
# r in [0, 0.98]; a forward difference at alpha = 0 or r = 0 stays in the
# parameter space
@settings(max_examples=60, deadline=None)
@given(v=st.tuples(st.floats(-1.0, 1.0), st.floats(-0.9, 0.9), st.floats(math.exp(-3.0), math.e),
                   st.floats(0.0, 0.5), st.floats(0.0, 0.98)),
       seed=st.integers(0, 2**16), n=st.integers(100, 400),
       scale=st.floats(0.1, 10.0), garch=st.booleans())
def test_argarch_objective_value_and_gradient(v, seed, n, scale, garch):
    if garch:
        eps = scale * argarch_series(n, 0.1, 0.4, 0.1, 0.1, 0.8, seed=seed)
    else:
        eps = scale * rng_for(seed).standard_normal(n)
    units = np.array([scale, 1.0, scale * scale, 1.0, 1.0])  # those of c and omega
    v = np.array(v) * units
    nll, grad = filters._argarch_objective(v[None], eps[None])
    assert nll[0] == pytest.approx(reference_nll(eps, argarch_params(v)), rel=1e-12)
    numeric = optimize.approx_fprime(
        v, lambda t: filters._argarch_objective(t[None], eps[None])[0][0], 1e-7 * units)
    assert np.linalg.norm(grad[0] - numeric) <= 1e-4 * max(np.linalg.norm(numeric), 1.0)


def test_argarch_output_matches_scalar_recursion():
    eps = argarch_series(364, 0.2, 0.3, 0.1, 0.1, 0.8, seed=4)
    params = ArGarchParams(0.1, 0.3, 0.2, 0.1, 0.85)
    e, h = reference_argarch_paths(eps, 0.1, 0.3, 0.2, 0.1, 0.85)
    out = filter_output(eps[:, None], FilterSpec(AR_GARCH), [params])
    np.testing.assert_allclose(out.sigma_hat[:, 0], np.sqrt(h[:-1]), rtol=1e-12)
    np.testing.assert_allclose(out.z[:, 0], e / np.sqrt(h[:-1]), rtol=1e-12, atol=1e-14)
    assert out.one_step[0][0] == pytest.approx(0.1 + 0.3 * eps[-1], rel=1e-12)
    assert out.one_step[1][0] == pytest.approx(math.sqrt(h[-1]), rel=1e-12)


def test_argarch_fit_improves_on_start_and_truth(monkeypatch):
    eps = argarch_series(364, 0.0, 0.3, 0.1, 0.1, 0.8, seed=11)
    starts = []
    bfgs = filters._bfgs

    def recording_bfgs(fun, x0, *args):
        starts.append(np.array(x0[0]))
        return bfgs(fun, x0, *args)

    monkeypatch.setattr(filters, "_bfgs", recording_bfgs)
    (params,), _ = fit_filter(eps[:, None], FilterSpec(AR_GARCH))
    fitted = reference_nll(eps, params)
    assert fitted <= filters._argarch_objective(starts[0][None], eps[None])[0][0]
    assert fitted <= reference_nll(eps, ArGarchParams(0.0, 0.3, 0.1, 0.1, 0.8))


def test_argarch_refit_is_bit_identical():
    eps = rng_for(13).standard_normal((364, 1))
    p1, out1 = fit_filter(eps, FilterSpec(AR_GARCH), seed=3)
    p2, out2 = fit_filter(eps, FilterSpec(AR_GARCH), seed=3)
    assert p1 == p2
    for a, b in ((out1.sigma_hat, out2.sigma_hat), (out1.z, out2.z)):
        assert np.array_equal(a, b)
    assert out1.one_step == out2.one_step


@pytest.mark.parametrize("spec", FITTED)
def test_fit_fails_loudly_without_convergence(spec, monkeypatch):
    calls = []

    def unconverged_bfgs(fun, x0, *args):
        calls.append(x0)
        return x0, np.full(len(x0), math.inf), np.zeros(len(x0), dtype=bool)

    monkeypatch.setattr(filters, "_bfgs", unconverged_bfgs)
    with pytest.raises(FitError, match="did not converge after 5 attempts"):
        fit_filter(argarch_series(364, 0.0, 0.3, 0.1, 0.1, 0.8, seed=1)[:, None], spec)
    assert len(calls) == 5


def test_argarch_fit_emits_no_numeric_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # omega = exp(-700) and alpha = beta = 0: e^2/h overflows
        nll, grad = filters._argarch_objective(np.array([[0.0, 0.0, math.exp(-700.0), 0.0, 0.0]]),
                                               rng_for(1).standard_normal((1, 364)))
        assert nll[0] == math.inf and not np.any(grad)
        for seed in range(12):
            window = 3.0 * rng_for(400 + seed).standard_normal((364, 1))
            fit_filter(window, FilterSpec(AR_GARCH), seed=seed)
        fit_filter(3.0 * rng_for(450).standard_normal((364, 12)), FilterSpec(AR_GARCH), seed=12)


@pytest.mark.parametrize("spec", FITTED)
@settings(max_examples=15, deadline=None)
@given(garch=st.lists(st.booleans(), min_size=1, max_size=6), seed=st.integers(0, 2**16),
       n=st.integers(100, 200), data=st.data())
def test_hours_fit_independently(spec, garch, seed, n, data):
    # an hour's estimate and paths must not depend on the hours fitted with it
    columns = [argarch_series(n, 0.1, 0.3, 0.1, 0.1, 0.8, seed=seed + i) if g
               else 2.0 * rng_for(seed + i).standard_normal(n) for i, g in enumerate(garch)]
    order = data.draw(st.permutations(range(len(columns))))
    params, out = fit_filter(np.column_stack([columns[i] for i in order]), spec, seed=seed)
    assert len(params) == len(columns)
    for j, i in enumerate(order):
        alone, out_alone = fit_filter(columns[i][:, None], spec, seed=seed)
        assert params[j] == alone[0]
        for batch, single in ((out.sigma_hat, out_alone.sigma_hat), (out.z, out_alone.z)):
            assert np.array_equal(batch[:, j], single[:, 0])
        assert (out.one_step[0][j], out.one_step[1][j]) == tuple(v[0] for v in out_alone.one_step)


def lbfgsb_fit(eps, v0):
    """One L-BFGS-B search for one hour's AR-GARCH QMLE, from ``v0``, in the package's box."""
    def objective(v):
        nll, grad = filters._argarch_objective(v[None], eps[None])
        return nll[0], grad[0]

    bounds = [(None, None), (-1.0 + 1e-12, 1.0 - 1e-12), (filters._OMEGA_FLOOR * eps.var(), None),
              (0.0, filters._CAP), (0.0, 1.0)]
    return optimize.minimize(objective, v0, jac=True, method="L-BFGS-B", bounds=bounds,
                             options={"maxiter": 500, "ftol": 1e-12, "gtol": 1e-8})


def argarch_no_worse_than_lbfgsb(rows, spec, params):
    # every hour's NLL is at most that of an L-BFGS-B search from the same
    # start in the same box, plus 1e-9 nat/obs
    v0 = filters._argarch_start(rows, rows.var(axis=1))
    for h, p in enumerate(params):
        res = lbfgsb_fit(rows[h], v0[h])
        assert res.success
        lbfgsb = argarch_params(res.x)
        assert reference_nll(rows[h], p) <= reference_nll(rows[h], lbfgsb) + 1e-9 * rows.shape[1]


def sarima_no_worse_than_lm(rows, spec, params):
    # every hour's sum of squared residuals is at most that of a
    # Levenberg-Marquardt search from (mean, 0, 0), times 1 + 1e-12
    s = spec.seasonal_period
    for x, p in zip(rows, params):
        res = optimize.least_squares(sarima_residuals, [x.mean(), 0.0, 0.0], args=(x, s),
                                     method="lm")
        assert res.success
        r = sarima_residuals([p.c, p.phi1, p.seasonal_phi], x, s)
        assert r @ r <= (res.fun @ res.fun) * (1.0 + 1e-12)


@pytest.mark.parametrize("spec, no_worse", [(FilterSpec(AR_GARCH), argarch_no_worse_than_lbfgsb),
                                            (FilterSpec(SARIMA, seasonal_period=7),
                                             sarima_no_worse_than_lm)])
def test_batch_fit_is_no_worse_than_a_per_hour_search(spec, no_worse):
    for seed in range(4):
        window = argarch_copula_errors(364, 0.6, seed=900 + seed)
        params, _ = fit_filter(window, spec)
        no_worse(np.ascontiguousarray(window.T), spec, params)


@pytest.mark.parametrize("spec", FITTED)
def test_batch_fit_names_failed_hours(spec, monkeypatch):
    window = argarch_copula_errors(200, 0.6, seed=5)[:, :6]
    window[:, [1, 4]] = 2.0
    with pytest.raises(FitError, match="constant input series for hours 2, 5"):
        fit_filter(window, spec)

    window = argarch_copula_errors(200, 0.6, seed=5)[:, :6]
    bfgs = filters._bfgs
    searched, first_rows = [], []

    def hour_3_unconverged(fun, x0, args, h0, *bounds):
        searched.append(len(x0))
        first_rows.append(args)  # the rows of the search of all hours, in hour order
        x, f, converged = bfgs(fun, x0, args, h0, *bounds)
        converged &= ~np.all(args == first_rows[0][2], axis=1)
        return x, f, converged

    monkeypatch.setattr(filters, "_bfgs", hour_3_unconverged)
    with pytest.raises(FitError, match="did not converge after 5 attempts for hours 3$"):
        fit_filter(window, spec)
    # one search of all hours, then 4 restarts of hour 3 alone
    assert searched == [6, 1, 1, 1, 1]


def test_argarch_restarts_a_stalled_hour_with_bfgs(monkeypatch):
    # hour 8 of this window is made to stall in its first BFGS search; the
    # restarts must converge without scipy's optimizers and keep the lowest NLL
    window = 3.0 * equicorrelated_normals(364, 0.6, seed=2006)
    bfgs = filters._bfgs
    searches = []

    def recording_bfgs(fun, x0, args, h0, *bounds):
        x, f, converged = bfgs(fun, x0, args, h0, *bounds)
        if not searches:
            converged[7] = False
        searches.append((f, np.flatnonzero(~converged).tolist()))
        return x, f, converged

    def no_minimize(*args, **kwargs):
        raise AssertionError("scipy.optimize.minimize called")

    monkeypatch.setattr(filters, "_bfgs", recording_bfgs)
    monkeypatch.setattr(optimize, "minimize", no_minimize)
    params, _ = fit_filter(window, FilterSpec(AR_GARCH))
    # the search of all hours, one restart of the stalled hour, then the second
    # start's searches on the beta = 0 face and in the box, which all converge
    assert [unconverged for _, unconverged in searches] == [[7], [], [], []]
    assert len(searches[1][0]) == 1
    stalled_nll = searches[0][0][7]
    assert reference_nll(window[:, 7], params[7]) <= stalled_nll + 1e-9


def test_filter_outputs_of_a_window_match_its_columns():
    window = argarch_copula_errors(150, 0.6, seed=6)[:, :5]
    for spec in (FilterSpec(RAW), FilterSpec(AR_GARCH), FilterSpec(SARIMA, seasonal_period=7)):
        params, out = fit_filter(window, spec)
        assert out.z.shape == window.shape and out.z.flags.c_contiguous
        for h in range(window.shape[1]):
            single = filters.filter_output(window[:, h:h + 1], spec, params[h:h + 1])
            assert np.array_equal(out.sigma_hat[:, h], single.sigma_hat[:, 0])
            assert np.array_equal(out.z[:, h], single.z[:, 0])
            assert (out.one_step[0][h], out.one_step[1][h]) == tuple(v[0] for v in single.one_step)


def same_output(a, b) -> bool:
    """Bit-for-bit equality of two FilterOutputs, shapes included."""
    return all(np.shape(x) == np.shape(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes()
               for x, y in ((a.sigma_hat, b.sigma_hat), (a.z, b.z), *zip(a.one_step, b.one_step)))


@pytest.mark.parametrize("spec", [FilterSpec(RAW), FilterSpec(AR_GARCH),
                                  FilterSpec(SARIMA, seasonal_period=7)])
@settings(max_examples=3, deadline=None)
@given(garch=st.lists(st.booleans(), min_size=1, max_size=3), seed=st.integers(0, 2**16),
       n=st.integers(100, 160))
def test_fit_filter_paths_are_filter_outputs(spec, garch, seed, n):
    # one path function: a fit's paths are those filter_output gives for its
    # params, and an (n, 1) window's are column 0 of the whole window's
    window = np.column_stack([argarch_series(n, 0.1, 0.3, 0.1, 0.1, 0.8, seed=seed + i) if g
                              else 2.0 * rng_for(seed + i).standard_normal(n)
                              for i, g in enumerate(garch)])
    fits = []
    for eps in (window, window[:, :1]):
        params, out = fit_filter(eps, spec, seed=seed)
        assert out.sigma_hat.shape == out.z.shape == eps.shape
        assert same_output(out, filter_output(eps, spec, params))
        fits.append((params, out))
    (params, out), (column_params, column) = fits
    assert column_params == params[:1]
    assert same_output(column, FilterOutput(out.sigma_hat[:, :1], out.z[:, :1],
                                            tuple(v[:1] for v in out.one_step)))


def test_argarch_rejects_short_or_constant_input():
    with pytest.raises(FitError, match="observations"):
        fit_filter(np.zeros((50, 1)), FilterSpec(AR_GARCH))
    with pytest.raises(FitError, match="constant"):
        fit_filter(np.full((200, 1), 3.0), FilterSpec(AR_GARCH))


def test_sarima_recovers_known_parameters():
    x = sarima_series(2000, 0.3, 0.5, 0.4, 1.0, s=7, seed=3)
    (params,), out = fit_filter(x[:, None], FilterSpec(SARIMA, seasonal_period=7))
    assert abs(params.phi1 - 0.5) <= 0.05
    assert abs(params.seasonal_phi - 0.4) <= 0.05
    assert 0.9 <= params.sigma <= 1.1
    assert np.all(out.sigma_hat == params.sigma)
    # one-step mean follows the multiplicative AR recursion
    expected = (params.c + params.phi1 * x[-1] + params.seasonal_phi * x[-7]
                - params.phi1 * params.seasonal_phi * x[-8])
    assert (out.one_step[0][0], out.one_step[1][0]) == (pytest.approx(expected), params.sigma)


def test_sarima_rejects_short_window():
    with pytest.raises(FitError, match="observations"):
        fit_filter(np.arange(10.0)[:, None], FilterSpec(SARIMA, seasonal_period=7))


def test_fit_filter_dispatch():
    x = sarima_series(500, 0.0, 0.4, 0.3, 1.0, s=7, seed=8)
    (params,), _ = fit_filter(x[:, None], FilterSpec(SARIMA, seasonal_period=7))
    assert isinstance(params, SarimaParams)
    eps = argarch_series(400, 0.0, 0.3, 0.1, 0.1, 0.8, seed=2)
    (params,), _ = fit_filter(eps[:, None], FilterSpec(AR_GARCH))
    assert params.alpha + params.beta < 1


def test_filter_spec_validation():
    with pytest.raises(ValueError):
        FilterSpec("arma")
    with pytest.raises(ValueError):
        FilterSpec(SARIMA, seasonal_period=1)


def test_filter_specs_are_equal_when_they_fit_one_model():
    # only the seasonal AR has a period; the other kinds drop one given to them
    for kind in (RAW, AR_GARCH):
        assert FilterSpec(kind, seasonal_period=5) == FilterSpec(kind)
        assert FilterSpec(kind, seasonal_period=5).seasonal_period is None
    assert FilterSpec(SARIMA) == FilterSpec(SARIMA, seasonal_period=7)
    assert FilterSpec(SARIMA, seasonal_period=None).seasonal_period == 7
    assert FilterSpec(SARIMA, seasonal_period=5) != FilterSpec(SARIMA)


@pytest.mark.parametrize("cls, values, match", [
    (ArGarchParams, (0.0, 0.3, 0.0, 0.1, 0.8), "omega > 0"),
    (ArGarchParams, (0.0, 0.3, 0.1, -0.1, 0.8), "alpha >= 0"),
    (ArGarchParams, (0.0, 0.3, 0.1, 0.1, -0.8), "beta >= 0"),
    (ArGarchParams, (0.0, 0.3, 0.1, 0.3, 0.7), "alpha \\+ beta < 1"),
    (ArGarchParams, (0.0, 1.0, 0.1, 0.1, 0.8), r"\|phi\| < 1"),
    (SarimaParams, (0.0, 1.0, 0.2, 1.0), r"\|phi1\| < 1"),
    (SarimaParams, (0.0, 0.2, -1.0, 1.0), r"\|seasonal_phi\| < 1"),
    (SarimaParams, (0.0, 0.2, 0.2, 0.0), "sigma > 0"),
])
def test_params_refuse_values_outside_the_parameter_space(cls, values, match):
    with pytest.raises(ValueError, match=match):
        cls(*values)


def explosive_window(n, seed=0):
    """A 3-hour window whose hour 2 is x_t = 1.02 x_{t-1} + e_t."""
    e = rng_for(seed).standard_normal(n)
    x = np.zeros(n)
    for t in range(1, n):
        x[t] = 1.02 * x[t - 1] + e[t]
    window = equicorrelated_normals(n, 0.5, 4, n_hours=3)
    window[:, 1] = x
    return window


def test_sarima_refuses_an_explosive_estimate():
    with pytest.raises(FitError, match=r"^seasonal AR estimate outside parameter space for "
                                       r"hours 2: require \|phi1\| < 1 and \|seasonal_phi\| < 1$"):
        fit_filter(explosive_window(200), FilterSpec(SARIMA))


@pytest.mark.parametrize("spec", FITTED)
@pytest.mark.parametrize("value", [0.1, 1 / 3, 40.7, 0.5])
def test_fitted_filters_refuse_an_exactly_constant_hour(spec, value):
    # np.var of 364 copies of 0.1 is 7.7e-34, not 0: constancy is tested exactly
    window = argarch_copula_errors(364, 0.6, seed=7)[:, :3]
    window[:, 1] = value
    with pytest.raises(FitError, match=r"^constant input series for hours 2: "):
        fit_filter(window, spec)


def test_bfgs_restarts_a_direction_that_is_not_a_descent_direction():
    # a quadratic with its minimum 0 at the origin, powers of two so that
    # every step below is exact, and the h0 metric diag(1, 14).  The first
    # step, (1, 0), is accepted, and y'diag(h0)y overflows, so the scaled
    # inverse Hessian s'y/y'diag(h0)y diag(h0) is 0 and its BFGS update sees
    # only the first axis, where the gradient is now 0: the direction is -0,
    # not a descent direction.  The row must restart from diag(h0), whose
    # direction is finite, and still reach the minimum.
    hessian = np.array([[2.0 ** 511, 2.0 ** 510], [2.0 ** 510, 2.0 ** 510]])
    calls = []

    def quadratic(x, args):
        calls.append(x[0].copy())
        with np.errstate(over="ignore", invalid="ignore"):
            g = x @ hessian
            f = 0.5 * (x * g).sum(axis=1)
        bad = ~(np.isfinite(f) & np.isfinite(g).all(axis=1))
        f[bad], g[bad] = math.inf, 0.0
        return f, g

    x0, h0 = np.array([[-2.0, 2.0]]), np.array([[1.0, 14.0]])
    x, f, converged = filters._bfgs(quadratic, x0, np.zeros(1), h0, -FREE, FREE)
    assert np.array_equal(quadratic(x0, None)[1], [[-2.0 ** 511, 0.0]])
    assert np.array_equal(calls[1], [-1.0, 2.0])  # the full first step, accepted
    assert np.array_equal(calls[2], [-1.0, 2.0 - 14.0 * 2.0 ** 510])  # -diag(h0) g
    assert converged[0] and f[0] <= 1e-9 * 2.0 ** 511


# the quadratic of the two tests below: Hessian [[1e154, 5.5e153], [5.5e153, 6.05e153]],
# minimum 0 at the origin, and the h0 metric diag(1, 4)
NEAR_SINGULAR = np.array([[1e154, 5.5e153], [5.5e153, 6.05e153]])


def near_singular_quadratic(x, args):
    with np.errstate(over="ignore", invalid="ignore"):
        g = x @ NEAR_SINGULAR
        f = 0.5 * (x * g).sum(axis=1)
    bad = ~(np.isfinite(f) & np.isfinite(g).all(axis=1))
    f[bad], g[bad] = math.inf, 0.0
    return f, g


def test_bfgs_reports_a_null_accepted_step_as_a_stall():
    # from (-2, 1e154 / 5.5e153) the gradient is (-1e154, -9.6e136) in
    # floating point, the overflowing first scaling leaves a rank-one inverse
    # Hessian, whose accepted step leaves f = 5e153 unchanged: that is no
    # convergence, as the minimum is 0.  Its direction is within 1e-12 of
    # orthogonal to -g, so the search restarts from diag(h0); a row may
    # report convergence only near the minimum
    x0 = np.array([[-2.0, 1e154 / 5.5e153]])
    x, f, converged = filters._bfgs(near_singular_quadratic, x0, np.zeros(1), np.array([[1.0, 4.0]]),
                                    -FREE, FREE)
    assert not converged[0] or f[0] <= 1e-9 * 5e153


def test_bfgs_first_slope_emits_no_overflow_warning():
    # from (-4, 0) the first slope g' diag(h0) g overflows: the row is dropped
    # as not finite, unconverged, without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, f, converged = filters._bfgs(near_singular_quadratic, np.array([[-4.0, 0.0]]),
                                        np.zeros(1), np.array([[1.0, 4.0]]), -FREE, FREE)
    assert not converged[0]


@pytest.mark.parametrize("spec", FITTED)
def test_fitted_filters_refuse_an_hour_whose_variance_underflows(spec):
    # 0 and 5e-324 alternate: not constant, but the variance is 0 in floating point
    window = argarch_copula_errors(200, 0.6, seed=7)[:, :3]
    window[:, 2] = np.resize([0.0, 5e-324], 200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError, match=r"^variance underflow for hours 3: "):
            fit_filter(window, spec)
