"""The backtest against the scalar reference backtest of ``tests/_reference.py``.

A differential test: the vectorised backtest and a per-hour transcription of
the method in Python floats must give the same forecasts bit for bit, skip
the same (setting, day) pairs, and score alike.  The reference takes the
estimates of the backtest's ``fit_filter`` calls, and asks for them by
window, so the comparison covers every step after estimation and the refit
schedule.  The AR-GARCH estimates themselves are checked against the
first-order conditions of the likelihood, with the reference's scalar NLL
and its gradient in natural parameters.
"""
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference
from _simulate import argarch_copula_errors, equicorrelated_normals, panels_from_errors
from schaake import filters
from schaake.backtest import SETTING_TABLE, BacktestConfig, run_backtest
from schaake.filters import AR_GARCH, RAW, SARIMA, FilterSpec

# scores sum in another order than the package's; a score is also held
# within 1e-12 of its day's largest |value|, as a CRPS of 0 has no relative error
SCORE_RTOL = 1e-12


@st.composite
def backtests(draw):
    """A small panel and a config with every setting and drawn filter overrides."""
    error_window = draw(st.integers(100, 130))
    m = draw(st.integers(5, 20))
    # margin windows shorter than m make empirical PITs tie
    margin_window = draw(st.one_of(st.integers(2, m), st.integers(m, error_window)))
    n_days = error_window + draw(st.integers(2, 5))
    specs = [FilterSpec(RAW), FilterSpec(AR_GARCH),
             FilterSpec(SARIMA, seasonal_period=draw(st.integers(2, 7)))]
    overrides = {name: draw(st.sampled_from(specs)) for name in SETTING_TABLE
                 if draw(st.booleans())}
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        errors = argarch_copula_errors(n_days, 0.6, seed)
    else:
        errors = 3.0 * equicorrelated_normals(n_days, 0.6, seed)
    flat_until = draw(st.none() | st.integers(error_window - 3, n_days))
    if flat_until is not None:  # one hour constant: fits fail, Gaussian copulas degenerate
        errors[:flat_until, draw(st.integers(0, 23))] = 0.5
    cfg = BacktestConfig(error_window=error_window, margin_window=margin_window,
                         dependence_window=m, filter_overrides=overrides, seed=seed,
                         refit_every=draw(st.integers(1, 5)))
    return panels_from_errors(errors), cfg


@settings(max_examples=6, deadline=None)
@given(case=backtests())
def test_backtest_matches_the_scalar_reference(case):
    (real, fc), cfg = case
    fits = {}  # (window bytes, spec) -> the backtest's estimates, None for a failed fit
    fit_filter = filters.fit_filter

    def recording_fit(window, spec, seed):
        key = np.asarray(window).tobytes(), spec
        fits[key] = None
        params, paths = fit_filter(window, spec, seed)
        fits[key] = params
        return params, paths

    with mock.patch.object(filters, "fit_filter", recording_fit), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # skip reasons
        result = run_backtest(real, fc, cfg)

    def fit(window, spec):  # a fit the backtest did not make raises KeyError
        return fits[np.array(window).tobytes(), spec]

    expected, skipped = _reference.reference_backtest(
        real.values.tolist(), fc.values.tolist(), real.dates,
        specs={name: cfg.filter_spec(name) for name in cfg.settings}, fit=fit,
        error_window=cfg.error_window, margin_window=cfg.margin_window, m=cfg.m,
        refit_every=cfg.refit_every, seed=cfg.seed)
    assert {name: set(result.skipped.get(name, ())) for name in cfg.settings} == skipped
    assert set(result.forecasts) == set(result.scores)
    for name in cfg.settings:
        forecasts, days = result.forecasts.get(name, []), expected[name]
        assert [f.date for f in forecasts] == sorted(days)
        for f in forecasts:
            assert f.members.tobytes() == np.array(days[f.date][0]).tobytes(), (name, f.date)
        if not forecasts:
            continue
        scores = result.scores[name]
        for i, f in enumerate(forecasts):
            _, es, crps, ranks = days[f.date]
            y = real.values[real.dates.index(f.date)]
            atol = SCORE_RTOL * max(np.max(np.abs(f.members)), np.max(np.abs(y)))
            np.testing.assert_allclose(scores.es[i], es, rtol=SCORE_RTOL, atol=atol)
            np.testing.assert_allclose(scores.crps[i], crps, rtol=SCORE_RTOL, atol=atol)
            assert tuple(scores.ranks[i].tolist()) == ranks


# first-order conditions of an AR-GARCH fit, per observation: a free
# coordinate's gradient is at most FOC_TOL in absolute value; alpha or beta
# within AT_BOUND of 0, or alpha + beta within AT_BOUND of 1, is on that bound,
# and so is omega within a relative AT_BOUND of its lower bound
# OMEGA_FLOOR * var (var the window's variance), where its derivative must be
# >= -FOC_TOL
FOC_TOL = 1e-6
AT_BOUND = 1e-6
OMEGA_FLOOR = 1e-12


def foc_violations(window, params, out) -> list:
    """The first-order conditions that each hour's AR-GARCH estimate violates."""
    violations = []
    for h, p in enumerate(params):
        x = window[:, h].tolist()
        nll, grad = _reference.argarch_nll(x, p)
        # the package's NLL, from its paths: 0.5 * sum of log(2 pi sigma^2) + z^2
        sigma, z = out.sigma_hat[:, h], out.z[:, h]
        package = 0.5 * math.fsum((np.log(2.0 * np.pi * sigma * sigma) + z * z).tolist())
        assert abs(nll - package) <= 1e-12 * abs(package), (h, nll, package)
        g = dict(zip(("c", "phi", "omega", "alpha", "beta"), (v / len(x) for v in grad)))
        free = ["c", "phi"]
        if p.omega > OMEGA_FLOOR * np.var(window[:, h]) * (1.0 + AT_BOUND):
            free.append("omega")
        elif g["omega"] < -FOC_TOL:
            violations.append((h + 1, "outward at the omega floor", g["omega"]))
        if p.alpha + p.beta >= 1.0 - AT_BOUND:
            if g["alpha"] - g["beta"] < -FOC_TOL:
                violations.append((h + 1, "along (+alpha, -beta) on the cap", g))
        else:
            for name in ("alpha", "beta"):
                if getattr(p, name) > AT_BOUND:
                    free.append(name)
                elif g[name] < -FOC_TOL:
                    violations.append((h + 1, f"outward at {name} = 0", g[name]))
        violations += [(h + 1, name, g[name]) for name in free if abs(g[name]) > FOC_TOL]
    return violations


def _window(kind, seed):
    """The 364-day window of seed ``seed``: AR-GARCH or scaled iid errors, 24 hours."""
    if kind == "argarch":
        return argarch_copula_errors(400, 0.6, seed)[:364]
    return 3.0 * equicorrelated_normals(400, 0.6, seed)[:364]


# the hours of iid windows where an earlier, transformed search stopped short
# of the boundary: at alpha = 1.3e-32, beta = 1.0e-8 (1003 hour 9), near
# omega = 0 with dNLL/domega > 0 (1003, 1005), and below the alpha + beta cap
# or on the beta = 0 face (1002); and where a relative-decrease stop left
# dNLL/dbeta at -2.6e-6 and -1.2e-6 on the alpha = 0, beta -> 1 ridge (2012, 2033)
BOUNDARY_HOURS = {1003: (8, 15, 16), 1005: (1, 4, 5, 16), 1002: (11, 13), 2012: (19,),
                  2033: (5,)}


@pytest.mark.parametrize("kind, seed, hours", [
    *(pytest.param(kind, seed, slice(None), id=f"{kind}-{seed}")
      for kind in ("argarch", "iid") for seed in (1000, 1001)),
    pytest.param("iid", 1003, slice(8, 9), id="witness-iid-1003-hour-9"),
    *(pytest.param("iid", seed, slice(hour - 1, hour), id=f"boundary-iid-{seed}-hour-{hour}")
      for seed, hours in BOUNDARY_HOURS.items() for hour in hours),
])
def test_argarch_fits_satisfy_their_first_order_conditions(kind, seed, hours):
    window = _window(kind, seed)[:, hours]
    params, out = filters.fit_filter(window, FilterSpec(AR_GARCH))
    assert foc_violations(window, params, out) == []


# objective calls per 24-hour fit, measured: iid windows 1000 and 1001 take
# 101 and 114, AR-GARCH windows 57 and 37; the transformed search of an
# earlier version took 678 and 606 on these iid windows (52 and 41 AR-GARCH)
MAX_CALLS = {"iid": 250, "argarch": 120}


@pytest.mark.parametrize("kind", MAX_CALLS)
def test_argarch_fits_take_few_objective_calls(kind, monkeypatch):
    objective, calls = filters._argarch_objective, []

    def counting(v, eps):
        calls.append(len(v))
        return objective(v, eps)

    monkeypatch.setattr(filters, "_argarch_objective", counting)
    for seed in (1000, 1001):
        calls.clear()
        filters.fit_filter(_window(kind, seed), FilterSpec(AR_GARCH))
        assert len(calls) <= MAX_CALLS[kind], (kind, seed, len(calls))
