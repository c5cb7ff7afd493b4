"""Acceptance suite: one reported pass/fail line per criterion.

Each test prints ``[criterion N] <name>: PASS/FAIL`` directly to the
terminal (bypassing capture) and then asserts, so a glance at the pytest
output shows the per-criterion verdicts.
"""
import filecmp
import json
import os
import time

import numpy as np
import pytest

from _simulate import (
    argarch_copula_errors,
    argarch_series,
    equicorrelated_normals,
    iid_error_panels,
    panels_from_errors,
    rng_for,
)
from schaake import cli
from schaake.backtest import BacktestConfig, run_backtest, run_toy_example
from schaake.filters import AR_GARCH, SARIMA, FilterSpec, fit_filter
from schaake.loadprofile import daily_price, default_profile, scenario_daily_prices
from schaake.panel import save_panel
from schaake.scoring import (
    average_rank_histogram,
    crps_ensemble,
    dm_test,
    energy_score,
    interval_coverage,
    rank_histogram,
    uniformity_check,
)

TOY_OUTPUT = np.array([
    [6.1, 31.6, 27.2, 36.5],
    [30.3, 39.0, 44.4, 57.0],
    [37.0, 45.7, 74.6, 74.2],
    [16.1, 21.7, 37.0, 26.7],
    [23.6, 52.3, 57.5, 64.4],
    [54.5, 69.6, 64.8, 50.5],
    [44.5, 59.7, 50.9, 43.9],
])


def report(capsys, number, name, ok, detail=""):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"\n[criterion {number}] {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def crps_quadrature(members, y):
    """Piecewise-exact quadrature of the integral CRPS definition."""
    members = np.sort(np.asarray(members, dtype=float))
    grid = np.unique(np.concatenate([members, [y]]))
    total = 0.0
    for a, b in zip(grid[:-1], grid[1:]):
        cdf = np.count_nonzero(members <= a) / members.size
        total += (cdf - (1.0 if a >= y else 0.0)) ** 2 * (b - a)
    return total


def test_criterion_1_toy_example(capsys):
    t0 = time.time()
    fc = run_toy_example()
    exact = fc.members.shape == (7, 4) and np.allclose(fc.members, TOY_OUTPUT, atol=1e-12)
    elapsed = time.time() - t0
    report(capsys, 1, "toy example reproduces the reference joint forecast",
           exact and elapsed < 1.0, f"28/28 values, {elapsed:.3f}s")


def test_criterion_2_score_oracles(capsys):
    rng = rng_for(202)
    quad_err = 0.0
    for _ in range(20):
        members = rng.standard_normal(rng.integers(5, 80)) * rng.uniform(0.5, 20.0)
        y = float(rng.standard_normal() * 10.0)
        quad_err = max(quad_err, abs(crps_ensemble(members[:, None], [y])[0]
                                     - crps_quadrature(members, y)))
    rel_err = 0.0
    for _ in range(100):
        members = rng.standard_normal(rng.integers(1, 50))
        y = float(rng.standard_normal())
        c = crps_ensemble(members[:, None], [y])[0]
        e = energy_score(members[:, None], [y])
        rel_err = max(rel_err, abs(e - c) / max(abs(c), 1e-300))
    report(capsys, 2, "CRPS quadrature and ES/CRPS agreement",
           quad_err <= 0.01 and rel_err <= 1e-12,
           f"max quadrature error {quad_err:.2e}, max relative ES gap {rel_err:.2e}")


def _calibrated_rank_flags(seed, m=90, T=2000, n_hours=24):
    """Rank histograms for one calibrated comonotone forecast simulation.

    Per day, members and truth are m+1 exchangeable draws shared across
    hours up to hour-specific affine margins (which leave ranks unchanged),
    the fully dependent case in which the binned average rank is uniform.
    """
    rng = rng_for(seed)
    draws = rng.standard_normal((T, m + 1))
    members, truth = draws[:, :m], draws[:, m]
    ranks_1d = 1 + np.count_nonzero(members < truth[:, None], axis=1)
    ranks = np.tile(ranks_1d[:, None], (1, n_hours))
    flags = [uniformity_check(counts) for counts in rank_histogram(ranks, m)]
    flags.append(uniformity_check(average_rank_histogram(ranks.mean(axis=1), m)))
    return np.array(flags)


def test_criterion_3_calibration(capsys):
    t0 = time.time()
    rates = np.mean([_calibrated_rank_flags(300 + s) for s in range(50)], axis=0)
    elapsed = time.time() - t0
    report(capsys, 3, "rank histograms uniform under calibration",
           bool(np.all(rates >= 0.95)) and elapsed < 120.0,
           f"per-histogram pass rates {rates.min():.2f}..{rates.max():.2f} "
           f"over 50 seeds, {elapsed:.0f}s")


@pytest.fixture(scope="module")
def dependence_run():
    errors = 3.0 * equicorrelated_normals(864, rho=0.8, seed=400)
    real, fc = panels_from_errors(errors)
    cfg = BacktestConfig(seed=17, refit_every=25)
    return run_backtest(real, fc, cfg)


def test_criterion_4_dependence_benefit(capsys, dependence_run):
    result = dependence_run
    pairs = [("Schaake-NP", "I-NP"), ("Schaake-P", "I-P"), ("Schaake-Raw", "I-Raw")]
    details, ok = [], True
    for shuffled, independent in pairs:
        es_s = result.scores[shuffled].es
        es_i = result.scores[independent].es
        _, p = dm_test(es_s, es_i)
        crps_equal = np.array_equal(result.scores[shuffled].crps,
                                    result.scores[independent].crps)
        ok &= es_s.mean() < es_i.mean() and p < 0.01 and crps_equal
        details.append(f"{shuffled} ES {es_s.mean():.3f} < {es_i.mean():.3f}, "
                       f"p={p:.1e}, CRPS equal={crps_equal}")
    ok &= all(len(result.scores[s].dates) == 500 for s, _ in pairs)
    report(capsys, 4, "shuffled settings beat independence on ES", ok,
           "; ".join(details))


def test_criterion_5_coverage(capsys):
    t0 = time.time()
    errors = argarch_copula_errors(1364, rho=0.8, seed=500)
    real, fc = panels_from_errors(errors)
    cfg = BacktestConfig(settings=("Schaake-NP", "I-NP"), seed=23, refit_every=25)
    result = run_backtest(real, fc, cfg, jobs=os.cpu_count() or 1)
    profile = default_profile()
    date_index = {d: i for i, d in enumerate(real.dates)}
    coverage = {}
    for name in cfg.settings:
        samples = np.array([scenario_daily_prices(f, profile)
                            for f in result.forecasts[name]])
        realized = np.array([daily_price(real.values[date_index[f.date]], profile)
                             for f in result.forecasts[name]])
        coverage[name] = interval_coverage(samples, realized, 0.9333)
    elapsed = time.time() - t0
    ok = (0.91 <= coverage["Schaake-NP"] <= 0.955 and coverage["I-NP"] < 0.80
          and len(result.forecasts["Schaake-NP"]) == 1000 and elapsed < 600.0)
    report(capsys, 5, "daily price interval coverage", ok,
           f"Schaake-NP {coverage['Schaake-NP']:.4f} in [0.91, 0.955], "
           f"I-NP {coverage['I-NP']:.4f} < 0.80, {elapsed:.0f}s")


def test_criterion_6_filter_recovery(capsys):
    t0 = time.time()
    truth = {"c": 0.0, "phi": 0.5, "omega": 0.1, "alpha": 0.1, "beta": 0.8}
    hits = 0
    for seed in range(20):
        eps = argarch_series(5000, 0.0, 0.5, 0.1, 0.1, 0.8, seed=600 + seed)
        (params,), _ = fit_filter(eps[:, None], FilterSpec(AR_GARCH))
        hits += all(abs(getattr(params, k) - v) <= 0.1 for k, v in truth.items())
    sarima_hits = 0
    for seed in range(20):
        rng = rng_for(700 + seed)
        x = np.zeros(2300)
        e = rng.standard_normal(2300)
        for t in range(8, 2300):
            x[t] = 0.5 * x[t - 1] + 0.4 * x[t - 7] - 0.2 * x[t - 8] + e[t]
        (params,), _ = fit_filter(x[300:, None], FilterSpec(SARIMA, seasonal_period=7))
        sarima_hits += (abs(params.phi1 - 0.5) <= 0.05
                        and abs(params.seasonal_phi - 0.4) <= 0.05)
    elapsed = time.time() - t0
    ok = hits >= 18 and sarima_hits >= 18 and elapsed < 120.0
    report(capsys, 6, "filter parameter recovery", ok,
           f"AR-GARCH {hits}/20 within 0.1, SARIMA {sarima_hits}/20 within 0.05, "
           f"{elapsed:.0f}s")


def test_criterion_7_determinism(capsys, tmp_path):
    real, fc = iid_error_panels(180, rho=0.6, seed=800)
    save_panel(real, tmp_path / "real.csv")
    save_panel(fc, tmp_path / "fc.csv")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"error_window": 120, "margin_window": 60,
                                    "dependence_window": 60, "seed": 5,
                                    "refit_every": 10}))
    outputs = {}
    for jobs in (1, 2):
        out_dir = tmp_path / f"jobs{jobs}"
        rc = cli.main(["backtest", "--real", str(tmp_path / "real.csv"),
                       "--forecast", str(tmp_path / "fc.csv"),
                       "--config", str(cfg_path), "--out-dir", str(out_dir),
                       "--jobs", str(jobs)])
        assert rc == 0
        outputs[jobs] = out_dir
    names = sorted(os.listdir(outputs[1]))
    # six forecast CSVs plus scores, rank histograms and DM tests
    ok = names == sorted(os.listdir(outputs[2])) and len(names) >= 9
    identical = [n for n in names
                 if filecmp.cmp(outputs[1] / n, outputs[2] / n, shallow=False)]
    ok &= identical == names
    report(capsys, 7, "byte-identical outputs across --jobs", ok,
           f"{len(identical)}/{len(names)} CSVs identical")
