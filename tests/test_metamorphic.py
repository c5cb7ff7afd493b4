"""Metamorphic relations of the rolling backtest.

Each relation ties two runs together instead of checking one run against an
oracle: what one run forecasts on a day must not depend on the days after
it, on the other settings of the run, on the days before its block, or, for
the raw settings, on the refit schedule.  A last relation ties ``backtest``
to ``evaluate``: rescoring the backtest's own forecast files reproduces its
score, rank-histogram and DM files byte for byte.

A property of one hostile run closes the file: on panels with constant
runs, exact ties, zero-variance hours and rare outliers, ``backtest``
accounts for every (setting, day), its files are readable by ``evaluate``
and ``slp``, and its outputs do not depend on ``--jobs``.
"""
import contextlib
import io
import json
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _simulate import argarch_copula_errors, equicorrelated_normals, panels_from_errors
from schaake import cli
from schaake.backtest import SETTING_TABLE, BacktestConfig, run_backtest
from schaake.filters import AR_GARCH, RAW, SARIMA, FilterSpec
from schaake.panel import N_HOURS, HourlyPanel, save_panel

# the seasonal AR with period 50 needs 150 days, more than any drawn window,
# so its settings are skipped; AR-GARCH drops the period it is given
OVERRIDES = [FilterSpec(RAW), FilterSpec(AR_GARCH), FilterSpec(AR_GARCH, seasonal_period=5),
             FilterSpec(SARIMA, seasonal_period=2), FilterSpec(SARIMA, seasonal_period=7),
             FilterSpec(SARIMA, seasonal_period=50)]
RAW_SETTINGS = ("Schaake-Raw", "I-Raw")


@st.composite
def rolling_backtests(draw):
    """A small panel and a six-setting config in a drawn order, with drawn overrides."""
    error_window = draw(st.integers(100, 130))
    m = draw(st.integers(5, 20))
    n_days = error_window + draw(st.integers(3, 5))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        errors = argarch_copula_errors(n_days, 0.6, seed)
    else:
        errors = 3.0 * equicorrelated_normals(n_days, 0.6, seed)
    cfg = BacktestConfig(
        error_window=error_window, margin_window=draw(st.integers(2, error_window)),
        dependence_window=m, settings=draw(st.permutations(tuple(SETTING_TABLE))),
        filter_overrides={name: draw(st.sampled_from(OVERRIDES)) for name in SETTING_TABLE
                          if draw(st.booleans())},
        seed=seed, refit_every=draw(st.integers(1, 4)))
    return panels_from_errors(errors), cfg


def run(real, fc, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # skip reasons
        return run_backtest(real, fc, cfg)


def outcomes(result, name) -> dict:
    """``name``'s {date: its forecast's bytes, or the reason the day was skipped}."""
    days = {f.date: f.members.tobytes() for f in result.forecasts.get(name, [])}
    return {**days, **result.skipped.get(name, {})}


def alone(cfg, name) -> BacktestConfig:
    """``cfg`` restricted to setting ``name``, with its own override only."""
    overrides = {name: cfg.filter_overrides[name]} if name in cfg.filter_overrides else {}
    return replace(cfg, settings=(name,), filter_overrides=overrides)


def block_starts(real, cfg) -> list:
    """The row indices of the first day of each refit block."""
    return list(range(cfg.error_window, len(real.dates), cfg.refit_every))


def no_lookahead(real, fc, cfg, data):
    # replace the realizations from day t on and the point forecasts after it
    t = data.draw(st.sampled_from(block_starts(real, cfg)) | st.integers(
        cfg.error_window, len(real.dates) - 1), label="t")
    values, fc_values = real.values.copy(), fc.values.copy()
    values[t:] += 1000.0
    fc_values[t + 1:] -= 500.0
    cfg = replace(cfg, eval_end=real.dates[t])  # the days <= t
    tampered = run(HourlyPanel(real.dates, values), HourlyPanel(fc.dates, fc_values), cfg)
    base = run(real, fc, cfg)
    for name in cfg.settings:
        assert outcomes(base, name) == outcomes(tampered, name), name


def settings_are_independent(real, fc, cfg, data):
    # a setting run alone, or with the others in reverse order, is unchanged;
    # three runs, so over the first two days only, to keep them cheap
    name = data.draw(st.sampled_from(cfg.settings), label="setting")
    cfg = replace(cfg, eval_end=real.dates[cfg.error_window + 1])
    full = run(real, fc, cfg)
    assert outcomes(run(real, fc, alone(cfg, name)), name) == outcomes(full, name)
    reverse = run(real, fc, replace(cfg, settings=cfg.settings[::-1]))
    for other in cfg.settings:
        assert outcomes(reverse, other) == outcomes(full, other), other


def later_start(real, fc, cfg, data):
    # a run from a block-start day k reproduces the full run's days >= k
    k = data.draw(st.sampled_from(block_starts(real, cfg)[1:] or [cfg.error_window]),
                  label="k")
    name = data.draw(st.sampled_from(cfg.settings), label="setting")
    late = run(real, fc, replace(alone(cfg, name), eval_start=real.dates[k]))
    full = run(real, fc, alone(cfg, name))
    assert outcomes(late, name) == {d: o for d, o in outcomes(full, name).items()
                                    if d >= real.dates[k]}


def raw_ignores_refits(real, fc, cfg, data):
    raw = replace(cfg, settings=RAW_SETTINGS, filter_overrides={})
    other = data.draw(st.integers(1, 5), label="other refit_every")
    a, b = run(real, fc, raw), run(real, fc, replace(raw, refit_every=other))
    for name in RAW_SETTINGS:
        assert outcomes(a, name) == outcomes(b, name)


def evaluate_round_trip(real, fc, cfg, data):
    result = run(real, fc, cfg)
    assume(result.forecasts)  # evaluate needs a file
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_panel(real, tmp / "real.csv")
        result.write_outputs(tmp / "backtest")
        args = ["evaluate", "--real", str(tmp / "real.csv"), "--out-dir", str(tmp / "evaluate")]
        for name in cfg.settings:
            if name in result.forecasts:
                args += ["--forecasts", str(tmp / "backtest" / f"forecasts_{name}.csv")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(args) == 0
        for name in ("scores.csv", "rank_histograms.csv", "dm_tests.csv"):
            assert (tmp / "evaluate" / name).read_bytes() == \
                (tmp / "backtest" / name).read_bytes(), name


@pytest.mark.parametrize("relation", [no_lookahead, settings_are_independent, later_start,
                                      raw_ignores_refits, evaluate_round_trip])
@settings(max_examples=3, deadline=None)
@given(case=rolling_backtests(), data=st.data())
def test_backtest_relations(relation, case, data):
    (real, fc), cfg = case
    relation(real, fc, cfg, data)


def hostile_case(error_window, eval_days, seed, garch, constant, tied, outliers, config):
    """Panels of ``error_window + eval_days`` days and a config dict for ``schaake backtest``.

    ``constant`` maps an hour to (first day, end day, value): that hour's
    errors are exactly ``value`` on those days.  Each hour of ``tied`` has
    errors rounded to multiples of 0.5, and each (day, hour) of ``outliers``
    an error 1e6 times larger.  Those cells have a point forecast of 0, so
    their errors are exact.
    """
    n_days = error_window + eval_days
    errors = (argarch_copula_errors(n_days, 0.6, seed) if garch
              else 3.0 * equicorrelated_normals(n_days, 0.6, seed))
    for day, hour in outliers:
        errors[day, hour] *= 1e6
    real, fc = panels_from_errors(errors)
    fc_values, values = fc.values.copy(), real.values.copy()
    for hour in tied:
        values[:, hour], fc_values[:, hour] = np.round(2.0 * errors[:, hour]) / 2.0, 0.0
    for hour, (start, end, value) in constant.items():
        values[start:end, hour], fc_values[start:end, hour] = value, 0.0
    for day, hour in outliers:
        values[day, hour], fc_values[day, hour] = errors[day, hour], 0.0
    return (HourlyPanel(real.dates, values), HourlyPanel(fc.dates, fc_values),
            {"error_window": error_window, **config, "seed": seed})


@st.composite
def hostile_runs(draw):
    error_window = draw(st.integers(100, 130))
    eval_days = draw(st.integers(3, 5))
    n_days = error_window + eval_days
    hours = st.integers(0, N_HOURS - 1)
    constant = {}
    for hour in draw(st.lists(hours, max_size=3, unique=True), label="constant hours"):
        start = draw(st.integers(0, n_days - 1))
        end = draw(st.integers(start + 1, n_days))
        whole = draw(st.booleans(), label="zero variance")
        constant[hour] = (0 if whole else start, n_days if whole else end,
                          draw(st.sampled_from([0.5, 0.1])))
    tied = draw(st.lists(hours, max_size=3, unique=True), label="tied hours")
    outliers = draw(st.lists(st.tuples(st.integers(0, n_days - 1), hours), max_size=3),
                    label="outliers")
    m = draw(st.integers(5, 20))
    config = {"margin_window": draw(st.integers(2, error_window)), "dependence_window": m,
              "refit_every": draw(st.integers(1, 4))}
    return hostile_case(error_window, eval_days, draw(st.integers(0, 2**16)), draw(st.booleans()),
                        constant, tied, outliers, config)


def cli_run(args) -> tuple:
    """(exit code, stdout) of ``schaake`` with ``args``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        return cli.main([str(arg) for arg in args]), out.getvalue()


def csv_rows(path) -> list:
    return [line.split(",") for line in path.read_text().splitlines()[1:]] if path.exists() else []


@settings(max_examples=4, deadline=None)
@given(case=hostile_runs())
@example(case=hostile_case(120, 5, 3, False, {4: (0, 125, 0.1), 9: (30, 90, 0.5)}, [2], [(60, 7)],
                           {"margin_window": 40, "dependence_window": 20, "refit_every": 2}))
def test_backtest_accounts_for_every_day_of_a_hostile_panel(case):
    real, fc, config = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)  # the skip reasons
        tmp = Path(tmp)
        save_panel(real, tmp / "real.csv")
        save_panel(fc, tmp / "fc.csv")
        (tmp / "cfg.json").write_text(json.dumps(config))
        runs = []
        for jobs in (1, 2):
            out_dir = tmp / f"jobs{jobs}"
            rc, stdout = cli_run(["backtest", "--real", tmp / "real.csv", "--forecast",
                                  tmp / "fc.csv", "--config", tmp / "cfg.json",
                                  "--out-dir", out_dir, "--jobs", jobs])
            assert rc == 0
            runs.append((stdout, {path.name: path.read_bytes() for path in out_dir.iterdir()}))
        assert runs[0] == runs[1]

        # every (setting, day) is scored or skipped, and every skip was warned
        days = [d.isoformat() for d in real.dates[config["error_window"]:]]
        scored = {(row[1], row[0]): row[3] for row in csv_rows(tmp / "jobs1" / "scores.csv")}
        skipped = {tuple(row) for row in csv_rows(tmp / "jobs1" / "skipped_days.csv")}
        assert not skipped & scored.keys()
        assert skipped | scored.keys() == {(name, day) for name in SETTING_TABLE for day in days}
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        reasons = [str(w.message) for w in caught]
        for name, day in skipped:
            block = days[days.index(day) // config["refit_every"] * config["refit_every"]]
            assert any(reason.startswith(f"{name} skipped on {day}: ")
                       or (SETTING_TABLE[name][0] == AR_GARCH and reason.startswith(
                           f"argarch fit failed for the block starting {block} "))
                       for reason in reasons), (name, day)

        # a Schaake setting and its independence counterpart share the CRPS
        for name in ("NP", "P", "Raw"):
            for day in days:
                if (f"Schaake-{name}", day) in scored and (f"I-{name}", day) in scored:
                    assert scored[f"Schaake-{name}", day] == scored[f"I-{name}", day]

        files = sorted(tmp.glob("jobs1/forecasts_*.csv"))
        if files:
            forecasts = [arg for path in files for arg in ("--forecasts", path)]
            assert cli_run(["evaluate", "--real", tmp / "real.csv", "--out-dir", tmp / "eval",
                            *forecasts])[0] == 0
            assert cli_run(["slp", "--real", tmp / "real.csv", *forecasts])[0] == 0
