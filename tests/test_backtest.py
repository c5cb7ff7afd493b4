import concurrent.futures
import csv
import datetime
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _simulate import equicorrelated_normals, iid_error_panels, panels_from_errors
from test_copula import BAD_MATRIX_FILES
from test_filters import explosive_window
from schaake import backtest, cli
from schaake.backtest import (
    SETTING_TABLE,
    BacktestConfig,
    ConfigError,
    derive_seed,
    run_backtest,
    run_toy_example,
)
from schaake.filters import AR_GARCH, RAW, SARIMA, FilterSpec
from schaake.forecast import EnsembleForecast, read_forecasts_csv, write_forecasts_csv
from schaake.panel import HourlyPanel, load_panel, save_panel
from schaake.scoring import dm_test

# joint forecast implied by the worked-example quantiles and rank matrix
TOY_OUTPUT = np.array([
    [6.1, 31.6, 27.2, 36.5],
    [30.3, 39.0, 44.4, 57.0],
    [37.0, 45.7, 74.6, 74.2],
    [16.1, 21.7, 37.0, 26.7],
    [23.6, 52.3, 57.5, 64.4],
    [54.5, 69.6, 64.8, 50.5],
    [44.5, 59.7, 50.9, 43.9],
])


def small_config(**kwargs):
    defaults = dict(error_window=120, margin_window=40, dependence_window=40)
    defaults.update(kwargs)
    return BacktestConfig(**defaults)


def test_toy_example_output_matrix():
    fc = run_toy_example()
    assert fc.members.shape == (7, 4)
    assert np.allclose(fc.members, TOY_OUTPUT, atol=1e-12)


def test_derive_seed_distinguishes_inputs():
    d1, d2 = datetime.date(2020, 1, 1), datetime.date(2020, 1, 2)
    seeds = {derive_seed(0, d1, "Schaake-NP", "independence"),
             derive_seed(0, d2, "Schaake-NP", "independence"),
             derive_seed(0, d1, "I-NP", "independence"),
             derive_seed(0, d1, "Schaake-NP", "copula-sample"),
             derive_seed(1, d1, "Schaake-NP", "independence")}
    assert len(seeds) == 5
    assert derive_seed(3, d1, "I-P", "x") == derive_seed(3, d1, "I-P", "x")


def test_config_validation():
    with pytest.raises(ConfigError, match="unknown setting"):
        BacktestConfig(settings=("Schaake-XX",))
    with pytest.raises(ConfigError):
        BacktestConfig(dependence_window=1)
    with pytest.raises(ConfigError):
        BacktestConfig(refit_every=0)
    with pytest.raises(ConfigError, match="margin"):
        BacktestConfig(error_window=50, margin_window=90)
    # a setting named twice runs once, and a run names at least one
    assert BacktestConfig(settings=["I-Raw", "I-NP", "I-Raw"]).settings == ("I-Raw", "I-NP")
    for empty in ((), []):
        with pytest.raises(ConfigError, match="^settings must name at least one setting$"):
            BacktestConfig(settings=empty)
    for windows in ({"margin_window": 0}, {"error_window": 0}):
        with pytest.raises(ConfigError, match="window lengths must be positive"):
            BacktestConfig(**windows)
    # a library caller's values are refused as the CLI's are, naming the key
    for overrides in (["I-NP"], None, {"I-NP": {"kind": AR_GARCH}}, {"I-NP": None},
                      {"I-NP": AR_GARCH}):
        with pytest.raises(ConfigError, match="^filter_overrides must map setting names to "
                                              "FilterSpecs, got "):
            BacktestConfig(filter_overrides=overrides)
    for key in ("eval_start", "eval_end"):
        for value in ("2015-05-01", datetime.datetime(2015, 5, 1), 735719):
            with pytest.raises(ConfigError, match=f"^{key} must be a datetime.date, got"):
                BacktestConfig(**{key: value})


@pytest.mark.parametrize("text", ["[1, 2]", "7", '"error_window"', "null"])
def test_config_must_be_a_json_object(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: a config must be a "
                                          "JSON object$"):
        BacktestConfig.from_json(path)


def test_config_groups_settings_once_by_model(monkeypatch):
    # AR-GARCH has no seasonal period, so Schaake-NP's override is the default
    # model: three groups, and one AR-GARCH fit per block
    real, fc = iid_error_panels(126, rho=0.5, seed=20)
    windows = {"error_window": 120, "margin_window": 40, "dependence_window": 40,
               "refit_every": 3}
    cfg = BacktestConfig.from_json({
        **windows, "filters": {"Schaake-NP": {"kind": "argarch", "seasonal_period": 5}}})
    assert cfg.groups == {
        (FilterSpec(AR_GARCH), "empirical"): ["Schaake-NP", "I-NP"],
        (FilterSpec(AR_GARCH), "gaussian"): ["Schaake-P", "I-P"],
        (FilterSpec(RAW), "empirical"): ["Schaake-Raw", "I-Raw"]}
    fits = []
    fit_filter = backtest.filters.fit_filter
    monkeypatch.setattr(backtest.filters, "fit_filter",
                        lambda *args, **kwargs: fits.append(args[1]) or fit_filter(*args, **kwargs))
    result = run_backtest(real, fc, cfg)
    assert fits == [FilterSpec(AR_GARCH)] * 2  # 6 evaluation days in blocks of 3
    default = run_backtest(real, fc, BacktestConfig.from_json(windows))
    assert list(result.forecasts) == list(default.forecasts) == list(cfg.settings)
    for name in cfg.settings:
        assert [f.members.tobytes() for f in result.forecasts[name]] == \
            [f.members.tobytes() for f in default.forecasts[name]]


def test_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "error_window": 200, "margin_window": 60, "dependence_window": 50,
        "settings": ["Schaake-NP", "I-NP"], "seed": 7,
        "eval_start": "2016-01-01",
        "filters": {"Schaake-NP": {"kind": "sarima", "seasonal_period": 7}},
    }))
    cfg = BacktestConfig.from_json(path)
    assert cfg.m == 50
    assert cfg.seed == 7
    assert cfg.eval_start == datetime.date(2016, 1, 1)
    assert cfg.filter_spec("Schaake-NP") == FilterSpec(SARIMA, seasonal_period=7)
    assert cfg.filter_spec("I-NP").kind != SARIMA
    with pytest.raises(ConfigError, match="unknown config keys"):
        BacktestConfig.from_json({"windows": 3})


def test_backtest_shapes_single_day():
    real, fc = iid_error_panels(121, rho=0.5, seed=1)
    cfg = small_config(settings=("Schaake-Raw", "I-Raw"), seed=4)
    result = run_backtest(real, fc, cfg)
    for name in cfg.settings:
        assert result.scores[name].dates == (real.dates[-1],)
        members = result.forecasts[name][0].members
        assert members.shape == (40, 24)
        assert result.scores[name].ranks.shape == (1, 24)
        assert result.scores[name].crps.shape == (1, 24)
    # sorted marginals agree across the two settings
    a, b = (result.forecasts[s][0].members for s in cfg.settings)
    assert np.array_equal(np.sort(a, axis=0), np.sort(b, axis=0))


def test_backtest_no_lookahead():
    real, fc = iid_error_panels(130, rho=0.5, seed=2)
    cfg = small_config(settings=("Schaake-Raw",), eval_start=real.dates[121],
                       eval_end=real.dates[121])
    base = run_backtest(real, fc, cfg).forecasts["Schaake-Raw"][0]
    tampered = real.values.copy()
    tampered[122:] += 1000.0  # strictly after the target day
    tampered_real = type(real)(real.dates, tampered)
    again = run_backtest(tampered_real, fc, cfg).forecasts["Schaake-Raw"][0]
    assert np.array_equal(base.members, again.members)


def test_backtest_target_day_realization_unused():
    real, fc = iid_error_panels(121, rho=0.5, seed=3)
    cfg = small_config(settings=("I-Raw",))
    base = run_backtest(real, fc, cfg).forecasts["I-Raw"][0]
    tampered = real.values.copy()
    tampered[-1] += 500.0
    again = run_backtest(type(real)(real.dates, tampered), fc, cfg)
    assert np.array_equal(base.members, again.forecasts["I-Raw"][0].members)
    assert np.all(again.scores["I-Raw"].ranks == 41)  # realization above every member


def test_paired_settings_share_crps():
    real, fc = iid_error_panels(126, rho=0.6, seed=5)
    cfg = small_config(settings=("Schaake-Raw", "I-Raw"), seed=11)
    result = run_backtest(real, fc, cfg)
    assert np.array_equal(result.scores["Schaake-Raw"].crps,
                          result.scores["I-Raw"].crps)


def test_backtest_is_deterministic():
    real, fc = iid_error_panels(124, rho=0.4, seed=6)
    cfg = small_config(settings=("Schaake-Raw", "I-Raw"), seed=9)
    r1 = run_backtest(real, fc, cfg)
    r2 = run_backtest(real, fc, cfg)
    for name in cfg.settings:
        for f1, f2 in zip(r1.forecasts[name], r2.forecasts[name]):
            assert np.array_equal(f1.members, f2.members)
        assert np.array_equal(r1.scores[name].es, r2.scores[name].es)


def test_backtest_requires_history():
    real, fc = iid_error_panels(50, rho=0.5, seed=7)
    with pytest.raises(Exception, match="history"):
        run_backtest(real, fc, small_config())


def test_dm_rows_flag_identical_series():
    real, fc = iid_error_panels(127, rho=0.5, seed=8)
    cfg = small_config(settings=("Schaake-Raw", "I-Raw"))
    result = run_backtest(real, fc, cfg)
    rows = {(a, b, metric): (stat, p) for a, b, metric, stat, p in
            backtest.dm_rows(result.scores)}
    stat, p = rows[("Schaake-Raw", "I-Raw", "crps")]
    assert stat is None and p is None  # shared margins make the CRPS identical
    stat, p = rows[("Schaake-Raw", "I-Raw", "es")]
    assert stat is not None and 0.0 <= p <= 1.0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def panel_csvs(tmp_path_factory):
    base = tmp_path_factory.mktemp("panels")
    real, fc = iid_error_panels(126, rho=0.5, seed=20)
    save_panel(real, base / "real.csv")
    save_panel(fc, base / "fc.csv")
    return base


def test_cli_backtest_and_evaluate(panel_csvs, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"error_window": 120, "margin_window": 40,
                               "dependence_window": 40,
                               "settings": ["Schaake-Raw", "I-Raw"]}))
    out_dir = tmp_path / "out"
    rc = cli.main(["backtest", "--real", str(panel_csvs / "real.csv"),
                   "--forecast", str(panel_csvs / "fc.csv"),
                   "--config", str(cfg), "--out-dir", str(out_dir), "--seed", "3"])
    assert rc == 0
    assert "Schaake-Raw" in capsys.readouterr().out
    for name in ("forecasts_Schaake-Raw.csv", "forecasts_I-Raw.csv",
                 "scores.csv", "rank_histograms.csv", "dm_tests.csv"):
        assert (out_dir / name).exists()
    with open(out_dir / "dm_tests.csv", newline="", encoding="utf-8") as fh:
        cells = [row[key] for row in csv.DictReader(fh) for key in ("statistic", "p_value")]
    assert any(cells)
    for cell in filter(None, cells):
        float(cell)  # plain float repr, not "np.float64(...)"

    eval_dir = tmp_path / "eval"
    rc = cli.main(["evaluate", "--real", str(panel_csvs / "real.csv"),
                   "--forecasts", str(out_dir / "forecasts_Schaake-Raw.csv"),
                   "--out-dir", str(eval_dir)])
    assert rc == 0
    # the evaluate scores must reproduce the backtest's own
    assert (eval_dir / "scores.csv").read_text().replace("Schaake-Raw", "X") in \
        (out_dir / "scores.csv").read_text().replace("Schaake-Raw", "X")

    slp_out = tmp_path / "slp.csv"
    rc = cli.main(["slp", "--real", str(panel_csvs / "real.csv"),
                   "--forecasts", str(out_dir / "forecasts_Schaake-Raw.csv"),
                   "--out", str(slp_out)])
    assert rc == 0
    header, row = slp_out.read_text().strip().splitlines()
    assert header.split(",")[:3] == ["setting", "nominal", "coverage"]
    assert 0.0 <= float(row.split(",")[2]) <= 1.0


@pytest.mark.parametrize("config, key", [
    ({"filters": {"Schaake-NP": {}}}, "filters.Schaake-NP"),
    ({"filters": ["x"]}, "filters"),
    ({"filters": {"Schaake-np": {"kind": "raw"}}}, "'Schaake-np'"),
    ({"filters": {"Schaake-NP": {"kind": "sarima", "period": 24}}}, "'period'"),
    ({"filters": {"Schaake-NP": {"kind": "sarima", "seasonal_period": "7"}}},
     "seasonal_period"),
    ({"error_window": "120"}, "error_window"),
    ({"refit_every": 2.5}, "refit_every"),
    ({"settings": "I-Raw"}, "settings"),
    ({"settings": []}, "settings"),
    ({"seed": -1}, "seed"),
    ({"eval_start": "2015-13-01"}, "eval_start"),
])
def test_cli_backtest_rejects_bad_config(panel_csvs, tmp_path, capsys, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"error_window": 120, "margin_window": 40,
                               "dependence_window": 40, **config}))
    rc = cli.main(["backtest", "--real", str(panel_csvs / "real.csv"),
                   "--forecast", str(panel_csvs / "fc.csv"), "--config", str(cfg),
                   "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"schaake: data error: {cfg}: ") and key in err


def test_cli_backtest_empty_settings_option_keeps_the_configured_settings(panel_csvs, tmp_path,
                                                                          capsys):
    # an empty --settings overrides nothing; an empty "settings" in the config is refused
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"error_window": 120, "margin_window": 40,
                               "dependence_window": 40, "settings": ["I-Raw"]}))
    rc = cli.main(["backtest", "--real", str(panel_csvs / "real.csv"),
                   "--forecast", str(panel_csvs / "fc.csv"), "--config", str(cfg),
                   "--out-dir", str(tmp_path / "out"), "--settings", ""])
    assert rc == 0
    [line] = capsys.readouterr().out.splitlines()
    assert line.startswith("I-Raw: mean ES ")


def test_cli_backtest_writes_setting_whose_every_day_was_skipped(panel_csvs, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # a seasonal AR with period 50 needs 150 days, more than the 120-day window
    cfg.write_text(json.dumps({"error_window": 120, "margin_window": 40,
                               "dependence_window": 40,
                               "filters": {"Schaake-NP": {"kind": SARIMA,
                                                          "seasonal_period": 50}}}))
    out_dir = tmp_path / "out"
    with pytest.warns(UserWarning, match="seasonal AR needs >= 150"):
        rc = cli.main(["backtest", "--real", str(panel_csvs / "real.csv"),
                       "--forecast", str(panel_csvs / "fc.csv"), "--config", str(cfg),
                       "--out-dir", str(out_dir), "--settings", "Schaake-NP,Schaake-Raw"])
    assert rc == 0
    # the skipped setting gets no forecast file, and its summary line says why
    assert not (out_dir / "forecasts_Schaake-NP.csv").exists()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Schaake-NP: skipped on every day"
    assert lines[1].startswith("Schaake-Raw: mean ES ") and len(lines) == 2
    assert len(_rows(out_dir / "skipped_days.csv")) == 6
    assert {row[1] for row in _rows(out_dir / "scores.csv")} == {"Schaake-Raw"}
    # every forecast file in the out-dir is readable by evaluate and slp
    written = sorted(str(path) for path in out_dir.glob("forecasts_*.csv"))
    assert written == [str(out_dir / "forecasts_Schaake-Raw.csv")]
    for command in (["slp"], ["evaluate", "--out-dir", str(tmp_path / "eval")]):
        rc = cli.main(command + ["--real", str(panel_csvs / "real.csv"),
                                 *(arg for path in written for arg in ("--forecasts", path))])
        assert rc == 0
        assert capsys.readouterr().err == ""


def test_cli_backtest_rerun_removes_the_files_it_would_not_write(panel_csvs, tmp_path, capsys):
    # a rerun into an out-dir leaves evaluate and slp no forecasts or skipped days of an earlier run
    out_dir, cfg = tmp_path / "out", tmp_path / "cfg.json"

    def backtest(filters, names="Schaake-NP,Schaake-Raw"):
        cfg.write_text(json.dumps({"error_window": 120, "margin_window": 40,
                                   "dependence_window": 40, "filters": filters}))
        rc = cli.main(["backtest", "--real", str(panel_csvs / "real.csv"),
                       "--forecast", str(panel_csvs / "fc.csv"), "--config", str(cfg),
                       "--out-dir", str(out_dir), "--settings", names])
        assert rc == 0
        return capsys.readouterr().out.splitlines()

    backtest({})
    assert (out_dir / "forecasts_Schaake-NP.csv").exists()
    assert (out_dir / "forecasts_Schaake-NP.csv.npz").exists()
    assert (out_dir / "skipped_days.csv").read_bytes() == b"setting,date\r\n"
    # a seasonal AR with period 60 needs 180 days, more than the 120-day window
    with pytest.warns(UserWarning, match="seasonal AR needs >= 180"):
        lines = backtest({"Schaake-NP": {"kind": SARIMA, "seasonal_period": 60}})
    assert lines[0] == "Schaake-NP: skipped on every day"
    assert sorted(path.name for path in out_dir.glob("forecasts_*.csv")) == \
        ["forecasts_Schaake-Raw.csv"]
    # no binary copy is left without its CSV
    assert sorted(path.name for path in out_dir.glob("forecasts_*.csv.npz")) == \
        ["forecasts_Schaake-Raw.csv.npz"]
    assert len(_rows(out_dir / "skipped_days.csv")) == 6
    # evaluate writes only its score tables into the out-dir, and removes no backtest file
    before = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    rc = cli.main(["evaluate", "--real", str(panel_csvs / "real.csv"), "--forecasts",
                   str(out_dir / "forecasts_Schaake-Raw.csv"), "--out-dir", str(out_dir)])
    assert rc == 0
    after = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    for name in ("scores.csv", "rank_histograms.csv", "dm_tests.csv"):
        del before[name], after[name]
    assert after == before and "skipped_days.csv" in after
    backtest({})
    assert (out_dir / "forecasts_Schaake-NP.csv").exists()
    assert (out_dir / "forecasts_Schaake-NP.csv.npz").exists()
    assert (out_dir / "skipped_days.csv").read_bytes() == b"setting,date\r\n"
    # a rerun with fewer settings removes the files of the setting it dropped
    backtest({}, names="Schaake-Raw")
    assert sorted(path.name for path in out_dir.glob("forecasts_*")) == \
        ["forecasts_Schaake-Raw.csv", "forecasts_Schaake-Raw.csv.npz"]


def test_rank_histograms_csv_matches_counts_of_the_ranks(tmp_path):
    # an independent rendering: per hour column a bincount, then the binned daily mean rank
    real, fc = iid_error_panels(127, rho=0.5, seed=8)
    cfg = small_config(settings=("Schaake-NP", "Schaake-Raw", "I-Raw"), refit_every=7, seed=4)
    result = run_backtest(real, fc, cfg)
    m = cfg.m
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["setting", "hour", "bin", "count"])
    for setting in cfg.settings:
        ranks = result.scores[setting].ranks
        assert ranks.shape == (7, 24) and len(np.unique(ranks)) > 10
        for h in range(24):
            counts = np.bincount(ranks[:, h], minlength=m + 2)[1:]
            writer.writerows([setting, h + 1, b, c] for b, c in enumerate(counts.tolist(), 1))
        avg = np.histogram(ranks.mean(axis=1), bins=10, range=(1, m + 1))[0]
        writer.writerows([setting, "avg", b, c] for b, c in enumerate(avg.tolist(), 1))
    result.write_outputs(tmp_path)
    expected = list(csv.reader(io.StringIO(buf.getvalue(), newline="")))
    assert len(expected) == 1 + 3 * (24 * (m + 1) + 10)
    assert [["setting", "hour", "bin", "count"], *_rows(tmp_path / "rank_histograms.csv")] == \
        expected
    assert (tmp_path / "rank_histograms.csv").read_bytes() == buf.getvalue().encode()


@pytest.mark.parametrize("drop_from, match", [
    # a date in one panel only
    (("fc",), r"different dates: first only in the realization (\S+); first only in the "
              r"forecast none$"),
    # a date in neither, inside the windows: they count rows as days
    (("real", "fc"), r"the panels lack 1 of the dates from \S+ to \S+, first (\S+)$"),
])
def test_cli_backtest_refuses_a_missing_date(panel_csvs, tmp_path, capsys, drop_from, match):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"error_window": 120, "margin_window": 40,
                               "dependence_window": 40, "settings": ["Schaake-Raw"]}))
    args = ["backtest", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
    for name, option in (("real", "--real"), ("fc", "--forecast")):
        panel = load_panel(panel_csvs / f"{name}.csv")
        dropped = panel.dates[50]  # of 126 days, inside the first evaluation day's window
        if name in drop_from:
            panel = HourlyPanel(panel.dates[:50] + panel.dates[51:],
                                np.delete(panel.values, 50, axis=0))
        save_panel(panel, tmp_path / f"{name}.csv")
        args += [option, str(tmp_path / f"{name}.csv")]
    rc = cli.main(args)
    err = capsys.readouterr().err.strip()
    assert rc == 2
    assert re.search(match, err).group(1) == dropped.isoformat()


@pytest.mark.parametrize("period, match", [
    # a reversed period is refused with the config, before a panel is read
    ({"eval_start": "2021-01-01", "eval_end": "2020-01-01"},
     r"cfg\.json: eval_start 2021-01-01 is after eval_end 2020-01-01$"),
    # a period outside the panel names the days that could be evaluated
    ({"eval_start": "2021-01-01"},
     r"no evaluation days from 2021-01-01 to the last day; the days with 120 days of "
     r"history before them: 2015-05-01 to 2015-05-06$"),
    ({"eval_end": "2015-04-30"},
     r"no evaluation days from the first day to 2015-04-30; the days with 120 days of "
     r"history before them: 2015-05-01 to 2015-05-06$"),
    ({"error_window": 130, "eval_end": "2015-04-30"},
     r"no evaluation days from the first day to 2015-04-30; the days with 130 days of "
     r"history before them: none$"),
])
def test_cli_backtest_names_the_period_without_evaluation_days(panel_csvs, tmp_path, capsys,
                                                                period, match):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"error_window": 120, "margin_window": 40,
                               "dependence_window": 40, **period}))
    rc = cli.main(["backtest", "--real", str(panel_csvs / "real.csv"),
                   "--forecast", str(panel_csvs / "fc.csv"), "--config", str(cfg),
                   "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("schaake: data error: ")
    assert re.search(match, err.strip())


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _keep_forecast_rows(src, dst, keep):
    """Copy a forecasts CSV, keeping the header and the rows ``keep(date, member)`` accepts."""
    with open(src, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([rows[0]] + [r for r in rows[1:] if keep(r[0], int(r[1]))])


@pytest.mark.parametrize("short_first", [False, True])
def test_cli_evaluate_aligns_files_on_dates(panel_csvs, tmp_path, capsys, short_first):
    out_dir = tmp_path / "out"
    cfg = small_config(settings=("Schaake-Raw", "I-Raw"), seed=3)
    run_backtest(load_panel(panel_csvs / "real.csv"), load_panel(panel_csvs / "fc.csv"),
                 cfg).write_outputs(out_dir)
    full = out_dir / "forecasts_Schaake-Raw.csv"
    short = tmp_path / "forecasts_I-Raw.csv"
    late = sorted({row[0] for row in _rows(full)})[-3:]
    _keep_forecast_rows(out_dir / "forecasts_I-Raw.csv", short, lambda d, k: d in late)
    files = [short, full] if short_first else [full, short]

    eval_dir = tmp_path / "eval"
    args = ["evaluate", "--real", str(panel_csvs / "real.csv"), "--out-dir", str(eval_dir)]
    for path in files:
        args += ["--forecasts", str(path)]
    assert cli.main(args) == 0
    capsys.readouterr()
    backtest_scores = {(r[0], r[1]): r for r in _rows(out_dir / "scores.csv")}
    eval_scores = _rows(eval_dir / "scores.csv")
    assert len(eval_scores) == len(backtest_scores) - 3
    for row in eval_scores:
        assert row == backtest_scores[(row[0], row[1])]

    a, b = ["I-Raw", "Schaake-Raw"] if short_first else ["Schaake-Raw", "I-Raw"]
    es = {(d, s): float(v) for d, s, v, _ in backtest_scores.values()}
    stat, p = dm_test([es[(d, a)] for d in late], [es[(d, b)] for d in late])
    dm = {row[2]: row[3:] for row in _rows(eval_dir / "dm_tests.csv")}
    assert dm["es"] == [repr(float(stat)), repr(float(p))]
    assert dm["crps"] == ["", ""]  # the two files share margins on the common dates


def test_cli_backtest_writes_dm_rows_for_one_evaluation_day(panel_csvs, tmp_path, capsys):
    # the DM test needs two days; a pair with one gets empty cells, not an exit 2
    last = load_panel(panel_csvs / "real.csv").dates[-1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"error_window": 120, "margin_window": 40,
                               "dependence_window": 40, "eval_start": last.isoformat(),
                               "settings": ["Schaake-Raw", "I-Raw"]}))
    out_dir = tmp_path / "out"
    rc = cli.main(["backtest", "--real", str(panel_csvs / "real.csv"),
                   "--forecast", str(panel_csvs / "fc.csv"), "--config", str(cfg),
                   "--out-dir", str(out_dir), "--jobs", "1"])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert {row[0] for row in _rows(out_dir / "scores.csv")} == {last.isoformat()}
    assert _rows(out_dir / "dm_tests.csv") == [["Schaake-Raw", "I-Raw", metric, "", ""]
                                               for metric in ("es", "crps")]


def test_cli_evaluate_writes_dm_rows_for_files_sharing_one_date(panel_csvs, tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = small_config(settings=("Schaake-Raw", "I-Raw"), seed=3)
    run_backtest(load_panel(panel_csvs / "real.csv"), load_panel(panel_csvs / "fc.csv"),
                 cfg).write_outputs(out_dir)
    full = out_dir / "forecasts_Schaake-Raw.csv"
    short = tmp_path / "forecasts_I-Raw.csv"
    last = max(row[0] for row in _rows(full))
    _keep_forecast_rows(out_dir / "forecasts_I-Raw.csv", short, lambda d, k: d == last)
    eval_dir = tmp_path / "eval"
    rc = cli.main(["evaluate", "--real", str(panel_csvs / "real.csv"),
                   "--forecasts", str(full), "--forecasts", str(short),
                   "--out-dir", str(eval_dir)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert _rows(eval_dir / "dm_tests.csv") == [["Schaake-Raw", "I-Raw", metric, "", ""]
                                                for metric in ("es", "crps")]


@pytest.mark.parametrize("label", ['NP, "v2"\r\n\u00e9 ', ""])
def test_cli_evaluate_quotes_a_label_from_the_file_name(panel_csvs, tmp_path, capsys, label):
    out_dir = tmp_path / "out"
    run_backtest(load_panel(panel_csvs / "real.csv"), load_panel(panel_csvs / "fc.csv"),
                 small_config(settings=("Schaake-Raw",), seed=3)).write_outputs(out_dir)
    renamed = tmp_path / f"forecasts_{label}.csv"
    (out_dir / "forecasts_Schaake-Raw.csv").rename(renamed)
    eval_dir = tmp_path / "eval"
    rc = cli.main(["evaluate", "--real", str(panel_csvs / "real.csv"),
                   "--forecasts", str(renamed), "--out-dir", str(eval_dir)])
    assert rc == 0
    capsys.readouterr()
    # csv.reader reads the label back, and every other cell is the backtest's
    for name, column in (("scores.csv", 1), ("rank_histograms.csv", 0)):
        rows, backtest_rows = _rows(eval_dir / name), _rows(out_dir / name)
        assert {row[column] for row in rows} == {label}
        assert [row[:column] + row[column + 1:] for row in rows] == \
            [row[:column] + row[column + 1:] for row in backtest_rows]


def test_cli_evaluate_rejects_mixed_member_counts(panel_csvs, tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = small_config(settings=("Schaake-Raw",), seed=3)
    run_backtest(load_panel(panel_csvs / "real.csv"), load_panel(panel_csvs / "fc.csv"),
                 cfg).write_outputs(out_dir)
    full = out_dir / "forecasts_Schaake-Raw.csv"
    fewer = tmp_path / "forecasts_fewer.csv"
    _keep_forecast_rows(full, fewer, lambda d, k: k <= 20)
    rc = cli.main(["evaluate", "--real", str(panel_csvs / "real.csv"),
                   "--forecasts", str(full), "--forecasts", str(fewer),
                   "--out-dir", str(tmp_path / "eval")])
    assert rc == 2
    assert "forecasts_fewer.csv: 20 members per day, earlier files have 40" in \
        capsys.readouterr().err


@pytest.mark.parametrize("command, option, value", [
    ("backtest", "--jobs", "0"),
    ("backtest", "--jobs", "-2"),
    ("backtest", "--jobs", "two"),
    ("slp", "--nominal", "1.5"),
    ("slp", "--nominal", "0"),
    ("slp", "--nominal", "1"),
    ("slp", "--nominal", "nan"),
])
def test_cli_rejects_out_of_range_arguments_before_reading(tmp_path, capsys, command, option,
                                                           value):
    missing = str(tmp_path / "nope.csv")  # a data error (exit 2) if anything were read
    inputs = {"backtest": ["--forecast", missing, "--out-dir", str(tmp_path / "out")],
              "slp": ["--forecasts", missing]}[command]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--real", missing, *inputs, option, value])
    assert exc.value.code == 1
    assert f"argument {option}: " in capsys.readouterr().err


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records ``max_workers``, runs tasks inline."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("n_tasks, jobs, pool", [
    (6, 1000, [6]), (6, 3, [3]), (6, 1, []), (1, 8, []), (0, 8, []),
])
def test_map_caps_the_pool_at_the_task_count(monkeypatch, n_tasks, jobs, pool):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    assert backtest._map(abs, list(range(-n_tasks, 0)), jobs) == list(range(n_tasks, 0, -1))
    assert RecordingPool.sizes == pool


PAIRS = [{"forecasts_Schaake-NP.csv", "forecasts_I-NP.csv"},
         {"forecasts_Schaake-P.csv", "forecasts_I-P.csv"},
         {"forecasts_Schaake-Raw.csv", "forecasts_I-Raw.csv"}]


@pytest.mark.parametrize("settings, files", [
    (tuple(backtest.SETTING_TABLE), PAIRS),
    (("Schaake-NP", "I-Raw"), [{"forecasts_Schaake-NP.csv"}, {"forecasts_I-Raw.csv"}]),
])
def test_write_outputs_writes_one_task_per_pair(monkeypatch, tmp_path, settings, files):
    calls = []
    monkeypatch.setattr(backtest, "_map", lambda fn, tasks, jobs: calls.append((fn, tasks)))
    day = [EnsembleForecast(datetime.date(2020, 1, 1), np.zeros((3, 24)))]
    backtest.BacktestResult(m=3, forecasts={s: day for s in settings}, scores={},
                            skipped={}).write_outputs(tmp_path, jobs=2)
    [(fn, tasks)] = calls
    assert fn is backtest.forecast.write_forecast_files
    assert [{Path(path).name for _, path in task} for task in tasks] == files


# out-dir names a backtest does not own, though they look like its own
FOREIGN_NAMES = ["forecasts_schaake-np.csv", "forecasts_Schaake-NP.csv.bak",
                 "forecasts_Schaake-NP.npz", "forecasts_Schaake-NP", "forecasts_.csv",
                 "notes.txt"]
SETTING_NAMES = st.sampled_from(list(SETTING_TABLE))


@settings(max_examples=40, deadline=None)
@given(forecasting=st.sets(SETTING_NAMES), earlier=st.sets(SETTING_NAMES),
       skipped=st.dictionaries(SETTING_NAMES, st.sets(st.integers(1, 9), min_size=1)),
       others=st.sets(st.text("I-NPRaw.", min_size=1, max_size=6).filter(
           lambda x: x not in SETTING_TABLE), max_size=3),
       content=st.binary(max_size=8))
def test_write_outputs_touches_no_file_it_does_not_own(forecasting, earlier, skipped, others,
                                                       content):
    foreign = FOREIGN_NAMES + [f"forecasts_{x}.csv" for x in others] + \
        [f"forecasts_{x}.csv.npz" for x in others]
    day = [EnsembleForecast(datetime.date(2020, 1, 1), np.arange(48.0).reshape(2, 24))]
    skipped = {s: {datetime.date(2020, 1, d): "reason" for d in days}
               for s, days in skipped.items()}
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        for i, name in enumerate(foreign):
            (out_dir / name).write_bytes(content + bytes([i]))
        for name in earlier:  # an earlier run's forecast files
            for path in (f"forecasts_{name}.csv", f"forecasts_{name}.csv.npz"):
                (out_dir / path).write_bytes(b"old")
        backtest.BacktestResult(m=2, forecasts={s: day for s in forecasting}, scores={},
                                skipped=skipped).write_outputs(out_dir)
        for i, name in enumerate(foreign):
            assert (out_dir / name).read_bytes() == content + bytes([i])
        owned = {"scores.csv", "rank_histograms.csv", "dm_tests.csv", "skipped_days.csv",
                 *(f"forecasts_{s}.csv{ext}" for s in forecasting for ext in ("", ".npz"))}
        assert {path.name for path in out_dir.iterdir()} == owned | set(foreign)
        assert _rows(out_dir / "skipped_days.csv") == \
            [[s, d.isoformat()] for s, days in skipped.items() for d in days]
        for name in forecasting:
            assert read_forecasts_csv(out_dir / f"forecasts_{name}.csv")[0].date == day[0].date


def test_backtest_formats_each_pair_day_once(monkeypatch, tmp_path):
    real, fc = iid_error_panels(126, rho=0.5, seed=21)
    seasonal = FilterSpec(SARIMA, seasonal_period=7)
    cfg = small_config(refit_every=6, filter_overrides={
        s: seasonal for s in ("Schaake-NP", "Schaake-P", "I-NP", "I-P")})
    result = run_backtest(real, fc, cfg)
    assert result.skipped == {} and len(result.scores["Schaake-NP"].dates) == 6
    cells = []
    monkeypatch.setattr(backtest.forecast, "repr", lambda v: cells.append(v) or repr(v),
                        raising=False)
    result.write_outputs(tmp_path)
    assert len(cells) == 3 * cfg.m * 24 * len(result.scores["Schaake-NP"].dates)


@pytest.mark.parametrize("command", ["evaluate", "slp"])
def test_cli_refuses_forecasts_with_one_label_before_reading(tmp_path, capsys, command):
    a, b = str(tmp_path / "a" / "forecasts_X.csv"), str(tmp_path / "b" / "X.csv")
    missing = str(tmp_path / "nope.csv")  # a data error (exit 2) if anything were read
    out = ["--out-dir", str(tmp_path / "eval")] if command == "evaluate" else []
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--real", missing, "--forecasts", a, "--forecasts", b, *out])
    assert exc.value.code == 1
    assert f"--forecasts {a} and {b} share the setting label 'X'" in capsys.readouterr().err


def test_cli_names_forecast_file_with_wrong_hour_count(panel_csvs, tmp_path, capsys):
    real = load_panel(panel_csvs / "real.csv")
    two_hours = tmp_path / "forecasts_two.csv"
    write_forecasts_csv([EnsembleForecast(d, real.values[i, :2] + np.arange(3.0)[:, None])
                         for i, d in enumerate(real.dates[-3:], start=len(real.dates) - 3)],
                        two_hours)
    rc = cli.main(["evaluate", "--real", str(panel_csvs / "real.csv"),
                   "--forecasts", str(two_hours), "--out-dir", str(tmp_path / "eval")])
    assert rc == 2
    assert capsys.readouterr().err == \
        f"schaake: data error: {two_hours}: 2 hours per day, the realizations have 24\n"
    rc = cli.main(["slp", "--real", str(panel_csvs / "real.csv"),
                   "--forecasts", str(two_hours)])
    assert rc == 2
    assert capsys.readouterr().err == \
        f"schaake: data error: {two_hours}: 2 hours per day, the profile has 24\n"


@pytest.mark.parametrize("command", [["evaluate", "--out-dir", "eval"], ["slp"]])
def test_cli_names_forecast_file_dated_past_the_realizations(panel_csvs, tmp_path, capsys,
                                                              command):
    real = load_panel(panel_csvs / "real.csv")
    late = tmp_path / "forecasts_late.csv"
    after = real.dates[-1] + datetime.timedelta(days=2)
    write_forecasts_csv([EnsembleForecast(d, real.values[-1] + np.arange(3.0)[:, None])
                         for d in (real.dates[-1], after)], late)
    args = [str(tmp_path / arg) if arg == "eval" else arg for arg in command]
    rc = cli.main(args + ["--real", str(panel_csvs / "real.csv"), "--forecasts", str(late)])
    assert rc == 2
    assert capsys.readouterr().err == \
        f"schaake: data error: {late}: no realization for forecast date {after}\n"


def _cli_backtest_on_errors(tmp_path, errors, config):
    """Exit code of ``schaake backtest`` on panels with the given errors."""
    real, fc = panels_from_errors(errors)
    save_panel(real, tmp_path / "real.csv")
    save_panel(fc, tmp_path / "fc.csv")
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    return cli.main(["backtest", "--real", str(tmp_path / "real.csv"),
                     "--forecast", str(tmp_path / "fc.csv"), "--config",
                     str(tmp_path / "cfg.json"), "--out-dir", str(tmp_path / "out")])


def test_cli_backtest_scores_members_equal_to_the_outcome(tmp_path, capsys):
    # hour 5's errors are 0.25 for 70 days, so on days 60..69 every Schaake-Raw
    # member of hour 5 equals the outcome, whose CRPS cancels to about -1e-15
    errors = equicorrelated_normals(75, 0.5, 5)
    errors[:70, 4] = 0.25
    rc = _cli_backtest_on_errors(tmp_path, errors, {
        "error_window": 60, "margin_window": 20, "dependence_window": 20,
        "settings": ["Schaake-Raw"]})
    assert rc == 0, capsys.readouterr().err
    assert len(_rows(tmp_path / "out" / "scores.csv")) == 15
    capsys.readouterr()


@pytest.mark.filterwarnings("ignore:argarch fit failed")
def test_cli_backtest_with_gaussian_pit_of_one(tmp_path, capsys):
    # hour 5's errors are constant for 106 days: windows that end with a few
    # varying errors standardize them far beyond z = 8.3, where ndtr rounds to 1
    errors = equicorrelated_normals(110, 0.5, 5)
    errors[:106, 4] = 0.25
    rc = _cli_backtest_on_errors(tmp_path, errors, {
        "error_window": 100, "margin_window": 20, "dependence_window": 20,
        "settings": ["Schaake-P"]})
    assert rc == 0, capsys.readouterr().err
    assert _rows(tmp_path / "out" / "scores.csv")
    capsys.readouterr()


def test_cli_backtest_skips_setting_whose_copula_cannot_be_fitted(tmp_path, capsys):
    # hour 5's errors are 0.25 for 70 days, so Schaake-P's raw PIT history of
    # hour 5 is constant on days 60..70 and its Gaussian copula is undefined;
    # I-P shares its margins, and no other setting fits a copula
    errors = equicorrelated_normals(75, 0.5, 5)
    errors[:70, 4] = 0.25
    settings = ["Schaake-P", "I-P", "Schaake-Raw", "I-Raw"]
    with pytest.warns(UserWarning) as record:
        rc = _cli_backtest_on_errors(tmp_path, errors, {
            "error_window": 60, "margin_window": 20, "dependence_window": 20,
            "settings": settings,
            "filters": {"Schaake-P": {"kind": "raw"}, "I-P": {"kind": "raw"}}})
    assert rc == 0, capsys.readouterr().err
    skipped = _rows(tmp_path / "out" / "skipped_days.csv")
    assert skipped and {setting for setting, _ in skipped} == {"Schaake-P"}
    assert [str(w.message) for w in record] == [
        f"Schaake-P skipped on {date}: degenerate PIT column (all values equal)"
        for _, date in skipped]
    days = {name: [] for name in settings}
    for date, name, _, _ in _rows(tmp_path / "out" / "scores.csv"):
        days[name].append(date)
    assert sorted(days["Schaake-P"] + [date for _, date in skipped]) == days["I-P"]
    assert all(len(days[name]) == 15 for name in settings[1:])
    capsys.readouterr()


def _skip_panel_backtest(settings):
    """``run_backtest`` and its warnings on a panel whose days are skipped twice over.

    A 60-day window is too short for AR-GARCH, so its fit fails for every
    one-day block; hour 5's errors are 0.25 for 70 days, so on the first 11
    days Schaake-P's raw PIT history is constant and its copula undefined.
    """
    errors = equicorrelated_normals(75, 0.5, 5)
    errors[:70, 4] = 0.25
    real, fc = panels_from_errors(errors)
    cfg = small_config(error_window=60, margin_window=20, dependence_window=20,
                       settings=settings, filter_overrides={
                           "Schaake-P": FilterSpec("raw"), "I-P": FilterSpec("raw")})
    with pytest.warns(UserWarning) as record:
        result = run_backtest(real, fc, cfg)
    return result, [str(w.message) for w in record]


@pytest.mark.parametrize("settings", [tuple(backtest.SETTING_TABLE),
                                      tuple(reversed(backtest.SETTING_TABLE))])
def test_block_fit_failure_is_warned_before_the_days_copula_skips(settings):
    _, messages = _skip_panel_backtest(settings)
    expected = []
    for k in range(15):
        day = datetime.date(2015, 3, 2) + datetime.timedelta(days=k)
        expected.append(f"argarch fit failed for the block starting {day} (window "
                        f"{day - datetime.timedelta(days=60)} to "
                        f"{day - datetime.timedelta(days=1)}): AR-GARCH needs >= 100 "
                        "observations, got 60")
        if k < 11:
            expected.append(
                f"Schaake-P skipped on {day}: degenerate PIT column (all values equal)")
    assert len(expected) == 26 and messages == expected


def test_skipped_maps_each_setting_and_day_to_its_warned_reason():
    result, messages = _skip_panel_backtest(tuple(backtest.SETTING_TABLE))
    assert {setting: len(days) for setting, days in result.skipped.items()} == {
        "Schaake-NP": 15, "Schaake-P": 11, "I-NP": 15}
    for setting, days in result.skipped.items():
        for day, reason in days.items():
            prefix = (f"Schaake-P skipped on {day}: " if setting == "Schaake-P"
                      else f"argarch fit failed for the block starting {day} ")
            assert [m for m in messages if m.startswith(prefix)] == [reason]
    assert {r for days in result.skipped.values() for r in days.values()} == set(messages)


def test_fit_failure_names_block_dates_and_hours():
    errors = equicorrelated_normals(130, 0.5, 7)
    errors[:, 2] = 0.5
    real, fc = panels_from_errors(errors)
    cfg = small_config(error_window=120, settings=("Schaake-NP", "Schaake-Raw"),
                       refit_every=10)
    with pytest.warns(UserWarning) as record:
        result = run_backtest(real, fc, cfg)
    assert [str(w.message) for w in record] == [
        "argarch fit failed for the block starting 2015-05-01 (window 2015-01-01 to "
        "2015-04-30): constant input series for hours 3: AR-GARCH fit is undefined"]
    assert len(result.skipped["Schaake-NP"]) == 10
    assert "Schaake-NP" not in result.scores


def test_explosive_hour_skips_its_seasonal_ar_days():
    # hour 2 of the 200-day window before each block is x_t = 1.02 x_{t-1} + e_t
    errors = equicorrelated_normals(204, 0.5, 4)
    errors[:, 1] = explosive_window(204)[:, 1]
    real, fc = panels_from_errors(errors)
    cfg = small_config(error_window=200, settings=("Schaake-NP", "Schaake-Raw"), refit_every=2,
                       filter_overrides={"Schaake-NP": FilterSpec(SARIMA)})
    with pytest.warns(UserWarning) as record:
        result = run_backtest(real, fc, cfg)
    reasons = [f"sarima fit failed for the block starting {real.dates[t]} (window "
               f"{real.dates[t - 200]} to {real.dates[t - 1]}): seasonal AR estimate outside "
               "parameter space for hours 2: require |phi1| < 1 and |seasonal_phi| < 1"
               for t in (200, 202)]
    assert [str(w.message) for w in record] == reasons
    assert result.skipped == {"Schaake-NP": {real.dates[t]: reasons[(t - 200) // 2]
                                             for t in range(200, 204)}}
    assert list(result.forecasts) == list(result.scores) == ["Schaake-Raw"]


@pytest.mark.parametrize("value", [0.5, 0.1])
def test_backtest_skips_the_fitted_settings_of_a_constant_hour(value):
    # hour 5's errors are exactly constant; at 0.1 their variance is not 0
    errors = 3.0 * equicorrelated_normals(126, 0.6, seed=5)
    real, fc = panels_from_errors(errors)
    fc_values, values = fc.values.copy(), real.values.copy()
    fc_values[:, 4], values[:, 4] = 0.0, value
    real, fc = HourlyPanel(real.dates, values), HourlyPanel(fc.dates, fc_values)
    with pytest.warns(UserWarning, match="constant input series for hours 5: AR-GARCH fit"):
        result = run_backtest(real, fc, small_config(refit_every=3))
    fitted = [name for name in SETTING_TABLE if SETTING_TABLE[name][0] == AR_GARCH]
    assert sorted(result.skipped) == sorted(fitted)
    for name in fitted:
        assert list(result.skipped[name]) == list(real.dates[120:])
        assert all("constant input series for hours 5" in reason
                   for reason in result.skipped[name].values())
    assert list(result.forecasts) == ["Schaake-Raw", "I-Raw"]


def test_cli_toy_example(capsys):
    assert cli.main(["toy-example"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "draw,h1,h2,h3,h4"
    assert out[1] == "1,6.1,31.6,27.2,36.5"
    assert len(out) == 8


def test_cli_toy_example_writes_the_members_it_prints(tmp_path, capsys):
    path = tmp_path / "toy.csv"
    assert cli.main(["toy-example", "--out", str(path)]) == 0
    printed = [[float(v) for v in line.split(",")[1:]]
               for line in capsys.readouterr().out.strip().splitlines()[1:]]
    [written] = read_forecasts_csv(path)
    assert written.date == datetime.date(2020, 1, 1)
    assert written.members.tolist() == printed
    assert np.array_equal(written.members, run_toy_example().members)


def test_cli_shuffle_roundtrip(tmp_path, capsys):
    ens = tmp_path / "ens.csv"
    ens.write_text("h1,h2\n1.0,10.0\n2.0,20.0\n3.0,30.0\n")
    ranks = tmp_path / "ranks.csv"
    ranks.write_text("h1,h2\n2,3\n1,1\n3,2\n")
    out = tmp_path / "out.csv"
    assert cli.main(["shuffle", "--ensembles", str(ens),
                     "--rank-matrix", str(ranks), "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows == ["h1,h2", "2.0,30.0", "1.0,10.0", "3.0,20.0"]


@pytest.mark.parametrize("text, match", BAD_MATRIX_FILES)
def test_cli_shuffle_names_line_of_bad_ensemble_row(tmp_path, capsys, text, match):
    ens = tmp_path / "ens.csv"
    ens.write_text(text)
    ranks = tmp_path / "ranks.csv"
    ranks.write_text("h1,h2\n1,2\n2,1\n")
    rc = cli.main(["shuffle", "--ensembles", str(ens), "--rank-matrix", str(ranks),
                   "--out", str(tmp_path / "out.csv")])
    assert rc == 2
    assert re.search(r"ens\.csv" + match, capsys.readouterr().err)


def test_cli_exit_codes(panel_csvs, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["backtest"])  # missing required arguments
    assert exc.value.code == 1
    missing = tmp_path / "nope.csv"
    rc = cli.main(["evaluate", "--real", str(missing),
                   "--forecasts", str(missing), "--out-dir", str(tmp_path)])
    assert rc == 2
    capsys.readouterr()
    # an unreadable or unwritable path is a data error naming it
    a_file, cfg = tmp_path / "a_file", tmp_path / "cfg.json"
    a_file.write_text("")
    cfg.write_text(json.dumps({"error_window": 120, "margin_window": 40,
                               "dependence_window": 40, "settings": ["I-Raw"]}))
    for argv, path in (
            (["evaluate", "--real", str(tmp_path), "--forecasts", str(missing),
              "--out-dir", str(tmp_path / "eval")], tmp_path),
            (["backtest", "--real", str(panel_csvs / "real.csv"), "--forecast",
              str(panel_csvs / "fc.csv"), "--config", str(cfg), "--out-dir", str(a_file)],
             a_file)):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("schaake: data error: ") and str(path) in err
