import csv
import datetime
import json
import re

import numpy as np
import pytest

from _simulate import equicorrelated_normals, iid_error_panels, panels_from_errors
from test_copula import BAD_MATRIX_FILES
from schaake import cli
from schaake.backtest import (
    BacktestConfig,
    ConfigError,
    derive_seed,
    run_backtest,
    run_toy_example,
)
from schaake.filters import SARIMA, FilterSpec
from schaake.panel import load_panel, save_panel
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
    assert result.dates == (real.dates[-1],)
    for name in cfg.settings:
        members = result.forecasts[name][0].members
        assert members.shape == (40, 24)
        assert result.ranks[name].shape == (1, 24)
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
    assert np.all(again.ranks["I-Raw"] == 41)  # realization above every member


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
    rows = {(a, b, metric): (stat, p) for a, b, metric, stat, p in result.dm_rows()}
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
    header = "date,member," + ",".join(f"h{h}" for h in range(1, 25)) + "\r\n"
    assert (out_dir / "forecasts_Schaake-NP.csv").read_bytes() == header.encode()
    assert len(_rows(out_dir / "skipped_days.csv")) == 6
    assert {row[1] for row in _rows(out_dir / "scores.csv")} == {"Schaake-Raw"}
    capsys.readouterr()


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


def test_cli_toy_example(capsys):
    assert cli.main(["toy-example"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "draw,h1,h2,h3,h4"
    assert out[1] == "1,6.1,31.6,27.2,36.5"
    assert len(out) == 8


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


def test_cli_exit_codes(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["backtest"])  # missing required arguments
    assert exc.value.code == 1
    missing = tmp_path / "nope.csv"
    rc = cli.main(["evaluate", "--real", str(missing),
                   "--forecasts", str(missing), "--out-dir", str(tmp_path)])
    assert rc == 2
    capsys.readouterr()
