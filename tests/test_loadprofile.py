import datetime

import numpy as np
import pytest

from _simulate import rng_for
from schaake.backtest import run_toy_example
from schaake.forecast import EnsembleForecast, independence_forecast, shuffle
from schaake.loadprofile import (
    LoadProfile,
    daily_price,
    default_profile,
    load_profile_csv,
    scenario_daily_prices,
)
from schaake.panel import PanelError


def test_uniform_profile_averages():
    profile = LoadProfile(np.full(24, 1.0 / 24))
    assert daily_price(np.full(24, 50.0), profile) == pytest.approx(50.0)


def test_selection_profile_picks_one_hour():
    weights = np.zeros(24)
    weights[11] = 1.0
    prices = np.arange(24.0)
    assert daily_price(prices, LoadProfile(weights)) == 11.0


def test_daily_price_matches_dot_product():
    rng = rng_for(1)
    profile = default_profile()
    prices = rng.uniform(10, 90, 24)
    assert daily_price(prices, profile) == pytest.approx(float(np.dot(prices, profile.weights)))


def test_daily_price_linearity():
    rng = rng_for(2)
    profile = default_profile()
    p1, p2 = rng.uniform(0, 100, 24), rng.uniform(0, 100, 24)
    assert daily_price(2.0 * p1 + p2, profile) == pytest.approx(
        2.0 * daily_price(p1, profile) + daily_price(p2, profile))


def test_scenario_prices_single_member():
    fc = EnsembleForecast(datetime.date(2020, 1, 1), np.full((1, 24), 40.0))
    profile = default_profile()
    out = scenario_daily_prices(fc, profile)
    assert out.shape == (1,)
    assert out[0] == pytest.approx(40.0 * profile.weights.sum())


def test_toy_example_row_prices_under_uniform_profile():
    fc = run_toy_example()
    profile = LoadProfile(np.full(4, 0.25))
    prices = scenario_daily_prices(fc, profile)
    assert prices[0] == pytest.approx((6.1 + 31.6 + 27.2 + 36.5) / 4)
    assert prices[5] == pytest.approx((54.5 + 69.6 + 64.8 + 50.5) / 4)


def test_comonotone_scenarios_give_sorted_prices():
    m = 15
    ensembles = np.column_stack([np.sort(rng_for(3).uniform(0, 100, m)) for _ in range(24)])
    identity = np.tile(np.arange(1, m + 1)[:, None], (1, 24))
    fc = shuffle(ensembles, identity)
    prices = scenario_daily_prices(fc, default_profile())
    assert np.all(np.diff(prices) >= 0)


def test_comonotone_price_spread_dominates_independence():
    # pairing scenarios comonotonically concentrates risk in the daily price
    m = 60
    profile = default_profile()
    identity = np.tile(np.arange(1, m + 1)[:, None], (1, 24))
    wins = 0
    for seed in range(40):
        rng = rng_for(1000 + seed)
        ensembles = np.column_stack([np.sort(rng.standard_normal(m)) for _ in range(24)])
        var_com = scenario_daily_prices(shuffle(ensembles, identity), profile).var()
        var_ind = scenario_daily_prices(
            independence_forecast(ensembles, seed=seed), profile).var()
        wins += var_com >= var_ind
    assert wins >= 38


def test_profile_csv_roundtrip(tmp_path):
    rows = [f"{h},{w!r}" for h, w in enumerate(default_profile().weights.tolist(), start=1)]
    path = tmp_path / "profile.csv"
    path.write_text("Hour , Weight\r\n" + "\r\n".join(rows[12:] + [""] + rows[:12]) + "\r\n")
    again = load_profile_csv(path)
    assert np.array_equal(again.weights, default_profile().weights)


def test_profile_csv_rejects_missing_hours(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("hour,weight\n1,0.5\n2,0.5\n")
    with pytest.raises(ValueError, match="24"):
        load_profile_csv(path)


GOOD_PROFILE_ROWS = [f"{h},{1.0 / 24!r}" for h in range(1, 25)]


@pytest.mark.parametrize("lines, match", [
    (["hour,price"] + GOOD_PROFILE_ROWS, r":1: expected header"),
    (["hour,weight", "first,0.5"] + GOOD_PROFILE_ROWS, r":2: bad hour 'first'"),
    (["hour,weight", "1,heavy"] + GOOD_PROFILE_ROWS, r":2: bad weight 'heavy'"),
    (["hour,weight", "1,nan"] + GOOD_PROFILE_ROWS, r":2: non-finite weight 'nan'"),
    (["hour,weight", "1,-0.5"] + GOOD_PROFILE_ROWS, r":2: negative weight -0\.5"),
    (["hour,weight", "1,0.5,7"] + GOOD_PROFILE_ROWS, r":2: expected 2 columns, got 3"),
    (["hour,weight", "25,0.5"] + GOOD_PROFILE_ROWS, r":2: hour 25 outside 1\.\.24"),
    (["hour,weight"] + GOOD_PROFILE_ROWS + ["3,0.1"], r":26: duplicate hour 3"),
])
def test_profile_csv_rejects_malformed_rows(tmp_path, lines, match):
    path = tmp_path / "profile.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PanelError, match=r"profile\.csv" + match):
        load_profile_csv(path)


def test_profile_csv_refuses_an_infinite_weight_of_plain_bytes(tmp_path):
    # "1e500" is plain, so the bulk parse reads it, as inf, and its check refuses it
    path = tmp_path / "profile.csv"
    path.write_text("\n".join(["hour,weight"] + GOOD_PROFILE_ROWS[:2] + ["3,1e500"]
                              + GOOD_PROFILE_ROWS[3:]) + "\n")
    with pytest.raises(PanelError) as exc:
        load_profile_csv(path)
    assert str(exc.value) == f"{path}:4: non-finite weight '1e500'"


def test_profile_csv_without_rows_names_the_file(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("hour,weight\n")
    with pytest.raises(PanelError) as exc:
        load_profile_csv(path)
    assert str(exc.value) == f"{path}: no data rows"


def test_profile_validation():
    with pytest.raises(ValueError):
        LoadProfile(np.array([0.1, -0.2, 0.3]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            LoadProfile(np.array([bad] + [1.0] * 23))
    with pytest.raises(ValueError):
        LoadProfile(np.zeros(24))
    with pytest.raises(ValueError):
        daily_price(np.zeros(23), default_profile())
    with pytest.raises(ValueError, match="non-empty vector"):
        LoadProfile(np.array([]))
    day = EnsembleForecast(datetime.date(2020, 1, 1), np.zeros((3, 23)))
    with pytest.raises(ValueError, match="forecast must cover 24 hours"):
        scenario_daily_prices(day, default_profile())
