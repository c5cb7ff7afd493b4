import datetime

import numpy as np
import pytest

from _simulate import rng_for
from schaake.backtest import TOY_QUANTILES, TOY_RANK_MATRIX
from schaake.copula import CopulaError, empirical_rank_matrix
from schaake.forecast import (
    EnsembleForecast,
    independence_forecast,
    make_univariate_ensemble,
    read_forecasts_csv,
    shuffle,
    write_forecasts_csv,
)
from schaake.margins import MarginModel
from schaake.panel import PanelError

TOY_ENSEMBLES = TOY_QUANTILES.T


def test_univariate_ensemble_empirical():
    margin = MarginModel.empirical([-1.0, 0.0, 1.0])
    members = make_univariate_ensemble(10.0, (0.0, 1.0), margin, m=3)
    assert members == pytest.approx([9.0, 10.0, 11.0])


def test_univariate_ensemble_gaussian_single_member():
    members = make_univariate_ensemble(0.0, (0.0, 1.0), MarginModel.gaussian(), m=1)
    assert members == pytest.approx([0.0])


def test_univariate_ensemble_raw_formula():
    # with (mu, sigma) = (0, 1) the members are point forecast plus error quantiles
    sample = rng_for(1).standard_normal(90)
    margin = MarginModel.empirical(sample)
    members = make_univariate_ensemble(42.0, (0.0, 1.0), margin, m=90)
    assert members == pytest.approx(42.0 + np.sort(sample))


def test_univariate_ensemble_bias_and_scale():
    margin = MarginModel.empirical([-1.0, 0.0, 1.0])
    members = make_univariate_ensemble(10.0, (2.0, 3.0), margin, m=3)
    assert members == pytest.approx([12.0 - 3.0, 12.0, 12.0 + 3.0])


def test_univariate_ensemble_rejects_bad_inputs():
    margin = MarginModel.gaussian()
    with pytest.raises(ValueError):
        make_univariate_ensemble(0.0, (0.0, -1.0), margin, m=3)
    with pytest.raises(ValueError):
        make_univariate_ensemble(np.inf, (0.0, 1.0), margin, m=3)
    with pytest.raises(ValueError):
        make_univariate_ensemble(0.0, (0.0, 1.0), margin, m=0)


def test_shuffle_toy_example_rows():
    fc = shuffle(TOY_ENSEMBLES, TOY_RANK_MATRIX)
    assert fc.members[0] == pytest.approx([6.1, 31.6, 27.2, 36.5])
    assert fc.members[5] == pytest.approx([54.5, 69.6, 64.8, 50.5])


def test_shuffle_identity_permutation():
    m = 5
    ensembles = np.column_stack([np.sort(rng_for(h).standard_normal(m)) for h in range(3)])
    identity = np.tile(np.arange(1, m + 1)[:, None], (1, 3))
    fc = shuffle(ensembles, identity)
    assert np.array_equal(fc.members, ensembles)


def test_shuffle_preserves_marginals():
    rng = rng_for(2)
    m = 30
    ensembles = np.column_stack([np.sort(rng.standard_normal(m)) for _ in range(6)])
    ranks = empirical_rank_matrix(rng.uniform(0.01, 0.99, size=(m, 6)))
    fc = shuffle(ensembles, ranks)
    for h in range(6):
        assert np.array_equal(np.sort(fc.members[:, h]), ensembles[:, h])


def test_shuffle_rank_preservation():
    rng = rng_for(3)
    m = 40
    # distinct a.s.
    ensembles = np.column_stack([np.sort(rng.standard_normal(m)) for _ in range(4)])
    ranks = empirical_rank_matrix(rng.uniform(0.01, 0.99, size=(m, 4)))
    fc = shuffle(ensembles, ranks)
    recovered = np.column_stack(
        [np.searchsorted(np.sort(fc.members[:, h]), fc.members[:, h]) + 1
         for h in range(4)])
    assert np.array_equal(recovered, ranks)


def test_shuffle_affine_equivariance():
    margin = MarginModel.empirical(rng_for(4).standard_normal(20))
    k = 3.5
    base = make_univariate_ensemble(10.0, (1.0, 2.0), margin, m=20)
    scaled = make_univariate_ensemble(k * 10.0, (k * 1.0, k * 2.0), margin, m=20)
    assert scaled == pytest.approx(k * base)


def test_shuffle_dimension_checks():
    with pytest.raises(CopulaError, match="shape"):
        shuffle(TOY_ENSEMBLES, TOY_RANK_MATRIX[:, :3])
    bad = TOY_RANK_MATRIX.copy()
    bad[0, 0] = 7  # duplicates rank 7 in column 0
    with pytest.raises(CopulaError, match="permutations"):
        shuffle(TOY_ENSEMBLES, bad)


def test_independence_single_member_matches_shuffle():
    fc = independence_forecast([[1.0, 2.0]], seed=5)
    assert np.array_equal(fc.members, [[1.0, 2.0]])


def test_independence_is_deterministic():
    ensembles = np.column_stack([np.sort(rng_for(6).standard_normal(10)) for _ in range(4)])
    a = independence_forecast(ensembles, seed=77)
    b = independence_forecast(ensembles, seed=77)
    assert np.array_equal(a.members, b.members)


def test_independence_decorrelates():
    m = 90
    ensembles = np.tile(np.arange(1.0, m + 1)[:, None], (1, 24))
    total, count = 0.0, 0
    for seed in range(2000):
        fc = independence_forecast(ensembles, seed=seed)
        corr = np.corrcoef(fc.members, rowvar=False)
        off = np.abs(corr[np.triu_indices(24, 1)])
        total += off.mean()
        count += 1
    assert total / count < 0.12


def test_forecast_csv_roundtrip(tmp_path):
    rng = rng_for(8)
    fcs = [EnsembleForecast(datetime.date(2020, 1, 1) + datetime.timedelta(days=i),
                            rng.standard_normal((5, 24)))
           for i in range(3)]
    path = tmp_path / "fc.csv"
    write_forecasts_csv(fcs, path)
    again = read_forecasts_csv(path)
    assert [f.date for f in again] == [f.date for f in fcs]
    for a, b in zip(again, fcs):
        assert np.array_equal(a.members, b.members)


def test_read_forecasts_csv_orders_days_and_members(tmp_path):
    # days interleaved and members out of order: rows of one date come in
    # several runs, and each day's rows are put in member order
    path = tmp_path / "fc.csv"
    path.write_text("\n".join(["date,member,h1,h2", "2020-01-02,2,7.0,8.0",
                               "2020-01-01,3,5.0,6.0", "2020-01-01,1,1.0,2.0",
                               "2020-01-02,1,5.5,6.5", "2020-01-01,2,3.0,4.0",
                               "2020-01-02,3,9.0,1e1"]) + "\n")
    fcs = read_forecasts_csv(path)
    assert [fc.date for fc in fcs] == [datetime.date(2020, 1, 1), datetime.date(2020, 1, 2)]
    assert fcs[0].members.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    assert fcs[1].members.tolist() == [[5.5, 6.5], [7.0, 8.0], [9.0, 10.0]]


DAY1 = ["2020-01-01,1,1.0,2.0", "2020-01-01,2,3.0,4.0"]


@pytest.mark.parametrize("lines, match", [
    (["date,hour,h1,h2"] + DAY1, r":1: expected header"),
    (["date,member,h1,h2", "2020-02-30,1,1.0,2.0"], r":2: bad date '2020-02-30'"),
    (["date,member,h1,h2", "2020-01-01,first,1.0,2.0"], r":2: bad member 'first'"),
    (["date,member,h1,h2", "2020-01-01,1,1.0,x"], r":2: bad values \['1\.0', 'x'\]"),
    (["date,member,h1,h2"] + DAY1[:1] + ["2020-01-01,2,inf,4.0"], r":3: non-finite value"),
    (["date,member,h1,h2"] + DAY1[:1] + ["2020-01-01,2,3.0"], r":3: expected 4 columns, got 3"),
    (["date,member,h1,h2"] + DAY1 + ["2020-01-01,2,5.0,6.0"], r":4: duplicate member 2"),
    (["date,member,h1,h2"] + DAY1[:1] + ["2020-01-01,3,3.0,4.0"],
     r":2: 2020-01-01 holds 2 members numbered 1\.\.3, expected 1\.\.2"),
    (["date,member,h1,h2"] + DAY1 + ["2020-01-02,1,1.0,2.0"],
     r":4: 2020-01-02 holds 1 members numbered 1\.\.1, expected 1\.\.2"),
    # a day's values are cast in one call; the fallback names the bad row's line
    (["date,member,h1,h2"] + [f"2020-01-01,{k},{k}.0,{k}.5" for k in range(1, 6)]
     + ["2020-01-02,1,1.0,2.0", "2020-01-02,2,3.0,4.0", "2020-01-02,3,5.0,6_"],
     r":9: bad values \['5\.0', '6_'\]"),
    (["date,member,h1,h2"] + [f"2020-01-01,{k},{k}.0,{k}.5" for k in range(1, 5)]
     + ["2020-01-01,5,x,5.5"], r":6: bad values \['x', '5\.5'\]"),
    # an earlier bad value comes before a later row's error
    (["date,member,h1,h2", "2020-01-01,1,1.0,x"] + DAY1, r":2: bad values"),
    (["date,member,h1,h2", "2020-01-01,1,1.0,x", "2020-01-01,2,3.0"], r":2: bad values"),
    (["date,member,h1,h2", "2020-01-01,1,1.0,x", "2020-01-02,1,nan,2.0"], r":2: bad values"),
])
def test_read_forecasts_csv_rejects_malformed_rows(tmp_path, lines, match):
    path = tmp_path / "fc.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PanelError, match=r"fc\.csv" + match):
        read_forecasts_csv(path)
