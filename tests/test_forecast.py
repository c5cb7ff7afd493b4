import datetime
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _simulate import rng_for
from schaake.backtest import TOY_QUANTILES, TOY_RANK_MATRIX
from schaake import forecast
from schaake.copula import CopulaError, empirical_rank_matrix
from schaake.forecast import (
    EnsembleForecast,
    independence_forecast,
    make_univariate_ensemble,
    read_forecasts_csv,
    shuffle,
    write_forecast_files,
    write_forecasts_csv,
)
from schaake.margins import MarginModel
from schaake.panel import PanelError

TOY_ENSEMBLES = TOY_QUANTILES.T


def test_univariate_ensemble_empirical():
    margin = MarginModel.empirical([[-1.0], [0.0], [1.0]])
    members = make_univariate_ensemble([10.0], ([0.0], [1.0]), margin, m=3)
    assert members[:, 0] == pytest.approx([9.0, 10.0, 11.0])


def test_univariate_ensemble_gaussian_single_member():
    members = make_univariate_ensemble([0.0], ([0.0], [1.0]), MarginModel.gaussian(), m=1)
    assert members[:, 0] == pytest.approx([0.0])


def test_univariate_ensemble_raw_formula():
    # with (mu, sigma) = (0, 1) the members are point forecast plus error quantiles
    sample = rng_for(1).standard_normal(90)
    margin = MarginModel.empirical(sample[:, None])
    members = make_univariate_ensemble([42.0], ([0.0], [1.0]), margin, m=90)
    assert members[:, 0] == pytest.approx(42.0 + np.sort(sample))


def test_univariate_ensemble_bias_and_scale():
    margin = MarginModel.empirical([[-1.0], [0.0], [1.0]])
    members = make_univariate_ensemble([10.0], ([2.0], [3.0]), margin, m=3)
    assert members[:, 0] == pytest.approx([12.0 - 3.0, 12.0, 12.0 + 3.0])


def test_univariate_ensemble_rejects_bad_inputs():
    margin = MarginModel.gaussian()
    with pytest.raises(ValueError):
        make_univariate_ensemble([0.0], ([0.0], [-1.0]), margin, m=3)
    with pytest.raises(ValueError):
        make_univariate_ensemble([np.inf], ([0.0], [1.0]), margin, m=3)
    with pytest.raises(ValueError):
        make_univariate_ensemble([0.0], ([0.0], [1.0]), margin, m=0)


def test_univariate_ensemble_takes_hour_vectors():
    margin = MarginModel.empirical(rng_for(9).standard_normal((20, 1)))
    with pytest.raises(ValueError, match=r"must be \(H,\) vectors, got \(\), \(\), \(\); "
                                         r"pass one hour as \(1,\)"):
        make_univariate_ensemble(10.0, (0.0, 1.0), margin, m=5)
    with pytest.raises(ValueError, match=r"got \(2,\), \(2,\), \(1,\)"):
        make_univariate_ensemble([10.0, 11.0], ([0.0, 0.0], [1.0]), margin, m=5)
    with pytest.raises(ValueError, match=r"m x H matrix"):
        shuffle(np.arange(5.0), np.arange(1, 6))


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
    margin = MarginModel.empirical(rng_for(4).standard_normal(20)[:, None])
    k = 3.5
    base = make_univariate_ensemble([10.0], ([1.0], [2.0]), margin, m=20)
    scaled = make_univariate_ensemble([k * 10.0], ([k * 1.0], [k * 2.0]), margin, m=20)
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


def reference_bytes(forecasts) -> bytes:
    """A forecasts file as one join of ``repr`` texts per row, the writer's reference."""
    n_hours = forecasts[0].members.shape[1]
    lines = [",".join(["date", "member"] + [f"h{h}" for h in range(1, n_hours + 1)])]
    for fc in forecasts:
        lines += [fc.date.isoformat() + "," + ",".join(map(repr, [i, *row]))
                  for i, row in enumerate(fc.members.tolist(), start=1)]
    return "".join(line + "\r\n" for line in lines).encode()


MEMBER_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.1, 5e-324, 1e300]) | st.floats(
    allow_nan=False, allow_infinity=False)


@st.composite
def forecast_file_groups(draw):
    """Lists of forecast lists whose days reorder a few shared member matrices.

    Days come from a pool of (date, matrix); each file picks at least one pool
    day, in any order, and permutes each column of a day's matrix by its own
    seed.  A file skips a pick whose date it holds or whose shape differs from
    its first day's, as the reader refuses such files and files without
    forecasts.  Dates repeat across pool days and files, shapes vary (H = 24
    among them), and values tie and mix -0.0 with 0.0.
    """
    shapes = st.tuples(st.integers(1, 4), st.sampled_from([1, 2, 3, 24]))
    pool = draw(st.lists(st.tuples(
        st.dates(datetime.date(2020, 1, 1), datetime.date(2020, 1, 4)),
        shapes.flatmap(lambda shape: st.lists(MEMBER_VALUES, min_size=shape[0] * shape[1],
                                              max_size=shape[0] * shape[1]).map(
            lambda values: np.reshape(values, shape)))), min_size=1, max_size=3))
    files = []
    for _ in range(draw(st.integers(0, 3))):
        forecasts = []
        for k, seed in draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                               st.integers(0, 2 ** 32 - 1)),
                                     min_size=1, max_size=5)):
            date, members = pool[k]
            if any(fc.date == date or fc.members.shape != members.shape for fc in forecasts):
                continue
            rng = np.random.default_rng(seed)
            forecasts.append(EnsembleForecast(date, np.column_stack(
                [rng.permutation(column) for column in members.T])))
        files.append(forecasts)
    return files


DAY = datetime.date(2020, 1, 1)


@settings(max_examples=200, deadline=None)
@given(groups=forecast_file_groups())
# sorted, one day's columns are equal by value but not by bytes
@example(groups=[[EnsembleForecast(DAY, [[-0.0], [0.0]])],
                 [EnsembleForecast(DAY, [[0.0], [-0.0]])]])
# the same bytes in two shapes
@example(groups=[[EnsembleForecast(DAY, [[1.0, 2.0]])],
                 [EnsembleForecast(DAY, [[1.0], [2.0]])]])
def test_forecast_files_written_together_match_the_reference(groups):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"forecasts_{k}.csv" for k in range(len(groups))]
        write_forecast_files(list(zip(groups, paths)))
        for forecasts, path in zip(groups, paths):
            assert path.read_bytes() == reference_bytes(forecasts)


@pytest.mark.parametrize("skipping_first", [False, True])
def test_forecast_pair_formats_each_shared_day_once(tmp_path, monkeypatch, skipping_first):
    rng = rng_for(9)
    days = [datetime.date(2020, 1, d) for d in range(1, 6)]
    members = [np.sort(rng.standard_normal((4, 3)), axis=0) for _ in days]
    schaake = [shuffle(x, empirical_rank_matrix(rng.random((4, 3))), date=d)
               for d, x in zip(days, members)]
    # the independence file skipped day 3; its other days share their members
    independence = [independence_forecast(x, seed=d.day, date=d)
                    for d, x in zip(days, members) if d.day != 3]
    texts = []
    monkeypatch.setattr(forecast, "repr", lambda v: texts.append(v) or repr(v), raising=False)
    files = [(schaake, tmp_path / "a.csv"), (independence, tmp_path / "b.csv")]
    if skipping_first:
        files.reverse()
    write_forecast_files(files)
    assert len(texts) == 5 * 4 * 3
    for forecasts, path in files:
        assert path.read_bytes() == reference_bytes(forecasts)


def test_forecast_pair_holds_one_day_of_texts(tmp_path):
    rng = rng_for(10)
    days = [datetime.date(2020, 1, 1) + datetime.timedelta(days=k) for k in range(60)]
    members = [np.sort(rng.standard_normal((40, 24)), axis=0) for _ in days]
    pair = [[independence_forecast(x, seed=2 * k + j, date=d)
             for k, (d, x) in enumerate(zip(days, members))] for j in (0, 1)]

    def peak(files):
        tracemalloc.start()
        try:
            write_forecast_files(files)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak([(pair[0], tmp_path / "a.csv")])
    both = peak([(pair[0], tmp_path / "a.csv"), (pair[1], tmp_path / "b.csv")])
    first_day = peak([(pair[0][:1], tmp_path / "a.csv"), (pair[1][:1], tmp_path / "b.csv")])
    assert both <= 1.5 * one
    assert both <= 1.5 * first_day  # the peak does not grow with the number of days


@pytest.mark.parametrize("bad, message", [
    ([EnsembleForecast(None, [[1.0]])], "needs a datetime.date"),
    ([EnsembleForecast(datetime.datetime(2020, 1, 1), [[1.0]])], "needs a datetime.date"),
    ([EnsembleForecast(DAY, [[1.0]]), EnsembleForecast(DAY, [[2.0]])],
     "more than one forecast for 2020-01-01"),
    ([EnsembleForecast(DAY, [[1.0, 2.0]]), EnsembleForecast(DAY.replace(day=2), [[1.0]])],
     r"one \(m, H\) member shape, got \[\(1, 1\), \(1, 2\)\]"),
    ([EnsembleForecast(DAY, [[1.0]]), EnsembleForecast(DAY.replace(day=2), [[1.0], [2.0]])],
     r"one \(m, H\) member shape"),
    ([], "bad.csv: no forecasts"),
])
def test_forecast_files_refuse_what_the_reader_refuses(tmp_path, bad, message):
    good = [EnsembleForecast(DAY, [[1.0]])]
    files = [(good, tmp_path / "good.csv"), (bad, tmp_path / "bad.csv")]
    with pytest.raises(ValueError, match=message):
        write_forecast_files(files)
    assert list(tmp_path.iterdir()) == []  # refused before any file is opened
    with pytest.raises(ValueError, match=message):
        write_forecasts_csv(bad, tmp_path / "bad.csv")


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
    (["date,member,h1,h2"], r": no forecasts"),
    # the earliest line wins, whether a check fault or a cell that does not parse
    (["date,member,h1", "2020-01-01,1,inf", "2020-01-01,2,3", "2020-01-01,2,5"],
     r":2: non-finite value 'inf'"),
    (["date,member,h1,h2"] + DAY1 + ["2020-01-01,2,5.0,6.0", "2020-01-02,1,inf,2.0"],
     r":4: duplicate member 2 on 2020-01-01"),
    (["date,member,h1,h2"] + DAY1 + ["2020-01-01,1,5.0,6.0", "2020-01-02,1,1e500,2.0"],
     r":4: duplicate member 1 on 2020-01-01"),
    (["date,member,h1,h2", "2020-02-30,1,1.0,2.0", "2020-01-01,1,x,2.0"],
     r":2: bad date '2020-02-30'"),
    (["date,member,h1,h2", "2020-01-01,1,1.0,1e500"] + DAY1, r":2: non-finite value '1e500'"),
    # a day fault waits for the whole file, so a later bad value wins
    (["date,member,h1,h2", "2020-01-01,1,1.0,2.0", "2020-01-01,3,3.0,4.0",
      "2020-01-02,1,x,2.0"], r":4: bad values \['x', '2\.0'\]"),
    (["date,member,h1,h2", "2020-01-01,1,1.0,2.0", "2020-01-01,3,3.0,4.0",
      "2020-01-02,1,inf,2.0"], r":4: non-finite value 'inf'"),
    # a date is stripped as float strips a value, so \x1c-\x1f stay in it
    (["date,member,h1,h2", "2020-01-01\x1c,1,1.0,2.0"], r":2: bad date '2020-01-01\\x1c'"),
    (["date,member,h1,h2"] + DAY1 + ["\x1e2020-01-02,1,1.0,2.0"],
     r":4: bad date '\\x1e2020-01-02'"),
])
def test_read_forecasts_csv_rejects_malformed_rows(tmp_path, lines, match):
    path = tmp_path / "fc.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PanelError, match=r"fc\.csv" + match):
        read_forecasts_csv(path)


@pytest.mark.parametrize("members, match", [
    ([1.0, 2.0], "must be an m x H matrix"),
    ([[1.0, np.inf]], "must be finite"),
    ([[1.0, np.nan]], "must be finite"),
])
def test_ensemble_forecast_refuses_bad_members(members, match):
    with pytest.raises(ValueError, match=match):
        EnsembleForecast(DAY, members)


def test_shuffle_refuses_unsorted_members():
    with pytest.raises(ValueError, match="sorted ascending"):
        shuffle(TOY_ENSEMBLES[::-1], TOY_RANK_MATRIX)
