import datetime

import numpy as np
import pytest

from schaake.panel import (
    N_HOURS,
    HourlyPanel,
    PanelError,
    compute_errors,
    load_panel,
    save_panel,
)


def write_csv(path, rows):
    lines = ["date,hour,value"] + [f"{d},{h},{v}" for d, h, v in rows]
    path.write_text("\n".join(lines) + "\n")


def full_day(date, base):
    return [(date, h, base + 0.1 * h) for h in range(1, N_HOURS + 1)]


def test_load_two_day_file(tmp_path):
    path = tmp_path / "prices.csv"
    write_csv(path, full_day("2020-01-01", 10.0) + full_day("2020-01-02", 20.0))
    panel = load_panel(path)
    assert panel.n_days == 2
    assert panel.values.size == 48
    assert panel.dates == (datetime.date(2020, 1, 1), datetime.date(2020, 1, 2))
    assert panel.values[0, 0] == pytest.approx(10.1)
    assert panel.values[1, 23] == pytest.approx(22.4)


def test_hour_25_rejected_with_row_number(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, full_day("2020-01-01", 10.0) + [("2020-01-01", 25, 1.0)])
    with pytest.raises(PanelError, match=r"bad.csv:26.*hour 25"):
        load_panel(path)


def test_out_of_order_days_resorted(tmp_path):
    rows = full_day("2020-01-03", 30.0) + full_day("2020-01-01", 10.0)
    path = tmp_path / "shuffled.csv"
    write_csv(path, rows)
    panel = load_panel(path)

    # reference parser: collect cells, sort days, lay out hour by hour
    cells = {}
    for d, h, v in rows:
        cells.setdefault(d, {})[h] = v
    expected = np.array([[cells[d][h] for h in range(1, N_HOURS + 1)]
                         for d in sorted(cells)])
    assert panel.dates == (datetime.date(2020, 1, 1), datetime.date(2020, 1, 3))
    assert np.array_equal(panel.values, expected)


def test_duplicate_cell_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    write_csv(path, full_day("2020-01-01", 10.0) + [("2020-01-01", 3, 1.0)])
    with pytest.raises(PanelError, match="duplicate"):
        load_panel(path)


def test_incomplete_day_dropped_with_warning(tmp_path):
    path = tmp_path / "gap.csv"
    write_csv(path, full_day("2020-01-01", 10.0)
              + [("2020-01-02", h, 1.0) for h in range(1, 24)])
    with pytest.warns(UserWarning, match="missing hours"):
        panel = load_panel(path)
    assert panel.n_days == 1


def test_non_finite_value_rejected(tmp_path):
    path = tmp_path / "nan.csv"
    rows = full_day("2020-01-01", 10.0)
    rows[5] = ("2020-01-01", 6, "nan")
    write_csv(path, rows)
    with pytest.raises(PanelError, match="non-finite"):
        load_panel(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "head.csv"
    path.write_text("day,hour,price\n2020-01-01,1,2\n")
    with pytest.raises(PanelError, match="header"):
        load_panel(path)


def test_roundtrip_serialize_parse(tmp_path):
    rng = np.random.Generator(np.random.Philox(3))
    dates = tuple(datetime.date(2021, 1, 1) + datetime.timedelta(days=i) for i in range(4))
    panel = HourlyPanel(dates, rng.standard_normal((4, N_HOURS)) * 50.0)
    path = tmp_path / "out.csv"
    save_panel(panel, path)
    again = load_panel(path)
    assert again.dates == panel.dates
    assert np.array_equal(again.values, panel.values)


def test_dates_must_increase():
    d = datetime.date(2020, 1, 1)
    with pytest.raises(PanelError, match="strictly increasing"):
        HourlyPanel((d, d), np.zeros((2, N_HOURS)))


def test_compute_errors_identity_and_arithmetic():
    dates = (datetime.date(2020, 1, 1),)
    values = np.full((1, N_HOURS), 30.0)
    real = HourlyPanel(dates, values + 0.3)
    fc = HourlyPanel(dates, values)
    errs = compute_errors(real, fc)
    assert errs.values == pytest.approx(np.full((1, N_HOURS), 0.3))
    assert np.all(compute_errors(fc, fc).values == 0.0)


def test_compute_errors_matches_elementwise_loop():
    rng = np.random.Generator(np.random.Philox(11))
    dates = tuple(datetime.date(2020, 1, 1) + datetime.timedelta(days=i) for i in range(5))
    real = HourlyPanel(dates, rng.standard_normal((5, N_HOURS)))
    fc = HourlyPanel(dates, rng.standard_normal((5, N_HOURS)))
    errs = compute_errors(real, fc)
    for t in range(5):
        for h in range(N_HOURS):
            assert errs.values[t, h] == real.values[t, h] - fc.values[t, h]
    # adding the forecast back recovers the realization up to rounding
    assert np.allclose(errs.values + fc.values, real.values, rtol=0, atol=1e-12)


def test_compute_errors_date_mismatch():
    d1 = (datetime.date(2020, 1, 1),)
    d2 = (datetime.date(2020, 1, 2),)
    with pytest.raises(PanelError, match="different dates"):
        compute_errors(HourlyPanel(d1, np.zeros((1, N_HOURS))),
                       HourlyPanel(d2, np.zeros((1, N_HOURS))))
