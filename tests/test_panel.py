import contextlib
import csv
import datetime
import io
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schaake import panel as panel_module
from schaake.forecast import read_forecasts_csv
from schaake.loadprofile import load_profile_csv
from schaake.panel import (
    N_HOURS,
    HourlyPanel,
    PanelError,
    compute_errors,
    load_panel,
    read_matrix_csv,
    save_panel,
    write_number_rows,
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
    assert len(panel.dates) == 2
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
    assert len(panel.dates) == 1


def test_file_without_a_complete_day_is_refused(tmp_path):
    path = tmp_path / "gap.csv"
    write_csv(path, [("2020-01-02", h, 1.0) for h in range(1, 24)])
    with pytest.warns(UserWarning, match="missing hours"), \
            pytest.raises(PanelError, match=r"gap\.csv: no complete 24-hour days$"):
        load_panel(path)


ONE_DAY = (datetime.date(2020, 1, 1),)


@pytest.mark.parametrize("dates, values, match", [
    (ONE_DAY, np.zeros((1, 23)), r"T x 24, got shape \(1, 23\)"),
    (ONE_DAY, np.zeros(24), r"T x 24, got shape \(24,\)"),
    ((), np.zeros((0, 24)), "number of dates must match number of rows and be >= 1"),
    (ONE_DAY, np.zeros((2, 24)), "number of dates must match number of rows"),
    (ONE_DAY, np.full((1, 24), np.inf), "non-finite"),
    (ONE_DAY, np.full((1, 24), np.nan), "non-finite"),
])
def test_hourly_panel_refuses_bad_values(dates, values, match):
    with pytest.raises(PanelError, match=match):
        HourlyPanel(dates, values)


def test_non_finite_value_rejected(tmp_path):
    path = tmp_path / "nan.csv"
    rows = full_day("2020-01-01", 10.0)
    rows[5] = ("2020-01-01", 6, "nan")
    write_csv(path, rows)
    with pytest.raises(PanelError, match="non-finite"):
        load_panel(path)


@pytest.mark.parametrize("changes, match", [
    ({20: (None, "x")}, r":22: bad value 'x'"),
    ({5: (None, "nan"), 8: (None, "x")}, r":7: non-finite value 'nan'"),
    ({5: (None, "x"), 8: (3, None)}, r":7: bad value 'x'"),
    ({5: (None, "x"), 8: (25, None)}, r":7: bad value 'x'"),
    ({5: (None, "x"), 8: ("first", None)}, r":7: bad value 'x'"),
    ({5: (3, "x")}, r":7: bad value 'x'"),
    # a check fault before a later parse fault, and a parse fault before a later check fault
    ({3: (25, None), 8: (None, "x")}, r":5: hour 25 outside 1\.\.24"),
    ({3: (3, None), 8: (None, "1e500")}, r":5: duplicate cell \(2020-01-01, hour 3\)"),
    ({3: (None, "1e500"), 8: (3, None)}, r":5: non-finite value '1e500'"),
])
def test_load_panel_names_the_first_bad_line(tmp_path, changes, match):
    # values are cast in bulk, after the row checks; an earlier bad value
    # must still be reported before a later row's error
    rows = full_day("2020-01-01", 10.0)
    for i, (hour, value) in changes.items():
        d, h, v = rows[i]
        rows[i] = (d, h if hour is None else hour, v if value is None else value)
    path = tmp_path / "cells.csv"
    write_csv(path, rows)
    with pytest.raises(PanelError, match=r"cells\.csv" + match):
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


def test_compute_errors_names_dates_of_one_panel_only():
    days = [datetime.date(2020, 1, d) for d in range(1, 11)]
    real = HourlyPanel(days[:8], np.zeros((8, N_HOURS)))
    fc = HourlyPanel(days[:1] + days[6:], np.zeros((5, N_HOURS)))
    with pytest.raises(PanelError) as exc:
        compute_errors(real, fc)
    assert str(exc.value) == (
        "realization and forecast panels have different dates: first only in the "
        "realization 2020-01-02, 2020-01-03, 2020-01-04; first only in the forecast "
        "2020-01-09, 2020-01-10")


def test_compute_errors_date_mismatch():
    d1 = (datetime.date(2020, 1, 1),)
    d2 = (datetime.date(2020, 1, 2),)
    with pytest.raises(PanelError, match="different dates"):
        compute_errors(HourlyPanel(d1, np.zeros((1, N_HOURS))),
                       HourlyPanel(d2, np.zeros((1, N_HOURS))))


# cells that csv never quotes, among them the edge cases of repr
NUMBERS = st.one_of(
    st.integers(-10**20, 10**20),
    st.floats(),
    st.integers(-2**60, 2**60).map(float),
    st.sampled_from([-0.0, 5e-324, 1e-5, 1e16, 1e308, -1e308, 1e22, 123456789.0]),
)


def csv_writer_bytes(header, blocks) -> bytes:
    """Reference: the same rows written by ``csv.writer``, dates as cells."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for date, rows in blocks:
        writer.writerows(([] if date is None else [date]) + list(row) for row in rows)
    return buf.getvalue().encode()


@settings(max_examples=150, deadline=None)
@given(blocks=st.lists(st.tuples(st.none() | st.dates(),
                                 st.lists(st.lists(NUMBERS, min_size=1, max_size=6),
                                          max_size=4)),
                       max_size=4))
def test_write_number_rows_matches_csv_writer(blocks):
    header = ["date", "member", "h1"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        write_number_rows(path, header, blocks)
        assert path.read_bytes() == csv_writer_bytes(header, blocks)


FLOAT_TEXTS = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.from_regex(r"\A\s?[-+]?[0-9_]{0,4}\.?[0-9_]{0,3}([eE][-+]?[0-9]{1,3})?\s?\Z"),
    st.sampled_from(["nan", "-inf", "Infinity", "1_0", " 1.5 ", "0x10", "", "1__0",
                     "\u0661\u0662", "1e500", "1d5", "nan(1)"]),
    st.text(max_size=5),
)


def float_or_error(texts):
    """Values ``float`` gives texts on lines 2.., or the error and line of the first it refuses."""
    values = []
    for line, text in enumerate(texts, start=2):
        try:
            values.append(float(text))
        except ValueError:
            return f"bad value {text!r}", line
        if not np.isfinite(values[-1]):
            return f"non-finite value {text!r}", line
    return values, None


def csv_line(cells) -> str:
    """``cells`` as one CSV line, quoted where the csv module would quote them."""
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(FLOAT_TEXTS.filter(lambda t: "\r" not in t and "\n" not in t),
                      min_size=1, max_size=8),
       matrix=st.booleans())
def test_readers_accept_what_float_accepts(texts, matrix):
    # as matrix rows, every text is a row's first of two cells; as panel
    # cells, the first hours of a day (a line end in a cell would move the
    # csv module's row ends, so none is drawn)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        if matrix:
            rows = [csv_line([text, "1.0"]) for text in texts]
            path.write_text("h1,h2\n" + "".join(rows), encoding="utf-8")
        else:
            cells = texts + ["1.0"] * (N_HOURS - len(texts))
            rows = [csv_line(["2020-01-01", h, c]) for h, c in enumerate(cells, start=1)]
            path.write_text("date,hour,value\n" + "".join(rows), encoding="utf-8")
        expected, line = float_or_error(texts)
        if line is not None:
            with pytest.raises(PanelError) as exc:
                read_matrix_csv(path) if matrix else load_panel(path)
            assert str(exc.value) == f"{path}:{line}: {expected}"
            return
        got = read_matrix_csv(path)[:, 0] if matrix else load_panel(path).values[0, :len(texts)]
    assert [repr(v) for v in got.tolist()] == [repr(v) for v in expected]


# ---------------------------------------------------------------------------
# The bulk read against the line walker
# ---------------------------------------------------------------------------

VALUE_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1e5", "-0", ".5", "5.", "+1.25", "1E-3", "007"]),
)
# hostile cells of the bytes a bulk read takes, and of others; the first can
# reach loadtxt and are drawn as often as the second
HOSTILE_VALUES = st.one_of(
    st.sampled_from(["1e500", "-1e999", "1..0", "e", "", "-", "1e", "+-1", "--1", ".", "1e5e5"]),
    st.sampled_from(['"1.5"', "1_0", "\u0661\u0662", " 1.5 ", "#", "1.5#x", "nan", "inf",
                     "-inf", "1.0\x1c", "0x10", "1d5", "1.0 ", "\t2", '"1,5"']),
)
HOSTILE_DATES = st.one_of(
    st.sampled_from(["2020-01-011", "2020-01-01-", "2020-01-01.5", "20200102", "2020-02-30",
                     "2020-1-1", "", "+2020-01-01", "2020-0101", "2020-01-02", "2020-01-0"]),
    st.sampled_from(["2020-01-01xyz", " 2020-01-01", "2020-01-01 ", '"2020-01-01"',
                     "2020-01-01\x1c", "2020-01-01#", "2020-W01-1"]),
)
HOSTILE_INTS = st.one_of(
    st.sampled_from(["1.0", "+1", "0", "-1", "25", "99999999999999999999", "", "01", "2",
                     "1e0", "-0"]),
    st.sampled_from([" 1", "1_0", "\u0661", '"1"', "1 "]),
)
HOSTILE_LINES = ["", "  ", "\t", ",", "#", '""', "a,b,c,d,e,f"]
# few days, so that a hostile date is often one of them
DATES = st.dates(datetime.date(2020, 1, 1), datetime.date(2020, 1, 4))


@st.composite
def mangled_csv(draw, header, rows, kinds):
    """``header`` and ``rows`` as CSV text, with up to three hostile changes.

    ``kinds`` names each column's cell kind: ``date``, ``int`` or ``value``.
    A change replaces a cell, duplicates, drops or splits a row, or inserts a
    hostile line.  The header may be quoted, padded or cut; the line end is
    ``\\n``, ``\\r\\n`` or ``\\r``.
    """
    rows = [list(row) for row in rows]
    pools = {"date": HOSTILE_DATES, "int": HOSTILE_INTS, "value": HOSTILE_VALUES}
    for _ in range(draw(st.integers(0, 3))):
        change = draw(st.sampled_from(["cell", "cell", "dup", "drop", "line", "ragged"]))
        if not rows and change != "line":
            continue
        i = draw(st.integers(0, max(len(rows) - 1, 0)))
        if change == "cell":
            j = draw(st.integers(0, len(kinds) - 1))
            if j < len(rows[i]):  # not a hostile line or a cut row
                rows[i][j] = draw(pools[kinds[j]])
        elif change == "dup":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
        elif change == "drop":
            del rows[i]
        elif change == "ragged":
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1.0"]
        else:
            rows.insert(i, [draw(st.sampled_from(HOSTILE_LINES))])
    header = draw(st.just(header) | st.sampled_from([
        [name.upper() for name in header], [f" {name} " for name in header],
        [f'"{name}"' for name in header], ["\ufeff" + header[0], *header[1:]], header[:-1],
    ]))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(",".join(row) for row in [header, *rows]) + draw(st.sampled_from([eol, ""]))


def forecast_files():
    @st.composite
    def files(draw):
        n_days, m, n_hours = (draw(st.integers(1, 3)) for _ in range(3))
        dates = draw(st.lists(DATES, min_size=n_days, max_size=n_days, unique=True))
        rows = [[d.isoformat(), str(k), *draw(st.lists(VALUE_CELLS, min_size=n_hours,
                                                       max_size=n_hours))]
                for d in dates for k in range(1, m + 1)]
        rows = draw(st.permutations(rows))  # days interleaved, members out of order
        header = ["date", "member", *(f"h{h}" for h in range(1, n_hours + 1))]
        return draw(mangled_csv(header, rows, ["date", "int"] + ["value"] * n_hours))
    return files()


def panel_files():
    @st.composite
    def files(draw):
        dates = draw(st.lists(DATES, min_size=1, max_size=2, unique=True))
        rows = [[d.isoformat(), str(h), draw(VALUE_CELLS)]
                for d in dates for h in range(1, N_HOURS + 1)]
        if draw(st.booleans()):
            rows = draw(st.permutations(rows))
        return draw(mangled_csv(["date", "hour", "value"], rows, ["date", "int", "value"]))
    return files()


def matrix_files():
    @st.composite
    def files(draw):
        n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(VALUE_CELLS, min_size=n_cols, max_size=n_cols),
                             min_size=n_rows, max_size=n_rows))
        return draw(mangled_csv([f"h{h}" for h in range(1, n_cols + 1)], rows,
                                ["value"] * n_cols))
    return files()


def profile_files():
    # nonnegative weights, so that most files reach the bulk parse's checks
    weights = st.one_of(st.floats(min_value=0.0, allow_infinity=False).map(repr),
                        st.integers(0, 10**6).map(str), st.sampled_from(["1e5", "-0", ".5", "007"]))

    @st.composite
    def files(draw):
        rows = [[str(h), draw(weights)] for h in range(1, N_HOURS + 1)]
        if draw(st.booleans()):
            rows = draw(st.permutations(rows))
        return draw(mangled_csv(["hour", "weight"], rows, ["int", "value"]))
    return files()


def _bits(result):
    """What a reader returned, its floats as exact bits."""
    if isinstance(result, HourlyPanel):
        return result.dates, result.values.shape, result.values.tobytes()
    if isinstance(result, np.ndarray):
        return result.shape, result.tobytes()
    return [(fc.date, fc.members.shape, fc.members.tobytes()) for fc in result]


def outcome(read, path, walk: bool = False):
    """``read(path)`` as comparable data: its result or error, and its warnings."""
    with contextlib.ExitStack() as stack:
        if walk:  # every reader's bulk parse is read_checked's call of read_bulk
            stack.enter_context(mock.patch.object(panel_module, "read_bulk",
                                                  lambda *a, **k: None))
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        try:
            result = ("ok", _bits(read(path)))
        except Exception as exc:  # noqa: BLE001 - the walker's error, whatever its kind
            result = (type(exc).__name__, str(exc))
    return result, [str(w.message) for w in caught]


def check_against_walker(read, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(read, path) == outcome(read, path, walk=True)


@settings(max_examples=300, deadline=None)
@given(text=forecast_files())
def test_read_forecasts_csv_matches_its_walker(text):
    check_against_walker(read_forecasts_csv, text)


@settings(max_examples=200, deadline=None)
@given(text=panel_files())
def test_load_panel_matches_its_walker(text):
    check_against_walker(load_panel, text)


@settings(max_examples=300, deadline=None)
@given(text=matrix_files())
def test_read_matrix_csv_matches_its_walker(text):
    check_against_walker(read_matrix_csv, text)


@settings(max_examples=200, deadline=None)
@given(text=profile_files())
def test_load_profile_csv_matches_its_walker(text):
    check_against_walker(lambda path: load_profile_csv(path).weights, text)


def _no_walk(*args):
    raise AssertionError("a plain file was walked")


def test_plain_files_are_not_walked(tmp_path, monkeypatch):
    monkeypatch.setattr(panel_module, "walk_bulk", _no_walk)
    path = tmp_path / "p.csv"
    # interleaved days, hours out of order, \r\n line ends and a blank line
    rows = full_day("2020-01-02", 1.0) + full_day("2020-01-01", 2.0)[::-1]
    path.write_bytes(("date,hour,value\r\n\r\n"
                      + "".join(f"{d},{h},{v!r}\r\n" for d, h, v in rows)).encode())
    assert load_panel(path).dates == (datetime.date(2020, 1, 1), datetime.date(2020, 1, 2))
    path.write_text("date,member,h1\n2020-01-02,2,1e5\n2020-01-01,1,-0\n20200102,1,.5\n"
                    "2020-01-01,2,7\n")
    assert [fc.members.tolist() for fc in read_forecasts_csv(path)] == \
        [[[-0.0], [7.0]], [[0.5], [1e5]]]
    path.write_bytes(b"h1,h2\r1,2\r3.5,-4e-3\r")
    assert read_matrix_csv(path).tolist() == [[1.0, 2.0], [3.5, -0.004]]


@pytest.mark.parametrize("read, text, match", [
    # a date cut to 10 characters would read as a date
    (load_panel, "date,hour,value\n2015-01-01xyz,1,1.0\n",
     r":2: bad date '2015-01-01xyz': Invalid isoformat string"),
    (read_forecasts_csv, "date,member,h1\n2015-01-01xyz,1,1.0\n", r":2: bad date '2015-01-01xyz'"),
    (load_panel, "date,hour,value\n" + "".join(f"2015-01-01,{h},1.0\n" for h in range(1, 24))
     + "2015-01-0112,24,1.0\n", r":25: bad date '2015-01-0112'"),
    (read_forecasts_csv, "date,member,h1\n2015-01-01-5,1,1.0\n", r":2: bad date '2015-01-01-5'"),
    # 1e500 parses, to inf
    (load_panel, "date,hour,value\n2015-01-01,1,1e500\n", r":2: non-finite value '1e500'"),
    (read_forecasts_csv, "date,member,h1\n2015-01-01,1,1e500\n", r":2: non-finite value"),
    (read_matrix_csv, "h1\n-1e500\n", r":2: non-finite value '-1e500'"),
    # loadtxt's default comments="#" would read 1.5#x as 1.5
    (load_panel, "date,hour,value\n2015-01-01,1,1.5#x\n", r":2: bad value '1\.5#x'"),
    (read_forecasts_csv, "date,member,h1\n2015-01-01,1,1.5#x\n", r":2: bad values \['1\.5#x'\]"),
    (read_matrix_csv, "h1\n1.5#x\n", r":2: bad value '1\.5#x'"),
    # loadtxt strips \x1c from a number, float does not
    (read_matrix_csv, "h1\n1.5\x1c\n", r":2: bad value '1\.5\\x1c'"),
    # str.strip strips \x1c from a date; a date is stripped as float strips a value
    (load_panel, "date,hour,value\n2015-01-01\x1c,1,1.0\n",
     r":2: bad date '2015-01-01\\x1c': Invalid isoformat string"),
    (load_panel, "date,hour,value\n\x1f2015-01-01,1,1.0\n", r":2: bad date '\\x1f2015-01-01'"),
])
def test_bulk_read_refuses_what_the_walker_refuses(tmp_path, read, text, match):
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(PanelError, match=r"f\.csv" + match):
        read(path)


@pytest.mark.parametrize("read, header, match", [
    (load_panel, "date,hour,value", ": no data rows"),
    (read_forecasts_csv, "date,member,h1,h2", ": no forecasts"),
    (read_matrix_csv, "h1,h2", ": no data rows"),
])
def test_header_only_file_raises_without_a_warning(tmp_path, read, header, match):
    # loadtxt warns "input contained no data" on such a file
    path = tmp_path / "f.csv"
    path.write_text(header + "\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PanelError, match=r"f\.csv" + match):
            read(path)


@pytest.mark.parametrize("text, match", [
    ('h1,h2\n1,3\n"4\n",5\n6,x\n', r":5: bad value 'x'"),
    ('h1,h2\n1,3\n"4\nx",5\n6,7\n', r":3: bad value '4\\nx'"),
    ('h1,h2\n1,3\n"4\n\n",5\n\n6,7,8\n', r":7: expected 2 columns, got 3"),
])
def test_rows_are_named_by_the_line_they_start_on(tmp_path, text, match):
    # a quoted cell that spans lines makes one row of several file lines
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(PanelError, match=r"f\.csv" + match):
        read_matrix_csv(path)
