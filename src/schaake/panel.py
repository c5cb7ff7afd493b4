"""Day x hour panels of prices / point forecasts, CSV ingestion, error computation.

A panel is a T x 24 matrix of finite values indexed by strictly increasing
calendar dates.  Dates are opaque labels; no timezone logic lives here.

Every CSV file of the package is written by :func:`write_rows`, or, when no
cell can need quoting, by :func:`write_number_rows` from numbers or by
:func:`write_text_rows` from texts made elsewhere (forecast members).  A
numeric file (panel, forecasts, matrix) is read by :func:`read_bulk`, one
``np.loadtxt`` call over the whole file, and its reader checks the result as
whole arrays; when that parse or a check fails, the reader walks the file
again row by row with :func:`read_rows`, which names the first bad
``path:line`` or reads what ``loadtxt`` does not (quoted cells, ``1_0``,
whitespace).  Other files are only walked.  All are internal to the package,
and only this module knows the CSV dialect.
"""
from __future__ import annotations

import contextlib
import csv
import datetime
import math
import re
import sys
import warnings
from dataclasses import dataclass

import numpy as np

N_HOURS = 24
_EOL = "\r\n"  # the csv module's default line end


class PanelError(ValueError):
    """Malformed input data (CSV structure, shapes, dates, non-finite cells)."""


@dataclass(frozen=True)
class HourlyPanel:
    """Aligned day x hour matrix of realized or predicted values.

    Parameters
    ----------
    dates : tuple of datetime.date
        Strictly increasing, no duplicates, length T.
    values : numpy.ndarray
        T x 24 array of finite floats.  Stored read-only.
    """

    dates: tuple
    values: np.ndarray

    def __post_init__(self):
        dates = tuple(self.dates)
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != N_HOURS:
            raise PanelError(f"panel values must be T x {N_HOURS}, got shape {values.shape}")
        if len(dates) != values.shape[0] or len(dates) < 1:
            raise PanelError("number of dates must match number of rows and be >= 1")
        for a, b in zip(dates, dates[1:]):
            if not a < b:
                raise PanelError(f"dates must be strictly increasing, got {a} before {b}")
        if not np.all(np.isfinite(values)):
            raise PanelError("panel contains non-finite values")
        values.setflags(write=False)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", values)

    @property
    def n_days(self) -> int:
        return len(self.dates)


def hour_names(n_hours: int) -> list:
    """Column names ``h1..hH``."""
    return [f"h{h}" for h in range(1, n_hours + 1)]


def _check_header(path, cells, names, hourly: bool) -> list:
    """The header ``cells``, stripped and lower-cased; see :func:`read_rows`."""
    header = [c.strip().lower() for c in cells]
    n_hours = len(header) - len(names) if hourly else 0
    if header != [*names, *hour_names(n_hours)] or (hourly and n_hours < 1):
        want = ",".join([*names, "h1..hH"] if hourly else names)
        raise PanelError(f"{path}:1: expected header {want!r}, got {','.join(header)!r}")
    return header


def read_rows(path, names, hourly: bool = False):
    """Yield ``(line, cells)`` for every non-blank data row of a CSV file.

    The header, stripped and lower-cased, must read ``names``, followed with
    ``hourly`` by ``h1..hH`` (H >= 1, taken from the header's width).  Every
    row must have as many cells as the header.  A violation raises
    :class:`PanelError` naming ``path:line``, the file line on which the row
    starts.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = _check_header(path, next(reader, []), names, hourly)
        start = reader.line_num + 1
        for cells in reader:  # a quoted cell can span lines; a row is named by its first
            line, start = start, reader.line_num + 1
            if not cells or (len(cells) == 1 and not cells[0].strip()):
                continue
            if len(cells) != len(header):
                raise PanelError(f"{path}:{line}: expected {len(header)} columns, "
                                 f"got {len(cells)}")
            yield line, cells


# The bytes a bulk read takes in data rows.  Of texts made of these, ``loadtxt``
# parses exactly those that ``float`` and ``int`` parse, to the same numbers, and
# splits lines and cells as the ``csv`` module does; beyond them it does not
# (it reads "1.0\x1c" as 1.0, which ``float`` rejects).
_PLAIN = b"0123456789+-.eE,\r\n"
_BULK_TYPES = {"date": "U11", "member": np.int64, "hour": np.int64, "value": np.float64}
_CHUNK = 1 << 16


def read_bulk(path, names, hourly: bool = False):
    """Data rows of a CSV file as one structured array, or None to walk the file.

    The header is checked as :func:`read_rows` checks it.  One ``np.loadtxt``
    call then parses the rows into a field per name of ``names`` (``date`` as
    text, ``member`` and ``hour`` as ints, ``value`` as a float) and, with
    ``hourly``, a field ``values`` of the row's H floats.  A date text is read
    as at most 11 characters, so a longer one shows as 11, never as a date.

    None means the caller must walk the file with :func:`read_rows`, which
    raises any error and reads any row that is not plain: the header is bad,
    the file has no data row, a data row holds a byte other than ``0-9+-.eE``,
    a comma or a line end (quotes, whitespace, ``_``, ``nan``, non-ASCII
    digits), or ``loadtxt`` rejects a row.
    """
    with open(path, "rb") as fh:  # in chunks, to hold less than loadtxt does
        chunk = fh.read(_CHUNK)
        eol = re.match(rb"[^\r\n]*", chunk).end()  # the header's line, ended as csv ends it
        try:  # a header that passes holds no quote, so csv splits it as str.split does
            header = _check_header(path, chunk[:eol].decode().split(","), names, hourly)
        except ValueError:  # a bad header, or bad UTF-8 in it
            return None
        chunk, rows = chunk[eol:], False
        while chunk:
            if chunk.translate(None, _PLAIN):
                return None
            rows = rows or chunk.count(b"\r") + chunk.count(b"\n") < len(chunk)
            chunk = fh.read(_CHUNK)
    if not rows:
        return None
    dtype = [(name, _BULK_TYPES[name]) for name in names]
    if hourly:
        dtype.append(("values", np.float64, (len(header) - len(names),)))
    try:
        return np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1, comments=None,
                          encoding="utf-8", ndmin=1)
    except ValueError:
        return None


def bulk_days(texts):
    """``(dates, day)`` of a date field of :func:`read_bulk`, or None.

    ``dates`` lists the distinct dates ascending and ``day`` indexes each
    text's date in it; two texts of one date (``20200101``, ``2020-01-01``)
    share a day.  None when a text is no date to ``date.fromisoformat``.
    """
    texts, index = np.unique(texts, return_inverse=True)
    if np.strings.str_len(texts).max() > 10:  # read_bulk cut it to 11 characters
        return None
    try:
        ordinals = [datetime.date.fromisoformat(text).toordinal() for text in texts.tolist()]
    except ValueError:
        return None
    ordinals, day = np.unique(ordinals, return_inverse=True)
    return [datetime.date.fromordinal(o) for o in ordinals.tolist()], day[index]


def open_csv(path):
    """``path`` opened for writing CSV, or standard output when None."""
    return (open(path, "w", newline="", encoding="utf-8") if path is not None
            else contextlib.nullcontext(sys.stdout))


def write_rows(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV to ``path``, or to stdout when None.

    The ``csv`` module's default dialect, with ``\\r\\n`` line ends.  Python floats
    are written as they are: ``str(float)`` is ``repr(float)``, the shortest
    text that reads back to the same float.  None is written as an empty cell.
    """
    with open_csv(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_number_rows(path, header, blocks) -> None:
    """Write ``header`` and blocks of number rows, byte for byte as :func:`write_rows`.

    ``blocks`` yields ``(date, rows)``: every row, a sequence of Python ints and
    floats, is written after ``date`` in ISO form, or alone when ``date`` is
    None.  None of these cells can need quoting, so every row is one join of
    ``repr`` texts and every block one write, about half the time
    ``csv.writer`` takes.
    """
    with open_csv(path) as fh:
        write_text_rows(fh, [header])
        for date, rows in blocks:
            lead = "" if date is None else date.isoformat() + ","
            fh.write("".join([lead + ",".join(map(repr, row)) + _EOL for row in rows]))


def write_text_rows(fh, rows) -> None:
    """Write rows of text cells that need no quoting to ``fh``, in one write.

    Each row is one join, byte for byte as :func:`write_rows` writes it.
    """
    fh.write("".join([",".join(row) + _EOL for row in rows]))


def parse_cell(parse, text, what: str, path, lineno: int):
    """``parse(text)``; a ValueError becomes a PanelError naming ``path:lineno``."""
    try:
        return parse(text)
    except ValueError:
        raise PanelError(f"{path}:{lineno}: bad {what} {text!r}") from None


def read_matrix_csv(path) -> np.ndarray:
    """Float matrix of a CSV with header ``h1..hH``, one matrix row per line.

    Non-numeric and non-finite cells raise :class:`PanelError` naming ``path:line``.
    """
    rows = read_bulk(path, (), hourly=True)
    if rows is not None and np.isfinite(rows["values"]).all():
        return rows["values"]
    return _walk_matrix(path)


def _walk_matrix(path) -> np.ndarray:
    """:func:`read_matrix_csv` row by row, raising at the first bad cell."""
    rows = []
    for lineno, cells in read_rows(path, (), hourly=True):
        rows.append([_finite(cell, path, lineno) for cell in cells])
    if not rows:
        raise PanelError(f"{path}: no data rows")
    return np.array(rows)


def _finite(text, path, lineno: int) -> float:
    value = parse_cell(float, text, "value", path, lineno)
    if not math.isfinite(value):
        raise PanelError(f"{path}:{lineno}: non-finite value {text!r}")
    return value


def load_panel(path, role: str = "realization") -> HourlyPanel:
    """Parse a long-format CSV (``date,hour,value``) into an :class:`HourlyPanel`.

    Days are sorted ascending regardless of file order.  Days with fewer than
    24 distinct hours are dropped with a warning; duplicate cells, hours
    outside 1..24 and non-finite values raise :class:`PanelError`.
    """
    rows = read_bulk(path, ("date", "hour", "value"))
    cells = None if rows is None else _bulk_cells(rows)
    dates, day, hour, value = cells or _walk_panel(path)
    cell = day * N_HOURS + hour - 1
    grid = np.empty((len(dates), N_HOURS))
    grid.flat[cell] = value
    present = np.bincount(cell, minlength=grid.size).reshape(grid.shape) > 0
    complete = present.all(axis=1)
    for i in np.flatnonzero(~complete):
        missing = (np.flatnonzero(~present[i]) + 1).tolist()
        warnings.warn(f"{path}: dropping {role} day {dates[i]}: missing hours {missing}",
                      stacklevel=2)
    if not complete.any():
        raise PanelError(f"{path}: no complete {N_HOURS}-hour days")
    return HourlyPanel(tuple(d for d, keep in zip(dates, complete) if keep), grid[complete])


def _bulk_cells(rows):
    """``(dates, day, hour, value)`` of a bulk-read panel, or None when a check fails."""
    days = bulk_days(rows["date"])
    hour, value = rows["hour"], rows["value"]
    if days is None or not (((hour >= 1) & (hour <= N_HOURS)).all()
                            and np.isfinite(value).all()):
        return None
    dates, day = days
    if np.bincount(day * N_HOURS + hour - 1).max() > 1:  # a duplicate cell
        return None
    return dates, day, hour, value


def _walk_panel(path):
    """:func:`load_panel`'s cells row by row, raising at the first bad row."""
    dates: dict = {}   # date text -> date
    cells: dict = {}   # (date, hour) -> value
    for lineno, row in read_rows(path, ("date", "hour", "value")):
        date = dates.get(row[0])
        if date is None:
            try:
                date = dates[row[0]] = datetime.date.fromisoformat(row[0].strip())
            except ValueError as exc:
                raise PanelError(f"{path}:{lineno}: bad date {row[0]!r}: {exc}") from None
        hour = parse_cell(int, row[1], "hour", path, lineno)
        if not 1 <= hour <= N_HOURS:
            raise PanelError(f"{path}:{lineno}: hour {hour} outside 1..{N_HOURS}")
        value = _finite(row[2], path, lineno)
        if (date, hour) in cells:
            raise PanelError(f"{path}:{lineno}: duplicate cell ({date}, hour {hour})")
        cells[date, hour] = value
    if not cells:
        raise PanelError(f"{path}: no data rows")
    sorted_dates = sorted(set(dates.values()))
    index = {date: i for i, date in enumerate(sorted_dates)}
    day, hour = np.array([(index[date], hour) for date, hour in cells]).T
    return sorted_dates, day, hour, np.array(list(cells.values()))


def save_panel(panel: HourlyPanel, path) -> None:
    """Serialize a panel to the long CSV format accepted by :func:`load_panel`."""
    write_number_rows(path, ["date", "hour", "value"],
                      ((date, enumerate(day, start=1))
                       for date, day in zip(panel.dates, panel.values.tolist())))


def compute_errors(real: HourlyPanel, fc: HourlyPanel) -> HourlyPanel:
    """Cell-wise forecast errors, realization minus forecast."""
    if real.dates != fc.dates:
        raise PanelError("realization and forecast panels have different dates")
    return HourlyPanel(real.dates, real.values - fc.values)
