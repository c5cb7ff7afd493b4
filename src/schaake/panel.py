"""Day x hour panels of prices / point forecasts, CSV ingestion, error computation.

A panel is a T x 24 matrix of finite values indexed by strictly increasing
calendar dates.  Dates are opaque labels; no timezone logic lives here.

Every CSV file of the package is read by :func:`read_rows`, its float cells
cast in bulk by :class:`FloatCells`, and written by :func:`write_rows`, or by
:func:`write_number_rows` when no cell can need quoting; all are internal to
the package, and only this module knows the CSV dialect.
"""
from __future__ import annotations

import contextlib
import csv
import datetime
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


def read_rows(path, names, hourly: bool = False):
    """Yield ``(line, cells)`` for every non-blank data row of a CSV file.

    The header, stripped and lower-cased, must read ``names``, followed with
    ``hourly`` by ``h1..hH`` (H >= 1, taken from the header's width).  Every
    row must have as many cells as the header.  A violation raises
    :class:`PanelError` naming ``path:line``.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [c.strip().lower() for c in next(reader, [])]
        n_hours = len(header) - len(names) if hourly else 0
        if header != [*names, *hour_names(n_hours)] or (hourly and n_hours < 1):
            want = ",".join([*names, "h1..hH"] if hourly else names)
            raise PanelError(f"{path}:1: expected header {want!r}, got {','.join(header)!r}")
        for line, cells in enumerate(reader, start=2):
            if not cells or (len(cells) == 1 and not cells[0].strip()):
                continue
            if len(cells) != len(header):
                raise PanelError(f"{path}:{line}: expected {len(header)} columns, "
                                 f"got {len(cells)}")
            yield line, cells


def _output(path):
    """``path`` opened for writing CSV, or standard output when None."""
    return (open(path, "w", newline="", encoding="utf-8") if path is not None
            else contextlib.nullcontext(sys.stdout))


def write_rows(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV to ``path``, or to stdout when None.

    The ``csv`` module's default dialect, with ``\\r\\n`` line ends.  Python floats
    are written as they are: ``str(float)`` is ``repr(float)``, the shortest
    text that reads back to the same float.  None is written as an empty cell.
    """
    with _output(path) as fh:
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
    with _output(path) as fh:
        fh.write(",".join(header) + _EOL)
        for date, rows in blocks:
            lead = "" if date is None else date.isoformat() + ","
            fh.write("".join([lead + ",".join(map(repr, row)) + _EOL for row in rows]))


def parse_cell(parse, text, what: str, path, lineno: int):
    """``parse(text)``; a ValueError becomes a PanelError naming ``path:lineno``."""
    try:
        return parse(text)
    except ValueError:
        raise PanelError(f"{path}:{lineno}: bad {what} {text!r}") from None


def _cast(text):
    return np.array(text, dtype=float)


class FloatCells:
    """Float cells of one CSV file: :meth:`add` keeps their text, :meth:`take` casts in bulk.

    An entry is one cell or one row's list of cells.  numpy casts each text
    with Python's ``float``, so the bulk cast accepts exactly what ``float``
    accepts.  Only when it fails, or when ``finite`` and a value is not
    finite, are the entries cast again one by one, to name the first bad one
    as a per-cell parse would: ``path:line: bad <what> <text>`` or
    ``path:line: non-finite value <text>``.

    A reader that raises a :class:`PanelError` of its own calls :meth:`take`
    first, so that a bad cell on an earlier line is reported first.
    """

    def __init__(self, path, what: str = "value", finite: bool = False):
        self.path, self.what, self.finite = path, what, finite
        self.lines: list = []
        self.cells: list = []

    def __len__(self) -> int:
        return len(self.lines)

    def add(self, line: int, cells) -> None:
        self.lines.append(line)
        self.cells.append(cells)

    def take(self) -> np.ndarray:
        """Float array of the entries added since the last take, which it forgets."""
        lines, cells = self.lines, self.cells
        self.lines, self.cells = [], []
        try:
            values = np.array(cells, dtype=float)
            if not self.finite or np.isfinite(values).all():
                return values
        except ValueError:
            pass
        for line, text in zip(lines, cells):
            value = parse_cell(_cast, text, self.what, self.path, line)
            if self.finite and not np.isfinite(value).all():
                raise PanelError(f"{self.path}:{line}: non-finite value {text!r}")
        # reached only when the bulk cast failed for a reason no single entry shows
        return np.array(cells, dtype=float)


def read_matrix_csv(path) -> np.ndarray:
    """Float matrix of a CSV with header ``h1..hH``, one matrix row per line.

    Non-numeric and non-finite cells raise :class:`PanelError` naming ``path:line``.
    """
    values, n_cols = FloatCells(path, finite=True), 0
    try:
        for lineno, cells in read_rows(path, (), hourly=True):
            n_cols = len(cells)
            for cell in cells:
                values.add(lineno, cell)
    except PanelError:
        values.take()
        raise
    if not n_cols:
        raise PanelError(f"{path}: no data rows")
    return values.take().reshape(-1, n_cols)


def load_panel(path, role: str = "realization") -> HourlyPanel:
    """Parse a long-format CSV (``date,hour,value``) into an :class:`HourlyPanel`.

    Days are sorted ascending regardless of file order.  Days with fewer than
    24 distinct hours are dropped with a warning; duplicate cells, hours
    outside 1..24 and non-finite values raise :class:`PanelError`.
    """
    dates: dict = {}   # date text -> date
    cells: dict = {}   # date -> {hour: index of the cell's value}
    values = FloatCells(path, finite=True)
    try:
        for lineno, row in read_rows(path, ("date", "hour", "value")):
            date = dates.get(row[0])
            if date is None:
                try:
                    date = dates[row[0]] = datetime.date.fromisoformat(row[0].strip())
                except ValueError as exc:
                    raise PanelError(f"{path}:{lineno}: bad date {row[0]!r}: {exc}") from None
            try:
                hour = int(row[1])
            except ValueError:
                raise PanelError(f"{path}:{lineno}: bad hour {row[1]!r}") from None
            if not 1 <= hour <= N_HOURS:
                raise PanelError(f"{path}:{lineno}: hour {hour} outside 1..{N_HOURS}")
            day = cells.setdefault(date, {})
            values.add(lineno, row[2])
            if hour in day:
                raise PanelError(f"{path}:{lineno}: duplicate cell ({date}, hour {hour})")
            day[hour] = len(values) - 1
    except PanelError:
        values.take()
        raise
    flat = values.take()

    if not cells:
        raise PanelError(f"{path}: no data rows")

    complete, rows = [], []
    for date in sorted(cells):
        day = cells[date]
        if len(day) < N_HOURS:
            missing = sorted(set(range(1, N_HOURS + 1)) - set(day))
            warnings.warn(
                f"{path}: dropping {role} day {date}: missing hours {missing}",
                stacklevel=2,
            )
            continue
        complete.append(date)
        rows.append([day[h] for h in range(1, N_HOURS + 1)])
    if not complete:
        raise PanelError(f"{path}: no complete {N_HOURS}-hour days")
    return HourlyPanel(tuple(complete), flat[np.array(rows)])


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
