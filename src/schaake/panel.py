"""Day x hour panels of prices / point forecasts, CSV ingestion, error computation.

A panel is a T x 24 matrix of finite values indexed by strictly increasing
calendar dates.  Dates are opaque labels; no timezone logic lives here.

Every CSV file of the package is read by :func:`read_rows` and written by
:func:`write_rows`; both are internal to the package.
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


def write_rows(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV to ``path``, or to stdout when None.

    The ``csv`` module's default dialect, with ``\\r\\n`` line ends.  Python floats
    are written as they are: ``str(float)`` is ``repr(float)``, the shortest
    text that reads back to the same float.  None is written as an empty cell.
    """
    with (open(path, "w", newline="", encoding="utf-8") if path is not None
          else contextlib.nullcontext(sys.stdout)) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def parse_cell(parse, text, what: str, path, lineno: int):
    """``parse(text)``; a ValueError becomes a PanelError naming ``path:lineno``.

    :func:`load_panel` parses inline instead: it reads 24 cells per day, and a
    call per cell costs it about 15%.
    """
    try:
        return parse(text)
    except ValueError:
        raise PanelError(f"{path}:{lineno}: bad {what} {text!r}") from None


def read_matrix_csv(path) -> np.ndarray:
    """Float matrix of a CSV with header ``h1..hH``, one matrix row per line.

    Non-numeric and non-finite cells raise :class:`PanelError` naming ``path:line``.
    """
    rows = []
    for lineno, cells in read_rows(path, (), hourly=True):
        row = [parse_cell(float, c, "value", path, lineno) for c in cells]
        if not np.all(np.isfinite(row)):
            raise PanelError(f"{path}:{lineno}: non-finite value")
        rows.append(row)
    if not rows:
        raise PanelError(f"{path}: no data rows")
    return np.array(rows)


def load_panel(path, role: str = "realization") -> HourlyPanel:
    """Parse a long-format CSV (``date,hour,value``) into an :class:`HourlyPanel`.

    Days are sorted ascending regardless of file order.  Days with fewer than
    24 distinct hours are dropped with a warning; duplicate cells, hours
    outside 1..24 and non-finite values raise :class:`PanelError`.
    """
    cells: dict = {}
    for lineno, row in read_rows(path, ("date", "hour", "value")):
        try:
            date = datetime.date.fromisoformat(row[0].strip())
        except ValueError as exc:
            raise PanelError(f"{path}:{lineno}: bad date {row[0]!r}: {exc}") from None
        try:
            hour = int(row[1])
        except ValueError:
            raise PanelError(f"{path}:{lineno}: bad hour {row[1]!r}") from None
        if not 1 <= hour <= N_HOURS:
            raise PanelError(f"{path}:{lineno}: hour {hour} outside 1..{N_HOURS}")
        try:
            value = float(row[2])
        except ValueError:
            raise PanelError(f"{path}:{lineno}: bad value {row[2]!r}") from None
        if not np.isfinite(value):
            raise PanelError(f"{path}:{lineno}: non-finite value {row[2]!r}")
        day = cells.setdefault(date, {})
        if hour in day:
            raise PanelError(f"{path}:{lineno}: duplicate cell ({date}, hour {hour})")
        day[hour] = value

    if not cells:
        raise PanelError(f"{path}: no data rows")

    dates, rows = [], []
    for date in sorted(cells):
        day = cells[date]
        if len(day) < N_HOURS:
            missing = sorted(set(range(1, N_HOURS + 1)) - set(day))
            warnings.warn(
                f"{path}: dropping {role} day {date}: missing hours {missing}",
                stacklevel=2,
            )
            continue
        dates.append(date)
        rows.append([day[h] for h in range(1, N_HOURS + 1)])
    if not dates:
        raise PanelError(f"{path}: no complete {N_HOURS}-hour days")
    return HourlyPanel(tuple(dates), np.array(rows))


def save_panel(panel: HourlyPanel, path) -> None:
    """Serialize a panel to the long CSV format accepted by :func:`load_panel`."""
    write_rows(path, ["date", "hour", "value"],
               ([date.isoformat(), h, value]
                for date, day in zip(panel.dates, panel.values.tolist())
                for h, value in enumerate(day, start=1)))


def compute_errors(real: HourlyPanel, fc: HourlyPanel) -> HourlyPanel:
    """Cell-wise forecast errors, realization minus forecast."""
    if real.dates != fc.dates:
        raise PanelError("realization and forecast panels have different dates")
    return HourlyPanel(real.dates, real.values - fc.values)
