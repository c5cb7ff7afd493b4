"""Day x hour panels of prices / point forecasts, CSV ingestion, error computation.

A panel is a T x 24 matrix of finite values indexed by strictly increasing
calendar dates.  Dates are opaque labels; no timezone logic lives here.

Every CSV file of the package is written by :func:`write_rows`, or, when no
cell can need quoting, by :func:`write_number_rows` from numbers or by
:func:`write_text_rows` from texts made elsewhere (forecast members).  Every
CSV input (panel, forecasts, matrix, load profile) has one check path and two
parse front ends, joined by :func:`read_checked`: :func:`read_bulk` parses a
plain file in one ``np.loadtxt`` call, and :func:`walk_bulk` parses any file
row by row into the same array.  The reader's checks run once, on the arrays;
when they fail, or the file is not plain, the walk parses it and the same
checks name the first bad ``path:line``.  All are internal to the package,
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


def hour_names(n_hours: int) -> list:
    """Column names ``h1..hH``."""
    return [f"h{h}" for h in range(1, n_hours + 1)]


def _check_header(path, cells, names, hourly: bool) -> list:
    """The header ``cells``, stripped and lower-cased; see :func:`walk_bulk`."""
    header = [c.strip().lower() for c in cells]
    n_hours = len(header) - len(names) if hourly else 0
    if header != [*names, *hour_names(n_hours)] or (hourly and n_hours < 1):
        want = ",".join([*names, "h1..hH"] if hourly else names)
        raise PanelError(f"{path}:1: expected header {want!r}, got {','.join(header)!r}")
    return header


# The bytes a bulk read takes in data rows.  Of texts made of these, ``loadtxt``
# parses exactly those that ``float`` and ``int`` parse, to the same numbers, and
# splits lines and cells as the ``csv`` module does; beyond them it does not
# (it reads "1.0\x1c" as 1.0, which ``float`` rejects).
_PLAIN = b"0123456789+-.eE,\r\n"
_BULK_TYPES = {"date": "U11", "member": np.int64, "hour": np.int64, "value": np.float64,
               "weight": np.float64}
_CHUNK = 1 << 16
# the whitespace that ``float`` strips from a number: str.isspace's, less \x1c-\x1f
_SPACE = re.compile(r"^[^\S\x1c-\x1f]+|[^\S\x1c-\x1f]+\Z")


def read_bulk(path, names, hourly: bool = False):
    """Data rows of a CSV file as one structured array, or None to walk the file.

    The header is checked as :func:`walk_bulk` checks it.  One ``np.loadtxt``
    call then parses the rows into a field per name of ``names`` (``date`` as
    text, ``member`` and ``hour`` as int64, ``value`` and ``weight`` as floats)
    and, with ``hourly``, a field ``values`` of the row's H floats.  A date
    text is read as at most 11 characters, so a longer one shows as 11, which
    no ISO date has.

    None means the caller must walk the file with :func:`walk_bulk`: the
    header is bad, the file has no data row, a data row holds a byte other
    than ``0-9+-.eE``, a comma or a line end (quotes, whitespace, ``_``,
    ``nan``, non-ASCII digits), ``loadtxt`` rejects a row, or a value is not
    finite.
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
        rows = np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1, comments=None,
                          encoding="utf-8", ndmin=1)
    except ValueError:
        return None
    return rows if np.isfinite(rows["values" if hourly else names[-1]]).all() else None


def walk_bulk(path, names, hourly: bool = False):
    """``(rows, lines, fault)``: :func:`read_bulk`'s array of any CSV file, row by row.

    The header, stripped and lower-cased, must read ``names``, followed with
    ``hourly`` by ``h1..hH`` (H >= 1).  ``rows`` holds the non-blank rows
    before the first with another cell count than the header, or with a cell
    that :func:`parse_cell` refuses: ``int`` (to int64) and ``float`` parse
    them, the floats being the ``h1..hH`` cells, else the last named cell.
    ``lines`` holds the file lines they start on, and ``fault`` the
    :class:`PanelError` naming that line and cell by its column, or None.
    Dates stay text, in full.
    """
    parsed, lines, fault = [], [], None
    lead = names if hourly else names[:-1]
    what = "value" if hourly else names[-1]
    try:
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
                row = [cell if name == "date" else parse_cell(np.int64, cell, name, path, line)
                       for name, cell in zip(lead, cells)]
                texts = cells[len(lead):]
                if lead and hourly:  # a forecast member's values are refused together
                    parse_cell(lambda ts: list(map(float, ts)), texts, "values", path, line)
                values = [parse_cell(float, text, what, path, line) for text in texts]
                parsed.append((*row, values) if hourly else (*row, *values))
                lines.append(line)
    except PanelError as exc:
        fault = exc
    dtype = [(name, object if name == "date" else _BULK_TYPES[name]) for name in names]
    if hourly:
        dtype.append(("values", np.float64, (len(parsed[0][-1]) if parsed else 0,)))
    return np.array(parsed, dtype=dtype), lines, fault


def read_checked(path, names, hourly: bool, check, empty: str = "no data rows"):
    """The result of ``check`` on a numeric CSV file's rows, whichever parse read them.

    ``check(rows, complete)`` gives ``(fault, result)``, ``fault`` None or
    ``(i, text)`` for row ``i``.  :func:`read_bulk` parses the rows; when it
    gives None or a fault, :func:`walk_bulk` parses them again, and a fault
    raises a :class:`PanelError` naming ``path:line``.  When the walk stops at
    a cell that does not parse, ``check(rows, False)`` checks the rows before
    it: their fault wins, else the walk's is raised.
    """
    rows = read_bulk(path, names, hourly)
    if rows is not None:
        fault, result = check(rows, True)
        if fault is None:
            return result
    rows, lines, parse_fault = walk_bulk(path, names, hourly)
    if parse_fault is None and not len(rows):
        raise PanelError(f"{path}: {empty}")
    fault, result = check(rows, parse_fault is None)
    if fault is not None:
        raise PanelError(f"{path}:{lines[fault[0]]}: {fault[1]}")
    if parse_fault is not None:
        raise parse_fault
    return result


def first_fault(*checks):
    """``(i, describe(i))`` for the first row ``i`` any ``(flags, describe)`` flags, or None.

    Of two checks that flag one row, the earlier wins.
    """
    firsts = [(int(np.argmax(flags)), describe) for flags, describe in checks if flags.any()]
    if firsts:
        row, describe = min(firsts, key=lambda first: first[0])
        return row, describe(row)
    return None


def repeats(*keys) -> np.ndarray:
    """Flags each row whose ``keys`` all equal those of an earlier row."""
    order = np.lexsort(keys)  # stable: of equal rows the earliest comes first
    same = np.logical_and.reduce([key[order][1:] == key[order][:-1] for key in keys])
    flags = np.zeros(len(order), dtype=bool)
    flags[order[1:][same]] = True
    return flags


def bulk_days(texts):
    """``(dates, day, check)`` of the date texts of a numeric CSV's rows.

    ``dates`` lists the distinct dates ascending and ``day`` indexes each
    text's date in it; two texts of one date (``20200101``, ``2020-01-01``)
    share a day.  A text is stripped of the whitespace ``float`` strips from a
    value and read by ``date.fromisoformat``; those it refuses have ``day``
    -1, and ``check`` flags them for :func:`first_fault`.
    """
    # files hold a date's rows together: sort only the first text of each run
    starts = np.r_[0, np.flatnonzero(texts[1:] != texts[:-1]) + 1][:len(texts)]
    unique, run = np.unique(texts[starts], return_inverse=True)
    index = np.repeat(run, np.diff(np.r_[starts, len(texts)]))
    ordinals, errors = np.zeros(len(unique), dtype=int), {}
    for k, text in enumerate(unique.tolist()):
        try:
            ordinals[k] = datetime.date.fromisoformat(_SPACE.sub("", text)).toordinal()
        except ValueError as exc:  # no date has ordinal 0, so these sort first
            errors[text] = f"bad date {text!r}: {exc}"
    ordinals, day = np.unique(ordinals, return_inverse=True)
    day = day[index] - bool(errors)
    dates = [datetime.date.fromordinal(o) for o in ordinals[bool(errors):].tolist()]
    return dates, day, (day < 0, lambda i: errors[texts[i]])


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
    """``parse(text)``; a PanelError naming ``path:lineno`` if it fails or is not finite."""
    try:
        value = parse(text)
    except (ValueError, OverflowError):  # np.int64 of an int it cannot hold
        raise PanelError(f"{path}:{lineno}: bad {what} {text!r}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise PanelError(f"{path}:{lineno}: non-finite {what} {text!r}")
    return value


def read_matrix_csv(path) -> np.ndarray:
    """Float matrix of a CSV with header ``h1..hH``, one matrix row per line.

    Non-numeric and non-finite cells raise :class:`PanelError` naming ``path:line``.
    """
    return read_checked(path, (), True, lambda rows, complete: (None, rows["values"]))


def load_panel(path, role: str = "realization") -> HourlyPanel:
    """Parse a long-format CSV (``date,hour,value``) into an :class:`HourlyPanel`.

    Days are sorted ascending regardless of file order.  Days with fewer than
    24 distinct hours are dropped with a warning; duplicate cells, hours
    outside 1..24 and non-finite values raise :class:`PanelError`.
    """
    dates, day, hour, value = read_checked(path, ("date", "hour", "value"), False,
                                           _panel_cells)
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


def _panel_cells(rows, complete: bool):
    """A panel's rows as ``(dates, day, hour, value)``, checked for :func:`read_checked`."""
    dates, day, bad_date = bulk_days(rows["date"])
    hour = rows["hour"]
    # one key per cell: a row whose date or hour is bad may share one, but its own
    # fault, on its line or an earlier one, comes first
    cell = day * N_HOURS + hour
    fault = first_fault(
        bad_date, ((hour < 1) | (hour > N_HOURS), lambda i: f"hour {hour[i]} outside 1..{N_HOURS}"),
        (repeats(cell), lambda i: f"duplicate cell ({dates[day[i]]}, hour {hour[i]})"))
    return fault, (dates, day, hour, rows["value"])


def save_panel(panel: HourlyPanel, path) -> None:
    """Serialize a panel to the long CSV format accepted by :func:`load_panel`."""
    write_number_rows(path, ["date", "hour", "value"],
                      ((date, enumerate(day, start=1))
                       for date, day in zip(panel.dates, panel.values.tolist())))


def compute_errors(real: HourlyPanel, fc: HourlyPanel) -> HourlyPanel:
    """Cell-wise forecast errors, realization minus forecast."""
    if real.dates != fc.dates:
        only = [", ".join(map(str, sorted(set(a.dates) - set(b.dates))[:3])) or "none"
                for a, b in ((real, fc), (fc, real))]
        raise PanelError(f"realization and forecast panels have different dates: first only "
                         f"in the realization {only[0]}; first only in the forecast {only[1]}")
    return HourlyPanel(real.dates, real.values - fc.values)
