"""Forecasting phase: univariate quantile ensembles and their reordering.

Each hour's ensemble holds the m equally spaced quantiles of the predicted
error distribution around the bias-corrected point forecast.  The (m, H)
member matrix holds one hour per column; a one-hour caller passes (1,)
inputs and an (n, 1) margin.  Pairing the 24 hourly ensembles row-wise
through a rank matrix (:func:`shuffle`) transfers the learned dependence
onto the forecast (the Schaake shuffle); the independence variant shuffles
them by a random rank matrix instead.

Forecast files are written by :func:`write_forecast_files`.  A Schaake setting
and its independence counterpart hold the same numbers per day in another
row order, so the files of such a pair are written together and each day's
members are formatted once for both.  The CSV dialect is :mod:`.panel`'s.
"""
from __future__ import annotations

import collections
import contextlib
import datetime
from dataclasses import dataclass

import numpy as np

from .copula import CopulaError, is_rank_matrix, random_rank_matrix
from .margins import MarginModel, quantile
from .panel import (bulk_days, first_fault, hour_names, open_csv, read_checked, repeats,
                    write_text_rows)


@dataclass(frozen=True)
class EnsembleForecast:
    """m x H matrix of simulated prices for one target day (row = scenario).

    The members are stored in C order, so a score of them does not depend on
    the memory layout the caller passed.
    """

    date: datetime.date
    members: np.ndarray

    def __post_init__(self):
        members = np.array(self.members, dtype=float, order="C")
        if members.ndim != 2:
            raise ValueError("members must be an m x H matrix")
        if not np.all(np.isfinite(members)):
            raise ValueError("members must be finite")
        members.setflags(write=False)
        object.__setattr__(self, "members", members)

    @property
    def m(self) -> int:
        return self.members.shape[0]


def make_univariate_ensemble(point_fc, one_step, margin: MarginModel,
                             m: int) -> np.ndarray:
    """The (m, H) member matrix of m-member quantile ensembles, sorted along axis 0.

    Member i of hour h is (point_fc[h] + mu[h]) + F_h^{-1}(i/(m+1)) * sigma[h],
    with (H,) point forecasts, the filter's (H,) one-step forecast (mu, sigma)
    and F_h hour h's margin.  The raw variant has (mu, sigma) = (0, 1).
    """
    point_fc = np.asarray(point_fc, dtype=float)
    mu, sigma = (np.asarray(v, dtype=float) for v in one_step)
    if point_fc.ndim != 1 or not point_fc.shape == mu.shape == sigma.shape:
        raise ValueError(f"point forecast and (mu, sigma) must be (H,) vectors, got "
                         f"{point_fc.shape}, {mu.shape}, {sigma.shape}; pass one hour as (1,)")
    if not np.all(sigma > 0):
        raise ValueError(f"one-step sigma must be positive, got {sigma}")
    if m < 1:
        raise ValueError("ensemble size must be >= 1")
    if not np.all(np.isfinite(point_fc)):
        raise ValueError("point forecast must be finite")
    # levels run down axis 0 only, never along the hour axis, even when m == H
    levels = (np.arange(1, m + 1) / (m + 1))[:, None]
    return (point_fc + mu) + quantile(margin, levels) * sigma


def _check_sorted(members) -> np.ndarray:
    members = np.asarray(members, dtype=float)
    if members.ndim != 2:
        raise ValueError("ensembles must be an m x H matrix, one column per hour")
    if np.any(np.diff(members, axis=0) < 0):
        raise ValueError("univariate ensembles must be sorted ascending")
    return members


def shuffle(members, rank_matrix: np.ndarray, date=None) -> EnsembleForecast:
    """Reorder an m x H matrix of sorted hourly ensembles by a rank matrix.

    Column h of ``members`` is hour h's ensemble, ascending.  Scenario row t,
    hour h is the rank_matrix[t, h]-th smallest member of hour h, so every
    column keeps its marginal member multiset.
    """
    members = _check_sorted(members)
    rank_matrix = np.asarray(rank_matrix)
    if rank_matrix.shape != members.shape:
        raise CopulaError(
            f"rank matrix shape {rank_matrix.shape} does not match "
            f"ensemble shape {members.shape}")
    if not is_rank_matrix(rank_matrix):
        raise CopulaError("rank matrix columns must be permutations of 1..m")
    paired = np.take_along_axis(members, rank_matrix - 1, axis=0)
    return EnsembleForecast(date, paired)


def independence_forecast(members, seed: int, date=None) -> EnsembleForecast:
    """Shuffle a sorted m x H ensemble by the seeded :func:`copula.random_rank_matrix`."""
    members = _check_sorted(members)
    return shuffle(members, random_rank_matrix(*members.shape, seed), date=date)


def write_forecasts_csv(forecasts, path) -> None:
    """Serialize forecasts to CSV with columns ``date,member,h1..hH``."""
    write_forecast_files([(forecasts, path)])


def write_forecast_files(files) -> None:
    """Write forecast files, each ``(forecasts, path)``, as :func:`write_forecasts_csv` does.

    Every file holds the bytes it holds when written alone.  The files are
    walked together by date: each step writes the next forecast of every file
    whose next forecast has the earliest date among them.  Forecasts of one
    step whose sorted columns are bitwise equal (a Schaake setting and its
    independence counterpart reorder the same sorted ensemble) share the
    ``repr`` texts of their members, formatted once.  Only one step's texts
    are held at a time.  A file that :func:`read_forecasts_csv` would refuse,
    one with no forecast, a forecast whose date is not a ``datetime.date``,
    two forecasts of one date or two member shapes, raises ``ValueError``
    before any file is opened.
    """
    queues = [list(forecasts) for forecasts, _ in files]
    for queue, (_, path) in zip(queues, files):
        if not queue:
            raise ValueError(f"{path}: no forecasts")
        dates = [fc.date for fc in queue]
        undated = [date for date in dates if type(date) is not datetime.date]
        repeated = [date for date, count in collections.Counter(dates).items() if count > 1]
        shapes = sorted({fc.members.shape for fc in queue})
        if undated:
            raise ValueError(f"{path}: every forecast needs a datetime.date, got {undated[0]!r}")
        if repeated:
            raise ValueError(f"{path}: more than one forecast for {repeated[0]}")
        if len(shapes) > 1:
            raise ValueError(f"{path}: forecasts of one file must share one (m, H) member "
                             f"shape, got {shapes}")
    with contextlib.ExitStack() as stack:
        outs = [stack.enter_context(open_csv(path)) for _, path in files]
        for fh, queue in zip(outs, queues):
            write_text_rows(fh, [["date", "member", *hour_names(queue[0].members.shape[1])]])
        heads = [0] * len(queues)
        while True:
            step = [(k, queue[heads[k]]) for k, queue in enumerate(queues)
                    if heads[k] < len(queue)]
            if not step:
                break
            date = min(fc.date for _, fc in step)
            texts: dict = {}  # (shape, bytes) of sorted members -> their repr texts
            for k, fc in step:
                if fc.date == date:
                    heads[k] += 1
                    write_text_rows(outs[k], _text_rows(fc, texts))


def _text_rows(fc: EnsembleForecast, texts: dict) -> list:
    """The rows of text cells of one forecast, its member texts taken from ``texts``."""
    order = np.argsort(fc.members, axis=0)
    ranked = np.take_along_axis(fc.members, order, axis=0)
    key = ranked.shape, ranked.tobytes()  # bytes, so -0.0 and 0.0 never share a text
    cells = texts.get(key)
    if cells is None:
        cells = texts[key] = np.array(list(map(repr, ranked.ravel().tolist())),
                                      dtype=object).reshape(ranked.shape)
    m, n_hours = fc.members.shape
    rows = np.empty((m, n_hours + 2), dtype=object)
    rows[:, 0] = fc.date.isoformat()
    rows[:, 1] = [str(i) for i in range(1, m + 1)]
    np.put_along_axis(rows[:, 2:], order, cells, axis=0)
    return rows.tolist()


def read_forecasts_csv(path) -> list:
    """Parse a forecasts CSV written by :func:`write_forecasts_csv`.

    Every day must hold members 1..m with one m for all days; malformed rows
    and days raise :class:`PanelError` naming ``path:line`` (of a day's first row),
    and a file without rows names ``path``.
    """
    return read_checked(path, ("date", "member"), True, _forecasts, empty="no forecasts")


def _forecasts(rows, complete: bool):
    """A forecast file's rows as forecasts, checked for :func:`read_checked`."""
    dates, day, bad_date = bulk_days(rows["date"])
    member = rows["member"]
    fault = first_fault(bad_date, (repeats(day, member),
                                   lambda i: f"duplicate member {member[i]} on {dates[day[i]]}"))
    if fault or not complete:  # a day is checked only once all its rows are read
        return fault, None
    order = np.lexsort((member, day))  # day by day, members ascending
    counts = np.bincount(day)
    m, ends = counts[0], np.cumsum(counts)
    low, high = member[order][ends - counts], member[order][ends - 1]
    for d in np.flatnonzero((counts != m) | (low != 1) | (high != m))[:1]:  # in date order
        return (int(np.argmax(day == d)),
                f"{dates[d]} holds {counts[d]} members numbered {low[d]}..{high[d]}, "
                f"expected 1..{m}"), None
    return None, [EnsembleForecast(date, rows["values"][rows_of_day])
                  for date, rows_of_day in zip(dates, order.reshape(len(dates), m))]
