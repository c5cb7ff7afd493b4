"""Forecasting phase: univariate quantile ensembles and their reordering.

Each hour's ensemble holds the m equally spaced quantiles of the predicted
error distribution around the bias-corrected point forecast.  Pairing the 24
hourly ensembles row-wise through a rank matrix transfers the learned
dependence onto the forecast (the Schaake shuffle); the independence variant
pairs them through random permutations instead.
"""
from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

from .copula import CopulaError, is_rank_matrix
from .margins import MarginModel, quantile
from .panel import (N_HOURS, FloatCells, PanelError, hour_names, parse_cell, read_rows,
                    write_number_rows)


@dataclass(frozen=True)
class EnsembleForecast:
    """m x H matrix of simulated prices for one target day (row = scenario)."""

    date: datetime.date
    members: np.ndarray

    def __post_init__(self):
        members = np.array(self.members, dtype=float)
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
    """m-member quantile ensembles, sorted ascending along axis 0.

    Member i of hour h is (point_fc[h] + mu[h]) + F_h^{-1}(i/(m+1)) * sigma[h],
    with (mu, sigma) the filter's one-step forecast and F_h hour h's margin.
    Scalars and an (n,) margin give an (m,) ensemble; (H,) inputs give the
    (m, H) member matrix.  The raw variant has (mu, sigma) = (0, 1).
    """
    point_fc = np.asarray(point_fc, dtype=float)
    mu, sigma = (np.asarray(v, dtype=float) for v in one_step)
    if not np.all(sigma > 0):
        raise ValueError(f"one-step sigma must be positive, got {sigma}")
    if m < 1:
        raise ValueError("ensemble size must be >= 1")
    if not np.all(np.isfinite(point_fc)):
        raise ValueError("point forecast must be finite")
    hours = np.broadcast_shapes(point_fc.shape, mu.shape, sigma.shape, margin.hours)
    # levels run down axis 0 only, never along the hour axis, even when m == H
    levels = (np.arange(1, m + 1) / (m + 1)).reshape((m,) + (1,) * len(hours))
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
    """Pair the columns of a sorted m x H ensemble by seeded random permutations."""
    members = _check_sorted(members)
    m, n_hours = members.shape
    rng = np.random.Generator(np.random.Philox(seed))
    ranks = np.column_stack([rng.permutation(m) + 1 for _ in range(n_hours)])
    paired = np.take_along_axis(members, ranks - 1, axis=0)
    return EnsembleForecast(date, paired)


def write_forecasts_csv(forecasts, path) -> None:
    """Serialize forecasts to CSV with columns ``date,member,h1..hH`` (H = 24 if none)."""
    forecasts = list(forecasts)
    n_hours = forecasts[0].members.shape[1] if forecasts else N_HOURS
    write_number_rows(path, ["date", "member"] + hour_names(n_hours),
                      ((fc.date, ([i, *row] for i, row in enumerate(fc.members.tolist(), start=1)))
                       for fc in forecasts))


def read_forecasts_csv(path) -> list:
    """Parse a forecasts CSV written by :func:`write_forecasts_csv`.

    Every day must hold members 1..m with one m for all days; malformed rows
    and days raise :class:`PanelError` naming ``path:line`` (of a day's first row).
    The values of each run of rows with one date are cast to floats in one call.
    """
    dates: dict = {}    # date text -> date
    lines: dict = {}    # date -> {member: line}, in file order
    parts: dict = {}    # date -> the value arrays of its runs of rows, in file order
    values = FloatCells(path, "values")
    run_date = None
    try:
        for lineno, row in read_rows(path, ("date", "member"), hourly=True):
            date = dates.get(row[0])
            if date is None:
                date = dates[row[0]] = parse_cell(datetime.date.fromisoformat, row[0],
                                                  "date", path, lineno)
            member = parse_cell(int, row[1], "member", path, lineno)
            if date != run_date and len(values):
                parts.setdefault(run_date, []).append(values.take())
            run_date = date
            values.add(lineno, row[2:])
            day = lines.setdefault(date, {})
            if member in day:
                raise PanelError(f"{path}:{lineno}: duplicate member {member} on {date}")
            day[member] = lineno
    except PanelError:
        values.take()
        raise
    if len(values):
        parts.setdefault(run_date, []).append(values.take())
    out, m = [], None
    for date in sorted(lines):
        day = lines[date]
        m = m or len(day)
        if len(day) != m or min(day) != 1 or max(day) != m:
            raise PanelError(f"{path}:{min(day.values())}: {date} holds {len(day)} members "
                             f"numbered {min(day)}..{max(day)}, expected 1..{m}")
        members = np.concatenate(parts[date])[np.argsort(list(day))]
        finite = np.isfinite(members).all(axis=1)
        if not finite.all():
            raise PanelError(f"{path}:{day[int(np.argmin(finite)) + 1]}: non-finite value")
        out.append(EnsembleForecast(date, members))
    return out
