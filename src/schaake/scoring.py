"""Proper scores and calibration diagnostics for ensemble forecasts.

Implements the ensemble CRPS and Energy Score, the Diebold-Mariano test on
daily score series, verification and average rank histograms with a
chi-square uniformity check, and central prediction-interval coverage.
A day's scores take (m, H) members, one hour per column, and its (H,)
outcome; a one-hour caller passes (m, 1) members.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist
from scipy.special import ndtr
from scipy.stats import chi2

from .panel import PanelError

AVG_RANK_BINS = 10


class DegenerateScoreDifference(ValueError):
    """Score differences have zero variance or are fewer than two; the DM test is undefined."""


@dataclass(frozen=True)
class ScorePanel:
    """Per-day Energy Scores, per-day-per-hour CRPS values and verification ranks."""

    dates: tuple
    es: np.ndarray        # (T,)
    crps: np.ndarray      # (T, 24)
    ranks: np.ndarray     # (T, 24) int

    def __post_init__(self):
        es = np.asarray(self.es, dtype=float)
        crps = np.asarray(self.crps, dtype=float)
        ranks = np.asarray(self.ranks, dtype=int)
        if es.shape != (len(self.dates),) or crps.shape[0] != len(self.dates):
            raise ValueError("score arrays must have one row per date")
        if ranks.shape != crps.shape:
            raise ValueError(f"ranks of shape {ranks.shape} do not match the CRPS's {crps.shape}")
        if np.any(es < 0) or np.any(crps < 0):
            raise ValueError("scores must be nonnegative")
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "es", es)
        object.__setattr__(self, "crps", crps)
        object.__setattr__(self, "ranks", ranks)

    @property
    def mean_es(self) -> float:
        return float(np.mean(self.es))

    @property
    def mean_crps(self) -> float:
        return float(np.mean(self.crps))

    @property
    def daily_crps(self) -> np.ndarray:
        """Per-day mean CRPS across hours (the series fed to DM tests)."""
        return self.crps.mean(axis=1)


def crps_ensemble(members, y):
    """Per-hour CRPS, (H,), of (m, H) members against the (H,) outcome.

    Computes (1/m) sum|x_k - y| - (1/(2 m^2)) sum sum|x_l - x_k| along axis 0
    using the sorted-sample identity for the pairwise term, so the value
    depends only on each column's member multiset, not on the row order.
    The two terms can cancel to about -1e-15 where the true CRPS is 0 (every
    member equal to the outcome), so the result is clamped at 0.
    """
    members = np.asarray(members, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_members(members, y.shape)
    m = members.shape[0]
    x = np.sort(members, axis=0)
    dist = np.mean(np.abs(x - y), axis=0)
    # sum_{l,k} |x_l - x_k| = 2 * sum_k (2k - 1 - m) x_(k)
    spread = 2.0 * ((2.0 * np.arange(1, m + 1) - 1.0 - m) @ x)
    return np.maximum(dist - spread / (2.0 * m * m), 0.0)


def _check_members(members: np.ndarray, outcome: tuple) -> None:
    """ValueError unless ``members`` is a non-empty (m, H) array and ``outcome`` is (H,)."""
    if members.ndim != 2 or members.shape[0] < 1:
        raise ValueError(f"ensemble must be a non-empty (m, H) array, got shape "
                         f"{members.shape}; pass one hour as (m, 1)")
    if outcome != members.shape[1:]:
        raise ValueError(f"outcome shape {outcome} does not match {members.shape[1:]}")


def energy_score(members, y) -> float:
    """Energy Score of (m, H) members against the (H,) outcome, clamped at 0 as the CRPS."""
    members = np.asarray(members, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_members(members, y.shape)
    m = members.shape[0]
    dist = float(np.mean(np.linalg.norm(members - y, axis=1)))
    # pdist lists each unordered pair once: half the full double sum
    return max(dist - float(pdist(members).sum()) / (m * m), 0.0)


def dm_test(s1, s2):
    """Diebold-Mariano test for equal mean score.

    Returns (statistic, two-sided p-value) with the statistic
    mean(d) / (sd(d)/sqrt(T)), sd the sample standard deviation, and the
    normal null distribution.
    """
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    if s1.shape != s2.shape or s1.ndim != 1:
        raise ValueError("score series must be equal-length vectors")
    if s1.size < 2:
        raise DegenerateScoreDifference("a DM test needs T >= 2 score differences")
    delta = s1 - s2
    sd = float(np.std(delta, ddof=1))
    if sd == 0.0:
        raise DegenerateScoreDifference("score differences have zero variance")
    stat = float(np.mean(delta)) / (sd / math.sqrt(delta.size))
    return stat, float(2.0 * ndtr(-abs(stat)))


def verification_rank(members, y):
    """Per-hour rank, (H,), of the (H,) realization among (m, H) members: 1 + #{members < y}."""
    members = np.asarray(members, dtype=float)
    _check_members(members, np.shape(y))
    return 1 + np.count_nonzero(members < y, axis=0)


def score_forecasts(forecasts, real) -> ScorePanel:
    """The :class:`ScorePanel` of forecasts against ``real``.

    The backtest and ``schaake evaluate`` both score through this function.
    """
    row = {d: i for i, d in enumerate(real.dates)}
    es, crps, ranks = [], [], []
    for fc in forecasts:
        if fc.date not in row:
            raise PanelError(f"no realization for forecast date {fc.date}")
        y = real.values[row[fc.date]]
        es.append(energy_score(fc.members, y))
        crps.append(crps_ensemble(fc.members, y))
        ranks.append(verification_rank(fc.members, y))
    return ScorePanel(tuple(fc.date for fc in forecasts), es, crps, ranks)


def rank_histogram(ranks, m: int) -> np.ndarray:
    """(H, m+1) counts of (T, H) verification ranks over the m+1 positions, in one bincount."""
    ranks = np.asarray(ranks)
    if ranks.ndim != 2 or np.any((ranks < 1) | (ranks > m + 1)):
        raise ValueError(f"ranks must be (T, H) in 1..m+1, got {ranks.shape}; one hour is (T, 1)")
    return np.bincount((ranks + np.arange(ranks.shape[1]) * (m + 1) - 1).ravel(),
                       minlength=ranks.shape[1] * (m + 1)).reshape(-1, m + 1)


def average_rank_histogram(avg_ranks, m: int) -> np.ndarray:
    """Counts of daily average ranks over ``AVG_RANK_BINS`` equal-width bins on [1, m+1]."""
    return np.histogram(avg_ranks, bins=AVG_RANK_BINS, range=(1.0, m + 1.0))[0]


def uniformity_check(counts) -> bool:
    """Chi-square consistency of histogram ``counts`` with uniform bin occupancy.

    Passes when the statistic stays below the 0.99 quantile (alpha = 0.01) of
    the chi-square distribution with k-1 degrees of freedom.
    """
    counts = np.asarray(counts)
    expected = counts.sum() / counts.size
    if expected <= 0:
        raise ValueError("empty histogram")
    stat = float(np.sum((counts - expected) ** 2 / expected))
    return stat < chi2.ppf(0.99, counts.size - 1)


def interval_coverage(daily_samples, realized, nominal: float) -> float:
    """Fraction of days whose realization falls in the central interval.

    The interval for a day is [k-th, (m+1-k)-th order statistic] of its m
    samples (inclusive) with k = round(m*(1-nominal)/2), floored at 1.
    """
    if not 0.0 < nominal < 1.0:
        raise ValueError("nominal level must lie in (0, 1)")
    samples = np.asarray(daily_samples, dtype=float)
    realized = np.asarray(realized, dtype=float)
    if samples.ndim != 2 or realized.shape != (samples.shape[0],):
        raise ValueError("need (T, m) samples and (T,) realizations")
    m = samples.shape[1]
    k = max(1, round(m * (1.0 - nominal) / 2.0))
    srt = np.sort(samples, axis=1)
    lo = srt[:, k - 1]
    hi = srt[:, m - k]
    return float(np.mean((realized >= lo) & (realized <= hi)))
