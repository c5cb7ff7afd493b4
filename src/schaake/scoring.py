"""Proper scores and calibration diagnostics for ensemble forecasts.

Implements the ensemble CRPS and Energy Score, the Diebold-Mariano test on
daily score series, verification and average rank histograms with a
chi-square uniformity check, and central prediction-interval coverage.
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
    """Score differences have zero variance; the DM test is undefined."""


@dataclass(frozen=True)
class ScorePanel:
    """Per-day Energy Scores and per-day-per-hour CRPS values."""

    dates: tuple
    es: np.ndarray        # (T,)
    crps: np.ndarray      # (T, 24)

    def __post_init__(self):
        es = np.asarray(self.es, dtype=float)
        crps = np.asarray(self.crps, dtype=float)
        if es.shape != (len(self.dates),) or crps.shape[0] != len(self.dates):
            raise ValueError("score arrays must have one row per date")
        if np.any(es < 0) or np.any(crps < 0):
            raise ValueError("scores must be nonnegative")
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "es", es)
        object.__setattr__(self, "crps", crps)

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
    """CRPS of (m,) members against a scalar, or per column of (m, H) against (H,).

    Computes (1/m) sum|x_k - y| - (1/(2 m^2)) sum sum|x_l - x_k| along axis 0
    using the sorted-sample identity for the pairwise term, so the value
    depends only on each column's member multiset, not on the row order.
    The two terms can cancel to about -1e-15 where the true CRPS is 0 (every
    member equal to the outcome), so the result is clamped at 0.
    """
    members = np.asarray(members, dtype=float)
    y = np.asarray(y, dtype=float)
    if members.ndim not in (1, 2) or members.shape[0] < 1:
        raise ValueError("ensemble must be a non-empty (m,) or (m, H) array")
    if y.shape != members.shape[1:]:
        raise ValueError(f"outcome shape {y.shape} does not match {members.shape[1:]}")
    m = members.shape[0]
    x = np.sort(members, axis=0)
    dist = np.mean(np.abs(x - y), axis=0)
    # sum_{l,k} |x_l - x_k| = 2 * sum_k (2k - 1 - m) x_(k)
    spread = 2.0 * ((2.0 * np.arange(1, m + 1) - 1.0 - m) @ x)
    crps = np.maximum(dist - spread / (2.0 * m * m), 0.0)
    return crps if crps.ndim else float(crps)


def energy_score(members, y) -> float:
    """Energy Score of an m x d ensemble against a d-vector outcome, clamped at 0 as the CRPS."""
    members = np.asarray(members, dtype=float)
    y = np.asarray(y, dtype=float)
    if members.ndim != 2 or members.shape[0] < 1:
        raise ValueError("ensemble must be a non-empty m x d matrix")
    if y.shape != (members.shape[1],):
        raise ValueError(f"outcome shape {y.shape} does not match d={members.shape[1]}")
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
    if s1.shape != s2.shape or s1.ndim != 1 or s1.size < 2:
        raise ValueError("score series must be equal-length vectors with T >= 2")
    delta = s1 - s2
    sd = float(np.std(delta, ddof=1))
    if sd == 0.0:
        raise DegenerateScoreDifference("score differences have zero variance")
    stat = float(np.mean(delta)) / (sd / math.sqrt(delta.size))
    return stat, float(2.0 * ndtr(-abs(stat)))


def verification_rank(members, y):
    """Rank of the realization in the merged sample, 1 + #{members < y}.

    Counts along axis 0, so (m, H) members and (H,) outcomes give (H,) ranks.
    """
    members = np.asarray(members, dtype=float)
    if members.ndim not in (1, 2) or members.shape[0] < 1:
        raise ValueError("ensemble must be a non-empty (m,) or (m, H) array")
    if np.shape(y) != members.shape[1:]:
        raise ValueError(f"outcome shape {np.shape(y)} does not match {members.shape[1:]}")
    rank = 1 + np.count_nonzero(members < y, axis=0)
    return rank if np.ndim(rank) else int(rank)


def score_forecasts(forecasts, real):
    """ScorePanel and (T, H) verification ranks of forecasts against ``real``.

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
    panel = ScorePanel(tuple(fc.date for fc in forecasts), np.array(es), np.array(crps))
    return panel, np.array(ranks, dtype=int)


def average_rank(ranks) -> float:
    """Mean of the 24 hourly verification ranks for one day."""
    return float(np.mean(np.asarray(ranks, dtype=float)))


@dataclass(frozen=True)
class RankHistogram:
    """Bin counts of observed ranks; sums to the number of scored days."""

    counts: np.ndarray
    edges: np.ndarray  # bin edges, length len(counts) + 1

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def rank_histogram(ranks, m: int) -> RankHistogram:
    """Histogram of verification ranks over the m+1 possible positions."""
    ranks = np.asarray(ranks)
    if np.any((ranks < 1) | (ranks > m + 1)):
        raise ValueError("ranks must lie in 1..m+1")
    counts = np.bincount(ranks - 1, minlength=m + 1)
    return RankHistogram(counts, np.arange(0.5, m + 2.0))


def average_rank_histogram(avg_ranks, m: int, bins: int = AVG_RANK_BINS) -> RankHistogram:
    """Histogram of daily average ranks over equal-width bins on [1, m+1]."""
    counts, edges = np.histogram(np.asarray(avg_ranks, dtype=float),
                                 bins=bins, range=(1.0, m + 1.0))
    return RankHistogram(counts, edges)


def uniformity_check(hist: RankHistogram, alpha: float = 0.01) -> bool:
    """Chi-square consistency with uniform bin occupancy.

    Passes when the statistic stays below the (1 - alpha) quantile of the
    chi-square distribution with k-1 degrees of freedom.
    """
    counts = hist.counts
    expected = counts.sum() / counts.size
    if expected <= 0:
        raise ValueError("empty histogram")
    stat = float(np.sum((counts - expected) ** 2 / expected))
    return stat < chi2.ppf(1.0 - alpha, counts.size - 1)


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
