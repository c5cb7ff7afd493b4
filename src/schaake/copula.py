"""Dependence learning: the rank matrices that pair the hourly ensembles.

A rank matrix is an m x H integer matrix whose columns are permutations of
1..m; it is the discrete copula representation that drives the reordering of
univariate ensembles.  Each setting draws one per day: the nonparametric
route ranks the PIT history directly (the Schaake shuffle); the parametric
route fits a Gaussian copula by rank correlation and ranks a fresh sample
from it; the independence benchmark draws one uniform permutation per hour.
"""
from __future__ import annotations

import numpy as np
from scipy import stats
from scipy.special import ndtri

from .panel import read_matrix_csv

_EIG_FLOOR = 1e-8


class CopulaError(ValueError):
    """Invalid PIT history, correlation matrix or rank matrix."""


def check_pit_history(pits: np.ndarray) -> np.ndarray:
    pits = np.asarray(pits, dtype=float)
    if pits.ndim != 2 or pits.shape[0] < 2:
        raise CopulaError("PIT history must be an m x H matrix with m >= 2")
    if not np.all((pits > 0.0) & (pits < 1.0)):
        raise CopulaError("PIT levels must lie strictly in (0, 1)")
    return pits


def is_rank_matrix(ranks: np.ndarray) -> bool:
    """True when every column is a permutation of 1..m."""
    ranks = np.asarray(ranks)
    if ranks.ndim != 2:
        return False
    expected = np.arange(1, ranks.shape[0] + 1)[:, None]
    return bool(np.all(np.sort(ranks, axis=0) == expected))


def _ordinal_ranks(x: np.ndarray) -> np.ndarray:
    # stable ordinal ranks down each column: ties go to the earlier day; the
    # second argsort inverts the sorting permutation
    return np.argsort(np.argsort(x, axis=0, kind="stable"), axis=0) + 1


def empirical_rank_matrix(pits: np.ndarray) -> np.ndarray:
    """Column-wise ranks of the PIT history (1 = smallest, stable ties)."""
    return _ordinal_ranks(check_pit_history(pits))


def fit_gaussian_copula(pits: np.ndarray) -> np.ndarray:
    """Correlation matrix of a Gaussian copula fitted by rank correlation.

    Pairwise Spearman correlations are mapped to Pearson via
    2*sin(pi*rho/6) and the result is repaired to a positive semi-definite
    correlation matrix by eigenvalue flooring.
    """
    pits = check_pit_history(pits)
    if np.any(np.ptp(pits, axis=0) == 0.0):
        raise CopulaError("degenerate PIT column (all values equal)")
    rho = np.corrcoef(stats.rankdata(pits, axis=0), rowvar=False)
    sigma = 2.0 * np.sin(np.pi * rho / 6.0)
    np.fill_diagonal(sigma, 1.0)
    return _nearest_correlation(sigma)


def _nearest_correlation(sigma: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((sigma + sigma.T) / 2.0)
    if w.min() < _EIG_FLOOR:
        sigma = (v * np.maximum(w, _EIG_FLOOR)) @ v.T
        d = np.sqrt(np.diag(sigma))
        sigma = sigma / np.outer(d, d)
        sigma = (sigma + sigma.T) / 2.0
        np.fill_diagonal(sigma, 1.0)
    return sigma


def check_correlation_matrix(sigma: np.ndarray) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise CopulaError("correlation matrix must be square")
    if not np.allclose(sigma, sigma.T, atol=1e-10):
        raise CopulaError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(sigma), 1.0, atol=1e-10):
        raise CopulaError("correlation matrix must have unit diagonal")
    if np.any(np.abs(sigma) > 1.0 + 1e-10):
        raise CopulaError("correlations must lie in [-1, 1]")
    return sigma


def sample_gaussian_rank_matrix(sigma: np.ndarray, m: int, seed: int) -> np.ndarray:
    """Rank matrix from m Gaussian-copula draws; deterministic given seed.

    Draws use a counter-based Philox generator and the inverse normal CDF so
    results are reproducible across platforms.  Cholesky factorization is
    attempted first, falling back to an eigendecomposition square root.
    """
    sigma = check_correlation_matrix(sigma)
    if m < 2:
        raise CopulaError("need m >= 2 samples")
    try:
        root = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(sigma)
        if w.min() < -1e-8:
            raise CopulaError("correlation matrix is not positive semi-definite")
        root = v * np.sqrt(np.maximum(w, 0.0))
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.random((m, sigma.shape[0]))
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    draws = ndtri(u) @ root.T
    return _ordinal_ranks(draws)


def random_rank_matrix(m: int, n_hours: int, seed: int) -> np.ndarray:
    """m x n_hours rank matrix of independent permutations drawn from ``Philox(seed)``."""
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.permuted(np.tile(np.arange(1, m + 1)[:, None], (1, n_hours)), axis=0)


def read_rank_matrix_csv(path) -> np.ndarray:
    """Rank matrix of a CSV with header ``h1..hH``, read by :func:`panel.read_matrix_csv`."""
    ranks = read_matrix_csv(path)
    if not is_rank_matrix(ranks):
        raise CopulaError(f"{path}: columns are not permutations of 1..m")
    return ranks.astype(np.int64)
