"""Multivariate probabilistic day-ahead price forecasts from point forecasts.

Univariate point-forecast histories are turned into calibrated 24-hour joint
ensemble forecasts by learning the error distribution per hour (optionally
filtered through a time series model) and the cross-hour dependence through
an empirical or Gaussian copula, then reordering quantile ensembles by rank
matrix (the Schaake shuffle).  A rolling backtest driver and a proper-scoring
evaluation suite round out the package.
"""

from .backtest import (
    BacktestConfig,
    BacktestResult,
    run_backtest,
    run_toy_example,
)
from .copula import (
    empirical_rank_matrix,
    fit_gaussian_copula,
    sample_gaussian_rank_matrix,
)
from .filters import FilterSpec, FitError, fit_filter
from .forecast import (
    EnsembleForecast,
    independence_forecast,
    make_univariate_ensemble,
    shuffle,
)
from .loadprofile import LoadProfile, daily_price, scenario_daily_prices
from .margins import MarginModel, pit, quantile
from .panel import HourlyPanel, PanelError, compute_errors, load_panel, save_panel
from .scoring import (
    ScorePanel,
    average_rank,
    crps_ensemble,
    dm_test,
    energy_score,
    interval_coverage,
    rank_histogram,
    score_forecasts,
    verification_rank,
)

__all__ = [
    "BacktestConfig",
    "BacktestResult",
    "EnsembleForecast",
    "FilterSpec",
    "FitError",
    "HourlyPanel",
    "LoadProfile",
    "MarginModel",
    "PanelError",
    "ScorePanel",
    "average_rank",
    "compute_errors",
    "crps_ensemble",
    "daily_price",
    "dm_test",
    "empirical_rank_matrix",
    "energy_score",
    "fit_filter",
    "fit_gaussian_copula",
    "independence_forecast",
    "interval_coverage",
    "load_panel",
    "make_univariate_ensemble",
    "pit",
    "quantile",
    "rank_histogram",
    "run_backtest",
    "run_toy_example",
    "sample_gaussian_rank_matrix",
    "save_panel",
    "scenario_daily_prices",
    "score_forecasts",
    "shuffle",
    "verification_rank",
]

__version__ = "0.1.0"
