"""Multivariate probabilistic day-ahead price forecasts from point forecasts.

Univariate point-forecast histories are turned into calibrated 24-hour joint
ensemble forecasts by learning the error distribution per hour (optionally
filtered through a time series model) and the cross-hour dependence through
an empirical or Gaussian copula, then reordering quantile ensembles by rank
matrix (the Schaake shuffle).  A rolling backtest driver and a proper-scoring
evaluation suite round out the package.
"""

from .backtest import BacktestConfig, BacktestResult, run_backtest
from .copula import empirical_rank_matrix
from .filters import FitError, fit_filter
from .forecast import independence_forecast, make_univariate_ensemble, shuffle
from .margins import MarginModel, pit
from .panel import HourlyPanel, PanelError, load_panel, save_panel
from .scoring import crps_ensemble, dm_test, energy_score, score_forecasts, verification_rank

# the names the README's Library section documents (tests/test_package.py)
__all__ = [
    "BacktestConfig",
    "BacktestResult",
    "FitError",
    "HourlyPanel",
    "MarginModel",
    "PanelError",
    "crps_ensemble",
    "dm_test",
    "empirical_rank_matrix",
    "energy_score",
    "fit_filter",
    "independence_forecast",
    "load_panel",
    "make_univariate_ensemble",
    "pit",
    "run_backtest",
    "save_panel",
    "score_forecasts",
    "shuffle",
    "verification_rank",
]

__version__ = "0.1.0"
