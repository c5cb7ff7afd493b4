"""Rolling-window backtest driver.

For every evaluation day and setting the driver (1) fits the setting's error
filter on the trailing error window, (2) builds the margins of all 24 hours
from the most recent standardized residuals and PITs the dependence window
through them, and (3) constructs the (m, 24) quantile ensemble matrix and
pairs its rows by rank matrix or independent permutation.  Windows roll
forward one day at a time.  The collected forecasts are then (4) scored
against realizations by :func:`scoring.score_forecasts`, the same function
``schaake evaluate`` uses.

A Schaake setting and its independence counterpart reorder the same sorted
ensembles, and the CRPS sorts each hour's members before scoring them, so
their per-hour CRPS panels agree bitwise.
"""
from __future__ import annotations

import concurrent.futures
import datetime
import hashlib
import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import copula, filters, forecast, scoring
from .margins import MarginModel, pit
from .panel import N_HOURS, HourlyPanel, PanelError, compute_errors, write_rows

SHUFFLE = "shuffle"
GAUSSIAN_COPULA = "gaussian"
INDEPENDENCE = "independence"

# name -> (default filter kind, margin kind, dependence kind)
SETTING_TABLE = {
    "Schaake-NP": (filters.AR_GARCH, "empirical", SHUFFLE),
    "Schaake-P": (filters.AR_GARCH, "gaussian", GAUSSIAN_COPULA),
    "Schaake-Raw": (filters.RAW, "empirical", SHUFFLE),
    "I-NP": (filters.AR_GARCH, "empirical", INDEPENDENCE),
    "I-P": (filters.AR_GARCH, "gaussian", INDEPENDENCE),
    "I-Raw": (filters.RAW, "empirical", INDEPENDENCE),
}


class ConfigError(ValueError):
    """Invalid backtest configuration."""


def derive_seed(master: int, date, setting: str, purpose: str) -> int:
    """Stable 64-bit substream seed for (master seed, date, setting, purpose)."""
    key = f"{master}|{date.isoformat()}|{setting}|{purpose}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class BacktestConfig:
    error_window: int = 364
    margin_window: int = 90
    dependence_window: int = 90
    settings: tuple = tuple(SETTING_TABLE)
    filter_overrides: dict = field(default_factory=dict)  # setting -> FilterSpec
    seed: int = 0
    eval_start: datetime.date | None = None
    eval_end: datetime.date | None = None
    refit_every: int = 1

    def __post_init__(self):
        object.__setattr__(self, "settings", tuple(self.settings))
        for name in self.settings:
            if name not in SETTING_TABLE:
                raise ConfigError(f"unknown setting {name!r}; known: {sorted(SETTING_TABLE)}")
        if self.dependence_window < 2:
            raise ConfigError("dependence_window must be >= 2")
        if self.margin_window < 1 or self.error_window < 1:
            raise ConfigError("window lengths must be positive")
        if self.refit_every < 1:
            raise ConfigError("refit_every must be >= 1")
        for name in self.settings:
            if self.filter_spec(name).kind != filters.RAW:
                if self.error_window < self.margin_window:
                    raise ConfigError("error_window must be >= margin_window for filtered settings")
        if self.error_window < max(self.margin_window, self.dependence_window):
            raise ConfigError("error_window must cover the margin and dependence windows")

    def filter_spec(self, setting: str) -> filters.FilterSpec:
        if setting in self.filter_overrides:
            return self.filter_overrides[setting]
        return filters.FilterSpec(kind=SETTING_TABLE[setting][0])

    @property
    def m(self) -> int:
        """Ensemble size; tied to the dependence window length."""
        return self.dependence_window

    @classmethod
    def from_json(cls, source) -> "BacktestConfig":
        """Build a config from a JSON file path or an already-parsed dict."""
        if isinstance(source, dict):
            raw = dict(source)
        else:
            with open(source, encoding="utf-8") as fh:
                raw = json.load(fh)
        overrides = {}
        for name, spec in raw.pop("filters", {}).items():
            overrides[name] = filters.FilterSpec(
                kind=spec["kind"], seasonal_period=spec.get("seasonal_period", 7))
        for key in ("eval_start", "eval_end"):
            if raw.get(key) is not None:
                raw[key] = datetime.date.fromisoformat(raw[key])
        known = {"error_window", "margin_window", "dependence_window", "settings",
                 "seed", "eval_start", "eval_end", "refit_every"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "settings" in raw:
            raw["settings"] = tuple(raw["settings"])
        return cls(filter_overrides=overrides, **raw)


@dataclass
class BacktestResult:
    dates: tuple
    m: int
    forecasts: dict          # setting -> list[EnsembleForecast]
    scores: dict             # setting -> ScorePanel
    ranks: dict              # setting -> (T_setting, 24) int array
    skipped: dict            # setting -> list of skipped dates
    diagnostics: list = field(default_factory=list)

    def setting_dates(self, setting: str) -> tuple:
        return self.scores[setting].dates

    def dm_rows(self) -> list:
        """Pairwise DM tests on daily ES and daily mean CRPS.

        Days skipped for either setting of a pair are excluded pairwise.
        Returns rows (setting_a, setting_b, metric, statistic, p_value);
        statistic and p are None when the score series coincide.
        """
        rows = []
        names = [s for s in self.scores]
        index = {s: {d: i for i, d in enumerate(self.setting_dates(s))} for s in names}
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                common = sorted(index[a].keys() & index[b].keys())
                ia = [index[a][d] for d in common]
                ib = [index[b][d] for d in common]
                for metric, sa, sb in (
                        ("es", self.scores[a].es, self.scores[b].es),
                        ("crps", self.scores[a].daily_crps, self.scores[b].daily_crps)):
                    try:
                        stat, p = scoring.dm_test(sa[ia], sb[ib])
                    except scoring.DegenerateScoreDifference:
                        stat, p = None, None
                    rows.append((a, b, metric, stat, p))
        return rows

    def rank_histograms(self, setting: str):
        """Per-hour verification rank histograms plus the average-rank histogram."""
        ranks = self.ranks[setting]
        per_hour = [scoring.rank_histogram(ranks[:, h], self.m) for h in range(ranks.shape[1])]
        avg = scoring.average_rank_histogram(ranks.mean(axis=1), self.m)
        return per_hour, avg

    def write_outputs(self, out_dir, jobs: int = 1) -> None:
        """Write the forecast, score, rank-histogram, DM and skipped-day CSVs.

        With ``jobs > 1`` the per-setting forecast files are written on that
        many processes, one task per file; the bytes do not depend on ``jobs``.
        """
        os.makedirs(out_dir, exist_ok=True)
        _map(_write_forecasts, [(fcs, os.path.join(out_dir, f"forecasts_{setting}.csv"))
                                for setting, fcs in self.forecasts.items()], jobs)
        write_rows(os.path.join(out_dir, "scores.csv"), ["date", "setting", "es", "crps_mean"],
                   ([date.isoformat(), setting, es, crps]
                    for setting, panel in self.scores.items()
                    for date, es, crps in zip(panel.dates, panel.es.tolist(),
                                              panel.daily_crps.tolist())))
        write_rows(os.path.join(out_dir, "rank_histograms.csv"),
                   ["setting", "hour", "bin", "count"], self._histogram_rows())
        write_rows(os.path.join(out_dir, "dm_tests.csv"),
                   ["setting_a", "setting_b", "metric", "statistic", "p_value"], self.dm_rows())
        skipped_rows = [(s, d.isoformat()) for s, ds in self.skipped.items() for d in ds]
        if skipped_rows:
            write_rows(os.path.join(out_dir, "skipped_days.csv"), ["setting", "date"],
                       skipped_rows)

    def _histogram_rows(self):
        for setting in self.ranks:
            per_hour, avg = self.rank_histograms(setting)
            for hour, hist in [*enumerate(per_hour, start=1), ("avg", avg)]:
                for b, count in enumerate(hist.counts.tolist(), start=1):
                    yield setting, hour, b, count


# ---------------------------------------------------------------------------
# Per-day computation
# ---------------------------------------------------------------------------

def _margin_groups(cfg: BacktestConfig):
    """Group active settings by (filter spec, margin kind)."""
    groups: dict = {}
    for name in cfg.settings:
        key = (cfg.filter_spec(name), SETTING_TABLE[name][1])
        groups.setdefault(key, []).append(name)
    return groups


def _fit_block_filters(errors, t0: int, cfg: BacktestConfig, diagnostics):
    """Fit every needed filter spec on the window ending the day before t0.

    Returns {spec: per-hour params list or None when the fit failed}.
    """
    fitted = {}
    for spec, _ in _margin_groups(cfg):
        if spec in fitted:
            continue
        if spec.kind == filters.RAW:
            fitted[spec] = [None] * N_HOURS
            continue
        window = errors[t0 - cfg.error_window:t0]
        params = []
        try:
            for h in range(N_HOURS):
                p, _out = filters.fit_filter(window[:, h], spec, seed=cfg.seed)
                params.append(p)
            fitted[spec] = params
        except filters.FitError as exc:
            diagnostics.append(f"{spec.kind} fit failed for window ending index {t0}: {exc}")
            fitted[spec] = None
    return fitted


def _forecast_one_day(errors, fc_values, t: int, date, cfg: BacktestConfig, fitted):
    """Forecasts for one target day.

    Returns {setting: EnsembleForecast or None}; None marks a day skipped
    because the setting's filter failed to fit.
    """
    m = cfg.m
    results: dict = {name: None for name in cfg.settings}
    window = errors[t - cfg.error_window:t]
    paths: dict = {}  # spec -> (z (n, 24), (mu (24,), sigma (24,)))
    for (spec, margin_kind), names in _margin_groups(cfg).items():
        params = fitted[spec]
        if params is None:
            continue
        if spec not in paths:
            outs = [filters.filter_output(window[:, h], spec, params[h])
                    for h in range(N_HOURS)]
            paths[spec] = (np.column_stack([out.z for out in outs]),
                           tuple(np.array([out.one_step for out in outs]).T))
        z, one_step = paths[spec]
        if margin_kind == "empirical":
            margin = MarginModel.empirical(z[-cfg.margin_window:])
        else:
            margin = MarginModel.gaussian()
        pits = pit(margin, z[-cfg.dependence_window:])
        members = forecast.make_univariate_ensemble(fc_values[t], one_step, margin, m)

        rank_matrix = None
        sigma = None
        for name in names:
            dep = SETTING_TABLE[name][2]
            if dep == SHUFFLE:
                if rank_matrix is None:
                    rank_matrix = copula.empirical_rank_matrix(pits)
                results[name] = forecast.shuffle(members, rank_matrix, date=date)
            elif dep == GAUSSIAN_COPULA:
                if sigma is None:
                    sigma = copula.fit_gaussian_copula(pits)
                ranks = copula.sample_gaussian_rank_matrix(
                    sigma, m, derive_seed(cfg.seed, date, name, "copula-sample"))
                results[name] = forecast.shuffle(members, ranks, date=date)
            else:
                results[name] = forecast.independence_forecast(
                    members, derive_seed(cfg.seed, date, name, "independence"), date=date)
    return results


def _write_forecasts(args) -> None:
    forecast.write_forecasts_csv(*args)


def _map(fn, tasks, jobs: int) -> list:
    """``[fn(task) for task in tasks]``, on a pool of ``jobs`` processes when jobs > 1."""
    # the platform's default start method: on Linux workers fork; a spawned
    # pool re-imports numpy and scipy, which took longer than all the writes
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]


def _run_block(args):
    errors, fc_values, dates, day_indices, cfg = args
    diagnostics: list = []
    fitted = _fit_block_filters(errors, day_indices[0], cfg, diagnostics)
    out = []
    for t in day_indices:
        out.append((dates[t], _forecast_one_day(errors, fc_values, t, dates[t], cfg, fitted)))
    return out, diagnostics


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run_backtest(real: HourlyPanel, fc: HourlyPanel, cfg: BacktestConfig,
                 jobs: int = 1) -> BacktestResult:
    """Run the rolling-window backtest over the evaluation period.

    Forecasts for day t use only data dated t-1 and earlier.  Days are
    processed in blocks of ``refit_every`` days sharing one filter fit; the
    result is identical for any ``jobs`` value.
    """
    error_panel = compute_errors(real, fc)
    errors = error_panel.values
    dates = real.dates

    first = cfg.error_window
    eval_idx = [t for t in range(first, len(dates))
                if (cfg.eval_start is None or dates[t] >= cfg.eval_start)
                and (cfg.eval_end is None or dates[t] <= cfg.eval_end)]
    if not eval_idx:
        raise PanelError(
            f"no evaluation days: need more than {cfg.error_window} days of history "
            "before the requested period")

    blocks = [eval_idx[i:i + cfg.refit_every]
              for i in range(0, len(eval_idx), cfg.refit_every)]
    tasks = [(errors, fc.values, dates, block, cfg) for block in blocks]

    block_results = _map(_run_block, tasks, jobs)

    day_results = []
    diagnostics: list = []
    for out, diags in block_results:
        day_results.extend(out)
        diagnostics.extend(diags)
    for message in diagnostics:
        warnings.warn(message, stacklevel=2)

    forecasts: dict = {name: [] for name in cfg.settings}
    skipped: dict = {name: [] for name in cfg.settings}
    for date, per_setting in day_results:
        for name, fc_day in per_setting.items():
            if fc_day is None:
                skipped[name].append(date)
            else:
                forecasts[name].append(fc_day)

    scores, ranks = {}, {}
    for name, fcs in forecasts.items():
        if fcs:
            scores[name], ranks[name] = scoring.score_forecasts(fcs, real)
    return BacktestResult(dates=tuple(dates[t] for t in eval_idx), m=cfg.m,
                          forecasts=forecasts, scores=scores, ranks=ranks,
                          skipped={k: v for k, v in skipped.items() if v},
                          diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Built-in worked example
# ---------------------------------------------------------------------------

# four hourly quantile sets (rows: 00:00, 06:00, 12:00, 18:00; columns:
# levels 1/8 .. 7/8) and the rank matrix pairing them
TOY_QUANTILES = np.array([
    [6.1, 16.1, 23.6, 30.3, 37.0, 44.5, 54.5],
    [21.7, 31.6, 39.0, 45.7, 52.3, 59.7, 69.6],
    [27.2, 37.0, 44.4, 50.9, 57.5, 64.8, 74.6],
    [26.7, 36.5, 43.9, 50.5, 57.0, 64.4, 74.2],
])
TOY_RANK_MATRIX = np.array([
    [1, 2, 1, 2],
    [4, 3, 3, 5],
    [5, 4, 7, 7],
    [2, 1, 2, 1],
    [3, 5, 5, 6],
    [7, 7, 6, 4],
    [6, 6, 4, 3],
])


def run_toy_example() -> forecast.EnsembleForecast:
    """Shuffle the built-in four-hour example into its joint forecast."""
    return forecast.shuffle(TOY_QUANTILES.T, TOY_RANK_MATRIX,
                            date=datetime.date(2020, 1, 1))
