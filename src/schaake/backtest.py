"""Rolling-window backtest driver.

The evaluation days run in blocks of ``refit_every`` days.  The driver (1)
fits each setting's error filter once per block, on the error window before
the block's first day, and for every evaluation day and setting recomputes
the filter's paths on the day's trailing error window from the block's
params, (2) builds the margins of all 24 hours from the most recent
standardized residuals and PITs the dependence window through them, and (3)
constructs the (m, 24) quantile ensemble matrix and pairs its rows by
:func:`forecast.shuffle` with a rank matrix from the setting's dependence
kind: the ranks of the PIT history, a Gaussian-copula sample, or, for
independence, a random rank matrix.  Windows roll forward one day at a time.
The collected forecasts are then (4) scored against realizations by
:func:`scoring.score_forecasts`, the same function ``schaake evaluate`` uses.

Each (setting, day) has one outcome: its forecast, or the reason it was
skipped, because the setting's filter could not be fitted on the block's
window or its copula could not be learned from the day's PIT history.  The
reasons are kept in ``BacktestResult.skipped[setting][date]`` and each is
warned once.  A setting skipped on every day has no forecasts or scores in
the result, and so no forecast file.  ``BacktestConfig.groups`` maps each
(filter spec, margin kind) to the settings that share its fit and ensembles.

A Schaake setting and its independence counterpart reorder the same sorted
ensembles, and the CRPS sorts each hour's members before scoring them, so
their per-hour CRPS panels agree bitwise.
"""
from __future__ import annotations

import concurrent.futures
import datetime
import hashlib
import json
import numbers
import os
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from . import copula, filters, forecast, scoring
from .margins import MarginModel, pit
from .panel import HourlyPanel, PanelError, compute_errors, write_count_rows, write_rows

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
    groups: dict = field(init=False, repr=False, compare=False)  # (spec, margin) -> settings

    def __post_init__(self):
        for key in ("error_window", "margin_window", "dependence_window", "seed",
                    "refit_every"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if not isinstance(self.settings, (list, tuple)):
            raise ConfigError(f"settings must be a list of setting names, got {self.settings!r}")
        if not (isinstance(self.filter_overrides, dict) and all(
                isinstance(spec, filters.FilterSpec) for spec in self.filter_overrides.values())):
            raise ConfigError(f"filter_overrides must map setting names to FilterSpecs, "
                              f"got {self.filter_overrides!r}")
        for name in (*self.settings, *self.filter_overrides):
            if not isinstance(name, str) or name not in SETTING_TABLE:
                raise ConfigError(f"unknown setting {name!r}; known: {sorted(SETTING_TABLE)}")
        for key in ("eval_start", "eval_end"):
            if type(getattr(self, key)) not in (type(None), datetime.date):  # nor a datetime
                raise ConfigError(f"{key} must be a datetime.date, got {getattr(self, key)!r}")
        object.__setattr__(self, "settings", tuple(dict.fromkeys(self.settings)))
        if not self.settings:
            raise ConfigError("settings must name at least one setting")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.dependence_window < 2:
            raise ConfigError("dependence_window must be >= 2")
        if self.margin_window < 1 or self.error_window < 1:
            raise ConfigError("window lengths must be positive")
        if self.refit_every < 1:
            raise ConfigError("refit_every must be >= 1")
        if self.error_window < max(self.margin_window, self.dependence_window):
            raise ConfigError("error_window must cover the margin and dependence windows")
        if None not in (self.eval_start, self.eval_end) and self.eval_start > self.eval_end:
            raise ConfigError(f"eval_start {self.eval_start} is after eval_end {self.eval_end}")
        groups: dict = {}
        for name in self.settings:
            groups.setdefault((self.filter_spec(name), SETTING_TABLE[name][1]), []).append(name)
        object.__setattr__(self, "groups", groups)

    def filter_spec(self, setting: str) -> filters.FilterSpec:
        return self.filter_overrides.get(setting, filters.FilterSpec(SETTING_TABLE[setting][0]))

    @property
    def m(self) -> int:
        """Ensemble size; tied to the dependence window length."""
        return self.dependence_window

    @classmethod
    def from_json(cls, source) -> "BacktestConfig":
        """Build a config from a JSON file path or an already-parsed dict.

        An invalid config raises ``ConfigError`` naming the file and the key.
        """
        where = "config" if isinstance(source, dict) else str(source)
        try:
            if isinstance(source, dict):
                raw = dict(source)
            else:
                with open(source, encoding="utf-8") as fh:
                    raw = json.load(fh)
            if not isinstance(raw, dict):
                raise ConfigError("a config must be a JSON object")
            specs, overrides = raw.pop("filters", {}), {}
            if not isinstance(specs, dict):
                raise ConfigError(f"filters must map setting names to filter specs, "
                                  f"got {specs!r}")
            for name, spec in specs.items():
                if not (isinstance(spec, dict) and "kind" in spec
                        and set(spec) <= {"kind", "seasonal_period"}):
                    raise ConfigError(f"filters.{name} must hold 'kind' and optionally "
                                      f"'seasonal_period', got {spec!r}")
                try:
                    overrides[name] = filters.FilterSpec(**spec)
                except ValueError as exc:
                    raise ConfigError(f"filters.{name}: {exc}") from None
            unknown = set(raw) - {f.name for f in fields(cls) if f.init} - {"filter_overrides"}
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            for key in ("eval_start", "eval_end"):
                if raw.get(key) is not None:
                    try:
                        raw[key] = datetime.date.fromisoformat(raw[key])
                    except (TypeError, ValueError):
                        raise ConfigError(f"{key} must be an ISO date, got {raw[key]!r}") from None
            return cls(filter_overrides=overrides, **raw)
        except (ConfigError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{where}: {exc}") from None


@dataclass
class BacktestResult:
    """A run's outcomes: a setting is in ``forecasts`` and ``scores`` only if it forecast a day."""

    m: int
    forecasts: dict          # setting -> non-empty list[EnsembleForecast]
    scores: dict             # setting -> ScorePanel
    skipped: dict            # setting -> {skipped date: reason}

    def write_outputs(self, out_dir, jobs: int = 1) -> None:
        """Write a backtest's out-dir files, the same set on every run.

        These are the tables of :func:`write_scores`, ``skipped_days.csv`` (only
        its header when no day was skipped), and ``forecasts_<setting>.csv`` and
        its copy for each setting that forecast; those of every other setting of
        ``SETTING_TABLE`` are removed, and no other file is touched.  The forecast
        files are written one task per Schaake/independence pair (settings that
        share filter and margin kind) by :func:`forecast.write_forecast_files`,
        which formats each of the pair's days once.  With ``jobs > 1`` the tasks
        run on up to that many processes; the bytes do not depend on ``jobs``.
        """
        write_scores(out_dir, self.scores, self.m)
        pairs: dict = {}  # (filter kind, margin kind) -> [(forecasts, path)]
        for setting, fcs in self.forecasts.items():
            pairs.setdefault(SETTING_TABLE[setting][:2], []).append(
                (fcs, os.path.join(out_dir, f"forecasts_{setting}.csv")))
        _map(forecast.write_forecast_files, list(pairs.values()), jobs)
        for setting in SETTING_TABLE.keys() - self.forecasts.keys():
            forecast.remove_forecast_files(os.path.join(out_dir, f"forecasts_{setting}.csv"))
        write_rows(os.path.join(out_dir, "skipped_days.csv"), ["setting", "date"],
                   [(s, d.isoformat()) for s, ds in self.skipped.items() for d in ds])


def dm_rows(scores) -> list:
    """Pairwise DM tests on daily ES and daily mean CRPS of ``scores``, setting -> ScorePanel.

    Days skipped for either setting of a pair are excluded pairwise.
    Returns rows (setting_a, setting_b, metric, statistic, p_value);
    statistic and p are None when the score series coincide or the pair
    shares fewer than two scored days.
    """
    rows = []
    names = list(scores)
    index = {s: {d: i for i, d in enumerate(scores[s].dates)} for s in names}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            common = sorted(index[a].keys() & index[b].keys())
            ia = [index[a][d] for d in common]
            ib = [index[b][d] for d in common]
            for metric, sa, sb in (("es", scores[a].es, scores[b].es),
                                   ("crps", scores[a].daily_crps, scores[b].daily_crps)):
                try:
                    stat, p = scoring.dm_test(sa[ia], sb[ib])
                except scoring.DegenerateScoreDifference:
                    stat, p = None, None
                rows.append((a, b, metric, stat, p))
    return rows


def write_scores(out_dir, scores, m: int) -> None:
    """Write ``scores.csv``, ``rank_histograms.csv`` and ``dm_tests.csv`` of m-member ``scores``.

    ``rank_histograms.csv`` holds each setting's (H, m+1) per-hour verification
    rank histograms, then its average-rank histogram as hour ``avg``.
    """
    os.makedirs(out_dir, exist_ok=True)
    write_rows(os.path.join(out_dir, "scores.csv"), ["date", "setting", "es", "crps_mean"],
               ([date.isoformat(), setting, es, crps]
                for setting, panel in scores.items()
                for date, es, crps in zip(panel.dates, panel.es.tolist(),
                                          panel.daily_crps.tolist())))
    blocks = (((setting, hour), counts) for setting, panel in scores.items()
              for hour, counts in [
                  *enumerate(scoring.rank_histogram(panel.ranks, m).tolist(), 1),
                  ("avg", scoring.average_rank_histogram(panel.ranks.mean(axis=1), m).tolist())])
    write_count_rows(os.path.join(out_dir, "rank_histograms.csv"),
                     ["setting", "hour", "bin", "count"], blocks)
    write_rows(os.path.join(out_dir, "dm_tests.csv"),
               ["setting_a", "setting_b", "metric", "statistic", "p_value"], dm_rows(scores))


# ---------------------------------------------------------------------------
# Per-day computation
# ---------------------------------------------------------------------------

def _fit_block_filters(errors, dates, t0: int, cfg: BacktestConfig):
    """Fit every needed filter spec on the error window before block day t0.

    Each spec fits all 24 hours in one call.  Returns {spec: list of 24
    params, or the reason (a str) the fit failed}.
    """
    fitted = {}
    start = t0 - cfg.error_window
    for spec in dict.fromkeys(spec for spec, _ in cfg.groups):
        if spec.kind == filters.RAW:
            fitted[spec] = [None] * errors.shape[1]
            continue
        try:
            fitted[spec], _out = filters.fit_filter(errors[start:t0], spec, seed=cfg.seed)
        except filters.FitError as exc:
            fitted[spec] = (f"{spec.kind} fit failed for the block starting {dates[t0]} "
                            f"(window {dates[start]} to {dates[t0 - 1]}): {exc}")
    return fitted


def _forecast_one_day(errors, fc_values, t: int, date, cfg: BacktestConfig, fitted):
    """Outcomes for one target day: {setting: EnsembleForecast, or the skip reason}.

    A setting is skipped when its filter failed to fit on the block's window
    or its copula could not be learned from the PIT history.  The settings
    whose fit failed come first, so a block's fit failure is reported before
    the day's copula skips.
    """
    window = errors[t - cfg.error_window:t]
    paths = {spec: filters.filter_output(window, spec, params)
             for spec, params in fitted.items() if not isinstance(params, str)}
    results = {name: fitted[spec] for (spec, _), names in cfg.groups.items() for name in names
               if spec not in paths}
    for (spec, margin_kind), names in cfg.groups.items():
        if spec not in paths:
            continue
        z, one_step = paths[spec].z, paths[spec].one_step
        margin = (MarginModel.empirical(z[-cfg.margin_window:]) if margin_kind == "empirical"
                  else MarginModel.gaussian())
        pits = pit(margin, z[-cfg.dependence_window:])
        members = forecast.make_univariate_ensemble(fc_values[t], one_step, margin, cfg.m)
        for name in names:
            try:
                ranks = _rank_matrix(name, pits, date, cfg.seed)
            except (copula.CopulaError, np.linalg.LinAlgError) as exc:
                results[name] = f"{name} skipped on {date}: {exc}"
            else:
                results[name] = forecast.shuffle(members, ranks, date=date)
    return results


def _rank_matrix(name: str, pits, date, seed: int) -> np.ndarray:
    """Setting ``name``'s rank matrix on ``date``, from the (m, 24) PIT history ``pits``."""
    dependence = SETTING_TABLE[name][2]
    if dependence == SHUFFLE:
        return copula.empirical_rank_matrix(pits)
    if dependence == GAUSSIAN_COPULA:
        return copula.sample_gaussian_rank_matrix(
            copula.fit_gaussian_copula(pits), len(pits),
            derive_seed(seed, date, name, "copula-sample"))
    return copula.random_rank_matrix(*pits.shape, derive_seed(seed, date, name, "independence"))


def _map(fn, tasks, jobs: int) -> list:
    """``[fn(task) for task in tasks]``, on a pool of ``min(jobs, len(tasks))`` processes."""
    # the platform's default start method: on Linux workers fork, all of them
    # at once; a spawned pool re-imports numpy and scipy, which took longer
    # than all the writes
    workers = min(jobs, len(tasks))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]


def _run_block(args):
    errors, fc_values, dates, day_indices, cfg = args
    fitted = _fit_block_filters(errors, dates, day_indices[0], cfg)
    return [(dates[t], _forecast_one_day(errors, fc_values, t, dates[t], cfg, fitted))
            for t in day_indices]


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run_backtest(real: HourlyPanel, fc: HourlyPanel, cfg: BacktestConfig,
                 jobs: int = 1) -> BacktestResult:
    """Run the rolling-window backtest over the evaluation period.

    Forecasts for day t use only data dated t-1 and earlier.  Days are
    processed in blocks of ``refit_every`` days sharing one filter fit; the
    result is identical for any ``jobs`` value.  Every date from the first
    error-window day to the last evaluation day must be in the panels.
    """
    errors = compute_errors(real, fc).values
    dates = real.dates

    first = cfg.error_window
    eval_idx = [t for t in range(first, len(dates))
                if (cfg.eval_start is None or dates[t] >= cfg.eval_start)
                and (cfg.eval_end is None or dates[t] <= cfg.eval_end)]
    if not eval_idx:
        full = f"{dates[first]} to {dates[-1]}" if first < len(dates) else "none"
        raise PanelError(f"no evaluation days from {cfg.eval_start or 'the first day'} to "
                         f"{cfg.eval_end or 'the last day'}; the days with {first} days of "
                         f"history before them: {full}")
    span = [d.toordinal() for d in dates[eval_idx[0] - first:eval_idx[-1] + 1]]
    missing = sorted(set(range(span[0], span[-1] + 1)).difference(span))
    if missing:  # windows count rows, so a gap would shift every later window
        raise PanelError(f"the panels lack {len(missing)} of the dates from "
                         f"{dates[eval_idx[0] - first]} to {dates[eval_idx[-1]]}, first "
                         f"{', '.join(str(datetime.date.fromordinal(o)) for o in missing[:3])}")

    tasks = [(errors, fc.values, dates, eval_idx[i:i + cfg.refit_every], cfg)
             for i in range(0, len(eval_idx), cfg.refit_every)]

    forecasts: dict = {name: [] for name in cfg.settings}
    skipped: dict = {name: {} for name in cfg.settings}
    reasons: dict = {}  # the distinct skip reasons as keys, in the order they arose
    for block in _map(_run_block, tasks, jobs):
        for date, outcomes in block:
            for name, outcome in outcomes.items():
                if isinstance(outcome, str):
                    skipped[name][date] = outcome
                    reasons[outcome] = None
                else:
                    forecasts[name].append(outcome)
    for reason in reasons:
        warnings.warn(reason, stacklevel=2)

    forecasts = {name: fcs for name, fcs in forecasts.items() if fcs}
    return BacktestResult(m=cfg.m, forecasts=forecasts,
                          scores={name: scoring.score_forecasts(fcs, real)
                                  for name, fcs in forecasts.items()},
                          skipped={k: v for k, v in skipped.items() if v})


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
