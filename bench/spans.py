"""Spans around calls into schaake's public functions, recorded from outside.

``Tracer.install`` replaces each traced name where its caller looks it up
(``schaake.backtest.pit``, ``MarginModel.empirical``, ``forecast.shuffle``, ...)
with a wrapper that appends ``(name, start, end, parent, run id)`` to an
in-memory list.  ``layer_metrics`` turns one run id's spans into per-layer
counts and self times (span duration minus the time its child spans cover).
Only calls made in this process are seen, so traced backtests run with
``--jobs 1``.
"""
from __future__ import annotations

import csv
import functools
import math
import os
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name): functions looked up as module globals
_FUNCTIONS = (
    ("cli", "load_panel", "panel.load"),
    ("filters", "fit_filter", "filters.fit"),
    ("filters", "filter_output", "filters.output"),
    ("backtest", "pit", "margins.pit"),
    ("copula", "empirical_rank_matrix", "copula.rank"),
    ("copula", "fit_gaussian_copula", "copula.gauss_fit"),
    ("copula", "sample_gaussian_rank_matrix", "copula.gauss_sample"),
    ("forecast", "make_univariate_ensemble", "forecast.ensemble"),
    ("forecast", "shuffle", "forecast.reorder"),
    ("forecast", "independence_forecast", "forecast.reorder"),
    ("forecast", "write_forecasts_csv", "forecast.write"),
    ("forecast", "read_forecasts_csv", "forecast.read"),
    ("scoring", "energy_score", "scoring.es"),
    ("scoring", "crps_ensemble", "scoring.crps"),
    ("scoring", "verification_rank", "scoring.rank"),
    ("scoring", "dm_test", "scoring.dm"),
    ("scoring", "interval_coverage", "scoring.coverage"),
    ("loadprofile", "scenario_daily_prices", "loadprofile"),
    ("loadprofile", "daily_price", "loadprofile"),
    ("backtest", "run_backtest", "backtest.run"),
)
# (module, class, attribute, span name, is classmethod)
_METHODS = (
    ("margins", "MarginModel", "empirical", "margins.build", True),
    ("margins", "MarginModel", "gaussian", "margins.build", True),
    ("backtest", "BacktestResult", "write_outputs", "backtest.write", False),
)

CLI_SPAN = "cli.main"

# per CLI step: (metric, unit); every one is printed, 0 when the step made no such call
STEP_METRICS = {
    "backtest": (
        ("panel.load_calls", "count"), ("panel.load_s", "s"),
        ("filters.fit_calls", "count"), ("filters.fit_s", "s"),
        ("filters.fit_ms_p50", "ms"), ("filters.fit_ms_p95", "ms"),
        ("filters.fit_failed", "count"), ("filters.fit_nll", "nat/obs"),
        ("filters.output_calls", "count"), ("filters.output_s", "s"),
        ("filters.share", "ratio"),
        ("margins.build_calls", "count"), ("margins.build_s", "s"),
        ("margins.pit_calls", "count"), ("margins.pit_s", "s"),
        ("copula.rank_calls", "count"), ("copula.rank_s", "s"),
        ("copula.gauss_fit_calls", "count"), ("copula.gauss_fit_s", "s"),
        ("copula.gauss_sample_s", "s"),
        ("forecast.ensemble_calls", "count"), ("forecast.ensemble_s", "s"),
        ("forecast.reorder_calls", "count"), ("forecast.reorder_s", "s"),
        ("forecast.write_s", "s"), ("forecast.write_mb", "MB"),
        ("scoring.es_calls", "count"), ("scoring.es_s", "s"),
        ("scoring.crps_calls", "count"), ("scoring.crps_s", "s"),
        ("scoring.rank_calls", "count"), ("scoring.rank_s", "s"),
        ("scoring.dm_s", "s"),
        ("backtest.run_s", "s"), ("backtest.write_s", "s"), ("backtest.skipped", "count"),
        ("cli.self_s", "s"), ("cli.dm_cells_unparsed", "count"),
        ("trace.overhead_share", "ratio"),
    ),
    "evaluate": (
        ("panel.load_calls", "count"), ("panel.load_s", "s"),
        ("forecast.read_s", "s"), ("forecast.read_mb", "MB"),
        ("scoring.es_calls", "count"), ("scoring.es_s", "s"),
        ("scoring.crps_calls", "count"), ("scoring.crps_s", "s"),
        ("scoring.rank_calls", "count"), ("scoring.rank_s", "s"),
        ("scoring.dm_s", "s"),
        ("backtest.write_s", "s"),
        ("cli.self_s", "s"), ("cli.dm_cells_unparsed", "count"),
        ("trace.overhead_share", "ratio"),
    ),
    "slp": (
        ("panel.load_calls", "count"), ("panel.load_s", "s"),
        ("forecast.read_s", "s"), ("forecast.read_mb", "MB"), ("forecast.read_share", "ratio"),
        ("loadprofile.s", "s"),
        ("scoring.coverage_s", "s"),
        ("cli.self_s", "s"),
        ("trace.overhead_share", "ratio"),
    ),
}

_SPAN_NAMES = sorted({f[2] for f in _FUNCTIONS} | {m[3] for m in _METHODS} | {CLI_SPAN})
# metric prefix where it differs from the span name
_PREFIX = {CLI_SPAN: "cli.self_", "loadprofile": "loadprofile."}


def _gaussian_nll(out) -> float:
    """Mean per-observation Gaussian NLL, 0.5 * mean(log 2 pi sigma^2 + z^2)."""
    return 0.5 * float(np.mean(np.log(2.0 * math.pi * out.sigma_hat ** 2) + out.z ** 2))


class Tracer:
    """In-memory span recorder; ``run_id`` labels the spans of one CLI step."""

    def __init__(self):
        self.spans: list = []      # (name, start, end, parent index or -1, run id)
        self.run_id = None
        self._stack: list = []
        self._fit_outputs = defaultdict(list)   # run id -> FilterOutput of non-raw fits
        self._fit_failed = defaultdict(int)     # run id -> FitError count
        self._bytes = defaultdict(float)        # (run id, span name) -> bytes written/read
        self._undo: list = []

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if name == "filters.fit" and type(exc).__name__ == "FitError":
                    tracer._fit_failed[tracer.run_id] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.run_id)
            tracer._after(name, args, out)
            return out

        return traced

    def _after(self, name, args, out):
        if name == "filters.fit" and out[0] is not None:
            self._fit_outputs[self.run_id].append(out[1])
        elif name == "forecast.write":
            self._bytes[(self.run_id, name)] += os.path.getsize(args[1])
        elif name == "forecast.read":
            self._bytes[(self.run_id, name)] += os.path.getsize(args[0])

    def install(self, modules) -> None:
        """Wrap the traced names in ``modules`` ({short name: module})."""
        for mod, attr, name in _FUNCTIONS:
            original = getattr(modules[mod], attr)
            self._undo.append((modules[mod], attr, original))
            setattr(modules[mod], attr, self.wrap(name, original))
        for mod, cls_name, attr, name, is_classmethod in _METHODS:
            cls = getattr(modules[mod], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            if is_classmethod:
                setattr(cls, attr, classmethod(self.wrap(name, original.__func__)))
            else:
                setattr(cls, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_metrics(self, run_id) -> dict:
        """Counts and self times of one run id's spans, keyed by metric name."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]
        child_time = defaultdict(float)
        for _, (_, start, end, parent, _) in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s = defaultdict(int), defaultdict(float)
        fit_ms = []
        for i, (name, start, end, _, _) in spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
            if name == "filters.fit":
                fit_ms.append(1e3 * (end - start))
        metrics = {}
        for name in _SPAN_NAMES:
            prefix = _PREFIX.get(name, name + "_")
            metrics[f"{prefix}calls"] = calls[name]
            metrics[f"{prefix}s"] = self_s[name]
        metrics["filters.fit_ms_p50"] = float(np.percentile(fit_ms, 50)) if fit_ms else 0.0
        metrics["filters.fit_ms_p95"] = float(np.percentile(fit_ms, 95)) if fit_ms else 0.0
        metrics["filters.fit_failed"] = self._fit_failed[run_id]
        outputs = self._fit_outputs[run_id]
        metrics["filters.fit_nll"] = (float(np.mean([_gaussian_nll(o) for o in outputs]))
                                      if outputs else 0.0)
        metrics["forecast.write_mb"] = self._bytes[(run_id, "forecast.write")] / 1e6
        metrics["forecast.read_mb"] = self._bytes[(run_id, "forecast.read")] / 1e6
        return metrics

    def write_csv(self, path) -> None:
        """Write every recorded span as ``name,start,end,parent,run``."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent", "run"])
            for name, start, end, parent, run_id in self.spans:
                writer.writerow([name, repr(start), repr(end), parent, run_id])
