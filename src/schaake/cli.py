"""Command line interface.

Subcommands: ``backtest`` (full rolling backtest), ``toy-example`` (built-in
worked example), ``evaluate`` (rescore existing ensemble forecast CSVs),
``shuffle`` (one-shot reordering of an ensemble CSV by a rank-matrix CSV) and
``slp`` (load-profile interval coverage report).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import backtest as bt
from . import copula, filters, forecast, loadprofile, scoring
from .panel import (PanelError, hour_names, load_panel, read_matrix_csv, write_number_rows,
                    write_rows)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="schaake", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("backtest", help="run the rolling-window backtest")
    p.add_argument("--real", required=True, help="realizations CSV (date,hour,value)")
    p.add_argument("--forecast", required=True, help="point forecasts CSV (date,hour,value)")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--settings", help="comma-separated subset of settings")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("toy-example", help="print the built-in worked example")
    p.add_argument("--out", help="optional CSV destination")

    p = sub.add_parser("evaluate", help="rescore existing ensemble forecast CSVs")
    p.add_argument("--real", required=True)
    p.add_argument("--forecasts", required=True, action="append",
                   help="ensemble CSV (date,member,h1..h24); repeatable")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("shuffle", help="reorder an ensemble CSV by a rank-matrix CSV")
    p.add_argument("--ensembles", required=True,
                   help="CSV with header h1..hH; column h holds hour h's sorted members")
    p.add_argument("--rank-matrix", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("slp", help="load-profile interval coverage report")
    p.add_argument("--forecasts", required=True, action="append")
    p.add_argument("--real", required=True)
    p.add_argument("--profile", help="profile CSV (hour,weight); default: bundled synthetic profile")
    p.add_argument("--nominal", type=float, default=0.9333)
    p.add_argument("--out", help="optional CSV destination (default: stdout)")
    return parser


def _setting_label(path: str) -> str:
    stem = os.path.splitext(os.path.basename(path))[0]
    return stem[len("forecasts_"):] if stem.startswith("forecasts_") else stem


def _cmd_backtest(args) -> int:
    cfg = bt.BacktestConfig.from_json(args.config) if args.config else bt.BacktestConfig()
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.settings:
        updates["settings"] = tuple(s.strip() for s in args.settings.split(","))
    if updates:
        from dataclasses import replace
        cfg = replace(cfg, **updates)
    real = load_panel(args.real, role="realization")
    fc = load_panel(args.forecast, role="forecast")
    result = bt.run_backtest(real, fc, cfg, jobs=args.jobs)
    result.write_outputs(args.out_dir, jobs=args.jobs)
    for name, panel in result.scores.items():
        print(f"{name}: mean ES {panel.mean_es:.4f}, mean CRPS {panel.mean_crps:.4f} "
              f"({len(panel.dates)} days)")
    return 0


def _cmd_toy_example(args) -> int:
    fc = bt.run_toy_example()
    if args.out:
        forecast.write_forecasts_csv([fc], args.out)
    write_rows(None, ["draw"] + hour_names(fc.members.shape[1]),
               ([i] + [f"{v:g}" for v in row]
                for i, row in enumerate(fc.members.tolist(), start=1)))
    return 0


def _cmd_evaluate(args) -> int:
    real = load_panel(args.real, role="realization")
    scores, rank_arrays, m = {}, {}, None
    for path in args.forecasts:
        fcs = forecast.read_forecasts_csv(path)
        if not fcs:
            raise PanelError(f"{path}: no forecasts")
        if m is not None and fcs[0].m != m:
            raise PanelError(f"{path}: {fcs[0].m} members per day, earlier files have {m}")
        m = fcs[0].m
        label = _setting_label(path)
        scores[label], rank_arrays[label] = scoring.score_forecasts(fcs, real)
    dates = tuple(sorted(set().union(*(panel.dates for panel in scores.values()))))
    result = bt.BacktestResult(dates=dates, m=m, forecasts={}, scores=scores,
                               ranks=rank_arrays, skipped={})
    # reuse the backtest writers, minus the (unmodified) forecast CSVs; DM tests
    # pair each two files on the dates both cover
    result.write_outputs(args.out_dir)
    for name, panel in scores.items():
        print(f"{name}: mean ES {panel.mean_es:.4f}, mean CRPS {panel.mean_crps:.4f}")
    return 0


def _cmd_shuffle(args) -> int:
    members = read_matrix_csv(args.ensembles)
    ranks = copula.read_rank_matrix_csv(args.rank_matrix)
    import datetime
    fc = forecast.shuffle(members, ranks, date=datetime.date.today())
    write_number_rows(args.out, hour_names(fc.members.shape[1]), [(None, fc.members.tolist())])
    return 0


def _cmd_slp(args) -> int:
    real = load_panel(args.real, role="realization")
    profile = (loadprofile.load_profile_csv(args.profile) if args.profile
               else loadprofile.default_profile())
    date_index = {d: i for i, d in enumerate(real.dates)}
    rows = []
    for path in args.forecasts:
        fcs = forecast.read_forecasts_csv(path)
        samples, realized = [], []
        for fc in fcs:
            if fc.date not in date_index:
                raise PanelError(f"{path}: no realization for forecast date {fc.date}")
            samples.append(loadprofile.scenario_daily_prices(fc, profile))
            realized.append(loadprofile.daily_price(real.values[date_index[fc.date]], profile))
        coverage = scoring.interval_coverage(np.array(samples), np.array(realized),
                                             args.nominal)
        rows.append([_setting_label(path), args.nominal, coverage, len(fcs)])
    write_rows(args.out or None, ["setting", "nominal", "coverage", "days"], rows)
    return 0


_COMMANDS = {
    "backtest": _cmd_backtest,
    "toy-example": _cmd_toy_example,
    "evaluate": _cmd_evaluate,
    "shuffle": _cmd_shuffle,
    "slp": _cmd_slp,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PanelError, copula.CopulaError, bt.ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"schaake: data error: {exc}", file=sys.stderr)
        return 2
    except (filters.FitError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"schaake: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
