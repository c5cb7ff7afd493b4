"""Command line interface.

Subcommands: ``backtest`` (full rolling backtest), ``toy-example`` (built-in
worked example), ``evaluate`` (rescore existing ensemble forecast CSVs),
``shuffle`` (one-shot reordering of an ensemble CSV by a rank-matrix CSV) and
``slp`` (load-profile interval coverage report).

Exit codes: 0 success, 1 usage error, 2 data error.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import backtest as bt
from . import copula, forecast, loadprofile, scoring
from .panel import (PanelError, hour_names, load_panel, open_csv, read_matrix_csv, write_rows,
                    write_text_rows)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _checked(cast, ok, want: str):
    """An argparse type: ``cast(text)``, a usage error unless ``ok(value)``."""
    def parse(text):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{want}, got {value}")
        return value
    return parse


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
    p.add_argument("--jobs", type=_checked(int, lambda n: n >= 1, "must be >= 1"), default=1)

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
    p.add_argument("--nominal", type=_checked(float, lambda x: 0.0 < x < 1.0, "must lie in (0, 1)"),
                   default=0.9333)
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
    cfg = replace(cfg, **updates)
    real = load_panel(args.real, role="realization")
    fc = load_panel(args.forecast, role="forecast")
    result = bt.run_backtest(real, fc, cfg, jobs=args.jobs)
    result.write_outputs(args.out_dir, jobs=args.jobs)
    for name in cfg.settings:
        panel = result.scores.get(name)
        print(f"{name}: skipped on every day" if panel is None else f"{name}: mean ES "
              f"{panel.mean_es:.4f}, mean CRPS {panel.mean_crps:.4f} ({len(panel.dates)} days)")
    return 0


def _cmd_toy_example(args) -> int:
    fc = bt.run_toy_example()
    if args.out:
        forecast.write_forecasts_csv([fc], args.out)
    write_rows(None, ["draw"] + hour_names(fc.members.shape[1]),
               ([i] + [f"{v:g}" for v in row]
                for i, row in enumerate(fc.members.tolist(), start=1)))
    return 0


def _check_hours(path, forecasts, n_hours: int, other: str) -> None:
    """PanelError naming ``path`` unless its forecasts cover ``n_hours`` hours."""
    if forecasts[0].members.shape[1] != n_hours:
        raise PanelError(f"{path}: {forecasts[0].members.shape[1]} hours per day, "
                         f"{other} {n_hours}")


def _cmd_evaluate(args) -> int:
    real = load_panel(args.real, role="realization")
    scores, m = {}, None
    for path in args.forecasts:
        fcs = forecast.read_forecasts_csv(path)
        _check_hours(path, fcs, real.values.shape[1], "the realizations have")
        if m is not None and fcs[0].m != m:
            raise PanelError(f"{path}: {fcs[0].m} members per day, earlier files have {m}")
        m = fcs[0].m
        try:
            scores[_setting_label(path)] = scoring.score_forecasts(fcs, real)
        except PanelError as exc:
            raise PanelError(f"{path}: {exc}") from None
    # the backtest's score tables; DM tests pair each two files on the dates both cover
    bt.write_scores(args.out_dir, scores, m)
    for name, panel in scores.items():
        print(f"{name}: mean ES {panel.mean_es:.4f}, mean CRPS {panel.mean_crps:.4f}")
    return 0


def _cmd_shuffle(args) -> int:
    members = read_matrix_csv(args.ensembles)
    ranks = copula.read_rank_matrix_csv(args.rank_matrix)
    fc = forecast.shuffle(members, ranks)
    with open_csv(args.out) as fh:
        write_text_rows(fh, [hour_names(fc.members.shape[1]),
                             *(map(repr, row) for row in fc.members.tolist())])
    return 0


def _cmd_slp(args) -> int:
    real = load_panel(args.real, role="realization")
    profile = (loadprofile.load_profile_csv(args.profile) if args.profile
               else loadprofile.default_profile())
    date_index = {d: i for i, d in enumerate(real.dates)}
    rows = []
    for path in args.forecasts:
        fcs = forecast.read_forecasts_csv(path)
        _check_hours(path, fcs, profile.weights.size, "the profile has")
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    labels: dict = {}  # setting label -> the --forecasts path that has it
    for path in getattr(args, "forecasts", None) or ():  # evaluate and slp label files
        label = _setting_label(path)
        if label in labels:
            parser.error(f"--forecasts {labels[label]} and {path} share the setting "
                         f"label {label!r}")
        labels[label] = path
    try:
        return _COMMANDS[args.command](args)
    except (PanelError, copula.CopulaError, bt.ConfigError, OSError, ValueError) as exc:
        print(f"schaake: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
