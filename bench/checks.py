"""Output checks shared by the untraced and the traced benchmark runs.

Each check reads the files the three CLI steps wrote and returns a list of
problems (empty when the outputs are right).  The checks hold for every
correct backtest on inputs without tied values:

- paired settings (``Schaake-X`` / ``I-X``) share margins, so their daily
  ``crps_mean`` is bitwise equal and each day's hour columns in their
  forecast CSVs hold the same multiset of values;
- ``schaake evaluate`` rescoring the forecast CSVs reproduces the backtest's
  ``scores.csv`` and ``rank_histograms.csv`` rows;
- rank-histogram counts sum to the number of scored days;
- ``schaake slp`` coverage lies in [0, 1] over the number of scored days;
- ``Schaake-Raw`` with m equal to the dependence window reorders each hour's
  ensemble back into the window's historical error vectors, so its daily ES
  and CRPS equal those of ``reference_scores``, computed here independently.
"""
from __future__ import annotations

import csv
import hashlib
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

SETTINGS = ("Schaake-NP", "Schaake-P", "Schaake-Raw", "I-NP", "I-P", "I-Raw")
PAIRS = (("Schaake-NP", "I-NP"), ("Schaake-P", "I-P"), ("Schaake-Raw", "I-Raw"))
# the reference sums in another order than schaake.scoring
REFERENCE_RTOL = 1e-9


def read_rows(path: Path) -> list:
    """Rows of a CSV file after its header."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _forecast_days(path: Path) -> dict:
    """{date: (m, 24) member matrix} of one forecasts CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    dates = [line.split(",", 1)[0] for line in lines]
    values = np.array([line.split(",")[2:] for line in lines], dtype=float)
    days = defaultdict(list)
    for i, date in enumerate(dates):
        days[date].append(i)
    return {date: values[idx] for date, idx in days.items()}


def scored_pairs(scores_csv: Path) -> set:
    """(setting, ISO date) pairs with a row in ``scores.csv``."""
    return {(row[1], row[0]) for row in read_rows(scores_csv)}


def score_means(scores_csv: Path) -> tuple:
    """(mean daily ES, mean daily CRPS) over every row of ``scores.csv``."""
    rows = read_rows(scores_csv)
    return (float(np.mean([float(r[2]) for r in rows])),
            float(np.mean([float(r[3]) for r in rows])))


def dm_cells_unparsed(dm_csv: Path) -> int:
    """Non-empty statistic / p-value cells of ``dm_tests.csv`` that are not floats."""
    count = 0
    for row in read_rows(dm_csv):
        for cell in row[3:5]:
            if not cell:
                continue
            try:
                float(cell)
            except ValueError:
                count += 1
    return count


def digest(path: Path) -> str:
    """Hash of a file's bytes."""
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


def reference_scores(real: np.ndarray, fc: np.ndarray, first: int, window: int) -> tuple:
    """Daily (ES, mean CRPS) of the raw-climatology ensemble for days ``first``...

    The ensemble for day t is the point forecast plus each of the ``window``
    error vectors of the days before t.
    """
    errors = real - fc
    es, crps = [], []
    for t in range(first, real.shape[0]):
        x = fc[t] + errors[t - window:t]
        y = real[t]
        m = x.shape[0]
        pair = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2).sum()
        es.append(np.linalg.norm(x - y, axis=1).mean() - pair / (2.0 * m * m))
        spread = np.abs(x[:, None, :] - x[None, :, :]).sum(axis=(0, 1))
        crps.append(np.mean(np.abs(x - y).mean(axis=0) - spread / (2.0 * m * m)))
    return np.array(es), np.array(crps)


def check_outputs(bt_dir: Path, ev_dir: Path, slp_csv: Path, reference: dict) -> list:
    """Problems found in the outputs of one backtest -> evaluate -> slp pass.

    ``reference`` maps ISO date -> (ES, mean CRPS) from :func:`reference_scores`.
    """
    problems = []
    try:
        problems += _check_reference(bt_dir, reference)
        problems += _check_backtest(bt_dir)
        problems += _check_evaluate(bt_dir, ev_dir)
        problems += _check_slp(bt_dir, slp_csv)
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems


def _days_per_setting(scores_csv: Path) -> Counter:
    return Counter(row[1] for row in read_rows(scores_csv))


def _check_reference(bt_dir: Path, reference: dict) -> list:
    problems = []
    for date, _setting, es, crps in (r for r in read_rows(bt_dir / "scores.csv")
                                     if r[1] == "Schaake-Raw"):
        ref_es, ref_crps = reference[date]
        if not (np.isclose(float(es), ref_es, rtol=REFERENCE_RTOL, atol=0.0)
                and np.isclose(float(crps), ref_crps, rtol=REFERENCE_RTOL, atol=0.0)):
            problems.append(f"Schaake-Raw scores on {date} differ from the reference: "
                            f"ES {es} vs {ref_es!r}, CRPS {crps} vs {ref_crps!r}")
    return problems


def _check_backtest(bt_dir: Path) -> list:
    problems = []
    crps = {(row[1], row[0]): row[3] for row in read_rows(bt_dir / "scores.csv")}
    for a, b in PAIRS:
        for (setting, date), value in crps.items():
            if setting == a and (b, date) in crps and crps[(b, date)] != value:
                problems.append(f"crps_mean of {a} and {b} differ on {date}")
        days_a = _forecast_days(bt_dir / f"forecasts_{a}.csv")
        days_b = _forecast_days(bt_dir / f"forecasts_{b}.csv")
        if days_a.keys() != days_b.keys():
            problems.append(f"forecasts_{a}.csv and forecasts_{b}.csv cover different days")
        for date in days_a.keys() & days_b.keys():
            if not np.array_equal(np.sort(days_a[date], axis=0), np.sort(days_b[date], axis=0)):
                problems.append(f"hour multisets of {a} and {b} differ on {date}")
    return problems


def _check_evaluate(bt_dir: Path, ev_dir: Path) -> list:
    problems = []
    for name in ("scores.csv", "rank_histograms.csv"):
        backtest_rows = {tuple(r) for r in read_rows(bt_dir / name)}
        evaluate_rows = {tuple(r) for r in read_rows(ev_dir / name)}
        if backtest_rows != evaluate_rows:
            problems.append(f"{name}: {len(backtest_rows ^ evaluate_rows)} rows differ "
                            "between backtest and evaluate")
    days = _days_per_setting(bt_dir / "scores.csv")
    totals = defaultdict(int)
    for setting, hour, _bin, count in read_rows(bt_dir / "rank_histograms.csv"):
        totals[(setting, hour)] += int(count)
    for (setting, hour), total in totals.items():
        if total != days[setting]:
            problems.append(f"rank histogram {setting} hour {hour} sums to {total}, "
                            f"not {days[setting]} scored days")
    return problems


def _check_slp(bt_dir: Path, slp_csv: Path) -> list:
    problems = []
    days = _days_per_setting(bt_dir / "scores.csv")
    rows = read_rows(slp_csv)
    if sorted(r[0] for r in rows) != sorted(SETTINGS):
        problems.append(f"slp reports settings {[r[0] for r in rows]}")
    for setting, _nominal, coverage, n_days in rows:
        if not 0.0 <= float(coverage) <= 1.0:
            problems.append(f"slp coverage {coverage} of {setting} outside [0, 1]")
        if int(n_days) != days[setting]:
            problems.append(f"slp counts {n_days} days for {setting}, "
                            f"not {days[setting]} scored days")
    return problems
