#!/usr/bin/env python3
"""Backtest benchmark: ``schaake backtest`` -> ``evaluate`` -> ``slp`` on generated panels.

Run from the repository root:

    python3 bench/run_bench.py --workload sarima-block --seed 1 --seconds 34 --trace 0
    python3 bench/run_bench.py --workload all --seed 1 --seconds 34

Set-up generates the workload's error panels from ``--seed`` with
``tests/_simulate.py``, writes ``real.csv``, ``fc.csv`` and the config JSON and
imports ``schaake``; it is repeated and its median reported as ``setup_s``.
The three CLI steps then run in-process through ``schaake.cli.main``, once
per panel and then round the panels again while ``--seconds`` last; each
step's time is the mean over those passes.  Every pass's outputs are checked
(checks.py).  With ``--trace 1`` passes alternate between untraced and traced
on the same panel (spans.py); the per-layer metrics are medians over the
traced passes.  bench/README.md defines every metric and records a baseline.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs and outputs live
under ``.bench_work/`` in the repository root; a record of each run (the
environment, every pass, the spans) stays in ``.bench_work/results/``.
"""
import os

# One BLAS thread per process, so that --jobs 2 means two busy threads on two
# cores.  OpenBLAS reads these when numpy loads, so they are set first.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

ERROR_WINDOW = 364
WINDOW = 90  # margin and dependence window, so ensembles have m = 90 members
RHO = 0.6    # cross-hour equicorrelation of the simulated errors
MIN_SETUPS = 12  # set-ups timed per run; setup_s is their median
# evaluate and slp run again in a pass until they took MIN_STEP_SECONDS, at most
# MAX_REPEATS times; a step's time is the mean over those runs
MIN_STEP_SECONDS = 1.0
MAX_REPEATS = 4
STEPS = ("backtest", "evaluate", "slp")
MAX_PRINTED_PROBLEMS = 10
TRACED_MODULES = ("backtest", "cli", "copula", "filters", "forecast", "loadprofile",
                  "margins", "scoring")
FILTERED = ("Schaake-NP", "Schaake-P", "I-NP", "I-P")


@dataclass(frozen=True)
class Workload:
    errors: str        # "argarch": AR-GARCH errors, "iid": 3 * equicorrelated normals
    panels: int        # independent panels per run, each with its own sub-seed
    eval_days: int     # evaluation days per panel
    refit_every: int
    jobs: int
    sarima: bool = False  # the four AR-GARCH settings switched to a seasonal AR


# BENCHMARK.json records why each workload exists and the layer shares it had
# on the seed code.  Fit cost and score level depend on the drawn errors, so a
# run averages over several independent panels instead of timing one panel.
WORKLOADS = {
    # the paper's configuration; AR-GARCH fits dominate the backtest.  Two eval
    # days per panel, the fewest the backtest's DM tests accept
    "argarch-daily": Workload("argarch", panels=7, eval_days=2, refit_every=1, jobs=1),
    # fits are cheap; the day kernel and the forecast CSV write and reads dominate
    "sarima-block": Workload("argarch", panels=4, eval_days=60, refit_every=25, jobs=1,
                             sarima=True),
    # no volatility clustering, so Nelder-Mead restarts often; runs the process pool
    "iid-block-jobs2": Workload("iid", panels=3, eval_days=50, refit_every=25, jobs=2),
}


@dataclass
class Panel:
    """One generated input: its directory, eval dates and reference scores."""
    work: Path
    seed: int
    reference: dict  # ISO date -> (ES, mean CRPS) of the raw-climatology ensemble


def _schaake_present() -> bool:
    return (ROOT / "src" / "schaake" / "cli.py").is_file() and \
        (ROOT / "tests" / "_simulate.py").is_file()


def _config(w: Workload, seed: int) -> dict:
    cfg = {"error_window": ERROR_WINDOW, "margin_window": WINDOW,
           "dependence_window": WINDOW, "refit_every": w.refit_every, "seed": seed}
    if w.sarima:
        cfg["filters"] = {name: {"kind": "sarima", "seasonal_period": 7} for name in FILTERED}
    return cfg


def setup(w: Workload, seed: int, work: Path):
    """Import schaake afresh, generate one panel and write its inputs.

    Returns (schaake.cli module, realization panel, forecast panel, seconds taken).
    """
    for name in [m for m in sys.modules if m.split(".")[0] in ("schaake", "_simulate")]:
        del sys.modules[name]
    start = time.perf_counter()
    cli = importlib.import_module("schaake.cli")
    sim = importlib.import_module("_simulate")
    n_days = ERROR_WINDOW + w.eval_days
    if w.errors == "argarch":
        errors = sim.argarch_copula_errors(n_days, RHO, seed)
    else:
        errors = 3.0 * sim.equicorrelated_normals(n_days, RHO, seed)
    real, fc = sim.panels_from_errors(errors)
    work.mkdir(parents=True, exist_ok=True)
    panel = importlib.import_module("schaake.panel")
    panel.save_panel(real, work / "real.csv")
    panel.save_panel(fc, work / "fc.csv")
    (work / "config.json").write_text(json.dumps(_config(w, seed)), encoding="utf-8")
    return cli, real, fc, time.perf_counter() - start


def make_panel(real, fc, seed: int, work: Path) -> Panel:
    es, crps = checks.reference_scores(real.values, fc.values, ERROR_WINDOW, WINDOW)
    dates = [d.isoformat() for d in real.dates[ERROR_WINDOW:]]
    return Panel(work, seed, dict(zip(dates, zip(es.tolist(), crps.tolist()))))


def _invoke(main, argv) -> int:
    """Exit code of one CLI step; its standard output is discarded."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed step, reported and counted
        traceback.print_exc()
        return -1


def run_pass(cli, panel: Panel, jobs: int, tracer=None, pass_id=0) -> dict:
    """One backtest -> evaluate -> slp pass; step times, exit codes, check results."""
    work = panel.work
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    bt_dir, ev_dir, slp_csv = out / "backtest", out / "evaluate", out / "slp.csv"
    real = str(work / "real.csv")
    fc_args = []
    for setting in checks.SETTINGS:
        fc_args += ["--forecasts", str(bt_dir / f"forecasts_{setting}.csv")]
    argvs = {
        "backtest": ["backtest", "--real", real, "--forecast", str(work / "fc.csv"),
                     "--config", str(work / "config.json"), "--out-dir", str(bt_dir),
                     "--jobs", str(jobs)],
        "evaluate": ["evaluate", "--real", real, *fc_args, "--out-dir", str(ev_dir)],
        "slp": ["slp", "--real", real, *fc_args, "--out", str(slp_csv)],
    }
    main = cli.main
    if tracer is not None:
        main = tracer.wrap(spans.CLI_SPAN, cli.main)
        tracer.install({mod: sys.modules[f"schaake.{mod}"] for mod in TRACED_MODULES})
    seconds, codes = {}, {}
    try:
        for step in STEPS:
            if tracer is not None:
                tracer.run_id = f"{pass_id}:{step}"
            # the short steps repeat, untraced, so that noise averages out
            repeats = MAX_REPEATS if step != "backtest" and tracer is None else 1
            total, runs, codes[step] = 0.0, 0, 0
            gc.collect()  # leave no garbage of earlier steps or checks to this step
            while codes[step] == 0 and runs < repeats and (runs == 0 or total < MIN_STEP_SECONDS):
                start = time.perf_counter()
                codes[step] = _invoke(main, argvs[step])
                total += time.perf_counter() - start
                runs += 1
            seconds[step] = total / runs
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {"panel_seed": panel.seed, "traced": tracer is not None, "seconds": seconds,
              "codes": codes,
              "problems": [f"{step} exited {code}" for step, code in codes.items() if code != 0]}
    if not record["problems"]:
        record["problems"] = checks.check_outputs(bt_dir, ev_dir, slp_csv, panel.reference)
    scores = bt_dir / "scores.csv"
    if scores.is_file():
        record["scored"] = checks.scored_pairs(scores)
        record["scores_digest"] = checks.digest(scores)
        record["es"], record["crps"] = checks.score_means(scores)
    skipped = bt_dir / "skipped_days.csv"
    record["skipped"] = len(checks.read_rows(skipped)) if skipped.is_file() else 0
    record["dm_cells_unparsed"] = {
        step: checks.dm_cells_unparsed(d / "dm_tests.csv")
        for step, d in (("backtest", bt_dir), ("evaluate", ev_dir))
        if (d / "dm_tests.csv").is_file()}
    return record


def _failed_pairs(record: dict, panel: Panel, digests: dict) -> int:
    """Pairs of one pass counted failed: unscored ones, or all when a step or check failed."""
    expected = {(s, d) for s in checks.SETTINGS for d in panel.reference}
    if not record["problems"] and digests.setdefault(panel.seed, record["scores_digest"]) \
            != record["scores_digest"]:
        record["problems"].append("scores.csv differs from an earlier pass on the same panel")
    if record["problems"]:
        return len(expected)
    return len(expected - record["scored"])


def _env(seed: int) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "seed": seed,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"]}


def _loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the reaped pool workers
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    env = _env(seed)
    env["loadavg_start"] = _loadavg()
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    panels, setup_times = [], []
    for i in range(max(w.panels, MIN_SETUPS)):
        k = i % w.panels
        cli, real, fc, elapsed = setup(w, 1000 * seed + k, work / f"panel{k}")
        setup_times.append(elapsed)
        if i < w.panels:
            panels.append(make_panel(real, fc, 1000 * seed + k, work / f"panel{k}"))
    notes = []
    if trace and w.jobs != 1:
        notes.append(f"traced run uses --jobs 1, not --jobs {w.jobs}: spans inside pool "
                     "workers are out of reach from the benchmark's files")
    tracer = spans.Tracer() if trace else None
    # untraced: every panel once, then round again while time remains;
    # traced: an untraced and a traced pass on the same panel, at least once
    passes, failed, attempted, digests = [], 0, 0, {}
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        panel = panels[(len(passes) // 2 if trace else len(passes)) % len(panels)]
        traced = trace and len(passes) % 2 == 1
        record = run_pass(cli, panel, 1 if trace else w.jobs,
                          tracer if traced else None, len(passes))
        failed += _failed_pairs(record, panel, digests)
        attempted += len(checks.SETTINGS) * len(panel.reference)
        passes.append(record)
        now = time.perf_counter()
        minimum = 2 if trace else len(panels)
        if len(passes) >= minimum and (len(passes) % 2 == 0 or not trace) \
                and now + (2 if trace else 1) * (now - start) > deadline:
            break
    env["loadavg_end"] = _loadavg()

    if trace:
        metrics = _layer_metrics(tracer, passes)
    else:
        metrics = _end_to_end_metrics(panels, passes, setup_times, failed, attempted)
    problems = sorted({p for rec in passes for p in rec["problems"]})
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    _write_record(name, seed, trace, env, notes, setup_times, passes, problems, result, tracer)
    shutil.rmtree(work, ignore_errors=True)
    return {"env": env, "notes": notes, "problems": problems, "passes": len(passes),
            "result": result}


def _end_to_end_metrics(panels, passes, setup_times, failed, attempted) -> dict:
    """Step times are means over the passes; scores come from each panel's first pass."""
    step_s = {step: statistics.fmean(r["seconds"][step] for r in passes) for step in STEPS}
    first = [next(r for r in passes if r["panel_seed"] == p.seed) for p in panels]
    first = [r for r in first if "es" in r]
    ref = [v for p in panels for v in p.reference.values()]
    ref_es, ref_crps = (statistics.fmean(col) for col in zip(*ref))
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "backtest_s": (step_s["backtest"], "s"),
        "evaluate_s": (step_s["evaluate"], "s"),
        "slp_s": (step_s["slp"], "s"),
        "scored_share": (1.0 - failed / attempted, "ratio"),
        "rel_es": (statistics.fmean(r["es"] for r in first) / ref_es if first else 0.0, "ratio"),
        "rel_crps": (statistics.fmean(r["crps"] for r in first) / ref_crps if first else 0.0,
                     "ratio"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def _layer_metrics(tracer, passes) -> dict:
    """Per-step layer metrics: medians over the traced passes."""
    per_pass = []
    for i in range(1, len(passes), 2):
        plain, traced = passes[i - 1], passes[i]
        values = {}
        for step in STEPS:
            layer = tracer.layer_metrics(f"{i}:{step}")
            step_s = traced["seconds"][step]
            layer["backtest.skipped"] = traced["skipped"]
            layer["cli.dm_cells_unparsed"] = traced["dm_cells_unparsed"].get(step, 0)
            layer["trace.overhead_share"] = step_s / plain["seconds"][step] - 1.0
            layer["filters.share"] = (layer["filters.fit_s"] + layer["filters.output_s"]) / step_s
            layer["forecast.read_share"] = layer["forecast.read_s"] / step_s
            for metric, _unit in spans.STEP_METRICS[step]:
                values[f"{step}.{metric}"] = layer[metric]
        per_pass.append(values)
    units = {f"{step}.{m}": u for step, ms in spans.STEP_METRICS.items() for m, u in ms}
    return {k: (statistics.median(v[k] for v in per_pass), units[k]) for k in units}


def _write_record(name, seed, trace, env, notes, setup_times, passes, problems,
                  result, tracer) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    record = {"workload": name, "env": env, "notes": notes,
              "setup_s": setup_times, "problems": problems, "result": result,
              "passes": [{k: v for k, v in p.items() if k != "scored"} for p in passes]}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write_csv(results / f"{stem}-spans.csv")


def _print_report(name: str, trace: bool, report: dict) -> None:
    env = report["env"]
    print(f"# {name} seed={env['seed']} trace={int(trace)} passes={report['passes']} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} loadavg {env['loadavg_start']} -> {env['loadavg_end']}")
    for note in report["notes"]:
        print(f"# note: {note}")
    for problem in report["problems"][:MAX_PRINTED_PROBLEMS]:
        print(f"# FAILED CHECK: {problem}")
    if len(report["problems"]) > MAX_PRINTED_PROBLEMS:
        print(f"# ... {len(report['problems']) - MAX_PRINTED_PROBLEMS} more in the run record")
    for metric, entry in report["result"]["metrics"].items():
        print(f"{metric:40s} {entry['value']:14.6g} {entry['unit']}")


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"# {name} trace={trace} exited {proc.returncode}")
                combined["correct"] = False
                continue
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _schaake_present():
        print(f"bench: no schaake sources under {ROOT}/src and {ROOT}/tests", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(args.workload, bool(args.trace), report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
