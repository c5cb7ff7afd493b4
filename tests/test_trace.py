"""The benchmark's span tracer (bench/spans.py) counts the backtest's filter calls."""
import importlib
import importlib.util
import json
import math
from pathlib import Path

from _simulate import iid_error_panels
from schaake import cli
from schaake.panel import save_panel

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_one_fit_per_block_and_one_pass_per_day(tmp_path):
    spans = load_spans()
    real, fc = iid_error_panels(126, rho=0.5, seed=20)
    save_panel(real, tmp_path / "real.csv")
    save_panel(fc, tmp_path / "fc.csv")
    # 6 evaluation days in blocks of 4: 2 blocks; the specs are AR-GARCH,
    # seasonal AR and raw, two of them fitted
    cfg = {"error_window": 120, "margin_window": 40, "dependence_window": 40,
           "refit_every": 4, "filters": {name: {"kind": "sarima", "seasonal_period": 7}
                                         for name in ("Schaake-P", "I-P")}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    modules = {name: importlib.import_module(f"schaake.{name}")
               for name in ("backtest", "cli", "copula", "filters", "forecast",
                            "loadprofile", "margins", "scoring")}
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        tracer.run_id = "backtest"
        rc = cli.main(["backtest", "--real", str(tmp_path / "real.csv"),
                       "--forecast", str(tmp_path / "fc.csv"),
                       "--config", str(tmp_path / "cfg.json"),
                       "--out-dir", str(tmp_path / "out"), "--jobs", "1"])
    finally:
        tracer.uninstall()
    assert rc == 0
    metrics = tracer.layer_metrics("backtest")
    assert metrics["filters.fit_calls"] == 2 * 2
    assert metrics["filters.output_calls"] == 6 * 3
    assert metrics["filters.fit_failed"] == 0
    assert math.isfinite(metrics["filters.fit_nll"])
    # one reorder per setting and day; one rank matrix per Schaake-NP and
    # Schaake-Raw day, one Gaussian copula per Schaake-P day
    assert metrics["forecast.reorder_calls"] == 6 * 6
    assert metrics["copula.rank_calls"] == 2 * 6
    assert metrics["copula.gauss_fit_calls"] == 6
