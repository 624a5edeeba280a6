"""Smoke test of the solver benchmark at tiny sizes.

    python3 -m pytest perfbench

Every metric BENCHMARK.json declares is emitted with its unit, a KKT check
that cannot be met raises failed_frac, the traced run restores the solver's
functions and tolerates a missing layer, and the command fails without a
source tree.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import almpde.alm  # noqa: E402
import almpde.msa  # noqa: E402
import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    DECLARED = json.load(_fh)


def tiny_run(tmp_path, workload, trace=0, **kwargs):
    return bench.run(workload, seed=1, seconds=0, trace=trace, workdir=str(tmp_path),
                     tiny=True, **kwargs)


# End-to-end metrics every untraced run prints, declared or not.
PRINTED = {"solve_s": "s", "setup_s": "s", "outer_iters": "count",
           "inner_iters": "count", "peak_rss_mb": "MB", "failed_frac": "ratio",
           "solve_s.n": "count"}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    result = tiny_run(tmp_path, workload, trace)
    emitted = {**result["metrics"], **result["extras"]}
    expected = {e["name"]: e["unit"]
                for e in DECLARED["per_layer" if trace else "end_to_end"]}
    if not trace:
        expected.update(PRINTED)
    for name, unit in expected.items():
        value, emitted_unit = emitted[name]
        assert emitted_unit == unit, name
        assert math.isfinite(value), name
    assert result["correct"]
    assert result["attempted"] >= 2


def test_declared_workloads_are_the_benchmarks():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


def test_predictions_cite_declared_workloads_and_metrics():
    with open(os.path.join(HERE, "predictions.json")) as fh:
        predictions = json.load(fh)
    assert list(predictions["workloads"]) == list(workloads.WORKLOADS)
    per_layer = {entry["name"] for entry in DECLARED["per_layer"]}
    for prediction in predictions["predictions"]:
        assert set(prediction["metrics"]) <= per_layer, prediction["id"]


@pytest.mark.parametrize("workload, expected", [
    ("paper_sec5", 1.0),     # capped at max_outer, so never tolerance_met
    ("boundary_fine", 0.0),
    ("varcoef_batch", 0.0),
])
def test_failed_frac(tmp_path, workload, expected):
    result = tiny_run(tmp_path, workload)
    assert result["extras"]["failed_frac"][0] == expected
    assert result["failed"] == expected * result["attempted"]


def test_unmeetable_kkt_check_raises_failed_frac(tmp_path):
    strict = tiny_run(tmp_path, "boundary_fine", kkt_tol=0.0)
    assert strict["extras"]["failed_frac"][0] == 1.0
    assert all(any(f.startswith("stationarity") for f in s["failures"])
               for s in strict["solves"])
    # a missed tolerance is a failed solve, not a wrong measurement
    assert strict["correct"]


def test_traced_run_restores_functions_and_accounts_for_wall_time(tmp_path):
    result = tiny_run(tmp_path, "boundary_fine", trace=1)
    assert almpde.alm.msa_solve is almpde.msa.msa_solve
    assert not hasattr(almpde.msa.solve_forward, "__wrapped__")
    accounted, _ = result["metrics"]["trace.accounted_frac"]
    assert abs(accounted - 1.0) <= bench.ACCOUNTED_TOL
    assert os.path.getsize(tmp_path / "spans-boundary_fine.csv") > 0


def test_missing_layer_reports_zero_calls(tmp_path, monkeypatch):
    patches = tuple(("almpde.no_such_module",) + p[1:] if p[0] == "almpde.kernels" else p
                    for p in tracing.PATCHES)
    monkeypatch.setattr(tracing, "PATCHES", patches)
    result = tiny_run(tmp_path, "boundary_fine", trace=1)
    assert result["metrics"]["kernels.solve_calls"][0] == 0
    assert result["metrics"]["solvers.linear_solves"][0] > 0


def test_command_fails_without_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "boundary_fine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
