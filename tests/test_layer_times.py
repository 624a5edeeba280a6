"""tools/layer_times.py at the smallest size."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("layer_times", _ROOT / "tools" / "layer_times.py")
layer_times = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layer_times)
_RUN_SPEC = importlib.util.spec_from_file_location("perfbench_run", _ROOT / "perfbench" / "run.py")
perfbench_run = importlib.util.module_from_spec(_RUN_SPEC)
_RUN_SPEC.loader.exec_module(perfbench_run)


def test_worker_runs_one_blas_thread_as_the_benchmark_does(monkeypatch):
    # with two OpenBLAS threads the first 65x65 factorization of a fresh
    # process can stall for about 0.9 s
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    env = layer_times.worker_env(_ROOT)
    assert set(layer_times.THREAD_VARS) == set(perfbench_run.THREAD_VARS)
    assert all(env[var] == "1" for var in perfbench_run.THREAD_VARS)
    assert env["PYTHONPATH"].split(os.pathsep)[0] == str(_ROOT / "src")


def test_parse_sizes():
    assert layer_times.parse_sizes("5x4, 17X16") == [(5, 4), (17, 16)]
    for bad in ("5", "1x4", "5x0", "5x4x3"):
        with pytest.raises(ValueError):
            layer_times.parse_sizes(bad)


def test_one_tree_writes_every_layer_per_round(tmp_path, capsys):
    out = tmp_path / "times.json"
    assert layer_times.main(["--tree", str(_ROOT), "--sizes", "5x4", "--rounds", "2",
                             "--repeat", "1", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    # one row per coefficient kind: variable coefficients on the banded
    # path, constant ones on the separable path, which has no banded solve
    results = record["results"]["tree0"]
    assert set(results) == {"5x4-var", "5x4-const"}
    assert results["5x4-const"]["solve_us"] == [None, None]
    printed = capsys.readouterr().out
    for size, layers in results.items():
        assert set(layers) == set(layer_times.LAYERS)
        assert {"solve_us", "objective_us", "kkt_us", "update_us", "start_fields",
                "cold_forward_us", "free_adjoint_us"} <= set(layers)
        assert all(len(values) == 2 for values in layers.values())
        assert all(min(values) > 0 for layer, values in layers.items()
                   if size == "5x4-var" or layer != "solve_us")
        # step_us is the two sweeps' time per implicit step
        for forward, adjoint, step in zip(layers["forward_us"], layers["adjoint_us"],
                                          layers["step_us"]):
            assert step == pytest.approx((forward + adjoint) / 8)
        # one inner iteration takes two adjoint sweeps and at least one
        # forward sweep besides its objectives: it is timed longer than any
        # one sweep
        for forward, adjoint, update in zip(layers["forward_us"], layers["adjoint_us"],
                                            layers["update_us"]):
            assert update > max(forward, adjoint)
        assert f"tree0  {size}" in printed
    # under the table, each row's largest round-to-round spread of its timed
    # layers: a change smaller than that is not resolved
    assert "largest round-to-round spread (max/min - 1) of the timed layers" in printed
    for size, layers in results.items():
        value, layer = layer_times.spread(layers)
        timed = [values for name, values in layers.items()
                 if name != "start_fields" and None not in values]
        assert value == max(max(values) / min(values) - 1 for values in timed) >= 0
        assert layer != "start_fields" and not (size == "5x4-const" and layer == "solve_us")
        assert f"tree0  {size:<11} {100 * value:>8.1f}%  {layer}\n" in printed


def test_spread_is_the_widest_timed_layer():
    layers = dict.fromkeys(layer_times.LAYERS, [1.0, 1.0])
    layers.update(solve_us=[None, None], kkt_us=[2.0, 3.0], update_us=[4.0, 5.0],
                  start_fields=[1.0, 9.0])
    assert layer_times.spread(layers) == (0.5, "kkt_us")


def test_each_timed_layer_has_its_own_spread():
    layers = dict.fromkeys(layer_times.LAYERS, [1.0, 1.0])
    layers.update(solve_us=[None, None], kkt_us=[2.0, 3.0], update_us=[4.0, 5.0],
                  start_fields=[1.0, 9.0])
    spreads = layer_times.layer_spreads(layers)
    assert set(spreads) == set(layer_times.LAYERS)
    assert spreads["kkt_us"] == 0.5 and spreads["update_us"] == 0.25
    assert spreads["forward_us"] == 0.0
    assert spreads["solve_us"] is None and spreads["start_fields"] is None


def test_order_tells_whether_every_round_of_the_second_tree_is_below_or_above():
    assert layer_times.order([3.0, 4.0, 5.0], [1.0, 2.0, 2.9]) == "lower"
    assert layer_times.order([3.0, 4.0, 5.0], [5.1, 6.0, 9.0]) == "higher"
    # one round on the other side, or a tie, is an overlap
    assert layer_times.order([3.0, 4.0, 5.0], [1.0, 2.0, 3.5]) == "overlap"
    assert layer_times.order([3.0, 4.0], [3.0, 2.0]) == "overlap"
    assert layer_times.order([None, None], [None, None]) == "-"


def test_two_tree_table_resolves_one_layer_behind_a_noisy_one():
    # factor_ms spreads 100% in both trees, while every round of the second
    # tree's free_adjoint_us lies below every round of the first
    def rounds(free_adjoint):
        layers = dict.fromkeys(layer_times.LAYERS, [10.0, 10.0, 10.0])
        layers.update(factor_ms=[0.1, 0.2, 0.15], solve_us=[None] * 3,
                      free_adjoint_us=free_adjoint)
        return {"33x32-const": layers}

    record = {"trees": {"tree0": "/a", "tree1": "/b"},
              "results": {"tree0": rounds([250.0, 255.0, 260.0]),
                          "tree1": rounds([165.0, 167.0, 170.0])},
              layer_times.FAULTS: {"tree0": {"33x32-const": [0, 0, 0]},
                                   "tree1": {"33x32-const": [0, 0, 0]}}}
    lines = layer_times.table(record)
    columns = lines[2].split()[2:]
    assert columns[:len(layer_times.LAYERS)] == list(layer_times.LAYERS)

    def row(title, label):
        start = lines.index(title)
        line = next(line for line in lines[start:] if line.startswith(label))
        return dict(zip(layer_times.LAYERS, line.split()[2:]))

    spreads = row("round-to-round spread (max/min - 1) of each timed layer", "tree1")
    assert spreads["factor_ms"] == "100.0%" and spreads["free_adjoint_us"] == "3.0%"
    assert spreads["solve_us"] == "-" and spreads["start_fields"] == "-"
    widest = row("largest round-to-round spread (max/min - 1) of the timed layers", "tree1")
    assert list(widest.values()) == ["100.0%", "factor_ms"]
    orders = row("rounds of tree1 against every round of tree0 (lower, higher or overlap)",
                 "tree1")
    assert orders["free_adjoint_us"] == "lower" and orders["factor_ms"] == "overlap"
    assert orders["solve_us"] == "-" and orders["forward_us"] == "overlap"
    assert orders["start_fields"] == "-"
    # with one tree there is nothing to order
    one = dict(record, trees={"tree0": "/a"}, results={"tree0": record["results"]["tree0"]})
    assert not any(line.startswith("rounds of") for line in layer_times.table(one))


def test_later_minflt_counts_the_faults_of_updates_3_to_6_of_one_solve(tmp_path, capsys):
    # one value per row and round: at 5x4 the solve takes all 6 updates, so
    # each row reads a number
    out = tmp_path / "times.json"
    assert layer_times.main(["--tree", str(_ROOT), "--sizes", "5x4", "--rounds", "1",
                             "--repeat", "1", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    later = record[layer_times.LATER_FAULTS]["tree0"]
    assert set(later) == {"5x4-var", "5x4-const"}
    assert all(len(values) == 1 and isinstance(values[0], float)
               for values in later.values())
    printed = capsys.readouterr().out
    title = next(line for line in printed.splitlines()
                 if line.startswith(layer_times.LATER_FAULTS))
    assert "updates 3-6" in title
    # a row whose solve stopped before 6 updates reads a dash
    record[layer_times.LATER_FAULTS]["tree0"]["5x4-var"] = [None]
    lines = layer_times.table(record)
    start = lines.index(title)
    assert lines[start + 1].split() == ["tree0", "5x4-var", "-"]
