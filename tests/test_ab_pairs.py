"""The statistics of tools/ab_pairs.py, on synthetic numbers (no benchmark runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def test_summary_median_and_quartiles():
    s = ab_pairs.summary([5.0, 1.0, 3.0, 2.0, 4.0])
    # statistics.quantiles, n = 4, exclusive method: 1.5 and 4.5
    assert (s["median"], s["q1"], s["q3"]) == (3.0, 1.5, 4.5)
    assert s["runs"] == [5.0, 1.0, 3.0, 2.0, 4.0]
    one = ab_pairs.summary([7.0])
    assert (one["median"], one["q1"], one["q3"]) == (7.0, 7.0, 7.0)


def test_compare_counts_pairs_won_and_tied():
    parent = [1.0, 1.0, 1.0, 1.0]
    change = [0.5, 1.0, 2.0, 0.9]
    c = ab_pairs.compare(parent, change, "ref")
    assert c["change_lower_in_pairs"] == 2 and c["ties"] == 1 and c["unit"] == "ref"
    assert c["parent"]["median"] == 1.0 and c["change"]["median"] == 0.95
    with pytest.raises(ValueError):
        ab_pairs.compare([1.0], [1.0, 2.0], "s")


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_spread():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    won = ab_pairs.compare(parent, [0.8] * 10, "ref")
    assert ab_pairs.claim_holds(won)
    # nine of ten pairs still hold
    nine = ab_pairs.compare(parent, [0.8] * 9 + [1.5], "ref")
    assert nine["change_lower_in_pairs"] == 9 and ab_pairs.claim_holds(nine)
    eight = ab_pairs.compare(parent, [0.8] * 8 + [1.5, 1.5], "ref")
    assert not ab_pairs.claim_holds(eight)
    # every pair won, but by less than the parent's quartile spread
    close = ab_pairs.compare(parent, [p - 0.001 for p in parent], "ref")
    assert close["change_lower_in_pairs"] == 10 and not ab_pairs.claim_holds(close)


def test_parse_output_reads_the_summary_line_and_extras():
    summary = {"correct": True, "attempted": 4, "failed": 0,
               "metrics": {"solve_ref": {"value": 0.5, "unit": "ref"}}}
    text = "\n".join([
        'environment {"nproc": 2, "python": "3.11.7"}',
        "solve_ref 0.5 ref",
        "failed_frac 0.0 ratio",
        json.dumps(summary),
    ])
    result, env, extras = ab_pairs.parse_output(text)
    assert result == summary and env["nproc"] == 2
    assert extras == {"solve_ref": 0.5, "failed_frac": 0.0}
    with pytest.raises(ValueError, match="no JSON"):
        ab_pairs.parse_output("solve_ref 0.5 ref\n")


def test_verdict_is_regressed_beyond_the_bound_of_the_parent_median():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    worse = ab_pairs.compare(parent, [1.3] * 10, "ref")
    assert ab_pairs.verdict(worse, "lower", 0.25) == "regressed"
    # within the bound, and the parent's runs spread less than it
    assert ab_pairs.verdict(ab_pairs.compare(parent, [1.2] * 10, "ref"), "lower", 0.25) == "holds"
    # for a higher-is-better metric the same numbers are a gain, and a fall
    # beyond the bound is the regression
    assert ab_pairs.verdict(worse, "higher", 0.25) == "holds"
    fell = ab_pairs.compare(parent, [0.7] * 10, "ratio")
    assert ab_pairs.verdict(fell, "higher", 0.25) == "regressed"


def test_verdict_is_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # the parent's quartiles 0.8 and 1.2 spread 40% of its median 1.0
    parent = [0.7, 0.8, 0.8, 0.9, 1.0, 1.0, 1.1, 1.2, 1.2, 1.3]
    spread = ab_pairs.compare(parent, [1.05] * 10, "s")
    assert (spread["parent"]["q3"] - spread["parent"]["q1"]) / spread["parent"]["median"] > 0.25
    assert ab_pairs.verdict(spread, "lower", 0.25) == "unresolved"
    # unless every change run is better than every parent run
    below = ab_pairs.compare(parent, [0.6] * 10, "s")
    assert ab_pairs.verdict(below, "lower", 0.25) == "holds"
    above = ab_pairs.compare(parent, [1.4] * 10, "s")
    assert ab_pairs.verdict(above, "higher", 0.25) == "holds"
    # a regression beyond the bound is one, however wide the spread
    assert ab_pairs.verdict(ab_pairs.compare(parent, [1.3] * 10, "s"), "lower", 0.25) == "regressed"


def test_verdict_of_a_count_that_reads_zero():
    # varcoef_batch takes 0 inner iterations: equal zeros hold, any rise
    # regresses
    zeros = [0.0] * 10
    assert ab_pairs.verdict(ab_pairs.compare(zeros, zeros, "count"), "lower", 0.1) == "holds"
    assert ab_pairs.verdict(ab_pairs.compare(zeros, [1.0] * 10, "count"), "lower", 0.1) == "regressed"


def test_declared_metrics_carry_direction_and_bound():
    metrics = ab_pairs.declared_metrics(_PATH.parents[1])
    assert metrics and all({"name", "better", "bound"} <= set(m) for m in metrics)
