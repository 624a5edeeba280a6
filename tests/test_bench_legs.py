"""The benchmark's untraced legs at tiny sizes.

    python -m pytest tests/test_bench_legs.py

Each leg runs `bench.run` as `perfbench/test_smoke.py` does, with the
benchmark's modules importable as its own scripts import them
(`perfbench` on the path).  So the solve, the KKT check of the final result
and the comparison of repeated solves that `bench._solve` makes run on every
workload here too, where the smoke test, outside `tests/`, does not.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import bench  # noqa: E402
import workloads  # noqa: E402

# The tiny paper_sec5 input caps alm.max_outer, so each of its solves ends
# at max_outer, a failed solve; the other inputs are solved.
FAILED_FRAC = {"paper_sec5": 1.0, "boundary_fine": 0.0, "varcoef_batch": 0.0}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_tiny_leg(tmp_path, workload):
    result = bench.run(workload, seed=1, seconds=0, trace=0, workdir=str(tmp_path), tiny=True)
    assert result["correct"]
    assert result["attempted"] >= 2
    assert result["extras"]["failed_frac"] == (FAILED_FRAC[workload], "ratio")
