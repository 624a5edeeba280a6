"""Run one workload of the solver benchmark from the root of a source tree.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The solver is imported from ``src/`` of the tree this file sits in, never
from an installed copy; without it the run exits with code 2 before
measuring.  Every metric is printed as ``name value unit``, then one JSON
line with the metrics BENCHMARK.json declares: the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1``.  The full record (all
metrics, every solve, the environment) goes to
``perfbench/out/result-<workload>-trace<t>-seed<n>.json`` and, for a traced
run, the spans to ``perfbench/out/spans-<workload>.csv``.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# One solver thread: the BLAS/OpenMP pools are pinned before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMBA_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_solver():
    """Put ROOT/src first on the path and check almpde comes from there."""
    if not os.path.isfile(os.path.join(SRC, "almpde", "__init__.py")):
        raise ImportError(f"no solver source under {SRC}")
    sys.path.insert(0, SRC)
    import almpde
    if os.path.dirname(os.path.dirname(os.path.abspath(almpde.__file__))) != SRC:
        raise ImportError(f"almpde imported from {almpde.__file__}, not {SRC}")


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        import_solver()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"available: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    try:
        result = bench.run(args.workload, args.seed, args.seconds, args.trace, OUT)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result["environment"] = bench.environment()
    result["args"] = vars(args)
    path = os.path.join(OUT, f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)

    print("environment " + json.dumps(result["environment"]))
    for name, (value, unit) in {**result["metrics"], **result["extras"]}.items():
        print(f"{name} {value!r} {unit}")
    metrics = {}
    for entry in declared:
        value, unit = result["metrics"][entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
