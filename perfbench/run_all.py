"""Run every workload of the solver benchmark, untraced then traced.

    python3 perfbench/run_all.py [--seed N] [--seconds S]

Each run is its own process, one at a time, so that peak_rss_mb is that of
the process that ran the workload.  Every run's metric lines are passed
through; a table of the end-to-end metrics and failed_frac closes the output.
Exits non-zero if any run fails or reports an incorrect result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    status = 0
    table = []
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            print(f"== {workload} trace={trace}", flush=True)
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="", flush=True)
            if proc.returncode != 0:
                status = 1
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            status = status if result["correct"] else 1
            if trace == 0:
                failed_frac = next(line.split()[1] for line in lines
                                   if line.startswith("failed_frac "))
                table.append((workload, result["metrics"], failed_frac))
    print("== end-to-end")
    for workload, metrics, failed_frac in table:
        cells = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        print(f"{workload}: " + "  ".join(cells) + f"  failed_frac={failed_frac} ratio")
    return status


if __name__ == "__main__":
    sys.exit(main())
