"""Alternated A/B runs of the solver benchmark on two source trees.

    python3 tools/ab_pairs.py --parent <tree> --change <tree> --label <name> \
        --workload <w> --pairs <n> --seed-base <s> [--seconds 20] \
        [--traced-seed <s>] [--claim solve_ref] [--out BENCH_<name>.json]

Pair i runs ``perfbench/run.py --workload <w> --seed <seed-base + i>
--seconds <seconds> --trace 0`` once in each tree, the parent first when i is
even and the change first when i is odd, so that a drift of the host's
speed does not favour one side.  Every end-to-end metric that the change
tree's BENCHMARK.json declares is summarised per side (median and
quartiles, `statistics.quantiles` with n = 4) and compared pair by pair:
``change_lower_in_pairs`` counts the pairs where the change reads lower,
``ties`` the pairs where both read the same.  With --traced-seed, each side
also makes one traced run (--trace 1), whose per-layer metrics are recorded
as they are.

The record goes to --out (default BENCH_<label>.json in the current
directory).  An existing record there keeps its other workloads, so one
file can collect several invocations.  A --claim metric (lower is better)
gets a verdict: it holds when the change wins at least nine tenths of the
pairs and its median lies below the parent's by more than the parent's
quartile spread.

Every end-to-end metric also gets a no-regression verdict (`verdict`), from
the direction (``better``) and ``bound`` the change tree's BENCHMARK.json
declares for it: ``regressed`` when the change's median is worse than the
parent's by more than bound times the parent's median; else ``unresolved``
when the parent's quartile spread (q3 - q1) / median is wider than the
bound and not every change run is better than every parent run; else
``holds``.

Only the standard library is used, and nothing under either tree is written
but what perfbench/run.py writes itself (its git-ignored ``perfbench/out/``).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WIN_SHARE = 0.9
ENV_KEYS = ("nproc", "affinity", "python", "numpy", "scipy")


def summary(runs):
    """Median and quartiles of one side's runs, with the runs themselves."""
    runs = list(runs)
    if len(runs) >= 2:
        q1, _, q3 = statistics.quantiles(runs, n=4)
    else:
        q1 = q3 = runs[0]
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def compare(parent_runs, change_runs, unit):
    """Both sides' summaries and the pair counts, pair i being the i-th run
    of each side."""
    if len(parent_runs) != len(change_runs):
        raise ValueError("each pair needs one run per side")
    lower = sum(1 for a, b in zip(parent_runs, change_runs) if b < a)
    ties = sum(1 for a, b in zip(parent_runs, change_runs) if b == a)
    return {"parent": summary(parent_runs), "change": summary(change_runs),
            "change_lower_in_pairs": lower, "ties": ties, "unit": unit}


def claim_holds(entry):
    """Whether a lower-is-better gain is shown: the change wins at least
    WIN_SHARE of the pairs, and the medians differ by more than the parent's
    quartile spread."""
    pairs = len(entry["parent"]["runs"])
    parent, change = entry["parent"], entry["change"]
    return (entry["change_lower_in_pairs"] >= WIN_SHARE * pairs
            and parent["median"] - change["median"] > parent["q3"] - parent["q1"])


def verdict(entry, better, bound):
    """The no-regression verdict of one metric's comparison: "regressed",
    "unresolved" or "holds" (module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    parent, change = entry["parent"], entry["change"]
    base = parent["median"]
    if sign * (change["median"] - base) > bound * abs(base):
        return "regressed"
    width = parent["q3"] - parent["q1"]
    noisy = width > bound * abs(base) if base else width > 0
    if noisy and not all(sign * (c - p) < 0 for c in change["runs"] for p in parent["runs"]):
        return "unresolved"
    return "holds"


def parse_output(text):
    """(JSON summary line, environment, extras) of one perfbench/run.py run.

    The run prints ``environment {...}``, then ``name value unit`` lines,
    then one JSON line; extras are the ``name value`` pairs of those lines.
    """
    result, environment, extras = None, {}, {}
    for line in text.splitlines():
        if line.startswith("{"):
            result = json.loads(line)
        elif line.startswith("environment "):
            environment = json.loads(line[len("environment "):])
        else:
            parts = line.split()
            if len(parts) == 3:
                try:
                    extras[parts[0]] = float(parts[1])
                except ValueError:
                    pass
    if result is None:
        raise ValueError("no JSON summary line in the benchmark output")
    return result, environment, extras


def run_once(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return parse_output(proc.stdout)


def declared_metrics(tree):
    """The end-to-end metrics the tree's BENCHMARK.json declares, each a
    dict with its name, unit, better and bound."""
    with open(os.path.join(tree, "BENCHMARK.json")) as fh:
        return json.load(fh)["end_to_end"]


def run_pairs(args):
    """The workload's record: per-metric comparisons and run outcomes."""
    trees = {"parent": args.parent, "change": args.change}
    metrics = declared_metrics(args.change)
    names = [metric["name"] for metric in metrics]
    seeds = [args.seed_base + i for i in range(args.pairs)]
    runs = {side: [] for side in trees}
    environment = {}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, env, extras = run_once(trees[side], args.workload, seed,
                                           args.seconds, 0)
            environment = environment or env
            runs[side].append((result, extras))
            print(f"pair {i} seed {seed} {side}: " + ", ".join(
                f"{n} {result['metrics'][n]['value']:.6g}" for n in names), file=sys.stderr)
    record = {"pairs": args.pairs, "seeds": seeds}
    for metric in metrics:
        name = metric["name"]
        unit = runs["change"][0][0]["metrics"][name]["unit"]
        record[name] = compare(*[[r["metrics"][name]["value"] for r, _ in runs[side]]
                                 for side in ("parent", "change")], unit)
        record[name]["verdict"] = verdict(record[name], metric["better"], metric["bound"])
    record["failed_frac"] = {side: [extras.get("failed_frac") for _, extras in runs[side]]
                             for side in trees}
    for key in ("attempted", "correct"):
        record[key] = {side: [r[key] for r, _ in runs[side]] for side in trees}
    if args.claim:
        record["claim"] = {"metric": args.claim, "holds": claim_holds(record[args.claim])}
    if args.traced_seed is not None:
        traced = {"harness": (f"python3 perfbench/run.py --workload {args.workload} "
                              f"--seed {args.traced_seed} --seconds {args.seconds} --trace 1")}
        for side, tree in trees.items():
            result, _, _ = run_once(tree, args.workload, args.traced_seed, args.seconds, 1)
            traced[side] = {n: m["value"] for n, m in result["metrics"].items()}
            traced[side]["correct"] = result["correct"]
        record["traced"] = traced
    return record, environment


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="root of the parent source tree")
    parser.add_argument("--change", required=True, help="root of the changed source tree")
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--claim", help="lower-is-better metric whose gain is claimed")
    parser.add_argument("--change-text", default="", help="one line on what the change does")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    out = args.out or f"BENCH_{args.label}.json"
    record = {}
    if os.path.exists(out):
        with open(out) as fh:
            record = json.load(fh)
    workload, environment = run_pairs(args)
    record.setdefault("label", args.label)
    if args.change_text:
        record["change"] = args.change_text
    record["harness"] = ("python3 perfbench/run.py --workload <w> --seed <s> "
                         f"--seconds {args.seconds:g} --trace 0")
    record["method"] = (
        "parent and change run from two source trees on the same machine, one after the "
        "other, alternating which side runs first (pair i even: parent first); pair i uses "
        "seed base + i on both sides. Each side's median and quartiles "
        "(statistics.quantiles, n=4) over its runs; change_lower_in_pairs counts pairs "
        "where the change reads lower, ties counting for neither side (tools/ab_pairs.py)")
    record["environment"] = {k: environment.get(k) for k in ENV_KEYS}
    record.setdefault("workloads", {})[args.workload] = workload
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for metric in declared_metrics(args.change):
        name = metric["name"]
        entry = workload[name]
        print(f"{args.workload} {name}: parent {entry['parent']['median']:.6g} "
              f"({entry['parent']['q1']:.6g}-{entry['parent']['q3']:.6g}) -> change "
              f"{entry['change']['median']:.6g} ({entry['change']['q1']:.6g}-"
              f"{entry['change']['q3']:.6g}); change lower in "
              f"{entry['change_lower_in_pairs']}/{args.pairs}, ties {entry['ties']}; "
              f"{entry['verdict']}")
    if "claim" in workload:
        print(f"claim {workload['claim']['metric']}: "
              f"{'holds' if workload['claim']['holds'] else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
