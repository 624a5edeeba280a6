"""Command line interface.

Subcommands:
  run     --config <path>           solve a configured problem, write trace.csv
                                    and report.txt (exit 0 on tolerance_met,
                                    2 on hitting max_outer, 1 on error)
  verify  [--check <name>] ...      run the oracle suite, write a pass/fail CSV
                                    (exit 0 iff all checks pass)
  sweep   --config --param --values run one job per parameter value plus a
                                    summary CSV

The ALMPDE_OUTPUT_ROOT environment variable, when set, prefixes every
relative output directory.
"""

import argparse
import csv
import os
import sys

from .grid import dump_time_field, dump_boundary_field
from .alm import alm_run, format_trace_row, TRACE_COLUMNS
from .config import parse_config, build_run, describe_defaults, ConfigError
from .oracles import run_checks

OUTPUT_ROOT_ENV = "ALMPDE_OUTPUT_ROOT"


def _output_dir(path):
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not os.path.isabs(path):
        path = os.path.join(root, path)
    os.makedirs(path, exist_ok=True)
    return path


def _fmt(v):
    return f"{v:.17g}"


def _run_traced(spec, alm_config, path):
    """alm_run that streams each trace row to the trace.csv at path, so a
    failed run still leaves its partial trace behind."""
    with open(path, "w") as fh:
        fh.write(TRACE_COLUMNS + "\n")

        def on_row(row):
            fh.write(format_trace_row(row) + "\n")
            fh.flush()

        return alm_run(spec, alm_config, on_row=on_row)


def cmd_run(args):
    try:
        config = parse_config(args.config)
        spec, alm_config = build_run(config)
        outdir = _output_dir(config.raw["run.output_dir"])
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        trace = _run_traced(spec, alm_config, os.path.join(outdir, "trace.csv"))
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    res = trace.final_result
    last = trace.rows[-1]
    with open(os.path.join(outdir, "report.txt"), "w") as fh:
        fh.write(f"termination: {trace.termination}\n")
        fh.write(f"outer_iterations: {len(trace.rows)}\n")
        fh.write(f"successes: {last.n}\n")
        fh.write(f"best_k: {trace.best_k}\n")
        fh.write(f"final_R: {_fmt(last.R)}\n")
        fh.write(f"final_rho: {_fmt(last.rho)}\n")
        fh.write(f"J: {_fmt(last.J)}\n")
        fh.write(f"feasibility: {_fmt(last.feas)}\n")
        fh.write(f"complementarity: {_fmt(last.compl)}\n")
        fh.write(f"stationarity_u: {_fmt(last.stat_u)}\n")
        fh.write(f"stationarity_v: {_fmt(last.stat_v)}\n")
    if config.raw["run.dump_fields"]:
        dump_time_field(res.y, "y_final", os.path.join(outdir, "y_final.csv"))
        dump_time_field(res.u, "u_final", os.path.join(outdir, "u_final.csv"))
        dump_time_field(res.mu_bar, "mu_final", os.path.join(outdir, "mu_final.csv"))
        dump_time_field(res.p, "p_final", os.path.join(outdir, "p_final.csv"))
        if res.v is not None:
            dump_boundary_field(res.v, "v_final", os.path.join(outdir, "v_final.csv"))
    print(f"{trace.termination}: k={last.k} n={last.n} R={last.R:.6e} J={last.J:.6e}")
    return 0 if trace.termination == "tolerance_met" else 2


def cmd_verify(args):
    names = args.check if args.check else None
    try:
        outdir = _output_dir(args.output)
        reports = run_checks(names=names)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    csv_path = os.path.join(outdir, "verify_report.csv")
    with open(csv_path, "w") as fh:
        fh.write("check,error,tolerance,pass\n")
        for r in reports:
            fh.write(f"{r.name},{_fmt(r.error)},{_fmt(r.tolerance)},{int(r.passed)}\n")
    width = max(len(r.name) for r in reports)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  error={r.error:.3e}  tol={r.tolerance:.3e}  {status}")
    ok = all(r.passed for r in reports)
    print(f"verify: {'all checks passed' if ok else 'FAILURES detected'} ({csv_path})")
    return 0 if ok else 1


SWEEP_PARAMS = {
    "rho0": "alm.rho0",
    "tau": "alm.tau",
    "gamma": "alm.gamma",
    "nx": "mesh.nx",
    "ny": "mesh.ny",
    "nt": "mesh.nt",
    "alpha": "problem.alpha",
}


def cmd_sweep(args):
    if args.param not in SWEEP_PARAMS:
        print(f"error: --param must be one of {sorted(SWEEP_PARAMS)}", file=sys.stderr)
        return 1
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    if not values:
        print("error: --values must name at least one value", file=sys.stderr)
        return 1
    try:
        config = parse_config(args.config)
        outdir = _output_dir(config.raw["run.output_dir"] + "_sweep")
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    key = SWEEP_PARAMS[args.param]
    summary = []
    for sval in values:
        tag = f"{args.param}={sval}"
        subdir = os.path.join(outdir, tag.replace("=", "_"))
        try:
            spec, alm_config = build_run(parse_config(args.config, [f"{key} = {sval}"]))
            # only a job whose settings passed their checks gets a directory
            os.makedirs(subdir, exist_ok=True)
            trace = _run_traced(spec, alm_config, os.path.join(subdir, "trace.csv"))
            last = trace.rows[-1]
            summary.append((sval, len(trace.rows), last.R, last.J, trace.termination))
            print(f"{tag}: {trace.termination} k={last.k} R={last.R:.3e}")
        except Exception as exc:
            summary.append((sval, 0, float("nan"), float("nan"), f"error: {exc}"))
            print(f"{tag}: error: {exc}", file=sys.stderr)
    with open(os.path.join(outdir, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("value", "outer_iters", "final_R", "final_J", "status"))
        for sval, iters, R, J, status in summary:
            writer.writerow((sval, iters, _fmt(R), _fmt(J), status))
    return 0 if all(not s[4].startswith("error") for s in summary) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="almpde",
        description="Augmented Lagrangian solver for state-constrained "
                    "parabolic optimal control.",
        epilog="Config defaults applied for omitted keys:\n" + describe_defaults(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve a configured problem")
    p_run.add_argument("--config", required=True, help="path to a key = value config file")

    p_verify = sub.add_parser("verify", help="run the oracle suite")
    p_verify.add_argument("--check", action="append",
                          help="run only this check (repeatable); an unknown name "
                               "is an error that lists the checks")
    p_verify.add_argument("--output", default=".", help="directory for verify_report.csv")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, help=f"one of {sorted(SWEEP_PARAMS)}")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    return 1


if __name__ == "__main__":
    sys.exit(main())
