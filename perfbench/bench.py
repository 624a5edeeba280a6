"""Solver benchmark: closed-loop solves, per-solve checks and metrics.

One process and one solver thread run the solves of a workload one after
another, each one set-up (inputs to a ProblemSpec with its operator built)
followed by one `alm_run`.  Inputs are solved round-robin until `seconds` have
passed and every input has been solved at least twice.

A solve fails if it raises, if it ends other than ``tolerance_met``, if the
discrete KKT residuals of its final result miss the tolerances below, or if
its trace differs from an earlier solve of the same input.  A raise or a
difference also makes the run incorrect, as does, in the traced run, layer
self times that do not account for the traced wall time.

End-to-end metrics (untraced run):
  solve_s      median wall seconds of one `alm_run` call
  solve_ref    median of each solve's wall time over the reference time
               measured around it (see `reference_s`)
  setup_s      median seconds of one set-up, over at least MIN_SETUP_SAMPLES
  outer_iters  median trace rows per solve
  inner_iters  median sum of the trace's inner_iters per solve
  peak_rss_mb  peak resident set of the process
The summary also gives failed_frac, the solve_s sample count and, with at
least 11 samples, the highest percentile with 10 samples beyond it.
BENCHMARK.json declares solve_ref rather than solve_s: on a shared host the
raw seconds drift too much from minute to minute to hold a bound.

Per-layer metrics (traced run) are means over the traced problems, each
problem counting its set-up and its solve.  ``_s`` is seconds in the named
calls, children included; ``self_s`` excludes the time of traced children.
Predictions of which end-to-end metric each one moves, on which workload,
are in predictions.json.
"""

import gc
import hashlib
import importlib
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from almpde import alm, cost

import tracing
import workloads

# ROADMAP item 2's stationarity target; feasibility and complementarity are
# held to the run's own eps2.
KKT_STATIONARITY_TOL = 1e-4
MIN_SETUP_SAMPLES = 21
# Layer self times must cover the traced wall time to within this share; the
# rest is the benchmark's own timing code between the spans.
ACCOUNTED_TOL = 0.01
# One reference call is REFERENCE_REPEATS conjugate-gradient solves of
# REFERENCE_ITERS iterations, 20 to 70 ms on a 2 GHz Xeon.  Few iterations
# per solve keep the residual far from underflow on the smallest grid.
REFERENCE_ITERS = 10
REFERENCE_REPEATS = 96
# Seconds of reference calls before the first solve, and after each solve
# as a share of its set-up and solve time.
REFERENCE_FIRST_S = 0.5
REFERENCE_SHARE = 0.25
ROW_FIELDS = ("k", "n", "rho", "R", "success", "J", "L_rho", "feas", "compl",
              "stat_u", "stat_v", "inner_iters", "final_gap")
RESULT_FIELDS = ("y", "u", "v", "p", "mu_bar")

END_TO_END_UNITS = {
    "solve_s": "s", "solve_ref": "ref", "setup_s": "s", "outer_iters": "count",
    "inner_iters": "count", "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "operators.assemble_calls": "count", "operators.assemble_s": "s",
    "kernels.solve_calls": "count", "kernels.cg_iters": "count",
    "kernels.cg_iters_per_solve": "count", "kernels.solve_s": "s",
    "solvers.forward_calls": "count", "solvers.adjoint_calls": "count",
    "solvers.linear_solves": "count", "solvers.forward_s": "s",
    "solvers.adjoint_s": "s", "solvers.self_s": "s", "solvers.step_us": "us",
    "cost.multiplier_s": "s", "cost.residual_s": "s", "cost.kkt_s": "s",
    "cost.objective_s": "s",
    "msa.calls": "count", "msa.inner_iters": "count", "msa.converged_ratio": "ratio",
    "msa.self_s": "s", "msa.iter_ms": "ms",
    "alm.outer_iters": "count", "alm.accepted_ratio": "ratio", "alm.self_s": "s",
    "alm.step_s": "s",
    "config.build_s": "s", "presets.build_s": "s", "bench.self_s": "s",
    "trace.spans": "count", "trace.accounted_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Solve:
    label: str
    index: int
    traced: bool
    setup_s: float = float("nan")
    solve_s: float = float("nan")
    reference_s: float = float("nan")
    outer_iters: int = 0
    inner_iters: int = 0
    failures: list = field(default_factory=list)
    error: bool = False


def run(workload, seed, seconds, trace, workdir, tiny=False,
        kkt_tol=KKT_STATIONARITY_TOL):
    """Run one workload; returns a dict with the result and its record.

    With `trace`, every second pass over the inputs is traced and the
    metrics are the per-layer ones; otherwise they are the end-to-end ones.
    """
    inputs = workloads.make_inputs(workload, seed, workdir, tiny=tiny)
    tracer = tracing.Tracer() if trace else None
    fingerprints = {}
    solves = []
    start = perf_counter()
    n = workloads.REFERENCE_N[workload]
    reference = _calibrate(n, REFERENCE_FIRST_S)
    while len(solves) < 2 * len(inputs) or perf_counter() - start < seconds:
        index = len(solves) % len(inputs)
        traced = bool(trace) and (len(solves) // len(inputs)) % 2 == 1
        rec = _solve(inputs[index], index, tracer if traced else None,
                     len(solves), fingerprints, kkt_tol)
        before = reference
        reference = _calibrate(n, REFERENCE_SHARE * (rec.setup_s + rec.solve_s))
        rec.reference_s = 0.5 * (before + reference)
        solves.append(rec)
    done = [s for s in solves if not s.error]
    if not done:
        raise RuntimeError(f"no solve of {workload} completed")

    correct = not any(s.error for s in solves)
    if trace:
        metrics = _per_layer(tracer, solves)
        correct = correct and abs(metrics["trace.accounted_frac"][0] - 1.0) <= ACCOUNTED_TOL
        tracer.write_csv(os.path.join(workdir, f"spans-{workload}.csv"))
    else:
        metrics = _end_to_end(inputs, solves)
    failed = sum(1 for s in solves if s.failures)
    extras = {"failed_frac": (failed / len(solves), "ratio")}
    samples = sorted(s.solve_s for s in done if not s.traced)
    extras["solve_s.n"] = (len(samples), "count")
    if len(samples) >= 11:
        pct = 100.0 * (len(samples) - 10) / len(samples)
        extras[f"solve_s.p{pct:.1f}"] = (samples[-11], "s")
    return {
        "correct": correct, "attempted": len(solves), "failed": failed,
        "metrics": metrics, "extras": extras,
        "solves": [vars(s) for s in solves],
    }


def _solve(inp, index, tracer, solve_id, fingerprints, kkt_tol):
    rec = Solve(label=inp.label, index=index, traced=tracer is not None)
    gc.collect()
    try:
        with tracer.patched(solve_id) if tracer else nullcontext():
            t0 = perf_counter()
            with tracer.span("bench.setup") if tracer else nullcontext():
                spec, alm_config = workloads.setup(inp)
            t1 = perf_counter()
            trace = alm.alm_run(spec, alm_config)
            t2 = perf_counter()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        rec.failures.append("raised")
        rec.error = True
        return rec
    rec.setup_s, rec.solve_s = t1 - t0, t2 - t1
    rec.outer_iters = len(trace.rows)
    rec.inner_iters = sum(row.inner_iters for row in trace.rows)
    if trace.termination != "tolerance_met":
        rec.failures.append(f"termination {trace.termination}")
    r = trace.final_result
    kkt = cost.kkt_residuals(spec, r.y, r.u, r.v, r.p, r.mu_bar)
    for name, tol in (("stationarity_u", kkt_tol), ("stationarity_v", kkt_tol),
                      ("feasibility", alm_config.eps2),
                      ("complementarity", alm_config.eps2)):
        value = float(getattr(kkt, name))
        if not value <= tol:
            rec.failures.append(f"{name} {value:.6g} > {tol:.6g}")
    fingerprint = _fingerprint(trace)
    if fingerprints.setdefault(index, fingerprint) != fingerprint:
        rec.failures.append("trace differs from an earlier solve of the same input")
        rec.error = True
    return rec


def _fingerprint(trace):
    """Result columns of the trace rows and a hash of the final fields.

    Columns are picked by name, so that timing columns added to the trace
    later do not enter the comparison.
    """
    rows = tuple(tuple(repr(getattr(row, f, None)) for f in ROW_FIELDS)
                 for row in trace.rows)
    digest = hashlib.sha256()
    for name in RESULT_FIELDS:
        value = getattr(trace.final_result, name, None)
        if value is not None:
            digest.update(value.values.tobytes())
    return rows, trace.termination, digest.hexdigest()


def reference_s(n):
    """Wall seconds of a fixed computation that does not use the solver.

    It is conjugate gradients on an n x n five-point stencil, numpy calls
    driven from a Python loop like the solver's own, on the workload's own
    grid size.  A shared host's speed can drift by a fifth from one minute
    to the next; a solve time divided by the reference times calibrated just
    before and after it drifts far less, because both slow down together.
    """
    rhs = np.cos(np.arange(n * n, dtype=np.float64)).reshape(n, n)
    t0 = perf_counter()
    for _ in range(REFERENCE_REPEATS):
        x = np.zeros_like(rhs)
        r = rhs.copy()
        p = r.copy()
        rs = float(np.sum(r * r))
        for _ in range(REFERENCE_ITERS):
            kp = 2.0 * p
            fx = 0.5 * (p[:, :-1] - p[:, 1:])
            kp[:, :-1] += fx
            kp[:, 1:] -= fx
            fy = 0.5 * (p[:-1, :] - p[1:, :])
            kp[:-1, :] += fy
            kp[1:, :] -= fy
            alpha = rs / float(np.sum(p * kp))
            x += alpha * p
            r -= alpha * kp
            rs_new = float(np.sum(r * r))
            p *= rs_new / rs
            p += r
            rs = rs_new
    return perf_counter() - t0


def _calibrate(n, budget):
    """Median of reference_s(n) over calls made for `budget` seconds (once
    at least)."""
    samples = [reference_s(n)]
    while sum(samples) < budget:
        samples.append(reference_s(n))
    return statistics.median(samples)


def _setup_samples(inputs, solves):
    """Set-up seconds of the untraced solves, topped up to MIN_SETUP_SAMPLES
    with whole passes of set-ups alone."""
    samples = [s.setup_s for s in solves if not s.error and not s.traced]
    while len(samples) < MIN_SETUP_SAMPLES:
        for inp in inputs:
            gc.collect()
            t0 = perf_counter()
            workloads.setup(inp)
            samples.append(perf_counter() - t0)
    return samples


def _end_to_end(inputs, solves):
    done = [s for s in solves if not s.error]
    values = {
        "solve_s": statistics.median(s.solve_s for s in done),
        "solve_ref": statistics.median(s.solve_s / s.reference_s for s in done),
        "setup_s": statistics.median(_setup_samples(inputs, solves)),
        "outer_iters": statistics.median(s.outer_iters for s in done),
        "inner_iters": statistics.median(s.inner_iters for s in done),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def _ratio(a, b):
    return a / b if b else 0.0


def _layer_metrics(calls, inc, self_s, counts):
    """Per-layer metrics of one traced problem."""
    sweep_s = inc["solvers.forward"] + inc["solvers.adjoint"]
    return {
        "operators.assemble_calls": calls["operators.assemble"],
        "operators.assemble_s": inc["operators.assemble"],
        "kernels.solve_calls": calls["kernels.solve"],
        "kernels.cg_iters": counts["kernels.cg_iters"],
        "kernels.cg_iters_per_solve": _ratio(counts["kernels.cg_iters"],
                                             calls["kernels.solve"]),
        "kernels.solve_s": inc["kernels.solve"],
        "solvers.forward_calls": calls["solvers.forward"],
        "solvers.adjoint_calls": calls["solvers.adjoint"],
        "solvers.linear_solves": counts["solvers.linear_solves"],
        "solvers.forward_s": inc["solvers.forward"],
        "solvers.adjoint_s": inc["solvers.adjoint"],
        "solvers.self_s": self_s["solvers"],
        "solvers.step_us": 1e6 * _ratio(sweep_s, counts["solvers.linear_solves"]),
        "cost.multiplier_s": inc["cost.multiplier"],
        "cost.residual_s": inc["cost.residual"],
        "cost.kkt_s": inc["cost.kkt"],
        "cost.objective_s": inc["cost.objective"],
        "msa.calls": calls["msa.solve"],
        "msa.inner_iters": counts["msa.inner_iters"],
        "msa.converged_ratio": _ratio(counts["msa.converged"], calls["msa.solve"]),
        "msa.self_s": self_s["msa"],
        "msa.iter_ms": 1e3 * _ratio(inc["msa.solve"], counts["msa.inner_iters"]),
        "alm.outer_iters": calls["alm.step"],
        "alm.accepted_ratio": _ratio(counts["alm.accepted"], calls["alm.step"]),
        "alm.self_s": self_s["alm"],
        "alm.step_s": _ratio(inc["alm.step"], calls["alm.step"]),
        "config.build_s": self_s["config"],
        "presets.build_s": inc["presets.build"],
        "bench.self_s": self_s["bench"],
        "trace.spans": sum(calls.values()),
    }


def _per_layer(tracer, solves):
    if not any(s.traced and not s.error for s in solves):
        raise RuntimeError("no traced solve completed")
    summaries = tracer.summaries()
    rows = []
    accounted = []
    for solve_id, s in enumerate(solves):
        if not s.traced or s.error:
            continue
        calls, inc, self_s, counts = summaries[solve_id]
        rows.append(_layer_metrics(calls, inc, self_s, counts))
        accounted.append(sum(self_s.values()) / (s.setup_s + s.solve_s))
    values = {name: statistics.fmean(row[name] for row in rows) for name in rows[0]}
    values["trace.accounted_frac"] = statistics.fmean(accounted)
    values["trace.overhead_frac"] = _overhead(solves)
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def _overhead(solves):
    """Traced over untraced median solve_ref, averaged over inputs, minus 1."""
    ratios = []
    for index in sorted({s.index for s in solves}):
        ok = [s for s in solves if s.index == index and not s.error]
        on = [s.solve_s / s.reference_s for s in ok if s.traced]
        off = [s.solve_s / s.reference_s for s in ok if not s.traced]
        if on and off:
            ratios.append(statistics.median(on) / statistics.median(off))
    return statistics.fmean(ratios) - 1.0 if ratios else 0.0


def environment():
    """What the timings depend on besides the code: cores, versions, pools."""
    import numpy
    import scipy

    try:
        importlib.import_module("numba")
        numba = True
    except ImportError:
        numba = False
    try:
        backend = importlib.import_module("almpde.kernels").default_backend()
    except (ImportError, AttributeError):
        backend = None
    try:
        from threadpoolctl import threadpool_info
        pools = threadpool_info()
    except ImportError:
        pools = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba,
        "kernels_backend": backend,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "threadpools": pools,
    }
