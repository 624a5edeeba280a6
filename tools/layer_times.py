"""Sweep-level timings of the implicit-Euler layer, for one or two source trees.

    python3 tools/layer_times.py --tree <root> [--tree <root>] \
        [--sizes 5x4,17x16,33x32,65x64] [--rounds 3] [--repeat 7] \
        [--out layer_times.json]

For each size n x nt (an n x n grid on the unit square, nt steps to T = 0.5,
data drawn from a fixed seed) it measures two rows, one per kind of
coefficients, which `operators.assemble_operator` chooses the step path
from: ``<n>x<nt>-var`` with seeded variable coefficients (banded path) and
``<n>x<nt>-const`` with unit coefficients, as the presets have (separable
path; a tree without it marches them on its banded path).  Each row times
ten layers and measures the working set of a stationary start:

- ``factor_ms``: the step data built on the first sweep of a freshly
  assembled operator (assembly, stencil and weights not included): on the
  banded path the factorization, the copy of the factor into the layout the
  solves take it in and the argument block (`solve`); on the separable path
  the eigenbasis and its work array (`basis`);
- ``solve_us``: one banded solve, `lapack.pbtrs` with the operator's
  argument block on a seeded vector, copied into the solve's buffer before
  each call (the copy is included; under 1 us at 65x65).  None on the
  separable path, whose sweep takes all its steps in four GEMMs;
- ``forward_us``: one forward sweep, `solve_forward` with a seeded control
  and initial slice and no boundary flux;
- ``cold_forward_us``: one forward sweep from that initial slice with a
  constant control and a constant boundary flux, as a cold start takes
  under constant bounds: every step has the same source;
- ``adjoint_us``: one adjoint sweep, `solve_adjoint` with a seeded nonzero
  multiplier and terminal slice;
- ``free_adjoint_us``: one adjoint sweep from that terminal slice with the
  zero multiplier (`IntervalField.zeros`), as every sub-problem whose
  obstacle is inactive takes it.  ``forward_us`` and ``adjoint_us`` keep
  their seeded fields, so they time the sweeps over nt distinct sources
  that these two bypass;
- ``step_us``: the two sweeps' time per implicit step, (forward + adjoint)
  / (2 nt), the measure of perfbench's ``solvers.step_us``;
- ``objective_us``: one `subproblem_objective`, with the state, multiplier
  candidate and integral of mu^2 given, as the inner solver calls it;
- ``kkt_us``: one `kkt_residuals`, as the outer loop calls it once per
  iteration;
- ``update_us``: one inner iteration, a `msa_solve` capped at
  ``max_inner = 1`` (with ``eps1 = 1e-12``, so it always takes its update)
  and warm-started from the result of a first such solve.  It re-evaluates
  the start (multiplier candidate, objective and adjoint sweep), takes the
  update (one trial's clamp, forward sweep, candidate and objective, and
  more when a trial is rejected) and the new adjoint sweep and stationarity
  test, as each outer iteration's inner solve does.
- ``start_fields``: the ``tracemalloc`` peak of one `msa_solve` whose cold
  start is stationary, in fields of 8 (nt + 1) n^2 bytes, after a first
  such solve.  The problem is varcoef_batch's: an obstacle never reached
  (psi = 1e6), no boundary control, and the target the free-decay terminal
  of the initial slice, so the solve takes one forward and one adjoint
  sweep and its stationarity test, and no update.

Besides the layers, ``update_minflt`` is the mean number of minor page
faults (``ru_minflt``) per inner iteration, over one loop of about 20 ms of
them after the timed repeats: a fresh array above glibc's mmap threshold
(128 KiB at start-up) costs one fault per page it touches.  Each of its
``max_inner = 1`` calls is a new solve, with new arrays, so it cannot show
what a solve holds from one update to the next: a solve that writes every
sweep after its first into one held array still faults on the first touch
of that array, and an acceptance of 0 on this column cannot be met by such
holding.  ``later_minflt`` shows it: the faults per update over updates 3-6
of one warm `msa_solve` of the same problem, with ``eps1 = 1e-12``, the
mean faults of a ``max_inner = 6`` solve less those of a ``max_inner = 2``
solve, over a loop of about 20 ms each, divided by 4.  It is None (printed
``-``) when the solve takes fewer than 6 updates.

The last three evaluate a problem with boundary control, a constant obstacle
psi (the largest value of the initial slice) and constant control bounds,
at seeded controls, with the state and adjoint of those controls; all read
psi and the bounds.

Each time is the minimum over --repeat repeats of a loop long enough to
read (about 20 ms).  Every round runs one subprocess per tree with the
tree's ``src`` first on the import path and one BLAS/OpenMP thread, as
perfbench/run.py pins them: with two threads, the first 65x65
factorization of a fresh process stalled for 0.84-0.94 s in 3 of 22
processes (2-core VM, OpenBLAS 0.3.31).  With two trees the order alternates
between rounds (the first tree first in even rounds), so a drift of the
host's speed does not favour one side.  A table of the per-tree medians over
the rounds is printed, then the round-to-round spread (max/min - 1) of each
timed layer of each row, then each row's largest one and the layer it is
from: two trees whose medians of a layer differ by less than that layer's
spread are not told apart by its medians.  With two trees a last table
gives, per row and layer, the order of the rounds (`order`): ``lower`` when
every round of the second tree lies below every round of the first,
``higher`` when every one lies above, ``overlap`` otherwise.  The rounds
themselves go to --out as JSON.

Only the standard library and numpy are used; no file under either tree is
written.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

LAYERS = ("factor_ms", "solve_us", "forward_us", "cold_forward_us", "adjoint_us",
          "free_adjoint_us", "step_us", "objective_us", "kkt_us", "update_us", "start_fields")
FAULTS = "update_minflt"
LATER_FAULTS = "later_minflt"
DEFAULT_SIZES = "5x4,17x16,33x32,65x64"
LOOP_S = 0.02
SEED = 0
# the coefficient kinds, each one row per size: seeded variable and unit
KINDS = ("var", "const")
# perfbench/run.py's THREAD_VARS, each set to 1 in the worker's environment
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMBA_NUM_THREADS")


def parse_sizes(text):
    """[(n, nt), ...] from "5x4,17x16"."""
    sizes = []
    for item in text.split(","):
        n, nt = (int(part) for part in item.strip().lower().split("x"))
        if n < 2 or nt < 1:
            raise ValueError(f"size {item!r}: need n >= 2 and nt >= 1")
        sizes.append((n, nt))
    return sizes


def _calls_per_loop(fn):
    """The number of calls of fn that take about LOOP_S, from one timed call."""
    start = time.perf_counter()
    fn()
    return max(1, int(LOOP_S / max(time.perf_counter() - start, 1e-9)))


def _best(fn, repeat):
    """Minimum over `repeat` repeats of the seconds per call of fn, each
    repeat a loop of about LOOP_S."""
    number = _calls_per_loop(fn)
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def _faults(fn):
    """Mean minor page faults per call of fn over a loop of about LOOP_S."""
    number = _calls_per_loop(fn)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(number):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / number


def _peak_bytes(fn):
    """The `tracemalloc` peak of one call of fn, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure(n, nt, kind, repeat):
    """The ten layer times, the stationary start's working set and the
    updates' page faults (`FAULTS`, `LATER_FAULTS`) at one size and
    coefficient kind (`KINDS`), for the almpde on the import path."""
    import numpy as np
    from almpde.cost import (ProblemSpec, kkt_residuals, multiplier_candidate,
                             multiplier_square, subproblem_objective)
    from almpde.grid import (BoundaryTimeField, ControlBounds, IntervalField, TimeField,
                             build_mesh)
    from almpde.lapack import address, pbtrs
    from almpde.msa import MsaConfig, msa_solve
    from almpde.operators import DiffusionCoefficients, assemble_operator
    from almpde.solvers import solve_adjoint, solve_forward

    rng = np.random.default_rng(SEED)
    mesh = build_mesh(n, n, nt, 1.0, 1.0, 0.5)
    # the variable coefficients are drawn on both rows, so the data that
    # follows is the same on both
    a11, a22 = (rng.uniform(0.5, 2.0, mesh.shape_space) for _ in range(2))
    coeffs = (DiffusionCoefficients(mesh, a11, a22) if kind == "var"
              else DiffusionCoefficients.unit(mesh))
    # the attribute that builds the step data of the path the tree takes
    # (looked up on the class: on an operator it would build the data)
    step_data = "solve" if hasattr(type(coeffs.operator()), "solve") else "basis"
    shape = IntervalField.shape(mesh)
    u = IntervalField(mesh, rng.standard_normal(shape))
    mu = IntervalField(mesh, rng.uniform(0.0, 1.0, shape))
    y0 = rng.standard_normal(mesh.shape_space)
    terminal = rng.standard_normal(mesh.shape_space)
    rhs = rng.standard_normal(mesh.ny * mesh.nx)
    buf = np.empty_like(rhs)
    v = BoundaryTimeField(mesh, rng.standard_normal(BoundaryTimeField.shape(mesh)))

    factor_s = float("inf")
    for _ in range(max(repeat, 3)):
        op = assemble_operator(coeffs)
        start = time.perf_counter()
        getattr(op, step_data)
        factor_s = min(factor_s, time.perf_counter() - start)
    solve_us = None
    if step_data == "solve":
        block, buf_address = op.solve, address(buf)

        def solve():
            # the solve overwrites its vector, and solving in place again and
            # again would grow it to overflow, so each call starts from rhs
            buf[:] = rhs
            pbtrs(block, buf_address)

        solve_us = 1e6 * _best(solve, repeat)
    forward_s = _best(lambda: solve_forward(mesh, op, u, None, y0), repeat)
    adjoint_s = _best(lambda: solve_adjoint(mesh, op, mu, terminal), repeat)
    u_cold = IntervalField.constant(mesh, 0.5)
    v_cold = BoundaryTimeField.constant(mesh, -0.25)
    cold_forward_s = _best(lambda: solve_forward(mesh, op, u_cold, v_cold, y0), repeat)
    zero = IntervalField.zeros(mesh)
    free_adjoint_s = _best(lambda: solve_adjoint(mesh, op, zero, terminal), repeat)

    rho = 1.0
    spec = ProblemSpec(mesh, coeffs, y0, terminal, TimeField.constant(mesh, y0.max()),
                       alpha=1.0, beta=1.0, bounds=ControlBounds.constant(mesh, -1.0, 1.0),
                       boundary_control_enabled=True)
    y = solve_forward(mesh, spec.operator(), u, v, y0)
    mu_bar = multiplier_candidate(y, spec.psi, mu, rho)
    mu_sq = multiplier_square(mesh, mu)
    p = solve_adjoint(mesh, spec.operator(), mu_bar, y.values[-1] - terminal)
    objective_s = _best(lambda: subproblem_objective(spec, rho, mu, u, v, y=y, mu_bar=mu_bar,
                                                     mu_sq=mu_sq), repeat)
    kkt_s = _best(lambda: kkt_residuals(spec, y, u, v, p, mu_bar), repeat)
    one = MsaConfig(eps1=1e-12, max_inner=1)
    warm = msa_solve(spec, rho, mu, config=one)

    def update():
        return msa_solve(spec, rho, mu, config=one, warm=warm)

    update_s = _best(update, repeat)
    six, two = (MsaConfig(eps1=1e-12, max_inner=k) for k in (6, 2))
    later = None
    if msa_solve(spec, rho, mu, config=six, warm=warm).inner_iters == 6:
        later = (_faults(lambda: msa_solve(spec, rho, mu, config=six, warm=warm))
                 - _faults(lambda: msa_solve(spec, rho, mu, config=two, warm=warm))) / 4

    free = solve_forward(mesh, coeffs.operator(), IntervalField.zeros(mesh), None, y0).values[-1]
    slack = ProblemSpec(mesh, coeffs, y0, free, TimeField.constant(mesh, 1e6), alpha=1.0,
                        beta=1.0, bounds=ControlBounds.constant(mesh, -1.0, 1.0))

    def start():
        return msa_solve(slack, rho, IntervalField.zeros(mesh))

    first = start()
    if first.inner_iters or first.final_gap:
        raise RuntimeError(f"the slack start at {n}x{nt} is not stationary")
    start_bytes = _peak_bytes(start)
    return {"factor_ms": 1e3 * factor_s, "solve_us": solve_us,
            "forward_us": 1e6 * forward_s, "cold_forward_us": 1e6 * cold_forward_s,
            "adjoint_us": 1e6 * adjoint_s, "free_adjoint_us": 1e6 * free_adjoint_s,
            "step_us": 1e6 * (forward_s + adjoint_s) / (2 * nt),
            "objective_us": 1e6 * objective_s, "kkt_us": 1e6 * kkt_s,
            "update_us": 1e6 * update_s,
            "start_fields": start_bytes / (8 * (nt + 1) * n * n), FAULTS: _faults(update),
            LATER_FAULTS: later}


def worker(sizes, repeat):
    """One round in this process: {"<n>x<nt>-<kind>": layer times and
    faults} for every size and coefficient kind."""
    return {f"{n}x{nt}-{kind}": measure(n, nt, kind, repeat)
            for n, nt in sizes for kind in KINDS}


def worker_env(tree):
    """The worker's environment: the tree's src first on the path and one
    BLAS/OpenMP thread."""
    env = dict(os.environ)
    src = os.path.join(os.path.abspath(tree), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_worker(tree, args):
    """One round in a subprocess (`worker_env`)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", "--sizes", args.sizes,
           "--repeat", str(args.repeat)]
    proc = subprocess.run(cmd, env=worker_env(tree), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"layer timing in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def collect(args):
    """({"tree i": {"n x nt": {layer: [one value per round]}}}, and the
    same with each of the two fault counts in place of the layers)."""
    labels = [f"tree{i}" for i in range(len(args.tree))]
    rounds = {label: [] for label in labels}
    for r in range(args.rounds):
        order = list(zip(labels, args.tree))
        if r % 2:
            order.reverse()
        for label, tree in order:
            rounds[label].append(run_worker(tree, args))
    def per_round(label, size, key):
        return [rnd[size][key] for rnd in rounds[label]]

    results = {label: {size: {layer: per_round(label, size, layer) for layer in LAYERS}
                       for size in rounds[label][0]}
               for label in labels}
    faults = {key: {label: {size: per_round(label, size, key) for size in rounds[label][0]}
                    for label in labels} for key in (FAULTS, LATER_FAULTS)}
    return results, faults[FAULTS], faults[LATER_FAULTS]


def table(record):
    """Text lines: per tree, size and coefficient kind, the median of each
    layer over the rounds (a dash for a layer the path does not have), then
    the update's page faults in every round, and below them the later
    updates' (`LATER_FAULTS`; a record written without them has none).
    Under it, per row, each timed layer's round-to-round spread
    (`layer_spreads`) and the largest of them (`spread`): a difference
    between two trees smaller than a layer's spread is not resolved by its
    medians.  With two trees, last, per row and layer the order of the
    second tree's rounds against the first's (`order`)."""
    lines = [f"{label} = {tree}" for label, tree in record["trees"].items()]
    # each column one wider than its name, and at least 13
    widths = [max(13, len(layer) + 1) for layer in LAYERS]
    header = "tree   size        " + "".join(f"{layer:>{w}}" for layer, w in zip(LAYERS, widths))
    results = record["results"]

    def rows(labels, cell, tail=lambda label, size: ""):
        """One line per tree of labels and row, each layer's column
        cell(label, size, layer), then tail(label, size)."""
        return [f"{label:<6} {size:<11} " + "".join(
            f"{cell(label, size, layer):>{w}}" for layer, w in zip(LAYERS, widths))
            + tail(label, size) for label in labels for size in results[label]]

    lines.append(header + f"  {FAULTS} per round")
    lines += rows(results, lambda label, size, layer: _median(results[label][size][layer]),
                  lambda label, size: "  " + " ".join(f"{f:.4g}"
                                                      for f in record[FAULTS][label][size]))
    if LATER_FAULTS in record:
        lines.append(f"{LATER_FAULTS} per round: faults per update over updates 3-6 of one "
                     "warm solve (- when it takes fewer than 6)")
        lines += [f"{label:<6} {size:<11} " + " ".join(
            "-" if f is None else f"{f:.4g}" for f in record[LATER_FAULTS][label][size])
            for label in results for size in results[label]]
    lines += ["round-to-round spread (max/min - 1) of each timed layer", header]
    lines += rows(results, lambda label, size, layer: _percent(
        layer_spreads(results[label][size])[layer]))
    lines.append("largest round-to-round spread (max/min - 1) of the timed layers")
    for label, sizes in results.items():
        for size, layers in sizes.items():
            value, layer = spread(layers)
            lines.append(f"{label:<6} {size:<11} {100 * value:>8.1f}%  {layer}")
    if len(results) == 2:
        first, second = results
        lines += [f"rounds of {second} against every round of {first} "
                  "(lower, higher or overlap)", header]
        # start_fields is a size, not a time
        lines += rows([second], lambda label, size, layer: "-" if layer == "start_fields"
                      else order(results[first][size][layer], results[second][size][layer]))
    return lines


def layer_spreads(layers):
    """{layer: max/min - 1 of its rounds} of every layer; None for
    start_fields, a size, and for a layer the path does not have."""
    return {layer: None if layer == "start_fields" or None in values
            else max(values) / min(values) - 1.0 for layer, values in layers.items()}


def spread(layers):
    """(max/min - 1, layer) of the timed layer whose rounds spread the most
    (`layer_spreads`)."""
    return max((value, layer) for layer, value in layer_spreads(layers).items()
               if value is not None)


def order(first, second):
    """"lower" when every round of second lies below every round of first,
    "higher" when every one lies above, "overlap" otherwise; "-" when the
    path does not have the layer."""
    if None in first or None in second:
        return "-"
    if max(second) < min(first):
        return "lower"
    if min(second) > max(first):
        return "higher"
    return "overlap"


def _percent(value):
    """A spread as a percentage, as text; a dash for None."""
    return "-" if value is None else f"{100 * value:.1f}%"


def _median(values):
    """The median of one layer's rounds, as text; a dash when the path does
    not have the layer (None)."""
    return "-" if None in values else f"{statistics.median(values):.4g}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[],
                        help="root of a source tree (give one or two)")
    parser.add_argument("--sizes", default=DEFAULT_SIZES)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--out", default="layer_times.json")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        parse_sizes(args.sizes)
    except ValueError as exc:
        parser.error(f"--sizes: {exc}")
    if args.rounds < 1 or args.repeat < 1:
        parser.error("--rounds and --repeat must be at least 1")
    if not args.worker and len(args.tree) not in (1, 2):
        parser.error("give one or two --tree")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.worker:
        print(json.dumps(worker(parse_sizes(args.sizes), args.repeat)))
        return 0
    import numpy as np
    record = {"trees": {f"tree{i}": os.path.abspath(t) for i, t in enumerate(args.tree)},
              "sizes": args.sizes, "rounds": args.rounds, "repeat": args.repeat,
              "seed": SEED,
              "environment": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                              "numpy": np.__version__}}
    record["results"], record[FAULTS], record[LATER_FAULTS] = collect(args)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print("\n".join(table(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
