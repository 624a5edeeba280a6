"""In-memory spans around the solver's public functions, for the traced run.

`Tracer.patched(solve_id)` replaces each function of PATCHES in the module
namespace where its caller looks it up, records one span per call, and puts
the originals back on exit.  A span is ``[name, start, end, parent, solve
id]``; spans stay in memory until `write_csv`.  The layer of a span is the
part of its name before the dot.

The self time of a span is its duration minus the durations of its children.
The solver runs in one thread, so children nest inside their parent and do
not overlap, and the self times of one solve's spans add up to the duration
of its root spans.
"""

import csv
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager


def _count_steps(counts, args, result):
    counts["solvers.linear_solves"] += args[0].nt


def _count_cg(counts, args, result):
    counts["kernels.cg_iters"] += result[1]


def _count_inner(counts, args, result):
    counts["msa.inner_iters"] += result.inner_iters
    counts["msa.converged"] += bool(result.converged)


def _count_accepted(counts, args, result):
    counts["alm.accepted"] += bool(result[2])


# (module, attribute, span name, counter or None).  A module or attribute the
# program no longer has is skipped, so a deleted layer reports zero calls.
PATCHES = (
    ("almpde.config", "parse_config", "config.parse", None),
    ("almpde.config", "build_run", "config.build_run", None),
    ("almpde.config", "build_problem", "presets.build", None),
    ("almpde.operators", "assemble_operator", "operators.assemble", None),
    ("almpde.kernels", "solve_shifted", "kernels.solve", _count_cg),
    ("almpde.solvers", "solve_forward", "solvers.forward", _count_steps),
    ("almpde.msa", "solve_forward", "solvers.forward", _count_steps),
    ("almpde.msa", "solve_adjoint", "solvers.adjoint", _count_steps),
    ("almpde.msa", "multiplier_candidate", "cost.multiplier", None),
    ("almpde.alm", "alm_run", "alm.run", None),
    ("almpde.alm", "alm_step", "alm.step", _count_accepted),
    ("almpde.alm", "msa_solve", "msa.solve", _count_inner),
    ("almpde.alm", "residual_index", "cost.residual", None),
    ("almpde.alm", "kkt_residuals", "cost.kkt", None),
    ("almpde.alm", "cost_J", "cost.objective", None),
    ("almpde.alm", "augmented_lagrangian", "cost.objective", None),
)


def _import(module_name):
    try:
        return importlib.import_module(module_name)
    except ModuleNotFoundError as exc:
        if exc.name != module_name:
            raise
        return None


class Tracer:
    def __init__(self):
        self.spans = []
        # solve id -> counter name -> value
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack = []
        self._solve_id = None

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._solve_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            solve_id = self._solve_id
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, solve_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts[solve_id], args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, solve_id):
        """Trace every call of a PATCHES function made inside the block."""
        saved = []
        self._solve_id = solve_id
        try:
            for module_name, attr, name, count in PATCHES:
                module = _import(module_name)
                fn = getattr(module, attr, None) if module is not None else None
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, count))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
            self._solve_id = None

    def summaries(self):
        """Per solve id: calls and inclusive seconds per span name, self
        seconds per layer, and the counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, sid) in enumerate(spans):
            if sid not in out:
                out[sid] = (defaultdict(int), defaultdict(float), defaultdict(float),
                            self.counts[sid])
            calls, inclusive, self_s, _ = out[sid]
            calls[name] += 1
            inclusive[name] += end - start
            self_s[name.split(".", 1)[0]] += end - start - child[i]
        return out

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("name", "start", "end", "parent", "solve_id"))
            writer.writerows(self.spans)
