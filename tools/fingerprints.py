"""Bit fingerprints of a fixed set of solver runs, for one or two source trees.

    python3 tools/fingerprints.py <tree> [<tree>]

Each run sets up one problem and solves it with `alm_run`.  Its digest is
the sha256 of the result columns of every trace row and the termination,
as the benchmark's own fingerprint gives them (`perfbench/bench._fingerprint`),
and of the bytes of the unknowns of the final result: all slices of the
state y, and u, v, p and mu_bar on m = 1..nt (their last nt slices).  So a
tree whose u, v, p and mu_bar also hold the slice m = 0 gives the same
digests when it computes the same unknowns.  The set is:

- the three presets at their default meshes;
- the boundary demo at 17^2 x 16 and 33^2 x 32;
- the paper preset at 9^2 x 8, 17^2 x 16 and 33^2 x 32, and at its default
  mesh with alm.mu0 = 0 and 1;
- the inputs of the benchmark workloads paper_sec5 and boundary_fine, at
  full and tiny sizes;
- each problem of varcoef_batch with seeds 1 and 2, at full and tiny sizes.

Each run also has a second digest, of its decisions: the sha256 of k, n,
rho, success and inner_iters of every trace row and of the termination.  A
change that moves only last bits (a sum taken in another order) changes
the first digest of a run but not the second, and it is judged on the
second.

Each tree runs the set in one subprocess, with the tree's ``src`` and
``perfbench`` first on the import path and one BLAS/OpenMP thread, as
perfbench/run.py pins them.  With one tree, one line per run is printed:
its name, digest and decision digest.  With two, each line gives both
digests of each tree (first tree first), then the runs whose digests differ
are listed, and then those whose decisions differ.  The exit status is 1 if
a digest differs, whether or not the decisions do.

The set takes about 1.2 s per tree on a 2-core VM.  Config files are
written to a temporary directory; nothing under either tree is written.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMBA_NUM_THREADS")

# (name, preset, config lines) of the preset runs
PRESET_RUNS = (
    ("paper_example_sec5", "paper_example_sec5", ()),
    ("unconstrained_decay", "unconstrained_decay", ()),
    ("boundary_control_demo", "boundary_control_demo", ()),
    ("boundary_control_demo-17", "boundary_control_demo",
     ("mesh.nx = 17", "mesh.ny = 17", "mesh.nt = 16")),
    ("boundary_control_demo-33", "boundary_control_demo",
     ("mesh.nx = 33", "mesh.ny = 33", "mesh.nt = 32")),
    ("paper_example_sec5-9", "paper_example_sec5",
     ("mesh.nx = 9", "mesh.ny = 9", "mesh.nt = 8")),
    ("paper_example_sec5-17", "paper_example_sec5",
     ("mesh.nx = 17", "mesh.ny = 17", "mesh.nt = 16")),
    ("paper_example_sec5-33", "paper_example_sec5",
     ("mesh.nx = 33", "mesh.ny = 33", "mesh.nt = 32")),
    ("paper_example_sec5-mu0-0", "paper_example_sec5", ("alm.mu0 = 0",)),
    ("paper_example_sec5-mu0-1", "paper_example_sec5", ("alm.mu0 = 1",)),
)
# (workload, seed) of the benchmark inputs, each at full and tiny sizes
WORKLOAD_RUNS = (("paper_sec5", 0), ("boundary_fine", 0), ("varcoef_batch", 1),
                 ("varcoef_batch", 2))
# the trace row columns that the decision digest covers, with the termination
DECISION_COLUMNS = ("k", "n", "rho", "success", "inner_iters")


def digest(trace):
    """sha256 of a trace's rows and termination and of its result's unknowns
    (see above)."""
    import bench

    rows, termination, _ = bench._fingerprint(trace)
    h = hashlib.sha256(repr((rows, termination)).encode())
    result = trace.final_result
    nt = result.y.mesh.nt
    h.update(result.y.values.tobytes())
    for name in ("u", "v", "p", "mu_bar"):
        field = getattr(result, name)
        if field is not None:
            h.update(field.values[-nt:].tobytes())
    return h.hexdigest()


def decision_digest(trace):
    """sha256 of a trace's decisions: `DECISION_COLUMNS` of every row and
    the termination."""
    rows = tuple(tuple(repr(getattr(row, column)) for column in DECISION_COLUMNS)
                 for row in trace.rows)
    return hashlib.sha256(repr((rows, trace.termination)).encode()).hexdigest()


def worker():
    """[(name, digest, decision digest)] of every run, for the almpde and
    perfbench on the import path."""
    import workloads
    from almpde import alm, config

    out = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, preset, lines in PRESET_RUNS:
            path = os.path.join(workdir, f"{name}.cfg")
            with open(path, "w") as fh:
                fh.write(f"problem.preset = {preset}\n")
            spec, alm_config = config.build_run(config.parse_config(path, lines))
            trace = alm.alm_run(spec, alm_config)
            out.append((name, digest(trace), decision_digest(trace)))
        for workload, seed in WORKLOAD_RUNS:
            for tiny in (False, True):
                inputs = workloads.make_inputs(workload, seed, workdir, tiny=tiny)
                for inp in inputs:
                    spec, alm_config = workloads.setup(inp)
                    trace = alm.alm_run(spec, alm_config)
                    name = f"{workload}-{seed}{'-tiny' if tiny else ''}-{inp.label}"
                    out.append((name, digest(trace), decision_digest(trace)))
    return out


def worker_env(tree):
    """The worker's environment: the tree's src and perfbench first on the
    path, this script's directory after them, and one BLAS/OpenMP thread."""
    env = dict(os.environ)
    root = os.path.abspath(tree)
    path = [os.path.join(root, "src"), os.path.join(root, "perfbench"),
            os.path.dirname(os.path.abspath(__file__))]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_tree(tree):
    """[(name, digest, decision digest)] of every run in one tree, from a
    subprocess."""
    cmd = [sys.executable, "-c", "import json, fingerprints; "
           "print(json.dumps(fingerprints.worker()))"]
    proc = subprocess.run(cmd, env=worker_env(tree), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"fingerprints in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return [tuple(run) for run in json.loads(proc.stdout)]


def main(argv=None):
    trees = sys.argv[1:] if argv is None else argv
    if len(trees) not in (1, 2) or any(t.startswith("-") for t in trees):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    runs = [run_tree(tree) for tree in trees]
    if len(runs) == 1:
        for run in runs[0]:
            print(*run)
        return 0
    first, second = runs
    if [run[0] for run in first] != [run[0] for run in second]:
        print("the two trees run different sets", file=sys.stderr)
        return 1
    differ, decisions_differ = [], []
    for (name, a, a_decisions), (_, b, b_decisions) in zip(first, second):
        print(name, a, b, a_decisions, b_decisions)
        if a != b:
            differ.append(name)
        if a_decisions != b_decisions:
            decisions_differ.append(name)
    for names, what in ((differ, ""), (decisions_differ, " in their decisions")):
        print(f"{len(names)} of {len(first)} runs differ{what}"
              + "".join(f"\n  {n}" for n in names))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
