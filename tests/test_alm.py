import ast
import csv
import importlib
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from almpde import alm, cost, grid, msa, operators
from almpde.config import build_run, parse_config
from almpde.cost import ProblemSpec, cost_J, multiplier_candidate, multiplier_square, penalty
from almpde.grid import (build_mesh, BoundaryTimeField, ControlBounds, IntervalField,
                         TimeField, space_slice_from_function)
from almpde.msa import MsaConfig
from almpde.operators import DiffusionCoefficients
from almpde.alm import (AlmConfig, AlmState, AlmTraceRow, alm_step, alm_run,
                        TRACE_COLUMNS, format_trace_row)
from almpde.presets import (build_boundary_control_demo, build_paper_example_sec5,
                            build_unconstrained_decay)

from conftest import make_random_spec


def test_first_step_success_when_feasible():
    mesh = build_mesh(5, 5, 4, 1.0, 1.0, 1.0)
    spec = build_unconstrained_decay(mesh)
    config = AlmConfig(mu0=0.0)
    state = AlmState.initial(mesh, config)
    result, R, success, new_state, _ = alm_step(spec, state, None, config)
    assert success and R == 0.0
    assert new_state.rho == state.rho
    assert new_state.n == 1 and new_state.k == 1


def test_failure_branch_scales_rho_and_keeps_mu(sec5_spec, unit_mesh):
    # a tiny R+_0 forces the first residual test to fail
    config = AlmConfig(mu0=10.0, r_plus0=1e-9, gamma=2.0)
    state = AlmState.initial(unit_mesh, config)
    result, R, success, new_state, _ = alm_step(sec5_spec, state, None, config)
    assert not success
    assert new_state.rho == 2.0 * state.rho
    assert new_state.n == 0
    assert np.array_equal(new_state.mu.values, state.mu.values)


def test_unconverged_subproblem_takes_the_failure_branch(sec5_spec, unit_mesh):
    # one inner update cannot meet eps1 = 1e-12, so the residual test passes
    # but the step fails: rho grows, mu is kept, and no run of such steps
    # reports tolerance_met
    config = AlmConfig(mu0=1.0, gamma=2.0, max_outer=4,
                       msa=MsaConfig(eps1=1e-12, max_inner=1))
    state = AlmState.initial(unit_mesh, config)
    result, R, success, new_state, _ = alm_step(sec5_spec, state, None, config)
    assert not result.converged
    assert R <= config.tau * state.R_plus
    assert not success
    assert new_state.rho == 2.0 * state.rho
    assert new_state.n == 0
    assert np.array_equal(new_state.mu.values, state.mu.values)
    trace = alm_run(sec5_spec, config)
    assert trace.termination == "max_outer"
    assert [row.rho for row in trace.rows] == [1.0, 2.0, 4.0, 8.0]
    assert not any(row.success for row in trace.rows)


def test_success_adopts_multiplier(sec5_spec, unit_mesh):
    config = AlmConfig(mu0=10.0)
    state = AlmState.initial(unit_mesh, config)
    result, R, success, new_state, _ = alm_step(sec5_spec, state, None, config)
    assert success
    assert np.array_equal(new_state.mu.values, result.mu_bar.values)
    assert new_state.R_plus == R


def test_branch_semantics_randomized():
    # penalty scaling, multiplier sign, and success contraction on random
    # problems; both branches must occur across the seeds.  The inner solves
    # converge, so failures come from the demanding tau in (0.05, 0.3).
    total_success = total_failure = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        spec = make_random_spec(rng)
        config = AlmConfig(rho0=rng.uniform(0.5, 2.0), mu0=rng.uniform(0.0, 5.0),
                           tau=rng.uniform(0.05, 0.3), gamma=rng.uniform(1.5, 3.0),
                           eps2=1e-8, max_outer=10, msa=MsaConfig(max_inner=60))
        state = AlmState.initial(spec.mesh, config)
        warm = None
        for _ in range(config.max_outer):
            rho_before = state.rho
            mu_before = state.mu
            R_plus_before = state.R_plus
            result, R, success, state, _ = alm_step(spec, state, warm, config)
            warm = result
            assert np.all(state.mu.values >= 0.0)
            if success:
                total_success += 1
                assert state.rho == rho_before
                assert R <= config.tau * R_plus_before
                assert state.R_plus == R
            else:
                total_failure += 1
                assert state.rho == config.gamma * rho_before
                assert np.array_equal(state.mu.values, mu_before.values)
    assert total_success > 0 and total_failure > 0


def test_run_terminates_on_tolerance(sec5_spec):
    config = AlmConfig(mu0=10.0, eps2=1e-4, max_outer=60)
    trace = alm_run(sec5_spec, config)
    assert trace.termination == "tolerance_met"
    Rs = [r.R for r in trace.rows if r.success]
    assert Rs[-1] <= 1e-4
    assert all(Rs[i + 1] < Rs[i] for i in range(len(Rs) - 1))
    assert all(Rs[i] <= config.tau ** (i + 1) * config.r_plus0 for i in range(len(Rs)))
    # rho grows exactly by gamma on failures, stays otherwise
    for a, b in zip(trace.rows[:-1], trace.rows[1:]):
        assert b.rho == (a.rho if a.success else config.gamma * a.rho)
    last = trace.rows[-1]
    assert last.feas <= config.eps2 and last.compl <= config.eps2


def test_initial_slice_does_not_drive_the_outer_loop(sec5_spec):
    # y0 touches psi at the centre; the multiplier holds only the slices
    # m = 1..nt, so mu0 = 10 cannot hold the residual up on the initial
    # slice and force rho increases
    trace = alm_run(sec5_spec, AlmConfig(mu0=10.0))
    assert trace.termination == "tolerance_met"
    assert all(row.rho == 1.0 for row in trace.rows)
    assert trace.final_result.mu_bar.values.shape == IntervalField.shape(sec5_spec.mesh)


def run_config(tmp_path, lines):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(line + "\n" for line in lines))
    return alm_run(*build_run(parse_config(str(cfg))))


def test_boundary_demo_with_costly_interior_control_is_stationary(tmp_path):
    # with alpha = 3 and beta = 0.3 the plain clamp sent v back and forth
    # between its bounds; the inner solve now converges and the run ends
    # stationary
    trace = run_config(tmp_path, ["problem.preset = boundary_control_demo",
                                  "problem.alpha = 3", "problem.beta = 0.3"])
    assert trace.termination == "tolerance_met"
    last = trace.rows[-1]
    assert last.stat_u <= 1e-4 and last.stat_v <= 1e-4


def test_paper_preset_from_a_small_multiplier_keeps_rho(tmp_path):
    # from mu0 = 1 the plain clamp never converged, so rho doubled on every
    # outer iteration; converged inner solves are accepted at rho = 1
    trace = run_config(tmp_path, ["problem.preset = paper_example_sec5", "alm.mu0 = 1"])
    assert trace.termination == "tolerance_met"
    assert len(trace.rows) <= 5
    assert all(row.rho == 1.0 for row in trace.rows)
    assert trace.rows[-1].stat_u <= 1e-4


def test_run_unconstrained_single_success():
    mesh = build_mesh(5, 5, 4, 1.0, 1.0, 1.0)
    spec = build_unconstrained_decay(mesh)
    trace = alm_run(spec, AlmConfig(mu0=0.0))
    assert trace.termination == "tolerance_met"
    assert len(trace.rows) == 1
    assert trace.rows[0].R == 0.0
    assert np.all(trace.final_result.mu_bar.values == 0.0)


def test_run_max_outer_cap(sec5_spec):
    trace = alm_run(sec5_spec, AlmConfig(mu0=10.0, max_outer=1))
    assert trace.termination == "max_outer"
    assert len(trace.rows) == 1
    assert trace.best_k == 1


def test_run_marks_best_iterate(sec5_spec):
    trace = alm_run(sec5_spec, AlmConfig(mu0=10.0, max_outer=5, eps2=0.0))
    best = min(trace.rows, key=lambda r: r.R)
    assert trace.best_k == best.k


def test_trace_csv_format(tmp_path, sec5_spec):
    trace = alm_run(sec5_spec, AlmConfig(mu0=10.0, max_outer=3, eps2=1e-12))
    path = tmp_path / "trace.csv"
    path.write_text("".join(line + "\n" for line in
                            [TRACE_COLUMNS] + [format_trace_row(r) for r in trace.rows]))
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert ",".join(header) == TRACE_COLUMNS
        rows = list(reader)
    assert len(rows) == len(trace.rows)
    for parsed, row in zip(rows, trace.rows):
        assert int(parsed[0]) == row.k
        assert float(parsed[2]) == row.rho
        assert float(parsed[3]) == row.R
        assert int(parsed[4]) == int(row.success)


def test_alm_config_validation():
    with pytest.raises(ValueError, match="tau"):
        AlmConfig(tau=1.5)
    with pytest.raises(ValueError, match="gamma"):
        AlmConfig(gamma=1.0)
    with pytest.raises(ValueError, match="rho0"):
        AlmConfig(rho0=0.0)
    with pytest.raises(ValueError, match="max_outer"):
        AlmConfig(max_outer=0)
    with pytest.raises(ValueError, match="mu0 must be nonnegative"):
        AlmConfig(mu0=-1.0)
    # nan fails the range check first and keeps its message
    with pytest.raises(ValueError, match=r"^tau must lie in \(0,1\), got nan$"):
        AlmConfig(tau=np.nan)


@pytest.mark.parametrize("name", ["rho0", "mu0", "gamma", "r_plus0", "eps2"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_alm_config_rejects_nonfinite(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        AlmConfig(**{name: value})


def test_state_holds_only_what_the_loop_carries(unit_mesh):
    config = AlmConfig(rho0=2.0, mu0=3.0, r_plus0=5.0)
    state = AlmState.initial(unit_mesh, config)
    assert [f.name for f in fields(AlmState)] == ["mu", "rho", "R_plus", "n", "k"]
    assert (state.rho, state.R_plus, state.n, state.k) == (2.0, 5.0, 0, 0)
    assert np.all(state.mu.values == 3.0)
    with pytest.raises(ValueError, match="multiplier must be nonnegative"):
        AlmState(mu=IntervalField.constant(unit_mesh, -1.0), rho=1.0,
                 R_plus=1.0, n=0, k=0)
    with pytest.raises(ValueError, match="rho must be positive"):
        AlmState(mu=state.mu, rho=0.0, R_plus=1.0, n=0, k=0)


def test_trace_columns_are_the_row_fields():
    assert TRACE_COLUMNS == ("k,n,rho,R,success,J,L_rho,feas,compl,stat_u,stat_v,"
                             "inner_iters,final_gap")
    assert TRACE_COLUMNS.split(",") == [f.name for f in fields(AlmTraceRow)]


def test_format_trace_row_text_by_field_type():
    row = AlmTraceRow(k=12, n=7, rho=0.1, R=np.float64(1.0) / 3.0, success=True,
                      J=np.inf, L_rho=-2.5, feas=0.0, compl=1e-300, stat_u=1e20,
                      stat_v=np.float64(0.30000000000000004), inner_iters=500,
                      final_gap=1.0)
    assert format_trace_row(row) == (
        "12,7,0.10000000000000001,0.33333333333333331,1,inf,-2.5,0,"
        "1e-300,1e+20,0.30000000000000004,500,1")
    assert format_trace_row(AlmTraceRow(1, 0, 2.0, 0.5, False, *[0.0] * 6, 3, 0.0)) == (
        "1,0,2,0.5,0,0,0,0,0,0,0,3,0")


def test_benchmark_row_fields_are_trace_row_fields():
    # the benchmark fingerprints each row by getattr(row, name, None), so a
    # renamed trace field would silently drop out of its determinism check
    source = Path(__file__).resolve().parents[1] / "perfbench" / "bench.py"
    row_fields = next(ast.literal_eval(node.value) for node in ast.parse(source.read_text()).body
                      if isinstance(node, ast.Assign)
                      and [getattr(t, "id", None) for t in node.targets] == ["ROW_FIELDS"])
    assert set(row_fields) <= {f.name for f in fields(AlmTraceRow)}


# (module, attribute) entries of the benchmark's trace patches that name
# nothing in the package, each with its reason; ROADMAP item 5 removes them
UNTRACEABLE_PATCHES = {
    ("almpde.kernels", "solve_shifted"): "the conjugate-gradient kernel; the "
                                         "banded factor replaced it",
    ("almpde.alm", "residual_index"): "alm_step takes R from its one kkt_residuals call",
    ("almpde.alm", "augmented_lagrangian"): "deleted as dead code; L_rho is J plus the penalty",
}


def _traced_names():
    """The (module, attribute) pairs of perfbench/tracing.py's PATCHES."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    patches = next(node.value for node in ast.parse(source.read_text()).body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["PATCHES"])
    return [(entry.elts[0].value, entry.elts[1].value) for entry in patches.elts]


def _defines(module_name, attr):
    try:
        return hasattr(importlib.import_module(module_name), attr)
    except ModuleNotFoundError:
        return False


def test_every_name_the_benchmark_traces_exists():
    # the tracer skips a patch whose name is gone without a word, so a
    # renamed function would drop its layer's spans from the benchmark
    missing = [name for name in _traced_names()
               if name not in UNTRACEABLE_PATCHES and not _defines(*name)]
    assert not missing, f"traced names the package does not define: {missing}"


def test_every_untraceable_patch_is_still_missing():
    traced = _traced_names()
    assert all(name in traced and not _defines(*name) for name in UNTRACEABLE_PATCHES)


def varcoef_sec5_spec():
    """The paper example's data on its 5x5x4 mesh with seeded variable
    coefficients, so that its operator steps on the banded path."""
    mesh = build_mesh(5, 5, 4, 1.0, 1.0, 1.0)
    rng = np.random.default_rng(3)
    base = build_paper_example_sec5(mesh)
    coeffs = DiffusionCoefficients(mesh, rng.uniform(0.5, 2.0, mesh.shape_space),
                                   rng.uniform(0.5, 2.0, mesh.shape_space))
    return ProblemSpec(mesh, coeffs, base.y0, base.y_d, base.psi, base.alpha, base.beta,
                       base.bounds)


def counted_calls(monkeypatch, calls, targets):
    """Count the calls of each (owner, name) in targets under that name."""
    for owner, name in targets:
        fn = getattr(owner, name)

        def run(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, run)


def test_run_factors_the_step_matrix_once(monkeypatch):
    # the banded path: the paper example with seeded variable coefficients
    calls = {"pbtrf_lower": 0}
    counted_calls(monkeypatch, calls, [(operators, "pbtrf_lower")])
    spec = varcoef_sec5_spec()
    operators.assemble_operator(spec.coeffs)
    op = spec.operator()
    assert type(op) is operators.BandedOperator
    # set-up builds the stencil and the load weights, and leaves the factor
    # and its argument block to the first sweep
    assert calls == {"pbtrf_lower": 0}
    assert "factor" not in vars(op) and "solve" not in vars(op)
    assert "stencil" in vars(op) and "load_mass" in vars(op)
    alm_run(spec, AlmConfig(mu0=10.0))
    assert calls == {"pbtrf_lower": 1}
    assert op.solve is spec.operator().solve


def test_paper_run_builds_one_basis_and_no_banded_factor(tmp_path, monkeypatch):
    # the paper preset has unit coefficients, so its operator takes the
    # separable path: one basis, built on the first sweep, and no banded
    # factor or solve
    calls = {"separable_basis": 0, "pbtrf_lower": 0, "pbtrs": 0}
    counted_calls(monkeypatch, calls, [(operators, name) for name in calls])
    cfg = tmp_path / "sec5.cfg"
    cfg.write_text("problem.preset = paper_example_sec5\n")
    spec, config = build_run(parse_config(str(cfg)))
    op = spec.operator()
    assert type(op) is operators.SeparableOperator
    assert "basis" not in vars(op) and calls["separable_basis"] == 0
    trace = alm_run(spec, config)
    assert (len(trace.rows), sum(row.inner_iters for row in trace.rows)) == (14, 53)
    assert calls == {"separable_basis": 1, "pbtrf_lower": 0, "pbtrs": 0}
    assert op.basis is spec.operator().basis and "factor" not in vars(op)


def test_paper_run_makes_one_banded_solve_per_step_of_the_unknowns(monkeypatch):
    # the paper example with seeded variable coefficients takes 13 outer and
    # 50 inner iterations and rejects no trial, so it makes 50 + 1 = 51
    # forward sweeps of nt = 4 steps and 50 + 13 = 63 adjoint sweeps of
    # nt = 4 steps, from the terminal mismatch down to p_1, as in
    # `test_run_sweeps_once_per_update_and_reuses_the_warm_state`: p_nt is
    # one ordinary step, whether mu_bar_nt is zero or not
    spec = varcoef_sec5_spec()
    calls = {"pbtrs": 0, "solve_forward": 0, "solve_adjoint": 0}
    counted_calls(monkeypatch, calls, [(operators, "pbtrs"), (msa, "solve_forward"),
                                       (msa, "solve_adjoint")])
    trace = alm_run(spec, AlmConfig(mu0=10.0))
    assert (len(trace.rows), sum(row.inner_iters for row in trace.rows)) == (13, 50)
    assert (calls["solve_forward"], calls["solve_adjoint"]) == (51, 63)
    assert calls["pbtrs"] == 51 * 4 + 63 * 4 == 456


def test_run_sweeps_once_per_update_and_reuses_the_warm_state(tmp_path, monkeypatch):
    # every outer iteration after the first starts from the previous result's
    # controls and state: Σinner + 1 forward sweeps and Σinner + outer adjoint
    # sweeps in all, because no trial is rejected on this problem
    calls = {"forward": 0, "adjoint": 0}

    def counted(name, sweep):
        def run(*args, **kwargs):
            calls[name] += 1
            return sweep(*args, **kwargs)
        return run

    monkeypatch.setattr(msa, "solve_forward", counted("forward", msa.solve_forward))
    monkeypatch.setattr(msa, "solve_adjoint", counted("adjoint", msa.solve_adjoint))
    cfg = tmp_path / "sec5.cfg"
    cfg.write_text("problem.preset = paper_example_sec5\n")
    trace = alm_run(*build_run(parse_config(str(cfg))))
    inner = sum(row.inner_iters for row in trace.rows)
    assert (len(trace.rows), inner) == (14, 53)
    assert calls == {"forward": inner + 1, "adjoint": inner + len(trace.rows)}
    assert calls == {"forward": 54, "adjoint": 67}



def test_run_applies_the_stencil_once_per_sweep_and_objective(tmp_path, monkeypatch):
    # dt A y0 is taken once per problem, by the spec, for all sub-problems,
    # and each sub-problem objective takes dt A of the terminal mismatch once.
    # Every adjoint sweep marches from that mismatch and takes its dt A
    # over, so no sweep applies the stencil: 1 + 67 on the paper preset
    # (separable path, 14 outer iterations, 67 objectives) and 1 + 63 with
    # seeded coefficients (banded path, 13 outer iterations, 63 objectives)
    calls = []
    apply = operators.FluxStencil.apply

    def counted(self, x, out):
        calls.append(1)
        return apply(self, x, out)

    monkeypatch.setattr(operators.FluxStencil, "apply", counted)
    cfg = tmp_path / "sec5.cfg"
    cfg.write_text("problem.preset = paper_example_sec5\n")
    trace = alm_run(*build_run(parse_config(str(cfg))))
    assert [row.inner_iters for row in trace.rows][:2] == [1, 0]
    assert len(calls) == 1 + 67
    calls.clear()
    trace = alm_run(varcoef_sec5_spec(), AlmConfig(mu0=10.0))
    assert len(trace.rows) == 13
    assert len(calls) == 1 + 63


def test_run_takes_the_integral_of_mu_squared_once_per_outer_iteration(tmp_path, monkeypatch):
    # msa_solve takes integral mu^2 of its sub-problem once, and the row's
    # L_rho reuses it from the result: 14 outer iterations, 14 integrals
    calls = []
    square = cost.multiplier_square

    def counted(mesh, mu):
        calls.append(1)
        return square(mesh, mu)

    monkeypatch.setattr(cost, "multiplier_square", counted)
    monkeypatch.setattr(msa, "multiplier_square", counted)
    cfg = tmp_path / "sec5.cfg"
    cfg.write_text("problem.preset = paper_example_sec5\n")
    trace = alm_run(*build_run(parse_config(str(cfg))))
    assert len(trace.rows) == 14
    assert len(calls) == 14


def test_run_takes_the_residuals_once_per_outer_iteration(tmp_path, monkeypatch):
    # R is the sum of the row's own feasibility and complementarity, so each
    # is evaluated once per outer iteration
    calls = {"_feasibility": 0, "_complementarity": 0}

    def counted(name):
        fn = getattr(cost, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cost, name, counted(name))
    cfg = tmp_path / "sec5.cfg"
    cfg.write_text("problem.preset = paper_example_sec5\n")
    trace = alm_run(*build_run(parse_config(str(cfg))))
    assert len(trace.rows) == 14
    assert calls == {"_feasibility": 14, "_complementarity": 14}
    for row in trace.rows:
        assert row.R == row.feas + row.compl


def test_a_solving_process_does_not_import_scipy(tmp_path):
    # the solves call LAPACK in the library numpy links (`almpde.lapack`),
    # so importing the package and its command line and running the paper
    # preset leaves every scipy module unimported, and the resident set
    # without them; `test_dependencies` checks the oracles the same way
    cfg = tmp_path / "sec5.cfg"
    cfg.write_text("problem.preset = paper_example_sec5\n")
    code = ("import sys\n"
            "import almpde\n"
            "import almpde.cli\n"
            "from almpde.alm import alm_run\n"
            "from almpde.config import build_run, parse_config\n"
            f"trace = alm_run(*build_run(parse_config({str(cfg)!r})))\n"
            "assert trace.termination == 'tolerance_met'\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_row_objective_is_evaluated_once_and_l_rho_matches(sec5_spec, monkeypatch):
    # L_rho is the row's J plus the penalty of the multiplier candidate,
    # recomputed here from the iteration's own (mu, rho), so a row that used
    # the updated state would differ
    steps, objectives = [], []
    step, cost_j = alm.alm_step, alm.cost_J

    def recorded_step(spec, state, warm, config):
        out = step(spec, state, warm, config)
        steps.append((state.mu, state.rho, out[0]))
        return out

    def counted_cost_j(*args):
        objectives.append(1)
        return cost_j(*args)

    monkeypatch.setattr(alm, "alm_step", recorded_step)
    monkeypatch.setattr(alm, "cost_J", counted_cost_j)
    monkeypatch.setattr(cost, "cost_J", counted_cost_j)
    trace = alm_run(sec5_spec, AlmConfig(mu0=10.0, max_outer=6))
    assert len(objectives) == len(trace.rows) == len(steps)
    for row, (mu, rho, result) in zip(trace.rows, steps):
        mu_bar = multiplier_candidate(result.y, sec5_spec.psi, mu, rho)
        assert row.L_rho == (cost_J(sec5_spec, result.y, result.u)
                             + penalty(sec5_spec.mesh, mu_bar,
                                       multiplier_square(sec5_spec.mesh, mu), rho))


def _varcoef_boundary_spec(mesh):
    """A 9x9 problem with seeded variable coefficients, boundary control and
    an obstacle the initial bump touches."""
    rng = np.random.default_rng(9)
    coeffs = operators.DiffusionCoefficients(mesh, rng.uniform(0.5, 2.0, mesh.shape_space),
                                             rng.uniform(0.5, 2.0, mesh.shape_space))
    y0 = space_slice_from_function(mesh, lambda x, y: 0.5 * np.sin(np.pi * x) * np.sin(np.pi * y))
    y_d = space_slice_from_function(mesh, lambda x, y: 0.3 * (x - 0.5) + 0.0 * y)
    return cost.ProblemSpec(mesh, coeffs, y0, y_d, TimeField.constant(mesh, 0.5),
                            alpha=0.5, beta=1.0,
                            bounds=ControlBounds.constant(mesh, -0.2, 0.2, -1.0, 1.0),
                            boundary_control_enabled=True)


@pytest.mark.parametrize("build, dims, mu0", [
    (build_paper_example_sec5, (5, 5, 4, 1.0, 1.0, 1.0), 10.0),
    (_varcoef_boundary_spec, (9, 9, 8, 1.0, 1.0, 0.5), 1.0),
])
def test_constant_field_storage_does_not_change_results(build, dims, mu0, monkeypatch):
    # once with every constant field (bounds, psi, mu0 and the zero starts)
    # a zero-stride view of one number, once materialised with np.full: the
    # trace rows and the final fields must agree bit for bit
    def run():
        spec = build(build_mesh(*dims))
        return spec, alm_run(spec, AlmConfig(mu0=mu0))

    spec, views = run()
    assert spec.psi.values.strides == (0, 0, 0)
    monkeypatch.setattr(grid._Field, "constant", classmethod(
        lambda cls, mesh, c: cls(mesh, np.full(cls.shape(mesh), float(c)))))
    spec, full = run()
    assert spec.psi.values.flags.c_contiguous and spec.bounds.vb.values.flags.c_contiguous
    assert len(views.rows) > 1 and views.termination == "tolerance_met"
    assert ([format_trace_row(r) for r in views.rows]
            == [format_trace_row(r) for r in full.rows])
    names = ["y", "u", "p", "mu_bar"]
    if spec.boundary_control_enabled:
        names.append("v")
    else:
        assert views.final_result.v is None and full.final_result.v is None
    for name in names:
        assert (getattr(views.final_result, name).values.tobytes()
                == getattr(full.final_result, name).values.tobytes()), name


@pytest.mark.parametrize("build, dims, mu0", [
    (build_paper_example_sec5, (5, 5, 4, 1.0, 1.0, 1.0), 10.0),
    (build_paper_example_sec5, (9, 9, 8, 1.0, 1.0, 1.0), 10.0),
    (build_boundary_control_demo, (9, 9, 8, 1.0, 1.0, 0.5), 0.0),
])
def test_a_boundary_control_pinned_at_zero_changes_nothing(build, dims, mu0):
    # u and v go through one code path: with v boxed to [0, 0], the run with
    # boundary control takes every trace row and the bits of y, u, p and
    # mu_bar of the run without it
    base = build(build_mesh(*dims))
    mesh, b = base.mesh, base.bounds
    zero = BoundaryTimeField.zeros(mesh)

    def run(bounds, boundary):
        spec = cost.ProblemSpec(mesh, base.coeffs, base.y0, base.y_d, base.psi, base.alpha,
                                base.beta, bounds, boundary_control_enabled=boundary)
        return alm_run(spec, AlmConfig(mu0=mu0))

    off = run(b, False)
    pinned = run(ControlBounds(b.ua, b.ub, zero, zero), True)
    assert off.final_result.v is None and not pinned.final_result.v.values.any()
    assert ([format_trace_row(r) for r in pinned.rows]
            == [format_trace_row(r) for r in off.rows])
    for name in ("y", "u", "p", "mu_bar"):
        assert (getattr(pinned.final_result, name).values.tobytes()
                == getattr(off.final_result, name).values.tobytes()), name
