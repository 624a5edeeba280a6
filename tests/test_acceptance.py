"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL table.
"""

import time
from functools import lru_cache

import numpy as np

from almpde.grid import build_mesh, IntervalField
from almpde.operators import DiffusionCoefficients, assemble_operator
from almpde.cost import subproblem_objective
from almpde.solvers import solve_forward
from almpde.msa import MsaConfig, msa_solve
from almpde.alm import AlmConfig, AlmState, alm_step, alm_run
from almpde.oracles import (analytic_decay_oracle, adjoint_identity_check,
                            projected_gradient_oracle, control_distance)
from almpde.presets import build_paper_example_sec5, build_unconstrained_decay
from almpde.cli import main

from conftest import make_random_spec


def verdict(num, label, ok=True):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {label}")


def test_criterion_1_obstacle_example_converges():
    """Built-in obstacle example on the h = dt = 0.25 grid reaches the
    stopping tolerance with a contracting success subsequence, at a
    stationary point with the optimal cost."""
    t0 = time.time()
    mesh = build_mesh(5, 5, 4, 1.0, 1.0, 1.0)
    spec = build_paper_example_sec5(mesh)
    config = AlmConfig(rho0=1.0, mu0=10.0, tau=0.9, gamma=2.0, eps2=1e-4, max_outer=200)
    trace = alm_run(spec, config)
    elapsed = time.time() - t0

    assert trace.termination == "tolerance_met"
    Rs = [r.R for r in trace.rows if r.success]
    assert all(Rs[i + 1] < Rs[i] for i in range(len(Rs) - 1)), "success residuals not strictly decreasing"
    assert all(Rs[n] <= config.tau ** (n + 1) * config.r_plus0 for n in range(len(Rs)))
    last = trace.rows[-1]
    assert last.feas <= 1e-4
    assert last.compl <= 1e-4
    assert last.stat_u <= 1e-4
    assert abs(last.J - 0.033051) <= 1e-4
    assert elapsed <= 60.0
    verdict(1, f"obstacle example: R+ -> {Rs[-1]:.1e} in k={last.k}, stat_u {last.stat_u:.1e}, "
               f"J {last.J:.6f} ({elapsed:.1f}s)")


def test_criterion_2_solver_validated_against_cosine_modes():
    """Analytic-mode validation: cosine decay error <= 5% and strictly
    decreasing under refinement.  The exponential-sine closed form sometimes
    quoted for this setup is provably not a solution of the homogeneous-flux
    problem, so it is never used as ground truth."""
    coarse = analytic_decay_oracle(build_mesh(33, 33, 64, 1.0, 1.0, 0.1))
    fine = analytic_decay_oracle(build_mesh(65, 65, 256, 1.0, 1.0, 0.1))
    assert coarse.error <= 0.05
    assert fine.error < coarse.error

    # executable record of why the sine closed form is rejected: its normal
    # derivative does not vanish on the boundary, and the source it would
    # require exceeds the control bound u_b = 1 by an order of magnitude
    normal_derivative_at_left_edge = np.pi * np.sin(np.pi * 0.5)  # d/dx sin(pi x) at x=0, y=0.5
    assert abs(normal_derivative_at_left_edge) > 1.0
    required_source_peak = (2 * np.pi ** 2 - 2 * np.pi) * 1.0      # (y_t - lapl y)/y at the peak
    assert required_source_peak > 1.0
    verdict(2, f"cosine-mode decay error {coarse.error:.2e} (5% cap), refinement {fine.error:.2e}")


def test_criterion_3_adjoint_and_gradient_correctness():
    """Adjoint directional derivatives of the sub-problem objective, the
    gradient the inner solver steps with, match finite differences to 1e-6
    on 20 seeds."""
    errs = [adjoint_identity_check(seed=s).error for s in range(20)]
    assert max(errs) <= 1e-6
    verdict(3, f"adjoint FD error {max(errs):.1e}")


def _sec5_subproblem(mu_level=10.0):
    mesh = build_mesh(5, 5, 4, 1.0, 1.0, 1.0)
    return build_paper_example_sec5(mesh), IntervalField.constant(mesh, mu_level)


@lru_cache(maxsize=None)
def _dense_oracle(rho, mu_level=10.0):
    """The dense oracle's control and cost at penalty rho, computed once."""
    spec, mu = _sec5_subproblem(mu_level)
    u_o, _, cost_o = projected_gradient_oracle(spec, rho, mu, iters=100000, lr=1e-3)
    return u_o, cost_o


def _oracle_match(rho, msa_cfg, mu_level=10.0):
    spec, mu = _sec5_subproblem(mu_level)
    res = msa_solve(spec, rho, mu, config=msa_cfg)
    u_o, cost_o = _dense_oracle(rho, mu_level)
    diff = control_distance(spec.mesh, res.u, u_o)
    cost_m = subproblem_objective(spec, rho, mu, res.u, y=res.y)
    return res, diff, cost_m, cost_o


def test_criterion_4_oracle_equivalence_rho_1():
    """Pointwise-argmin inner solver agrees with the dense projected-gradient
    oracle at penalty 1."""
    _, diff, cost_m, cost_o = _oracle_match(1.0, MsaConfig(eps1=1e-9, max_inner=300))
    assert diff <= 1e-3
    assert cost_m <= cost_o + 1e-6
    verdict(4, f"rho=1 argmin-vs-oracle control gap {diff:.1e}, cost excess {cost_m - cost_o:.1e}")


def test_criterion_4_oracle_equivalence_rho_1_interior_controls():
    """The same comparison at penalty 1 from the multiplier 1, where the
    optimal controls lie inside their bounds: at mu = 10 every control sits
    at the bound -1, so that leg compares no interior value."""
    res, diff, cost_m, cost_o = _oracle_match(1.0, MsaConfig(eps1=1e-9, max_inner=300),
                                              mu_level=1.0)
    interior = np.abs(res.u.values) < 1.0
    ok = res.converged and interior.any() and diff <= 1e-3 and cost_m <= cost_o + 1e-6
    verdict(4, f"rho=1 mu=1 argmin-vs-oracle control gap {diff:.1e} with "
               f"{int(interior.sum())} of {interior.size} controls interior, "
               f"{res.inner_iters} inner iterations", ok)
    assert res.converged
    assert interior.any()
    assert diff <= 1e-3
    assert cost_m <= cost_o + 1e-6


def test_criterion_4_oracle_equivalence_rho_8_exact_argmin():
    """The inner solver agrees with the dense oracle at penalty 8, where the
    plain pointwise-argmin update two-cycles (its linearized loop gain on
    this instance is ~3.3 > 1): the line search, started from the argmin,
    shortens the steps the clamp would overshoot with."""
    res, diff, cost_m, cost_o = _oracle_match(8.0, MsaConfig(eps1=1e-9, max_inner=300))
    ok = res.converged and diff <= 1e-3 and cost_m <= cost_o + 1e-6
    verdict(4, f"rho=8 argmin-vs-oracle control gap {diff:.1e} "
               f"in {res.inner_iters} inner iterations", ok)
    assert res.converged
    assert diff <= 1e-3
    assert cost_m <= cost_o + 1e-6


def test_criterion_5_branch_semantics():
    """Penalty scaling, multiplier sign, and success contraction hold exactly
    on randomized runs.  The inner solves converge, so a failure takes a
    demanding contraction factor: tau is drawn from (0.05, 0.3)."""
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
            rho_before, mu_before = state.rho, state.mu
            R_plus_before = state.R_plus
            result, R, success, state, _ = alm_step(spec, state, warm, config)
            warm = result
            assert np.all(state.mu.values >= 0.0)
            if success:
                total_success += 1
                assert state.rho == rho_before
                assert R <= config.tau * R_plus_before
            else:
                total_failure += 1
                assert state.rho == config.gamma * rho_before
                assert np.array_equal(state.mu.values, mu_before.values)
    assert total_success > 0 and total_failure > 0
    verdict(5, f"branch semantics exact over {total_success} successes / {total_failure} failures")


def test_criterion_6_degenerate_correctness():
    """Inactive-obstacle run finishes in one success with a zero multiplier;
    constant states are preserved exactly; the mean is conserved to 1e-10."""
    mesh = build_mesh(5, 5, 4, 1.0, 1.0, 1.0)
    spec = build_unconstrained_decay(mesh)
    trace = alm_run(spec, AlmConfig(mu0=0.0))
    assert trace.termination == "tolerance_met"
    assert len(trace.rows) == 1 and trace.rows[0].R == 0.0
    assert np.all(trace.final_result.mu_bar.values == 0.0)

    op = assemble_operator(DiffusionCoefficients.unit(mesh))
    y = solve_forward(mesh, op, IntervalField.zeros(mesh), None,
                      np.full(mesh.shape_space, 2.5))
    assert np.abs(y.values - 2.5).max() == 0.0

    rng = np.random.default_rng(3)
    m = build_mesh(17, 17, 20, 1.0, 1.0, 0.5)
    op = assemble_operator(DiffusionCoefficients.unit(m))
    y = solve_forward(m, op, IntervalField.zeros(m), None,
                      rng.uniform(0.5, 2.0, m.shape_space))
    masses = np.array([np.sum(m.w_space * y.values[k]) for k in range(m.nt + 1)])
    drift = np.abs(masses - masses[0]).max() / abs(masses[0])
    assert drift <= 1e-10
    verdict(6, f"one-success unconstrained run, exact constants, mass drift {drift:.1e}")


def test_criterion_7_deterministic_traces(tmp_path):
    """Identical configs give byte-identical trace files."""
    traces = []
    for tag in ("a", "b"):
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text("problem.preset = paper_example_sec5\n"
                       f"run.output_dir = {tmp_path / ('out_' + tag)}\n")
        assert main(["run", "--config", str(cfg)]) == 0
        traces.append((tmp_path / ("out_" + tag) / "trace.csv").read_bytes())
    assert traces[0] == traces[1]
    verdict(7, f"byte-identical traces ({len(traces[0])} bytes)")
