import numpy as np
import pytest

from almpde.grid import build_mesh, TimeField, IntervalField, ControlBounds
from almpde.cost import ProblemSpec
from almpde.oracles import (OracleReport, analytic_decay_oracle,
                            decay_refinement_oracle, adjoint_identity_check,
                            projected_gradient_oracle, argmin_bruteforce_check,
                            control_distance, run_checks, ORACLE_CHECKS)
from almpde.presets import build_unconstrained_decay


def test_report_pass_iff_error_below_tolerance():
    assert OracleReport("a", 1e-3, 1e-2).passed
    assert not OracleReport("a", 1e-2, 1e-3).passed
    assert OracleReport("a", 1e-3, 1e-3).passed


def test_decay_oracle_passes_default_grid():
    rep = analytic_decay_oracle(build_mesh(33, 33, 64, 1.0, 1.0, 0.1))
    assert rep.passed
    assert rep.error <= 0.05


def test_decay_oracle_two_mode_variant():
    rep = analytic_decay_oracle(build_mesh(33, 33, 64, 1.0, 1.0, 0.1), mode="xy")
    assert rep.passed


def test_decay_oracle_requires_unit_square():
    with pytest.raises(ValueError, match="unit square"):
        analytic_decay_oracle(build_mesh(9, 9, 4, 2.0, 1.0, 0.1))


def test_decay_error_strictly_decreases_under_refinement():
    rep = decay_refinement_oracle(coarse=(17, 17, 16), fine=(33, 33, 64))
    assert rep.passed
    assert rep.error < 1.0
    assert rep.context["fine_error"] < rep.context["coarse_error"]


def test_adjoint_identity_single_seed():
    rep = adjoint_identity_check(seed=0)
    assert rep.passed
    assert rep.error <= 1e-6
    assert rep.context["min_kink_distance"] >= 1e-3


def test_adjoint_identity_closed_form_control_term():
    # pick y_d as the terminal state reached by a fixed nonzero control: the
    # terminal mismatch then vanishes at that control, the penalty is
    # inactive, and the directional derivative reduces to the closed-form
    # control term alpha * dt * sum_m <u_m, du_m>_M
    from almpde.cost import ProblemSpec, subproblem_objective
    from almpde.solvers import solve_forward
    mesh = build_mesh(5, 5, 4, 1.0, 1.0, 1.0)
    base = build_unconstrained_decay(mesh)
    rng = np.random.default_rng(0)
    shape = IntervalField.shape(mesh)
    u = IntervalField(mesh, rng.uniform(-0.5, 0.5, shape))
    y_u = solve_forward(mesh, base.operator(), u, None, base.y0)
    spec = ProblemSpec(mesh, base.coeffs, base.y0, y_u.values[-1].copy(), base.psi,
                       alpha=1.3, beta=1.0, bounds=base.bounds)
    du = IntervalField(mesh, rng.uniform(-1, 1, shape))
    mu = IntervalField.zeros(mesh)
    # every term is exactly quadratic, so central differences carry no
    # truncation error; a large step avoids roundoff amplification
    h = 1e-2
    up = IntervalField(mesh, u.values + h * du.values)
    um = IntervalField(mesh, u.values - h * du.values)
    fd = (subproblem_objective(spec, 1.0, mu, up)
          - subproblem_objective(spec, 1.0, mu, um)) / (2 * h)
    closed = spec.alpha * mesh.dt * sum(
        np.sum(mesh.w_space * u.values[m] * du.values[m]) for m in range(mesh.nt))
    assert abs(fd - closed) / max(abs(closed), 1e-12) <= 1e-10


def test_adjoint_identity_fully_active_penalty():
    # y far above the obstacle on every penalized slice (m = 1..nt) keeps the
    # penalty on its smooth quadratic branch; the finite-difference agreement
    # must survive.  psi(., 0) = 1 keeps the initial state compatible.
    from almpde.cost import ProblemSpec
    mesh = build_mesh(6, 5, 5, 1.0, 1.0, 0.5)
    base = build_unconstrained_decay(mesh)
    psi = np.full((mesh.nt + 1,) + mesh.shape_space, -10.0)
    psi[0] = 1.0
    spec = ProblemSpec(mesh, base.coeffs, base.y0, base.y_d,
                       TimeField(mesh, psi), alpha=1.0, beta=1.0,
                       bounds=base.bounds)
    rep = adjoint_identity_check(spec=spec, seed=5)
    assert rep.passed and rep.error <= 1e-6


def test_argmin_bruteforce():
    rep = argmin_bruteforce_check(seed=0, n_tuples=300)
    assert rep.passed and rep.error <= 1e-4


def test_projected_gradient_oracle_free_decay_gives_zero_control():
    mesh = build_mesh(5, 5, 4, 1.0, 1.0, 1.0)
    spec = build_unconstrained_decay(mesh)
    u, v, cost = projected_gradient_oracle(spec, 1.0, IntervalField.zeros(mesh),
                                           iters=10000, lr=1e-3)
    assert control_distance(mesh, u, IntervalField.zeros(mesh)) <= 1e-3


def test_projected_gradient_oracle_respects_pinned_bounds():
    mesh = build_mesh(5, 5, 4, 1.0, 1.0, 1.0)
    base = build_unconstrained_decay(mesh)
    spec = ProblemSpec(mesh, base.coeffs, base.y0, base.y_d, base.psi, 1.0, 1.0,
                       ControlBounds.constant(mesh, 0.0, 0.0))
    u, v, cost = projected_gradient_oracle(spec, 1.0, IntervalField.zeros(mesh),
                                           iters=100, lr=1e-3)
    assert np.all(u.values == 0.0)


def test_projected_gradient_oracle_grid_guard():
    mesh = build_mesh(17, 17, 4, 1.0, 1.0, 1.0)
    spec = build_unconstrained_decay(mesh)
    with pytest.raises(ValueError, match="restricted"):
        projected_gradient_oracle(spec, 1.0, IntervalField.zeros(mesh), iters=1)


def test_run_checks_selection_and_failure(monkeypatch):
    reports = run_checks(names=["argmin_bruteforce"])
    assert len(reports) == 1 and reports[0].passed
    monkeypatch.setitem(ORACLE_CHECKS, "failing", lambda: OracleReport("failing", 1.0, 0.5))
    forced = run_checks(names=["failing"])
    assert [(r.name, r.passed) for r in forced] == [("failing", False)]
    with pytest.raises(ValueError, match="unknown check"):
        run_checks(names=["nope"])


def test_registry_names_are_stable():
    assert {"decay_x", "decay_x_refinement", "decay_xy", "adjoint_identity",
            "argmin_bruteforce",
            "msa_vs_gradient_oracle"} == set(ORACLE_CHECKS)
