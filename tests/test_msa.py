import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from almpde.grid import (build_mesh, TimeField, IntervalField, BoundaryTimeField, ControlBounds,
                         clamp, extract_boundary, space_slice_from_function)
from almpde import msa
from almpde.msa import MsaConfig, MsaDivergenceError, MsaResult, msa_solve
from almpde.alm import AlmConfig, alm_run
from almpde.cost import ProblemSpec, multiplier_candidate, subproblem_objective
from almpde.solvers import solve_forward, solve_adjoint
from almpde.operators import DiffusionCoefficients
from almpde.presets import (build_unconstrained_decay, build_boundary_control_demo,
                            build_paper_example_sec5)


def const(mesh, c):
    return IntervalField.constant(mesh, c)


def bconst(mesh, c):
    return BoundaryTimeField.constant(mesh, c)


# -------------------------------------------------- the solver's full step

def full_step(x, p, weight, lo, hi):
    """The solver's damped step at theta = 1: the pointwise argmin
    clip(-p / weight, lo, hi) of the control Hamiltonian."""
    return msa._damped_clamp(x, p.values / -weight, lo, hi, 1.0).values


def test_argmin_u_values(unit_mesh):
    bounds = ControlBounds.constant(unit_mesh, -1.0, 1.0)
    u = const(unit_mesh, 0.7)   # the full step does not depend on the current u
    assert np.all(full_step(u, const(unit_mesh, 0.0), 1.0, bounds.ua, bounds.ub) == 0.0)
    assert np.all(full_step(u, const(unit_mesh, 2.0), 1.0, bounds.ua, bounds.ub) == -1.0)
    assert np.all(full_step(u, const(unit_mesh, 0.5), 1.0, bounds.ua, bounds.ub) == -0.5)


def test_argmin_v_values(unit_mesh):
    bounds = ControlBounds.constant(unit_mesh, -1.0, 1.0, va=-1.0, vb=1.0)
    v = bconst(unit_mesh, 0.3)
    assert np.all(full_step(v, bconst(unit_mesh, 0.0), 1.0, bounds.va, bounds.vb) == 0.0)
    assert np.all(full_step(v, bconst(unit_mesh, 1.0), 1.0, bounds.va, bounds.vb) == -1.0)
    assert np.all(full_step(v, bconst(unit_mesh, -0.4), 2.0, bounds.va, bounds.vb)
                  == pytest.approx(0.2))


def test_argmin_requires_positive_weight(unit_mesh):
    # the full step divides by alpha (beta for v), so a problem is built
    # only with positive weights
    base = build_unconstrained_decay(unit_mesh)
    for alpha, beta in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)):
        with pytest.raises(ValueError, match="cost weights must be positive"):
            ProblemSpec(unit_mesh, base.coeffs, base.y0, base.y_d, base.psi,
                        alpha, beta, base.bounds)


def test_argmin_beats_random_perturbations(unit_mesh):
    # exact pointwise minimality of the full step over the admissible box,
    # for the control Hamiltonian alpha/2 u^2 + p u
    rng = np.random.default_rng(0)
    shape = IntervalField.shape(unit_mesh)
    for _ in range(5):
        p = IntervalField(unit_mesh, 3 * rng.standard_normal(shape))
        alpha = rng.uniform(0.2, 5.0)
        lo = rng.uniform(-2.0, -0.1)
        hi = rng.uniform(0.1, 2.0)
        bounds = ControlBounds.constant(unit_mesh, lo, hi)
        u_star = full_step(const(unit_mesh, 0.0), p, alpha, bounds.ua, bounds.ub)

        def hamiltonian(u):
            return 0.5 * alpha * u * u + p.values * u

        for _ in range(100):
            u_try = rng.uniform(lo, hi, u_star.shape)
            assert np.all(hamiltonian(u_star) <= hamiltonian(u_try) + 1e-12)


# --------------------------------------------------------------- gradients

def shifted(x):
    """x moved by 1."""
    return type(x)(x.mesh, x.values + 1.0)


def test_grad_u_values(unit_mesh):
    # the step products of s = 1 (|Omega| = T = 1): weight,
    # the Armijo slope <dt M (alpha u + p), s> = alpha u + p, and p
    w = unit_mesh.dt * unit_mesh.w_space
    for u, p, alpha, grad in ((0.0, 0.0, 1.0, 0.0), (1.0, 2.0, 1.0, 3.0),
                              (-1.0, 0.5, 2.0, -1.5)):
        x = const(unit_mesh, u)
        products = msa._step_products(x, shifted(x), w, alpha, const(unit_mesh, p))
        assert tuple(products) == pytest.approx((alpha, grad, p), rel=1e-14, abs=1e-15)


def test_grad_v_values(unit_mesh):
    # the same with the arc-length weights, which sum to the perimeter 4
    w = unit_mesh.dt * unit_mesh.w_arc
    for v, p, beta, grad in ((0.0, 0.0, 1.0, 0.0), (1.0, 1.0, 1.0, 2.0),
                             (0.5, -1.0, 2.0, 0.0)):
        x = bconst(unit_mesh, v)
        products = msa._step_products(x, shifted(x), w, beta, bconst(unit_mesh, p))
        assert tuple(products) == pytest.approx((4.0 * beta, 4.0 * grad, 4.0 * p),
                                                rel=1e-14, abs=1e-15)


def test_stationarity_is_the_sup_of_the_absolute_residual(unit_mesh):
    # max(max r, -min r) gives the bits of max |r|, and a zero sup is +0
    # also when every r is -0
    rng = np.random.default_rng(41)
    shape = IntervalField.shape(unit_mesh)
    lo, hi = const(unit_mesh, -0.5), const(unit_mesh, 0.5)
    for _ in range(20):
        x = IntervalField(unit_mesh, rng.uniform(-0.5, 0.5, shape))
        target = rng.standard_normal(shape)
        reference = np.abs(x.values - np.clip(target, -0.5, 0.5)).max()
        assert msa._stationarity(x, target, lo, hi) == reference
    gap = msa._stationarity(IntervalField.zeros(unit_mesh), np.full(shape, -0.0), lo, hi)
    assert gap == 0.0 and np.copysign(1.0, gap) == 1.0


def test_grad_u_matches_finite_differences(sec5_spec, unit_mesh):
    # the Armijo slope, with p the adjoint of u, is the derivative of Phi
    # along the step.  mu = 10 keeps the penalty on its quadratic branch, so
    # Phi is quadratic along the step and central differences are exact but
    # for rounding.
    rng = np.random.default_rng(1)
    spec, mu, rho = sec5_spec, const(unit_mesh, 10.0), 1.0
    op = spec.operator()
    shape = IntervalField.shape(unit_mesh)
    h = 1e-3
    for _ in range(10):
        u = IntervalField(unit_mesh, rng.uniform(-1.0, 1.0, shape))
        s = rng.standard_normal(shape)
        y = solve_forward(unit_mesh, op, u, None, spec.y0)
        p = solve_adjoint(unit_mesh, op, multiplier_candidate(y, spec.psi, mu, rho),
                          y.values[-1] - spec.y_d)
        _, slope, _ = msa._step_products(u, IntervalField(unit_mesh, u.values + s),
                                         op.load_mass, spec.alpha, p)
        fd = (subproblem_objective(spec, rho, mu, IntervalField(unit_mesh, u.values + h * s))
              - subproblem_objective(spec, rho, mu, IntervalField(unit_mesh, u.values - h * s))
              ) / (2 * h)
        assert abs(fd - slope) <= 1e-6 * max(abs(slope), 1.0)


# ------------------------------------------------------------- msa_solve

def count_sweeps(monkeypatch):
    """Route msa's sweeps through recorders; returns the list of
    ("forward", u, v) and ("adjoint", None, None) entries, in call order."""
    calls = []

    def forward(mesh, op, u, v, y0, a_y0, **kwargs):
        calls.append(("forward", u, v))
        return solve_forward(mesh, op, u, v, y0, a_y0, **kwargs)

    def adjoint(*args, **kwargs):
        calls.append(("adjoint", None, None))
        return solve_adjoint(*args, **kwargs)

    monkeypatch.setattr(msa, "solve_forward", forward)
    monkeypatch.setattr(msa, "solve_adjoint", adjoint)
    return calls


def start_from(spec, u, v=None):
    """A warm start from the controls (u, v): an MsaResult with their state
    from `solve_forward`, the fields a solve reads of it.  With boundary
    control v defaults to the cold start's; without it v is None."""
    if v is None and spec.boundary_control_enabled:
        v = msa._initial_control(spec.bounds.va, spec.bounds.vb)
    y = solve_forward(spec.mesh, spec.operator(), u, v, spec.y0)
    return MsaResult(y=y, u=u, v=v, p=None, mu_bar=None, inner_iters=0,
                     final_gap=np.inf, converged=False, mu_sq=0.0)


def test_msa_inactive_obstacle_converges_immediately():
    mesh = build_mesh(5, 5, 4, 1.0, 1.0, 1.0)
    spec = build_unconstrained_decay(mesh)
    res = msa_solve(spec, 1.0, IntervalField.zeros(mesh))
    # y_d is the free-decay terminal, so p = 0 and u = 0 is stationary: the
    # residual test passes before any update
    assert res.converged and res.inner_iters == 0 and res.final_gap == 0.0
    assert np.all(res.u.values == 0.0)


def test_msa_fixed_point_init_terminates_one_iteration(monkeypatch):
    # a stationary start costs one forward and one adjoint sweep: here the
    # cold start u = 0
    mesh = build_mesh(5, 5, 4, 1.0, 1.0, 1.0)
    spec = build_unconstrained_decay(mesh)
    calls = count_sweeps(monkeypatch)
    res = msa_solve(spec, 1.0, IntervalField.zeros(mesh))
    assert res.converged and res.inner_iters == 0 and res.final_gap == 0.0
    assert [name for name, _, _ in calls] == ["forward", "adjoint"]


def test_msa_converges_from_nonstationary_init():
    # on the shorter horizon the update map contracts (the space-time constant
    # mode carries eigenvalue -T), so a start at u = 0.5 must converge to
    # u = 0
    mesh = build_mesh(5, 5, 4, 1.0, 1.0, 0.5)
    spec = build_unconstrained_decay(mesh)
    res = msa_solve(spec, 1.0, IntervalField.zeros(mesh),
                    warm=start_from(spec, IntervalField.constant(mesh, 0.5)))
    assert res.converged
    assert np.abs(res.u.values).max() <= 1e-3


def test_msa_result_consistency(sec5_spec, unit_mesh):
    mu = IntervalField.constant(unit_mesh, 10.0)
    res = msa_solve(sec5_spec, 1.0, mu, config=MsaConfig(eps1=1e-6, max_inner=200))
    assert res.converged
    b = sec5_spec.bounds
    assert np.all(res.u.values >= b.ua.values) and np.all(res.u.values <= b.ub.values)
    expected = multiplier_candidate(res.y, sec5_spec.psi, mu, 1.0)
    assert np.array_equal(res.mu_bar.values, expected.values)
    assert np.all(res.mu_bar.values >= 0.0)


def test_msa_nonconvergence_is_nonfatal(sec5_spec, unit_mesh):
    # at this penalty strength the solve needs about 13 updates to reach
    # eps1 = 1e-6; stopped at max_inner = 5 the result must still be finite,
    # in bounds, and flagged unconverged
    mu = IntervalField.constant(unit_mesh, 10.0)
    res = msa_solve(sec5_spec, 8.0, mu, config=MsaConfig(eps1=1e-6, max_inner=5))
    assert not res.converged
    assert res.inner_iters == 5
    assert np.isfinite(res.final_gap)
    assert np.all(np.abs(res.u.values) <= 1.0)


def test_line_search_failure_is_nonfatal(sec5_spec, unit_mesh, monkeypatch):
    # no step lowers a constant objective: every trial fails the Armijo test,
    # theta is halved from 1 down to THETA_MIN, and the solve stops where it
    # started, unconverged, with the state of the controls it returns
    monkeypatch.setattr(msa, "subproblem_objective", lambda *args, **kwargs: 0.0)
    calls = count_sweeps(monkeypatch)
    mu = IntervalField.constant(unit_mesh, 10.0)
    res = msa_solve(sec5_spec, 8.0, mu)
    trials = int(np.floor(np.log2(1.0 / msa.THETA_MIN))) + 1
    assert [name for name, _, _ in calls] == ["forward", "adjoint"] + ["forward"] * (trials + 1)
    assert not res.converged and res.inner_iters == 0 and res.final_gap > 1e-4
    assert np.all(res.u.values == 0.0)
    y = solve_forward(unit_mesh, sec5_spec.operator(), res.u, None, sec5_spec.y0)
    assert np.array_equal(res.y.values, y.values)
    assert np.array_equal(res.mu_bar.values,
                          multiplier_candidate(y, sec5_spec.psi, mu, 8.0).values)


def test_msa_projected_gradient_mode(sec5_spec, unit_mesh, monkeypatch):
    # at rho = 8 the plain clamp two-cycles.  The loop starts from the clamp,
    # and every update it accepts (the trial followed by an adjoint sweep)
    # lowers the sub-problem objective: it is a descent method on Phi.
    mu, rho = IntervalField.constant(unit_mesh, 10.0), 8.0
    op = sec5_spec.operator()
    y = solve_forward(unit_mesh, op, IntervalField.zeros(unit_mesh), None, sec5_spec.y0)
    p = solve_adjoint(unit_mesh, op, multiplier_candidate(y, sec5_spec.psi, mu, rho),
                      y.values[-1] - sec5_spec.y_d)
    calls = count_sweeps(monkeypatch)
    res = msa_solve(sec5_spec, rho, mu, config=MsaConfig(eps1=1e-5))
    assert res.converged
    assert np.all(np.abs(res.u.values) <= 1.0)

    first_trial = calls[2][1].values
    bounds = sec5_spec.bounds
    clamp = np.clip(-p.values / sec5_spec.alpha, bounds.ua.values, bounds.ub.values)
    assert np.all(first_trial == clamp)
    accepted = [u for (name, u, _), (after, _, _) in zip(calls, calls[1:])
                if name == "forward" and after == "adjoint"]
    assert len(accepted) == res.inner_iters + 1
    assert np.array_equal(accepted[-1].values, res.u.values)
    phi = [subproblem_objective(sec5_spec, rho, mu, u) for u in accepted]
    assert all(b < a for a, b in zip(phi, phi[1:]))


def weighted_demo_start():
    """(spec, u0, v0, p, pb): the boundary demo at 9^2 x 8 with both
    controls on and weights other than 1, a seeded start (u0, v0), non-zero
    and in bounds, and the start's adjoint p and its boundary trace pb at
    rho = 1, mu = 0."""
    demo = build_boundary_control_demo(build_mesh(9, 9, 8, 1.0, 1.0, 0.5))
    mesh = demo.mesh
    spec = ProblemSpec(mesh, demo.coeffs, demo.y0, demo.y_d, demo.psi,
                       alpha=0.7, beta=0.3, bounds=demo.bounds, boundary_control_enabled=True)
    rng = np.random.default_rng(4)
    u0 = IntervalField(mesh, rng.uniform(-0.08, 0.08, IntervalField.shape(mesh)))
    v0 = BoundaryTimeField(mesh, rng.uniform(-1.5, 1.5, BoundaryTimeField.shape(mesh)))
    op = spec.operator()
    y = solve_forward(mesh, op, u0, v0, spec.y0)
    p = solve_adjoint(mesh, op, multiplier_candidate(y, spec.psi, IntervalField.zeros(mesh), 1.0),
                      y.values[-1] - spec.y_d)
    return spec, u0, v0, p, extract_boundary(p)


def test_full_step_is_the_hamiltonian_clamp(monkeypatch):
    # the start is non-zero, since from u = v = 0 every algebraically equal
    # form of the damped step gives the clamp exactly.  The first trial of
    # the loop is the full step.
    spec, u0, v0, p, pb = weighted_demo_start()
    mesh, b = spec.mesh, spec.bounds
    mu, rho = IntervalField.zeros(mesh), 1.0

    calls = count_sweeps(monkeypatch)
    msa_solve(spec, rho, mu, config=MsaConfig(max_inner=1), warm=start_from(spec, u0, v0))
    _, full_u, full_v = calls[1]
    u_star = np.clip(-p.values / spec.alpha, b.ua.values, b.ub.values)
    v_star = np.clip(-pb.values / spec.beta, b.va.values, b.vb.values)
    # some nodes of each control are interior, so the test is not only of clip
    assert np.any((u_star > b.ua.values) & (u_star < b.ub.values))
    assert np.any((v_star > b.va.values) & (v_star < b.vb.values))
    assert np.all(full_u.values == u_star)
    assert np.all(full_v.values == v_star)

    # a shorter trial step is a projected-gradient step of length theta / alpha
    theta = 0.3
    damped_u = msa._damped_clamp(u0, -p.values / spec.alpha, b.ua, b.ub, theta)
    damped_v = msa._damped_clamp(v0, -pb.values / spec.beta, b.va, b.vb, theta)
    u_pg = np.clip(u0.values - (theta / spec.alpha) * (spec.alpha * u0.values + p.values),
                   b.ua.values, b.ub.values)
    v_pg = np.clip(v0.values - (theta / spec.beta) * (spec.beta * v0.values + pb.values),
                   b.va.values, b.vb.values)
    assert np.abs(damped_u.values - u_pg).max() <= 1e-14
    assert np.abs(damped_v.values - v_pg).max() <= 1e-14
    assert np.abs(damped_u.values - u_star).max() > 1e-3


def test_a_retry_forms_its_target_again_from_the_start(monkeypatch):
    # the first trial's Phi reads +inf, so the Armijo test rejects it and the
    # retry at theta = 1/2 is accepted.  The rejected trial left its weighted
    # step in each control's target array, so the retry must form -p / weight
    # there again from the start's p.
    spec, u0, v0, p, pb = weighted_demo_start()
    b = spec.bounds
    objective, phi = msa.subproblem_objective, []

    def first_trial_rejected(*args, **kwargs):
        phi.append(objective(*args, **kwargs))
        return np.inf if len(phi) == 2 else phi[-1]

    monkeypatch.setattr(msa, "subproblem_objective", first_trial_rejected)
    res = msa_solve(spec, 1.0, IntervalField.zeros(spec.mesh),
                    config=MsaConfig(eps1=1e-12, max_inner=1), warm=start_from(spec, u0, v0))
    assert res.inner_iters == 1 and len(phi) == 3
    u_half = clamp(0.5 * u0.values + 0.5 * (p.values / -spec.alpha), b.ua.values, b.ub.values)
    v_half = clamp(0.5 * v0.values + 0.5 * (pb.values / -spec.beta), b.va.values, b.vb.values)
    assert res.u.values.tobytes() == u_half.tobytes()
    assert res.v.values.tobytes() == v_half.tobytes()
    # the half step is not the full one, which stays rejected
    assert not np.array_equal(res.u.values, clamp(p.values / -spec.alpha, b.ua.values,
                                                   b.ub.values))


def test_terminal_slice_penalty_lowers_the_terminal_violation():
    # an instance active at t = T: from rest the target sin(pi x) sin(pi y)
    # lies above psi = 0.3, and the cheap controls overshoot psi only on the
    # last slices.  The penalty charges y_nt, so raising rho pulls it down.
    # (Without a penalty on y_nt the violation fell by 3% from rho = 1 to 16.)
    mesh = build_mesh(9, 9, 8, 1.0, 1.0, 1.0)
    spec = ProblemSpec(mesh, DiffusionCoefficients.unit(mesh), np.zeros(mesh.shape_space),
                       space_slice_from_function(
                           mesh, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)),
                       TimeField.constant(mesh, 0.3), alpha=0.1, beta=1.0,
                       bounds=ControlBounds.constant(mesh, -10.0, 10.0))
    violation = []
    for rho in (1.0, 4.0, 16.0):
        res = msa_solve(spec, rho, IntervalField.zeros(mesh), config=MsaConfig())
        assert res.converged
        violation.append(float(np.max(np.maximum(res.y.values[-1] - 0.3, 0.0))))
    assert violation[0] > violation[1] > violation[2]
    assert violation[2] <= 0.8 * violation[0]


def test_msa_solve_holds_no_extra_field_at_peak():
    # one space-time field at 65 x 65 x 64 is 2.1 MiB and the bound is about
    # 8 of them.  The loop peaks at about 7.0 (14.7 MiB): during a trial it
    # holds u, p, the target array (-p/alpha, then the weighted step), the
    # scratch array of its helpers and the trial u, not the current y and
    # mu_bar; the sweeps build their fields without a copy; the step
    # products take no field of their own; and during the adjoint sweep it
    # holds no old p.
    mesh = build_mesh(65, 65, 64, 1.0, 1.0, 1.0)
    spec = build_paper_example_sec5(mesh)
    spec.operator()
    mu = IntervalField.constant(mesh, 10.0)
    msa_solve(spec, 1.0, mu, config=MsaConfig(max_inner=1))
    tracemalloc.start()
    try:
        msa_solve(spec, 1.0, mu, config=MsaConfig(max_inner=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16.9 * 2 ** 20


def test_a_solve_writes_its_states_and_adjoints_into_two_held_arrays(monkeypatch):
    # the boundary demo at 33^2 x 32, with 6 updates after a warm start:
    # the first forward sweep and the first adjoint sweep each allocate an
    # array, and every later sweep of its kind writes into it, none into an
    # array of the warm result
    spec = build_boundary_control_demo(build_mesh(33, 33, 32, 1.0, 1.0, 1.0))
    mu = IntervalField.zeros(spec.mesh)
    first = msa_solve(spec, 1.0, mu, config=MsaConfig(max_inner=2))
    sweeps = {"forward": [], "adjoint": []}

    def recorded(name, sweep):
        def run(*args, out=None, **kwargs):
            field = sweep(*args, out=out, **kwargs)
            sweeps[name].append((out, field.values))
            return field
        return run

    monkeypatch.setattr(msa, "solve_forward", recorded("forward", solve_forward))
    monkeypatch.setattr(msa, "solve_adjoint", recorded("adjoint", solve_adjoint))
    res = msa_solve(spec, 1.0, mu, config=MsaConfig(eps1=1e-12, max_inner=6), warm=first)
    assert res.inner_iters == 6
    warm_arrays = [first.y.values, first.u.values, first.v.values, first.p.values]
    for name, returned in (("forward", res.y), ("adjoint", res.p)):
        calls = sweeps[name]
        assert len(calls) >= 6
        held = calls[0][1]
        assert calls[0][0] is None and held.base is None
        assert all(out is held and values is held for out, values in calls[1:]), name
        assert not any(np.shares_memory(held, a) for a in warm_arrays), name
        assert returned.values is held and not held.flags.writeable
    # the result's controls are fresh arrays, too
    assert not any(np.shares_memory(res.u.values, a) for a in (res.y.values, res.p.values))


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.2, 1.0), (-1.0, -0.3), (-0.0, 1.0),
                                    (-1.0, -0.0), (0.0, 0.0)])
def test_cold_start_with_constant_bounds_is_the_constant_projection_of_zero(unit_mesh, lo, hi):
    for kind in (IntervalField, BoundaryTimeField):
        bounds = kind.constant(unit_mesh, lo), kind.constant(unit_mesh, hi)
        full = [kind(unit_mesh, b.values) for b in bounds]
        zeros = np.zeros(kind.shape(unit_mesh))
        projection = clamp(zeros, full[0].values, full[1].values).tobytes()
        start = msa._initial_control(*bounds)
        assert type(start) is kind and start.values.strides == (0,) * start.values.ndim
        assert start.values.tobytes() == projection
        # a materialised bound gives one materialised projection, with the
        # same bits, whether the other bound is constant or not
        for lo_field, hi_field in ((full[0], full[1]), (full[0], bounds[1]),
                                   (bounds[0], full[1])):
            mixed = msa._initial_control(lo_field, hi_field)
            assert type(mixed) is kind and mixed.values.flags.c_contiguous
            assert mixed.values.tobytes() == projection


def test_slack_solve_holds_no_field_for_its_multiplier_or_cold_start():
    # a 33 x 33 x 32 problem whose obstacle is never reached and whose target
    # is the free-decay terminal, as in the benchmark's varcoef_batch: the
    # multiplier candidate and the cold-start control are constants, and the
    # start is stationary, so the solve takes no trial and its control holds
    # one work array, no scratch array.  The outer loop peaks at about 3.3
    # fields (281 KiB each) of the solve's own; it took 4.3 with the scratch
    # array held from the start, and 6.5 with both constants formed
    mesh = build_mesh(33, 33, 32, 1.0, 1.0, 0.5)
    rng = np.random.default_rng(11)
    x = np.linspace(0.0, 1.0, 33)
    modes = np.cos(np.pi * np.arange(3)[:, None] * x[None, :])

    def smooth():
        f = modes.T @ rng.uniform(-1.0, 1.0, (3, 3)) @ modes
        return f / np.max(np.abs(f))

    coeffs = DiffusionCoefficients(mesh, np.exp(0.5 * smooth()), np.exp(0.5 * smooth()))
    y0 = smooth()
    y_d = solve_forward(mesh, coeffs.operator(), IntervalField.zeros(mesh), None, y0).values[-1]
    spec = ProblemSpec(mesh, coeffs, y0, y_d, TimeField.constant(mesh, 1e6), alpha=1.0, beta=1.0,
                       bounds=ControlBounds.constant(mesh, -1.0, 1.0))
    tracemalloc.start()
    try:
        trace = alm_run(spec, AlmConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.termination == "tolerance_met" and trace.rows[-1].inner_iters == 0
    field = 8 * (mesh.nt + 1) * mesh.ny * mesh.nx
    assert peak <= 4.0 * field, peak / field
    assert not any(trace.final_result.mu_bar.values.strides)


def test_msa_config_validation():
    with pytest.raises(ValueError):
        MsaConfig(eps1=0.0)
    with pytest.raises(ValueError):
        MsaConfig(max_inner=0)
    with pytest.raises(ValueError, match="^eps1 must be finite$"):
        MsaConfig(eps1=np.inf)
    # nan passes the range check and fails the finiteness check
    with pytest.raises(ValueError, match="^eps1 must be finite$"):
        MsaConfig(eps1=np.nan)
    # the step is chosen by the solver, not configured
    assert [f.name for f in fields(MsaConfig)] == ["eps1", "max_inner"]


@pytest.mark.parametrize("rho, mu", [
    (-1.0, 0.0), (0.0, 0.0), (np.inf, 0.0), (np.nan, 0.0), (1.0, -3.0), (1.0, "one entry")])
def test_msa_solve_rejects_a_penalty_or_multiplier_outside_its_domain_before_any_sweep(
        monkeypatch, rho, mu):
    # rho = -1 returned converged=True after 6 iterations, rho = 0 raised
    # ZeroDivisionError in the penalty, and mu = -3 was taken
    mesh = build_mesh(5, 5, 4, 1.0, 1.0, 1.0)
    spec = build_paper_example_sec5(mesh)
    if mu == "one entry":
        values = np.full(IntervalField.shape(mesh), 0.5)
        values[2, 1, 3] = -1e-12
        mu = IntervalField(mesh, values)
    else:
        mu = const(mesh, mu)

    def no_sweep(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(msa, "solve_forward", no_sweep)
    monkeypatch.setattr(msa, "solve_adjoint", no_sweep)
    name = "rho" if rho != 1.0 else "multiplier"
    with pytest.raises(ValueError, match=f"^{name} must be"):
        msa_solve(spec, rho, mu)


def test_msa_solve_rejects_a_multiplier_or_warm_start_off_its_mesh_before_any_sweep(
        monkeypatch):
    # a multiplier built on T = 0.5 was taken for the T = 1 problem (converged
    # after 5 updates), and so was a TimeField one; a warm start from T = 1
    # returned converged=False after 0 updates, and one from 9^2 failed in
    # the solve with numpy's "operands could not be broadcast"
    mesh = build_mesh(9, 9, 8, 1.0, 1.0, 1.0)
    spec = build_paper_example_sec5(mesh)
    half = build_paper_example_sec5(build_mesh(9, 9, 8, 1.0, 1.0, 0.5))
    small = build_paper_example_sec5(build_mesh(5, 5, 4, 1.0, 1.0, 1.0))
    demo = build_boundary_control_demo(mesh)
    zero = IntervalField.zeros(mesh)
    own, from_demo = start_from(spec, zero), start_from(demo, zero)
    from_half = start_from(half, IntervalField.zeros(half.mesh))
    no_flux = MsaResult(**{**vars(from_demo), "v": None})
    with_flux = MsaResult(**{**vars(own), "v": from_demo.v})
    with_time_u = MsaResult(**{**vars(own), "u": TimeField.zeros(mesh)})
    with_half_y = MsaResult(**{**vars(own), "y": from_half.y})

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(msa, "solve_forward", no_sweep)
    monkeypatch.setattr(msa, "solve_adjoint", no_sweep)
    for problem, mu, warm, name in (
            (spec, IntervalField.zeros(half.mesh), None, "multiplier"),
            (spec, TimeField.zeros(mesh), None, "multiplier"),
            (half, IntervalField.zeros(half.mesh), own, "warm.y"),
            (small, IntervalField.zeros(small.mesh), own, "warm.y"),
            (spec, zero, with_half_y, "warm.y"),
            (spec, zero, with_time_u, "warm.u"),
            (demo, zero, no_flux, "warm.v"),
            (spec, zero, with_flux, "warm.v")):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            msa_solve(problem, 1.0, mu, warm=warm)


def test_final_evaluation_error_is_a_divergence(sec5_spec, unit_mesh, monkeypatch):
    # max_inner = 1: the sweep after the only update is the second one
    calls = []

    def failing_forward(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise ValueError("bad sweep")
        return solve_forward(*args, **kwargs)

    monkeypatch.setattr(msa, "solve_forward", failing_forward)
    with pytest.raises(MsaDivergenceError, match="iteration 2: bad sweep"):
        msa_solve(sec5_spec, 1.0, IntervalField.zeros(unit_mesh), config=MsaConfig(max_inner=1))


def test_line_search_allows_for_the_rounding_of_phi(sec5_spec, unit_mesh):
    # at rho = 1, mu = 0 the predicted decreases near the solution fall below
    # the rounding of Phi; an Armijo test without an allowance for it
    # rejected good steps and cycled theta between about 1 and 1e-4 for all
    # 300 updates, ending unconverged at a gap of 1.2e-8
    res = msa_solve(sec5_spec, 1.0, IntervalField.zeros(unit_mesh),
                    config=MsaConfig(eps1=1e-9, max_inner=300))
    assert res.converged and res.final_gap <= 1e-9
    assert res.inner_iters <= 10


def test_warm_start_reuses_the_state_of_its_controls(sec5_spec, unit_mesh, monkeypatch):
    # a warm start from an earlier result is bit for bit the start from its
    # controls with their state recomputed, and neither takes a forward
    # sweep before its first adjoint sweep
    first = msa_solve(sec5_spec, 1.0, IntervalField.constant(unit_mesh, 10.0))
    mu = IntervalField.constant(unit_mesh, 2.0)
    given = start_from(sec5_spec, first.u, first.v)
    assert np.array_equal(given.y.values, first.y.values)
    calls = count_sweeps(monkeypatch)
    recomputed = msa_solve(sec5_spec, 4.0, mu, warm=given)
    recomputed_calls = [name for name, _, _ in calls]
    calls.clear()
    warm = msa_solve(sec5_spec, 4.0, mu, warm=first)
    warm_calls = [name for name, _, _ in calls]
    assert warm_calls == recomputed_calls and warm_calls[0] == "adjoint"
    assert warm_calls.count("adjoint") == warm.inner_iters + 1
    assert warm.inner_iters == recomputed.inner_iters > 0
    assert warm.v is None and recomputed.v is None
    for name in ("y", "u", "p", "mu_bar"):
        assert (getattr(warm, name).values.tobytes()
                == getattr(recomputed, name).values.tobytes())
    assert (warm.final_gap, warm.mu_sq) == (recomputed.final_gap, recomputed.mu_sq)


def test_library_built_fields_are_read_only_and_own_their_values(sec5_spec, unit_mesh):
    # sweeps, the multiplier candidate, the damped clamp and the boundary
    # restriction hand over arrays they built themselves, without a copy
    mesh, b = unit_mesh, sec5_spec.bounds
    op = sec5_spec.operator()
    u = IntervalField.constant(mesh, 0.5)
    v = BoundaryTimeField.constant(mesh, 0.25)
    mu = IntervalField.constant(mesh, 3.0)
    y = solve_forward(mesh, op, u, v, sec5_spec.y0)
    terminal = y.values[-1] - sec5_spec.y_d
    p = solve_adjoint(mesh, op, mu, terminal)
    target = -p.values
    built = {
        "y": (y, (u.values, v.values, sec5_spec.y0)),
        "p": (p, (mu.values, terminal)),
        "mu_bar": (multiplier_candidate(y, sec5_spec.psi, mu, 2.0),
                   (y.values, sec5_spec.psi.values, mu.values)),
        "clamp": (msa._damped_clamp(u, target, b.ua, b.ub, 0.5),
                  (u.values, target, b.ua.values, b.ub.values)),
        "boundary": (extract_boundary(p), (p.values,)),
    }
    for name, (field, inputs) in built.items():
        assert not field.values.flags.writeable, name
        assert not any(np.shares_memory(field.values, a) for a in inputs), name
        with pytest.raises(ValueError):
            field.values.flat[0] = 1.0


def test_nonfinite_sweep_is_a_divergence(unit_mesh):
    # states near the largest double, and controls pinned at it, so the cold
    # start is u = huge: the first forward sweep overflows, and the state it
    # builds fails its finiteness check
    huge = 1e308
    spec = ProblemSpec(unit_mesh, DiffusionCoefficients.unit(unit_mesh),
                       np.full(unit_mesh.shape_space, huge), np.zeros(unit_mesh.shape_space),
                       TimeField.constant(unit_mesh, huge), alpha=1.0, beta=1.0,
                       bounds=ControlBounds.constant(unit_mesh, huge, huge))
    with np.errstate(over="ignore"), pytest.raises(
            MsaDivergenceError, match="iteration 1: TimeField values must be finite"):
        msa_solve(spec, 1.0, IntervalField.zeros(unit_mesh))
