import numpy as np
import pytest

from almpde import cost, operators
from almpde.grid import build_mesh, TimeField, IntervalField, BoundaryTimeField, ControlBounds
from almpde.operators import DiffusionCoefficients
from almpde.solvers import solve_forward
from almpde.alm import AlmConfig, alm_run
from almpde.cost import (ProblemSpec, cost_J, penalty, multiplier_candidate,
                         multiplier_square, kkt_residuals,
                         subproblem_objective)
from almpde.presets import build_unconstrained_decay


def make_spec(mesh, psi_level=1.0, alpha=1.0, beta=1.0, y_d=None, boundary=False):
    return ProblemSpec(mesh, DiffusionCoefficients.unit(mesh),
                       np.zeros(mesh.shape_space),
                       y_d if y_d is not None else np.zeros(mesh.shape_space),
                       TimeField.constant(mesh, psi_level), alpha, beta,
                       ControlBounds.constant(mesh, -1.0, 1.0),
                       boundary_control_enabled=boundary)


# ----------------------------------------------------------------- cost_J

def test_cost_zero_at_target(unit_mesh):
    spec = make_spec(unit_mesh)
    y = TimeField.zeros(unit_mesh)
    assert cost_J(spec, y, IntervalField.zeros(unit_mesh)) == 0.0


def test_cost_terminal_mismatch(unit_mesh):
    spec = make_spec(unit_mesh)
    y = TimeField.constant(unit_mesh, 1.0)  # y(T) - y_d = 1 on the unit square
    assert cost_J(spec, y, IntervalField.zeros(unit_mesh)) == pytest.approx(0.5, rel=1e-13)


def test_cost_control_term(unit_mesh):
    spec = make_spec(unit_mesh, alpha=1.0)
    y = TimeField.zeros(unit_mesh)
    assert cost_J(spec, y, IntervalField.constant(unit_mesh, 1.0)) == pytest.approx(0.5, rel=1e-13)


def test_cost_boundary_term(unit_mesh):
    spec = make_spec(unit_mesh, beta=2.0, boundary=True)
    v = BoundaryTimeField.constant(unit_mesh, 1.0)
    # (beta/2) * perimeter * T = 1 * 4
    assert cost_J(spec, TimeField.zeros(unit_mesh), IntervalField.zeros(unit_mesh), v) \
        == pytest.approx(4.0, rel=1e-13)


# ---------------------------------------------------------------- penalty

def l_rho(spec, y, u, mu, rho):
    """J plus the penalty at multiplier mu: the sum `alm_run` reports as
    L_rho."""
    mu_bar = multiplier_candidate(y, spec.psi, mu, rho)
    return cost_J(spec, y, u) + penalty(spec.mesh, mu_bar, multiplier_square(spec.mesh, mu), rho)


def test_penalty_vanishes_when_feasible(unit_mesh):
    spec = make_spec(unit_mesh, psi_level=0.5)
    y = TimeField.constant(unit_mesh, -1.0)
    u = IntervalField.constant(unit_mesh, 0.3)
    J = cost_J(spec, y, u)
    L = l_rho(spec, y, u, IntervalField.zeros(unit_mesh), 3.0)
    assert L == pytest.approx(J, rel=1e-13)


def test_penalty_hand_value_violation(unit_mesh):
    # y - psi = 0.5, mu = 0, rho = 2: penalty (1/4) * (2*0.5)^2 = 0.25
    spec = make_spec(unit_mesh, psi_level=0.0)
    y = TimeField.constant(unit_mesh, 0.5)
    u = IntervalField.zeros(unit_mesh)
    J = cost_J(spec, y, u)
    L = l_rho(spec, y, u, IntervalField.zeros(unit_mesh), 2.0)
    assert L - J == pytest.approx(0.25, rel=1e-12)


def test_penalty_hand_value_with_multiplier(unit_mesh):
    # y - psi = -1, mu = 10, rho = 2: (1/4)(8^2 - 10^2) = -9
    spec = make_spec(unit_mesh, psi_level=0.0)
    y = TimeField.constant(unit_mesh, -1.0)
    u = IntervalField.zeros(unit_mesh)
    J = cost_J(spec, y, u)
    L = l_rho(spec, y, u, IntervalField.constant(unit_mesh, 10.0), 2.0)
    assert L - J == pytest.approx(-9.0, rel=1e-12)


def test_penalty_monotone_in_rho(unit_mesh):
    rng = np.random.default_rng(0)
    spec = make_spec(unit_mesh, psi_level=0.0)
    u = IntervalField.zeros(unit_mesh)
    mu0 = IntervalField.zeros(unit_mesh)
    for _ in range(20):
        y = TimeField(unit_mesh,
                      rng.standard_normal((unit_mesh.nt + 1, unit_mesh.ny, unit_mesh.nx)))
        vals = [l_rho(spec, y, u, mu0, rho)
                for rho in (0.5, 1.0, 2.0, 4.0)]
        assert all(vals[i + 1] >= vals[i] - 1e-12 for i in range(3))


def test_lagrangian_at_zero_multiplier_dominates_cost(unit_mesh):
    rng = np.random.default_rng(1)
    spec = make_spec(unit_mesh, psi_level=0.2)
    u = IntervalField.zeros(unit_mesh)
    mu0 = IntervalField.zeros(unit_mesh)
    for _ in range(10):
        y = TimeField(unit_mesh,
                      rng.standard_normal((unit_mesh.nt + 1, unit_mesh.ny, unit_mesh.nx)))
        L = l_rho(spec, y, u, mu0, 2.0)
        J = cost_J(spec, y, u)
        assert L >= J - 1e-12
        # the penalty charges the slices m = 1..nt
        feasible = np.all(y.values[1:] <= spec.psi.values[1:])
        assert (abs(L - J) <= 1e-12) == feasible


# ------------------------------------------------------- multiplier update

def test_multiplier_candidate_inactive(unit_mesh):
    psi = TimeField.constant(unit_mesh, 1.0)
    y = TimeField.constant(unit_mesh, -10.0)  # y <= psi - mu/rho
    mu = IntervalField.constant(unit_mesh, 2.0)
    out = multiplier_candidate(y, psi, mu, 1.0)
    assert np.all(out.values == 0.0)


def test_multiplier_candidate_hand_value(unit_mesh):
    psi = TimeField.zeros(unit_mesh)
    y = TimeField.constant(unit_mesh, -1.0)
    mu = IntervalField.constant(unit_mesh, 10.0)
    out = multiplier_candidate(y, psi, mu, 2.0).values
    assert out.shape == IntervalField.shape(unit_mesh) and np.all(out == 8.0)


def test_multiplier_candidate_fixed_point_on_contact(unit_mesh):
    psi = TimeField.constant(unit_mesh, 0.7)
    y = TimeField.constant(unit_mesh, 0.7)
    mu = IntervalField.constant(unit_mesh, 10.0)
    for rho in (0.1, 1.0, 50.0):
        out = multiplier_candidate(y, psi, mu, rho).values
        assert out.shape == IntervalField.shape(unit_mesh) and np.all(out == 10.0)


def test_multiplier_candidate_nonnegative_random(unit_mesh):
    rng = np.random.default_rng(2)
    shape = (unit_mesh.nt + 1, unit_mesh.ny, unit_mesh.nx)
    for _ in range(20):
        y = TimeField(unit_mesh, rng.standard_normal(shape))
        psi = TimeField(unit_mesh, rng.standard_normal(shape))
        mu = IntervalField(unit_mesh, np.abs(rng.standard_normal(IntervalField.shape(unit_mesh))))
        out = multiplier_candidate(y, psi, mu, rng.uniform(0.1, 10))
        assert np.all(out.values >= 0.0)


def _materialised(mesh, c, kind=TimeField):
    return kind(mesh, np.full(kind.shape(mesh), c))


@pytest.mark.parametrize("rho", [1.0, 2.0 ** 20])
@pytest.mark.parametrize("mu_level", [-0.0, 0.0, 0.5])
def test_constant_multiplier_candidate_has_the_materialised_bits(rho, mu_level):
    # with constant psi and mu the candidate is the constant zero field
    # exactly when every entry on m = 1..nt clamps to zero, and otherwise
    # the entrywise one; both have the bits psi and mu as full arrays give
    mesh = build_mesh(9, 7, 6, 1.0, 1.0, 1.0)
    rng = np.random.default_rng(17)
    shape = TimeField.shape(mesh)
    for psi_level in (0.3, 0.0, -0.0):
        below = psi_level - rng.uniform(0.0, 1.0, shape)
        touching = below.copy()
        touching[2, 3, 4] = touching[-1, 0, 0] = psi_level     # y = psi exactly
        one_above = below.copy()
        one_above[3, 1, 2] = psi_level + 1e-9                  # one positive candidate
        initial_above = below.copy()
        initial_above[0] = psi_level + 1.0                     # y_0 carries none
        signed = below.copy()
        signed[1, :, :] = -0.0                                 # y - psi may be -0.0
        states = (below, touching, one_above, initial_above, signed,
                  rng.standard_normal(shape))
        for values in states:
            y = TimeField(mesh, values)
            full = multiplier_candidate(y, _materialised(mesh, psi_level),
                                        _materialised(mesh, mu_level, IntervalField), rho).values
            out = multiplier_candidate(y, TimeField.constant(mesh, psi_level),
                                       IntervalField.constant(mesh, mu_level), rho).values
            assert out.tobytes() == full.tobytes()
            assert (not any(out.strides)) == (not (full > 0.0).any())


def test_integrals_of_a_constant_zero_are_zero_with_the_materialised_bits(unit_mesh):
    rng = np.random.default_rng(3)
    r = -np.abs(rng.standard_normal(IntervalField.shape(unit_mesh)))
    for c in (0.0, -0.0):
        zero = IntervalField.constant(unit_mesh, c).values
        full = _materialised(unit_mesh, c, IntervalField).values
        for a, b in ((zero, r), (r, zero), (zero, zero)):
            fa = full if a is zero else a
            fb = full if b is zero else b
            got = cost.inner(unit_mesh, unit_mesh.w_space, a, b)
            assert np.float64(got).tobytes() == np.float64(
                cost.inner(unit_mesh, unit_mesh.w_space, fa, fb)).tobytes() \
                == np.float64(0.0).tobytes()


def test_constant_obstacle_residuals_match_the_materialised_ones(unit_mesh):
    # feasibility max(max y - psi, 0) and complementarity with a zero mu_bar
    # read no psi - y field, with the bits of a materialised psi
    rng = np.random.default_rng(5)
    shape = TimeField.shape(unit_mesh)
    for psi_level in (0.5, 0.0, -0.0):
        for values in (rng.standard_normal(shape), psi_level - np.abs(rng.standard_normal(shape)),
                       np.full(shape, -0.0)):
            y = TimeField(unit_mesh, values)
            for mu_bar in (IntervalField.zeros(unit_mesh), IntervalField.constant(unit_mesh, 0.25),
                           IntervalField(unit_mesh, np.abs(values[1:]))):
                got = (cost._feasibility(y, TimeField.constant(unit_mesh, psi_level)),
                       cost._complementarity(y, TimeField.constant(unit_mesh, psi_level), mu_bar))
                want = (cost._feasibility(y, _materialised(unit_mesh, psi_level)),
                        cost._complementarity(y, _materialised(unit_mesh, psi_level),
                                              IntervalField(unit_mesh, mu_bar.values)))
                assert np.array(got).tobytes() == np.array(want).tobytes()


# --------------------------------------------------------- residual index

def _feasibility_and_complementarity(y, psi_level, mu_bar):
    """The two summands of the residual index R, as `kkt_residuals` gives
    them, for a constant obstacle psi_level."""
    spec = make_spec(y.mesh, psi_level=psi_level)
    zero = IntervalField.zeros(y.mesh)
    res = kkt_residuals(spec, y, zero, None, zero, mu_bar)
    return res.feasibility, res.complementarity


def test_residual_index_zero_when_feasible_and_complementary(unit_mesh):
    y = TimeField.constant(unit_mesh, 0.5)
    assert _feasibility_and_complementarity(y, 1.0, IntervalField.zeros(unit_mesh)) == (0.0, 0.0)


def test_residual_index_sup_term(unit_mesh):
    y = TimeField.constant(unit_mesh, 0.1)
    feas, compl = _feasibility_and_complementarity(y, 0.0, IntervalField.zeros(unit_mesh))
    assert feas == pytest.approx(0.1, rel=1e-13) and compl == 0.0


def test_residual_index_complementarity_term(unit_mesh):
    y = TimeField.constant(unit_mesh, -0.5)
    mu_bar = IntervalField.constant(unit_mesh, 2.0)
    feas, compl = _feasibility_and_complementarity(y, 0.0, mu_bar)
    assert feas == 0.0 and compl == pytest.approx(1.0, rel=1e-13)


def test_residual_uses_positive_part_of_violation(unit_mesh):
    # strictly feasible states contribute nothing to the sup term
    y = TimeField.constant(unit_mesh, -3.0)
    assert _feasibility_and_complementarity(y, 1.0, IntervalField.zeros(unit_mesh)) == (0.0, 0.0)


# ----------------------------------------------------------- kkt residuals

def test_kkt_projection_fixed_point(unit_mesh):
    spec = make_spec(unit_mesh, psi_level=10.0, alpha=2.0)
    rng = np.random.default_rng(3)
    p = IntervalField(unit_mesh, rng.standard_normal(IntervalField.shape(unit_mesh)))
    u = IntervalField(unit_mesh, np.clip(-p.values / spec.alpha, -1.0, 1.0))
    y = TimeField.zeros(unit_mesh)
    res = kkt_residuals(spec, y, u, None, p, IntervalField.zeros(unit_mesh))
    assert res.stationarity_u == 0.0
    assert res.stationarity_v == 0.0
    assert res.feasibility == 0.0
    assert res.complementarity == 0.0


def test_kkt_matches_bruteforce_recomputation(unit_mesh):
    rng = np.random.default_rng(4)
    spec = make_spec(unit_mesh, psi_level=0.3, alpha=1.7)
    y = TimeField(unit_mesh, rng.standard_normal(TimeField.shape(unit_mesh)))
    shape = IntervalField.shape(unit_mesh)
    u = IntervalField(unit_mesh, rng.uniform(-1, 1, shape))
    p = IntervalField(unit_mesh, rng.standard_normal(shape))
    mu_bar = IntervalField(unit_mesh, np.abs(rng.standard_normal(shape)))
    res = kkt_residuals(spec, y, u, None, p, mu_bar)

    # independent recomputation with explicit node loops over the unknown
    # slices m = 1..nt, right-endpoint rule in time; row k - 1 of an
    # unknown is the slice m = k
    m = unit_mesh
    stat2 = 0.0
    compl2 = 0.0
    feas2 = 0.0
    for k in range(1, m.nt + 1):
        for j in range(m.ny):
            for i in range(m.nx):
                w = m.dt * m.w_space[j, i]
                target = min(max(-p.values[k - 1, j, i] / spec.alpha, -1.0), 1.0)
                stat2 += w * (u.values[k - 1, j, i] - target) ** 2
                compl2 += w * mu_bar.values[k - 1, j, i] * (spec.psi.values[k, j, i]
                                                            - y.values[k, j, i])
                feas2 = max(feas2, y.values[k, j, i] - spec.psi.values[k, j, i])
    assert res.stationarity_u == pytest.approx(np.sqrt(stat2), rel=1e-12)
    assert res.complementarity == pytest.approx(abs(compl2), rel=1e-12)
    assert res.feasibility == pytest.approx(max(feas2, 0.0), rel=1e-12)


def test_kkt_boundary_stationarity_matches_bruteforce(unit_mesh):
    rng = np.random.default_rng(5)
    m = unit_mesh
    spec = ProblemSpec(m, DiffusionCoefficients.unit(m),
                       np.zeros(m.shape_space), np.zeros(m.shape_space),
                       TimeField.constant(m, 10.0), 1.0, 2.3,
                       ControlBounds.constant(m, -1.0, 1.0, va=-0.5, vb=0.5),
                       boundary_control_enabled=True)
    p = IntervalField(m, rng.standard_normal(IntervalField.shape(m)))
    v = BoundaryTimeField(m, rng.uniform(-0.5, 0.5, BoundaryTimeField.shape(m)))
    res = kkt_residuals(spec, TimeField.zeros(m), IntervalField.zeros(m), v, p,
                        IntervalField.zeros(m))
    stat2 = 0.0
    for k in range(1, m.nt + 1):
        for b in range(m.n_boundary):
            pb = p.values[k - 1, m.boundary_j[b], m.boundary_i[b]]
            target = min(max(-pb / spec.beta, -0.5), 0.5)
            stat2 += m.dt * m.w_arc[b] * (v.values[k - 1, b] - target) ** 2
    assert res.stationarity_v == pytest.approx(np.sqrt(stat2), rel=1e-12)


def test_kkt_boundary_stationarity_zero_when_disabled(unit_mesh):
    # without boundary control there is no v, and no v-stationarity
    spec = make_spec(unit_mesh)
    res = kkt_residuals(spec, TimeField.zeros(unit_mesh), IntervalField.zeros(unit_mesh), None,
                        IntervalField.constant(unit_mesh, 5.0), IntervalField.zeros(unit_mesh))
    assert res.stationarity_v == 0.0


def test_residual_zero_implies_kkt_zero_terms(unit_mesh):
    spec = make_spec(unit_mesh, psi_level=1.0)
    y = TimeField.constant(unit_mesh, 0.2)
    mu_bar = IntervalField.zeros(unit_mesh)
    res = kkt_residuals(spec, y, IntervalField.zeros(unit_mesh), None,
                        IntervalField.zeros(unit_mesh), mu_bar)
    assert res.feasibility == 0.0 and res.complementarity == 0.0


def test_problem_spec_validation(unit_mesh):
    with pytest.raises(ValueError, match="positive"):
        make_spec(unit_mesh, alpha=0.0)
    with pytest.raises(ValueError, match="spatial slices"):
        ProblemSpec(unit_mesh, DiffusionCoefficients.unit(unit_mesh),
                    np.zeros((2, 2)), np.zeros(unit_mesh.shape_space),
                    TimeField.constant(unit_mesh, 1.0), 1.0, 1.0,
                    ControlBounds.constant(unit_mesh, -1.0, 1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("weight", ["alpha", "beta"])
def test_problem_spec_rejects_nonfinite_cost_weights(unit_mesh, bad, weight):
    # alpha = inf was accepted, and the paper preset then ended tolerance_met
    # with J = nan
    with pytest.raises(ValueError, match="cost weights must be positive and finite"):
        make_spec(unit_mesh, **{weight: bad})


def test_problem_spec_rejects_initial_state_above_obstacle(unit_mesh):
    # y0 = 1 + bump, worst at the centre node (i, j) = (2, 2); psi(., 0) = 1
    bump = np.zeros(unit_mesh.shape_space)
    bump[2, 2] = 0.5
    bump[1, 2] = 0.25
    with pytest.raises(ValueError, match=r"y0 must not exceed psi\(\., 0\): it does by "
                                         r"0\.5 at worst, at node i=2, j=2 \(x=0\.5, y=0\.5\)"):
        ProblemSpec(unit_mesh, DiffusionCoefficients.unit(unit_mesh), 1.0 + bump,
                    np.zeros(unit_mesh.shape_space), TimeField.constant(unit_mesh, 1.0),
                    1.0, 1.0, ControlBounds.constant(unit_mesh, -1.0, 1.0))
    # only psi(., 0) constrains y0: a later dip below it is the solver's business
    psi = np.full((unit_mesh.nt + 1,) + unit_mesh.shape_space, 1.0)
    psi[1:] = -1.0
    spec = ProblemSpec(unit_mesh, DiffusionCoefficients.unit(unit_mesh),
                       np.ones(unit_mesh.shape_space), np.zeros(unit_mesh.shape_space),
                       TimeField(unit_mesh, psi), 1.0, 1.0,
                       ControlBounds.constant(unit_mesh, -1.0, 1.0))
    assert np.all(spec.y0 == 1.0)


def test_problem_spec_keeps_read_only_copies_of_its_slices(unit_mesh):
    # changing the caller's arrays afterwards changes neither the problem nor
    # gets round the check of y0 against psi(., 0) = 1
    y0 = np.zeros(unit_mesh.shape_space)
    y_d = np.ones(unit_mesh.shape_space)
    spec = ProblemSpec(unit_mesh, DiffusionCoefficients.unit(unit_mesh), y0, y_d,
                       TimeField.constant(unit_mesh, 1.0), 1.0, 1.0,
                       ControlBounds.constant(unit_mesh, -1.0, 1.0))
    y0[...] = 5.0
    y_d[...] = -2.0
    assert np.all(spec.y0 == 0.0) and np.all(spec.y_d == 1.0)
    for values in (spec.y0, spec.y_d):
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0] = 5.0


@pytest.mark.parametrize("shape", [(5, 5), (5, 5, 4), (33, 33, 33)])
def test_dot_matches_multiply_then_reduce(shape):
    # the BLAS dot sums in another order than numpy's pairwise reduction:
    # the two agree within n eps of the sum of |a b|, also for an operand
    # that is not contiguous (copied first) or a constant view
    rng = np.random.default_rng(23)
    a = rng.standard_normal(shape)
    n, eps = a.size, np.finfo(np.float64).eps
    for b in (rng.uniform(0.1, 2.0, shape), rng.standard_normal(shape[::-1]).T,
              np.broadcast_to(np.float64(0.7), shape)):
        reference = float(np.add.reduce(np.multiply(a, b), axis=None))
        assert abs(cost._dot(a, b) - reference) <= n * eps * float(np.abs(a * b).sum())


def test_given_state_and_candidate_give_the_same_values(sec5_spec, unit_mesh):
    # the loop hands over what it already has; the result must not depend
    # on whether the function computes it itself
    rng = np.random.default_rng(5)
    u = IntervalField(unit_mesh, rng.uniform(-1, 1, IntervalField.shape(unit_mesh)))
    mu, rho = IntervalField.constant(unit_mesh, 0.5), 3.0
    y = solve_forward(unit_mesh, sec5_spec.operator(), u, None, sec5_spec.y0)
    mu_bar = multiplier_candidate(y, sec5_spec.psi, mu, rho)
    assert (subproblem_objective(sec5_spec, rho, mu, u, y=y, mu_bar=mu_bar,
                                 mu_sq=multiplier_square(unit_mesh, mu))
            == subproblem_objective(sec5_spec, rho, mu, u))


def count_assemblies(monkeypatch):
    calls = []
    assemble = operators.assemble_operator

    def counting(*args):
        calls.append(1)
        return assemble(*args)

    monkeypatch.setattr(operators, "assemble_operator", counting)
    return calls


def test_specs_on_one_coefficients_object_share_one_operator(unit_mesh, monkeypatch):
    calls = count_assemblies(monkeypatch)
    coeffs = DiffusionCoefficients.unit(unit_mesh)
    a, b = (ProblemSpec(unit_mesh, coeffs, np.zeros(unit_mesh.shape_space),
                        np.full(unit_mesh.shape_space, level), TimeField.constant(unit_mesh, 1.0),
                        1.0, 1.0, ControlBounds.constant(unit_mesh, -1.0, 1.0))
            for level in (0.0, 0.5))
    assert a.operator() is b.operator()
    assert a.operator().basis is b.operator().basis
    assert len(calls) == 1


@pytest.mark.parametrize("dims", [(7, 7, 4), (5, 5, 3)])
def test_spec_rejects_parts_on_another_mesh(unit_mesh, dims):
    # coefficients, psi or bounds on another mesh (more nodes, or another
    # nt) fail when the problem is built, naming the part, not in a sweep
    other = build_mesh(*dims, 1.0, 1.0, 1.0)
    zeros = np.zeros(unit_mesh.shape_space)
    coeffs = DiffusionCoefficients.unit(unit_mesh)
    psi = TimeField.constant(unit_mesh, 1.0)
    bounds = ControlBounds.constant(unit_mesh, -1.0, 1.0)
    other_bounds = ControlBounds.constant(other, -1.0, 1.0)
    mixed = ControlBounds(bounds.ua, bounds.ub, other_bounds.va, other_bounds.vb)
    for parts, match in (((DiffusionCoefficients.unit(other), psi, bounds), "coeffs"),
                         ((coeffs, TimeField.constant(other, 1.0), bounds), "psi"),
                         ((coeffs, psi, other_bounds), "bounds ua/ub"),
                         ((coeffs, psi, mixed), "bounds va/vb")):
        c, p, b = parts
        with pytest.raises(ValueError, match=f"^{match} must be on the problem's mesh"):
            ProblemSpec(unit_mesh, c, zeros, zeros, p, 1.0, 1.0, b)
    ProblemSpec(unit_mesh, coeffs, zeros, zeros, psi, 1.0, 1.0, bounds)


def test_free_decay_preset_assembles_once(unit_mesh, monkeypatch):
    # its target comes from a sweep on the problem's own coefficients
    calls = count_assemblies(monkeypatch)
    spec = build_unconstrained_decay(unit_mesh)
    alm_run(spec, AlmConfig())
    assert len(calls) == 1


def test_objective_without_a_state_reads_v_only_with_boundary_control(sec5_spec, unit_mesh):
    # the paper preset has no boundary control: a v passed in is neither
    # charged nor swept, so Phi is the same with or without it
    u, mu = IntervalField.zeros(unit_mesh), IntervalField.zeros(unit_mesh)
    v = BoundaryTimeField.constant(unit_mesh, 1.0)
    without = subproblem_objective(sec5_spec, 1.0, mu, u)
    assert without == pytest.approx(0.0661, abs=1e-4)
    assert subproblem_objective(sec5_spec, 1.0, mu, u, v) == without
