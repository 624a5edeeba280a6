"""Objective, penalty, multiplier update, and optimality residuals.

The tracking objective is

    J(y, u, v) = 1/2 ||y(T) - y_d||^2  +  alpha/2 ||u||^2  +  beta/2 ||v||^2

and the state constraint y <= psi enters through the smooth penalty

    L_rho(y, u, v, mu) = J + 1/(2 rho) * integral( (rho (y - psi) + mu)_+^2 - mu^2 ).

The discrete unknowns are the time slices m = 1..nt: the implicit-Euler
step m couples y_m to u_m and v_m, while y_0 is the given initial state.
The controls, multipliers and adjoint hold only these slices, and every
time integral here (control costs, penalty, residual index, KKT residuals)
is the right-endpoint rule dt * sum over m = 1..nt, so the reported J and
L_rho use the quadrature of the sub-problem objective the inner solver
minimizes.  y_0 <= psi(., 0) is a compatibility condition on the data
(Casas, SIAM J. Control Optim. 35, 1997), checked when the problem is built
rather than penalized.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import IntervalField, clamp, extract_boundary, is_zero, operand
from .solvers import solve_forward

try:
    # einsum's C entry point: numpy's wrapper instead raised paper_sec5's
    # solve_ref 0.319 -> 0.335 (+5.0%, higher in 10 of 10 pairs,
    # BENCH_ablation.json)
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum


@dataclass(frozen=True)
class Control:
    """One control: its box [lo, hi], cost weight (alpha for u, beta for v),
    space weights w of its integrals (`inner`; mesh.w_space, mesh.w_arc) and
    the restriction of the adjoint p to its domain (p itself, its boundary
    trace).  It costs weight/2 ||x||^2 and is stationary at
    x = clip(-restrict(p) / weight, lo, hi)."""
    lo: object
    hi: object
    weight: float
    w: np.ndarray
    restrict: object


class ProblemSpec:
    """Full description of one control problem instance.

    y0 and y_d are held as read-only copies of the slices given: a later
    change to the caller's arrays can neither change the problem nor get
    round the check of y0 against psi(., 0), and `a_y0`, dt A y0, can be
    taken once per problem.  The coefficients, psi and both pairs of bounds
    must live on the problem's mesh (`Mesh.compatible`), so that a mismatch
    fails here, not in the first sweep.  `controls` holds a `Control` per
    control, u first, then v only with boundary control.
    """

    def __init__(self, mesh, coeffs, y0, y_d, psi, alpha, beta, bounds,
                 boundary_control_enabled=False):
        if not (0 < alpha < math.inf and 0 < beta < math.inf):
            raise ValueError(f"cost weights must be positive and finite, "
                             f"got alpha={alpha}, beta={beta}")
        y0 = np.array(y0, dtype=np.float64)
        y_d = np.array(y_d, dtype=np.float64)
        y0.flags.writeable = False
        y_d.flags.writeable = False
        if y0.shape != mesh.shape_space or y_d.shape != mesh.shape_space:
            raise ValueError("y0 and y_d must be spatial slices of shape (ny, nx)")
        if not (np.all(np.isfinite(y0)) and np.all(np.isfinite(y_d))):
            raise ValueError("y0 and y_d must be finite")
        for part, part_mesh in (("coeffs", coeffs.mesh), ("psi", psi.mesh),
                                ("bounds ua/ub", bounds.ua.mesh),
                                ("bounds va/vb", bounds.va.mesh)):
            if not part_mesh.compatible(mesh):
                raise ValueError(f"{part} must be on the problem's mesh {mesh!r}, "
                                 f"got {part_mesh!r}")
        if (y0 > psi.values[0]).any():
            excess = y0 - psi.values[0]
            j, i = np.unravel_index(np.argmax(excess), excess.shape)
            raise ValueError(
                f"y0 must not exceed psi(., 0): it does by {excess[j, i]:.6g} at worst, "
                f"at node i={i}, j={j} (x={mesh.x[i]:.6g}, y={mesh.y[j]:.6g})")
        self.mesh = mesh
        self.coeffs = coeffs
        self.y0 = y0
        self.y_d = y_d
        self.psi = psi
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.bounds = bounds
        self.boundary_control_enabled = bool(boundary_control_enabled)
        self.controls = (Control(bounds.ua, bounds.ub, self.alpha, mesh.w_space, lambda p: p),)
        if self.boundary_control_enabled:
            self.controls += (Control(bounds.va, bounds.vb, self.beta, mesh.w_arc,
                                      extract_boundary),)

    def operator(self):
        """The operator of the coefficients (`DiffusionCoefficients.operator`):
        problems built on one coefficients object share it and its step
        data (factor or basis)."""
        return self.coeffs.operator()

    @cached_property
    def a_y0(self):
        """dt A y0 (`DiscreteOperator.start_term`), taken at the first read
        and kept, as the operator keeps its step data: every forward sweep of
        every inner solve of the problem starts from y0."""
        return self.operator().start_term(self.y0)


def _dot(a, b):
    """The sum of a * b over all entries of two arrays of one shape, one BLAS
    dot.

    `np.vdot` reads contiguous arrays as flat views, with no product array:
    0.9 against 1.9 us for multiply-then-reduce at 5x5, 7 against 34 us at
    33^3.  It sums in another order than numpy's pairwise reduction, so the
    result differs from it in the last digits (within n eps relative).  A
    non-contiguous operand is copied first.
    """
    return float(np.vdot(a, b))


def step_slices(f):
    """`operand` of a node field f (y, psi) on the slices m = 1..nt."""
    values = operand(f)
    return values if values.ndim == 0 else values[1:]


def inner(mesh, w, a, b):
    """Right-endpoint space-time integral of a * b over m = 1..nt for value
    arrays of IntervalFields or BoundaryTimeFields, w their space weights
    (`Control`): w dotted with the time sums of a * b, no product field.

    It is 0.0 when a or b is a constant zero, as the sums give for finite
    values, without reading the other: einsum over a zero-stride view took
    29 us at 33x33x33, against 13 us over a materialised array."""
    if is_zero(a) or (b is not a and is_zero(b)):
        return 0.0
    return mesh.dt * _dot(w, c_einsum("m...,m...->...", a, b))


def _control_cost(spec, u, v):
    cost = 0.0
    for control, x in zip(spec.controls, (u, v)):
        cost += 0.5 * control.weight * inner(spec.mesh, control.w, x.values, x.values)
    return cost


def multiplier_square(mesh, mu):
    """integral mu^2 over m = 1..nt, the penalty's constant part."""
    return inner(mesh, mesh.w_space, mu.values, mu.values)


def penalty(mesh, mu_bar, mu_sq, rho):
    """1/(2 rho) integral((rho (y - psi) + mu)_+^2 - mu^2), the state
    constraint's term of L_rho, from the multiplier candidate mu_bar of y and
    mu_sq = `multiplier_square(mu)`."""
    return (inner(mesh, mesh.w_space, mu_bar.values, mu_bar.values) - mu_sq) / (2.0 * rho)


def cost_J(spec, y, u, v=None):
    """Tracking objective; v is read only with boundary control."""
    e = y.values[-1] - spec.y_d
    return 0.5 * _dot(spec.mesh.w_space * e, e) + _control_cost(spec, u, v)


def multiplier_candidate(y, psi, mu, rho):
    """(rho (y - psi) + mu)_+ on m = 1..nt, the post-solve multiplier update.

    A constant psi or mu is read as a 0-d array (`operand`).

    With both constant, the largest candidate is taken first, as
    top = (max y - psi) rho + mu over m = 1..nt.  Each rounded operation
    (subtracting psi, scaling by rho > 0, adding mu) is monotone in y, so top
    is exactly the largest of the elementwise values, before the clamp at 0.
    When top <= 0, every entry clamps to +0.0 and the result is the constant
    zero field, which holds one number; otherwise it is formed entry by
    entry, as for non-constant psi or mu.
    """
    psi, mu = step_slices(psi), operand(mu)
    if psi.ndim == 0 and mu.ndim == 0:
        top = (float(np.maximum.reduce(y.values[1:], axis=None)) - float(psi)) * rho + float(mu)
        if top <= 0.0:
            return IntervalField.zeros(y.mesh)
    values = y.values[1:] - psi
    values *= rho
    values += mu
    np.maximum(values, 0.0, out=values)
    return IntervalField._wrap(y.mesh, values)


def _feasibility(y, psi):
    """max over m = 1..nt of (y - psi)_+.

    For a constant psi it is max(max y - psi, 0), which forms no field:
    subtracting psi is monotone in y, so that is the largest difference
    exactly."""
    psi = step_slices(psi)
    if psi.ndim == 0:
        return max(float(np.maximum.reduce(y.values[1:], axis=None)) - float(psi), 0.0)
    return max(float(np.maximum.reduce(y.values[1:] - psi, axis=None)), 0.0)


def _complementarity(y, psi, mu_bar):
    """| integral mu_bar (psi - y) | over m = 1..nt, a constant psi read as a
    0-d array (`step_slices`); 0.0 for a constant zero mu_bar, with no
    psi - y formed."""
    if is_zero(mu_bar.values):
        return 0.0
    return abs(inner(y.mesh, y.mesh.w_space, mu_bar.values, step_slices(psi) - y.values[1:]))


@dataclass
class KktResiduals:
    stationarity_u: float
    stationarity_v: float
    feasibility: float
    complementarity: float


def projection_residual(x, target, lo, hi, out=None):
    """clip(target, lo, hi) - x, the projection fixed-point residual of the
    control x at target = -p / weight, an array of x's shape; formed in out
    when given (it may be target).  Constant bounds are read as 0-d arrays
    (`operand`)."""
    r = clamp(target, operand(lo), operand(hi), out=out)
    r -= x.values
    return r


def kkt_residuals(spec, y, u, v, p, mu_bar):
    """Residuals of the original first-order optimality system.

    Stationarity of each control of the spec (`Control`) is the L2 norm over
    m = 1..nt of its projection fixed-point residual (`projection_residual`),
    formed in the array of -restrict(p) / weight; without boundary control
    stat_v is 0.  Feasibility is max over m = 1..nt of (y - psi)_+ and
    complementarity | integral mu_bar (psi - y) |; their sum is the outer
    loop's residual index, zero exactly when the grid state is feasible and
    complementary with mu_bar.
    """
    stat = [0.0, 0.0]
    for k, (control, x) in enumerate(zip(spec.controls, (u, v))):
        q = control.restrict(p).values / -control.weight
        r = projection_residual(x, q, control.lo, control.hi, out=q)
        stat[k] = math.sqrt(inner(spec.mesh, control.w, r, r))
    return KktResiduals(*stat, _feasibility(y, spec.psi),
                        _complementarity(y, spec.psi, mu_bar))


def subproblem_objective(spec, rho, mu, u, v=None, y=None, mu_bar=None, mu_sq=None,
                         a_e=None):
    """The discrete functional minimized by the inner solvers.

    It is L_rho, with its right-endpoint rule over m = 1..nt for the control
    costs and the penalty, but with the terminal mismatch e measured in the
    (M + dt A) inner product instead of M.  With these choices the backward
    sweep of `solve_adjoint` (terminal slice e + dt K^{-1} M mu_bar_nt,
    source mu_bar) yields the exact gradient dt * M (alpha u_m + p_m) for
    m = 1..nt, which is what makes the pointwise clamp -p/alpha an exact
    stationarity condition.  y and mu_bar, the state and multiplier
    candidate of the controls, and mu_sq = `multiplier_square(mu)` are
    computed when not given; the inner solver passes all three, so that one
    evaluation costs no sweep and mu_sq is taken once per sub-problem.
    a_e, when given, is a flat array of n entries that receives dt A e, for
    the adjoint sweep of these controls (`solve_adjoint`'s a_terminal).
    """
    mesh, op = spec.mesh, spec.operator()
    if y is None:
        y = solve_forward(mesh, op, u, v if spec.boundary_control_enabled else None, spec.y0)
    if mu_bar is None:
        mu_bar = multiplier_candidate(y, spec.psi, mu, rho)
    if mu_sq is None:
        mu_sq = multiplier_square(mesh, mu)
    e = (y.values[-1] - spec.y_d).ravel()
    # K e = (M + dt A) e, dt A e from the stencil the sweeps step with
    a_e = op.stencil.apply(e, np.empty(e.size) if a_e is None else a_e)
    k_e = op.flat_mass * e
    k_e += a_e
    return 0.5 * _dot(e, k_e) + _control_cost(spec, u, v) + penalty(mesh, mu_bar, mu_sq, rho)
