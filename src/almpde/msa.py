"""Spectral projected-gradient solver for the penalized sub-problems.

The sub-problem at (rho, mu) minimizes Phi = `cost.subproblem_objective`
over the controls in their box.  The adjoint p of the controls gives its
exact gradient, dt M (alpha u + p) on the slices m = 1..nt and
dt W (beta v + p) on the boundary (W the arc-length weights).  Because the
Hamiltonian densities

    H_omega = alpha/2 u^2 + 1/(2 rho) ((rho (y - psi) + mu)_+^2 - mu^2) + p u
    H_sigma = beta/2 v^2 + p v

are strictly convex quadratics in the controls, the pointwise minimizer over
a box is the closed-form clamp -p/alpha (resp. -p/beta).  Each update takes
a damped step toward it (the extended-MSA view of Li, Chen, Tai & E, JMLR 18,
2018):

    u(theta) = clip((1 - theta) u - theta (p / alpha), ua, ub)

and likewise v with beta, one theta for both.  theta = 1 is exactly the
clamp; a shorter step is a projected-gradient step of length theta/alpha
(theta/beta for v), so u(theta) is the projection arc along the gradient
preconditioned by alpha dt M (beta dt W).  theta is chosen in every
iteration, as in
the spectral projected-gradient method of Birgin, Martinez & Raydan (SIAM J.
Optim. 10, 2000):

- The first trial is the Barzilai-Borwein ratio <s, s> / <s, change of
  gradient> of the last accepted step s, in that scaled metric, kept in
  [THETA_MIN, 1]; the first iteration tries 1.  Phi is convex, so the ratio
  does not exceed 1 but by rounding.
- A trial is accepted when it passes the Armijo test
  Phi(u(theta)) <= Phi(u) + SIGMA <grad Phi, u(theta) - u> + ROUNDING |Phi(u)|;
  otherwise theta is halved (BACKTRACK).  The last term is a few units of
  rounding of Phi: near the solution the predicted decrease falls below
  the rounding of Phi itself, and without it the test would reject steps
  by rounding alone.  Each trial costs one forward sweep, and only the
  accepted one is followed by an adjoint sweep.

Iteration stops when the stationarity residual

    sup over m = 1..nt of |u - clip(-p/alpha, ua, ub)|, and the same for v,

is at most eps1.  It is tested with the adjoint of the current controls
before each update, so a stationary start costs one forward and one adjoint
sweep.  The loop also stops, unconverged and without raising, after
max_inner accepted updates or when no theta >= THETA_MIN passes the Armijo
test.

In the MsaResult, (y, mu_bar, p) belong to the returned controls, v is
None without boundary control, inner_iters counts the accepted updates,
final_gap is the stationarity residual of the returned controls,
converged is final_gap <= eps1 and mu_sq is integral mu^2 of the
sub-problem's mu, which the outer loop's L_rho takes over.

A solve starts cold, from the projection of 0 onto the box (a constant
field under constant bounds), or warm, from the controls of an MsaResult
and its y as their state, which costs no forward sweep.  The outer loop
starts its first sub-problem cold and every later one from the last
result; a start from other controls is an MsaResult with those controls
and their `solve_forward` state, the only fields a warm start reads.

Each quantity is computed once: the target -p/alpha and p's boundary trace
once per adjoint, for both the stationarity test and the trials; the three
products a trial's Armijo test and step length need, as BLAS dots with one
dt-weighted step; integral mu^2 and dt A y0, the stencil term every forward
sweep from y0 subtracts, once per sub-problem (the latter on its first
forward sweep); dt A e of the terminal mismatch e once per state, by the
objective, which the adjoint sweep from e takes over.  Phi takes the state
and multiplier candidate the loop already has, so an evaluation costs no
sweep.  The target and the temporaries of the stationarity test, the
trials and the step products are formed in arrays that one call holds,
two per control.

Only the slices m = 1..nt of the controls are unknowns: the implicit-Euler
step m uses u_m and v_m, and nothing uses u_0, v_0.  A cold start sets
them to the projection of 0 onto their box, and no update changes them.
"""

from dataclasses import dataclass, fields

import numpy as np

from .grid import TimeField, BoundaryTimeField, clamp, extract_boundary, is_zero, operand
from .cost import (_dot, multiplier_candidate, multiplier_square, projection_residual,
                   subproblem_objective)
from .solvers import solve_forward, solve_adjoint, start_term


class MsaDivergenceError(RuntimeError):
    """A sweep of the inner iteration produced non-finite values.

    `iteration` k names the sweeps at the controls after k - 1 accepted
    updates: 1 for the initial controls, k + 1 for the trials of update k.
    """

    def __init__(self, iteration, message):
        self.iteration = iteration
        super().__init__(f"inner solver diverged at iteration {iteration}: {message}")


# Armijo fraction of the predicted decrease, smallest step tried, the
# factor a rejected step is cut by, and the rounding allowance of the
# Armijo test relative to |Phi|.
SIGMA = 1e-4
THETA_MIN = 1e-10
BACKTRACK = 0.5
ROUNDING = 8.0 * np.finfo(np.float64).eps


@dataclass
class MsaConfig:
    eps1: float = 1e-4
    max_inner: int = 500

    def __post_init__(self):
        if self.eps1 <= 0:
            raise ValueError(f"eps1 must be positive, got {self.eps1}")
        if self.max_inner < 1:
            raise ValueError(f"max_inner must be >= 1, got {self.max_inner}")
        require_finite_fields(self)


def require_finite_fields(config):
    """Reject a non-finite value in any numeric field of a solver config."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"{f.name} must be finite")


@dataclass
class MsaResult:
    y: TimeField
    u: TimeField
    v: BoundaryTimeField | None     # None without boundary control
    p: TimeField
    mu_bar: TimeField
    inner_iters: int
    final_gap: float
    converged: bool
    mu_sq: float


def _initial_control(lo, hi):
    """The projection of 0 into [lo, hi], a field like lo, the cold start.

    It is one `clamp` of a zero into itself, the zero shaped like the
    bounds' operands (`operand`): with both bounds constant it is a 0-d
    array and the start is the constant field clamp(0, lo, hi), which
    builds no array; otherwise the clamp's array is the start.
    """
    lo_one, hi_one = operand(lo), operand(hi)
    zero = np.zeros(np.broadcast_shapes(lo_one.shape, hi_one.shape))
    values = clamp(zero, lo_one, hi_one, out=zero)
    if values.ndim == 0:
        return type(lo).constant(lo.mesh, values)
    return type(lo)._wrap(lo.mesh, values)


def _damped_clamp(x, target, lo, hi, theta, scratch=None):
    """clip((1 - theta) x + theta target, lo, hi) on m = 1..nt, and x's slice
    0; a field like x.  target is the value array of -p / weight; constant
    bounds are read as 0-d arrays (`operand`).  scratch, when given, is an
    array of x's shape that is overwritten.

    At theta = 1 this is bit for bit clip(target): 0 * x + target differs
    from target at most in the sign of a zero.  The equal-looking
    x + theta (target - x) is not exact there.
    """
    values = (1.0 - theta) * x.values
    values += np.multiply(theta, target, out=scratch)
    clamp(values, operand(lo), operand(hi), out=values)
    values[0] = x.values[0]
    return type(x)._wrap(x.mesh, values)


def _stationarity(x, target, lo, hi, scratch=None):
    """sup over m = 1..nt of |x - clip(target, lo, hi)|, target = -p / weight.

    The residual r = clip(target) - x (`cost.projection_residual`) is formed
    on every slice, in scratch, an array of x's shape, when given; the sup
    is taken over m = 1..nt, as max(max r, -min r) with no pass for |r|; abs
    only gives a zero sup its positive sign."""
    r = projection_residual(x, target, lo, hi, out=scratch)
    tail = r[1:]
    return abs(max(float(np.maximum.reduce(tail, axis=None)),
                   -float(np.minimum.reduce(tail, axis=None))))


def _step_products(x, x_new, weights, weight, p, scratch=None):
    """(weight <s, s>, <weight x + p, s>, <p, s>) for the step s = x_new - x,
    <,> being the control's integral with the quadrature weights `weights`:
    the step's squared length in the scaled metric, the derivative of Phi
    along it, and the part of that derivative the next adjoint changes.

    All three are BLAS dots (`cost._dot`) with one weighted step w s; s is
    formed in scratch, an array of x's shape, when given.  The step leaves
    slice 0 alone, so the sums over all slices are sums over m = 1..nt.
    For a constant zero x (a cold start) <w x, s> is dropped: the dot would
    first copy x's zero-stride view.
    """
    s = np.subtract(x_new.values, x.values, out=scratch)
    ws = s * weights
    ss = _dot(ws, s)
    ps = _dot(ws, p.values)
    slope = ps if is_zero(x.values) else weight * _dot(ws, x.values) + ps
    return weight * ss, slope, ps


def _step_dot(x, x_new, weights, p, scratch=None):
    """<p, x_new - x> with the quadrature weights `weights`, a BLAS dot
    with the weighted step (the new adjoint's part of the Barzilai-Borwein
    denominator), formed in scratch, an array of x's shape, when given."""
    ws = np.subtract(x_new.values, x.values, out=scratch)
    ws *= weights
    return _dot(ws, p.values)


def msa_solve(spec, rho, mu, config=None, warm=None):
    """Solve the sub-problem at (rho, mu) by spectral projected gradient.

    Without warm the start is cold: the controls at the projection of 0
    onto their box, and v None without boundary control.  warm, an
    MsaResult on the same spec whose y is the state of its u and v, starts
    from those controls and saves the first forward sweep.  Non-convergence, at max_inner or in the line search, is
    reported through the converged flag, not an exception.
    """
    if config is None:
        config = MsaConfig()
    mesh = spec.mesh
    op = spec.operator()
    b = spec.bounds
    mu_sq = multiplier_square(mesh, mu)
    # the dt-weighted quadrature weights of the control integrals
    w_u, w_v = op.load_mass, op.load_arc

    if warm is None:
        u, y = _initial_control(b.ua, b.ub), None
        v = _initial_control(b.va, b.vb) if spec.boundary_control_enabled else None
    else:
        u, v, y = warm.u, warm.v, warm.y
    with_v = v is not None

    a_y0 = None
    # per control, the target -p / weight and the temporaries of the
    # helpers, held for this call only.  Fresh arrays instead took
    # boundary_fine 536 -> 1,680 minor page faults per solve and raised its
    # solve_ref 0.565 -> 0.604 (+7.1%, higher in 9 of 10 pairs,
    # BENCH_no_scipy.json)
    target_u, scratch_u = np.empty(u.values.shape), np.empty(u.values.shape)
    if with_v:
        target_v, scratch_v = np.empty(v.values.shape), np.empty(v.values.shape)

    def state(u, v, iteration, y=None):
        """(y, mu_bar, Phi, dt A e) at the controls (u, v), e the terminal
        mismatch; y, when given, is their state.  Every forward sweep starts
        from y0: the first one takes its dt A y0 (`start_term`), and the
        later ones reuse it."""
        nonlocal a_y0
        try:
            if y is None:
                if a_y0 is None:
                    a_y0 = start_term(op, spec.y0)
                y = solve_forward(mesh, op, u, v, spec.y0, a_y0)
            mu_bar = multiplier_candidate(y, spec.psi, mu, rho)
        except ValueError as exc:
            raise MsaDivergenceError(iteration, str(exc)) from exc
        a_e = np.empty(mesh.nx * mesh.ny)
        phi = subproblem_objective(spec, rho, mu, u, v, y=y, mu_bar=mu_bar, mu_sq=mu_sq,
                                   a_e=a_e)
        return y, mu_bar, phi, a_e

    def adjoint(y, mu_bar, a_e, iteration):
        """The adjoint p of (y, mu_bar) and, with boundary control, its
        boundary trace; a_e is dt A e of y's terminal mismatch e."""
        try:
            p = solve_adjoint(mesh, op, mu_bar, y.values[-1] - spec.y_d, a_e)
        except ValueError as exc:
            raise MsaDivergenceError(iteration, str(exc)) from exc
        return p, extract_boundary(p) if with_v else None

    y, mu_bar, phi, a_e = state(u, v, 1, y)
    p, pb = adjoint(y, mu_bar, a_e, 1)
    theta, updates = 1.0, 0
    while True:
        q = np.divide(p.values, -spec.alpha, out=target_u)
        gap = _stationarity(u, q, b.ua, b.ub, scratch_u)
        if with_v:
            qb = np.divide(pb.values, -spec.beta, out=target_v)
            gap = max(gap, _stationarity(v, qb, b.va, b.vb, scratch_v))
        if gap <= config.eps1 or updates == config.max_inner:
            break
        # The trials need the room of the current state and multiplier (the
        # last accepted trial's, under their other names); they are
        # recomputed if no trial is accepted.
        y = mu_bar = y_new = mu_bar_new = None
        while theta >= THETA_MIN:
            u_new = _damped_clamp(u, q, b.ua, b.ub, theta, scratch_u)
            ss, slope, sp = _step_products(u, u_new, w_u, spec.alpha, p, scratch_u)
            v_new = v
            if with_v:
                v_new = _damped_clamp(v, qb, b.va, b.vb, theta, scratch_v)
                ss_v, slope_v, sp_v = _step_products(v, v_new, w_v, spec.beta, pb, scratch_v)
                ss, slope, sp = ss + ss_v, slope + slope_v, sp + sp_v
            y_new, mu_bar_new, phi_new, a_e = state(u_new, v_new, updates + 2)
            if phi_new <= phi + SIGMA * slope + ROUNDING * abs(phi):
                break
            y_new = mu_bar_new = None
            theta *= BACKTRACK
        else:
            y, mu_bar, phi, _ = state(u, v, updates + 1)
            break
        y, mu_bar, phi = y_new, mu_bar_new, phi_new
        p = pb = None                   # freed before the adjoint sweep
        p, pb = adjoint(y, mu_bar, a_e, updates + 2)
        # <s, change of gradient> in the scaled metric; <s, p> of the old p
        # was taken while it was alive
        sy = ss - sp + _step_dot(u, u_new, w_u, p, scratch_u)
        if with_v:
            sy += _step_dot(v, v_new, w_v, pb, scratch_v)
        u, v = u_new, v_new
        updates += 1
        theta = min(1.0, max(THETA_MIN, ss / sy)) if sy > 0 else 1.0
    return MsaResult(y=y, u=u, v=v, p=p, mu_bar=mu_bar, inner_iters=updates,
                     final_gap=gap, converged=gap <= config.eps1, mu_sq=mu_sq)
