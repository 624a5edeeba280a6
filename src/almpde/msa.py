"""Spectral projected-gradient solver for the penalized sub-problems.

The sub-problem at (rho, mu) minimizes Phi = `cost.subproblem_objective`
over the controls in their boxes.  Each control x of the problem
(`cost.Control`: u, and v with boundary control) has a cost weight a
(alpha, beta), space weights w (M, and W the arc-length weights) and a
restriction of the adjoint p to its domain (p, its boundary trace).  The
adjoint gives the exact gradient dt w (a x + p) of Phi in x on the slices
m = 1..nt.  The Hamiltonian density a/2 x^2 + p x is strictly convex, so its
pointwise minimizer over the box is the closed-form clamp of -p/a.  Each
update takes a damped step toward it, one theta for all controls (the
extended-MSA view of Li, Chen, Tai & E, JMLR 18, 2018):

    x(theta) = clip((1 - theta) x - theta (p / a), lo, hi).

theta = 1 is exactly the clamp; a shorter step is a projected-gradient step
of length theta/a, so x(theta) is the projection arc along the gradient
preconditioned by a dt w.  theta is chosen in every iteration, as in the
spectral projected-gradient method of Birgin, Martinez & Raydan (SIAM J.
Optim. 10, 2000):

- The first trial is the Barzilai-Borwein ratio <s, s> / <s, change of
  gradient> of the last accepted step s, in that scaled metric, kept in
  [THETA_MIN, 1]; the first iteration tries 1.  Phi is convex, so the ratio
  does not exceed 1 but by rounding.
- A trial is accepted when it passes the Armijo test
  Phi(x(theta)) <= Phi(x) + SIGMA <grad Phi, x(theta) - x> + ROUNDING |Phi(x)|;
  otherwise theta is halved (BACKTRACK).  The last term is a few units of
  rounding of Phi: near the solution the predicted decrease falls below
  the rounding of Phi itself, and without it the test would reject steps
  by rounding alone.  Each trial costs one forward sweep, and only the
  accepted one is followed by an adjoint sweep.

Iteration stops when the stationarity residual, the largest over the
controls of the sup norm of x - clip(-p/a, lo, hi), is at most
eps1.  It is tested with the adjoint of the current controls before each
update, so a stationary start costs one forward and one adjoint sweep.  The
loop also stops, unconverged and without raising, after max_inner accepted
updates or when no theta >= THETA_MIN passes the Armijo test.

In the MsaResult, (y, mu_bar, p) belong to the returned controls (v None
without boundary control), inner_iters counts the accepted updates,
final_gap is their stationarity residual, converged is final_gap <= eps1
and mu_sq is integral mu^2 of mu, which the outer loop's L_rho takes over.

A solve starts cold, from the projection of 0 onto the boxes (a constant
field under constant bounds), or warm, from the controls and state y of an
MsaResult, which costs no forward sweep; the outer loop starts every
sub-problem but the first from the last result.

Each quantity is computed once: each control's restriction of p once per
adjoint, and its target -p/a too, formed again only where a residual or a
rejected trial has overwritten it (`_Part`); a trial's dt-weighted step
w s once, which gives its three step products as BLAS dots and, when the
trial is accepted, the new adjoint's <w s, p>; integral mu^2 once per
sub-problem and dt A y0 once per problem (`ProblemSpec.a_y0`); dt A e of
the terminal mismatch e once per state, by the objective, for the adjoint
sweep from e.  Phi takes the state and multiplier candidate the loop
already has, so it costs no sweep.

For the length of one call the loop holds two arrays (`out` of the
sweeps): the first forward sweep that marches allocates the state array,
and every later one writes into it, each trial and the state formed again
after a failed line search; the first adjoint sweep allocates the adjoint
array, and every later one writes into it.  No field over either array is
in use then: the loop drops the current state before its trials, a
rejected trial's state before the next theta, and p and each part's
restriction of it before each adjoint sweep.  A warm start's y is the
caller's and is never written, and the returned MsaResult owns its arrays.
The trial controls and mu_bar stay fresh arrays: a trial's control goes to
code the loop does not own (the sweeps, the objective, a caller's
recorder), which may keep it.
"""

from dataclasses import dataclass, fields

import numpy as np

from .grid import IntervalField, TimeField, BoundaryTimeField, clamp, is_zero, operand
from .cost import (_dot, multiplier_candidate, multiplier_square, projection_residual,
                   subproblem_objective)
from .solvers import solve_forward, solve_adjoint


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


def require_fields_on_mesh(spec, mu, warm):
    """Reject a multiplier mu or a warm start (y, u, v) that is not a field
    of its kind on spec's mesh (`Mesh.compatible`): an IntervalField mu, u,
    a TimeField y, and v a BoundaryTimeField with boundary control, None
    without.  Unchecked, one on another T was taken without an error."""
    mesh = spec.mesh
    checks = [("multiplier", mu, IntervalField)]
    if warm is not None:
        checks += [("warm.y", warm.y, TimeField), ("warm.u", warm.u, IntervalField)]
        if spec.boundary_control_enabled:
            checks.append(("warm.v", warm.v, BoundaryTimeField))
        elif warm.v is not None:
            raise ValueError("warm.v must be None without boundary control")
    for name, field, kind in checks:
        if not isinstance(field, kind) or not field.mesh.compatible(mesh):
            raise ValueError(f"{name} must be a {kind.__name__} on the problem's mesh "
                             f"{mesh!r}")


def require_penalty_and_multiplier(rho, mu):
    """Reject a penalty rho outside (0, inf) or a multiplier field mu with a
    negative entry, the sub-problems `msa_solve` is not defined for.  A
    constant mu is read as its one number (`operand`)."""
    if not 0 < rho < np.inf:
        raise ValueError(f"rho must be positive and finite, got {rho}")
    if (operand(mu) < 0).any():
        raise ValueError("multiplier must be nonnegative")


@dataclass
class MsaResult:
    y: TimeField
    u: IntervalField
    v: BoundaryTimeField | None     # None without boundary control
    p: IntervalField
    mu_bar: IntervalField
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
    """clip((1 - theta) x + theta target, lo, hi), a field like x.  target is
    the value array of -p / weight; constant bounds are read as 0-d arrays
    (`operand`).  scratch, when given, is an array of x's shape that is
    overwritten.

    At theta = 1 this is bit for bit clip(target): 0 * x + target differs
    from target at most in the sign of a zero.  The equal-looking
    x + theta (target - x) is not exact there.
    """
    values = (1.0 - theta) * x.values
    values += np.multiply(theta, target, out=scratch)
    clamp(values, operand(lo), operand(hi), out=values)
    return type(x)._wrap(x.mesh, values)


def _stationarity(x, target, lo, hi, scratch=None):
    """sup of |x - clip(target, lo, hi)|, target = -p / weight.

    The residual r = clip(target) - x (`cost.projection_residual`) is formed
    in scratch, an array of x's shape, when given; the sup is taken as
    max(max r, -min r) with no pass for |r|; abs only gives a zero sup its
    positive sign."""
    r = projection_residual(x, target, lo, hi, out=scratch)
    return abs(max(float(np.maximum.reduce(r, axis=None)),
                   -float(np.minimum.reduce(r, axis=None))))


def _step_products(x, x_new, weights, weight, p, scratch=None, out=None):
    """(weight <s, s>, <weight x + p, s>, <p, s>) for the step s = x_new - x,
    <,> the control's integral with the quadrature weights `weights`: the
    step's squared length in the scaled metric, the derivative of Phi along
    it, and the part of that derivative the next adjoint changes.  All three
    are BLAS dots (`cost._dot`) with one weighted step w s, s formed in
    scratch and w s in out, arrays of x's shape, when given.  For a constant
    zero x (a cold start) <w x, s> is dropped: the dot would first copy x's
    zero-stride view."""
    s = np.subtract(x_new.values, x.values, out=scratch)
    ws = np.multiply(s, weights, out=out)
    ss = _dot(ws, s)
    ps = _dot(ws, p.values)
    slope = ps if is_zero(x.values) else weight * _dot(ws, x.values) + ps
    return weight * ss, slope, ps


class _Part:
    """One control in one solve: its `cost.Control` fields, dt-weighted
    weights `load`, value x, trial new, restricted adjoint p, and two work
    arrays of x's shape, held for this call only: fresh arrays raised
    boundary_fine's solve_ref 0.565 -> 0.604 (+7.1%, 536 -> 1,680 minor page
    faults per solve, BENCH_no_scipy.json).

    - `target` is allocated with the part.  Each stationarity test forms
      -p / weight in it, and a trial's damped clamp reads it there.  A trial
      then overwrites it with its weighted step w s, from which `accept`
      takes the new p's <w s, p>.
    - `scratch` is allocated at the part's first trial, and holds the
      clamp's theta * target and the step s.  A stationarity test before it
      exists forms its residual in `target`'s own array, so a solve whose
      start is stationary holds one work array per control.

    `formed` tells whether `target` holds -p / weight; a trial re-forms it
    from p when it does not (the first trial after a residual formed there,
    or a retry after a rejected trial)."""

    __slots__ = ("lo", "hi", "weight", "restrict", "load", "x", "new", "p", "target",
                 "scratch", "formed")

    def __init__(self, control, x, dt):
        self.lo, self.hi, self.weight = control.lo, control.hi, control.weight
        self.restrict, self.load = control.restrict, dt * control.w
        self.x = _initial_control(self.lo, self.hi) if x is None else x
        self.new = self.p = self.scratch = None
        self.target = np.empty(self.x.values.shape)
        self.formed = False

    def gap(self):
        """The stationarity residual of x; forms the trials' target, and the
        residual in scratch, or in the target's array before a first trial."""
        np.divide(self.p.values, -self.weight, out=self.target)
        self.formed = self.scratch is not None
        return _stationarity(self.x, self.target, self.lo, self.hi,
                             self.scratch if self.formed else self.target)

    def trial(self, theta):
        """The step products (`_step_products`) of the trial new at theta."""
        if self.scratch is None:
            self.scratch = np.empty(self.target.shape)
        if not self.formed:
            np.divide(self.p.values, -self.weight, out=self.target)
        self.new = _damped_clamp(self.x, self.target, self.lo, self.hi, theta, self.scratch)
        self.formed = False
        return _step_products(self.x, self.new, self.load, self.weight, self.p, self.scratch,
                              self.target)

    def accept(self):
        """Make the trial current; returns the new p's <p, new - x>."""
        self.x, self.new = self.new, None
        return _dot(self.target, self.p.values)


def msa_solve(spec, rho, mu, config=None, warm=None):
    """Solve the sub-problem at (rho, mu) by spectral projected gradient.

    Without warm the start is cold: each control of the spec at the
    projection of 0 onto its box.  warm, an MsaResult on the same spec whose
    y is the state of its controls, starts from them and saves the first
    forward sweep.  Non-convergence, at max_inner or in the line search, is
    reported through the converged flag, not an exception.
    A mu or warm start that is not a field of its kind on the spec's mesh
    (`require_fields_on_mesh`), or a rho or mu outside the sub-problem's
    domain (`require_penalty_and_multiplier`), raises ValueError before any
    sweep.
    """
    require_fields_on_mesh(spec, mu, warm)
    require_penalty_and_multiplier(rho, mu)
    if config is None:
        config = MsaConfig()
    mesh = spec.mesh
    op = spec.operator()
    mu_sq = multiplier_square(mesh, mu)
    y, start = (None, (None, None)) if warm is None else (warm.y, (warm.u, warm.v))
    parts = [_Part(c, x, mesh.dt) for c, x in zip(spec.controls, start)]
    values = [part.x for part in parts]
    y_out = p_out = None                # the held arrays (module docstring)

    def state(values, iteration, y=None):
        """(y, mu_bar, Phi, dt A e) at the controls' values, e the terminal
        mismatch; y, when given, is their state.  The forward sweeps take
        dt A y0 from the spec (`ProblemSpec.a_y0`) and write into y_out."""
        nonlocal y_out
        u, v = (*values, None)[:2]      # v is None without boundary control
        try:
            if y is None:
                if y_out is not None:
                    y_out.setflags(write=True)
                y = solve_forward(mesh, op, u, v, spec.y0, spec.a_y0, out=y_out)
                if y_out is None and y.values.base is None:  # not a constant
                    y_out = y.values
            mu_bar = multiplier_candidate(y, spec.psi, mu, rho)
        except ValueError as exc:
            raise MsaDivergenceError(iteration, str(exc)) from exc
        a_e = np.empty(mesh.nx * mesh.ny)
        phi = subproblem_objective(spec, rho, mu, u, v, y=y, mu_bar=mu_bar, mu_sq=mu_sq,
                                   a_e=a_e)
        return y, mu_bar, phi, a_e

    def adjoint(y, mu_bar, a_e, iteration):
        """The adjoint p of (y, mu_bar), a_e dt A e of y's terminal mismatch,
        written into p_out; each part's restriction of the old p is freed
        before the sweep."""
        nonlocal p_out
        for part in parts:
            part.p = None
        if p_out is not None:
            p_out.setflags(write=True)
        try:
            p = solve_adjoint(mesh, op, mu_bar, y.values[-1] - spec.y_d, a_e, out=p_out)
        except ValueError as exc:
            raise MsaDivergenceError(iteration, str(exc)) from exc
        p_out = p.values
        for part in parts:
            part.p = part.restrict(p)
        return p

    y, mu_bar, phi, a_e = state(values, 1, y)
    p = adjoint(y, mu_bar, a_e, 1)
    theta, updates = 1.0, 0
    while True:
        gap = 0.0
        for part in parts:
            gap = max(gap, part.gap())
        if gap <= config.eps1 or updates == config.max_inner:
            break
        # The trials need the room of the current state and multiplier (the
        # last accepted trial's, under their other names); they are
        # recomputed if no trial is accepted.
        y = mu_bar = y_new = mu_bar_new = None
        while theta >= THETA_MIN:
            ss = slope = sp = 0.0
            trial = []
            for part in parts:
                part_ss, part_slope, part_sp = part.trial(theta)
                ss, slope, sp = ss + part_ss, slope + part_slope, sp + part_sp
                trial.append(part.new)
            y_new, mu_bar_new, phi_new, a_e = state(trial, updates + 2)
            if phi_new <= phi + SIGMA * slope + ROUNDING * abs(phi):
                break
            y_new = mu_bar_new = None
            theta *= BACKTRACK
        else:
            y, mu_bar, phi, _ = state(values, updates + 1)
            break
        y, mu_bar, phi = y_new, mu_bar_new, phi_new
        p = None                        # freed before the adjoint sweep
        p = adjoint(y, mu_bar, a_e, updates + 2)
        # <s, change of gradient> in the scaled metric; <s, p> of the old p
        # was taken while it was alive
        sy = ss - sp
        for part in parts:
            sy += part.accept()
        values = trial
        updates += 1
        theta = min(1.0, max(THETA_MIN, ss / sy)) if sy > 0 else 1.0
    u, v = (*values, None)[:2]
    return MsaResult(y=y, u=u, v=v, p=p, mu_bar=mu_bar, inner_iters=updates,
                     final_gap=gap, converged=gap <= config.eps1, mu_sq=mu_sq)
