"""Successive-approximation solver for the penalized sub-problems.

The forward state solve, the multiplier candidate and the backward adjoint
solve are evaluated once at the initial controls and again after each
pointwise control update, so every iteration starts from the adjoint of its
controls and the returned (y, mu_bar, p) belong to the returned controls.
Because the Hamiltonian densities

    H_omega = alpha/2 u^2 + 1/(2 rho) ((rho (y - psi) + mu)_+^2 - mu^2) + p u
    H_sigma = beta/2 v^2 + p v

are strictly convex quadratics in the controls, the pointwise minimizer over
a box is the closed-form clamp -p/alpha (resp. -p/beta).  The update takes a
damped step toward it (the extended-MSA view of Li, Chen, Tai & E, JMLR 18,
2018):

    u <- clip((1 - step) u - step (p / alpha), ua, ub)

with one parameter step in (0, 1].  The full step is exactly the clamp; a
shorter one is a projected-gradient step of length step/alpha on H_omega.
Iteration stops when the sup-norm control gap falls below eps1.

Only the slices m = 1..nt of the controls are unknowns: the implicit-Euler
step m uses u_m and v_m, and nothing uses u_0, v_0.  They are set once to
the projection of 0 onto their box and no update changes them.
"""

from dataclasses import dataclass, fields

import numpy as np

from .grid import (TimeField, BoundaryTimeField, extract_boundary,
                   project_interval)
from .cost import multiplier_candidate
from .solvers import solve_forward, solve_adjoint


class MsaDivergenceError(RuntimeError):
    """Inner iteration produced non-finite values."""

    def __init__(self, iteration, message):
        self.iteration = iteration
        super().__init__(f"inner solver diverged at iteration {iteration}: {message}")


@dataclass
class MsaConfig:
    eps1: float = 1e-4
    max_inner: int = 500
    step: float = 1.0

    def __post_init__(self):
        if self.eps1 <= 0:
            raise ValueError(f"eps1 must be positive, got {self.eps1}")
        if self.max_inner < 1:
            raise ValueError(f"max_inner must be >= 1, got {self.max_inner}")
        if not 0 < self.step <= 1:
            raise ValueError(f"step must lie in (0,1], got {self.step}")
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
    v: BoundaryTimeField
    p: TimeField
    mu_bar: TimeField
    inner_iters: int
    final_gap: float
    converged: bool


def hamiltonian_omega(y, u, p, mu, rho, psi, alpha):
    shifted = np.maximum(rho * (y.values - psi.values) + mu.values, 0.0)
    vals = (0.5 * alpha * u.values ** 2
            + (shifted ** 2 - mu.values ** 2) / (2.0 * rho)
            + p.values * u.values)
    return TimeField(y.mesh, vals)


def hamiltonian_sigma(v, p_boundary, beta):
    return BoundaryTimeField(v.mesh, 0.5 * beta * v.values ** 2 + p_boundary.values * v.values)


def argmin_hamiltonian_u(p, alpha, bounds):
    """Exact pointwise minimizer of H_omega over [ua, ub]: clamp(-p/alpha)."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return TimeField(p.mesh, np.clip(-p.values / alpha, bounds.ua.values, bounds.ub.values))


def argmin_hamiltonian_v(p_boundary, beta, bounds):
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    return BoundaryTimeField(p_boundary.mesh,
                             np.clip(-p_boundary.values / beta,
                                     bounds.va.values, bounds.vb.values))


def grad_hamiltonian_u(u, p, alpha):
    """alpha u + p; the penalty term of H_omega does not depend on u."""
    return TimeField(u.mesh, alpha * u.values + p.values)


def grad_hamiltonian_v(v, p_boundary, beta):
    return BoundaryTimeField(v.mesh, beta * v.values + p_boundary.values)


def _initial_control(init, zero, lo, hi):
    """init (zero when None) projected into [lo, hi], with slice 0 at the
    projection of 0."""
    values = np.array(project_interval(init if init is not None else zero, lo, hi).values)
    values[0] = np.clip(0.0, lo.values[0], hi.values[0])
    return type(zero)(zero.mesh, values)


def _damped_clamp(x, p, weight, lo, hi, step):
    """clip((1 - step) x - step (p / weight), lo, hi) on m = 1..nt, and x's
    slice 0; a field like x.

    At step = 1 this is bit for bit clip(-p / weight): 0 * x - p / weight
    differs from -p / weight at most in the sign of a zero.  The equal-looking
    x - step (x + p / weight) is not exact there.
    """
    values = np.clip((1.0 - step) * x.values - step * (p.values / weight),
                     lo.values, hi.values)
    values[0] = x.values[0]
    return type(x)(x.mesh, values)


def _sup_diff(a, b):
    return float(np.max(np.abs(a.values - b.values)))


def msa_solve(spec, rho, mu, init_u=None, init_v=None, config=None):
    """Solve the sub-problem at (rho, mu) by successive approximations.

    Controls start from init_u/init_v (projected into the admissible box;
    zero when omitted) on m = 1..nt and from the projection of 0 on m = 0.
    Non-convergence within max_inner is reported through the converged flag,
    not an exception.
    """
    if config is None:
        config = MsaConfig()
    mesh = spec.mesh
    op = spec.operator()
    b = spec.bounds
    with_v = spec.boundary_control_enabled

    u = _initial_control(init_u, TimeField.zeros(mesh), b.ua, b.ub)
    v = _initial_control(init_v, BoundaryTimeField.zeros(mesh), b.va, b.vb)

    y = mu_bar = p = None

    def evaluate(iteration):
        """Recompute (y, mu_bar, p) at the controls inner iteration `iteration`
        updates.  Rebinding them, not returning new ones, frees each old field
        as soon as its replacement exists: one field fewer held at peak."""
        nonlocal y, mu_bar, p
        try:
            y = solve_forward(mesh, op, u, v if with_v else None, spec.y0)
            mu_bar = multiplier_candidate(y, spec.psi, mu, rho)
            p = solve_adjoint(mesh, op, mu_bar, y.values[-1] - spec.y_d)
        except ValueError as exc:
            raise MsaDivergenceError(iteration, str(exc)) from exc

    evaluate(1)
    for i in range(1, config.max_inner + 1):
        u_new = _damped_clamp(u, p, spec.alpha, b.ua, b.ub, config.step)
        v_new = (_damped_clamp(v, extract_boundary(p), spec.beta, b.va, b.vb, config.step)
                 if with_v else v)
        gap = _sup_diff(u_new, u)
        if with_v:
            gap = max(gap, _sup_diff(v_new, v))
        if not np.isfinite(gap):
            raise MsaDivergenceError(i, "non-finite control gap")
        u, v = u_new, v_new
        evaluate(i + 1)
        if gap <= config.eps1:
            break
    return MsaResult(y=y, u=u, v=v, p=p, mu_bar=mu_bar,
                     inner_iters=i, final_gap=gap, converged=gap <= config.eps1)
