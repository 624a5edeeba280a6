"""Objective, augmented Lagrangian, multiplier update, and optimality residuals.

The tracking objective is

    J(y, u, v) = 1/2 ||y(T) - y_d||^2  +  alpha/2 ||u||^2  +  beta/2 ||v||^2

and the state constraint y <= psi enters through the smooth penalty

    L_rho(y, u, v, mu) = J + 1/(2 rho) * integral( (rho (y - psi) + mu)_+^2 - mu^2 ).

Reported quantities (J, L_rho, the residual index R, KKT residuals) use the
trapezoidal mesh quadrature.  The sub-problem objective that the inner
solvers actually minimize uses the scheme-consistent quadrature of
`subproblem_objective`, whose exact gradient is produced by the backward
implicit-Euler sweep; the two agree up to O(dt).
"""

from dataclasses import dataclass

import numpy as np

from .grid import (TimeField, integrate_omega_t, integrate_sigma_t,
                   l2_norm_omega_t, l2_norm_sigma_t, positive_part,
                   sup_norm, extract_boundary)
from .solvers import solve_forward


class ProblemSpec:
    """Full description of one control problem instance."""

    def __init__(self, mesh, coeffs, y0, y_d, psi, alpha, beta, bounds,
                 boundary_control_enabled=False):
        if alpha <= 0 or beta <= 0:
            raise ValueError(f"cost weights must be positive, got alpha={alpha}, beta={beta}")
        y0 = np.asarray(y0, dtype=np.float64)
        y_d = np.asarray(y_d, dtype=np.float64)
        if y0.shape != mesh.shape_space or y_d.shape != mesh.shape_space:
            raise ValueError("y0 and y_d must be spatial slices of shape (ny, nx)")
        if not (np.all(np.isfinite(y0)) and np.all(np.isfinite(y_d))):
            raise ValueError("y0 and y_d must be finite")
        if not psi.mesh.compatible(mesh):
            raise ValueError("psi lives on a different mesh")
        self.mesh = mesh
        self.coeffs = coeffs
        self.y0 = y0
        self.y_d = y_d
        self.psi = psi
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.bounds = bounds
        self.boundary_control_enabled = bool(boundary_control_enabled)
        self._op = None

    def operator(self):
        from .operators import assemble_operator
        if self._op is None:
            self._op = assemble_operator(self.mesh, self.coeffs)
        return self._op


def cost_J(spec, y, u, v=None):
    """Tracking objective; v=None counts as a zero boundary control."""
    e = y.values[-1] - spec.y_d
    J = 0.5 * float(np.sum(spec.mesh.w_space * e * e))
    J += 0.5 * spec.alpha * integrate_omega_t(u, u)
    if v is not None:
        J += 0.5 * spec.beta * integrate_sigma_t(v, v)
    return J


def augmented_lagrangian(spec, y, u, v, mu, rho):
    """J plus the quadratic state-constraint penalty at multiplier mu."""
    if rho <= 0:
        raise ValueError(f"penalty parameter must be positive, got rho={rho}")
    if np.any(mu.values < 0):
        raise ValueError("multiplier estimate must be nonnegative")
    shifted = np.maximum(rho * (y.values - spec.psi.values) + mu.values, 0.0)
    diff = TimeField(spec.mesh, shifted * shifted - mu.values * mu.values)
    one = TimeField.constant(spec.mesh, 1.0)
    return cost_J(spec, y, u, v) + integrate_omega_t(diff, one) / (2.0 * rho)


def multiplier_candidate(y, psi, mu, rho):
    """(rho (y - psi) + mu)_+, the post-solve multiplier update."""
    return TimeField(y.mesh, np.maximum(rho * (y.values - psi.values) + mu.values, 0.0))


def residual_index(y, psi, mu_bar):
    """Feasibility sup norm plus the complementarity integral.

    R = ||(y - psi)_+||_inf + | integral mu_bar (psi - y) |; zero exactly when
    the grid state is feasible and complementary with mu_bar.
    """
    gap = TimeField(y.mesh, psi.values - y.values)
    viol = sup_norm(positive_part(TimeField(y.mesh, -gap.values)))
    compl = abs(integrate_omega_t(mu_bar, gap))
    return viol + compl


@dataclass
class KktResiduals:
    stationarity_u: float
    stationarity_v: float
    feasibility: float
    complementarity: float


def kkt_residuals(spec, y, u, v, p, mu_bar):
    """Residuals of the original first-order optimality system.

    Stationarity is the L2 norm of the projection fixed-point residual
    u - clip(-p / alpha); feasibility and complementarity restate the two
    summands of the residual index.
    """
    b = spec.bounds
    du = TimeField(spec.mesh,
                   u.values - np.clip(-p.values / spec.alpha, b.ua.values, b.ub.values))
    stat_u = l2_norm_omega_t(du)
    if spec.boundary_control_enabled and v is not None:
        pb = extract_boundary(p)
        dv = type(pb)(spec.mesh,
                      v.values - np.clip(-pb.values / spec.beta, b.va.values, b.vb.values))
        stat_v = l2_norm_sigma_t(dv)
    else:
        stat_v = 0.0
    feas = sup_norm(positive_part(TimeField(spec.mesh, y.values - spec.psi.values)))
    gap = TimeField(spec.mesh, spec.psi.values - y.values)
    compl = abs(integrate_omega_t(mu_bar, gap))
    return KktResiduals(stat_u, stat_v, feas, compl)


def subproblem_objective(spec, rho, mu, u, v=None, y=None):
    """The discrete functional minimized by the inner solvers.

    Uses the right-endpoint rule in time for the control costs, the
    left-endpoint rule for the penalty, and measures the terminal mismatch e
    in the (M + dt A) inner product.  With these choices the backward sweep
    of `solve_adjoint` (terminal slice assigned to e, source mu_bar) yields
    the exact gradient dt * M (alpha u_m + p_m) for m = 1..nt, which is what
    makes the pointwise clamp -p/alpha an exact stationarity condition.
    """
    mesh = spec.mesh
    op = spec.operator()
    if y is None:
        y = solve_forward(mesh, op, u, v, spec.y0)
    dt = mesh.dt
    w = mesh.w_space
    e = y.values[-1] - spec.y_d
    val = 0.5 * float(np.sum(w * e * e)) + 0.5 * dt * float(np.sum(e * op.apply(e)))
    uu = u.values[1:]
    val += 0.5 * spec.alpha * dt * float(np.einsum("mji,ji->", uu * uu, w))
    if v is not None:
        vv = v.values[1:]
        val += 0.5 * spec.beta * dt * float(np.sum((vv * vv) @ mesh.w_arc))
    shifted = np.maximum(rho * (y.values[:-1] - spec.psi.values[:-1]) + mu.values[:-1], 0.0)
    pen = shifted * shifted - mu.values[:-1] * mu.values[:-1]
    val += dt / (2.0 * rho) * float(np.einsum("mji,ji->", pen, w))
    return val
