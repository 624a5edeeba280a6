"""Objective, augmented Lagrangian, multiplier update, and optimality residuals.

The tracking objective is

    J(y, u, v) = 1/2 ||y(T) - y_d||^2  +  alpha/2 ||u||^2  +  beta/2 ||v||^2

and the state constraint y <= psi enters through the smooth penalty

    L_rho(y, u, v, mu) = J + 1/(2 rho) * integral( (rho (y - psi) + mu)_+^2 - mu^2 ).

The discrete unknowns are the time slices m = 1..nt: the implicit-Euler
step m couples y_m to u_m and v_m, while y_0 is the given initial state and
u_0, v_0 enter nothing.  Every time integral here (control costs, penalty,
residual index, KKT residuals) is therefore the right-endpoint rule
dt * sum over m = 1..nt, the multiplier candidate is zero on m = 0, and the
reported J and L_rho use the same quadrature as the sub-problem objective
the inner solver minimizes.  y_0 <= psi(., 0) is a compatibility condition
on the data (Casas, SIAM J. Control Optim. 35, 1997), checked when the
problem is built rather than penalized.
"""

from dataclasses import dataclass

import numpy as np

from .grid import TimeField, extract_boundary
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
        self._op = None

    def operator(self):
        from .operators import assemble_operator
        if self._op is None:
            self._op = assemble_operator(self.mesh, self.coeffs)
        return self._op


def omega_inner(mesh, a, b):
    """Right-endpoint space-time integral of a * b over m = 1..nt, for value
    arrays of TimeFields; the product is never formed as a field."""
    return mesh.dt * float(np.einsum("mji,mji,ji->", a[1:], b[1:], mesh.w_space))


def sigma_inner(mesh, a, b):
    """Right-endpoint boundary space-time integral of a * b over m = 1..nt,
    for value arrays of BoundaryTimeFields."""
    return mesh.dt * float(np.einsum("mk,mk,k->", a[1:], b[1:], mesh.w_arc))


def _control_cost(spec, u, v):
    cost = 0.5 * spec.alpha * omega_inner(spec.mesh, u.values, u.values)
    if v is not None:
        cost += 0.5 * spec.beta * sigma_inner(spec.mesh, v.values, v.values)
    return cost


def _penalty(spec, mu_bar, mu, rho):
    """1/(2 rho) integral((rho (y - psi) + mu)_+^2 - mu^2), from the
    multiplier candidate mu_bar of y."""
    return (omega_inner(spec.mesh, mu_bar.values, mu_bar.values)
            - omega_inner(spec.mesh, mu.values, mu.values)) / (2.0 * rho)


def cost_J(spec, y, u, v=None):
    """Tracking objective; v=None counts as a zero boundary control."""
    e = y.values[-1] - spec.y_d
    return 0.5 * float(np.sum(spec.mesh.w_space * e * e)) + _control_cost(spec, u, v)


def augmented_lagrangian(spec, y, u, v, mu, rho):
    """J plus the quadratic state-constraint penalty at multiplier mu."""
    if rho <= 0:
        raise ValueError(f"penalty parameter must be positive, got rho={rho}")
    if np.any(mu.values < 0):
        raise ValueError("multiplier estimate must be nonnegative")
    return cost_J(spec, y, u, v) + _penalty(spec, multiplier_candidate(y, spec.psi, mu, rho),
                                            mu, rho)


def multiplier_candidate(y, psi, mu, rho):
    """(rho (y - psi) + mu)_+ on m = 1..nt, the post-solve multiplier update.

    It is zero on m = 0: the initial slice is data, not an unknown, so it
    carries no multiplier.
    """
    values = np.maximum(rho * (y.values - psi.values) + mu.values, 0.0)
    values[0] = 0.0
    return TimeField(y.mesh, values)


def _feasibility(y, psi):
    """max over m = 1..nt of (y - psi)_+."""
    return max(float(np.max(y.values[1:] - psi.values[1:])), 0.0)


def _complementarity(y, psi, mu_bar):
    """| integral mu_bar (psi - y) | over m = 1..nt."""
    return abs(omega_inner(y.mesh, mu_bar.values, psi.values - y.values))


def residual_index(y, psi, mu_bar):
    """Feasibility sup norm plus the complementarity integral.

    R = ||(y - psi)_+||_inf + | integral mu_bar (psi - y) | over m = 1..nt;
    zero exactly when the grid state is feasible and complementary with
    mu_bar.
    """
    return _feasibility(y, psi) + _complementarity(y, psi, mu_bar)


@dataclass
class KktResiduals:
    stationarity_u: float
    stationarity_v: float
    feasibility: float
    complementarity: float


def kkt_residuals(spec, y, u, v, p, mu_bar):
    """Residuals of the original first-order optimality system.

    Stationarity is the L2 norm over m = 1..nt of the projection fixed-point
    residual u - clip(-p / alpha); feasibility and complementarity restate
    the two summands of the residual index.
    """
    mesh, b = spec.mesh, spec.bounds
    du = u.values - np.clip(-p.values / spec.alpha, b.ua.values, b.ub.values)
    stat_u = np.sqrt(omega_inner(mesh, du, du))
    if spec.boundary_control_enabled and v is not None:
        pb = extract_boundary(p).values
        dv = v.values - np.clip(-pb / spec.beta, b.va.values, b.vb.values)
        stat_v = np.sqrt(sigma_inner(mesh, dv, dv))
    else:
        stat_v = 0.0
    return KktResiduals(stat_u, stat_v, _feasibility(y, spec.psi),
                        _complementarity(y, spec.psi, mu_bar))


def subproblem_objective(spec, rho, mu, u, v=None, y=None, mu_bar=None):
    """The discrete functional minimized by the inner solvers.

    It is L_rho, with its right-endpoint rule over m = 1..nt for the control
    costs and the penalty, but with the terminal mismatch e measured in the
    (M + dt A) inner product instead of M.  With these choices the backward
    sweep of `solve_adjoint` (terminal slice e + dt K^{-1} M mu_bar_nt,
    source mu_bar) yields the exact gradient dt * M (alpha u_m + p_m) for
    m = 1..nt, which is what makes the pointwise clamp -p/alpha an exact
    stationarity condition.  y and mu_bar, the state and multiplier
    candidate of the controls, are computed when not given.
    """
    op = spec.operator()
    if y is None:
        y = solve_forward(spec.mesh, op, u, v, spec.y0)
    if mu_bar is None:
        mu_bar = multiplier_candidate(y, spec.psi, mu, rho)
    e = y.values[-1] - spec.y_d
    val = 0.5 * float(np.sum(spec.mesh.w_space * e * e)) + 0.5 * spec.mesh.dt * float(
        np.sum(e * op.apply(e)))
    return val + _control_cost(spec, u, v) + _penalty(spec, mu_bar, mu, rho)
