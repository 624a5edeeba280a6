"""Independent verification oracles.

These checks anchor the main build against routes that do not share its
numerics: separation-of-variables decay solutions for the time stepper,
central finite differences for the adjoint gradient, projected gradient
descent with a dense inverse of the step matrix for the sub-problem solver,
and brute-force interval search for the pointwise Hamiltonian argmin that
the inner solver's clamp computes.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import (TimeField, IntervalField, BoundaryTimeField, ControlBounds,
                   build_mesh, l2_norm_omega_t, space_slice_from_function)
from .operators import DiffusionCoefficients, assemble_operator
from .cost import ProblemSpec, multiplier_candidate, subproblem_objective
from .solvers import solve_forward, solve_adjoint
from .msa import MsaConfig, msa_solve, _damped_clamp
from .presets import build_paper_example_sec5

ORACLE_GRID_LIMIT = (9, 9, 8)
# largest control move of a projected-gradient oracle step that ends its descent
ORACLE_STALL_STEP = 1e-13


@dataclass
class OracleReport:
    name: str
    error: float
    tolerance: float
    passed: bool = field(init=False)
    context: dict = field(default_factory=dict)

    def __post_init__(self):
        self.passed = bool(self.error <= self.tolerance)


# --------------------------------------------------------------------------
# analytic decay of Neumann cosine modes
# --------------------------------------------------------------------------

def analytic_decay_oracle(mesh, mode="x", tol_constant=2.0):
    """Forward solver vs. exp(-k pi^2 t) times a cosine mode on the unit square.

    Sampled cosine modes are exact eigenvectors of the discrete Neumann
    operator, so the measured error is pure time-stepping plus eigenvalue
    error, which scales like dt + hx^2.  The tolerance constant was fixed at
    2 for the single mode (4 for the faster two-dimensional mode) by a
    refinement study; see tests for the frozen numbers.
    """
    if abs(mesh.lx - 1.0) > 1e-14 or abs(mesh.ly - 1.0) > 1e-14:
        raise ValueError("analytic decay oracle expects the unit square")
    if mode == "x":
        y0 = space_slice_from_function(mesh, lambda x, y: np.cos(np.pi * x) + 0.0 * y)
        rate = np.pi ** 2
        exact_fn = lambda x, y, t: np.exp(-rate * t) * np.cos(np.pi * x) + 0.0 * y
        constant = tol_constant
    elif mode == "xy":
        y0 = space_slice_from_function(mesh, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
        rate = 2.0 * np.pi ** 2
        exact_fn = lambda x, y, t: np.exp(-rate * t) * np.cos(np.pi * x) * np.cos(np.pi * y)
        constant = 2.0 * tol_constant
    else:
        raise ValueError(f"unknown decay mode {mode!r}")
    op = assemble_operator(DiffusionCoefficients.unit(mesh))
    y = solve_forward(mesh, op, IntervalField.zeros(mesh), None, y0)
    exact = TimeField.from_function(mesh, exact_fn)
    diff = TimeField(mesh, y.values - exact.values)
    err = l2_norm_omega_t(diff) / l2_norm_omega_t(exact)
    tol = constant * (mesh.dt + mesh.hx ** 2)
    return OracleReport(name=f"decay_{mode}", error=err, tolerance=tol,
                        context={"nx": mesh.nx, "ny": mesh.ny, "nt": mesh.nt, "T": mesh.T})


def decay_refinement_oracle(coarse=(33, 33, 64), fine=(65, 65, 256), T=0.1):
    """Error ratio fine/coarse for the x-mode; must drop under refinement."""
    rc = analytic_decay_oracle(build_mesh(*coarse, 1.0, 1.0, T))
    rf = analytic_decay_oracle(build_mesh(*fine, 1.0, 1.0, T))
    ratio = rf.error / rc.error
    return OracleReport(name="decay_x_refinement", error=ratio, tolerance=0.6,
                        context={"coarse_error": rc.error, "fine_error": rf.error})


# --------------------------------------------------------------------------
# adjoint gradient vs. central finite differences
# --------------------------------------------------------------------------

def _random_instance(rng, mesh):
    """A random well-scaled problem with smooth fields and loose bounds."""
    coeffs = DiffusionCoefficients.unit(mesh)
    y0 = space_slice_from_function(
        mesh, lambda x, y: rng.uniform(-1, 1) * np.sin(np.pi * x) * np.sin(np.pi * y)
        + rng.uniform(-0.5, 0.5))
    y_d = space_slice_from_function(
        mesh, lambda x, y: rng.uniform(-1, 1) * np.cos(np.pi * x) + 0.0 * y)
    psi_level = rng.uniform(0.2, 1.5)
    psi = TimeField.constant(mesh, psi_level)
    bounds = ControlBounds.constant(mesh, ua=-2.0, ub=2.0, va=-2.0, vb=2.0)
    # the initial state must be compatible with the obstacle
    return ProblemSpec(mesh, coeffs, np.minimum(y0, psi_level), y_d, psi,
                       alpha=rng.uniform(0.5, 2.0), beta=1.0, bounds=bounds,
                       boundary_control_enabled=False)


def adjoint_identity_check(spec=None, seed=0, fd_step=1e-5, kink_margin=1e-3):
    """Directional derivative of the sub-problem objective via the backward
    sweep vs. central finite differences for a random control perturbation.

    Instances whose penalty argument rho (y - psi) + mu comes within
    kink_margin of the positive-part kink on a penalized slice (m = 1..nt)
    are resampled, since the finite difference straddles the curvature jump
    there.
    """
    rng = np.random.default_rng(seed)
    mesh = spec.mesh if spec is not None else build_mesh(6, 5, 5, 1.0, 1.0, 0.5)
    for _ in range(100):
        inst = spec if spec is not None else _random_instance(rng, mesh)
        rho = rng.uniform(0.5, 8.0)
        mu, u, du = (IntervalField(mesh, rng.uniform(lo, hi, size=IntervalField.shape(mesh)))
                     for lo, hi in ((0.0, 2.0), (-0.5, 0.5), (-1.0, 1.0)))
        op = inst.operator()
        y = solve_forward(mesh, op, u, None, inst.y0)
        arg = rho * (y.values[1:] - inst.psi.values[1:]) + mu.values
        if np.min(np.abs(arg)) < kink_margin:
            continue
        mu_bar = multiplier_candidate(y, inst.psi, mu, rho)
        p = solve_adjoint(mesh, op, mu_bar, y.values[-1] - inst.y_d)
        grad = mesh.dt * mesh.w_space[None, :, :] * (inst.alpha * u.values + p.values)
        adj_dir = float(np.sum(grad * du.values))

        def f_at(s):
            us = IntervalField(mesh, u.values + s * du.values)
            return subproblem_objective(inst, rho, mu, us)

        fd_dir = (f_at(fd_step) - f_at(-fd_step)) / (2.0 * fd_step)
        denom = max(abs(adj_dir), abs(fd_dir), 1e-12)
        err = abs(adj_dir - fd_dir) / denom
        return OracleReport(name="adjoint_identity", error=err, tolerance=1e-6,
                            context={"seed": seed, "rho": rho,
                                     "min_kink_distance": float(np.min(np.abs(arg)))})
    raise RuntimeError("could not sample a kink-avoiding instance")


def adjoint_identity_sweep(n_seeds=20, seed0=0):
    errs = []
    for s in range(seed0, seed0 + n_seeds):
        errs.append(adjoint_identity_check(seed=s).error)
    return OracleReport(name="adjoint_identity", error=float(np.max(errs)),
                        tolerance=1e-6, context={"seeds": n_seeds, "seed0": seed0})


# --------------------------------------------------------------------------
# dense projected-gradient solver for the sub-problem
# --------------------------------------------------------------------------

def projected_gradient_oracle(spec, rho, mu, iters=100000, lr=1e-3):
    """Minimize the sub-problem objective by dense projected gradient descent.

    Steps with its own dense inverse of M + dt A, from the dense assembly
    `DiscreteOperator.matrix`, and plain pointwise gradient steps
    u <- clip(u - lr (alpha u + p)), so it shares none of the stencil, the
    step paths (banded factor or separable basis) and the update rule with
    msa_solve.  The problem is
    written out here again: the unknowns are the controls on m = 1..nt
    (row m - 1), the penalty charges the states y_1..y_nt with the
    right-endpoint rule, and the adjoint's terminal slice
    carries that penalty's last-slice term, p_nt = e + dt K^{-1} M mu_bar_nt.
    Stops after `iters` steps, or earlier once no control moves by more than
    ORACLE_STALL_STEP in a step.  Restricted to small grids.  Returns
    (u, v, cost) with cost the sub-problem objective.
    """
    mesh = spec.mesh
    if (mesh.nx > ORACLE_GRID_LIMIT[0] or mesh.ny > ORACLE_GRID_LIMIT[1]
            or mesh.nt > ORACLE_GRID_LIMIT[2]):
        raise ValueError(f"oracle restricted to grids <= {ORACLE_GRID_LIMIT}, "
                         f"got {(mesh.nx, mesh.ny, mesh.nt)}")
    op = spec.operator()
    n = mesh.nx * mesh.ny
    A = op.matrix
    mass = mesh.w_space.ravel()
    # K^{-1} for K = M + dt A, formed once by numpy's dense LU
    K_inv = np.linalg.inv(np.diag(mass) + mesh.dt * A)
    dt = mesh.dt
    b = spec.bounds
    with_v = spec.boundary_control_enabled
    bidx = mesh.boundary_j * mesh.nx + mesh.boundary_i

    psi = spec.psi.values.reshape(mesh.nt + 1, n)
    mu_flat = mu.values.reshape(mesh.nt, n)
    ua, ub = b.ua.values.reshape(-1, n), b.ub.values.reshape(-1, n)
    va, vb = b.va.values, b.vb.values
    y0 = spec.y0.ravel()
    yd = spec.y_d.ravel()

    # np.clip, not the solver's grid.clamp, on purpose: the oracle projects
    # by an implementation of its own
    u = np.clip(np.zeros((mesh.nt, n)), ua, ub)
    v = np.clip(np.zeros((mesh.nt, mesh.n_boundary)), va, vb)

    def forward(u, v):
        y = np.empty((mesh.nt + 1, n))
        y[0] = y0
        for m in range(1, mesh.nt + 1):
            rhs = mass * (y[m - 1] + dt * u[m - 1])
            if with_v:
                load = np.zeros(n)
                load[bidx] = mesh.w_arc * v[m - 1]
                rhs += dt * load
            y[m] = K_inv @ rhs
        return y

    def adjoint(y):
        """p on m = 1..nt (row m - 1)."""
        mb = np.maximum(rho * (y[1:] - psi[1:]) + mu_flat, 0.0)
        p = np.empty((mesh.nt, n))
        p[-1] = y[mesh.nt] - yd + dt * (K_inv @ (mass * mb[-1]))
        for m in range(mesh.nt - 2, -1, -1):
            p[m] = K_inv @ (mass * (p[m + 1] + dt * mb[m]))
        return p

    for _ in range(iters):
        p = adjoint(forward(u, v))
        u_old = u
        u = np.clip(u - lr * (spec.alpha * u + p), ua, ub)
        move = np.max(np.abs(u - u_old))
        if with_v:
            v_old = v
            v = np.clip(v - lr * (spec.beta * v + p[:, bidx]), va, vb)
            move = max(move, np.max(np.abs(v - v_old)))
        if move <= ORACLE_STALL_STEP:
            break

    u_field = IntervalField(mesh, u.reshape(mesh.nt, mesh.ny, mesh.nx))
    v_field = BoundaryTimeField(mesh, v)
    y = forward(u, v)
    e = y[mesh.nt] - yd
    cost = 0.5 * float(e @ (mass * e)) + 0.5 * dt * float(e @ (A @ e))
    cost += 0.5 * spec.alpha * dt * float(np.sum(u ** 2 * mass[None, :]))
    if with_v:
        cost += 0.5 * spec.beta * dt * float(np.sum(v ** 2 * mesh.w_arc[None, :]))
    shifted = np.maximum(rho * (y[1:] - psi[1:]) + mu_flat, 0.0)
    cost += dt / (2.0 * rho) * float(np.sum((shifted ** 2 - mu_flat ** 2) * mass[None, :]))
    return u_field, v_field, cost


def control_distance(mesh, u, w):
    """L2 distance of two distributed controls, right-endpoint rule in time."""
    d = u.values - w.values
    return float(np.sqrt(mesh.dt * np.sum(d * d * mesh.w_space)))


def msa_vs_gradient_oracle(rho=1.0, mu_const=10.0, iters=100000, lr=1e-3):
    """Control agreement between msa_solve and the dense oracle on the
    built-in obstacle example (5x5 nodes, 4 steps)."""
    mesh = build_mesh(5, 5, 4, 1.0, 1.0, 1.0)
    spec = build_paper_example_sec5(mesh)
    mu = IntervalField.constant(mesh, mu_const)
    cfg = MsaConfig(eps1=1e-9, max_inner=300)
    res = msa_solve(spec, rho, mu, config=cfg)
    u_o, _, cost_o = projected_gradient_oracle(spec, rho, mu, iters=iters, lr=lr)
    err = control_distance(mesh, res.u, u_o)
    cost_m = subproblem_objective(spec, rho, mu, res.u, y=res.y)
    return OracleReport(name=f"msa_vs_gradient_oracle_rho{rho:g}", error=err,
                        tolerance=1e-3,
                        context={"rho": rho, "mu": mu_const,
                                 "msa_cost": cost_m, "oracle_cost": cost_o,
                                 "cost_excess": cost_m - cost_o,
                                 "msa_iters": res.inner_iters})


# --------------------------------------------------------------------------
# brute-force Hamiltonian argmin
# --------------------------------------------------------------------------

def argmin_bruteforce_check(seed=0, n_tuples=1000, resolution=1e-4):
    """Grid-search the scalar Hamiltonian alpha/2 u^2 + p u over the control
    interval and compare with the clamp the inner solver steps with,
    `msa._damped_clamp` at theta = 1.  Tuple k fills the column i = k of
    the one slice of a one-step mesh."""
    rng = np.random.default_rng(seed)
    draws = np.empty((4, n_tuples))
    u_brute = np.empty(n_tuples)
    for k in range(n_tuples):
        p = rng.uniform(-3.0, 3.0)
        alpha = rng.uniform(0.1, 10.0)
        lo = rng.uniform(-2.0, -0.01)
        hi = rng.uniform(0.01, 2.0)
        draws[:, k] = p, alpha, lo, hi
        npts = int(round((hi - lo) / resolution)) + 1
        grid = np.linspace(lo, hi, npts)
        H = 0.5 * alpha * grid * grid + p * grid
        u_brute[k] = grid[int(np.argmin(H))]
    mesh = build_mesh(n_tuples, 3, 1, 1.0, 1.0, 1.0)
    p, alpha, lo, hi = (np.broadcast_to(d, IntervalField.shape(mesh)) for d in draws)
    u_clamp = _damped_clamp(IntervalField.zeros(mesh), p / -alpha, IntervalField(mesh, lo),
                            IntervalField(mesh, hi), theta=1.0)
    worst = float(np.max(np.abs(u_brute - u_clamp.values[0, 0])))
    return OracleReport(name="argmin_bruteforce", error=worst, tolerance=1e-4,
                        context={"tuples": n_tuples, "seed": seed})


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

ORACLE_CHECKS = {
    "decay_x": lambda: analytic_decay_oracle(build_mesh(33, 33, 64, 1.0, 1.0, 0.1)),
    "decay_x_refinement": decay_refinement_oracle,
    "decay_xy": lambda: analytic_decay_oracle(build_mesh(33, 33, 64, 1.0, 1.0, 0.1), mode="xy"),
    "adjoint_identity": adjoint_identity_sweep,
    "argmin_bruteforce": argmin_bruteforce_check,
    "msa_vs_gradient_oracle": msa_vs_gradient_oracle,
}


def run_checks(names=None):
    """Run the named oracles (all by default); returns a list of reports."""
    if names is None:
        names = list(ORACLE_CHECKS)
    reports = []
    for name in names:
        if name not in ORACLE_CHECKS:
            raise ValueError(f"unknown check {name!r}; available: {sorted(ORACLE_CHECKS)}")
        reports.append(ORACLE_CHECKS[name]())
    return reports
