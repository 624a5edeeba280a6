"""Implicit-Euler marching for the forward state and backward adjoint equations.

Forward step m (m = 1..nt):

    (M + dt A) y_m = M y_{m-1} + dt M u_m + dt B v_m

where M is the diagonal trapezoidal mass matrix, A the flux stencil and B
scatters the boundary control with arc-length weights (the natural flux
load of the finite-volume closure).  The backward sweep transposes the same
propagator:

    p_nt = terminal,   (M + dt A) p_m = M p_{m+1} + dt M mu_m,  m = nt-1..0.

Each step is an SPD solve with the operator's cached banded Cholesky factor
of M + dt A, taken in defect-correction form from the neighboring time slice
x_prev:

    x = x_prev + (M + dt A)^{-1} (rhs - (M + dt A) x_prev).

A plain solve of rhs leaves a constant state off by rounding (about 1e-15).
In this form a steady slice has an exactly zero defect, so constant states
are preserved exactly.  The sweeps take M + dt A from the operator, so it
must have been assembled on the sweep's mesh.
"""

import numpy as np

from .grid import TimeField


def _step(op, rhs, prev):
    return prev + op.step_solve(rhs - op.step_apply(prev))


def _boundary_load(mesh, v_slice):
    load = np.zeros(mesh.shape_space)
    load[mesh.boundary_j, mesh.boundary_i] = mesh.w_arc * v_slice
    return load


def solve_forward(mesh, op, u, v, y0):
    """March the state equation forward from the initial slice y0.

    u is a TimeField source, v an optional BoundaryTimeField flux (None means
    homogeneous Neumann), y0 a (ny, nx) array.  Returns the state TimeField.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.shape != mesh.shape_space:
        raise ValueError(f"initial slice shape {y0.shape} != {mesh.shape_space}")
    if not op.mesh.compatible(mesh):
        raise ValueError("operator was assembled on a different mesh")
    mass = mesh.w_space
    dt = mesh.dt
    y = np.empty((mesh.nt + 1, mesh.ny, mesh.nx))
    y[0] = y0
    for m in range(1, mesh.nt + 1):
        rhs = mass * (y[m - 1] + dt * u.values[m])
        if v is not None:
            rhs += dt * _boundary_load(mesh, v.values[m])
        y[m] = _step(op, rhs, y[m - 1])
    return TimeField(mesh, y)


def solve_adjoint(mesh, op, mu, terminal):
    """March the adjoint equation backward from the assigned terminal slice.

    mu is the TimeField source (the multiplier candidate) and terminal a
    (ny, nx) array; the boundary closure is homogeneous.
    """
    terminal = np.asarray(terminal, dtype=np.float64)
    if terminal.shape != mesh.shape_space:
        raise ValueError(f"terminal slice shape {terminal.shape} != {mesh.shape_space}")
    if not op.mesh.compatible(mesh):
        raise ValueError("operator was assembled on a different mesh")
    mass = mesh.w_space
    dt = mesh.dt
    p = np.empty((mesh.nt + 1, mesh.ny, mesh.nx))
    p[mesh.nt] = terminal
    for m in range(mesh.nt - 1, -1, -1):
        rhs = mass * (p[m + 1] + dt * mu.values[m])
        p[m] = _step(op, rhs, p[m + 1])
    return TimeField(mesh, p)
