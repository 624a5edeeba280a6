"""Finite-volume assembly of the diagonal-coefficient elliptic operator.

The operator -d/dx(a11 dy/dx) - d/dy(a22 dy/dy) with natural (Neumann) flux
boundary conditions is discretized on the vertex-centered grid by integrating
fluxes over the dual cells: full cells at interior nodes, half cells along
edges, quarter cells at corners.  This yields a symmetric positive
semidefinite stiffness matrix A with zero row sums, paired with the diagonal
mass matrix of the trapezoidal space weights.

Every implicit-Euler step solves with the same SPD matrix M + dt A.  In
row-major node order its nonzeros lie on the diagonal, one row below it
(x-coupling) and nx rows below it (y-coupling), so it is held as a banded
Cholesky factor, built on the first solve and reused for every later one.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded, get_lapack_funcs

# LAPACK's banded triangular solve, fetched once: scipy's cho_solve_banded
# wrapper costs about ten times the solve itself on the small grids.
_pbtrs = get_lapack_funcs("pbtrs", dtype=np.float64)


class DiffusionCoefficients:
    """Nodal diagonal diffusion tensor with a stored ellipticity constant."""

    def __init__(self, mesh, a11, a22):
        self.mesh = mesh
        self.a11 = np.array(np.broadcast_to(np.asarray(a11, dtype=np.float64),
                                            mesh.shape_space))
        self.a22 = np.array(np.broadcast_to(np.asarray(a22, dtype=np.float64),
                                            mesh.shape_space))
        theta = min(self.a11.min(), self.a22.min())
        if not np.isfinite(theta) or theta <= 0.0:
            raise ValueError(f"coefficients must be uniformly elliptic, min = {theta}")
        self.theta = float(theta)
        self.a11.flags.writeable = False
        self.a22.flags.writeable = False

    @classmethod
    def unit(cls, mesh):
        """Constant-Laplacian preset a11 = a22 = 1."""
        return cls(mesh, 1.0, 1.0)


class DiscreteOperator:
    """5-point flux stencil with Neumann closure.

    Holds the edge conductances of the stencil, the diagonal mass weights,
    and two lazily built companions: the banded Cholesky factor of the step
    matrix M + dt A, and a CSR copy of A for whole-matrix checks.
    """

    def __init__(self, mesh, coeffs, cx, cy):
        self.mesh = mesh
        self.coeffs = coeffs
        self.cx = cx
        self.cy = cy
        self.mass = mesh.w_space
        self.inv_mass = 1.0 / mesh.w_space
        self.inv_mass.flags.writeable = False
        for arr in (self.cx, self.cy):
            arr.flags.writeable = False
        self._csr = None
        self._step_factor = None

    @property
    def n(self):
        return self.mesh.nx * self.mesh.ny

    def apply(self, f):
        """A f for one spatial slice f of shape (ny, nx)."""
        f = np.asarray(f, dtype=np.float64)
        out = np.zeros_like(f)
        fx = self.cx * (f[:, :-1] - f[:, 1:])
        out[:, :-1] += fx
        out[:, 1:] -= fx
        fy = self.cy * (f[:-1, :] - f[1:, :])
        out[:-1, :] += fy
        out[1:, :] -= fy
        return out

    def normalized_apply(self, f):
        """M^{-1} A f, the operator entering the implicit-Euler step."""
        return self.inv_mass * self.apply(f)

    def step_apply(self, f):
        """(M + dt A) f, the implicit-Euler step matrix applied to one slice."""
        return self.mass * f + self.mesh.dt * self.apply(f)

    def step_solve(self, b):
        """(M + dt A)^{-1} b for one slice b.

        The banded Cholesky factor is built on the first call and kept.
        """
        if self._step_factor is None:
            self._step_factor = cholesky_banded(self._step_band(), lower=True)
        x, info = _pbtrs(self._step_factor, np.ravel(b), lower=1)
        if info != 0:
            raise RuntimeError(f"LAPACK pbtrs failed with info = {info}")
        return x.reshape(self.mesh.shape_space)

    def _step_band(self):
        """Lower band of M + dt A in the layout of `cholesky_banded`.

        Row d holds the entries d places below the diagonal: row 0 the
        diagonal, row 1 the x-coupling of node k to k + 1, row nx the
        y-coupling of node k to k + nx, in row-major node order.
        """
        nx, ny, dt = self.mesh.nx, self.mesh.ny, self.mesh.dt
        degree = np.zeros((ny, nx))
        degree[:, :-1] += self.cx
        degree[:, 1:] += self.cx
        degree[:-1, :] += self.cy
        degree[1:, :] += self.cy
        band = np.zeros((nx + 1, nx * ny))
        band[0] = (self.mass + dt * degree).ravel()
        band[1].reshape(ny, nx)[:, :-1] = -dt * self.cx
        band[nx, :nx * (ny - 1)] = -dt * self.cy.ravel()
        return band

    def as_csr(self):
        if self._csr is None:
            self._csr = self._assemble_csr()
        return self._csr

    def _assemble_csr(self):
        nx, ny = self.mesh.nx, self.mesh.ny
        idx = np.arange(nx * ny).reshape(ny, nx)
        rows, cols, vals = [], [], []

        def add_edges(r1, r2, c):
            r1 = r1.ravel()
            r2 = r2.ravel()
            c = c.ravel()
            rows.extend([r1, r2, r1, r2])
            cols.extend([r2, r1, r1, r2])
            vals.extend([-c, -c, c, c])

        add_edges(idx[:, :-1], idx[:, 1:], self.cx)
        add_edges(idx[:-1, :], idx[1:, :], self.cy)
        A = sp.coo_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(nx * ny, nx * ny))
        return A.tocsr()


def assemble_operator(mesh, coeffs):
    """Build the DiscreteOperator for the given coefficients.

    Edge conductances combine the arithmetic mean of the nodal coefficient
    with the transverse dual-cell width (halved along the boundary rows and
    columns), divided by the edge length.
    """
    if not coeffs.mesh.compatible(mesh):
        raise ValueError("coefficient grid does not match mesh")
    if coeffs.theta <= 0.0:
        raise ValueError("coefficients are not elliptic")
    nx, ny, hx, hy = mesh.nx, mesh.ny, mesh.hx, mesh.hy
    wx = np.ones(nx)
    wx[0] = wx[-1] = 0.5
    wy = np.ones(ny)
    wy[0] = wy[-1] = 0.5
    a11_edge = 0.5 * (coeffs.a11[:, :-1] + coeffs.a11[:, 1:])
    a22_edge = 0.5 * (coeffs.a22[:-1, :] + coeffs.a22[1:, :])
    cx = a11_edge * (hy * wy[:, None]) / hx   # (ny, nx-1)
    cy = a22_edge * (hx * wx[None, :]) / hy   # (ny-1, nx)
    return DiscreteOperator(mesh, coeffs, cx, cy)
