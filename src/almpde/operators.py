"""Finite-volume assembly of the diagonal-coefficient elliptic operator.

The operator -d/dx(a11 dy/dx) - d/dy(a22 dy/dy) with natural (Neumann) flux
boundary conditions is discretized on the vertex-centered grid by integrating
fluxes over the dual cells: full cells at interior nodes, half cells along
edges, quarter cells at corners.  This yields a symmetric positive
semidefinite stiffness matrix A with zero row sums, paired with the diagonal
mass matrix of the trapezoidal space weights.

A is applied in difference form (`FluxStencil`): every flux is an edge
conductance times the difference of the two nodal values it joins, so a
constant slice gives exactly zero, for any coefficients.  A matrix-form
product (banded BLAS, the dense `matrix`) sums products of the matrix
entries instead and leaves rounding of about 1e-15 on such a slice.

Every implicit-Euler step solves with the same SPD matrix M + dt A.  In
row-major node order its nonzeros lie on the diagonal, one row below it
(x-coupling) and nx rows below it (y-coupling), so it is held as a banded
Cholesky factor.  The factor is computed once, as L in the lower band
layout (LAPACK `pbtrf` with uplo = L, `lapack.pbtrf_lower`; factoring in
the upper layout took 6.3 ms against 5.2 ms with the copy at 65x65), and
stored as its transpose U = L^T in LAPACK's upper band layout (Anderson
et al., LAPACK Users' Guide, 3rd ed., SIAM 1999, Sec. 5.3.3).  A solve
with it (LAPACK `pbtrs`) is then two banded triangular solves (`tbsv`)
with U^T and U.  The lower layout needs L and L^T instead, and OpenBLAS's
lower-transposed `tbsv` is about twice as slow as the other three
variants: 29.5 us against 12.7-14.1 us at 33x33 (one thread, OpenBLAS
0.3.31, Xeon), so a whole solve takes 26 us instead of 42 us.  The stored band is Fortran-ordered, as LAPACK takes it.

A sweep applies dt A once, to its starting slice, and takes every step with
the factor and the mass M alone (see `solvers`).  The DiscreteOperator
holds all a sweep reads.  The dt-scaled stencil, the dt-weighted mass and
arc weights the sweeps form their loads with and the flat mass M their
steps carry the deviation with are built with it (10-15 us at 5x5-33x33).
The factor and the argument block its solves are called with are built on
its first sweep and reused for every later one, so that setting up a
problem does not factor: at 33x33 the factorization (0.6-0.8 ms) would
nearly double the boundary demo's set-up.

An operator depends only on the mesh and the coefficients, so each
DiffusionCoefficients object assembles it once (`operator`): every problem
built on that object shares the operator, its factor included.
"""

from functools import cached_property

import numpy as np

from .lapack import pbtrf_lower, pbtrs_block


class DiffusionCoefficients:
    """Nodal diagonal diffusion tensor, checked to be uniformly elliptic."""

    def __init__(self, mesh, a11, a22):
        self.mesh = mesh
        self.a11 = np.array(np.broadcast_to(np.asarray(a11, dtype=np.float64),
                                            mesh.shape_space))
        self.a22 = np.array(np.broadcast_to(np.asarray(a22, dtype=np.float64),
                                            mesh.shape_space))
        if not (np.isfinite(self.a11).all() and np.isfinite(self.a22).all()):
            raise ValueError("coefficients must be finite")
        theta = min(self.a11.min(), self.a22.min())
        if theta <= 0.0:
            raise ValueError(f"coefficients must be uniformly elliptic, min = {theta}")
        self.a11.flags.writeable = False
        self.a22.flags.writeable = False
        self._operator = None

    @classmethod
    def unit(cls, mesh):
        """Constant-Laplacian preset a11 = a22 = 1."""
        return cls(mesh, 1.0, 1.0)

    def operator(self):
        """The DiscreteOperator of these coefficients on their own mesh.

        It is assembled on the first call and returned by every later one.
        """
        if self._operator is None:
            self._operator = assemble_operator(self)
        return self._operator


class FluxStencil:
    """The 5-point flux stencil on flattened slices, in difference form.

    Nodes are numbered row-major, k = j nx + i.  x-edges join k to k + 1, with
    a zero conductance at the end of each row, and y-edges join k to k + nx.
    The conductances are multiplied by `scale` (dt for the implicit-Euler
    step).  The fluxes of a slice x go into zero-padded buffers,

        q[k + 1]  = gx[k] (x[k + 1] - x[k]),    q[0] = q[n] = 0,
        p[k + nx] = gy[k] (x[k + nx] - x[k]),   p zero in its first and last nx,

    and A x = (q[:n] - q[1:]) + (p[:n] - p[nx:]).  Only the interior of the
    buffers is ever written, so their padding stays zero between calls.
    """

    def __init__(self, cx, cy, scale=1.0):
        ny, nx = cy.shape[0] + 1, cy.shape[1]
        n = nx * ny
        self.nx = nx
        gx = np.zeros((ny, nx))
        gx[:, :-1] = scale * cx
        self.gx = gx.ravel()[:-1]
        self.gy = scale * cy.ravel()
        self._q = np.zeros(n + 1)
        self._p = np.zeros(n + nx)
        # views made once: slicing per call raised paper_sec5's solve_ref
        # 0.318 -> 0.330 (+3.8%, higher in 9 of 10 pairs, BENCH_ablation.json)
        self._q_edges, self._q_out, self._q_in = self._q[1:n], self._q[:n], self._q[1:]
        self._p_edges, self._p_out, self._p_in = self._p[nx:n], self._p[:n], self._p[nx:]
        self._p_diff = np.empty(n)

    def apply(self, x, out):
        """Write A x into out, for a flat slice x of length n."""
        nx = self.nx
        np.subtract(x[1:], x[:-1], out=self._q_edges)
        self._q_edges *= self.gx
        np.subtract(x[nx:], x[:-nx], out=self._p_edges)
        self._p_edges *= self.gy
        np.subtract(self._q_out, self._q_in, out=out)
        np.subtract(self._p_out, self._p_in, out=self._p_diff)
        out += self._p_diff
        return out


class DiscreteOperator:
    """5-point flux stencil with Neumann closure, and what the implicit-Euler
    sweeps step with.

    Built with the operator, from the edge conductances cx, cy: `stencil`,
    the dt-scaled FluxStencil, applied once per sweep to its starting slice
    (or once per problem to y0, `solvers.start_term`); `load_mass`
    (ny, nx) and `load_arc` (n_boundary,), dt M and dt W, the weights that
    turn a control into its load; and `flat_mass` (n,), M in node order,
    which each step multiplies the previous deviation from the starting
    slice by.

    Built on the first use and kept (`functools.cached_property`): `factor`,
    the Cholesky factor U of M + dt A = U^T U in LAPACK's upper band layout,
    Fortran-ordered (row nx - d holds the entries d places above the
    diagonal, so column j holds U[j - nx : j + 1, j]); `solve`, the argument
    block of `lapack.pbtrs` with that factor; and `matrix`, A as a dense
    array, for whole-matrix checks.
    """

    def __init__(self, mesh, cx, cy):
        self.mesh = mesh
        self.cx = cx
        self.cy = cy
        for arr in (self.cx, self.cy):
            arr.flags.writeable = False
        dt = mesh.dt
        self.stencil = FluxStencil(cx, cy, dt)
        self.load_mass = dt * mesh.w_space
        self.load_arc = dt * mesh.w_arc
        self.flat_mass = mesh.w_space.ravel()

    @cached_property
    def factor(self):
        return _upper_layout(pbtrf_lower(self._step_band()))

    @cached_property
    def solve(self):
        return pbtrs_block(self.factor)

    def _step_band(self):
        """Lower band of M + dt A in the layout of `lapack.pbtrf_lower`.

        Row d holds the entries d places below the diagonal: row 0 the
        diagonal, row 1 the x-coupling of node k to k + 1, row nx the
        y-coupling of node k to k + nx, in row-major node order.  The band
        is Fortran-ordered, so `pbtrf` factors it in place, with no copy.
        """
        nx, ny, dt = self.mesh.nx, self.mesh.ny, self.mesh.dt
        degree = np.zeros((ny, nx))
        degree[:, :-1] += self.cx
        degree[:, 1:] += self.cx
        degree[:-1, :] += self.cy
        degree[1:, :] += self.cy
        band = np.zeros((nx + 1, nx * ny), order="F")
        band[0] = (self.mesh.w_space + dt * degree).ravel()
        band[1].reshape(ny, nx)[:, :-1] = -dt * self.cx
        band[nx, :nx * (ny - 1)] = -dt * self.cy.ravel()
        return band

    @cached_property
    def matrix(self):
        """A as a dense (n, n) array, summed edge by edge from cx and cy.

        Each edge of conductance c between nodes k and l adds c to A[k, k]
        and A[l, l] and puts -c at A[k, l] and A[l, k].  Within one edge
        direction no node appears twice on one side, so each fancy-indexed
        `+=` below adds every edge: one with a repeated index would drop
        all but one of its terms.
        """
        nx, ny = self.mesh.nx, self.mesh.ny
        idx = np.arange(nx * ny).reshape(ny, nx)
        A = np.zeros((nx * ny, nx * ny))
        for k, l, c in ((idx[:, :-1], idx[:, 1:], self.cx),
                        (idx[:-1, :], idx[1:, :], self.cy)):
            A[k, l] = A[l, k] = -c
            A[k, k] += c
            A[l, l] += c
        return A


def _upper_layout(lower):
    """The transpose of a lower band factor, in the upper band layout.

    `lower` (u + 1, n) holds L[k + d, k] at [d, k]; the result holds
    U[k, k + d] = L[k + d, k] at [u - d, k + d], Fortran-ordered, and zeros
    in the unused corner.  In column-major order that target is the flat
    index (u + 1) k + u d + u, so one strided view of a zero buffer takes the
    whole band in one copy.  The buffer has u padding columns for the unused
    tail of `lower`'s rows, cut off by the returned view.
    """
    u, n = lower.shape[0] - 1, lower.shape[1]
    buf = np.zeros((n + u) * (u + 1))
    item = buf.itemsize
    np.lib.stride_tricks.as_strided(buf[u:], shape=lower.shape,
                                    strides=(u * item, (u + 1) * item))[...] = lower
    return buf.reshape(n + u, u + 1).T[:, :n]


def assemble_operator(coeffs):
    """Build the DiscreteOperator of the coefficients, on their mesh.

    Edge conductances combine the arithmetic mean of the nodal coefficient
    with the transverse dual-cell width (halved along the boundary rows and
    columns), divided by the edge length.
    """
    mesh = coeffs.mesh
    nx, ny, hx, hy = mesh.nx, mesh.ny, mesh.hx, mesh.hy
    wx = np.ones(nx)
    wx[0] = wx[-1] = 0.5
    wy = np.ones(ny)
    wy[0] = wy[-1] = 0.5
    a11_edge = 0.5 * (coeffs.a11[:, :-1] + coeffs.a11[:, 1:])
    a22_edge = 0.5 * (coeffs.a22[:-1, :] + coeffs.a22[1:, :])
    cx = a11_edge * (hy * wy[:, None]) / hx   # (ny, nx-1)
    cy = a22_edge * (hx * wx[None, :]) / hy   # (ny-1, nx)
    return DiscreteOperator(mesh, cx, cy)

