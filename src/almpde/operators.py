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

Every implicit-Euler step solves with the same SPD matrix K = M + dt A.
The sweeps (`solvers`) form the sources and march the deviation from
their starting slice; an operator solves the deviation steps
(`DiscreteOperator.steps`), in one of two ways chosen when it is
assembled (`assemble_operator`) from the coefficients alone:

- **Separable** (`SeparableOperator`), when a11 and a22 are each constant
  on the mesh.  K is then a Kronecker sum, M = M_y (x) M_x and
  A = a11 M_y (x) K_x + a22 K_y (x) M_x, of 1-D trapezoidal masses and
  Neumann stiffnesses, and the 1-D generalized eigenvectors,
  K_x v = lambda M_x v, are the DCT-I cosines (fast diagonalization:
  Lynch, Rice & Thomas, Numer. Math. 6, 1964).  In closed form, with
  h = hx and n = nx,

      V_x[i, k] = c_k cos(pi k i / (n - 1)),
      lambda_k = (4 / h^2) sin^2(pi k / (2 (n - 1))),

  c_k = (h (n - 1))^(-1/2) for k = 0 and n - 1 and sqrt 2 times that
  otherwise, so that V_x^T M_x V_x = I; likewise along y.  With V = V_y (x)
  V_x, V^T K V = I + dt (a11 Lambda_x (+) a22 Lambda_y), so in the
  coordinates z = V zh each step is diagonal:

      zh_m = d * (zh_{m-1} + V^T s'_m),
      d = 1 / (1 + dt (a11 lambda_x (+) a22 lambda_y)),

  and a whole sweep is four GEMMs batched over its slices (V^T s' and
  V zh, each one product along x and one along y) around that recurrence.
  Steps whose rows share their source (a constant control or
  multiplier) transform each distinct slice once and make only the two
  GEMMs back.  Zero sources transform to exact zeros, so a constant slice
  stays bit-exact here too.
- **Banded** (`BandedOperator`), for every other problem: one banded
  Cholesky solve per step.

Where both apply, the separable sweep is the faster: a forward sweep took
0.25 ms against 1.0 ms for the banded steps at 33x33x32, and 2.9 ms against
10.2 ms at 65x65x64 (medians of `tools/layer_times.py`, one thread,
OpenBLAS 0.3.31, 2-core Xeon VM).  There is no option: the coefficients decide.

On the banded path, in row-major node order the nonzeros of K lie on the
diagonal, one row below it (x-coupling) and nx rows below it (y-coupling),
so it is held as a banded Cholesky factor.  The factor is computed once,
as L in the lower band layout (LAPACK `pbtrf` with uplo = L,
`lapack.pbtrf_lower`; factoring in the upper layout took 6.3 ms against
5.2 ms with the copy at 65x65), and stored as its transpose U = L^T in
LAPACK's upper band layout (Anderson et al., LAPACK Users' Guide, 3rd ed.,
SIAM 1999, Sec. 5.3.3).  A solve with it (LAPACK `pbtrs`) is then two
banded triangular solves (`tbsv`) with U^T and U.  The lower layout needs
L and L^T instead, and OpenBLAS's lower-transposed `tbsv` is about twice as
slow as the other three variants: 29.5 us against 12.7-14.1 us at 33x33
(one thread, OpenBLAS 0.3.31, Xeon), so a whole solve takes 26 us instead
of 42 us.  The stored band is Fortran-ordered, as LAPACK takes it.

The DiscreteOperator holds all a sweep reads: the dt-scaled stencil, the
load weights and the flat mass M, built with it (10-15 us at 5x5-33x33),
and what its path steps with, the banded factor or the separable basis,
built on its first sweep and kept, so that setting up a problem does not
factor: at 33x33 the factorization (0.6-0.8 ms) would nearly double the
boundary demo's set-up.

An operator depends only on the mesh and the coefficients, so each
DiffusionCoefficients object assembles it once (`operator`): every problem
built on that object shares the operator, its factor or basis included.
"""

from functools import cached_property

import numpy as np

from .lapack import address, pbtrf_lower, pbtrs, pbtrs_block


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
    """5-point flux stencil with Neumann closure, and the implicit-Euler
    steps over it.

    Built with the operator, from the edge conductances cx, cy: `stencil`,
    the dt-scaled FluxStencil, applied once per sweep to its starting slice
    (or once per problem to y0, `start_term`); `load_mass` (ny, nx) and
    `load_arc` (n_boundary,), dt M and dt W, the weights that turn a
    control into its load; and `flat_mass` (n,), M in node order.
    `matrix`, A as a dense array for whole-matrix checks, is built on its
    first use and kept (`functools.cached_property`).

    Each step path (`BandedOperator`, `SeparableOperator`) supplies its
    step data and `steps(z, reverse, shared)`, the deviation steps of a
    sweep (`solvers`).  z is (nt, n) and C-contiguous, and the steps run in
    place: on entry each row holds the source s' of a step, on exit its
    deviation z, K z = M z_prev + s' with z_prev the row stepped before it
    (zero for the first), from row 0 to row nt - 1, or the other way when
    reverse is true.  The rows 1 .. shared - 1 share row 0's source and
    hold nothing on entry.
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

    def start_term(self, x0):
        """dt A x0 of a slice x0, flattened: the term each step of a sweep
        starting from x0 subtracts from its source (module docstring of
        `solvers`).

        A caller that sweeps from one x0 again and again takes it once and
        hands it to the sweep; x0 must not change in between.  A problem
        takes it once for all its sub-problems (`cost.ProblemSpec.a_y0`).
        Applying the stencil in every forward sweep instead raised
        paper_sec5's solve_ref 0.323 -> 0.332 (+2.9%, higher in 9 of 10
        pairs, BENCH_ablation.json).
        """
        x0 = np.ravel(x0)
        return self.stencil.apply(x0, np.empty(x0.size))

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


class BandedOperator(DiscreteOperator):
    """The banded step path: each step solves with the Cholesky factor of
    M + dt A.

    Built on the first sweep and kept: `factor`, the Cholesky factor U of
    M + dt A = U^T U in LAPACK's upper band layout, Fortran-ordered (row
    nx - d holds the entries d places above the diagonal, so column j holds
    U[j - nx : j + 1, j]); and `solve`, the argument block of `lapack.pbtrs`
    with that factor.
    """

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

    def steps(self, z, reverse, shared):
        """The deviation steps in z (`DiscreteOperator`), each one diagonal
        multiply-add and one `pbtrs`.  A shared source is copied into its
        rows first: every row is still one solve.

        A banded sweep costs its calls more than its arithmetic on the small
        grids, so each step calls LAPACK's `pbtrs` through the argument block
        `solve` (`lapack.pbtrs`), with the address of the row solved stepped
        from the first one by the rows' stride (a negative one in reverse).
        Per step at 17x17x16, 33x33x32 and 65x65x64, the sizes varcoef_batch
        takes this path at (one thread, best of 5, 2-core VM): 7.4 / 28.7 /
        152 us, against 8.7 / 29.8 / 156 us for `.ctypes.data` per call and
        13.4 / 34.0 / 162 us for arguments built per call."""
        z[1:shared] = z[0]
        rows = z[::-1] if reverse else z
        mass, solve = self.flat_mass, self.solve
        carry = np.empty(z.shape[1])
        row_address, stride = address(rows[0]), rows.strides[0]
        prev = None
        for row in rows:
            if prev is not None:
                np.multiply(mass, prev, out=carry)
                row += carry
            pbtrs(solve, row_address)
            row_address += stride
            prev = row


class SeparableOperator(DiscreteOperator):
    """The separable step path, for constant a11 and a22: each sweep steps
    in the closed-form eigenbasis of M + dt A (module docstring).

    Built on the first sweep and kept: `basis`, V_x (nx, nx) and V_x^T as
    its own C-contiguous array, V_y (ny, ny) and V_y^T, the step's diagonal
    d (ny, nx) (`separable_basis`) and one (nt, ny, nx) work array for the
    slices between the GEMMs along x and along y (`np.matmul` cannot write
    in place; a temporary per sweep would raise a solve's peak by a field).
    """

    def __init__(self, mesh, cx, cy, a11, a22):
        super().__init__(mesh, cx, cy)
        self.a11 = a11
        self.a22 = a22

    @cached_property
    def basis(self):
        mesh = self.mesh
        vx, vy, d = separable_basis(mesh, self.a11, self.a22)
        work = np.empty((mesh.nt,) + mesh.shape_space)
        return vx, np.ascontiguousarray(vx.T), vy, vy.T, d, work

    def steps(self, z, reverse, shared):
        """The deviation steps in z (`DiscreteOperator`): four GEMMs batched
        over its slices in time order, and the recurrence in either order.

        The basis is linear, so a source shared by several rows is
        transformed once, through work[0], and its modal slice copied into
        them: a sweep with one or two distinct sources makes two batched
        GEMMs, the two back out of the basis."""
        vx, vx_t, vy, vy_t, d, work = self.basis
        modes = z.reshape(work.shape)
        # V^T s' = V_y^T (s' V_x) slice by slice
        if shared > 1:
            for row in (modes[0], *modes[shared:]):
                np.matmul(row, vx, out=work[0])
                np.matmul(vy_t, work[0], out=row)
            modes[1:shared] = modes[0]
        else:
            np.matmul(modes, vx, out=work)
            np.matmul(vy_t, work, out=modes)
        prev = None
        for row in (modes[::-1] if reverse else modes):
            if prev is not None:
                row += prev
            row *= d
            prev = row
        np.matmul(vy, modes, out=work)
        np.matmul(work, vx_t, out=modes)


def separable_basis(mesh, a11, a22):
    """(V_x, V_y, d): the M-orthonormal cosine bases along x and y and the
    diagonal 1 / (1 + dt (a11 lambda_x (+) a22 lambda_y)) of one step in
    their coordinates, (ny, nx) (module docstring)."""
    vx, lam_x = _cosine_basis(mesh.nx, mesh.hx)
    vy, lam_y = _cosine_basis(mesh.ny, mesh.hy)
    return vx, vy, 1.0 / (1.0 + mesh.dt * (a11 * lam_x + a22 * lam_y[:, None]))


def _cosine_basis(n, h):
    """(V, lambda) of the 1-D Neumann stiffness L / h on n nodes of spacing h
    against the trapezoidal mass h diag(1/2, 1, ..., 1, 1/2).

    k i is reduced modulo 2 (n - 1), the cosine's period, in integers
    before it is scaled, so every angle lies in [0, 2 pi): the plain
    product reaches pi (n - 1), whose rounding is (n - 1) / 2 times as
    large.
    """
    k = np.arange(n)
    angle = (np.pi / (n - 1)) * (np.outer(k, k) % (2 * (n - 1)))
    c = np.full(n, np.sqrt(2.0 / (h * (n - 1))))
    c[[0, -1]] = np.sqrt(1.0 / (h * (n - 1)))
    return c * np.cos(angle), (4.0 / h ** 2) * np.sin((np.pi / (2 * (n - 1))) * k) ** 2


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
    columns), divided by the edge length.  The step path is chosen here:
    a `SeparableOperator` when a11 and a22 are each constant on the mesh,
    a `BandedOperator` otherwise.
    """
    mesh = coeffs.mesh
    nx, ny, hx, hy = mesh.nx, mesh.ny, mesh.hx, mesh.hy
    wx = np.ones(nx)
    wx[0] = wx[-1] = 0.5
    wy = np.ones(ny)
    wy[0] = wy[-1] = 0.5
    a11, a22 = coeffs.a11, coeffs.a22
    a11_edge = 0.5 * (a11[:, :-1] + a11[:, 1:])
    a22_edge = 0.5 * (a22[:-1, :] + a22[1:, :])
    cx = a11_edge * (hy * wy[:, None]) / hx   # (ny, nx-1)
    cy = a22_edge * (hx * wx[None, :]) / hy   # (ny-1, nx)
    if (a11 == a11[0, 0]).all() and (a22 == a22[0, 0]).all():
        return SeparableOperator(mesh, cx, cy, float(a11[0, 0]), float(a22[0, 0]))
    return BandedOperator(mesh, cx, cy)
