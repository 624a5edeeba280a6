"""Implicit-Euler marching for the forward state and backward adjoint equations.

Forward step m (m = 1..nt):

    (M + dt A) y_m = M y_{m-1} + dt M u_m + dt B v_m

where M is the diagonal trapezoidal mass matrix, A the flux stencil and B
scatters the boundary control with arc-length weights (the natural flux
load of the finite-volume closure).  The backward sweep transposes the same
propagator:

    p_nt = e + dt K^{-1} M mu_nt,   K p_m = M p_{m+1} + dt M mu_m,  m = nt-1..1,

with K = M + dt A and e = y_nt - y_d the terminal mismatch.  p_nt is the
gradient of the sub-problem objective in y_nt pulled back through K: the
mismatch term plus the penalty of the last slice, which the right-endpoint
penalty charges (see `cost.subproblem_objective`).  p, like mu and the
controls, holds only the unknowns m = 1..nt.

Both sweeps solve the systems K x_m = M x_{m-1} + s_m, with the sources
s = dt (M u + B v) forward and s = dt M mu backward, built for all time
levels at once from the operator's dt-weighted mass and arc weights
(`load_mass`, `load_arc`), in the slices of the array the sweep returns.
A sweep marches them in the deviation z_m = x_m - x_0 from its starting
slice x_0:

    K z_m = M z_{m-1} + (s_m - dt A x_0),    z_0 = 0,

and returns x_m = x_0 + z_m.  It subtracts dt A x_0, its only stencil
application, from all sources in one vectorised operation, has the
operator solve the deviation steps in place (`DiscreteOperator.steps`)
and adds x_0 back.  The operator's step path, banded Cholesky solves or
the separable eigenbasis for constant coefficients, was fixed when it was
assembled (see `operators`), so a sweep does not ask which.  A forward
sweep can be handed dt A y0 precomputed (`a_y0`,
`DiscreteOperator.start_term`): every forward sweep of every inner solve
starts from the problem's y0, so the problem takes it once
(`cost.ProblemSpec.a_y0`), with the same bits as a sweep that applies the
stencil.  So can an adjoint sweep (`a_terminal`): the sub-problem objective
has just taken dt A e.  The adjoint sweep always marches from e itself,
and p_nt is one more step: its source s_nt keeps dt A e, which the rows
m < nt subtract.  The terminal correction so costs one step and no solve
or stencil of its own.
dt A x_0 is evaluated in difference form (`FluxStencil`), so for a
constant starting slice it is exactly zero: with zero sources every z_m is
then exactly zero, and constant states are preserved bit-exactly for any
coefficients; a constant state from rest is returned without a march (see
below).  A plain K^{-1} (M x + s), or a matrix-form product for
dt A x, leaves them off by rounding (about 1e-15).
Each step's rounding is relative to the size of z and x_0, so a slice is
accurate to a few 1e-15 of the sweep's largest value (checked against dense
solves over 512 steps), not of its own size when it has decayed far below
x_0.  The sweeps take dt from the operator, so it must have been assembled
on the sweep's mesh.

A constant control (u, and v when there is one) or a constant multiplier
gives every step the same source, and `operand(f).ndim == 0` tells so at
no extra cost: the load multiply reads that operand anyway.  The sweep
then forms the one slice in its own first row of sources, not nt of them,
and passes the steps its distinct slices (`shared` of `steps`): forward,
one slice s - dt A y0 shared by all nt rows; backward, s - dt A e shared
by the rows m < nt, and s itself, copied into the p_nt row.  The separable
path transforms each distinct slice once, the banded path copies it into
its rows and still solves every step.  The result has the bits of the
sweep over the materialised field.  An inactive obstacle makes every
adjoint sweep of its sub-problem such a sweep (the zero multiplier
candidate), and a cold start under constant bounds its first forward
sweep.

Each sweep writes its slices straight into the array of the field it
returns, and the field takes that array over without a copy.  Its
finiteness check stays: a sweep that overflows raises ValueError.  That
array is a new one, or `out`, an array of the field's shape that the caller
holds and hands to sweep after sweep (the inner solve holds one for its
states and one for its adjoints, `msa`).  The sweep overwrites all of out
and returns it in its field, frozen again.  A field over out from an
earlier sweep then reads the new values, so the caller hands out over only
when no such field is still in use.
The sweeps form their sources in place, since on the small grids a sweep
costs its calls more than its arithmetic (`BandedOperator.steps`).

A forward sweep from rest, with constant zero controls (u, and v when
there is one, under the constant test above) and an initial slice that
holds one number c, returns the constant field c and marches nothing: the
march would add zero deviations to c, giving its bits in every slice.  A c
of -0.0 keeps the march, whose zeros take either sign there.  A cold start
from y0 = 0 inside boxes that contain 0 makes such a sweep.
"""

import numpy as np

from .grid import IntervalField, TimeField, operand


def _check(mesh, op, slice_, name):
    slice_ = np.asarray(slice_, dtype=np.float64)
    if slice_.shape != mesh.shape_space:
        raise ValueError(f"{name} slice shape {slice_.shape} != {mesh.shape_space}")
    if not op.mesh.compatible(mesh):
        raise ValueError("operator was assembled on a different mesh")
    return slice_


def _array(out, shape):
    """out, an array the caller holds for the sweep to write, checked to be
    a C-contiguous float64 array of shape; a new array when out is None."""
    if out is None:
        return np.empty(shape)
    if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    return out


def solve_forward(mesh, op, u, v, y0, a_y0=None, out=None):
    """March the state equation forward from the initial slice y0.

    u is the source (an IntervalField, or any constant field: `operand`), v
    an optional BoundaryTimeField flux (None means homogeneous Neumann), y0
    a (ny, nx) array.  Returns the state TimeField.
    a_y0, when given, is `op.start_term(y0)` of this y0, and the sweep
    applies no stencil; the result has the same bits either way.
    The loads of steps 1..nt are formed in the slices they are marched in,
    or once, in row 1, when u and v are constant (module docstring).
    From rest, constant zero controls and a constant y0 other than -0.0,
    the result is that constant field, and no step is taken.
    out, when given, is the array the state is written into (`_array`); no
    field over it may still be in use.  A sweep from rest leaves it as it is.
    """
    y0 = _check(mesh, op, y0, "initial")
    u = operand(u)
    v = None if v is None else operand(v)
    constant = u.ndim == 0 and (v is None or v.ndim == 0)
    if constant and u == 0.0 and (v is None or v == 0.0):
        c = y0.item(0)
        if (y0 == c).all() and not (c == 0.0 and np.signbit(y0).any()):
            return TimeField.constant(mesh, c)
    y = _array(out, TimeField.shape(mesh))
    load = y[1:2] if constant else y[1:]
    np.multiply(op.load_mass, u, out=load)
    if v is not None:
        load[:, mesh.boundary_j, mesh.boundary_i] += op.load_arc * v
    y[0] = y0
    z = y.reshape(mesh.nt + 1, -1)[1:]
    # a_y0, a local, lives until the sweep returns: freed before the banded
    # steps allocate their carry, it moved the heap layout, and
    # varcoef_batch's peak_rss_mb read 50.8 MB against 48.7 MB
    a_y0 = op.start_term(y0) if a_y0 is None else a_y0
    sources = z[:1] if constant else z
    sources -= a_y0
    op.steps(z, False, mesh.nt if constant else 1)
    z += y0.ravel()
    return TimeField._wrap(mesh, y)


def solve_adjoint(mesh, op, mu, terminal, a_terminal=None, out=None):
    """March the adjoint equation backward from the terminal mismatch down
    to p_1; returns p on m = 1..nt, an IntervalField.

    mu is the IntervalField source (the multiplier candidate) and terminal the
    (ny, nx) terminal mismatch e = y_nt - y_d; p_nt = e + dt K^{-1} M mu_nt
    is the first step from it.  The boundary closure is homogeneous.
    The sources are formed in the slices of p, in time order, or once, in
    row 0, when mu is constant (module docstring).
    a_terminal, when given, is dt A terminal, flattened, as the sub-problem
    objective takes it (`cost.subproblem_objective`); the sweep then applies
    no stencil, and the result has the same bits either way.
    Taking dt A e again in the sweep instead raised paper_sec5's
    solve_ref 0.336 -> 0.346 (+3.0%, higher in 10 of 10 pairs,
    BENCH_no_scipy.json).
    out, when given, is the array p is written into (`_array`); no field
    over it may still be in use.
    """
    terminal = _check(mesh, op, terminal, "terminal")
    p = _array(out, IntervalField.shape(mesh))
    mu = operand(mu)
    constant = mu.ndim == 0
    np.multiply(op.load_mass, mu, out=p[:1] if constant else p)
    rows = p.reshape(mesh.nt, -1)
    if constant:
        rows[-1] = rows[0]
    a_terminal = op.start_term(terminal) if a_terminal is None else a_terminal
    # the rows m < nt, of which a constant mu has formed only row 0
    early = rows[:-1][:1] if constant else rows[:-1]
    early -= a_terminal
    op.steps(rows, True, mesh.nt - 1 if constant else 1)
    p += terminal
    return IntervalField._wrap(mesh, p)
