"""Uniform space-time grids, nodal field containers, and trapezoidal quadrature.

The spatial domain is the rectangle [0, lx] x [0, ly] sampled on nx * ny
vertex-centered nodes; time is [0, T] sampled at nt + 1 levels.  A TimeField
(the state, the obstacle) stores one value per space-time node, a float64
array of shape (nt + 1, ny, nx) indexed [m, j, i] with i the x-index.  The
unknowns of the implicit-Euler steps hold the slices m = 1..nt, in rows
m - 1: an IntervalField has shape (nt, ny, nx), a BoundaryTimeField (nt, nb)
on a fixed counterclockwise walk of the boundary that owns each corner once.

Fields are immutable value objects: the backing arrays are marked read-only
and every operation returns a new field, so instances are safe to share.
A constant field (`constant`, `zeros`) stores one number: its values are a
read-only view of a single float64 with every stride zero, so a bound, psi
or starting multiplier costs 8 bytes at any size.  It reads like any array
of its shape; the solver's elementwise arithmetic reads it through
`operand`, as a 0-d array, which keeps numpy on its contiguous loops.

The clamps into a box all go through `clamp`, min(max(x, lo), hi), which
gives the same bits whether a bound is a materialised array or a constant
view; `np.clip` does not (see `clamp`).
"""

import math

import numpy as np


class Mesh:
    """Uniform tensor grid with trapezoidal quadrature weights.

    Space weights w_space sum to the rectangle area exactly; time weights
    w_time sum to T.  Boundary nodes carry trapezoidal arc weights along the
    closed boundary walk (corners get (hx + hy) / 2), summing to the
    perimeter.
    """

    def __init__(self, nx, ny, nt, lx, ly, T):
        # int() alone truncated a count: 5.9 nodes built a mesh of 5
        for name, count in (("nx", nx), ("ny", ny), ("nt", nt)):
            if not float(count).is_integer():
                raise ValueError(f"{name} must be an integer, got {count!r}")
        nx, ny, nt = int(nx), int(ny), int(nt)
        if nx < 3 or ny < 3:
            raise ValueError(f"need at least 3 nodes per spatial axis, got nx={nx}, ny={ny}")
        if nt < 1:
            raise ValueError(f"need at least 1 time step, got nt={nt}")
        if not all(0 < extent < math.inf for extent in (lx, ly, T)):
            raise ValueError(f"domain extents must be positive and finite, "
                             f"got lx={lx}, ly={ly}, T={T}")
        self.nx, self.ny, self.nt = nx, ny, nt
        self.lx, self.ly, self.T = float(lx), float(ly), float(T)
        self.hx = self.lx / (nx - 1)
        self.hy = self.ly / (ny - 1)
        self.dt = self.T / nt

        self.x = np.linspace(0.0, self.lx, nx)
        self.y = np.linspace(0.0, self.ly, ny)
        self.t = np.linspace(0.0, self.T, nt + 1)

        wx = np.ones(nx)
        wx[0] = wx[-1] = 0.5
        wy = np.ones(ny)
        wy[0] = wy[-1] = 0.5
        self.w_space = (self.hx * self.hy) * np.outer(wy, wx)  # (ny, nx)
        wt = np.full(nt + 1, self.dt)
        wt[0] *= 0.5
        wt[-1] *= 0.5
        self.w_time = wt

        bi, bj = _boundary_walk(nx, ny)
        self.boundary_i = bi
        self.boundary_j = bj
        self.n_boundary = bi.size
        self.w_arc = _boundary_arc_weights(bi, bj, self.hx, self.hy)

        for arr in (self.x, self.y, self.t, self.w_space, self.w_time,
                    self.boundary_i, self.boundary_j, self.w_arc):
            arr.flags.writeable = False
        self.key = (nx, ny, nt, self.lx, self.ly, self.T)

    @property
    def shape_space(self):
        return (self.ny, self.nx)

    def compatible(self, other):
        """Whether other is a Mesh with the same dims and extents (`key`)."""
        return other is self or (isinstance(other, Mesh) and self.key == other.key)

    def __repr__(self):
        return (f"Mesh(nx={self.nx}, ny={self.ny}, nt={self.nt}, "
                f"lx={self.lx}, ly={self.ly}, T={self.T})")


def _boundary_walk(nx, ny):
    """Counterclockwise boundary node indices, each node listed once.

    Bottom edge left to right, right edge bottom to top, top edge right to
    left, left edge top to bottom.
    """
    i = np.concatenate([np.arange(nx), np.full(ny - 1, nx - 1),
                        np.arange(nx - 2, -1, -1), np.zeros(ny - 2, dtype=np.int64)])
    j = np.concatenate([np.zeros(nx, dtype=np.int64), np.arange(1, ny),
                        np.full(nx - 1, ny - 1), np.arange(ny - 2, 0, -1)])
    return i, j


def _boundary_arc_weights(bi, bj, hx, hy):
    """Trapezoidal weights along the closed boundary polyline.

    The cyclic differences are taken by slicing the walk closed by its first
    node: three `np.roll` calls took 32 against 9 us at 5x5."""
    # seg[k]: length of the edge from node k to node k+1 (cyclic)
    i, j = np.concatenate((bi, bi[:1])), np.concatenate((bj, bj[:1]))
    seg = np.abs(i[1:] - i[:-1]) * hx + np.abs(j[1:] - j[:-1]) * hy
    return 0.5 * (np.concatenate((seg[-1:], seg[:-1])) + seg)


def build_mesh(nx, ny, nt, lx, ly, T):
    """Construct a Mesh; raises ValueError on too-small or non-positive input."""
    return Mesh(nx, ny, nt, lx, ly, T)


class _Field:
    """Immutable float64 samples on a mesh; a subclass gives `shape(mesh)`.

    The constructor copies the values it is given, into a contiguous array.
    `_wrap` is the library's own constructor for a float64 array it has just
    built and keeps no other reference to: it makes the same checks and
    freezes that array in place, without the copy.

    The finiteness check first takes the sum of squares of a contiguous
    array, one BLAS dot: it is finite only if every entry is, since a square
    is never negative and an inf or NaN entry makes the sum inf or NaN.
    Only when it is not finite, or the array is not contiguous (the dot
    would copy it), does the exact test decide, so a finite field whose
    squares overflow is accepted.  BLAS raises no floating-point warning on
    the overflow.  The exact test alone raised paper_sec5's solve_ref
    0.322 -> 0.335 (+4.0%, higher in 9 of 10 pairs, BENCH_ablation.json).
    An array whose strides are all zero (a constant field's) is not
    contiguous, and the exact test reads its one number.

    `constant` and `zeros` wrap a zero-stride view of a read-only 0-d
    float64, which is the view's `base`, built with the ndarray constructor:
    `np.broadcast_to` costs about five times as much per call on the small
    grids (6.6 against 1.5 us at 5x5x5).  Building a constant takes 3.5 to
    6.5 us at every size; when the exact finiteness test read every entry
    of its view, it took 6-10 us at 5x5x5, 23-26 us at 33x33x33 and
    127-134 us at 65x65x65 (one core of a 2-core VM).  Arithmetic, einsum
    and `clamp` read it with the same bits as the materialised array;
    `np.array` or `.copy()` of its values gives a contiguous one, and
    `operand` gives the 0-d array itself.
    """

    __slots__ = ("mesh", "values")

    def __init__(self, mesh, values):
        self._adopt(mesh, np.array(values, dtype=np.float64))

    @classmethod
    def _wrap(cls, mesh, values):
        field = object.__new__(cls)
        field._adopt(mesh, values)
        return field

    def _adopt(self, mesh, values):
        expected = self.shape(mesh)
        if values.shape != expected:
            raise ValueError(f"{type(self).__name__} shape {values.shape} != {expected} "
                             f"for {mesh!r}")
        if not (values.flags.c_contiguous and math.isfinite(np.vdot(values, values))
                or (np.isfinite(values).all() if any(values.strides)
                    else math.isfinite(values.item(0)))):
            raise ValueError(f"{type(self).__name__} values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "mesh", mesh)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zeros(cls, mesh):
        return cls.constant(mesh, 0.0)

    @classmethod
    def constant(cls, mesh, c):
        shape = cls.shape(mesh)
        one = np.array(float(c))
        one.flags.writeable = False
        return cls._wrap(mesh, np.ndarray(shape, np.float64, one, 0, (0,) * len(shape)))


class TimeField(_Field):
    """Scalar function sampled on every space-time node, shape (nt+1, ny, nx)."""

    __slots__ = ()

    @staticmethod
    def shape(mesh):
        return (mesh.nt + 1, mesh.ny, mesh.nx)

    @classmethod
    def from_function(cls, mesh, fn):
        """Sample fn(x, y, t) at all nodes (fn must broadcast over arrays)."""
        X = mesh.x[None, None, :]
        Y = mesh.y[None, :, None]
        Tm = mesh.t[:, None, None]
        vals = np.broadcast_to(fn(X, Y, Tm), cls.shape(mesh))
        return cls._wrap(mesh, np.array(vals, dtype=np.float64))


class IntervalField(_Field):
    """An unknown's slices m = 1..nt on every space node, shape (nt, ny, nx)."""

    __slots__ = ()

    @staticmethod
    def shape(mesh):
        return (mesh.nt, mesh.ny, mesh.nx)


class BoundaryTimeField(_Field):
    """An unknown's slices m = 1..nt on the boundary walk, shape (nt, nb)."""

    __slots__ = ()

    @staticmethod
    def shape(mesh):
        return (mesh.nt, mesh.n_boundary)


def space_slice_from_function(mesh, fn):
    """Sample fn(x, y) on one spatial slice, returning a (ny, nx) array."""
    X = mesh.x[None, :]
    Y = mesh.y[:, None]
    return np.array(np.broadcast_to(fn(X, Y), (mesh.ny, mesh.nx)), dtype=np.float64)


def extract_boundary(f):
    """Restrict an IntervalField to the boundary walk."""
    vals = f.values[:, f.mesh.boundary_j, f.mesh.boundary_i]
    return BoundaryTimeField._wrap(f.mesh, vals)


def _check_same_mesh(f, g):
    if not f.mesh.compatible(g.mesh):
        raise ValueError(f"mesh mismatch: {f.mesh!r} vs {g.mesh!r}")
    if type(f) is not type(g):
        raise ValueError(f"field kind mismatch: {type(f).__name__} vs {type(g).__name__}")


def integrate_omega_t(f, g):
    """Space-time inner product over the cylinder, trapezoidal in all variables.

    It serves only `l2_norm_omega_t`, the error norm of the decay oracle.
    The solver's integrals use the right-endpoint rule over m = 1..nt
    (`cost.inner`) instead.
    """
    _check_same_mesh(f, g)
    if not isinstance(f, TimeField):
        raise TypeError("integrate_omega_t expects TimeFields")
    slice_sums = np.einsum("mji,ji->m", f.values * g.values, f.mesh.w_space)
    return float(np.dot(f.mesh.w_time, slice_sums))


def l2_norm_omega_t(f):
    return np.sqrt(max(integrate_omega_t(f, f), 0.0))


def operand(f):
    """The values of field f as an operand of elementwise arithmetic with
    full arrays: a constant field's one number as a 0-d array, any other
    field's own array.

    numpy runs a 0-d operand through its contiguous loops, as it does a
    scalar, and a zero-stride view through its general ones; reading the
    views instead raised paper_sec5's solve_ref 0.321 -> 0.330 (+2.9%,
    higher in 9 of 10 pairs, BENCH_ablation.json).  Every element of a
    field is the same number exactly when all its strides are zero (its x
    axis has at least three entries), and then the 0-d array is its base
    (see `_Field`).  The result reads with the same bits either way.
    """
    values = f.values
    return values if any(values.strides) else values.base


def is_zero(values):
    """Whether values, the array of a field, is a constant zero: every stride
    zero (see `operand`) and its one number +0.0 or -0.0.

    An array that owns its memory (no `base`) is never a zero-stride view,
    so the solver's own fields are told apart by one attribute."""
    return values.base is not None and not any(values.strides) and values.item(0) == 0.0


def clamp(x, lo, hi, out=None):
    """min(max(x, lo), hi) elementwise, into out when given (it may be x).

    For lo <= hi it is bit for bit np.clip(x, lo, hi) with materialised
    bounds, signed zeros included, and it gives the same bits for bounds
    that are constant views, 0-d arrays (`operand`) or scalars.  np.clip
    does not: with zero-stride or scalar bounds it takes another loop,
    which can return a zero of the other sign, and costs about 1 us more
    per call on the small grids.
    """
    out = np.maximum(x, lo, out=out)
    return np.minimum(out, hi, out=out)


class ControlBounds:
    """Pointwise box bounds for the distributed and boundary controls."""

    __slots__ = ("ua", "ub", "va", "vb")

    def __init__(self, ua, ub, va, vb):
        _check_same_mesh(ua, ub)
        _check_same_mesh(va, vb)
        if not isinstance(ua, IntervalField) or not isinstance(va, BoundaryTimeField):
            raise TypeError("ua/ub must be IntervalFields and va/vb BoundaryTimeFields")
        if (operand(ua) > operand(ub)).any():
            raise ValueError("invalid control bounds: ua > ub somewhere")
        if (operand(va) > operand(vb)).any():
            raise ValueError("invalid control bounds: va > vb somewhere")
        object.__setattr__(self, "ua", ua)
        object.__setattr__(self, "ub", ub)
        object.__setattr__(self, "va", va)
        object.__setattr__(self, "vb", vb)

    def __setattr__(self, name, value):
        raise AttributeError("ControlBounds is immutable")

    @classmethod
    def constant(cls, mesh, ua, ub, va=-1.0, vb=1.0):
        return cls(IntervalField.constant(mesh, ua), IntervalField.constant(mesh, ub),
                   BoundaryTimeField.constant(mesh, va), BoundaryTimeField.constant(mesh, vb))


# ---------------------------------------------------------------------------
# Plain-text CSV field dumps: a header line with the field name and mesh
# dims, then a row m, t_m, values... per slice, m = 0..nt for a TimeField and
# 1..nt for an unknown; a load rejects the other kind's rows.  Values are
# written with 17 significant digits, so a round trip is bit-identical.
# ---------------------------------------------------------------------------

def _fmt(v):
    return f"{v:.17g}"


def _write(path, head, rows):
    """Write the header line head, then a line m, t, values... per row."""
    with open(path, "w") as fh:
        fh.write(head + "\n")
        for m, t, values in rows:
            fh.write(",".join([str(m), _fmt(t)] + [_fmt(v) for v in np.ravel(values)]) + "\n")


def _dump(f, name, path, dims):
    mesh = f.mesh
    ms = range(mesh.nt + 1 - len(f.values), mesh.nt + 1)
    _write(path, f"field,{name},{dims},nt,{mesh.nt}", zip(ms, mesh.t[ms.start:], f.values))


def dump_time_field(f, name, path):
    """Write a TimeField or an IntervalField, one row per slice."""
    _dump(f, name, path, f"nx,{f.mesh.nx},ny,{f.mesh.ny}")


def dump_boundary_field(f, name, path):
    _dump(f, name, path, f"nb,{f.mesh.n_boundary}")


def dump_space_slice(values, name, path, mesh):
    """Write a single spatial slice (nt recorded as 0, one data row)."""
    _write(path, f"field,{name},nx,{mesh.nx},ny,{mesh.ny},nt,0", [(0, 0.0, values)])


def _read_dump(path, dims, first, last):
    """The rows m = first..last of the dump at path, each one slice's values
    as the header's dims say; every error message begins with the path."""
    with open(path) as fh:
        lines = [ln.rstrip("\n").split(",") for ln in fh if ln.strip()]
    if not lines or len(lines[0]) < 2 or lines[0][0] != "field":
        raise ValueError(f"{path}: malformed field dump header")
    try:
        meta = {key: int(val) for key, val in zip(lines[0][2::2], lines[0][3::2])}
        rows = [[float(v) for v in row[2:]] for row in lines[1:]]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if any(meta.get(key) != value for key, value in dims.items()):
        raise ValueError(f"{path}: dump dims {meta} do not match {dims}")
    if [row[0] for row in lines[1:]] != [str(m) for m in range(first, last + 1)]:
        raise ValueError(f"{path}: expected the rows m = {first}..{last}, got the rows "
                         f"m = {', '.join(row[0] for row in lines[1:])}")
    size = math.prod(value for key, value in dims.items() if key != "nt")
    for m, row in enumerate(rows, first):
        if len(row) != size:
            raise ValueError(f"{path}: row m = {m} holds {len(row)} values, expected {size}")
    return np.array(rows)


def _load(path, cls, mesh, dims):
    """The cls field of a dump with cls's rows (see above) and the dims."""
    rows = _read_dump(path, dims, mesh.nt + 1 - cls.shape(mesh)[0], mesh.nt)
    return cls(mesh, rows.reshape(cls.shape(mesh)))


def load_time_field(path, cls, mesh):
    """Read a dump of a TimeField or an IntervalField, as cls says."""
    return _load(path, cls, mesh, {"nx": mesh.nx, "ny": mesh.ny, "nt": mesh.nt})


def load_boundary_field(path, mesh):
    return _load(path, BoundaryTimeField, mesh, {"nb": mesh.n_boundary, "nt": mesh.nt})


def load_space_slice(path, mesh):
    return _read_dump(path, {"nx": mesh.nx, "ny": mesh.ny}, 0, 0).reshape(mesh.ny, mesh.nx)
