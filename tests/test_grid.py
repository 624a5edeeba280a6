import itertools
import warnings

import numpy as np
import pytest

from almpde.cost import inner
from almpde.grid import (TimeField, IntervalField, BoundaryTimeField, ControlBounds,
                         build_mesh, clamp, integrate_omega_t, operand,
                         extract_boundary,
                         dump_time_field, load_time_field,
                         dump_boundary_field, load_boundary_field,
                         dump_space_slice, load_space_slice)


# ---------------------------------------------------------------- build_mesh

def test_build_mesh_quarter_steps():
    m = build_mesh(5, 5, 4, 1.0, 1.0, 1.0)
    assert m.hx == 0.25 and m.hy == 0.25 and m.dt == 0.25


def test_build_mesh_minimal_weights_sum_to_area():
    m = build_mesh(3, 3, 1, 1.0, 1.0, 1.0)
    assert m.w_space.sum() == pytest.approx(1.0, rel=1e-12)


def test_build_mesh_anisotropic_dims():
    m = build_mesh(9, 5, 8, 2.0, 1.0, 1.0)
    assert m.hx == 0.25 and m.hy == 0.25 and m.dt == 0.125


@pytest.mark.parametrize("args", [
    (2, 5, 4, 1, 1, 1), (5, 2, 4, 1, 1, 1), (5, 5, 0, 1, 1, 1),
    (5, 5, 4, 0, 1, 1), (5, 5, 4, 1, -1, 1), (5, 5, 4, 1, 1, 0),
])
def test_build_mesh_rejects_bad_input(args):
    with pytest.raises(ValueError):
        build_mesh(*args)


@pytest.mark.parametrize("position, name", [(0, "nx"), (1, "ny"), (2, "nt")])
@pytest.mark.parametrize("bad", [5.9, 4.5, np.float64(7.25), np.nan, np.inf])
def test_build_mesh_rejects_a_count_that_is_not_an_integer(position, name, bad):
    # int() truncated them: 5.9 x 5 x 4.5 built a 5 x 5 x 4 mesh
    args = [5, 5, 4, 1.0, 1.0, 1.0]
    args[position] = bad
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        build_mesh(*args)


def test_build_mesh_takes_integral_floats_and_numpy_integers():
    m = build_mesh(5.0, np.int64(6), np.float64(4.0), 1.0, 1.0, 1.0)
    assert (m.nx, m.ny, m.nt) == (5, 6, 4)
    assert all(type(n) is int for n in (m.nx, m.ny, m.nt))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("position", [3, 4, 5])
def test_build_mesh_rejects_nonfinite_extents(bad, position):
    # a NaN extent passed the sign test and gave a NaN step with only a
    # RuntimeWarning; +inf gave an infinite one
    args = [5, 5, 4, 1.0, 1.0, 1.0]
    args[position] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="domain extents must be positive and finite"):
            build_mesh(*args)


@pytest.mark.parametrize("dims", [(5, 5, 4, 1, 1, 1), (7, 4, 3, 2.5, 0.7, 0.3),
                                  (3, 3, 1, 0.1, 10.0, 2.0)])
def test_weight_sums(dims):
    m = build_mesh(*dims)
    assert m.w_space.sum() == pytest.approx(m.lx * m.ly, rel=1e-12)
    assert m.w_time.sum() == pytest.approx(m.T, rel=1e-12)
    assert m.w_arc.sum() == pytest.approx(2 * (m.lx + m.ly), rel=1e-12)


def test_boundary_walk_count_and_uniqueness():
    m = build_mesh(6, 4, 2, 1, 1, 1)
    assert m.n_boundary == 2 * (m.nx - 1) + 2 * (m.ny - 1)
    nodes = set(zip(m.boundary_i.tolist(), m.boundary_j.tolist()))
    assert len(nodes) == m.n_boundary
    corner = np.where((m.boundary_i == 0) & (m.boundary_j == 0))[0][0]
    assert m.w_arc[corner] == pytest.approx(0.5 * (m.hx + m.hy))


@pytest.mark.parametrize("dims", [(3, 3), (6, 4), (5, 9), (33, 33)])
def test_boundary_geometry_matches_loop_reference(dims):
    nx, ny = dims
    m = build_mesh(nx, ny, 2, 1.3, 0.7, 1.0)
    walk = ([(k, 0) for k in range(nx)] + [(nx - 1, k) for k in range(1, ny)]
            + [(k, ny - 1) for k in range(nx - 2, -1, -1)]
            + [(0, k) for k in range(ny - 2, 0, -1)])
    assert m.boundary_i.tolist() == [i for i, _ in walk]
    assert m.boundary_j.tolist() == [j for _, j in walk]
    nb = len(walk)
    seg = [abs(walk[(k + 1) % nb][0] - walk[k][0]) * m.hx
           + abs(walk[(k + 1) % nb][1] - walk[k][1]) * m.hy for k in range(nb)]
    w = [0.5 * (seg[k - 1] + seg[k]) for k in range(nb)]
    assert m.w_arc.tolist() == w


@pytest.mark.parametrize("dims", [(3, 3), (5, 9), (33, 17)])
def test_arc_weights_match_the_roll_formula_bit_for_bit(dims):
    # the cyclic differences are taken by slicing, not np.roll
    m = build_mesh(*dims, 2, 1.3, 0.7, 1.0)
    bi, bj = m.boundary_i, m.boundary_j
    seg = np.abs(np.roll(bi, -1) - bi) * m.hx + np.abs(np.roll(bj, -1) - bj) * m.hy
    assert m.w_arc.tobytes() == (0.5 * (np.roll(seg, 1) + seg)).tobytes()


# ------------------------------------------------------------- integration

def test_integrate_omega_t_constants(unit_mesh):
    one = TimeField.constant(unit_mesh, 1.0)
    zero = TimeField.zeros(unit_mesh)
    assert integrate_omega_t(one, one) == pytest.approx(1.0, rel=1e-14)
    assert integrate_omega_t(one, zero) == 0.0


def test_integrate_omega_t_time_ramp(unit_mesh):
    # trapezoidal rule on t^2: exact value 1/3 plus the dt^2/6 rule error
    t = TimeField.from_function(unit_mesh, lambda x, y, t: t + 0 * x + 0 * y)
    val = integrate_omega_t(t, t)
    assert abs(val - 1.0 / 3.0) <= unit_mesh.dt ** 2
    assert val == pytest.approx(1.0 / 3.0 + unit_mesh.dt ** 2 / 6.0, rel=1e-13)


def test_integrate_omega_t_exact_for_multilinear():
    # trapezoid integrates products of per-variable linear factors exactly
    m = build_mesh(6, 5, 3, 2.0, 1.5, 0.8)
    f = TimeField.from_function(m, lambda x, y, t: (1 + 2 * x) * (3 - y) * (0.5 + t))
    one = TimeField.constant(m, 1.0)
    ix = m.lx + m.lx ** 2            # int (1 + 2x) dx
    iy = 3 * m.ly - m.ly ** 2 / 2    # int (3 - y) dy
    it = 0.5 * m.T + m.T ** 2 / 2    # int (0.5 + t) dt
    assert integrate_omega_t(f, one) == pytest.approx(ix * iy * it, rel=1e-12)


def test_integrate_symmetry_bilinearity():
    rng = np.random.default_rng(0)
    m = build_mesh(4, 4, 2, 1, 1, 1)
    shape = (m.nt + 1, m.ny, m.nx)
    f = TimeField(m, rng.standard_normal(shape))
    g = TimeField(m, rng.standard_normal(shape))
    h = TimeField(m, rng.standard_normal(shape))
    assert integrate_omega_t(f, g) == pytest.approx(integrate_omega_t(g, f), rel=1e-13)
    fg = TimeField(m, 2.0 * f.values + g.values)
    assert integrate_omega_t(fg, h) == pytest.approx(
        2 * integrate_omega_t(f, h) + integrate_omega_t(g, h), rel=1e-12, abs=1e-13)


def test_integrate_mesh_mismatch():
    a = TimeField.constant(build_mesh(4, 4, 2, 1, 1, 1), 1.0)
    b = TimeField.constant(build_mesh(4, 4, 3, 1, 1, 1), 1.0)
    with pytest.raises(ValueError, match="mesh mismatch"):
        integrate_omega_t(a, b)


# ------------------------------------------------------- pointwise helpers

def test_clamp_values(unit_mesh):
    lo = TimeField.constant(unit_mesh, -1.0)
    hi = TimeField.constant(unit_mesh, 1.0)
    for val, expected in ((0.3, 0.3), (-7.0, -1.0), (2.0, 1.0)):
        out = clamp(TimeField.constant(unit_mesh, val).values, lo.values, hi.values)
        assert out.shape == TimeField.shape(unit_mesh) and np.all(out == expected)
    # a degenerate (pinned) interval gives its one value
    zeros = TimeField.zeros(unit_mesh).values
    assert np.all(clamp(TimeField.constant(unit_mesh, 5.0).values, zeros, zeros) == 0.0)


def test_control_bounds_reject_inverted_intervals(unit_mesh):
    for lo, hi, va, vb, match in ((1.0, -1.0, -1.0, 1.0, "ua > ub"),
                                  (-1.0, 1.0, 1.0, -1.0, "va > vb")):
        with pytest.raises(ValueError, match=match):
            ControlBounds.constant(unit_mesh, lo, hi, va, vb)
    # one node is enough
    ub = np.ones(IntervalField.shape(unit_mesh))
    ub[2, 1, 3] = -2.0
    with pytest.raises(ValueError, match="ua > ub"):
        ControlBounds(IntervalField.constant(unit_mesh, -1.0), IntervalField(unit_mesh, ub),
                      BoundaryTimeField.constant(unit_mesh, -1.0),
                      BoundaryTimeField.constant(unit_mesh, 1.0))


def test_clamp_nonexpansive():
    rng = np.random.default_rng(2)
    m = build_mesh(4, 4, 2, 1, 1, 1)
    lo = TimeField.constant(m, -0.7).values
    hi = TimeField.constant(m, 0.4).values
    for _ in range(50):
        f = 2 * rng.standard_normal((m.nt + 1, m.ny, m.nx))
        g = 2 * rng.standard_normal((m.nt + 1, m.ny, m.nx))
        d_proj = np.max(np.abs(clamp(f, lo, hi) - clamp(g, lo, hi)))
        d_raw = np.max(np.abs(f - g))
        assert d_proj <= d_raw + 1e-15


def test_fields_are_immutable(unit_mesh):
    f = TimeField.zeros(unit_mesh)
    with pytest.raises(AttributeError):
        f.values = None
    with pytest.raises(ValueError):
        f.values[0, 0, 0] = 1.0


def test_field_rejects_nonfinite(unit_mesh):
    vals = np.zeros((unit_mesh.nt + 1, unit_mesh.ny, unit_mesh.nx))
    vals[1, 1, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        TimeField(unit_mesh, vals)
    bvals = np.zeros(BoundaryTimeField.shape(unit_mesh))
    bvals[0, 2] = np.inf
    with pytest.raises(ValueError, match="BoundaryTimeField values must be finite"):
        BoundaryTimeField(unit_mesh, bvals)


def test_control_bounds_validation(unit_mesh):
    with pytest.raises(ValueError, match="ua > ub"):
        ControlBounds(IntervalField.constant(unit_mesh, 1.0),
                      IntervalField.constant(unit_mesh, -1.0),
                      BoundaryTimeField.constant(unit_mesh, -1.0),
                      BoundaryTimeField.constant(unit_mesh, 1.0))
    # degenerate (pinned) intervals are allowed
    ControlBounds.constant(unit_mesh, 0.0, 0.0)


def test_extract_boundary(unit_mesh):
    nodes = TimeField.from_function(unit_mesh, lambda x, y, t: x + 10 * y + 100 * t)
    g = extract_boundary(IntervalField(unit_mesh, nodes.values[1:]))
    assert isinstance(g, BoundaryTimeField)
    xb = unit_mesh.x[unit_mesh.boundary_i]
    yb = unit_mesh.y[unit_mesh.boundary_j]
    for m in (1, unit_mesh.nt):
        assert np.allclose(g.values[m - 1], xb + 10 * yb + 100 * unit_mesh.t[m], atol=1e-15)


# ---------------------------------------------------------------- field io

def _rows(path):
    """The row indices m and times t of a field dump."""
    lines = path.read_text().splitlines()[1:]
    return [int(ln.split(",")[0]) for ln in lines], [float(ln.split(",")[1]) for ln in lines]


def test_time_field_csv_roundtrip(tmp_path, unit_mesh):
    # a node field has the rows m = 0..nt, an unknown the rows m = 1..nt
    rng = np.random.default_rng(3)
    nt = unit_mesh.nt
    for kind, first in ((TimeField, 0), (IntervalField, 1)):
        f = kind(unit_mesh, rng.standard_normal(kind.shape(unit_mesh)))
        path = tmp_path / f"{kind.__name__}.csv"
        dump_time_field(f, "f", path)
        assert _rows(path) == (list(range(first, nt + 1)), list(unit_mesh.t[first:]))
        g = load_time_field(path, kind, unit_mesh)
        assert type(g) is kind and g.values.tobytes() == f.values.tobytes()


def test_load_rejects_a_dump_of_the_other_kind(tmp_path, unit_mesh):
    # e.g. a control bound file written with a row for m = 0
    nt = unit_mesh.nt
    for kind, other, rows in (
            (IntervalField, TimeField, "m = 1..4, got the rows m = 0, 1, 2, 3, 4"),
            (TimeField, IntervalField, "m = 0..4, got the rows m = 1, 2, 3, 4")):
        path = tmp_path / f"{other.__name__}.csv"
        dump_time_field(other.constant(unit_mesh, 0.5), "f", path)
        with pytest.raises(ValueError, match=f"expected the rows {rows}"):
            load_time_field(path, kind, unit_mesh)
    # a boundary dump with a row for m = 0
    path = tmp_path / "b.csv"
    path.write_text(f"field,b,nb,{unit_mesh.n_boundary},nt,{nt}\n" + "".join(
        f"{m},{unit_mesh.t[m]},{','.join(['0'] * unit_mesh.n_boundary)}\n"
        for m in range(nt + 1)))
    with pytest.raises(ValueError, match="expected the rows m = 1..4, got the rows m = 0, 1,"):
        load_boundary_field(path, unit_mesh)


def test_boundary_field_csv_roundtrip(tmp_path, unit_mesh):
    rng = np.random.default_rng(4)
    f = BoundaryTimeField(unit_mesh, rng.standard_normal(BoundaryTimeField.shape(unit_mesh)))
    path = tmp_path / "b.csv"
    dump_boundary_field(f, "b", path)
    assert _rows(path) == (list(range(1, unit_mesh.nt + 1)), list(unit_mesh.t[1:]))
    g = load_boundary_field(path, unit_mesh)
    assert g.values.tobytes() == f.values.tobytes()


def test_space_slice_csv_roundtrip(tmp_path, unit_mesh):
    rng = np.random.default_rng(5)
    s = rng.standard_normal(unit_mesh.shape_space)
    path = tmp_path / "s.csv"
    dump_space_slice(s, "y0", path, unit_mesh)
    t = load_space_slice(path, unit_mesh)
    assert np.array_equal(s, t)


def test_load_rejects_wrong_dims(tmp_path, unit_mesh):
    f = TimeField.zeros(unit_mesh)
    path = tmp_path / "f.csv"
    dump_time_field(f, "f", path)
    other = build_mesh(5, 5, 3, 1, 1, 1)
    with pytest.raises(ValueError, match="do not match"):
        load_time_field(path, TimeField, other)


def test_constructor_copies_and_wrap_freezes_in_place(unit_mesh):
    # the public constructor copies what it is given and leaves it writable;
    # the library's no-copy constructor freezes the array it has built
    vals = np.ones((unit_mesh.nt + 1, unit_mesh.ny, unit_mesh.nx))
    f = TimeField(unit_mesh, vals)
    assert not np.shares_memory(f.values, vals) and vals.flags.writeable
    g = TimeField._wrap(unit_mesh, vals)
    assert g.values is vals and not vals.flags.writeable
    bad = np.ones(BoundaryTimeField.shape(unit_mesh))
    bad[1, 0] = np.inf
    with pytest.raises(ValueError, match="BoundaryTimeField values must be finite"):
        BoundaryTimeField._wrap(unit_mesh, bad)
    with pytest.raises(ValueError, match="shape"):
        TimeField._wrap(unit_mesh, np.ones((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_every_constructor_rejects_each_nonfinite_value(unit_mesh, bad):
    # the fast test (a sum of squares) and the exact one (non-contiguous
    # arrays, or a sum that is not finite) must both reject NaN, +inf and -inf
    for kind in (TimeField, BoundaryTimeField):
        for at in (0, 7, -1):
            vals = np.zeros(kind.shape(unit_mesh))
            vals.flat[at] = bad
            for build in (lambda: kind(unit_mesh, vals),
                          lambda: kind._wrap(unit_mesh, vals.copy()),
                          lambda: kind._wrap(unit_mesh, np.asfortranarray(vals))):
                with pytest.raises(ValueError, match=f"{kind.__name__} values must be finite"):
                    build()
        with pytest.raises(ValueError, match="finite"):
            kind.constant(unit_mesh, bad)


def test_a_zero_stride_view_is_checked_by_its_one_number(unit_mesh, monkeypatch):
    # a constant's finiteness is its one number's: the elementwise test over
    # the view, which reads every entry, is never called on it
    checked = []
    isfinite = np.isfinite

    def spy(x, *args, **kwargs):
        checked.append(np.shape(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", spy)
    for kind in (TimeField, BoundaryTimeField):
        shape = kind.shape(unit_mesh)
        for c in (0.0, -0.0, 0.5, 1e308):
            f = kind.constant(unit_mesh, c)
            assert f.values.strides == (0,) * len(shape)
            kind._wrap(unit_mesh, np.broadcast_to(np.float64(c), shape))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"{kind.__name__} values must be finite"):
                kind.constant(unit_mesh, bad)
            with pytest.raises(ValueError, match=f"{kind.__name__} values must be finite"):
                kind._wrap(unit_mesh, np.broadcast_to(np.float64(bad), shape))
    assert not any(len(s) > 1 for s in checked), checked


def test_finite_field_whose_squares_overflow_is_accepted_without_a_warning(unit_mesh):
    # two entries of 1e308: their sum and their squares overflow, so the fast
    # test is not finite and the exact test must accept the field; no
    # floating-point warning may be left behind, for it or a later ufunc
    for kind in (TimeField, BoundaryTimeField):
        vals = np.zeros(kind.shape(unit_mesh))
        vals.flat[0] = vals.flat[1] = 1e308
        vals.flat[2] = -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = kind._wrap(unit_mesh, vals.copy())
            g = kind(unit_mesh, vals)
            h = kind._wrap(unit_mesh, np.asfortranarray(vals))
            np.add(np.ones(3), 1.0)
        for field in (f, g, h):
            assert field.values.tobytes() == vals.tobytes()


# ------------------------------------------------------- constant storage

# constants whose squares and sums round, so a change of summation order shows
AWKWARD = (0.1, 1.0 / 3.0, -0.7, 10.0, 1e6, 0.0, -0.0)
KINDS = (TimeField, IntervalField, BoundaryTimeField)


def _materialised(kind, mesh, c):
    return kind(mesh, np.full(kind.shape(mesh), c))


@pytest.mark.parametrize("kind", KINDS)
def test_constant_fields_are_read_only_zero_stride_views_of_one_number(kind, unit_mesh):
    for f, c in [(kind.constant(unit_mesh, c), c) for c in AWKWARD] + [
            (kind.zeros(unit_mesh), 0.0)]:
        assert f.values.shape == kind.shape(unit_mesh)
        assert f.values.strides == (0,) * f.values.ndim
        assert not f.values.flags.writeable
        assert f.values.tobytes() == np.full(kind.shape(unit_mesh), c).tobytes()
        with pytest.raises(ValueError):
            f.values[(1,) * f.values.ndim] = 2.0
    with pytest.raises(ValueError, match="finite"):
        kind.constant(unit_mesh, np.inf)


@pytest.mark.parametrize("dims", [(5, 5, 4), (9, 7, 8), (33, 33, 32), (4, 3, 100)])
def test_constant_views_compute_like_materialised_arrays(dims):
    nx, ny, nt = dims
    mesh = build_mesh(nx, ny, nt, 1.0, 1.0, 1.0)
    rng = np.random.default_rng(nx * nt)
    for kind, w in ((IntervalField, mesh.w_space), (BoundaryTimeField, mesh.w_arc)):
        r = rng.standard_normal(kind.shape(mesh))
        for c in AWKWARD:
            view, full = kind.constant(mesh, c).values, _materialised(kind, mesh, c).values
            for fn in (lambda a: (r - a) * 2.0 + a,
                       lambda a: np.maximum(r * 3.0 + a, 0.0),
                       lambda a: np.abs(a[1:] - r[1:]),
                       lambda a: np.any(a > r),
                       lambda a: inner(mesh, w, a, a),
                       lambda a: inner(mesh, w, a, r),
                       lambda a: inner(mesh, w, r, a),
                       lambda a: clamp(r, a, a + 0.5),
                       lambda a: clamp(r, -abs(a) - 0.5, abs(a)),
                       lambda a: clamp(a, -r * r, r * r)):
                assert np.asarray(fn(view)).tobytes() == np.asarray(fn(full)).tobytes(), c
            lo, hi = kind.constant(mesh, c - 0.25), kind.constant(mesh, c + 0.25)
            assert (clamp(r, lo.values, hi.values).tobytes()
                    == clamp(r, _materialised(kind, mesh, c - 0.25).values,
                             _materialised(kind, mesh, c + 0.25).values).tobytes())


@pytest.mark.parametrize("kind", KINDS)
def test_operand_is_the_one_number_of_a_constant_field(kind, unit_mesh):
    for c in AWKWARD:
        a = operand(kind.constant(unit_mesh, c))
        assert a.shape == () and not a.flags.writeable
        assert a.tobytes() == np.float64(c).tobytes()
    full = _materialised(kind, unit_mesh, 0.5)
    assert operand(full) is full.values


@pytest.mark.parametrize("dims", [(5, 5, 4), (33, 33, 32)])
def test_constant_operands_compute_like_materialised_arrays(dims):
    # the 0-d operand of a constant field gives the materialised array's bits
    # in every elementwise operation the solver makes with it
    nx, ny, nt = dims
    mesh = build_mesh(nx, ny, nt, 1.0, 1.0, 1.0)
    rng = np.random.default_rng(nx * nt)
    for kind in KINDS:
        r = rng.standard_normal(kind.shape(mesh))
        for c in AWKWARD:
            scalar = operand(kind.constant(mesh, c))
            full = _materialised(kind, mesh, c).values
            for fn in (lambda a: r - a,
                       lambda a: a - r,
                       lambda a: (r - a) * 2.0 + a,
                       lambda a: np.maximum(r * 3.0 + a, 0.0),
                       lambda a: clamp(r, a, a + 0.5),
                       lambda a: clamp(r, -abs(a) - 0.5, abs(a))):
                assert fn(scalar).tobytes() == fn(full).tobytes(), c


def test_constant_field_copies_are_contiguous(unit_mesh):
    for kind in KINDS:
        c = kind.constant(unit_mesh, 0.3)
        for values in (kind(unit_mesh, c.values).values, c.values.copy(),
                       clamp(c.values, kind.zeros(unit_mesh).values,
                             kind.constant(unit_mesh, 1.0).values)):
            assert values.flags.c_contiguous
            assert values.tobytes() == c.values.tobytes()


def test_constant_field_csv_roundtrip(tmp_path, unit_mesh):
    def load_boundary(path, kind, mesh):
        return load_boundary_field(path, mesh)

    for kind, dump, load in ((TimeField, dump_time_field, load_time_field),
                             (IntervalField, dump_time_field, load_time_field),
                             (BoundaryTimeField, dump_boundary_field, load_boundary)):
        for c in AWKWARD:
            path = tmp_path / f"{kind.__name__}.csv"
            dump(kind.constant(unit_mesh, c), "c", path)
            g = load(path, kind, unit_mesh)
            assert g.values.flags.c_contiguous
            assert g.values.tobytes() == np.full(kind.shape(unit_mesh), c).tobytes()


# ------------------------------------------------------------------- clamp

SIGNED = (-0.0, 0.0, -1.0, 1.0, 0.5)


def _clamp_cases(rng, n):
    """(x, lo, hi) with lo <= hi: random triples, values on the bounds and
    degenerate intervals (lo == hi)."""
    x = 2.0 * rng.standard_normal(n)
    lo = rng.standard_normal(n)
    hi = lo + np.abs(rng.standard_normal(n))
    hi[::5] = lo[::5]
    x[1::7] = lo[1::7]
    x[2::7] = hi[2::7]
    return x, lo, hi


@pytest.mark.parametrize("n", [1, 3, 17, 1000, 100_003])
def test_clamp_matches_clip_bit_for_bit(n):
    x, lo, hi = _clamp_cases(np.random.default_rng(n), n)
    expected = np.clip(x, lo, hi).tobytes()
    assert clamp(x, lo, hi).tobytes() == expected
    out = x.copy()
    assert clamp(out, lo, hi, out=out) is out
    assert out.tobytes() == expected


@pytest.mark.parametrize("n", [1, 2, 17, 100])
def test_clamp_matches_clip_on_signed_zeros_for_any_bound_storage(n):
    # np.clip with materialised bounds is the reference; clamp must give its
    # bits with the bounds as arrays, constant views, 0-d arrays or scalars,
    # and with x a view
    def view(c):
        return np.ndarray((n,), np.float64, np.array([c]), 0, (0,))

    def storages(c):
        # materialised, a constant view, a 0-d array (`operand`) and a scalar
        return np.full(n, c), view(c), np.array(c), c

    for x, lo, hi in itertools.product(SIGNED, repeat=3):
        if lo > hi:
            continue
        expected = np.clip(np.full(n, x), np.full(n, lo), np.full(n, hi)).tobytes()
        for xs in (np.full(n, x), view(x)):
            for los in storages(lo):
                for his in storages(hi):
                    assert clamp(xs, los, his).tobytes() == expected, (x, lo, hi)


@pytest.mark.parametrize("n", [1, 3, 17, 1000, 100_003])
def test_clamp_with_scalar_bounds_matches_clip_with_materialised_ones(n):
    # random x with values on the bounds, for box and degenerate intervals
    rng = np.random.default_rng(n)
    for lo, hi in ((-0.5, 0.75), (0.25, 0.25), (-1.0, 0.0), (0.0, 1.0)):
        x = 2.0 * rng.standard_normal(n)
        x[1::7] = lo
        x[2::7] = hi
        x[3::11] = -0.0
        expected = np.clip(x, np.full(n, lo), np.full(n, hi)).tobytes()
        for los, his in ((lo, hi), (np.array(lo), np.array(hi))):
            assert clamp(x, los, his).tobytes() == expected
            out = x.copy()
            assert clamp(out, los, his, out=out).tobytes() == expected
