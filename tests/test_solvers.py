import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from almpde.grid import (build_mesh, TimeField, IntervalField, BoundaryTimeField,
                         space_slice_from_function, l2_norm_omega_t)
from almpde.operators import DiffusionCoefficients, FluxStencil, assemble_operator
from almpde.solvers import solve_forward, solve_adjoint

from conftest import apply_a


def unit_op(mesh):
    return assemble_operator(DiffusionCoefficients.unit(mesh))


# ------------------------------------------------------------ forward solve

def varcoef_op(m, seed):
    rng = np.random.default_rng(seed)
    return assemble_operator(DiffusionCoefficients(
        m, rng.uniform(0.5, 2.0, m.shape_space), rng.uniform(0.5, 2.0, m.shape_space)))


def const_op(m):
    """a11 = 1.7 and a22 = 0.6: the separable path with unequal coefficients."""
    return assemble_operator(DiffusionCoefficients(m, 1.7, 0.6))


CONSTANT_STATE_CASES = {
    # h = dt = 0.25 and unit coefficients: every product is exact here
    "unit_5x5": lambda: unit_op(build_mesh(5, 5, 4, 1.0, 1.0, 1.0)),
    # seeded coefficients on a rectangle: the conductances round, so a defect
    # taken in matrix form (sums of products of matrix entries) is not zero
    "varcoef_7x4": lambda: varcoef_op(build_mesh(7, 4, 5, 1.3, 0.7, 0.9), 13),
    # constant coefficients on that rectangle, on the separable path: the
    # GEMMs of the eigenbasis sum products too, and zero sources must still
    # give exact zeros
    "const_7x4": lambda: const_op(build_mesh(7, 4, 5, 1.3, 0.7, 0.9)),
}


@pytest.mark.parametrize("case", CONSTANT_STATE_CASES)
def test_constant_state_is_preserved(case):
    op = CONSTANT_STATE_CASES[case]()
    m = op.mesh
    const = np.full(m.shape_space, 3.0)
    # a steady slice has an exactly zero defect, so both sweeps are exact
    for flux in (None, BoundaryTimeField.zeros(m)):
        y = solve_forward(m, op, IntervalField.zeros(m), flux, const)
        assert np.abs(y.values - 3.0).max() == 0.0
    p = solve_adjoint(m, op, IntervalField.zeros(m), const)
    assert np.abs(p.values - 3.0).max() == 0.0


def test_constant_source_ramps_exactly(unit_mesh):
    op = unit_op(unit_mesh)
    y = solve_forward(unit_mesh, op, IntervalField.constant(unit_mesh, 2.0), None,
                      np.zeros(unit_mesh.shape_space))
    for m in range(unit_mesh.nt + 1):
        assert np.abs(y.values[m] - 2.0 * m * unit_mesh.dt).max() <= 1e-12
    # a constant source is read as its one number, whatever its field's kind
    y_nodes = solve_forward(unit_mesh, op, TimeField.constant(unit_mesh, 2.0), None,
                            np.zeros(unit_mesh.shape_space))
    assert y_nodes.values.tobytes() == y.values.tobytes()


def test_cosine_decay_within_five_percent():
    m = build_mesh(33, 33, 64, 1.0, 1.0, 0.1)
    op = unit_op(m)
    y0 = space_slice_from_function(m, lambda x, y: np.cos(np.pi * x) + 0.0 * y)
    y = solve_forward(m, op, IntervalField.zeros(m), None, y0)
    exact = TimeField.from_function(
        m, lambda x, y_, t: np.exp(-np.pi ** 2 * t) * np.cos(np.pi * x) + 0.0 * y_)
    err = l2_norm_omega_t(TimeField(m, y.values - exact.values)) / l2_norm_omega_t(exact)
    assert err <= 0.05


def test_cosine_decay_on_rectangle_with_anisotropy():
    # mode cos(pi x / lx) on [0,2]x[0,1] with a11 = 2 decays at 2 (pi/lx)^2
    m = build_mesh(33, 9, 64, 2.0, 1.0, 0.2)
    op = assemble_operator(DiffusionCoefficients(m, 2.0, 0.7))
    y0 = space_slice_from_function(m, lambda x, y: np.cos(np.pi * x / 2.0) + 0.0 * y)
    y = solve_forward(m, op, IntervalField.zeros(m), None, y0)
    rate = 2.0 * (np.pi / 2.0) ** 2
    exact = TimeField.from_function(
        m, lambda x, y_, t: np.exp(-rate * t) * np.cos(np.pi * x / 2.0) + 0.0 * y_)
    err = l2_norm_omega_t(TimeField(m, y.values - exact.values)) / l2_norm_omega_t(exact)
    assert err <= 0.05


def test_mean_conservation():
    rng = np.random.default_rng(3)
    m = build_mesh(17, 17, 20, 1.0, 1.0, 0.5)
    op = unit_op(m)
    y0 = rng.uniform(0.5, 2.0, m.shape_space)
    y = solve_forward(m, op, IntervalField.zeros(m), None, y0)
    masses = np.array([np.sum(m.w_space * y.values[k]) for k in range(m.nt + 1)])
    assert np.abs(masses - masses[0]).max() / abs(masses[0]) <= 1e-10


def test_discrete_maximum_principle():
    rng = np.random.default_rng(4)
    m = build_mesh(17, 17, 12, 1.0, 1.0, 0.2)
    op = unit_op(m)
    y = solve_forward(m, op, IntervalField.zeros(m), None,
                      rng.uniform(-1.0, 1.0, m.shape_space))
    sups = [np.abs(y.values[k]).max() for k in range(m.nt + 1)]
    assert all(sups[k + 1] <= sups[k] + 1e-12 for k in range(m.nt))


def test_boundary_flux_mass_ramp(unit_mesh):
    # d/dt of the total mass equals the boundary flux integral, exactly in
    # the discrete system
    op = unit_op(unit_mesh)
    v = BoundaryTimeField.constant(unit_mesh, 0.7)
    y = solve_forward(unit_mesh, op, IntervalField.zeros(unit_mesh), v,
                      np.zeros(unit_mesh.shape_space))
    perim = 2 * (unit_mesh.lx + unit_mesh.ly)
    for m in range(unit_mesh.nt + 1):
        mass = np.sum(unit_mesh.w_space * y.values[m])
        assert mass == pytest.approx(0.7 * perim * m * unit_mesh.dt, abs=1e-12)


def test_forward_shape_validation(unit_mesh):
    op = unit_op(unit_mesh)
    with pytest.raises(ValueError, match="initial slice"):
        solve_forward(unit_mesh, op, IntervalField.zeros(unit_mesh), None, np.zeros((3, 3)))


# ------------------------------------------------------------ adjoint solve

def test_adjoint_zero_data(unit_mesh):
    op = unit_op(unit_mesh)
    p = solve_adjoint(unit_mesh, op, IntervalField.zeros(unit_mesh),
                      np.zeros(unit_mesh.shape_space))
    assert p.values.shape == IntervalField.shape(unit_mesh) and np.all(p.values == 0.0)


# the adjoint tests below run on both step paths: unit coefficients select
# the separable one, seeded variable coefficients the banded one
ADJOINT_PATHS = (unit_op, lambda m: varcoef_op(m, 41))


def test_adjoint_constant_source_ramps_backward(unit_mesh):
    for make_op in ADJOINT_PATHS:
        op = make_op(unit_mesh)
        p = solve_adjoint(unit_mesh, op, IntervalField.constant(unit_mesh, 1.5),
                          np.zeros(unit_mesh.shape_space))
        # the terminal correction dt K^{-1} M mu_nt adds one step's source;
        # the sweep stops at p_1, in row 0
        for m in range(1, unit_mesh.nt + 1):
            ramp = 1.5 * (unit_mesh.nt - m + 1) * unit_mesh.dt
            assert np.abs(p.values[m - 1] - ramp).max() <= 1e-12


def test_one_step_adjoint_is_its_corrected_terminal_slice():
    # with nt = 1 the sweep is one step, from the terminal slice to p_1
    m = build_mesh(5, 5, 1, 1.0, 1.0, 0.25)
    for make_op in ADJOINT_PATHS:
        op = make_op(m)
        terminal = np.full(m.shape_space, 0.5)
        p = solve_adjoint(m, op, IntervalField.constant(m, 2.0), terminal)
        assert p.values.shape == (1, 5, 5)
        assert np.abs(p.values[0] - (0.5 + 2.0 * m.dt)).max() <= 1e-14


def test_adjoint_terminal_assignment(unit_mesh):
    rng = np.random.default_rng(5)
    terminal = rng.standard_normal(unit_mesh.shape_space)
    for make_op in ADJOINT_PATHS:
        op = make_op(unit_mesh)
        p = solve_adjoint(unit_mesh, op, IntervalField.zeros(unit_mesh), terminal)
        assert np.array_equal(p.values[-1], terminal)


def test_discrete_adjoint_transpose_identity():
    # <q, du>_dtM over steps equals <w, dy>_dtM over the slices m = 1..nt plus
    # the terminal pairing in the (M + dt A) inner product; both sides
    # evaluated with independent loops.  Unequal constant coefficients and
    # seeded variable ones, over one step and over five
    rng = np.random.default_rng(7)
    for nt in (1, 5):
        m = build_mesh(7, 6, nt, 1.3, 0.9, 0.7)
        for op in (assemble_operator(DiffusionCoefficients(m, 1.5, 0.8)), varcoef_op(m, 41)):
            du = IntervalField(m, rng.standard_normal(IntervalField.shape(m)))
            w = IntervalField(m, rng.standard_normal(IntervalField.shape(m)))
            terminal = rng.standard_normal(m.shape_space)
            dy = solve_forward(m, op, du, None, np.zeros(m.shape_space))
            q = solve_adjoint(m, op, w, terminal)
            # row k of an unknown is the slice m = k + 1
            lhs = m.dt * sum(np.sum(m.w_space * q.values[k] * du.values[k])
                             for k in range(m.nt))
            rhs = m.dt * sum(np.sum(m.w_space * w.values[k] * dy.values[k + 1])
                             for k in range(m.nt))
            rhs += np.sum(terminal * (m.w_space * dy.values[-1]
                                      + m.dt * apply_a(op, dy.values[-1])))
            assert abs(lhs - rhs) / max(abs(lhs), 1e-30) <= 1e-8


def test_grid_convergence_of_decay_error():
    errs = []
    for nx, nt in ((17, 16), (33, 64), (65, 256)):
        m = build_mesh(nx, nx, nt, 1.0, 1.0, 0.1)
        op = unit_op(m)
        y0 = space_slice_from_function(m, lambda x, y: np.cos(np.pi * x) + 0.0 * y)
        y = solve_forward(m, op, IntervalField.zeros(m), None, y0)
        exact = TimeField.from_function(
            m, lambda x, y_, t: np.exp(-np.pi ** 2 * t) * np.cos(np.pi * x) + 0.0 * y_)
        errs.append(l2_norm_omega_t(TimeField(m, y.values - exact.values))
                    / l2_norm_omega_t(exact))
    assert errs[2] < errs[1] < errs[0]
    # halving h and quartering dt should shrink the error by roughly 4
    assert errs[1] / errs[2] > 2.5


def test_factored_steps_match_dense_solve():
    # variable coefficients on a rectangle (nx != ny), so a y-coupling stored
    # at the wrong band offset cannot go unnoticed; then the separable path,
    # on the unit square and with unequal constant coefficients on that
    # rectangle, so that a mixed-up axis cannot go unnoticed either
    rng = np.random.default_rng(11)
    m = build_mesh(7, 4, 3, 1.2, 0.7, 0.6)
    co = DiffusionCoefficients(m, rng.uniform(0.5, 2.0, m.shape_space),
                               rng.uniform(0.5, 2.0, m.shape_space))
    for op in (assemble_operator(co), unit_op(build_mesh(5, 5, 4, 1.0, 1.0, 1.0)),
               const_op(m)):
        _check_steps_against_dense_solve(op, rng)


def _check_steps_against_dense_solve(op, rng):
    m = op.mesh
    K = np.diag(m.w_space.ravel()) + m.dt * op.matrix
    mass = m.w_space.ravel()

    def dense_step(prev, source):
        return np.linalg.solve(K, mass * (prev.ravel() + m.dt * source.ravel()))

    def rel_err(x, ref):
        return np.abs(x.ravel() - ref).max() / np.abs(ref).max()

    # row k - 1 of an unknown is the slice m = k
    u = IntervalField(m, rng.standard_normal(IntervalField.shape(m)))
    y = solve_forward(m, op, u, None, rng.standard_normal(m.shape_space))
    for k in range(1, m.nt + 1):
        assert rel_err(y.values[k], dense_step(y.values[k - 1], u.values[k - 1])) <= 1e-12

    # p_nt is the terminal slice plus its correction dt K^{-1} M mu_nt
    mu = IntervalField(m, rng.standard_normal(IntervalField.shape(m)))
    terminal = rng.standard_normal(m.shape_space)
    p = solve_adjoint(m, op, mu, terminal)
    corrected = terminal.ravel() + np.linalg.solve(K, m.dt * mass * mu.values[-1].ravel())
    assert rel_err(p.values[-1], corrected) <= 1e-12
    for k in range(m.nt - 1):
        assert rel_err(p.values[k], dense_step(p.values[k + 1], mu.values[k])) <= 1e-12


def _smooth_field(m, rng, nslices=None):
    """A seeded smooth slice, or nslices of them growing linearly in time."""
    a, b, c = rng.uniform(0.5, 2.0, 3)
    x, y = np.meshgrid(m.x, m.y)
    slice_ = np.cos(np.pi * a * x) * np.sin(np.pi * b * y + c)
    if nslices is None:
        return slice_
    return slice_ * (1.0 + np.linspace(0.0, 1.0, nslices))[:, None, None]


@pytest.mark.parametrize("nx, nt", [(9, 512), (33, 128)])
@pytest.mark.parametrize("data", ["rough", "smooth"])
def test_long_sweeps_match_dense_solve(nx, nt, data):
    # every step of a long sweep against a dense solve from the slice the
    # sweep computed before it; the error is measured against the sweep's
    # largest value, since each step is solved as a deviation from the
    # sweep's starting slice.  Banded path: seeded coefficients on the
    # square; separable path: the unit square, and a11 = 1.7, a22 = 0.6 on
    # a rectangle with about half as many rows
    rng = np.random.default_rng(23)
    m = build_mesh(nx, nx, nt, 1.0, 1.0, 1.0)
    for op in (varcoef_op(m, 29), unit_op(m),
               const_op(build_mesh(nx, nx // 2 + 2, nt, 1.0, 0.7, 1.0))):
        _check_long_sweeps(op, data, rng)


def _check_long_sweeps(op, data, rng):
    m = op.mesh
    nt = m.nt
    K = np.diag(m.w_space.ravel()) + m.dt * op.matrix
    mass = m.w_space.ravel()
    if data == "rough":
        field, slice_ = (lambda: rng.standard_normal((nt,) + m.shape_space),
                         lambda: rng.standard_normal(m.shape_space))
    else:
        field, slice_ = lambda: _smooth_field(m, rng, nt), lambda: _smooth_field(m, rng)

    def max_err(x, prev, sources):
        ref = np.linalg.solve(K, (mass * (prev + m.dt * sources)).T).T
        return np.abs(x - ref).max() / np.abs(x).max()

    u = IntervalField(m, field())
    y = solve_forward(m, op, u, None, slice_()).values.reshape(nt + 1, -1)
    assert max_err(y[1:], y[:-1], u.values.reshape(nt, -1)) <= 1e-13

    mu = IntervalField(m, field())
    p = solve_adjoint(m, op, mu, slice_()).values.reshape(nt, -1)
    assert max_err(p[:-1], p[1:], mu.values.reshape(nt, -1)[:-1]) <= 1e-13


def test_each_sweep_applies_the_stencil_once(monkeypatch):
    # dt A is applied to the starting slice only; every step after it is a
    # mass multiply-add and a banded solve
    rng = np.random.default_rng(31)
    m = build_mesh(7, 4, 6, 1.3, 0.7, 0.9)
    op = varcoef_op(m, 37)
    calls = []
    apply = FluxStencil.apply

    def counted(self, x, out):
        calls.append(1)
        return apply(self, x, out)

    monkeypatch.setattr(FluxStencil, "apply", counted)
    shape = IntervalField.shape(m)
    u = IntervalField(m, rng.standard_normal(shape))
    y0 = rng.standard_normal(m.shape_space)
    a_y0 = op.start_term(y0)
    for flux in (None, BoundaryTimeField(m, rng.standard_normal(BoundaryTimeField.shape(m)))):
        calls.clear()
        solve_forward(m, op, u, flux, y0)
        assert len(calls) == 1
        # given dt A y0, a forward sweep applies no stencil
        calls.clear()
        solve_forward(m, op, u, flux, y0, a_y0)
        assert calls == []
    mu = IntervalField(m, rng.uniform(0.5, 1.0, shape))
    assert np.all(mu.values[-1] != 0.0)
    calls.clear()
    solve_adjoint(m, op, mu, rng.standard_normal(m.shape_space))
    assert len(calls) == 1


@pytest.mark.parametrize("case", CONSTANT_STATE_CASES)
def test_forward_sweep_with_start_term_is_bit_identical(case):
    # dt A y0 taken once and handed to the sweep gives the bits of the sweep
    # that applies the stencil itself, with and without a boundary flux
    op = CONSTANT_STATE_CASES[case]()
    m = op.mesh
    rng = np.random.default_rng(29)
    u = IntervalField(m, rng.standard_normal(IntervalField.shape(m)))
    y0 = rng.standard_normal(m.shape_space)
    a_y0 = op.start_term(y0)
    assert a_y0.shape == (m.nx * m.ny,)
    # the stencil's conductances are scaled by dt before the differences
    reference = m.dt * apply_a(op, y0).ravel()
    assert np.abs(a_y0 - reference).max() <= 1e-14 * np.abs(reference).max()
    for flux in (None, BoundaryTimeField(m, rng.standard_normal(BoundaryTimeField.shape(m)))):
        plain = solve_forward(m, op, u, flux, y0)
        assert np.array_equal(solve_forward(m, op, u, flux, y0, a_y0).values, plain.values)


def test_sweeps_reject_operator_of_another_mesh(unit_mesh):
    other = build_mesh(5, 5, 8, 1.0, 1.0, 1.0)
    op = unit_op(other)
    zeros = np.zeros(unit_mesh.shape_space)
    with pytest.raises(ValueError, match="different mesh"):
        solve_forward(unit_mesh, op, IntervalField.zeros(unit_mesh), None, zeros)
    with pytest.raises(ValueError, match="different mesh"):
        solve_adjoint(unit_mesh, op, IntervalField.zeros(unit_mesh), zeros)


def test_cached_step_buffers_carry_no_state():
    # the operator keeps its step stencil, buffers and step data between sweeps;
    # sweeps on other data in between must not change a repeated sweep
    m = build_mesh(7, 4, 5, 1.3, 0.7, 0.9)
    # the banded path's factor and the separable path's basis and work array
    for make_op in (lambda: varcoef_op(m, 19), lambda: const_op(m)):
        _check_repeated_sweep(make_op)


def _check_repeated_sweep(make_op):
    rng = np.random.default_rng(17)
    op = make_op()
    m = op.mesh
    shape = IntervalField.shape(m)
    u = IntervalField(m, rng.standard_normal(shape))
    y0 = rng.standard_normal(m.shape_space)
    first = solve_forward(m, op, u, None, y0)
    solve_adjoint(m, op, IntervalField(m, 1e3 * rng.standard_normal(shape)),
                  1e3 * rng.standard_normal(m.shape_space))
    solve_forward(m, op, IntervalField(m, 1e3 * rng.standard_normal(shape)),
                  BoundaryTimeField(m, 1e3 * rng.standard_normal(BoundaryTimeField.shape(m))),
                  1e3 * rng.standard_normal(m.shape_space))
    again = solve_forward(m, op, u, None, y0)
    fresh = solve_forward(m, make_op(), u, None, y0)
    assert np.array_equal(again.values, first.values)
    assert np.array_equal(fresh.values, first.values)


# ------------------------------------------------------------ constant sources

def _materialised(field):
    """The same field with its values in a contiguous array of its own."""
    return type(field)(field.mesh, field.values)


@pytest.mark.parametrize("nt", [1, 2, 5])
def test_constant_source_sweeps_give_the_bits_of_the_materialised_field(nt):
    # a constant control or multiplier is formed in one slice and, on the
    # separable path, transformed once; the sweep must give the bits of the
    # same sweep over every slice.  Both paths; nt = 1 leaves the adjoint
    # only its terminal row, nt = 2 one row besides it
    m = build_mesh(7, 6, nt, 1.3, 0.9, 0.7)
    rng = np.random.default_rng(43)
    y0 = rng.standard_normal(m.shape_space)
    terminal = rng.standard_normal(m.shape_space)
    for make_op in ADJOINT_PATHS:
        op = make_op(m)
        for value in (0.0, -0.8):
            u = IntervalField.constant(m, value)
            for v in (None, BoundaryTimeField.constant(m, 0.45)):
                y = solve_forward(m, op, u, v, y0)
                reference = solve_forward(m, op, _materialised(u),
                                          None if v is None else _materialised(v), y0)
                assert np.array_equal(y.values, reference.values)
            mu = IntervalField.constant(m, abs(value))
            p = solve_adjoint(m, op, mu, terminal)
            assert np.array_equal(p.values, solve_adjoint(m, op, _materialised(mu),
                                                          terminal).values)
        # a constant control beside a varying flux is not a constant source
        v = BoundaryTimeField(m, rng.standard_normal(BoundaryTimeField.shape(m)))
        assert np.array_equal(solve_forward(m, op, u, v, y0).values,
                              solve_forward(m, op, _materialised(u), v, y0).values)


def test_constant_source_separable_sweep_transforms_its_source_once(monkeypatch):
    # the basis is linear, so the source of a constant control, or the two
    # distinct slices of a constant multiplier's adjoint (s - dt A e and the
    # terminal row's s), go into the basis one slice at a time: two GEMMs
    # over the sweep's nt slices, the two back out, instead of four
    m = build_mesh(9, 9, 6, 1.0, 1.0, 0.5)
    op = unit_op(m)
    rng = np.random.default_rng(47)
    y0 = rng.standard_normal(m.shape_space)
    terminal = rng.standard_normal(m.shape_space)
    seeded = IntervalField(m, rng.standard_normal(IntervalField.shape(m)))
    solve_forward(m, op, seeded, None, y0)   # the basis is built outside the count
    batched = []
    matmul = np.matmul

    def counted(a, b, out):
        batched.append(out.ndim == 3 and out.shape[0] == m.nt)
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", counted)
    for sweep, products in (
            (lambda: solve_forward(m, op, seeded, None, y0), 4),
            (lambda: solve_adjoint(m, op, seeded, terminal), 4),
            (lambda: solve_forward(m, op, IntervalField.constant(m, 0.3),
                                   BoundaryTimeField.constant(m, 0.2), y0), 2),
            (lambda: solve_adjoint(m, op, IntervalField.zeros(m), terminal), 2),
            (lambda: solve_adjoint(m, op, IntervalField.constant(m, 1.5), terminal), 2)):
        batched.clear()
        sweep()
        assert sum(batched) == products


def test_constant_source_banded_sweep_still_solves_every_step(monkeypatch):
    # on the banded path the one slice is copied into the rows: each of the
    # nt steps is still one pbtrs
    from almpde import operators
    m = build_mesh(7, 6, 5, 1.3, 0.9, 0.7)
    op = varcoef_op(m, 41)
    calls = []
    pbtrs = operators.pbtrs

    def counted(block, address):
        calls.append(1)
        return pbtrs(block, address)

    monkeypatch.setattr(operators, "pbtrs", counted)
    solve_forward(m, op, IntervalField.constant(m, 0.3), None, np.zeros(m.shape_space))
    solve_adjoint(m, op, IntervalField.zeros(m), np.ones(m.shape_space))
    assert len(calls) == 2 * m.nt


@pytest.mark.parametrize("make_op", ADJOINT_PATHS, ids=["unit", "varcoef"])
def test_a_forward_sweep_from_rest_returns_its_constant_state_and_marches_nothing(make_op):
    # zero controls and an initial slice that holds one number c: the march
    # would add zero deviations to c, so the sweep returns the constant
    # field, with the bits of the sweep over materialised zero controls
    m = build_mesh(7, 6, 5, 1.3, 0.9, 0.7)
    op = make_op(m)
    calls = []
    steps = op.steps

    def counted(*args):
        calls.append(1)
        return steps(*args)

    op.steps = counted
    zeros = IntervalField(m, np.zeros(IntervalField.shape(m)))
    flux_zeros = BoundaryTimeField(m, np.zeros(BoundaryTimeField.shape(m)))
    for c in (0.0, 1.5, -2.0):
        y0 = np.full(m.shape_space, c)
        for v, v_zeros in ((None, None), (BoundaryTimeField.zeros(m), flux_zeros)):
            calls.clear()
            y = solve_forward(m, op, IntervalField.zeros(m), v, y0)
            assert calls == [] and type(y) is TimeField
            assert not any(y.values.strides) and y.values.item(0) == c
            marched = solve_forward(m, op, zeros, v_zeros, y0)
            assert calls == [1]
            assert y.values.tobytes() == marched.values.tobytes()
    # a -0.0 start, or a -0.0 entry in a +0.0 one, marches: the march's zeros
    # take either sign there
    for y0 in (np.full(m.shape_space, -0.0), np.where(np.eye(6, 7, 1) > 0, -0.0, 0.0)):
        calls.clear()
        y = solve_forward(m, op, IntervalField.zeros(m), None, y0)
        assert calls == [1] and y.values.flags.c_contiguous
    # so does a constant start with a nonzero constant control or flux
    y0 = np.full(m.shape_space, 1.5)
    for u, v in ((IntervalField.constant(m, 0.25), None),
                 (IntervalField.zeros(m), BoundaryTimeField.constant(m, -0.5))):
        calls.clear()
        solve_forward(m, op, u, v, y0)
        assert calls == [1]


def test_sweeps_write_into_out_and_check_it(unit_mesh):
    # out is the array of the returned field, with the bits of a sweep into
    # a new array; one of another shape, dtype or layout is rejected
    m = unit_mesh
    rng = np.random.default_rng(59)
    op = unit_op(m)
    u = IntervalField(m, rng.standard_normal(IntervalField.shape(m)))
    y0 = rng.standard_normal(m.shape_space)
    terminal = rng.standard_normal(m.shape_space)
    for sweep, shape in ((lambda out: solve_forward(m, op, u, None, y0, out=out),
                          TimeField.shape(m)),
                         (lambda out: solve_adjoint(m, op, u, terminal, out=out),
                          IntervalField.shape(m))):
        out = np.full(shape, np.nan)
        field = sweep(out)
        assert field.values is out and not out.flags.writeable
        assert out.tobytes() == sweep(None).values.tobytes()
        wide = np.empty(shape[:-1] + (2 * shape[-1],))
        for bad in (np.empty(shape[1:]), np.empty(shape, dtype=np.float32),
                    wide[..., ::2]):
            with pytest.raises(ValueError, match="^out must be"):
                sweep(bad)


@pytest.mark.parametrize("nt", [1, 2, 5])
def test_each_sweep_makes_one_steps_call_with_its_direction_and_shared_rows(nt):
    # the sweeps hand the operator's step path (nt, n) C-contiguous rows, in
    # one call: forward from row 0, the adjoint reversed; a constant source
    # shares row 0 with all nt forward rows, and with the rows m < nt of the
    # adjoint (its p_nt row has a slice of its own)
    m = build_mesh(7, 6, nt, 1.3, 0.9, 0.7)
    rng = np.random.default_rng(53)
    y0 = rng.standard_normal(m.shape_space)
    terminal = rng.standard_normal(m.shape_space)
    seeded = IntervalField(m, rng.uniform(0.0, 1.0, IntervalField.shape(m)))
    for make_op in ADJOINT_PATHS:
        op = make_op(m)
        calls = []
        steps = op.steps

        def wrapped(z, reverse, shared):
            assert z.shape == (nt, m.nx * m.ny) and z.flags.c_contiguous
            calls.append((reverse, shared))
            return steps(z, reverse, shared)

        op.steps = wrapped
        for sweep, expected in (
                (lambda: solve_forward(m, op, seeded, None, y0), (False, 1)),
                (lambda: solve_forward(m, op, IntervalField.constant(m, 0.3),
                                       BoundaryTimeField.constant(m, 0.2), y0), (False, nt)),
                (lambda: solve_adjoint(m, op, seeded, terminal), (True, 1)),
                (lambda: solve_adjoint(m, op, IntervalField.zeros(m), terminal),
                 (True, nt - 1))):
            calls.clear()
            sweep()
            assert calls == [expected]


def test_one_blas_thread_is_pinned_so_a_129x129x32_separable_sweep_has_one_set_of_bytes():
    # a separable sweep's GEMMs sum in another order when OpenBLAS splits
    # them between threads: at 129x129x32 the bytes of one and two threads
    # differ (OpenBLAS 0.3.31, 2-core VM).  `lapack` sets one thread at
    # import, so a process with no thread variable, or with two threads
    # asked for, gives the bytes of OPENBLAS_NUM_THREADS=1
    from almpde import lapack
    assert lapack.THREAD_SETTER == lapack.THREAD_SETTERS[0]
    code = ("import ctypes, hashlib\n"
            "import numpy as np\n"
            "import numpy.linalg._umath_linalg as umath_linalg\n"
            "from almpde.grid import build_mesh, IntervalField\n"
            "from almpde.operators import DiffusionCoefficients, assemble_operator\n"
            "from almpde.solvers import solve_forward\n"
            "m = build_mesh(129, 129, 32, 1.0, 1.0, 0.5)\n"
            "rng = np.random.default_rng(5)\n"
            "u = IntervalField(m, rng.standard_normal(IntervalField.shape(m)))\n"
            "op = assemble_operator(DiffusionCoefficients.unit(m))\n"
            "y = solve_forward(m, op, u, None, rng.standard_normal(m.shape_space))\n"
            "threads = ctypes.CDLL(umath_linalg.__file__).scipy_openblas_get_num_threads64_()\n"
            "print(type(op).__name__, threads, hashlib.sha256(y.values.tobytes()).hexdigest())\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {name: value for name, value in os.environ.items()
            if not name.endswith("_NUM_THREADS")}
    base["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    out = []
    for threads in (None, "1", "2"):
        env = dict(base) if threads is None else dict(base, OPENBLAS_NUM_THREADS=threads)
        out.append(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True).stdout.split())
    assert out[0][:2] == ["SeparableOperator", "1"]
    assert out[0] == out[1] == out[2]
