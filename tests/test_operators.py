import tracemalloc

import numpy as np
import pytest

from almpde.config import build_run, parse_config
from almpde.grid import build_mesh, space_slice_from_function
from almpde.operators import (BandedOperator, DiffusionCoefficients, SeparableOperator,
                              assemble_operator, separable_basis)

from conftest import apply_a


def discrete_rate(h):
    """Eigenvalue of the discrete 1-D Neumann second difference for cos(pi x)."""
    return (2.0 - 2.0 * np.cos(np.pi * h)) / h ** 2


def test_constants_in_kernel(unit_mesh):
    op = assemble_operator(DiffusionCoefficients.unit(unit_mesh))
    ones = np.ones(unit_mesh.shape_space)
    assert np.abs(apply_a(op, ones)).max() <= 1e-13


def test_constants_in_kernel_variable_coeffs():
    rng = np.random.default_rng(0)
    m = build_mesh(7, 6, 2, 1.3, 0.8, 1.0)
    co = DiffusionCoefficients(m, rng.uniform(0.5, 3.0, m.shape_space),
                               rng.uniform(0.5, 3.0, m.shape_space))
    op = assemble_operator(co)
    assert np.abs(apply_a(op, np.ones(m.shape_space))).max() <= 1e-12


def test_matrix_invariants():
    m = build_mesh(6, 5, 2, 1.0, 1.0, 1.0)
    rng = np.random.default_rng(1)
    co = DiffusionCoefficients(m, rng.uniform(0.5, 2.0, m.shape_space), 1.0)
    A = assemble_operator(co).matrix
    assert np.abs(A - A.T).max() == 0.0
    assert np.abs(A.sum(axis=1)).max() <= 1e-12
    eigs = np.linalg.eigvalsh(A)
    assert eigs.min() >= -1e-10


def test_matrix_matches_stencil_apply():
    m = build_mesh(6, 5, 2, 1.0, 1.0, 1.0)
    rng = np.random.default_rng(2)
    co = DiffusionCoefficients(m, rng.uniform(0.5, 2.0, m.shape_space),
                               rng.uniform(0.5, 2.0, m.shape_space))
    op = assemble_operator(co)
    f = rng.standard_normal(m.shape_space)
    via_matrix = (op.matrix @ f.ravel()).reshape(m.shape_space)
    assert np.allclose(apply_a(op, f), via_matrix, atol=1e-13)


def test_cosine_mode_is_exact_eigenvector():
    m = build_mesh(33, 33, 2, 1.0, 1.0, 1.0)
    op = assemble_operator(DiffusionCoefficients.unit(m))
    f = space_slice_from_function(m, lambda x, y: np.cos(np.pi * x) + 0.0 * y)
    lam = discrete_rate(m.hx)
    assert np.abs(apply_a(op, f) / m.w_space - lam * f).max() <= 1e-11
    # discrete rate approximates pi^2 at second order in h
    assert abs(lam - np.pi ** 2) / np.pi ** 2 <= m.hx ** 2


def test_cosine_mode_interior_accuracy_refines():
    # sup-normed residual against the continuum rate pi^2; second order in h
    errs = []
    for nx in (17, 33, 65):
        m = build_mesh(nx, nx, 2, 1.0, 1.0, 1.0)
        op = assemble_operator(DiffusionCoefficients.unit(m))
        f = space_slice_from_function(m, lambda x, y: np.cos(np.pi * x) + 0.0 * y)
        Af = apply_a(op, f) / m.w_space
        interior = (slice(1, -1), slice(1, -1))
        num = np.abs(Af[interior] - np.pi ** 2 * f[interior]).max()
        errs.append(num / (np.pi ** 2 * np.abs(f).max()))
        assert errs[-1] <= m.hx ** 2
    assert errs[2] < errs[1] < errs[0]


def test_scaled_coefficient_doubles_rate():
    m = build_mesh(33, 17, 2, 1.0, 1.0, 1.0)
    op = assemble_operator(DiffusionCoefficients(m, 2.0, 1.0))
    f = space_slice_from_function(m, lambda x, y: np.cos(np.pi * x) + 0.0 * y)
    lam = 2.0 * discrete_rate(m.hx)
    assert np.abs(apply_a(op, f) / m.w_space - lam * f).max() <= 1e-10
    assert abs(lam - 2 * np.pi ** 2) / (2 * np.pi ** 2) <= m.hx ** 2


def test_rejects_nonelliptic_coefficients(unit_mesh):
    with pytest.raises(ValueError, match="elliptic"):
        DiffusionCoefficients(unit_mesh, 0.0, 1.0)
    a = np.ones(unit_mesh.shape_space)
    a[2, 2] = -0.5
    with pytest.raises(ValueError, match="elliptic"):
        DiffusionCoefficients(unit_mesh, a, 1.0)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_rejects_non_finite_coefficients(unit_mesh, bad):
    # a min-based ellipticity check passes +inf, and NaN in a22 when the two
    # minima are combined with Python's min; both are rejected before any
    # assembly
    a = np.ones(unit_mesh.shape_space)
    a[3, 1] = bad
    for a11, a22 in ((a, 1.0), (1.0, a), (bad, 1.0), (1.0, bad)):
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            DiffusionCoefficients(unit_mesh, a11, a22)


def test_step_factor_is_upper_band_of_the_step_matrix():
    # variable coefficients on a rectangle (nx != ny), so a coupling stored
    # at the wrong band offset cannot go unnoticed
    rng = np.random.default_rng(5)
    m = build_mesh(7, 4, 3, 1.2, 0.7, 0.6)
    co = DiffusionCoefficients(m, rng.uniform(0.5, 2.0, m.shape_space),
                               rng.uniform(0.5, 2.0, m.shape_space))
    op = assemble_operator(co)
    band = op.factor
    u, n = m.nx, m.nx * m.ny
    assert band.shape == (u + 1, n)
    # upper layout: band[u - d, j] = U[j - d, j]
    U = np.zeros((n, n))
    for d in range(u + 1):
        U[np.arange(n - d), np.arange(d, n)] = band[u - d, d:]
        assert not band[u - d, :d].any()
    K = np.diag(m.w_space.ravel()) + m.dt * op.matrix
    assert np.abs(U.T @ U - K).max() <= 1e-14 * np.abs(K).max()
    # a C-ordered band is copied by the LAPACK wrapper on every solve: 44 us
    # against 26 us per solve at 33x33, 367 us against 136 us at 65x65
    assert band.flags.f_contiguous


def test_constant_coefficients_select_the_separable_path(tmp_path):
    # the step path follows from the coefficients alone: each of a11 and
    # a22 constant on the mesh, given as a number or as an array, selects
    # the separable path; one coefficient that varies selects the banded one
    m = build_mesh(7, 4, 3, 1.2, 0.7, 0.6)
    varying = np.linspace(0.5, 2.0, m.nx * m.ny).reshape(m.shape_space)
    constant = np.full(m.shape_space, 1.7)
    for a11, a22 in ((1.0, 1.0), (1.7, 0.6), (constant, 0.6), (constant, constant)):
        assert type(assemble_operator(DiffusionCoefficients(m, a11, a22))) is SeparableOperator
    for a11, a22 in ((varying, 1.0), (1.0, varying), (constant, varying)):
        assert type(assemble_operator(DiffusionCoefficients(m, a11, a22))) is BandedOperator
    cfg = tmp_path / "a11.cfg"
    cfg.write_text("problem.preset = paper_example_sec5\nproblem.a11 = 2\n")
    spec, _ = build_run(parse_config(str(cfg)))
    op = spec.operator()
    assert type(op) is SeparableOperator and (op.a11, op.a22) == (2.0, 1.0)


def test_separable_basis_diagonalizes_the_step_matrix():
    # V = V_y (x) V_x in row-major node order: V^T M V = I and
    # V^T (M + dt A) V = diag(1 / d), on a rectangle with nx != ny, hx != hy
    # and a11 != a22, so that a mixed-up axis or coefficient shows
    m = build_mesh(7, 4, 3, 1.2, 0.7, 0.6)
    op = assemble_operator(DiffusionCoefficients(m, 1.7, 0.6))
    vx, vy, d = separable_basis(m, 1.7, 0.6)
    V = np.kron(vy, vx)
    M = np.diag(m.w_space.ravel())
    assert np.abs(V.T @ M @ V - np.eye(V.shape[0])).max() <= 1e-14
    K = V.T @ (M + m.dt * op.matrix) @ V
    assert np.abs(K - np.diag(1.0 / d.ravel())).max() <= 1e-14 * np.abs(K).max()
    # the basis and its work array are built on the first sweep, not with
    # the operator
    assert "basis" not in vars(op)
    assert op.basis[5].shape == (m.nt,) + m.shape_space


def test_separable_sweep_runs_its_gemms_per_slice_against_contiguous_bases():
    # the GEMMs along x run slice by slice against V_x^T: against the
    # transposed view a batched product took 69-72 us instead of 36-37 us at
    # 33x33x32 (one thread, OpenBLAS 0.3.31)
    m = build_mesh(33, 33, 32, 1.0, 1.0, 0.5)
    op = assemble_operator(DiffusionCoefficients(m, 1.7, 0.6))
    vx, vx_t = op.basis[:2]
    assert vx_t.flags.c_contiguous and np.array_equal(vx_t, vx.T)
    # warm steps write into z and the work array and allocate no field:
    # less than one slice in both directions
    z = np.random.default_rng(3).standard_normal((m.nt, m.nx * m.ny))
    op.steps(z, False, 1)
    tracemalloc.start()
    try:
        op.steps(z, False, 1)
        op.steps(z, True, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * m.nx * m.ny
