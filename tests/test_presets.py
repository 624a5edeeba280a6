import numpy as np
import pytest

from almpde.grid import build_mesh
from almpde.alm import AlmConfig, alm_run
from almpde.presets import PRESETS, build_problem


def test_preset_registry_names():
    assert {"paper_example_sec5", "unconstrained_decay", "boundary_control_demo"} \
        == set(PRESETS)


def test_unknown_preset_rejected(unit_mesh):
    with pytest.raises(ValueError, match="unknown preset"):
        build_problem("nope", unit_mesh)


def test_sec5_preset_data(unit_mesh):
    spec = build_problem("paper_example_sec5", unit_mesh)
    assert np.all(spec.psi.values == 1.0)
    assert spec.alpha == 1.0
    assert not spec.boundary_control_enabled
    # peak of the initial bump touches the obstacle at the center node
    assert spec.y0[2, 2] == pytest.approx(1.0)
    assert spec.y_d.max() == pytest.approx(np.exp(-2 * np.pi), rel=1e-12)
    assert np.all(spec.bounds.ua.values == -1.0) and np.all(spec.bounds.ub.values == 1.0)


def test_unconstrained_decay_target_matches_free_run(unit_mesh):
    spec = build_problem("unconstrained_decay", unit_mesh)
    assert np.all(spec.psi.values == 1e6)
    # the target is the uncontrolled terminal state, so u = 0 is optimal and
    # the terminal mismatch at u = 0 vanishes
    from almpde.solvers import solve_forward
    from almpde.grid import IntervalField
    y = solve_forward(unit_mesh, spec.operator(), IntervalField.zeros(unit_mesh), None, spec.y0)
    assert np.abs(y.values[-1] - spec.y_d).max() <= 1e-12


def test_boundary_control_demo_runs_with_active_flux():
    nx, ny, nt, lx, ly, T = PRESETS["boundary_control_demo"]["default_mesh"]
    mesh = build_mesh(nx, ny, nt, lx, ly, T)
    spec = build_problem("boundary_control_demo", mesh)
    assert spec.boundary_control_enabled
    trace = alm_run(spec, AlmConfig(mu0=0.0, max_outer=10))
    assert trace.termination == "tolerance_met"
    res = trace.final_result
    v = res.v.values
    assert np.abs(v).max() > 1e-3                       # flux actually used
    assert np.all(v >= spec.bounds.va.values - 1e-15)   # and stays in bounds
    assert np.all(v <= spec.bounds.vb.values + 1e-15)
    assert trace.rows[-1].stat_v <= 1e-3
    # the flux tilts along x: inflow on the right edge, outflow on the left
    right = v[:, mesh.boundary_i == mesh.nx - 1]
    left = v[:, (mesh.boundary_i == 0)]
    assert right.mean() > 0 > left.mean()
