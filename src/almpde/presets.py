"""Built-in problem presets.

Each preset supplies a ProblemSpec builder, a default mesh, and config
defaults (multiplier seed etc.) that `parse_config` applies when the keys are
not set explicitly.
"""

import numpy as np

from .grid import IntervalField, TimeField, ControlBounds, space_slice_from_function
from .operators import DiffusionCoefficients
from .cost import ProblemSpec
from .solvers import solve_forward


def _sine_bump(mesh):
    return space_slice_from_function(mesh, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))


def build_paper_example_sec5(mesh):
    """Tracking problem on the unit cylinder with the obstacle psi = 1.

    y0 = sin(pi x) sin(pi y), y_d = exp(-2 pi T) sin(pi x) sin(pi y),
    alpha = 1, distributed control in [-1, 1], homogeneous Neumann boundary
    (boundary control disabled).  A config's problem.alpha replaces alpha
    after the preset is built, so it changes only the cost weight: y_d stays
    exp(-2 pi T) sin(pi x) sin(pi y).
    """
    y0 = _sine_bump(mesh)
    y_d = np.exp(-2.0 * np.pi * mesh.T) * _sine_bump(mesh)
    return ProblemSpec(
        mesh=mesh,
        coeffs=DiffusionCoefficients.unit(mesh),
        y0=y0,
        y_d=y_d,
        psi=TimeField.constant(mesh, 1.0),
        alpha=1.0,
        beta=1.0,
        bounds=ControlBounds.constant(mesh, ua=-1.0, ub=1.0, va=-1.0, vb=1.0),
        boundary_control_enabled=False,
    )


def build_unconstrained_decay(mesh):
    """Inactive obstacle (psi = 1e6) with the free-decay terminal as target.

    The optimal control is u = 0, so the outer loop finishes in one success
    with a zero residual.  The target's sweep and the problem share one
    operator and its step data.
    """
    coeffs = DiffusionCoefficients.unit(mesh)
    y_free = solve_forward(mesh, coeffs.operator(), IntervalField.zeros(mesh), None,
                           _sine_bump(mesh))
    return ProblemSpec(
        mesh=mesh,
        coeffs=coeffs,
        y0=_sine_bump(mesh),
        y_d=y_free.values[-1].copy(),
        psi=TimeField.constant(mesh, 1e6),
        alpha=1.0,
        beta=1.0,
        bounds=ControlBounds.constant(mesh, ua=-1.0, ub=1.0, va=-1.0, vb=1.0),
        boundary_control_enabled=False,
    )


def build_boundary_control_demo(mesh):
    """Boundary-driven tracking with an inactive obstacle.

    Starting from rest, the target tilts along x, so the cheap way to reach
    it is flux through the left and right edges; the distributed control is
    boxed tightly so the boundary control carries the tracking.
    """
    y_d = space_slice_from_function(mesh, lambda x, y: 0.3 * (x - 0.5) + 0.0 * y)
    return ProblemSpec(
        mesh=mesh,
        coeffs=DiffusionCoefficients.unit(mesh),
        y0=np.zeros(mesh.shape_space),
        y_d=y_d,
        psi=TimeField.constant(mesh, 1e6),
        alpha=1.0,
        beta=1.0,
        bounds=ControlBounds.constant(mesh, ua=-0.1, ub=0.1, va=-2.0, vb=2.0),
        boundary_control_enabled=True,
    )


PRESETS = {
    "paper_example_sec5": {
        "build": build_paper_example_sec5,
        "default_mesh": (5, 5, 4, 1.0, 1.0, 1.0),
        "config_defaults": {"alm.mu0": 10.0},
    },
    "unconstrained_decay": {
        "build": build_unconstrained_decay,
        "default_mesh": (5, 5, 4, 1.0, 1.0, 1.0),
        "config_defaults": {"alm.mu0": 0.0},
    },
    "boundary_control_demo": {
        "build": build_boundary_control_demo,
        "default_mesh": (9, 9, 8, 1.0, 1.0, 0.5),
        "config_defaults": {"alm.mu0": 0.0},
    },
}


def build_problem(name, mesh):
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name]["build"](mesh)
