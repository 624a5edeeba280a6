import os

# One BLAS/OpenMP thread, set before numpy loads, as perfbench/run.py and
# tools/layer_times.py set it: with two OpenBLAS threads the first 65x65
# factorization of a fresh process can stall for about a second.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMBA_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np
import pytest

from almpde.grid import build_mesh, TimeField, ControlBounds, space_slice_from_function
from almpde.operators import DiffusionCoefficients, FluxStencil
from almpde.cost import ProblemSpec
from almpde.presets import build_paper_example_sec5


@pytest.fixture
def unit_mesh():
    """The 5x5x4 grid with h = dt = 0.25 on the unit cylinder."""
    return build_mesh(5, 5, 4, 1.0, 1.0, 1.0)


@pytest.fixture
def sec5_spec(unit_mesh):
    return build_paper_example_sec5(unit_mesh)


def make_random_spec(rng, nx=5, ny=4, nt=3, T=0.8, psi_level=None):
    """Small well-scaled random problem for property tests."""
    mesh = build_mesh(nx, ny, nt, 1.0, 1.0, T)
    amp = rng.uniform(0.5, 1.0)
    y0 = space_slice_from_function(
        mesh, lambda x, y: amp * np.sin(np.pi * x) * np.sin(np.pi * y))
    y_d = space_slice_from_function(
        mesh, lambda x, y: rng.uniform(-0.3, 0.3) * np.cos(np.pi * x) + 0.0 * y)
    if psi_level is None:
        psi_level = rng.uniform(0.3, 0.9)
    # the bump is cut off at the obstacle, so y0 <= psi(., 0) holds
    return ProblemSpec(
        mesh, DiffusionCoefficients.unit(mesh), np.minimum(y0, psi_level), y_d,
        TimeField.constant(mesh, psi_level),
        alpha=rng.uniform(0.5, 2.0), beta=1.0,
        bounds=ControlBounds.constant(mesh, -1.0, 1.0),
        boundary_control_enabled=False)


def apply_a(op, f):
    """A f for one spatial slice f of shape (ny, nx), by the unscaled flux
    stencil of the operator."""
    return FluxStencil(op.cx, op.cy).apply(f.ravel(), np.empty(f.size)).reshape(f.shape)
