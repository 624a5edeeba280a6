"""Workload inputs and problem set-up for the solver benchmark.

A workload is a list of problem inputs made from the seed.  `setup` turns one
input into ``(ProblemSpec, AlmConfig)`` through the public API only, and
builds the spec's operator, so that everything it does counts as set-up time.

Functions are looked up on their modules at call time (``config.build_run``,
not ``from ... import build_run``), so that the traced run sees the calls the
benchmark itself makes.
"""

import os
from dataclasses import dataclass

import numpy as np

from almpde import alm, config, cost, grid, operators, solvers

WORKLOADS = ("paper_sec5", "boundary_fine", "varcoef_batch")

# (preset, config lines) of the two preset workloads.  Only the keys a user
# would set are given; everything else is the preset's or the schema's
# default, as `almpde run` would use it.
PRESET_CONFIGS = {
    "paper_sec5": ("paper_example_sec5", {}),
    "boundary_fine": ("boundary_control_demo",
                      {"mesh.nx": 33, "mesh.ny": 33, "mesh.nt": 32}),
}

# Grid side of the reference computation that solve_ref divides by: the
# size of the workload's (median) problem, so that both do the same kind of
# numpy work from Python.
REFERENCE_N = {"paper_sec5": 5, "boundary_fine": 33, "varcoef_batch": 33}

# The smoke test's sizes: same code paths, a fraction of a second each.
# paper_sec5 keeps its 5x5x4 mesh but caps the iterations, so it ends at
# max_outer (a failed solve, as the full-size run fails too).
TINY_CONFIGS = {
    "paper_sec5": ("paper_example_sec5", {"alm.max_outer": 2, "msa.max_inner": 20}),
    "boundary_fine": ("boundary_control_demo", {}),
}

# (nodes per side, time steps) of one varcoef_batch batch.
VARCOEF_SIZES = ((17, 16), (33, 32), (65, 64))
TINY_VARCOEF_SIZES = ((5, 4), (9, 8))
# Batches per run.  The solve time of one problem moves by about 4% (one
# standard deviation) with its seeded fields; two batches halve the variance
# of a run's medians across seeds.
VARCOEF_BATCHES = 2
VARCOEF_T = 0.5
# log a11, log a22 lie in [-0.5, 0.5], so a11, a22 lie in [e^-0.5, e^0.5].
LOG_COEFF_AMPLITUDE = 0.5
# Cosine modes 0..MODES-1 per axis make up the smooth seeded fields.
MODES = 3
# An obstacle far above any state, so the constraint is inactive.
INACTIVE_PSI = 1e6


@dataclass(frozen=True)
class PresetInput:
    label: str
    config_path: str


@dataclass(frozen=True)
class VarcoefInput:
    label: str
    nx: int
    nt: int
    a11: np.ndarray
    a22: np.ndarray
    y0: np.ndarray


def make_inputs(name, seed, workdir, tiny=False):
    """The list of problem inputs of workload `name` for `seed`.

    Preset inputs are config files written under `workdir`; they do not
    depend on the seed.  varcoef_batch draws its fields from `seed`.
    """
    if name in PRESET_CONFIGS:
        preset, keys = (TINY_CONFIGS if tiny else PRESET_CONFIGS)[name]
        path = os.path.join(workdir, f"{name}{'-tiny' if tiny else ''}.cfg")
        with open(path, "w") as fh:
            fh.write(f"problem.preset = {preset}\n")
            for key, value in keys.items():
                fh.write(f"{key} = {value}\n")
        return [PresetInput(label=name, config_path=path)]
    if name == "varcoef_batch":
        rng = np.random.default_rng(seed)
        sizes = TINY_VARCOEF_SIZES if tiny else VARCOEF_SIZES
        return [_varcoef_input(rng, b, n, nt)
                for b in range(VARCOEF_BATCHES) for n, nt in sizes]
    raise ValueError(f"unknown workload {name!r}; available: {list(WORKLOADS)}")


def _smooth_field(rng, n):
    """A seeded sum of low cosine modes on the unit square, max |f| = 1."""
    x = np.linspace(0.0, 1.0, n)
    c = rng.uniform(-1.0, 1.0, size=(MODES, MODES))
    k = np.arange(MODES)
    cy = np.cos(np.pi * k[:, None] * x[None, :])   # (mode, node)
    f = cy.T @ c @ cy                              # (ny, nx)
    return f / np.max(np.abs(f))


def _varcoef_input(rng, batch, n, nt):
    a11 = np.exp(LOG_COEFF_AMPLITUDE * _smooth_field(rng, n))
    a22 = np.exp(LOG_COEFF_AMPLITUDE * _smooth_field(rng, n))
    y0 = _smooth_field(rng, n)
    return VarcoefInput(label=f"batch{batch}-{n}x{n}x{nt}", nx=n, nt=nt, a11=a11, a22=a22, y0=y0)


def setup(inp):
    """Build ``(spec, alm_config)`` from one input, with the operator built."""
    if isinstance(inp, PresetInput):
        spec, alm_config = config.build_run(config.parse_config(inp.config_path))
    else:
        spec, alm_config = _varcoef_spec(inp), alm.AlmConfig()
    spec.operator()
    return spec, alm_config


def _varcoef_spec(inp):
    """Inactive obstacle; the target is the program's own free-decay terminal.

    With u = 0 the first forward sweep reproduces the target exactly, so the
    adjoint sources are zero and the solve stops after one inner iteration.
    """
    mesh = grid.build_mesh(inp.nx, inp.nx, inp.nt, 1.0, 1.0, VARCOEF_T)
    coeffs = operators.DiffusionCoefficients(mesh, inp.a11, inp.a22)
    bounds = grid.ControlBounds.constant(mesh, ua=-1.0, ub=1.0)
    psi = grid.TimeField.constant(mesh, INACTIVE_PSI)

    def spec_with_target(y_d):
        return cost.ProblemSpec(mesh, coeffs, inp.y0, y_d, psi, alpha=1.0, beta=1.0,
                                bounds=bounds, boundary_control_enabled=False)

    free = spec_with_target(np.zeros(mesh.shape_space))
    y_free = solvers.solve_forward(mesh, free.operator(), grid.TimeField.zeros(mesh),
                                   None, inp.y0)
    return spec_with_target(y_free.values[-1].copy())
