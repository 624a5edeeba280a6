"""Augmented Lagrangian solver for state-constrained parabolic optimal control.

The state equation y_t + A y = u with flux boundary control is discretized
by implicit Euler on a uniform rectangle grid; the pointwise constraint
y <= psi enters through a smooth quadratic penalty whose multiplier is
updated only on outer iterations whose sub-problem solve converged and
sufficiently reduced the combined feasibility/complementarity residual.
Sub-problems are solved by damped steps toward the pointwise Hamiltonian
minimizer, with a Barzilai-Borwein step and Armijo backtracking.
"""

from .grid import (Mesh, TimeField, IntervalField, BoundaryTimeField, ControlBounds,
                   build_mesh, integrate_omega_t, extract_boundary, space_slice_from_function)
from .operators import DiffusionCoefficients, DiscreteOperator, assemble_operator
from .solvers import solve_forward, solve_adjoint
from .cost import (ProblemSpec, cost_J, multiplier_candidate, kkt_residuals,
                   subproblem_objective)
from .msa import MsaConfig, MsaResult, msa_solve
from .alm import AlmConfig, AlmState, AlmTrace, alm_step, alm_run
from .presets import PRESETS, build_problem

__version__ = "0.1.0"
