"""Two presets under mesh refinement.

The obstacle example of the paper (`paper_example_sec5`, multiplier seed
mu0 = 10) is solved with h = dt on the unit cylinder, T = 1, at 5, 9, 17
and 33 nodes per side.  Every level must certify its KKT system, and the
optimal cost must settle: each difference of J between successive levels
at most a third of the one before (first order in h = dt would halve it).
Its optimal state is nearly uniform, a mode implicit Euler integrates almost
exactly, so that ladder sees only the space error.

The boundary demo (`boundary_control_demo`) sees both errors, and the two
ladders below refine one of them at a time.
"""

import numpy as np

from almpde.alm import AlmConfig, alm_run
from almpde.grid import build_mesh
from almpde.presets import PRESETS, build_boundary_control_demo, build_paper_example_sec5

LADDER = (5, 9, 17, 33)


def test_paper_preset_converges_on_every_level_and_its_cost_settles():
    config = AlmConfig(mu0=PRESETS["paper_example_sec5"]["config_defaults"]["alm.mu0"])
    J = []
    for n in LADDER:
        spec = build_paper_example_sec5(build_mesh(n, n, n - 1, 1.0, 1.0, 1.0))
        trace = alm_run(spec, config)
        last = trace.rows[-1]
        assert trace.termination == "tolerance_met", n
        assert last.feas <= config.eps2 and last.compl <= config.eps2, n
        assert last.stat_u <= config.msa.eps1, n   # |Omega| T = 1
        J.append(last.J)
    steps = np.abs(np.diff(J))
    assert np.all(steps[1:] <= steps[:-1] / 3.0), J


def _boundary_demo_costs(levels):
    """The final J of the boundary demo on each (n, nt) level, T = 0.5;
    every run must certify its KKT system."""
    J = []
    for n, nt in levels:
        trace = alm_run(build_boundary_control_demo(build_mesh(n, n, nt, 1.0, 1.0, 0.5)),
                        AlmConfig())
        assert trace.termination == "tolerance_met", (n, nt)
        J.append(trace.rows[-1].J)
    return np.array(J)


def test_boundary_demo_cost_converges_first_order_in_dt_and_second_order_in_h():
    """The discrete optimal cost's error is O(dt + h^2): implicit Euler, the
    dG(0) method, in time and vertex-centred finite volumes, bilinear
    elements with a lumped mass, in space (Meidner & Vexler, SIAM J. Control
    Optim. 47, 2008).  On each ladder the other step is fixed, so its error
    cancels in the differences of successive J, and their ratio estimates
    2^order of the refined step.

    - dt ladder, 17^2 nodes, nt = 8 -> 128: measured ratios 2.41, 2.35, 2.25,
      falling towards 2.  [1.8, 3.0] holds first order and excludes second
      order (4) and a stalled cost (1).
    - h ladder, nt = 128, 5^2 -> 33^2: measured ratios 4.02, 4.01.
      [3.5, 4.5] holds second order and excludes first order (2).

    J falls monotonically on both ladders, so the differences are taken
    with their signs.
    """
    dt_steps = -np.diff(_boundary_demo_costs([(17, nt) for nt in (8, 16, 32, 64, 128)]))
    assert np.all(dt_steps > 0), dt_steps
    dt_ratios = dt_steps[:-1] / dt_steps[1:]
    assert np.all((1.8 <= dt_ratios) & (dt_ratios <= 3.0)), dt_ratios
    h_steps = -np.diff(_boundary_demo_costs([(n, 128) for n in LADDER]))
    assert np.all(h_steps > 0), h_steps
    h_ratios = h_steps[:-1] / h_steps[1:]
    assert np.all((3.5 <= h_ratios) & (h_ratios <= 4.5)), h_ratios
