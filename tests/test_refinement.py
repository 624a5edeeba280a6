"""The paper preset under mesh refinement.

The obstacle example of the paper (`paper_example_sec5`, multiplier seed
mu0 = 10) is solved with h = dt on the unit cylinder, T = 1, at 5, 9, 17
and 33 nodes per side.  Every level must certify its KKT system, and the
optimal cost must settle: each difference of J between successive levels
at most a third of the one before (first order in h = dt would halve it).
"""

import numpy as np

from almpde.alm import AlmConfig, alm_run
from almpde.grid import build_mesh
from almpde.presets import PRESETS, build_paper_example_sec5

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
