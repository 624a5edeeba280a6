"""Outer augmented Lagrangian loop with success-gated multiplier updates.

Each outer iteration solves the sub-problem at the current (rho, mu),
takes the KKT residuals of its result once (`kkt_residuals`), and declares
the step successful when the inner solve converged and the residual index
R_k = feasibility + complementarity is at most tau * R+, R+ being the
residual of the last successful step (before the first one, the large
R+_0 = r_plus0).  Success adopts the multiplier candidate, takes R_k as
the new R+ and keeps rho; failure keeps mu and R+ and grows rho by the
factor gamma.  The loop stops at the first success with R+ <= eps2 or at
the iteration cap.

So "tolerance_met" certifies the whole discrete KKT system: feasibility and
complementarity through R <= eps2, and stationarity through the converged
inner solve.  That solve stops on the sup norm of u - clip(-p/alpha) over
m = 1..nt, at most msa.eps1, so the L2 residuals `kkt_residuals` reports
obey stat_u <= eps1 sqrt(|Omega| T) and, with boundary control,
stat_v <= eps1 sqrt(|boundary| T), |boundary| the perimeter.

Between iterations the loop carries an AlmState (mu, rho, R+ and the
success and iteration counts n, k) and the last MsaResult, which starts the
next sub-problem: its controls are the warm start and its y is their state,
so every outer iteration after the first saves one forward sweep.  Each
iteration leaves one AlmTraceRow, whose fields are the columns of
trace.csv.  Its R and KKT columns come from those residuals, its J is
evaluated once and its L_rho is that J plus the penalty of the result's
multiplier candidate, with the integral of mu^2 the sub-problem took
(`MsaResult.mu_sq`), so that integral is taken once per outer iteration.
"""

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .grid import IntervalField
from .cost import cost_J, kkt_residuals, penalty
from .msa import MsaConfig, msa_solve, require_finite_fields, require_penalty_and_multiplier


@dataclass
class AlmConfig:
    rho0: float = 1.0
    mu0: float = 0.0
    tau: float = 0.9
    gamma: float = 2.0
    r_plus0: float = 1e6
    eps2: float = 1e-4
    max_outer: int = 200
    msa: MsaConfig = field(default_factory=MsaConfig)

    def __post_init__(self):
        if self.rho0 <= 0:
            raise ValueError(f"rho0 must be positive, got {self.rho0}")
        if self.mu0 < 0:
            raise ValueError(f"mu0 must be nonnegative, got {self.mu0}")
        if not 0 < self.tau < 1:
            raise ValueError(f"tau must lie in (0,1), got {self.tau}")
        if self.gamma <= 1:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if self.r_plus0 <= 0:
            raise ValueError(f"r_plus0 must be positive, got {self.r_plus0}")
        if self.eps2 < 0:
            raise ValueError(f"eps2 must be nonnegative, got {self.eps2}")
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be >= 1, got {self.max_outer}")
        require_finite_fields(self)


@dataclass(frozen=True)
class AlmState:
    """Multiplier, penalty, last accepted residual R+, success count n and
    iteration count k carried between outer iterations."""

    mu: IntervalField
    rho: float
    R_plus: float
    n: int
    k: int

    def __post_init__(self):
        require_penalty_and_multiplier(self.rho, self.mu)

    @classmethod
    def initial(cls, mesh, config):
        return cls(mu=IntervalField.constant(mesh, float(config.mu0)), rho=float(config.rho0),
                   R_plus=config.r_plus0, n=0, k=0)


@dataclass
class AlmTraceRow:
    """One outer iteration; its fields, in order, are the columns of trace.csv."""

    k: int
    n: int
    rho: float
    R: float
    success: bool
    J: float
    L_rho: float
    feas: float
    compl: float
    stat_u: float
    stat_v: float
    inner_iters: int
    final_gap: float


# the text of a trace value, by the declared type of its field
_TEXT = {bool: lambda x: str(int(x)), int: str, float: lambda x: f"{x:.17g}"}
_ROW_TEXT = tuple((f.name, _TEXT[f.type]) for f in fields(AlmTraceRow))
TRACE_COLUMNS = ",".join(name for name, _ in _ROW_TEXT)


def format_trace_row(row):
    return ",".join(text(getattr(row, name)) for name, text in _ROW_TEXT)


@dataclass
class AlmTrace:
    rows: list
    final_result: object
    termination: str          # "tolerance_met" or "max_outer"
    best_k: int               # row index (1-based k) with the lowest R


def alm_step(spec, state, warm, config):
    """One outer iteration: sub-problem solve, residual test, update.

    warm is the MsaResult of the previous outer iteration, or None for the
    first: its controls start the sub-problem, and its state y is theirs,
    so the solve skips its first forward sweep.  Returns (MsaResult, R_k,
    success, new AlmState, KktResiduals of the result).  The input state is
    not modified.
    """
    result = msa_solve(spec, state.rho, state.mu, config=config.msa, warm=warm)
    kkt = kkt_residuals(spec, result.y, result.u, result.v, result.p, result.mu_bar)
    R_k = kkt.feasibility + kkt.complementarity
    if not np.isfinite(R_k):
        raise RuntimeError(f"non-finite residual index at outer iteration {state.k + 1}")
    success = result.converged and R_k <= config.tau * state.R_plus
    if success:
        new_state = replace(state, mu=result.mu_bar, R_plus=R_k, n=state.n + 1, k=state.k + 1)
    else:
        new_state = replace(state, rho=config.gamma * state.rho, k=state.k + 1)
    return result, R_k, success, new_state, kkt


def alm_run(spec, config, on_row=None):
    """Run the outer loop until R+ <= eps2 at a success, or max_outer.

    on_row, when given, is called with each AlmTraceRow as it is produced
    (used by the CLI to flush partial traces).
    """
    state = AlmState.initial(spec.mesh, config)
    rows = []
    final_result = None
    termination = "max_outer"
    for _ in range(config.max_outer):
        rho_k = state.rho
        result, R_k, success, state, kkt = alm_step(spec, state, final_result, config)
        J = cost_J(spec, result.y, result.u, result.v)
        row = AlmTraceRow(
            k=state.k, n=state.n, rho=rho_k, R=R_k, success=success, J=J,
            L_rho=J + penalty(spec.mesh, result.mu_bar, result.mu_sq, rho_k),
            feas=kkt.feasibility, compl=kkt.complementarity,
            stat_u=kkt.stationarity_u, stat_v=kkt.stationarity_v,
            inner_iters=result.inner_iters, final_gap=result.final_gap)
        rows.append(row)
        if on_row is not None:
            on_row(row)
        final_result = result
        if success and R_k <= config.eps2:
            termination = "tolerance_met"
            break
    best_k = min(rows, key=lambda r: r.R).k
    return AlmTrace(rows=rows, final_result=final_result,
                    termination=termination, best_k=best_k)
