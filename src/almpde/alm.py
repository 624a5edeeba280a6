"""Outer augmented Lagrangian loop with success-gated multiplier updates.

Each outer iteration solves the sub-problem at the current (rho, mu),
computes the residual index R_k, and declares the step successful when
R_k <= tau * R+_{n-1} (R+ being the sequence of residuals at successful
steps, seeded with a large R+_0).  Success adopts the multiplier candidate
and keeps rho; failure keeps the multiplier and grows rho by the factor
gamma.  The loop stops at the first success with R+ <= eps2 or at the
iteration cap.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import TimeField
from .cost import (cost_J, augmented_lagrangian, kkt_residuals, residual_index)
from .msa import MsaConfig, msa_solve


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
        mu0_min = np.min(self.mu0.values) if isinstance(self.mu0, TimeField) else self.mu0
        if mu0_min < 0:
            raise ValueError(f"mu0 must be nonnegative, got {mu0_min}")
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


class AlmState:
    """Multiplier, penalty, and bookkeeping carried between outer iterations."""

    def __init__(self, mu, rho, tau, gamma, R_plus_history, n, k):
        if np.any(mu.values < 0):
            raise ValueError("multiplier must be nonnegative")
        if rho <= 0:
            raise ValueError("rho must be positive")
        self.mu = mu
        self.rho = float(rho)
        self.tau = float(tau)
        self.gamma = float(gamma)
        self.R_plus_history = list(R_plus_history)
        self.n = int(n)
        self.k = int(k)

    @classmethod
    def initial(cls, mesh, config):
        mu0 = config.mu0
        mu = mu0 if isinstance(mu0, TimeField) else TimeField.constant(mesh, float(mu0))
        return cls(mu=mu, rho=config.rho0, tau=config.tau, gamma=config.gamma,
                   R_plus_history=[], n=0, k=0)

    def last_R_plus(self, config):
        return self.R_plus_history[-1] if self.R_plus_history else config.r_plus0


@dataclass
class AlmTraceRow:
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


TRACE_COLUMNS = ("k,n,rho,R,success,J,L_rho,feas,compl,stat_u,stat_v,"
                 "inner_iters,final_gap")


def format_trace_row(r):
    return ",".join([
        str(r.k), str(r.n), f"{r.rho:.17g}", f"{r.R:.17g}",
        str(int(r.success)), f"{r.J:.17g}", f"{r.L_rho:.17g}",
        f"{r.feas:.17g}", f"{r.compl:.17g}", f"{r.stat_u:.17g}",
        f"{r.stat_v:.17g}", str(r.inner_iters), f"{r.final_gap:.17g}"])


@dataclass
class AlmTrace:
    rows: list
    final_result: object
    termination: str          # "tolerance_met" or "max_outer"
    best_k: int               # row index (1-based k) with the lowest R

    def success_rows(self):
        return [r for r in self.rows if r.success]

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(TRACE_COLUMNS + "\n")
            for r in self.rows:
                fh.write(format_trace_row(r) + "\n")


def alm_step(spec, state, warm_controls, config):
    """One outer iteration: sub-problem solve, residual test, update.

    Returns (MsaResult, R_k, success, new AlmState).  The input state is not
    modified.
    """
    warm_u, warm_v = warm_controls
    result = msa_solve(spec, state.rho, state.mu, init_u=warm_u, init_v=warm_v,
                       config=config.msa)
    R_k = residual_index(result.y, spec.psi, result.mu_bar)
    if not np.isfinite(R_k):
        raise RuntimeError(f"non-finite residual index at outer iteration {state.k + 1}")
    success = R_k <= state.tau * state.last_R_plus(config)
    if success:
        new_state = AlmState(mu=result.mu_bar, rho=state.rho, tau=state.tau,
                             gamma=state.gamma,
                             R_plus_history=state.R_plus_history + [R_k],
                             n=state.n + 1, k=state.k + 1)
    else:
        new_state = AlmState(mu=state.mu, rho=state.gamma * state.rho, tau=state.tau,
                             gamma=state.gamma,
                             R_plus_history=state.R_plus_history,
                             n=state.n, k=state.k + 1)
    return result, R_k, success, new_state


def alm_run(spec, config, on_row=None):
    """Run the outer loop until R+ <= eps2 at a success, or max_outer.

    on_row, when given, is called with each AlmTraceRow as it is produced
    (used by the CLI to flush partial traces).
    """
    state = AlmState.initial(spec.mesh, config)
    warm = (None, None)
    rows = []
    final_result = None
    termination = "max_outer"
    for _ in range(config.max_outer):
        rho_k, mu_k = state.rho, state.mu
        result, R_k, success, state = alm_step(spec, state, warm, config)
        kkt = kkt_residuals(spec, result.y, result.u, result.v, result.p, result.mu_bar)
        row = AlmTraceRow(
            k=state.k, n=state.n, rho=rho_k, R=R_k, success=success,
            J=cost_J(spec, result.y, result.u,
                     result.v if spec.boundary_control_enabled else None),
            L_rho=augmented_lagrangian(spec, result.y, result.u,
                                       result.v if spec.boundary_control_enabled else None,
                                       mu_k, rho_k),
            feas=kkt.feasibility, compl=kkt.complementarity,
            stat_u=kkt.stationarity_u, stat_v=kkt.stationarity_v,
            inner_iters=result.inner_iters, final_gap=result.final_gap)
        rows.append(row)
        if on_row is not None:
            on_row(row)
        final_result = result
        warm = (result.u, result.v)
        if success and R_k <= config.eps2:
            termination = "tolerance_met"
            break
    best_k = min(rows, key=lambda r: r.R).k
    return AlmTrace(rows=rows, final_result=final_result,
                    termination=termination, best_k=best_k)
