import csv

import numpy as np
import pytest

from almpde import operators
from almpde.config import build_run, parse_config
from almpde.grid import build_mesh, TimeField
from almpde.msa import MsaConfig
from almpde.alm import AlmConfig, AlmState, alm_step, alm_run, TRACE_COLUMNS
from almpde.presets import build_unconstrained_decay

from conftest import make_random_spec


def test_first_step_success_when_feasible():
    mesh = build_mesh(5, 5, 4, 1.0, 1.0, 1.0)
    spec = build_unconstrained_decay(mesh)
    config = AlmConfig(mu0=0.0)
    state = AlmState.initial(mesh, config)
    result, R, success, new_state = alm_step(spec, state, (None, None), config)
    assert success and R == 0.0
    assert new_state.rho == state.rho
    assert new_state.n == 1 and new_state.k == 1


def test_failure_branch_scales_rho_and_keeps_mu(sec5_spec, unit_mesh):
    # a tiny R+_0 forces the first residual test to fail
    config = AlmConfig(mu0=10.0, r_plus0=1e-9, gamma=2.0)
    state = AlmState.initial(unit_mesh, config)
    result, R, success, new_state = alm_step(sec5_spec, state, (None, None), config)
    assert not success
    assert new_state.rho == 2.0 * state.rho
    assert new_state.n == 0
    assert np.array_equal(new_state.mu.values, state.mu.values)


def test_success_adopts_multiplier(sec5_spec, unit_mesh):
    config = AlmConfig(mu0=10.0)
    state = AlmState.initial(unit_mesh, config)
    result, R, success, new_state = alm_step(sec5_spec, state, (None, None), config)
    assert success
    assert np.array_equal(new_state.mu.values, result.mu_bar.values)
    assert new_state.R_plus_history == [R]


def test_branch_semantics_randomized():
    # penalty scaling, multiplier sign, and success contraction on random
    # problems; both branches must occur across the seeds
    total_success = total_failure = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        spec = make_random_spec(rng)
        config = AlmConfig(rho0=rng.uniform(0.5, 2.0), mu0=rng.uniform(0.0, 5.0),
                           tau=rng.uniform(0.5, 0.95), gamma=rng.uniform(1.5, 3.0),
                           eps2=1e-8, max_outer=10, msa=MsaConfig(max_inner=60))
        state = AlmState.initial(spec.mesh, config)
        warm = (None, None)
        for _ in range(config.max_outer):
            rho_before = state.rho
            mu_before = state.mu
            R_plus_before = state.last_R_plus(config)
            result, R, success, state = alm_step(spec, state, warm, config)
            warm = (result.u, result.v)
            assert np.all(state.mu.values >= 0.0)
            if success:
                total_success += 1
                assert state.rho == rho_before
                assert R <= config.tau * R_plus_before
                assert state.R_plus_history[-1] == R
            else:
                total_failure += 1
                assert state.rho == config.gamma * rho_before
                assert np.array_equal(state.mu.values, mu_before.values)
    assert total_success > 0 and total_failure > 0


def test_run_terminates_on_tolerance(sec5_spec):
    config = AlmConfig(mu0=10.0, eps2=1e-4, max_outer=60)
    trace = alm_run(sec5_spec, config)
    assert trace.termination == "tolerance_met"
    successes = trace.success_rows()
    Rs = [r.R for r in successes]
    assert Rs[-1] <= 1e-4
    assert all(Rs[i + 1] < Rs[i] for i in range(len(Rs) - 1))
    assert all(Rs[i] <= config.tau ** (i + 1) * config.r_plus0 for i in range(len(Rs)))
    # rho grows exactly by gamma on failures, stays otherwise
    for a, b in zip(trace.rows[:-1], trace.rows[1:]):
        assert b.rho == (a.rho if a.success else config.gamma * a.rho)
    last = trace.rows[-1]
    assert last.feas <= config.eps2 and last.compl <= config.eps2


def test_run_unconstrained_single_success():
    mesh = build_mesh(5, 5, 4, 1.0, 1.0, 1.0)
    spec = build_unconstrained_decay(mesh)
    trace = alm_run(spec, AlmConfig(mu0=0.0))
    assert trace.termination == "tolerance_met"
    assert len(trace.rows) == 1
    assert trace.rows[0].R == 0.0
    assert np.all(trace.final_result.mu_bar.values == 0.0)


def test_run_max_outer_cap(sec5_spec):
    trace = alm_run(sec5_spec, AlmConfig(mu0=10.0, max_outer=1))
    assert trace.termination == "max_outer"
    assert len(trace.rows) == 1
    assert trace.best_k == 1


def test_run_marks_best_iterate(sec5_spec):
    trace = alm_run(sec5_spec, AlmConfig(mu0=10.0, max_outer=5, eps2=0.0))
    best = min(trace.rows, key=lambda r: r.R)
    assert trace.best_k == best.k


def test_trace_csv_format(tmp_path, sec5_spec):
    trace = alm_run(sec5_spec, AlmConfig(mu0=10.0, max_outer=3, eps2=1e-12))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert ",".join(header) == TRACE_COLUMNS
        rows = list(reader)
    assert len(rows) == len(trace.rows)
    for parsed, row in zip(rows, trace.rows):
        assert int(parsed[0]) == row.k
        assert float(parsed[2]) == row.rho
        assert float(parsed[3]) == row.R
        assert int(parsed[4]) == int(row.success)


def test_mu0_field_initialization(unit_mesh):
    mu0 = TimeField.constant(unit_mesh, 2.5)
    config = AlmConfig(mu0=mu0)
    state = AlmState.initial(unit_mesh, config)
    assert np.all(state.mu.values == 2.5)
    with pytest.raises(ValueError, match="nonnegative"):
        AlmState.initial(unit_mesh, AlmConfig(mu0=TimeField.constant(unit_mesh, -1.0)))


def test_alm_config_validation():
    with pytest.raises(ValueError, match="tau"):
        AlmConfig(tau=1.5)
    with pytest.raises(ValueError, match="gamma"):
        AlmConfig(gamma=1.0)
    with pytest.raises(ValueError, match="rho0"):
        AlmConfig(rho0=0.0)
    with pytest.raises(ValueError, match="max_outer"):
        AlmConfig(max_outer=0)
    mesh = build_mesh(5, 5, 4, 1.0, 1.0, 1.0)
    mu0 = np.full((5, 5, 5), 2.0)
    mu0[2, 1, 3] = -0.5
    for bad in (-1.0, TimeField(mesh, mu0)):
        with pytest.raises(ValueError, match="mu0 must be nonnegative"):
            AlmConfig(mu0=bad)


def test_run_factors_the_step_matrix_once(tmp_path, monkeypatch):
    calls = []
    factor = operators.cholesky_banded

    def counting_factor(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(operators, "cholesky_banded", counting_factor)
    cfg = tmp_path / "sec5.cfg"
    cfg.write_text("problem.preset = paper_example_sec5\n")
    spec, config = build_run(parse_config(str(cfg)))
    operators.assemble_operator(spec.mesh, spec.coeffs)
    spec.operator()
    assert calls == []
    alm_run(spec, config)
    assert len(calls) == 1
