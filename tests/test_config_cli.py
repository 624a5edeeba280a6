import csv
import re
from dataclasses import fields

import numpy as np
import pytest

from almpde import alm, oracles
from almpde.alm import AlmConfig, TRACE_COLUMNS
from almpde.cli import main
from almpde.config import parse_config, build_run, ConfigError
from almpde.grid import (build_mesh, load_time_field, dump_space_slice,
                         dump_time_field, load_boundary_field, TimeField, IntervalField,
                         BoundaryTimeField)
from almpde.msa import MsaConfig


def write_config(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def sec5_config(tmp_path):
    return write_config(tmp_path / "sec5.cfg", [
        "problem.preset = paper_example_sec5",
        f"run.output_dir = {tmp_path / 'out'}",
    ])


# ----------------------------------------------------------------- parsing

def test_minimal_preset_config_applies_defaults(sec5_config):
    config = parse_config(sec5_config)
    assert config.raw["alm.tau"] == 0.9
    assert config.raw["alm.gamma"] == 2.0
    assert config.raw["alm.eps2"] == 1e-4
    assert config.raw["alm.mu0"] == 10.0       # preset default
    assert config.raw["mesh.nx"] == 5 and config.raw["mesh.nt"] == 4
    spec, alm = build_run(config)
    assert spec.alpha == 1.0
    assert not spec.boundary_control_enabled
    assert alm.msa == MsaConfig()


def test_tau_validation_message(tmp_path):
    path = write_config(tmp_path / "bad.cfg", [
        "problem.preset = paper_example_sec5",
        "alm.tau = 1.5",
    ])
    with pytest.raises(ConfigError, match=r"tau must lie in \(0,1\)"):
        parse_config(path)


def test_unknown_key_rejected_with_line(tmp_path):
    path = write_config(tmp_path / "bad.cfg", [
        "problem.preset = paper_example_sec5",
        "alm.taus = 0.5",
    ])
    with pytest.raises(ConfigError, match=r":2: unknown key"):
        parse_config(path)


def test_malformed_line_reports_position(tmp_path):
    path = write_config(tmp_path / "bad.cfg", ["problem.preset paper_example_sec5"])
    with pytest.raises(ConfigError, match=r":1: expected 'key = value'"):
        parse_config(path)


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/path.cfg")


def test_max_outer_zero_rejected(tmp_path):
    path = write_config(tmp_path / "bad.cfg", [
        "problem.preset = paper_example_sec5",
        "alm.max_outer = 0",
    ])
    with pytest.raises(ConfigError, match="max_outer"):
        parse_config(path)


def test_msa_step_is_an_unknown_key(tmp_path):
    # the inner solver chooses its own step
    path = write_config(tmp_path / "step.cfg", [
        "problem.preset = paper_example_sec5",
        "msa.step = 0.25",
    ])
    with pytest.raises(ConfigError, match=r":2: unknown key 'msa.step'"):
        parse_config(path)


# key -> (config text, field value), each unlike the dataclass and preset defaults
SOLVER_SETTINGS = {
    "alm.rho0": ("2.5", 2.5),
    "alm.mu0": ("3.5", 3.5),
    "alm.tau": ("0.5", 0.5),
    "alm.gamma": ("3", 3.0),
    "alm.r_plus0": ("50", 50.0),
    "alm.eps2": ("1e-6", 1e-6),
    "alm.max_outer": ("7", 7),
    "msa.eps1": ("1e-7", 1e-7),
    "msa.max_inner": ("11", 11),
}


def test_solver_settings_are_the_config_dataclass_fields():
    declared = ({f"alm.{f.name}" for f in fields(AlmConfig) if f.name != "msa"}
                | {f"msa.{f.name}" for f in fields(MsaConfig)})
    assert set(SOLVER_SETTINGS) == declared


@pytest.mark.parametrize("key", sorted(SOLVER_SETTINGS))
def test_solver_setting_reaches_its_field(tmp_path, key):
    text, value = SOLVER_SETTINGS[key]
    path = write_config(tmp_path / "s.cfg", [
        "problem.preset = paper_example_sec5",
        f"{key} = {text}",
    ])
    _, alm = build_run(parse_config(path))
    section, _, name = key.partition(".")
    owner, default = (alm, AlmConfig()) if section == "alm" else (alm.msa, MsaConfig())
    assert getattr(owner, name) == value
    assert type(getattr(owner, name)) is type(getattr(default, name))
    assert getattr(default, name) != value


@pytest.mark.parametrize("key", ["problem.alpha", "alm.rho0", "mesh.T", "problem.psi"])
def test_nonfinite_value_rejected(tmp_path, key):
    path = write_config(tmp_path / "bad.cfg", [
        "problem.preset = paper_example_sec5",
        f"{key} = inf",
    ])
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be finite$"):
        parse_config(path)


def test_custom_problem_requires_field_files(tmp_path):
    path = write_config(tmp_path / "bad.cfg", [
        "mesh.nx = 5", "mesh.ny = 5", "mesh.nt = 4",
        "mesh.lx = 1", "mesh.ly = 1", "mesh.T = 1",
    ])
    with pytest.raises(ConfigError, match="y0_file"):
        parse_config(path)


def test_custom_problem_from_field_files(tmp_path):
    mesh = build_mesh(5, 5, 4, 1.0, 1.0, 1.0)
    rng = np.random.default_rng(0)
    y0 = rng.uniform(-0.5, 0.5, mesh.shape_space)
    yd = rng.uniform(-0.5, 0.5, mesh.shape_space)
    psi = rng.uniform(0.5, 1.5, (mesh.nt + 1, mesh.ny, mesh.nx))
    dump_space_slice(y0, "y0", tmp_path / "y0.csv", mesh)
    dump_space_slice(yd, "yd", tmp_path / "yd.csv", mesh)
    dump_time_field(TimeField(mesh, psi), "psi", tmp_path / "psi.csv")
    # a control bound has the rows m = 1..nt
    dump_time_field(IntervalField(mesh, psi[1:]), "ub", tmp_path / "ub.csv")

    def build(name, lines):
        return build_run(parse_config(write_config(tmp_path / name, [
            "mesh.nx = 5", "mesh.ny = 5", "mesh.nt = 4",
            "mesh.lx = 1", "mesh.ly = 1", "mesh.T = 1",
            "problem.y0_file = y0.csv",
            "problem.yd_file = yd.csv",
        ] + lines)))

    spec, alm = build("custom.cfg", [
        "problem.psi = 0.8",
        "problem.alpha = 2.0",
        "problem.ua = -0.5", "problem.ub = 0.5",
        "problem.a11 = 0.6",
    ])
    assert np.array_equal(spec.y0, y0)
    assert np.array_equal(spec.y_d, yd)
    assert spec.alpha == 2.0 and spec.beta == 1.0
    assert np.all(spec.psi.values == 0.8)
    assert np.all(spec.bounds.ua.values == -0.5)
    assert np.all(spec.bounds.ub.values == 0.5)
    assert np.all(spec.coeffs.a11 == 0.6) and np.all(spec.coeffs.a22 == 1.0)
    assert alm == AlmConfig()

    # the base a custom problem starts from
    spec, _ = build("bare.cfg", [])
    assert np.all(spec.psi.values == 1e6)
    assert spec.alpha == 1.0 and spec.beta == 1.0
    b = spec.bounds
    for bound, value in ((b.ua, -1.0), (b.ub, 1.0), (b.va, -1.0), (b.vb, 1.0)):
        assert np.all(bound.values == value)
    assert np.all(spec.coeffs.a11 == 1.0) and np.all(spec.coeffs.a22 == 1.0)
    assert not spec.boundary_control_enabled

    spec, _ = build("full.cfg", [
        "problem.psi_file = psi.csv",
        "problem.alpha = 2.5", "problem.beta = 0.4",
        "problem.ua = -0.3", "problem.vb = 0.7",
        "problem.ub_file = ub.csv",
        "problem.a22 = 1.7",
        "problem.boundary_control = true",
    ])
    assert np.array_equal(spec.psi.values, psi)
    assert spec.alpha == 2.5 and spec.beta == 0.4
    b = spec.bounds
    assert np.array_equal(b.ub.values, psi[1:])
    for bound, value in ((b.ua, -0.3), (b.va, -1.0), (b.vb, 0.7)):
        assert np.all(bound.values == value)
    assert np.all(spec.coeffs.a11 == 1.0) and np.all(spec.coeffs.a22 == 1.7)
    assert spec.boundary_control_enabled

    # a bound file with a row for m = 0, the layout of a node field, is
    # rejected, naming the rows a bound has
    with pytest.raises(ValueError, match=r"expected the rows m = 1\.\.4, got the rows m = 0, 1,"):
        build("old.cfg", ["problem.ua_file = psi.csv"])


def test_preset_overrides(tmp_path):
    path = write_config(tmp_path / "o.cfg", [
        "problem.preset = paper_example_sec5",
        "problem.psi = 2.0",
        "alm.mu0 = 3.0",
        "mesh.nx = 7",
    ])
    config = parse_config(path)
    spec, alm = build_run(config)
    assert spec.mesh.nx == 7
    assert np.all(spec.psi.values == 2.0)
    assert alm.mu0 == 3.0


@pytest.mark.parametrize("key", ["problem.psi", "problem.ua", "problem.ub"])
def test_a_constant_and_a_file_for_one_field_are_rejected(tmp_path, key):
    # the file would win and the constant be dropped unseen; the error comes
    # from the parse, before any file is read
    path = write_config(tmp_path / "both.cfg", [
        "problem.preset = paper_example_sec5",
        f"{key} = 0.9",
        f"{key}_file = missing.csv",
    ])
    with pytest.raises(ConfigError, match=f"^{key} and {key}_file are both set"):
        parse_config(path)


# --------------------------------------------------------------------- run

def test_run_command_sec5(sec5_config, tmp_path):
    code = main(["run", "--config", sec5_config])
    assert code == 0
    out = tmp_path / "out"
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0].startswith("k,n,rho,R,success")
    last = lines[-1].split(",")
    assert float(last[3]) <= 1e-4      # final success residual
    report = (out / "report.txt").read_text()
    assert "termination: tolerance_met" in report


def test_run_command_dumps_fields(tmp_path):
    # the state has the rows m = 0..nt, the unknowns the rows m = 1..nt
    cfg = write_config(tmp_path / "c.cfg", [
        "problem.preset = unconstrained_decay",
        "problem.boundary_control = true",
        f"run.output_dir = {tmp_path / 'out'}",
        "run.dump_fields = true",
    ])
    assert main(["run", "--config", cfg]) == 0
    mesh = build_mesh(5, 5, 4, 1.0, 1.0, 1.0)
    out = tmp_path / "out"
    for name, kind in (("y_final", TimeField), ("u_final", IntervalField),
                       ("mu_final", IntervalField), ("p_final", IntervalField)):
        rows = [line.split(",")[0] for line in (out / f"{name}.csv").read_text().splitlines()]
        first = 0 if kind is TimeField else 1
        assert rows[1:] == [str(m) for m in range(first, mesh.nt + 1)], name
        f = load_time_field(out / f"{name}.csv", kind, mesh)
        assert np.all(np.isfinite(f.values))
    rows = [line.split(",")[0] for line in (out / "v_final.csv").read_text().splitlines()]
    assert rows[1:] == [str(m) for m in range(1, mesh.nt + 1)]
    v = load_boundary_field(out / "v_final.csv", mesh)
    assert v.values.shape == BoundaryTimeField.shape(mesh) and np.all(np.isfinite(v.values))


def test_run_command_unconstrained_one_iteration(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", [
        "problem.preset = unconstrained_decay",
        f"run.output_dir = {tmp_path / 'out'}",
    ])
    assert main(["run", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "trace.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header plus a single outer iteration


def test_run_command_exit_2_on_max_outer(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", [
        "problem.preset = paper_example_sec5",
        "alm.max_outer = 2",
        f"run.output_dir = {tmp_path / 'out'}",
    ])
    assert main(["run", "--config", cfg]) == 2


def test_run_command_exit_1_on_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", [
        "problem.preset = paper_example_sec5",
        "alm.max_outer = 0",
    ])
    assert main(["run", "--config", cfg]) == 1
    assert "max_outer" in capsys.readouterr().err


def test_run_rejects_initial_state_above_obstacle(tmp_path, capsys):
    # the sec5 initial bump reaches 1 at the centre, above psi = 0.5
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.cfg", [
        "problem.preset = paper_example_sec5",
        "problem.psi = 0.5",
        f"run.output_dir = {out}",
    ])
    assert main(["run", "--config", cfg]) == 1
    assert "y0 must not exceed psi(., 0)" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


def test_run_command_exit_1_on_missing_config():
    assert main(["run", "--config", "/no/such/file.cfg"]) == 1


def _break_header(text):
    return text.replace("nx,5", "nx,five", 1)


def _break_entry(text):
    lines = text.splitlines()
    row = lines[1].split(",")
    row[4] = "abc"
    lines[1] = ",".join(row)
    return "\n".join(lines) + "\n"


def _drop_last_value(text, line=1):
    lines = text.splitlines()
    lines[line] = lines[line].rsplit(",", 1)[0]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, breaks, message", [
    ("y0", _break_header, "invalid literal for int"),
    ("y0", _break_entry, "could not convert string to float: 'abc'"),
    ("y0", _drop_last_value, "row m = 0 holds 24 values, expected 25"),
    ("psi", lambda text: _drop_last_value(text, 3), "row m = 2 holds 24 values, expected 25"),
], ids=["header_value", "entry", "short_row", "short_row_of_a_time_field"])
def test_a_malformed_field_dump_is_an_error_line_naming_its_file(tmp_path, capsys, name,
                                                                  breaks, message):
    mesh = build_mesh(5, 5, 4, 1.0, 1.0, 1.0)
    for field in ("y0", "yd"):
        dump_space_slice(np.zeros(mesh.shape_space), field, tmp_path / f"{field}.csv", mesh)
    dump_time_field(TimeField.constant(mesh, 1.0), "psi", tmp_path / "psi.csv")
    path = tmp_path / f"{name}.csv"
    path.write_text(breaks(path.read_text()))
    cfg = write_config(tmp_path / "c.cfg", [
        "mesh.nx = 5", "mesh.ny = 5", "mesh.nt = 4",
        "mesh.lx = 1", "mesh.ly = 1", "mesh.T = 1",
        "problem.y0_file = y0.csv", "problem.yd_file = yd.csv", "problem.psi_file = psi.csv",
        f"run.output_dir = {tmp_path / 'out'}",
    ])
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err and err.count("\n") == 1


def test_run_outputs_are_deterministic(tmp_path):
    cfg1 = write_config(tmp_path / "a.cfg", [
        "problem.preset = paper_example_sec5",
        f"run.output_dir = {tmp_path / 'o1'}",
    ])
    cfg2 = write_config(tmp_path / "b.cfg", [
        "problem.preset = paper_example_sec5",
        f"run.output_dir = {tmp_path / 'o2'}",
    ])
    assert main(["run", "--config", cfg1]) == 0
    assert main(["run", "--config", cfg2]) == 0
    t1 = (tmp_path / "o1" / "trace.csv").read_bytes()
    t2 = (tmp_path / "o2" / "trace.csv").read_bytes()
    assert t1 == t2


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ALMPDE_OUTPUT_ROOT", str(tmp_path / "root"))
    cfg = write_config(tmp_path / "c.cfg", [
        "problem.preset = unconstrained_decay",
        "run.output_dir = rel_out",
    ])
    assert main(["run", "--config", cfg]) == 0
    assert (tmp_path / "root" / "rel_out" / "trace.csv").exists()


@pytest.mark.parametrize("command, output", [
    ("run", ""), ("run", "a_file"), ("sweep", "a_file/sub"), ("verify", "")])
def test_an_output_directory_that_cannot_be_made_is_an_error_line(
        tmp_path, monkeypatch, capsys, command, output):
    # an empty path, or one that names a file or runs through one
    monkeypatch.delenv("ALMPDE_OUTPUT_ROOT", raising=False)
    (tmp_path / "a_file").write_text("")
    if output:
        output = str(tmp_path / output)
    cfg = write_config(tmp_path / "c.cfg", [
        "problem.preset = unconstrained_decay",
        f"run.output_dir = {output}",
    ])
    argv = {"run": ["run", "--config", cfg],
            "sweep": ["sweep", "--config", cfg, "--param", "tau", "--values", "0.9"],
            "verify": ["verify", "--check", "argmin_bruteforce", "--output", output]}
    assert main(argv[command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


# ------------------------------------------------------------------ verify

def test_verify_single_check(tmp_path):
    code = main(["verify", "--check", "argmin_bruteforce", "--output", str(tmp_path)])
    assert code == 0
    report = (tmp_path / "verify_report.csv").read_text().strip().splitlines()
    assert report[0] == "check,error,tolerance,pass"
    assert report[1].startswith("argmin_bruteforce") and report[1].endswith(",1")


def test_verify_forced_failure(tmp_path, monkeypatch):
    monkeypatch.setitem(oracles.ORACLE_CHECKS, "failing",
                        lambda: oracles.OracleReport("failing", 1.0, 0.5))
    code = main(["verify", "--check", "failing", "--output", str(tmp_path)])
    assert code == 1
    report = (tmp_path / "verify_report.csv").read_text().strip().splitlines()
    assert report[1:] == ["failing,1,0.5,0"]



# ------------------------------------------------------------------- sweep

def test_sweep_two_values(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", [
        "problem.preset = paper_example_sec5",
        f"run.output_dir = {tmp_path / 'out'}",
    ])
    assert main(["sweep", "--config", cfg, "--param", "tau", "--values", "0.5,0.9"]) == 0
    summary = (tmp_path / "out_sweep" / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == "value,outer_iters,final_R,final_J,status"
    assert len(summary) == 3
    assert (tmp_path / "out_sweep" / "tau_0.5" / "trace.csv").exists()
    assert (tmp_path / "out_sweep" / "tau_0.9" / "trace.csv").exists()
    for line in summary[1:]:
        assert line.endswith("tolerance_met")


def test_sweep_gamma_values_both_converge(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", [
        "problem.preset = paper_example_sec5",
        f"run.output_dir = {tmp_path / 'out'}",
    ])
    assert main(["sweep", "--config", cfg, "--param", "gamma", "--values", "2,4"]) == 0
    summary = (tmp_path / "out_sweep" / "summary.csv").read_text().strip().splitlines()
    for line in summary[1:]:
        fields = line.split(",")
        assert float(fields[2]) <= 1e-4        # final residual
        assert fields[4] == "tolerance_met"


def test_sweep_rejects_nonfinite_value_in_its_own_row(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", [
        "problem.preset = paper_example_sec5",
        f"run.output_dir = {tmp_path / 'out'}",
    ])
    assert main(["sweep", "--config", cfg, "--param", "alpha", "--values", "inf,1"]) == 1
    summary = (tmp_path / "out_sweep" / "summary.csv").read_text().strip().splitlines()
    assert len(summary) == 3
    assert summary[1] == "inf,0,nan,nan,error: problem.alpha must be finite"
    assert summary[2].startswith("1,") and summary[2].endswith(",tolerance_met")


def test_swept_value_is_checked_like_a_file_line(tmp_path, capsys):
    bad = write_config(tmp_path / "bad.cfg", [
        "problem.preset = paper_example_sec5",
        "alm.tau = 1.5",
    ])
    with pytest.raises(ConfigError) as file_error:
        parse_config(bad)
    cfg = write_config(tmp_path / "c.cfg", [
        "problem.preset = paper_example_sec5",
        f"run.output_dir = {tmp_path / 'out'}",
    ])
    assert main(["sweep", "--config", cfg, "--param", "tau", "--values", "1.5"]) == 1
    assert str(file_error.value) == "alm.tau must lie in (0,1), got 1.5"
    assert f"tau=1.5: error: {file_error.value}" in capsys.readouterr().err


def test_sweep_summary_quotes_an_error_with_a_comma(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", [
        "problem.preset = paper_example_sec5",
        f"run.output_dir = {tmp_path / 'out'}",
    ])
    assert main(["sweep", "--config", cfg, "--param", "tau", "--values", "1.5,0.9"]) == 1
    with open(tmp_path / "out_sweep" / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [5, 5, 5]
    assert rows[1] == ["1.5", "0", "nan", "nan", "error: alm.tau must lie in (0,1), got 1.5"]
    assert rows[2][4] == "tolerance_met"


def test_rejected_sweep_value_gets_no_job_directory(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", [
        "problem.preset = paper_example_sec5",
        f"run.output_dir = {tmp_path / 'out'}",
    ])
    assert main(["sweep", "--config", cfg, "--param", "tau", "--values", "0.5,1.5"]) == 1
    outdir = tmp_path / "out_sweep"
    assert sorted(p.name for p in outdir.iterdir()) == ["summary.csv", "tau_0.5"]
    assert (outdir / "tau_0.5" / "trace.csv").exists()
    with open(outdir / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[2] == ["1.5", "0", "nan", "nan", "error: alm.tau must lie in (0,1), got 1.5"]


def test_failed_sweep_job_leaves_its_partial_trace(tmp_path, monkeypatch):
    calls = []
    solve = alm.msa_solve

    def failing_third_solve(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("solver failed")
        return solve(*args, **kwargs)

    monkeypatch.setattr(alm, "msa_solve", failing_third_solve)
    cfg = write_config(tmp_path / "c.cfg", [
        "problem.preset = paper_example_sec5",
        f"run.output_dir = {tmp_path / 'out'}",
    ])
    assert main(["sweep", "--config", cfg, "--param", "tau", "--values", "0.9"]) == 1
    lines = (tmp_path / "out_sweep" / "tau_0.9" / "trace.csv").read_text().splitlines()
    assert lines[0] == TRACE_COLUMNS
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]


def test_sweep_empty_values_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", ["problem.preset = paper_example_sec5"])
    assert main(["sweep", "--config", cfg, "--param", "tau", "--values", ""]) == 1
    assert "at least one value" in capsys.readouterr().err


def test_sweep_unknown_param_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", ["problem.preset = paper_example_sec5"])
    assert main(["sweep", "--config", cfg, "--param", "zeta", "--values", "1"]) == 1
