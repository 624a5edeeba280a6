"""Run configuration: flat `section.key = value` text files.

Unknown keys are rejected; omitted keys fall back to documented defaults
(presets may install their own defaults, e.g. the multiplier seed of the
built-in obstacle example).  Numeric constraints are validated here so the
CLI can fail before any computation starts.
"""

import os
from dataclasses import dataclass

from .grid import build_mesh, TimeField, BoundaryTimeField, ControlBounds, \
    load_space_slice, load_time_field
from .operators import DiffusionCoefficients
from .cost import ProblemSpec
from .msa import MsaConfig
from .alm import AlmConfig
from .presets import PRESETS, build_problem


class ConfigError(ValueError):
    pass


def _parse_bool(s):
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


# key -> (parser, default); None default means "unset"
_SCHEMA = {
    "mesh.nx": (int, None),
    "mesh.ny": (int, None),
    "mesh.nt": (int, None),
    "mesh.lx": (float, None),
    "mesh.ly": (float, None),
    "mesh.T": (float, None),
    "problem.preset": (str, None),
    "problem.alpha": (float, None),
    "problem.beta": (float, None),
    "problem.psi": (float, None),
    "problem.psi_file": (str, None),
    "problem.y0_file": (str, None),
    "problem.yd_file": (str, None),
    "problem.ua": (float, None),
    "problem.ub": (float, None),
    "problem.va": (float, None),
    "problem.vb": (float, None),
    "problem.ua_file": (str, None),
    "problem.ub_file": (str, None),
    "problem.boundary_control": (_parse_bool, None),
    "problem.a11": (float, None),
    "problem.a22": (float, None),
    "alm.rho0": (float, 1.0),
    "alm.mu0": (float, 0.0),
    "alm.tau": (float, 0.9),
    "alm.gamma": (float, 2.0),
    "alm.r_plus0": (float, 1e6),
    "alm.eps2": (float, 1e-4),
    "alm.max_outer": (int, 200),
    "msa.eps1": (float, 1e-4),
    "msa.max_inner": (int, 500),
    "msa.step": (float, 1.0),
    "run.output_dir": (str, "out"),
    "run.dump_fields": (_parse_bool, False),
}


@dataclass
class RunConfig:
    raw: dict
    path: str = ""
    base_dir: str = "."

    def get(self, key):
        return self.raw[key]


def parse_config(path):
    """Read and validate a config file; raises ConfigError with line info."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
            key, _, val = stripped.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in _SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            parser, _ = _SCHEMA[key]
            try:
                values[key] = parser(val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc

    preset = values.get("problem.preset")
    if preset is not None and preset not in PRESETS:
        raise ConfigError(f"problem.preset must be one of {sorted(PRESETS)}, got {preset!r}")

    # preset-provided config defaults, then schema defaults
    raw = {}
    preset_defaults = PRESETS[preset]["config_defaults"] if preset else {}
    for key, (_, default) in _SCHEMA.items():
        if key in values:
            raw[key] = values[key]
        elif key in preset_defaults:
            raw[key] = preset_defaults[key]
        else:
            raw[key] = default

    if preset:
        dm = PRESETS[preset]["default_mesh"]
        for key, val in zip(("mesh.nx", "mesh.ny", "mesh.nt", "mesh.lx", "mesh.ly", "mesh.T"), dm):
            if raw[key] is None:
                raw[key] = val

    _validate(raw, path)
    return RunConfig(raw=raw, path=path, base_dir=os.path.dirname(os.path.abspath(path)))


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _validate(raw, path):
    for key in ("mesh.nx", "mesh.ny", "mesh.nt", "mesh.lx", "mesh.ly", "mesh.T"):
        _require(raw[key] is not None, f"{path}: {key} is required (no preset default)")
    _require(raw["mesh.nx"] >= 3 and raw["mesh.ny"] >= 3,
             "mesh.nx and mesh.ny must be >= 3")
    _require(raw["mesh.nt"] >= 1, "mesh.nt must be >= 1")
    _require(raw["mesh.lx"] > 0 and raw["mesh.ly"] > 0 and raw["mesh.T"] > 0,
             "mesh extents must be positive")
    _require(0 < raw["alm.tau"] < 1, f"alm.tau must lie in (0,1), got {raw['alm.tau']}")
    _require(raw["alm.gamma"] > 1, f"alm.gamma must exceed 1, got {raw['alm.gamma']}")
    _require(raw["alm.rho0"] > 0, f"alm.rho0 must be positive, got {raw['alm.rho0']}")
    _require(raw["alm.mu0"] >= 0, f"alm.mu0 must be nonnegative, got {raw['alm.mu0']}")
    _require(raw["alm.eps2"] >= 0, f"alm.eps2 must be nonnegative, got {raw['alm.eps2']}")
    _require(raw["alm.max_outer"] >= 1, f"alm.max_outer must be >= 1, got {raw['alm.max_outer']}")
    _require(raw["alm.r_plus0"] > 0, "alm.r_plus0 must be positive")
    _require(raw["msa.eps1"] > 0, f"msa.eps1 must be positive, got {raw['msa.eps1']}")
    _require(raw["msa.max_inner"] >= 1, "msa.max_inner must be >= 1")
    _require(0 < raw["msa.step"] <= 1, f"msa.step must lie in (0,1], got {raw['msa.step']}")
    if raw["problem.preset"] is None:
        _require(raw["problem.y0_file"] is not None and raw["problem.yd_file"] is not None,
                 "custom problems need problem.y0_file and problem.yd_file "
                 "(or set problem.preset)")
    for key in ("problem.alpha", "problem.beta"):
        if raw[key] is not None:
            _require(raw[key] > 0, f"{key} must be positive, got {raw[key]}")
    for key in ("problem.a11", "problem.a22"):
        if raw[key] is not None:
            _require(raw[key] > 0, f"{key} must be positive, got {raw[key]}")


def _resolve_path(config, p):
    return p if os.path.isabs(p) else os.path.join(config.base_dir, p)


def build_run(config):
    """Materialize (ProblemSpec, AlmConfig) from a parsed RunConfig."""
    raw = config.raw
    mesh = build_mesh(raw["mesh.nx"], raw["mesh.ny"], raw["mesh.nt"],
                      raw["mesh.lx"], raw["mesh.ly"], raw["mesh.T"])
    preset = raw["problem.preset"]
    if preset is not None:
        spec = build_problem(preset, mesh)
        spec = _apply_overrides(spec, raw, mesh, config)
    else:
        spec = _custom_spec(raw, mesh, config)
    alm = AlmConfig(
        rho0=raw["alm.rho0"], mu0=raw["alm.mu0"], tau=raw["alm.tau"],
        gamma=raw["alm.gamma"], R_plus_0=raw["alm.r_plus0"], eps2=raw["alm.eps2"],
        max_outer=raw["alm.max_outer"],
        msa=MsaConfig(eps1=raw["msa.eps1"], max_inner=raw["msa.max_inner"],
                      step=raw["msa.step"]))
    return spec, alm


def _bounds_from_raw(raw, mesh, config, fallback):
    ua = raw["problem.ua"]
    ub = raw["problem.ub"]
    if raw["problem.ua_file"] is not None:
        ua_f = load_time_field(_resolve_path(config, raw["problem.ua_file"]), mesh)
    else:
        ua_f = TimeField.constant(mesh, ua) if ua is not None else fallback.ua
    if raw["problem.ub_file"] is not None:
        ub_f = load_time_field(_resolve_path(config, raw["problem.ub_file"]), mesh)
    else:
        ub_f = TimeField.constant(mesh, ub) if ub is not None else fallback.ub
    va = raw["problem.va"]
    vb = raw["problem.vb"]
    va_f = BoundaryTimeField.constant(mesh, va) if va is not None else fallback.va
    vb_f = BoundaryTimeField.constant(mesh, vb) if vb is not None else fallback.vb
    return ControlBounds(ua_f, ub_f, va_f, vb_f)


def _apply_overrides(spec, raw, mesh, config):
    alpha = raw["problem.alpha"] if raw["problem.alpha"] is not None else spec.alpha
    beta = raw["problem.beta"] if raw["problem.beta"] is not None else spec.beta
    if raw["problem.psi_file"] is not None:
        psi = load_time_field(_resolve_path(config, raw["problem.psi_file"]), mesh)
    elif raw["problem.psi"] is not None:
        psi = TimeField.constant(mesh, raw["problem.psi"])
    else:
        psi = spec.psi
    bounds = _bounds_from_raw(raw, mesh, config, spec.bounds)
    bc = raw["problem.boundary_control"]
    if bc is None:
        bc = spec.boundary_control_enabled
    coeffs = spec.coeffs
    if raw["problem.a11"] is not None or raw["problem.a22"] is not None:
        a11 = raw["problem.a11"] if raw["problem.a11"] is not None else 1.0
        a22 = raw["problem.a22"] if raw["problem.a22"] is not None else 1.0
        coeffs = DiffusionCoefficients(mesh, a11, a22)
    return ProblemSpec(mesh, coeffs, spec.y0, spec.y_d, psi, alpha, beta, bounds,
                       boundary_control_enabled=bc)


def _custom_spec(raw, mesh, config):
    y0 = load_space_slice(_resolve_path(config, raw["problem.y0_file"]), mesh)
    y_d = load_space_slice(_resolve_path(config, raw["problem.yd_file"]), mesh)
    if raw["problem.psi_file"] is not None:
        psi = load_time_field(_resolve_path(config, raw["problem.psi_file"]), mesh)
    else:
        psi = TimeField.constant(mesh, raw["problem.psi"] if raw["problem.psi"] is not None else 1e6)
    default_bounds = ControlBounds.constant(mesh, ua=-1.0, ub=1.0, va=-1.0, vb=1.0)
    bounds = _bounds_from_raw(raw, mesh, config, default_bounds)
    a11 = raw["problem.a11"] if raw["problem.a11"] is not None else 1.0
    a22 = raw["problem.a22"] if raw["problem.a22"] is not None else 1.0
    return ProblemSpec(
        mesh, DiffusionCoefficients(mesh, a11, a22), y0, y_d, psi,
        alpha=raw["problem.alpha"] if raw["problem.alpha"] is not None else 1.0,
        beta=raw["problem.beta"] if raw["problem.beta"] is not None else 1.0,
        bounds=bounds,
        boundary_control_enabled=bool(raw["problem.boundary_control"]))


def describe_defaults():
    lines = []
    for key, (_, default) in _SCHEMA.items():
        if default is not None:
            lines.append(f"  {key} = {default}")
    return "\n".join(lines)
