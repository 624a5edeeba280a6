"""Run configuration: flat `section.key = value` text files.

Unknown keys are rejected; omitted keys fall back to documented defaults
(presets may install their own defaults, e.g. the multiplier seed of the
built-in obstacle example).  The `alm.*` and `msa.*` keys are the fields of
AlmConfig and MsaConfig: a key's parser is the type of its field's default,
and its range check is the dataclass's own.  Every value is validated here,
non-finite numbers included, so the CLI can fail before any computation
starts.
"""

import math
import os
from dataclasses import dataclass, fields

from .grid import build_mesh, TimeField, IntervalField, BoundaryTimeField, ControlBounds, \
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


def _solver_fields(section, cls):
    """(config key, field name, default) of each setting of a solver config.

    The nested `AlmConfig.msa` is not a setting: MsaConfig has its own section.
    """
    return tuple((f"{section}.{f.name}", f.name, f.default)
                 for f in fields(cls) if f.name != "msa")


_ALM_FIELDS = _solver_fields("alm", AlmConfig)
_MSA_FIELDS = _solver_fields("msa", MsaConfig)

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
    **{key: (type(default), default) for key, _, default in _ALM_FIELDS + _MSA_FIELDS},
    "run.output_dir": (str, "out"),
    "run.dump_fields": (_parse_bool, False),
}


@dataclass
class RunConfig:
    raw: dict
    base_dir: str = "."


def parse_config(path, extra_lines=()):
    """Read and validate a config file; raises ConfigError with line info.

    `extra_lines` are read as further `key = value` lines after the file's
    own, so they override its values and pass the same checks.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        lines = fh.readlines()
    n_file = len(lines)
    values = {}
    for lineno, line in enumerate(lines + list(extra_lines), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        where = f"{path}:{lineno}" if lineno <= n_file else f"extra line {lineno - n_file}"
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected 'key = value', got {line.strip()!r}")
        key, _, val = stripped.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{where}: unknown key {key!r}")
        parser, _ = _SCHEMA[key]
        try:
            values[key] = parser(val)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc

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
    return RunConfig(raw=raw, base_dir=os.path.dirname(os.path.abspath(path)))


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
    _solver_config(raw)
    if raw["problem.preset"] is None:
        _require(raw["problem.y0_file"] is not None and raw["problem.yd_file"] is not None,
                 "custom problems need problem.y0_file and problem.yd_file "
                 "(or set problem.preset)")
    for key in ("problem.alpha", "problem.beta", "problem.a11", "problem.a22"):
        if raw[key] is not None:
            _require(raw[key] > 0, f"{key} must be positive, got {raw[key]}")
    for key in ("problem.psi", "problem.ua", "problem.ub"):
        _require(raw[key] is None or raw[key + "_file"] is None,
                 f"{key} and {key}_file are both set; give one of them")
    for key, val in raw.items():
        if type(val) is float and not math.isfinite(val):
            raise ConfigError(f"{key} must be finite")


def _solver_config(raw):
    """AlmConfig, with its MsaConfig, from the alm.* and msa.* values of raw.

    The dataclasses check their own ranges; a failed check is reported as a
    ConfigError that starts with the key.
    """
    msa = _config_from_raw("msa", MsaConfig, _MSA_FIELDS, raw)
    return _config_from_raw("alm", AlmConfig, _ALM_FIELDS, raw, msa=msa)


def _config_from_raw(section, cls, settings, raw, **nested):
    try:
        return cls(**{name: raw[key] for key, name, _ in settings}, **nested)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


def _resolve_path(config, p):
    return p if os.path.isabs(p) else os.path.join(config.base_dir, p)


def build_run(config):
    """Materialize (ProblemSpec, AlmConfig) from a parsed RunConfig."""
    raw = config.raw
    mesh = build_mesh(raw["mesh.nx"], raw["mesh.ny"], raw["mesh.nt"],
                      raw["mesh.lx"], raw["mesh.ly"], raw["mesh.T"])
    preset = raw["problem.preset"]
    if preset is not None:
        spec = _apply_overrides(build_problem(preset, mesh), raw, mesh, config)
    else:
        spec = _custom_spec(raw, mesh, config)
    return spec, _solver_config(raw)


def _field_override(raw, key, cls, mesh, config, fallback):
    """The field loaded from `key_file`, else the constant `key`, else fallback."""
    path = raw.get(key + "_file")
    if path is not None:
        return load_time_field(_resolve_path(config, path), cls, mesh)
    return cls.constant(mesh, raw[key]) if raw[key] is not None else fallback


def _apply_overrides(spec, raw, mesh, config):
    alpha = raw["problem.alpha"] if raw["problem.alpha"] is not None else spec.alpha
    beta = raw["problem.beta"] if raw["problem.beta"] is not None else spec.beta
    psi = _field_override(raw, "problem.psi", TimeField, mesh, config, spec.psi)
    b = spec.bounds
    bounds = ControlBounds(
        _field_override(raw, "problem.ua", IntervalField, mesh, config, b.ua),
        _field_override(raw, "problem.ub", IntervalField, mesh, config, b.ub),
        _field_override(raw, "problem.va", BoundaryTimeField, mesh, config, b.va),
        _field_override(raw, "problem.vb", BoundaryTimeField, mesh, config, b.vb))
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
    """A problem given by field files, with the same overrides as a preset.

    y0 and y_d come from the files; the base it overrides has unit
    coefficients, psi = 1e6, alpha = beta = 1, controls in [-1, 1] and no
    boundary control.
    """
    base = ProblemSpec(
        mesh, DiffusionCoefficients.unit(mesh),
        load_space_slice(_resolve_path(config, raw["problem.y0_file"]), mesh),
        load_space_slice(_resolve_path(config, raw["problem.yd_file"]), mesh),
        TimeField.constant(mesh, 1e6), alpha=1.0, beta=1.0,
        bounds=ControlBounds.constant(mesh, ua=-1.0, ub=1.0, va=-1.0, vb=1.0))
    return _apply_overrides(base, raw, mesh, config)


def describe_defaults():
    lines = []
    for key, (_, default) in _SCHEMA.items():
        if default is not None:
            lines.append(f"  {key} = {default}")
    return "\n".join(lines)
