"""Run configuration: a single JSON document per run, strictly validated.

Schema (the sections and keys of _SCHEMA; any other is rejected):

    {
      "data":       {"phi": "z", "omega": "1", "psi": null, "eta": null},
      "domain":     {"re_min": -1.0, "re_max": 1.0, "im_min": -1.0, "im_max": 1.0,
                     "nu": 41, "nv": 41, "base": [0.0, 0.0]},
      "target":     {"kind": "quadric-h3", "mu": -1.0, "m": 1.0, "p": [1.0, 0.0, 0.0, 0.0]},
      "output":     {"mesh_path": "surface.obj", "mesh_format": "obj",
                     "report_path": "report.json", "curvature_csv_path": "curvature.csv"},
      "verify":     {"tolerances": {"mean_curvature": 1e-4}},
      "projection": {"model": "default"}
    }

Required: the domain's bounds and node counts, and target.kind.  The config
checks JSON types (numbers are finite: JSON has no NaN or Infinity); every
rule beyond them has one owner, whose check it calls: DomainGrid.snapped (the
grid; the base point moves to its nearest node), GeometryKind, TargetGeometry,
meshout.MESH_FORMATS and PROJECTIONS, verify.check_tolerances.  Its own rule:
lw-bryant needs data.psi and data.eta, every other kind data.phi and
data.omega.  Every error is a ConfigError naming the section or section.key.
"""

import json
import sys
from dataclasses import dataclass

from .domain import DomainGrid
from .meshout import MESH_FORMATS, PROJECTIONS
from .surfaces import GeometryKind, TargetGeometry
from .verify import check_tolerances


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    phi: str | None
    omega: str | None
    psi: str | None
    eta: str | None
    grid: DomainGrid
    target: TargetGeometry
    mesh_path: str | None
    mesh_format: str
    report_path: str | None
    curvature_csv_path: str | None
    tolerances: dict
    projection: str


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _number(value, name):
    """A JSON number as a float: not a boolean, and finite (JSON has no NaN or
    Infinity, and an integer past float range has no float)."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and abs(value) <= sys.float_info.max, f"{name} must be a finite number")
    return float(value)


def _text(value, name):
    _require(isinstance(value, str) and value.strip() != "", f"{name} must be text")
    return value


def _integer(value, name):
    _require(isinstance(value, int) and not isinstance(value, bool), f"{name} must be an integer")
    return value


def _numbers(n):
    def check(value, name):
        _require(isinstance(value, list) and len(value) == n, f"{name} must be {n} numbers")
        return tuple(_number(v, f"{name}[{i}]") for i, v in enumerate(value))
    return check


def _one_of(choices):
    def check(value, name):
        _require(value in choices, f"unknown {name} {value!r}: not one of {choices}")
        return value
    return check


def _tolerances(value, name):
    _require(isinstance(value, dict), f"{name} must be an object")
    tols = {key: _number(tol, f"{name}.{key}") for key, tol in value.items()}
    for key, tol in tols.items():
        try:
            check_tolerances({key: tol})
        except ValueError as exc:
            raise ConfigError(f"{name}.{key}: {exc}") from None
    return tols


# section -> key -> (checker(value, "section.key") -> value, default): a default of ...
# marks a required key, a default of None a key that takes null
_SCHEMA = {
    "data": dict.fromkeys(("phi", "omega", "psi", "eta"), (_text, None)),
    "domain": {**dict.fromkeys(("re_min", "re_max", "im_min", "im_max"), (_number, ...)),
               "nu": (_integer, ...), "nv": (_integer, ...), "base": (_numbers(2), [0.0, 0.0])},
    "target": {"kind": (_one_of(tuple(kind.value for kind in GeometryKind)), ...),
               "mu": (_number, 0.0), "m": (_number, 1.0), "p": (_numbers(4), None)},
    "output": {**dict.fromkeys(("mesh_path", "report_path", "curvature_csv_path"), (_text, None)),
               "mesh_format": (_one_of(MESH_FORMATS), "obj")},
    "verify": {"tolerances": (_tolerances, {})},
    "projection": {"model": (_one_of(("default", *sorted(PROJECTIONS))), "default")},
}


def _walk(doc):
    """{section: {key: checked value}} for every key of _SCHEMA, defaults filled in."""
    _require(isinstance(doc, dict), "configuration must be a JSON object")
    for section in doc:
        _require(section in _SCHEMA, f"unknown section {section!r}")
    checked = {}
    for section, keys in _SCHEMA.items():
        body = doc.get(section, {})
        _require(isinstance(body, dict), f"section {section!r} must be an object")
        for key in body:
            _require(key in keys, f"unknown key {section}.{key}")
        checked[section] = out = {}
        for key, (check, default) in keys.items():
            value = body.get(key, default)
            _require(value is not ..., f"{section}.{key} is required")
            null = value is None and default is None
            out[key] = value if null else check(value, f"{section}.{key}")
    return checked


def parse_config(doc) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    c = _walk(doc)
    try:
        grid = DomainGrid.snapped(**{**c["domain"], "base": complex(*c["domain"]["base"])})
    except ValueError as exc:
        raise ConfigError(f"invalid domain: {exc}") from None
    try:
        target = TargetGeometry(**{**c["target"], "kind": GeometryKind(c["target"]["kind"])})
    except ValueError as exc:
        raise ConfigError(f"invalid target: {exc}") from None
    need = ("psi", "eta") if target.kind is GeometryKind.LW_BRYANT else ("phi", "omega")
    _require(None not in map(c["data"].get, need),
             "%s targets need data.%s and data.%s" % (target.kind.value, *need))
    return RunConfig(**c["data"], grid=grid, target=target, **c["output"], **c["verify"],
                     projection=c["projection"]["model"])


def load_config(path) -> RunConfig:
    """Read and validate a JSON run configuration from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(doc)
