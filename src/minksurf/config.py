"""Run configuration: a single JSON document per run, strictly validated.

Schema (unknown keys are rejected everywhere):

    {
      "data":    {"phi": "z", "omega": "1", "psi": null, "eta": null},
      "domain":  {"re_min": -1.0, "re_max": 1.0, "im_min": -1.0,
                  "im_max": 1.0, "nu": 41, "nv": 41, "base": [0.0, 0.0]},
      "target":  {"kind": "affine-e3 | affine-l3 | affine-isotropic |"
                          " quadric-h3 | quadric-desitter |"
                          " quadric-lightcone | lw-bryant",
                  "mu": -1.0, "m": 1.0, "p": [1.0, 0.0, 0.0, 0.0]},
      "output":  {"mesh_path": "surface.obj", "mesh_format": "obj | ply",
                  "report_path": "report.json",
                  "curvature_csv_path": "curvature.csv"},
      "verify":  {"tolerances": {"mean_curvature": 1e-4}},
      "projection": {"model": "default"}
    }

"data", "domain" and "target" are required; linear-Weingarten targets
need (psi, eta), every other target needs (phi, omega).  mu and the kind
must agree in sign for quadrics, m must be non-zero away from the affine
cases, and p must be a non-zero 4-vector whose causal type matches the
affine kind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import math

from .surfaces import GeometryKind, TargetGeometry
from .domain import DomainGrid
from .meshout import PROJECTIONS
from .verify import RESIDUAL_NAMES


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


_SECTIONS = {"data", "domain", "target", "output", "verify", "projection"}
_KEYS = {
    "data": {"phi", "omega", "psi", "eta"},
    "domain": {"re_min", "re_max", "im_min", "im_max", "nu", "nv", "base"},
    "target": {"kind", "mu", "m", "p"},
    "output": {"mesh_path", "mesh_format", "report_path", "curvature_csv_path"},
    "verify": {"tolerances"},
    "projection": {"model"},
}
MESH_FORMATS = ("obj", "ply")


@dataclass
class RunConfig:
    phi: str | None
    omega: str | None
    psi: str | None
    eta: str | None
    grid: DomainGrid
    target: TargetGeometry
    mesh_path: str | None = None
    mesh_format: str = "obj"
    report_path: str | None = None
    curvature_csv_path: str | None = None
    tolerances: dict = field(default_factory=dict)
    projection: str = "default"


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _check_keys(section, obj):
    _require(isinstance(obj, dict), f"section {section!r} must be an object")
    unknown = set(obj) - _KEYS[section]
    _require(not unknown, f"unknown keys in {section!r}: {sorted(unknown)}")


def _number(obj, name):
    _require(isinstance(obj, (int, float)) and not isinstance(obj, bool)
             and math.isfinite(obj), f"{name} must be a finite number")
    return float(obj)


def _optional_text(obj, name):
    if obj is None:
        return None
    _require(isinstance(obj, str) and obj.strip() != "", f"{name} must be text")
    return obj


def parse_config(doc) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    _require(isinstance(doc, dict), "configuration must be a JSON object")
    unknown = set(doc) - _SECTIONS
    _require(not unknown, f"unknown sections: {sorted(unknown)}")
    for required in ("data", "domain", "target"):
        _require(required in doc, f"missing required section {required!r}")

    data = doc["data"]
    _check_keys("data", data)
    phi = _optional_text(data.get("phi"), "data.phi")
    omega = _optional_text(data.get("omega"), "data.omega")
    psi = _optional_text(data.get("psi"), "data.psi")
    eta = _optional_text(data.get("eta"), "data.eta")

    dom = doc["domain"]
    _check_keys("domain", dom)
    for key in ("re_min", "re_max", "im_min", "im_max", "nu", "nv"):
        _require(key in dom, f"domain.{key} is required")
    nu, nv = dom["nu"], dom["nv"]
    _require(isinstance(nu, int) and isinstance(nv, int) and nu >= 2 and nv >= 2,
             "domain.nu and domain.nv must be integers >= 2")
    base = dom.get("base", [0.0, 0.0])
    _require(isinstance(base, (list, tuple)) and len(base) == 2,
             "domain.base must be [re, im]")
    base_z = complex(_number(base[0], "domain.base[0]"),
                     _number(base[1], "domain.base[1]"))
    try:
        probe = DomainGrid(_number(dom["re_min"], "domain.re_min"),
                           _number(dom["re_max"], "domain.re_max"),
                           _number(dom["im_min"], "domain.im_min"),
                           _number(dom["im_max"], "domain.im_max"),
                           nu, nv, (0, 0))
        grid = DomainGrid(probe.re_min, probe.re_max, probe.im_min, probe.im_max,
                          nu, nv, probe.nearest_index(base_z))
    except ValueError as exc:
        raise ConfigError(f"invalid domain: {exc}") from None

    tgt = doc["target"]
    _check_keys("target", tgt)
    _require("kind" in tgt, "target.kind is required")
    try:
        kind = GeometryKind(tgt["kind"])
    except ValueError:
        raise ConfigError(f"unknown target.kind {tgt['kind']!r}") from None
    p = tgt.get("p")
    if p is not None:
        _require(isinstance(p, (list, tuple)) and len(p) == 4,
                 "target.p must be a 4-vector")
        p = tuple(_number(c, "target.p[...]") for c in p)
    try:
        target = TargetGeometry(kind=kind,
                                mu=_number(tgt.get("mu", 0.0), "target.mu"),
                                m=_number(tgt.get("m", 1.0), "target.m"),
                                p=p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    if kind is GeometryKind.LW_BRYANT:
        _require(psi is not None and eta is not None,
                 "lw-bryant targets need data.psi and data.eta")
    else:
        _require(phi is not None and omega is not None,
                 f"{kind.value} targets need data.phi and data.omega")

    cfg = RunConfig(phi=phi, omega=omega, psi=psi, eta=eta, grid=grid,
                    target=target)

    out = doc.get("output", {})
    _check_keys("output", out)
    cfg.mesh_path = _optional_text(out.get("mesh_path"), "output.mesh_path")
    cfg.report_path = _optional_text(out.get("report_path"), "output.report_path")
    cfg.curvature_csv_path = _optional_text(out.get("curvature_csv_path"),
                                            "output.curvature_csv_path")
    fmt = out.get("mesh_format", "obj")
    _require(fmt in MESH_FORMATS, f"output.mesh_format must be one of {MESH_FORMATS}")
    cfg.mesh_format = fmt

    ver = doc.get("verify", {})
    _check_keys("verify", ver)
    tols = ver.get("tolerances", {})
    _require(isinstance(tols, dict), "verify.tolerances must be an object")
    unknown = set(tols) - set(RESIDUAL_NAMES)
    _require(not unknown, f"unknown keys in 'verify.tolerances': {sorted(unknown)}")
    cfg.tolerances = {k: _number(v, f"verify.tolerances.{k}") for k, v in tols.items()}
    for k, v in cfg.tolerances.items():
        _require(v >= 0, f"verify.tolerances.{k} must be non-negative")

    proj = doc.get("projection", {})
    _check_keys("projection", proj)
    model = proj.get("model", "default")
    allowed = ("default", *sorted(PROJECTIONS))
    _require(model in allowed, f"projection.model must be one of {allowed}")
    cfg.projection = model
    return cfg


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
