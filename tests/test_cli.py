import hashlib
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from minksurf import cli, config
from minksurf.cli import (EXIT_BASE_MASKED, EXIT_CONFIG, EXIT_OK, EXIT_PARSE,
                          EXIT_VERIFY, main)
from minksurf.config import ConfigError, parse_config
from minksurf.domain import DomainGrid, sample_data
from minksurf.meshout import PROJECTIONS
from minksurf.surfaces import GeometryKind, make_affine_surface
from minksurf.verify import RESIDUAL_NAMES, verify_surface


def _base_config(tmp_path, **overrides):
    doc = {
        "data": {"phi": "z", "omega": "1"},
        "domain": {"re_min": -1.0, "re_max": 1.0, "im_min": -1.0, "im_max": 1.0,
                   "nu": 41, "nv": 41, "base": [0.0, 0.0]},
        "target": {"kind": "affine-e3", "p": [1.0, 0.0, 0.0, 0.0]},
        "output": {"mesh_path": str(tmp_path / "mesh.obj"),
                   "mesh_format": "obj",
                   "report_path": str(tmp_path / "report.json"),
                   "curvature_csv_path": str(tmp_path / "curv.csv")},
    }
    for key, val in overrides.items():
        doc[key] = val
    return doc


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_enneper_run_succeeds(tmp_path, capsys):
    code = main(["run", _write(tmp_path, _base_config(tmp_path))])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert report["residuals"]["mean_curvature"]["max"] <= 1e-5
    assert (tmp_path / "mesh.obj").exists()
    assert (tmp_path / "curv.csv").exists()
    out = capsys.readouterr().out
    assert "PASS mean_curvature" in out


def test_quadric_run_cmc(tmp_path):
    doc = _base_config(tmp_path)
    doc["target"] = {"kind": "quadric-h3", "mu": -1.0, "m": 1.0}
    code = main(["run", _write(tmp_path, doc)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["residuals"]["mean_curvature"]["max"] <= 1e-4
    assert report["residuals"]["quadric"]["max"] <= 1e-8


@pytest.mark.parametrize("target, message", [
    ({"kind": "quadric-desitter", "mu": -1.0, "m": 1.0}, "selects quadric-h3"),
    ({"kind": "quadric-h4", "mu": -1.0, "m": 1.0}, "unknown target.kind 'quadric-h4'"),
    ({"kind": "affine-e3", "p": [0, 0, 0, 0]}, "p must be non-zero"),
])
def test_bad_target_is_config_error(tmp_path, capsys, target, message):
    doc = _base_config(tmp_path, target=target)
    code = main(["run", _write(tmp_path, doc)])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "mesh.obj").exists()
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("kind,mu", (("quadric-h3", -1e-320), ("quadric-desitter", 1e-320),
                                     ("lw-bryant", -1e-320)))
def test_mu_without_a_finite_reciprocal_is_config_error(tmp_path, capsys, kind, mu):
    doc = _base_config(tmp_path)
    doc["target"] = {"kind": kind, "mu": mu, "m": 1.0}
    if kind == "lw-bryant":
        doc["data"] = {"psi": "z", "eta": "1"}
    code = main(["run", _write(tmp_path, doc)])
    assert code == EXIT_CONFIG
    assert "1/mu" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_unknown_key_rejected(tmp_path):
    doc = _base_config(tmp_path)
    doc["target"]["extra"] = 1
    assert main(["run", _write(tmp_path, doc)]) == EXIT_CONFIG
    doc2 = _base_config(tmp_path)
    doc2["bogus_section"] = {}
    assert main(["run", _write(tmp_path, doc2)]) == EXIT_CONFIG


@pytest.mark.parametrize("phi, pos", [("z +* 2", 3), ("(z", 2), ("z z", 2),
                                      pytest.param("z^" + "9" * 400, 2, id="z^9...9")])
def test_parse_error_exit_code(tmp_path, capsys, phi, pos):
    doc = _base_config(tmp_path)
    doc["data"]["phi"] = phi
    assert main(["run", _write(tmp_path, doc)]) == EXIT_PARSE
    assert f"position {pos})" in capsys.readouterr().err


@pytest.mark.parametrize("phi", ["z^²", "²*z", "٣*z"])
def test_non_ascii_digit_is_parse_error(tmp_path, capsys, phi):
    doc = _base_config(tmp_path)
    doc["data"]["phi"] = phi
    assert main(["run", _write(tmp_path, doc)]) == EXIT_PARSE
    assert "position" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["phi", "omega"])
def test_overflowing_literal_is_parse_error(tmp_path, capsys, key):
    doc = _base_config(tmp_path)
    doc["data"][key] = "1e999"
    assert main(["run", _write(tmp_path, doc)]) == EXIT_PARSE
    assert "position 0" in capsys.readouterr().err
    assert not (tmp_path / "mesh.obj").exists()


def test_masked_base_exit_code(tmp_path):
    doc = _base_config(tmp_path)
    doc["data"]["phi"] = "1/z"
    assert main(["run", _write(tmp_path, doc)]) == EXIT_BASE_MASKED


LW = {"kind": "lw-bryant", "mu": -0.5, "m": 1.0}


@pytest.mark.parametrize("target,data", [({"kind": "quadric-h3", "mu": -1.0, "m": 1.0}, None),
                                         (LW, {"psi": "z", "eta": "0.3"})])
def test_a_run_drops_the_frame_once_the_surface_is_built(tmp_path, monkeypatch, target, data):
    seen = {}

    def build(cfg):
        surface = build_surface(cfg)
        seen["built"] = sorted(surface.aux)
        return surface

    def export(surface, *args, **kwargs):
        seen["exported"] = sorted(surface.aux)
        return export_mesh(surface, *args, **kwargs)

    build_surface, export_mesh = cli._build_surface, cli.export_mesh
    monkeypatch.setattr(cli, "_build_surface", build)
    monkeypatch.setattr(cli, "export_mesh", export)
    doc = _base_config(tmp_path, target=target)
    doc["domain"].update(re_min=-0.6, re_max=0.6, im_min=-0.6, im_max=0.6, nu=81, nv=81)
    if data:
        doc["data"] = data
    assert main(["run", _write(tmp_path, doc), "--quiet"]) == EXIT_OK
    assert "frame" in seen["built"] and "frame" not in seen["exported"]


@pytest.mark.parametrize("data, target, message", [
    ({"phi": "1/z", "omega": "1"}, None, "base node is masked; choose another base point"),
    ({"phi": "0", "omega": "1"}, None, "no grid node is usable"),
    # an exponent past int64 but within float range: z^n is 0 or overflows
    ({"phi": "z^99999999999999999999", "omega": "1"}, None, "no grid node is usable"),
    # phi is finite on the grid, but its derivative 1e308 + 1e308 is not
    ({"phi": "1e308*z + 1e308*z", "omega": "1"}, {"kind": "quadric-h3", "mu": -1.0, "m": 1.0},
     "no grid node is usable"),
    ({"psi": "1/z", "eta": "0.3"}, LW, "base node is masked; choose another base point"),
    ({"psi": "1", "eta": "0.3"}, dict(LW, mu=1.0), "no grid node is usable"),
])
def test_unusable_base_message(tmp_path, capsys, data, target, message):
    # every node critical (phi = 0) or on the LW pole (mu |psi|^2 = 1) is
    # not fixed by moving the base point, and the message must not say so
    doc = _base_config(tmp_path, data=data)
    if target:
        doc["target"] = target
    assert main(["run", _write(tmp_path, doc)]) == EXIT_BASE_MASKED
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key, args", [
    ("mesh_path", []), ("curvature_csv_path", []), ("report_path", []),
    ("report_path", ["--verify-only"]), (None, ["--mesh", "{missing}/m.obj"]),
    (None, ["--report", "{missing}/r.json"]),
    # "key=path": an output path that is itself a directory
    ("mesh_path=.", []), ("report_path=/", []),
])
def test_missing_output_directory_is_config_error(tmp_path, monkeypatch, capsys, key, args):
    missing = tmp_path / "no-such-dir"
    named = str(missing)    # the path the message names
    doc = _base_config(tmp_path)
    if key:
        key, _, path = key.partition("=")
        doc["output"][key] = path or str(missing / "out")
        named = path or named
    argv = [a.format(missing=missing) for a in args]
    monkeypatch.chdir(tmp_path)
    assert main(["run", _write(tmp_path, doc), *argv]) == EXIT_CONFIG
    assert f"output {named}" in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.json"]   # nothing built


def test_verify_only_ignores_missing_mesh_and_csv_directories(tmp_path):
    doc = _base_config(tmp_path)
    doc["output"].update(mesh_path=str(tmp_path / "no-such-dir" / "m.obj"),
                         curvature_csv_path=str(tmp_path / "no-such-dir" / "c.csv"))
    assert main(["run", _write(tmp_path, doc), "--verify-only", "--quiet"]) == EXIT_OK
    assert (tmp_path / "report.json").exists()


def test_verification_failure_exit_code(tmp_path):
    doc = _base_config(tmp_path)
    doc["verify"] = {"tolerances": {"mean_curvature": 1e-30}}
    assert main(["run", _write(tmp_path, doc)]) == EXIT_VERIFY
    # report is still written for diagnosis
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is False


def test_verify_only_writes_no_mesh(tmp_path):
    doc = _base_config(tmp_path)
    code = main(["run", _write(tmp_path, doc), "--verify-only", "--quiet"])
    assert code == EXIT_OK
    assert not (tmp_path / "mesh.obj").exists()
    assert (tmp_path / "report.json").exists()


def test_outputs_are_deterministic(tmp_path):
    doc = _base_config(tmp_path)
    cfg = _write(tmp_path, doc)
    assert main(["run", cfg, "--quiet"]) == EXIT_OK
    mesh1 = (tmp_path / "mesh.obj").read_bytes()
    rep1 = (tmp_path / "report.json").read_bytes()
    csv1 = (tmp_path / "curv.csv").read_bytes()
    assert main(["run", cfg, "--quiet"]) == EXIT_OK
    assert (tmp_path / "mesh.obj").read_bytes() == mesh1
    assert (tmp_path / "report.json").read_bytes() == rep1
    assert (tmp_path / "curv.csv").read_bytes() == csv1


def test_cli_overrides_paths(tmp_path):
    doc = _base_config(tmp_path)
    cfg = _write(tmp_path, doc)
    code = main(["run", cfg, "--quiet",
                 "--mesh", str(tmp_path / "alt.obj"),
                 "--report", str(tmp_path / "alt.json")])
    assert code == EXIT_OK
    assert (tmp_path / "alt.obj").exists()
    assert (tmp_path / "alt.json").exists()


def test_lw_bryant_config(tmp_path):
    doc = _base_config(tmp_path)
    doc["data"] = {"psi": "z", "eta": "0.3"}
    doc["domain"]["re_min"] = doc["domain"]["im_min"] = -0.6
    doc["domain"]["re_max"] = doc["domain"]["im_max"] = 0.6
    doc["domain"]["nu"] = doc["domain"]["nv"] = 81
    doc["target"] = {"kind": "lw-bryant", "mu": -0.5, "m": 1.0}
    doc["output"]["mesh_format"] = "ply"
    doc["output"]["mesh_path"] = str(tmp_path / "lw.ply")
    code = main(["run", _write(tmp_path, doc), "--quiet"])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["residuals"]["linear_weingarten"]["max"] <= 1e-3
    assert (tmp_path / "lw.ply").read_bytes()[:4] == b"ply\n"


def test_lw_requires_secondary_data(tmp_path):
    doc = _base_config(tmp_path)
    doc["target"] = {"kind": "lw-bryant", "mu": -0.5, "m": 1.0}
    assert main(["run", _write(tmp_path, doc)]) == EXIT_CONFIG


@pytest.mark.parametrize("text, message", [(None, "cannot read config"),
                                           ('{"data": ', "config is not valid JSON")])
def test_unreadable_config_is_config_error(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_parse_config_rejects_bad_domain():
    with pytest.raises(ConfigError):
        parse_config({"data": {"phi": "z", "omega": "1"},
                      "domain": {"re_min": 1.0, "re_max": -1.0, "im_min": 0.0,
                                 "im_max": 1.0, "nu": 5, "nv": 5},
                      "target": {"kind": "affine-e3", "p": [1, 0, 0, 0]}})
    with pytest.raises(ConfigError):
        parse_config({"data": {"phi": "z", "omega": "1"},
                      "domain": {"re_min": -1.0, "re_max": 1.0, "im_min": -1.0,
                                 "im_max": 1.0, "nu": 5, "nv": 5,
                                 "base": [9.0, 0.0]},
                      "target": {"kind": "affine-e3", "p": [1, 0, 0, 0]}})


def test_secondary_data_does_not_mask_primary_surface(tmp_path):
    # psi/eta feed only lw-bryant; a pole of psi must not mask a quadric
    outputs = {}
    for label, extra in (("plain", {}), ("secondary", {"psi": "1/(z-0.5)", "eta": "1"})):
        out = tmp_path / label
        out.mkdir()
        doc = _base_config(out)
        doc["data"].update(extra)
        doc["domain"]["nu"] = doc["domain"]["nv"] = 21
        doc["target"] = {"kind": "quadric-h3", "mu": -1.0, "m": 1.0}
        code = main(["run", _write(out, doc), "--quiet"])
        report = json.loads((out / "report.json").read_text())
        assert report["mesh"]["vertices"] == 21 * 21
        outputs[label] = [code] + [(out / f).read_bytes()
                                   for f in ("mesh.obj", "curv.csv", "report.json")]
    assert outputs["plain"] == outputs["secondary"]


def test_unknown_tolerance_key_rejected(tmp_path, capsys):
    doc = _base_config(tmp_path)
    doc["verify"] = {"tolerances": {"mean_curvatur": 1e-30}}
    assert main(["run", _write(tmp_path, doc)]) == EXIT_CONFIG
    assert "mean_curvatur" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("value", [-1.0, -1e-300])
def test_negative_tolerance_rejected(tmp_path, capsys, value):
    doc = _base_config(tmp_path)
    doc["verify"] = {"tolerances": {"hyperplane": value}}
    assert main(["run", _write(tmp_path, doc)]) == EXIT_CONFIG
    assert "verify.tolerances.hyperplane" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_small_timelike_p_selects_affine_e3(tmp_path):
    doc = _base_config(tmp_path, target={"kind": "affine-e3", "p": [1e-5, 0.0, 0.0, 0.0]})
    assert parse_config(doc).target.kind is GeometryKind.AFFINE_E3


def test_zero_tolerance_allowed(tmp_path):
    doc = _base_config(tmp_path)
    doc["verify"] = {"tolerances": {"hyperplane": 0}}
    assert parse_config(doc).tolerances == {"hyperplane": 0.0}


def _rejects(error, fn, *args):
    try:
        fn(*args)
    except error:
        return True
    return False


@pytest.mark.parametrize("name, value, rejected", [
    ("hyperplane", -1.0, True), ("hyperplane", -1e-300, True), ("hyperplane", math.nan, True),
    ("hyperplane", math.inf, True), ("hyperplane", 0.0, False), ("hyperplane", 1e300, False),
    pytest.param("hyperplane", 10 ** 400, True, id="hyperplane-int-past-float-range"),
    ("mean_curvatur", 1.0, True)])
def test_config_rejects_a_tolerance_exactly_where_verify_does(tmp_path, name, value, rejected):
    # verify.check_tolerances is the one rule; the config only adds the JSON type
    surface = make_affine_surface(sample_data("z", "1", DomainGrid.square(1.0, 9)),
                                  (1.0, 0.0, 0.0, 0.0))
    doc = _base_config(tmp_path)
    doc["verify"] = {"tolerances": {name: value}}
    assert _rejects(ValueError, verify_surface, surface, {name: value}) is rejected
    assert _rejects(ConfigError, parse_config, doc) is rejected


@pytest.mark.parametrize("base, index", [(0.25 + 0.5j, (6, 5)),    # on a node
                                         (0.3 - 0.1j, (4, 5)),     # between nodes
                                         (-1.0 + 1.0j, (8, 0)),    # on the edge
                                         (1.1 + 0j, (4, 8))])      # past it, nearest the edge
def test_config_grid_snaps_its_base_as_the_square_grid_does(tmp_path, base, index):
    doc = _base_config(tmp_path)
    doc["domain"].update(nu=9, nv=9, base=[base.real, base.imag])
    grid = DomainGrid.snapped(-1.0, 1.0, -1.0, 1.0, 9, 9, base)
    assert grid.base_index == index
    assert grid == DomainGrid.square(1.0, 9, base) == parse_config(doc).grid


def test_base_outside_the_grid_fails_in_grid_and_config(tmp_path):
    for fn, args in ((DomainGrid.square, (1.0, 9, 1.2 + 0j)),
                     (DomainGrid.snapped, (-1.0, 1.0, -1.0, 1.0, 9, 9, 1.2 + 0j)),
                     # the point's distance in steps overflows a float
                     (DomainGrid.snapped, (0.0, 1e-300, -1.0, 1.0, 2, 9, 1e10 + 0j))):
        assert _rejects(ValueError, fn, *args)
    doc = _base_config(tmp_path)
    doc["domain"].update(nu=9, nv=9, base=[1.2, 0.0])
    with pytest.raises(ConfigError, match="invalid domain"):
        parse_config(doc)


@pytest.mark.parametrize("section, key, value", [
    ("target", "p", [10 ** 400, 0, 0, 0]),
    ("verify", "tolerances", {"quadric": 10 ** 400}),
    ("domain", "re_min", -(10 ** 400)),
    ("domain", "base", [1e10, 0.0]),    # with re_max = 1e-300 below
    ("domain", "nu", 10 ** 400),
    ("domain", "nv", 10 ** 400),
], ids=["p", "tolerance", "re_min", "base", "nu", "nv"])
def test_numbers_past_float_range_are_config_errors(tmp_path, section, key, value):
    # float() of each overflows: a config error to report, not a traceback (exit 1)
    doc = _base_config(tmp_path)
    doc["domain"].update(re_min=0.0, re_max=1e-300, nu=2)
    doc.setdefault(section, {})[key] = value
    assert main(["run", _write(tmp_path, doc)]) == EXIT_CONFIG


def test_config_docstring_names_the_schema():
    block = re.search(r"\n    (\{\n.*?\n    \})\n", config.__doc__, re.S).group(1)
    documented = {section: set(keys) for section, keys in json.loads(block).items()}
    assert documented == {section: set(keys) for section, keys in config._SCHEMA.items()}


def test_unmeshable_run_writes_csv_and_report(tmp_path, capsys):
    # lightcone-slice divides by x0, which is 0 on the whole affine-e3 surface
    doc = _base_config(tmp_path, projection={"model": "lightcone-slice"})
    (tmp_path / "report.json").write_text("left by an earlier run")
    assert main(["run", _write(tmp_path, doc), "--quiet"]) == EXIT_VERIFY
    assert "no unmasked projectable nodes" in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True and "mesh" not in report
    assert len((tmp_path / "curv.csv").read_text().splitlines()) > 1
    assert not (tmp_path / "mesh.obj").exists()


@pytest.mark.parametrize("model", ["nope", 3, ["euclid-123"]])
def test_unknown_projection_model_rejected(tmp_path, capsys, model):
    doc = _base_config(tmp_path, projection={"model": model})
    assert main(["run", _write(tmp_path, doc)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "projection.model" in err and "poincare-ball" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("key,value", [("re_max", float("inf")),
                                       ("im_min", float("-inf")),
                                       ("re_min", float("nan"))])
def test_nonfinite_domain_is_config_error(tmp_path, capsys, key, value):
    doc = _base_config(tmp_path)
    doc["domain"][key] = value     # json writes Infinity / NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", _write(tmp_path, doc)]) == EXIT_CONFIG
    assert f"domain.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", [
    {"re_min": -1e308, "re_max": 1e308},   # each bound is finite, the width is not
    {"im_max": 1e300},                     # the step is finite, its square is not
    {"re_min": 0.0, "re_max": 5e-324},     # the step rounds to 0
])
def test_domain_beyond_float_range_is_config_error(tmp_path, capsys, bounds):
    doc = _base_config(tmp_path)
    doc["domain"].update(bounds)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", _write(tmp_path, doc)]) == EXIT_CONFIG
    assert "invalid domain" in capsys.readouterr().err


def test_nonfinite_base_is_config_error(tmp_path):
    doc = _base_config(tmp_path)
    doc["domain"]["base"] = [float("inf"), 0.0]
    assert main(["run", _write(tmp_path, doc)]) == EXIT_CONFIG


def test_pole_behind_base_run_meshes(tmp_path):
    # a pole on the Simpson midpoint of the edge left of the base node
    doc = _base_config(tmp_path, data={"phi": "z", "omega": "1 + 0.0001/(z + 0.0625)"})
    doc["domain"].update(nu=17, nv=17)
    assert main(["run", _write(tmp_path, doc), "--quiet"]) == EXIT_OK
    mesh = json.loads((tmp_path / "report.json").read_text())["mesh"]
    assert (mesh["vertices"], mesh["faces"]) == (153, 256)


# byte pins of whole `minksurf run` outputs, one config per kind: the mesh,
# the curvature CSV and the report JSON, whose `surface` and `mesh` extras
# no writer-level pin covers
CLI_PINS = {
    "affine-e3": (({"phi": "z", "omega": "1 + 0.1*z^2"}, 1.0,
                   {"kind": "affine-e3", "p": [1.0, 0.0, 0.0, 0.0]}, "obj"),
                  ("f9a61793771378f8d78055cde7a7a5d0115a40378eab99a5fb320bd8b05beec1",
                   "5902ee9af01abc2d298783e4f4fd00d7d542fed9cb0fe4645bc62e45f7ecffd5",
                   "e658642bf055b1ba03664f567f9c85bc28fb1d7303c54def9999c2a3f5eb638a")),
    "affine-l3": (({"phi": "z", "omega": "1"}, 1.0,
                   {"kind": "affine-l3", "p": [0.0, 0.0, 0.0, 1.0]}, "ply"),
                  ("2062af86e2ea31d14aee455703bd3a10fe22f612ee98a9e3f164e29d5237f2f7",
                   "821ea215f63628458039cf7b7efee2829f6a8f08b0fd0dec2408956d478dfced",
                   "d40a72581028f29df0f1dcb6807b745d4cceda1e8d69e7333b4c3e612958cea5")),
    "affine-isotropic": (({"phi": "z", "omega": "1"}, 1.0,
                          {"kind": "affine-isotropic", "p": [1.0, 0.0, 0.0, 1.0]}, "obj"),
                         ("d7dc760dda9e0b6d88ff0bd7645bb594dffdb5467e4cdeb450b809cb5d6cd620",
                          "f5bf50976c098925216d64cc3e133121b123c4c9b5696d91f77c6134de21aec7",
                          "4d6a457ed9023fc9e41309c6c18871c1cffe62d4ffd28866c8533590890dec25")),
    "quadric-h3": (({"phi": "z", "omega": "1 + 0.1*z^2"}, 1.0,
                    {"kind": "quadric-h3", "mu": -1.0, "m": 1.0}, "ply"),
                   ("7d85407683c4b9eabd07861f5237f699998a43ce50188216c3d5c90f6eed7816",
                    "016c60d79edf8bb7a823e6eec5d59d46f5fb178a152eb51f47dfc5bde3653d6b",
                    "6c1fc59acc934846730924c0580d5623ced23854dc2da4ae3704373b743d2e65")),
    "quadric-desitter": (({"phi": "z", "omega": "1"}, 0.6,
                          {"kind": "quadric-desitter", "mu": 1.0, "m": 1.0}, "obj"),
                         ("bef9c3acb7f48da580deac12797605c65acc6ddaaeea2d0347644c940d60244f",
                          "d21905119aa2621347b136604f431cd7367f00770ee2ddf9d67a00a2e1514a8a",
                          "c57040c8df0a7fc91577f8c36f7167a629e2bb7872b8883f69b6fc33592ec0c6")),
    "quadric-lightcone": (({"phi": "z", "omega": "1"}, 0.6,
                           {"kind": "quadric-lightcone", "mu": 0.0, "m": 1.0}, "ply"),
                          ("46a7cbad1579910cb9f7872ab79bf7b918380a42853bb249c7f73db3757325d8",
                           "e5334e8904eb721e5793cf83c4c53e5a11a346d4c4fb283063401f13ccda1660",
                           "542aa91d64a8e872a8111f257510f28db2a9ea9911fec9eae1dc6ef172ae74c1")),
    "lw-bryant": (({"psi": "z", "eta": "0.3"}, 0.5,
                   {"kind": "lw-bryant", "mu": -0.5, "m": 1.0}, "obj"),
                  ("598745f9b8c95aea3233cf3c471017915b1c5196c9c4936373411499ba6771b9",
                   "25cdca77514b3dfb52423981ec3bec8a323c020a689afe6b66a223c27ce4758d",
                   "4650165ce4d8f575574c0ae1aafc920eecc3776e5653c12a0727fa9a7bb8e410")),
}


def _cli_outputs(tmp_path, name):
    (data, half, target, fmt), _ = CLI_PINS[name]
    doc = _base_config(tmp_path, data=data, target=target)
    doc["domain"].update(re_min=-half, re_max=half, im_min=-half, im_max=half)
    doc["output"].update(mesh_path=str(tmp_path / f"mesh.{fmt}"), mesh_format=fmt)
    code = main(["run", _write(tmp_path, doc), "--quiet"])
    return code, tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                       for f in (f"mesh.{fmt}", "curv.csv", "report.json"))


@pytest.mark.sha256_pin
@pytest.mark.parametrize("name", sorted(CLI_PINS))
def test_cli_output_bytes_pinned(tmp_path, name):
    code, digests = _cli_outputs(tmp_path, name)
    assert code == EXIT_OK
    assert digests == CLI_PINS[name][1]


def test_cli_pins_cover_every_kind():
    assert set(CLI_PINS) == {kind.value for kind in GeometryKind}
    assert {spec[3] for spec, _ in CLI_PINS.values()} == {"obj", "ply"}


ROOT = Path(__file__).resolve().parents[1]


def test_readme_example_runs(tmp_path, monkeypatch):
    # README's config block is examples/quadric-h3.json, and it runs as documented
    block = re.search(r"One JSON document describes one run:\n\n```json\n(.*?)```",
                      (ROOT / "README.md").read_text(encoding="utf-8"), re.S).group(1)
    example = ROOT / "examples" / "quadric-h3.json"
    assert block == example.read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(example), "--quiet"]) == EXIT_OK
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cmc1.obj", "curv.csv", "report.json"]


@pytest.mark.parametrize("phi", [pytest.param("z" + "+z" * 1500, id="1500 sums"),
                                 pytest.param("(" * 1000 + "z" + ")" * 1000, id="1000 parentheses")])
def test_deeply_nested_expression_is_parse_error(tmp_path, monkeypatch, capsys, phi):
    # these ran out of Python's recursion (exit 1), in evaluate and in the parser
    doc = json.loads((ROOT / "examples" / "quadric-h3.json").read_text(encoding="utf-8"))
    doc["data"]["phi"] = phi
    monkeypatch.chdir(tmp_path)
    assert main(["run", _write(tmp_path, doc), "--verify-only", "--quiet"]) == EXIT_PARSE
    assert "nested deeper than" in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.json"]

# Every config exits with a documented code, and input its kind does not read
# changes no output.  The draws start from a CLI_PINS config on a small grid and
# set one to three fields from these pools; "{out}" is the run's directory.
POOLS = {
    ("data", "phi"): ["z", "z^2/2 - 0.5*z", "1/z", "0", "+z", "(z", "z z", "1e308*z",
                      "z^" + "9" * 400, "z^99999999999999999999", "exp(z)", "", None, 7],
    ("data", "omega"): ["1", "1 + 0.1*z^2", "1/(z - 0.31)", "0", "1e-320", "1e308", "1e308*z",
                        "log(z)", None],
    ("data", "psi"): ["z", "1", "1/z", "(z", "1e308*z", None],
    ("data", "eta"): ["0.3", "0", "1e308", "z", None],
    ("domain", "re_min"): [-1.0, -0.5, 0.0, -1e308, 1.0, 5e-324, "x", None],
    ("domain", "re_max"): [1.0, 0.5, 1e308, 5e-324, -1.0],
    ("domain", "im_min"): [-1.0, -1e-300, -1e308],
    ("domain", "im_max"): [1.0, 1e300],
    ("domain", "nu"): [2, 3, 9, 1, 4.0, True],
    ("domain", "nv"): [2, 4, 9, -3],
    ("domain", "base"): [[0.0, 0.0], [0.5, -0.5], [9.0, 0.0], [0.0], "0"],
    ("target", "kind"): [kind.value for kind in GeometryKind] + ["quadric-h4", 3],
    ("target", "mu"): [-1.0, 1.0, 0.0, -0.5, -1e300, 1e300, -1e-320, 5e-324, "1"],
    ("target", "m"): [1.0, -2.0, 0, 1e300, 1e-300],
    ("target", "p"): [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0],
                      [0, 0, 0, 0], [1e300, 0, 0, 0], [1, 2, 3], None],
    ("output", "mesh_path"): [".", "/", "{out}/m.ply", "{out}/no-such-dir/m.obj", None],
    ("output", "report_path"): [".", "/", "{out}/r.json", None],
    ("output", "curvature_csv_path"): [".", "{out}/c.csv", None],
    ("output", "mesh_format"): ["obj", "ply", "stl"],
    ("verify", "tolerances"): [{}, dict.fromkeys(RESIDUAL_NAMES, 1.0), {"quadric": 0},
                               {"mean_curvature": 1e300}, {"hyperplane": -1.0}, {"x": 1.0}],
    ("projection", "model"): ["default", *sorted(PROJECTIONS), "nope"],
}
# the fields each family does not read, and values the schema accepts for them
UNREAD = {"affine": {("data", "psi"), ("data", "eta"), ("target", "m"), ("target", "mu")},
          "quadric": {("data", "psi"), ("data", "eta"), ("target", "p")},
          "lw-bryant": {("data", "phi"), ("data", "omega"), ("target", "p")}}
ADDED = {("data", "phi"): ["1/z", "(z"], ("data", "omega"): ["0", "z z"],
         ("data", "psi"): ["1/(z - 0.5)", "(z"], ("data", "eta"): ["1", "1e308"],
         ("target", "m"): [0.0, 2.0], ("target", "mu"): [-1e300, 1.0],
         ("target", "p"): [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]}
# a fifth of the profile's examples, as in test_properties
FEW = settings(max_examples=settings.default.max_examples // 5, deadline=None, database=None)


def _small_config(name, n, fields=()):
    """CLI_PINS config `name` on an n x n grid, writing into "{out}", with fields set."""
    (data, half, target, fmt), _ = CLI_PINS[name]
    doc = {"data": dict(data), "target": dict(target),
           "domain": {"re_min": -half, "re_max": half, "im_min": -half, "im_max": half,
                      "nu": n, "nv": n},
           "output": {"mesh_path": "{out}/m." + fmt, "mesh_format": fmt,
                      "report_path": "{out}/r.json", "curvature_csv_path": "{out}/c.csv"}}
    for (section, key), value in fields:
        doc.setdefault(section, {})[key] = value
    return doc


def _fuzz_run(doc):
    """(exit code, {file name: bytes}) of one run of doc in a new directory, with
    every warning raised as an error."""
    with tempfile.TemporaryDirectory() as out:
        cfg = Path(out, "cfg.json")
        cfg.write_text(json.dumps(doc).replace("{out}", out))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", str(cfg), "--quiet"])
        cfg.unlink()
        return code, {f.name: f.read_bytes() for f in sorted(Path(out).iterdir())}


@pytest.mark.parametrize("name, fields, code", [
    # |phi|^2 overflows in the Gauss lift, and phi^2 omega in the densities
    ("quadric-h3", {("data", "phi"): "1e308*z"}, EXIT_VERIFY),
    ("affine-e3", {("data", "phi"): "1e308*z"}, EXIT_VERIFY),
    ("affine-e3", {("data", "phi"): "1/(z - 0.05)", ("data", "omega"): "1e308"}, EXIT_VERIFY),
    # the mesh's squared diagonals overflow
    ("affine-e3", {("data", "omega"): "1e308*z"}, EXIT_VERIFY),
    # (x, x) and |x|_E overflow in the build and in the verifier
    ("quadric-h3", {("target", "mu"): -1e300}, EXIT_VERIFY),
    ("quadric-desitter", {("target", "mu"): 1e300}, EXIT_VERIFY),
    # 1/mu is finite, but x = Psi diag(1, -mu) Psi* (x_m for LW) overflows
    ("quadric-h3", {("target", "mu"): -1e308}, EXIT_VERIFY),
    ("quadric-h3", {("target", "kind"): "quadric-desitter", ("target", "mu"): 1e308},
     EXIT_VERIFY),
    ("quadric-h3", {("target", "kind"): "lw-bryant", ("target", "mu"): -1e308,
                    ("data", "psi"): "z", ("data", "eta"): "1"}, EXIT_VERIFY),
    # |psi|^2 overflows at the LW pole test
    ("lw-bryant", {("data", "psi"): "1e308*z"}, EXIT_VERIFY),
    # (p, p) overflows, so every node would be degenerate
    ("affine-e3", {("target", "p"): [1e300, 0, 0, 0]}, EXIT_CONFIG),
])
def test_overflowing_input_exits_without_a_warning(name, fields, code):
    assert _fuzz_run(_small_config(name, 9, fields.items()))[0] == code


@FEW
@given(name=st.sampled_from(sorted(CLI_PINS)), n=st.integers(3, 9),
       fields=st.lists(st.sampled_from(sorted(POOLS)).flatmap(
           lambda field: st.tuples(st.just(field), st.sampled_from(POOLS[field]))),
           min_size=1, max_size=3, unique_by=lambda item: item[0]),
       added=st.sampled_from(sorted(ADDED)).flatmap(
           lambda field: st.tuples(st.just(field), st.sampled_from(ADDED[field]))))
def test_every_config_exits_with_a_documented_code(name, n, fields, added):
    doc = _small_config(name, n, fields)
    code, outputs = _fuzz_run(doc)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_PARSE, EXIT_BASE_MASKED, EXIT_VERIFY)
    kind = doc["target"].get("kind")
    if kind not in {k.value for k in GeometryKind}:
        return
    (section, key), value = added
    if (section, key) in UNREAD[kind if kind == "lw-bryant" else kind.split("-")[0]] \
            and key not in doc[section]:
        assert _fuzz_run(_small_config(name, n, [*fields, added])) == (code, outputs)
