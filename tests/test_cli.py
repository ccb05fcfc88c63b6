import json
import warnings

import pytest

from minksurf.cli import (EXIT_BASE_MASKED, EXIT_CONFIG, EXIT_OK, EXIT_PARSE,
                          EXIT_VERIFY, main)
from minksurf.config import ConfigError, parse_config


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


def test_kind_mu_mismatch_is_config_error(tmp_path):
    doc = _base_config(tmp_path)
    doc["target"] = {"kind": "quadric-desitter", "mu": -1.0, "m": 1.0}
    code = main(["run", _write(tmp_path, doc)])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "mesh.obj").exists()
    assert not (tmp_path / "report.json").exists()


def test_unknown_key_rejected(tmp_path):
    doc = _base_config(tmp_path)
    doc["target"]["extra"] = 1
    assert main(["run", _write(tmp_path, doc)]) == EXIT_CONFIG
    doc2 = _base_config(tmp_path)
    doc2["bogus_section"] = {}
    assert main(["run", _write(tmp_path, doc2)]) == EXIT_CONFIG


def test_parse_error_exit_code(tmp_path):
    doc = _base_config(tmp_path)
    doc["data"]["phi"] = "z +* 2"
    assert main(["run", _write(tmp_path, doc)]) == EXIT_PARSE


def test_masked_base_exit_code(tmp_path):
    doc = _base_config(tmp_path)
    doc["data"]["phi"] = "1/z"
    assert main(["run", _write(tmp_path, doc)]) == EXIT_BASE_MASKED


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


def test_missing_config_file():
    assert main(["run", "/nonexistent/path.json"]) == EXIT_CONFIG


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


def test_nonfinite_base_is_config_error(tmp_path):
    doc = _base_config(tmp_path)
    doc["domain"]["base"] = [float("inf"), 0.0]
    assert main(["run", _write(tmp_path, doc)]) == EXIT_CONFIG
