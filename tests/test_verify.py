import hashlib
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import minksurf.verify as verify
from minksurf.domain import DomainGrid, sample_data
from minksurf.minkowski import E0, E3, ip31
from minksurf.surfaces import (GeometryKind, SurfaceSample, make_affine_surface,
                               make_lw_bryant, make_quadric_surface, uy_perturb)
from minksurf.verify import (RESIDUAL_NAMES, christoffel_residual,
                             conformality_residual, curvatures, default_tolerances,
                             first_form, fundamental_forms, intrinsic_curvature,
                             lw_residual, marginally_trapped_residual,
                             verify_surface)


def _synthetic(grid, x, normal=None, gauss=None, kind=GeometryKind.AFFINE_E3,
               p=(1.0, 0.0, 0.0, 0.0)):
    return SurfaceSample(grid=grid, kind=kind, x=x,
                         mask=np.ones(grid.shape, dtype=bool),
                         gauss=gauss, normal=normal, params={"p": p})


def _flat_plane(n=21):
    g = DomainGrid.square(1.0, n)
    zs = g.zs()
    x = np.stack([np.zeros(g.shape), zs.real, zs.imag, np.zeros(g.shape)], axis=-1)
    nrm = np.broadcast_to(np.array([0.0, 0.0, 0.0, 1.0]), g.shape + (4,)).copy()
    return g, _synthetic(g, x, normal=nrm)


def _sphere_patch(radius=1.0, n=61):
    # polar-angle u, azimuth v patch well away from poles
    g = DomainGrid(0.6, 1.2, 0.2, 0.8, n, n, (n // 2, n // 2))
    zs = g.zs()
    th, ph = zs.real, zs.imag
    x = radius * np.stack([np.zeros(g.shape), np.sin(th) * np.cos(ph),
                           np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)
    return g, _synthetic(g, x, normal=x / radius)


def test_flat_plane_forms():
    g, s = _flat_plane()
    i_form, ii_form, valid = fundamental_forms(s)
    assert valid[2:-2, 2:-2].all()
    assert np.nanmax(np.abs(i_form[valid] - np.eye(2))) < 1e-13
    assert np.nanmax(np.abs(ii_form[valid])) < 1e-13
    h, k, ok = curvatures(i_form, ii_form)
    assert np.nanmax(np.abs(h[valid & ok])) < 1e-12
    k_int, _ = intrinsic_curvature(i_form, g)
    assert np.nanmax(np.abs(k_int[valid])) < 1e-10


def test_unit_sphere_curvatures():
    g, s = _sphere_patch(1.0, n=61)
    i_form, ii_form, valid = fundamental_forms(s)
    h, k, ok = curvatures(i_form, ii_form)
    sel = valid & ok
    assert np.nanmax(np.abs(k[sel] - 1.0)) < 1e-4
    assert np.nanmax(np.abs(np.abs(h[sel]) - 1.0)) < 1e-4


def test_sphere_radius_two_intrinsic():
    g, s = _sphere_patch(2.0, n=61)
    i_form, _xu, _xv, valid = first_form(s)
    k_int, ok = intrinsic_curvature(i_form, g)
    sel = valid & ok & np.isfinite(k_int)
    assert np.nanmax(np.abs(k_int[sel] - 0.25)) < 1e-3


def test_enneper_minimal_and_conformal():
    g = DomainGrid.square(1.0, 41)
    data = sample_data("z", "1", g)
    s = make_affine_surface(data, E0)
    i_form, ii_form, valid = fundamental_forms(s)
    h, k, ok = curvatures(i_form, ii_form)
    sel = valid & ok
    assert np.nanmax(np.abs(h[sel])) <= 1e-5
    assert np.nanmax(k[sel]) < 0.0  # negatively curved everywhere
    eg, f_res, cval = conformality_residual(s)
    e = i_form[..., 0, 0]
    assert np.nanmax((eg / e)[cval]) <= 1e-8


def test_cmc_values_in_space_forms():
    g = DomainGrid.square(1.0, 41)
    data = sample_data("z", "1", g)
    s = make_quadric_surface(data, 1.0, -1.0)
    i_form, ii_form, valid = fundamental_forms(s)
    h, _k, ok = curvatures(i_form, ii_form)
    assert np.nanmax(np.abs(h - 1.0)[valid & ok]) <= 1e-4

    gd = DomainGrid.square(0.6, 41)
    data_d = sample_data("z", "1", gd)
    sd = make_quadric_surface(data_d, 1.0, 1.0)
    i2, ii2, v2 = fundamental_forms(sd)
    h2, _k2, ok2 = curvatures(i2, ii2)
    assert np.nanmax(np.abs(np.abs(h2) - 1.0)[v2 & ok2]) <= 1e-4


@pytest.mark.parametrize("mu,half", [(-0.25, 1.0), (-4.0, 1.0), (0.49, 0.5)])
def test_cmc_value_scales_with_mu(mu, half):
    g = DomainGrid.square(half, 41)
    data = sample_data("z", "1", g)
    s = make_quadric_surface(data, 1.0, mu)
    i_form, ii_form, valid = fundamental_forms(s)
    h, _k, ok = curvatures(i_form, ii_form)
    target = 1.0 / np.sqrt(abs(mu))
    assert np.nanmax(np.abs(np.abs(h) - target)[valid & ok]) <= 1e-3 * target


def test_lightcone_intrinsically_flat():
    g = DomainGrid.square(1.0, 81)
    data = sample_data("z", "1", g)
    s = make_quadric_surface(data, 1.0, 0.0)
    i_form, _xu, _xv, valid = first_form(s)
    k_int, ok = intrinsic_curvature(i_form, g)
    sel = valid & ok & np.isfinite(k_int)
    assert np.nanmax(np.abs(k_int[sel])) <= 1e-3


def test_christoffel_constant_dual_is_exact_zero():
    g, s = _flat_plane()
    const = np.broadcast_to(np.array([1.0, 2.0, 3.0, 4.0]), g.shape + (4,)).copy()
    pairing, wedge, valid = christoffel_residual(s.x, const, g)
    assert np.nanmax(np.abs(pairing[valid])) == 0.0
    assert np.nanmax(wedge[valid]) == 0.0


def test_christoffel_pipeline_pairs_converge():
    maxima = {"pair": [], "wedge": []}
    hs = []
    for n in (21, 41, 81):
        g = DomainGrid.square(1.0, n)
        data = sample_data("z", "1", g)
        s = make_affine_surface(data, E0)
        pairing, wedge, valid = christoffel_residual(s.x, s.gauss, g, mask=s.mask)
        maxima["pair"].append(np.nanmax(np.abs(pairing[valid])))
        maxima["wedge"].append(np.nanmax(wedge[valid]))
        hs.append(g.du)
    for key in ("pair", "wedge"):
        slope = math.log(maxima[key][0] / maxima[key][2]) / math.log(hs[0] / hs[2])
        assert slope >= 1.8, (key, maxima[key])


def test_christoffel_quadric_rescaled_gauss():
    g = DomainGrid.square(1.0, 41)
    data = sample_data("z", "1", g)
    s = make_quadric_surface(data, 1.0, -1.0)
    assert np.nanmax(np.abs(ip31(s.gauss, s.x) + 1.0)[s.mask]) < 1e-10
    pairing, wedge, valid = christoffel_residual(s.x, s.gauss, g, mask=s.mask)
    h2 = g.du ** 2
    assert np.nanmax(np.abs(pairing[valid])) <= 1.0 * h2
    assert np.nanmax(wedge[valid]) <= 1.0 * h2


def test_marginally_trapped_pipelines_and_control():
    # closed-form quadric output (exact positions): residual at rounding level
    g = DomainGrid.square(1.0, 21)
    data0 = sample_data("0", "1", g, eps_crit=0.0)
    horo = make_quadric_surface(data0, 1.0, -1.0)
    res, align, ok = marginally_trapped_residual(horo)
    assert np.nanmax(res[ok]) <= 1e-5
    assert np.nanmax(align[ok]) <= 1e-5

    # affine pipeline (exact cubic positions)
    data = sample_data("z", "1", g)
    enneper = make_affine_surface(data, E0)
    res_a, align_a, ok_a = marginally_trapped_residual(enneper)
    assert np.nanmax(res_a[ok_a]) <= 1e-5
    assert np.nanmax(align_a[ok_a]) <= 1e-5

    # negative control: a round sphere has spacelike mean curvature vector
    g2, sphere = _sphere_patch(1.0, n=41)
    res_s, _align_s, ok_s = marginally_trapped_residual(sphere)
    assert np.nanmin(res_s[ok_s]) >= 0.9


def test_conformality_negative_control():
    g = DomainGrid.square(1.0, 21)
    zs = g.zs()
    x = np.stack([np.zeros(g.shape), zs.real, zs.imag, zs.real], axis=-1)
    s = _synthetic(g, x)
    eg, f_res, valid = conformality_residual(s)
    assert np.allclose(eg[valid], 1.0)
    assert np.nanmax(f_res[valid]) < 1e-13


def test_lw_residual_algebra():
    h = np.array([1.0, 2.0])
    k = np.array([1.0, 0.3])
    assert np.allclose(lw_residual(h, k, -1.0), 2.0 * np.abs(h - 1.0))
    assert np.allclose(lw_residual(h, k, 0.0), np.abs(k - 1.0))
    assert lw_residual(np.array([2.0]), np.array([0.3]), 0.5)[0] > 0.5


def test_lw_pipeline_residual():
    g = DomainGrid.square(0.6, 81)
    for mu in (-0.5, 0.0, 0.5):
        s, _mid = make_lw_bryant("z", "0.3", 1.0, mu, g)
        i_form, ii_form, valid = fundamental_forms(s)
        h, k, ok = curvatures(i_form, ii_form)
        res = lw_residual(h, k, mu)
        assert np.nanmax(res[valid & ok]) <= 1e-3, mu


def test_verify_surface_reports():
    g = DomainGrid.square(1.0, 41)
    data = sample_data("z", "1", g)
    rep = verify_surface(make_affine_surface(data, E0))
    assert rep.passed
    assert rep.stats["mean_curvature"].max_value <= 1e-5
    doc = rep.to_dict()
    assert doc["passed"] is True
    assert set(doc["residuals"]) == set(rep.stats)

    rep_q = verify_surface(make_quadric_surface(data, 1.0, -1.0))
    assert rep_q.passed
    assert rep_q.stats["quadric"].max_value <= 1e-8

    rep_u = verify_surface(uy_perturb(data, 1.0, -1.0))
    assert rep_u.passed
    assert rep_u.stats["hyperplane"].max_value <= 1e-9
    assert rep_u.stats["mean_curvature"].max_value <= 1e-4


def test_verify_surface_perturbed_gates_by_causal_type():
    # the timelike perturbation keeps full curvature gates; the spacelike
    # and lightlike ones certify the hyperplane (their curvature stats are
    # conditioning-dominated near the secondary degenerate band)
    g = DomainGrid.square(1.0, 41)
    data = sample_data("z", "1", g)
    for mu, expect_h in ((-1.0, True), (1.0, False), (0.0, False)):
        rep = verify_surface(uy_perturb(data, 1.0, mu))
        assert rep.passed, mu
        assert "hyperplane" in rep.stats
        assert ("mean_curvature" in rep.stats) == expect_h


def test_verify_surface_tolerance_override():
    g = DomainGrid.square(1.0, 21)
    data = sample_data("z", "1", g)
    rep = verify_surface(make_affine_surface(data, E0),
                         tolerances={"mean_curvature": 1e-30})
    assert not rep.passed
    assert not rep.stats["mean_curvature"].passed


def test_verify_surface_rejects_unknown_tolerance_names():
    s = make_affine_surface(sample_data("z", "1", DomainGrid.square(1.0, 21)), E0)
    with pytest.raises(ValueError, match=r"\['linear_weingartn', 'mean_curvatur'\]"):
        verify_surface(s, tolerances={"mean_curvatur": 1e-30, "hyperplane": 1.0,
                                      "linear_weingartn": 1e-30})
    # a known name the surface does not certify is accepted and changes nothing
    rep = verify_surface(s, tolerances={"linear_weingarten": 1e-30})
    assert rep.to_dict() == verify_surface(s).to_dict()


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, -math.inf])
def test_verify_surface_rejects_negative_or_non_finite_tolerances(value):
    # a negative or NaN gate fails silently, NaN is no JSON number, and inf passes anything
    s = make_quadric_surface(sample_data("z", "1", DomainGrid.square(1.0, 21)), 1.0, -1.0)
    with pytest.raises(ValueError, match=r"finite and non-negative: \['quadric'\]"):
        verify_surface(s, tolerances={"quadric": value, "mean_curvature": 0.0})


def test_fundamental_forms_requires_normal():
    g, s = _flat_plane()
    s.normal = None
    with pytest.raises(ValueError):
        fundamental_forms(s)


def test_residual_names_cover_every_tolerance():
    g = DomainGrid.square(1.0, 9)
    s = make_quadric_surface(sample_data("z", "1", g), 1.0, -1.0)
    assert set(default_tolerances(s)) == set(RESIDUAL_NAMES)


# ---------------------------------------------------------------------------
# byte pins: the sha256 of each report's to_dict() JSON, of every field's
# bytes and of the interior mask, on one small surface per verifier branch.

def _pin_data(phi="z", omega="1 + 0.1*z^2", half=1.0, n=41):
    return sample_data(phi, omega, DomainGrid.square(half, n))


PIN_SURFACES = {
    "affine-e3": lambda: make_affine_surface(_pin_data(), E0),
    "affine-l3": lambda: make_affine_surface(_pin_data(omega="1"), E3),
    "affine-isotropic": lambda: make_affine_surface(_pin_data(omega="1"),
                                                    (0.5, 0.0, 0.0, 0.5)),
    "quadric-h3": lambda: make_quadric_surface(_pin_data(), 1.0, -1.0),
    "quadric-desitter": lambda: make_quadric_surface(_pin_data(half=0.6), 1.0, 1.0),
    "quadric-lightcone": lambda: make_quadric_surface(_pin_data(), 1.0, 0.0),
    "lw-bryant": lambda: make_lw_bryant("z", "0.25", 1.0, -0.5,
                                       DomainGrid.square(0.6, 41))[0],
    "uy-perturb-timelike": lambda: uy_perturb(_pin_data(), 1.0, -1.0),
    "uy-perturb-spacelike": lambda: uy_perturb(_pin_data(), 1.0, 1.0),
    "uy-perturb-lightlike": lambda: uy_perturb(_pin_data(), 1.0, 0.0),
    # critical point of phi on a grid node: a masked band through the grid
    "quadric-h3-critical": lambda: make_quadric_surface(
        _pin_data(phi="z^2/2 - 0.5*z"), 1.0, -1.0),
}

REPORT_PINS = {
    'affine-e3': '3a5033df7bc8aa2d6cebec68de82835c93c841ad228007f4b2782b663a1bc1a1',
    'affine-isotropic': '5f76f17018aae1222c6f390bcf41e6672c9e9318845d48b6ec994b52e90724bf',
    'affine-l3': '3c5e38b7778c92acdb7a02e25abe122a5ed765199ef6e9d47b8f9fd4e4a8ed73',
    'lw-bryant': 'fcd025bc40ac3c225233168b40425b951eebbb2536fd8b765931ab8cffe3bae5',
    'quadric-desitter': '2f0d842b51ad8b74e2d677bcd0176afe72557b717994dc775fd08859a68097b6',
    'quadric-h3': '65e73d64c70324773069509aad308169362c5fda322c7d6c12e4fd5f6bcdb34f',
    'quadric-h3-critical': '2861eaf6d8ef7b73c16ccf695ea2dd9c59d36035ece4f45369a6f3fb123cdec9',
    'quadric-lightcone': '70780273bd6b17c136d8f66fb72e494c988b4e58c79def0e62121d3a712381dc',
    'uy-perturb-lightlike': 'd1d9a05036bda5c4bb848f285486165b5839ca09eab8b99a055a051c6285eb35',
    'uy-perturb-spacelike': 'ebf71ea72b316a9ace81e182171b938ff1bd90d5f3325786c49fc2447e15f94f',
    'uy-perturb-timelike': '4336e33d667d0a2fad7e2624f9f2384678996def0962a99c2d1fa43b41f0819b',
}


def _report_digest(report):
    h = hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode())
    for name in sorted(report.fields):
        values = np.asarray(report.fields[name])
        h.update(f"{name}|{values.dtype.str}|{values.shape}".encode())
        h.update(values.tobytes())
    h.update(report.interior.tobytes())
    return h.hexdigest()


def _relaid(field, layout):
    """The same values in another memory layout: C, Fortran or strided."""
    if field is None or layout == "C":
        return field
    if layout == "F":
        return np.asfortranarray(field)
    wide = np.full(field.shape[:-1] + (2 * field.shape[-1],), np.inf)
    wide[..., ::2] = field
    return wide[..., ::2]


@pytest.mark.sha256_pin
@pytest.mark.parametrize("layout", ("C", "F", "strided"))
@pytest.mark.parametrize("name", sorted(PIN_SURFACES))
def test_report_bytes_pinned(name, layout):
    surface = PIN_SURFACES[name]()
    for attr in ("x", "gauss", "normal"):
        setattr(surface, attr, _relaid(getattr(surface, attr), layout))
    assert _report_digest(verify_surface(surface)) == REPORT_PINS[name]


def test_jet_is_stored_component_first():
    _g, s = _sphere_patch(n=21)
    i_form, xu, _xv, _valid = first_form(s)
    assert i_form.shape == s.grid.shape + (2, 2) and xu.shape == s.x.shape
    assert xu[..., 0].flags.c_contiguous
    assert i_form[..., 0, 0].flags.c_contiguous


def test_pinned_surfaces_cover_the_branches():
    built = {name: make() for name, make in PIN_SURFACES.items()}
    reports = {name: verify_surface(s) for name, s in built.items()}
    no_normal = {name for name, s in built.items() if s.normal is None}
    assert no_normal == {"affine-isotropic", "quadric-lightcone", "uy-perturb-lightlike"}
    assert "K_int" in reports["quadric-lightcone"].fields
    assert "linear_weingarten" in reports["lw-bryant"].stats
    assert "conformality" not in reports["lw-bryant"].stats
    assert "mean_curvature" in reports["uy-perturb-timelike"].stats
    for soft in ("uy-perturb-spacelike", "uy-perturb-lightlike"):
        assert "mean_curvature" not in reports[soft].stats
        assert "christoffel_pairing" not in reports[soft].stats
    mask = built["quadric-h3-critical"].mask
    assert 0 < int(mask.sum()) < mask.size


# the pinned surface of each CERTIFICATES row
CERTIFIED_BY = {**{(kind, False): kind.value for kind in GeometryKind},
                (GeometryKind.AFFINE_E3, True): "uy-perturb-timelike",
                (GeometryKind.AFFINE_L3, True): "uy-perturb-spacelike",
                (GeometryKind.AFFINE_ISOTROPIC, True): "uy-perturb-lightlike"}


def _readme_kind_table():
    """README's kind table: {(kind, perturbed): the names in its gated-residuals cell}."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| kind |"))
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            return table
        cells = line.strip("|").split("|")
        kind = GeometryKind(re.search(r"`([^`]+)`", cells[0]).group(1))
        table[kind, "perturbed" in cells[0]] = set(re.findall(r"`([^`]+)`", cells[-1]))
    return table


def _gated(cert):
    """The residual names a certificate gates."""
    names = {cert.carrier, *(cert.mean[:1] if cert.mean else ())}
    for flag, flagged in ((cert.conformal, {"conformality"}),
                          (cert.christoffel, {"christoffel_pairing", "christoffel_wedge"}),
                          (cert.trapped, {"marginally_trapped", "gauss_alignment"}),
                          (cert.k_int, {"intrinsic_flatness"})):
        if flag:
            names |= flagged
    return names


def test_readme_kind_table_is_the_certificate_table():
    readme = _readme_kind_table()
    assert set(readme) == set(verify.CERTIFICATES) == set(CERTIFIED_BY)
    for pair, cert in verify.CERTIFICATES.items():
        reported = set(verify_surface(PIN_SURFACES[CERTIFIED_BY[pair]]()).stats)
        assert readme[pair] == _gated(cert) == reported, pair


def test_a_surface_without_a_certificate_is_refused():
    # no factory makes a perturbed quadric; a hand-built one has no row
    surface = PIN_SURFACES["quadric-h3"]()
    surface.aux["perturbed"] = True
    for check in (verify_surface, default_tolerances, fundamental_forms):
        with pytest.raises(ValueError, match="no certificate for quadric-h3 with perturbed=True"):
            check(surface)


@pytest.mark.sha256_pin
@pytest.mark.parametrize("rows", (1, 2, 3, 7, None))
@pytest.mark.parametrize("name", sorted(PIN_SURFACES))
def test_report_bytes_do_not_depend_on_the_band_size(monkeypatch, name, rows):
    surface = PIN_SURFACES[name]()
    nv, nu = surface.grid.shape
    monkeypatch.setattr(verify, "BAND_NODES", (rows or nv) * nu)
    assert _report_digest(verify_surface(surface)) == REPORT_PINS[name]


@pytest.mark.parametrize("name", sorted(PIN_SURFACES))
def test_report_fields_hold_one_nan(name):
    report = verify_surface(PIN_SURFACES[name]())
    assert any(np.isnan(values).any() for values in report.fields.values())
    for field, values in report.fields.items():
        bits = values[np.isnan(values)].view(np.uint64)
        assert (bits == 0x7FF8000000000000).all(), field


@pytest.mark.parametrize("make", (
    PIN_SURFACES["quadric-h3-critical"],
    # a pole of psi on a grid node
    lambda: make_lw_bryant("1/z", "0.25", 1.0, -0.5, DomainGrid.square(0.6, 41, 0.3 + 0.3j))[0],
), ids=("quadric-h3-critical", "lw-bryant-pole"))
def test_surface_fields_hold_one_nan(make):
    surface = make()
    assert np.isnan(surface.x).any()
    for field in ("x", "gauss", "normal"):
        values = getattr(surface, field)
        bits = values[np.isnan(values)].view(np.uint64)
        assert (bits == 0x7FF8000000000000).all(), field


def test_verify_surface_peak_is_the_fields_plus_a_band(monkeypatch):
    # with bands of 2 rows a run holds its whole-grid fields and little more;
    # whole-grid temporaries, as one band spanning the grid makes, peak at
    # about 65 grid-sized float arrays
    surface = PIN_SURFACES["quadric-h3"]()
    monkeypatch.setattr(verify, "BAND_NODES", 2 * surface.grid.nu, raising=False)
    verify_surface(surface)
    tracemalloc.start()
    try:
        verify_surface(surface)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * surface.mask.size * 8


@pytest.mark.parametrize("name", sorted(PIN_SURFACES))
def test_verify_surface_differences_each_band_once(monkeypatch, name):
    surface = PIN_SURFACES[name]()
    nv, nu = surface.grid.shape
    monkeypatch.setattr(verify, "BAND_NODES", 7 * nu)
    bands = []

    def recorded_bands(*args, _original=verify._bands):
        for band in _original(*args):
            bands.append(band)
            yield band
    monkeypatch.setattr(verify, "_bands", recorded_bands)
    calls = {"first_form": 0, "_second_derivatives": 0}
    for attr in calls:
        def counted(*args, _attr=attr, _original=getattr(verify, attr), **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(verify, attr, counted)
    along_v = []

    def recorded(field, step, axis, _original=verify.central_diff):
        if axis == 0:
            along_v.append(field)
        return _original(field, step, axis)
    monkeypatch.setattr(verify, "central_diff", recorded)
    verify_surface(surface)
    # the band interiors tile the rows; each band reads its rows plus a halo
    assert len(bands) == 6
    assert [r0 for r0, *_ in bands] == [0] + [r1 for _, r1, *_ in bands[:-1]]
    assert bands[-1][1] == nv
    halo = 4 if name == "quadric-lightcone" else 2   # K_int differences I
    for r0, r1, lo, hi in bands:
        assert (lo, hi) == (max(r0 - halo, 0), min(r1 + halo, nv))
    # each band differences its slice of x along v once, and x_uv comes from
    # that x_v; the lightlike T-transform has no normal and skips marginal
    # trapping, so it takes no second derivatives
    for _r0, _r1, lo, hi in bands:
        of_band = [f for f in along_v if f.shape == surface.x[lo:hi].shape
                   and np.array_equal(f, surface.x[lo:hi], equal_nan=True)]
        assert len(of_band) == 1
    assert sum(hi - lo for *_, lo, hi in bands) - nv <= 2 * halo * (len(bands) - 1)
    second = 0 if name == "uy-perturb-lightlike" else len(bands)
    assert calls == {"first_form": 0, "_second_derivatives": second}


@pytest.mark.sha256_pin
@pytest.mark.parametrize("name,alias", [("affine-e3", ("mean_curvature", "H")),
                                        ("quadric-lightcone", ("intrinsic_flatness", "K_int"))])
def test_a_band_array_under_two_names_is_one_field(monkeypatch, name, alias):
    surface = PIN_SURFACES[name]()
    monkeypatch.setattr(verify, "BAND_NODES", 7 * surface.grid.nu)
    report = verify_surface(surface)
    assert report.fields[alias[0]] is report.fields[alias[1]]
    assert _report_digest(report) == REPORT_PINS[name]
