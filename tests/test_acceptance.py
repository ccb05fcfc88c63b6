"""Acceptance suite: one test per exit criterion, one printed line each.

Every tolerance is pinned here; grids and domains are desk scale (at most
101 x 101, each criterion well under ten seconds).  Where a criterion's
convergence-slope premise is defeated by the integrator being exact to
rounding (the staircase transport of the rank-one matrix densities is
path-independent to machine precision, so its row/column deviation has
no truncation component to converge), the slope clause is satisfied by
the deviation sitting below an explicit rounding floor, and the
underlying 4th-order claim is certified directly against substep-refined
references.  Run with `pytest -rA tests/test_acceptance.py` to see every
line.
"""

import math

import numpy as np

from minksurf.domain import DomainGrid, sample_data
from minksurf.forms import build_xi
from minksurf.integrate import (iteration_law_defect, path_independence_check,
                                solve_psi)
from minksurf.minkowski import E0, E3, ip31
from minksurf.surfaces import (GeometryKind, SurfaceSample, make_affine_surface,
                               make_lw_bryant, make_quadric_surface,
                               secondary_form, secondary_gauss, uy_perturb)
from minksurf.verify import (christoffel_residual, conformality_residual,
                             curvatures, first_form, fundamental_forms,
                             intrinsic_curvature, lw_residual,
                             marginally_trapped_residual)

ROUNDING_FLOOR = 1e-10


def _line(num, desc, value, tol, passed):
    flag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {flag}: {desc}: measured {value:.3e}, tolerance {tol:.1e}")


def _check(num, desc, value, tol):
    passed = bool(value <= tol)
    _line(num, desc, value, tol, passed)
    assert passed, f"criterion {num}: {desc}: {value:.3e} > {tol:.1e}"


_cache = {}


def _data41():
    if "d41" not in _cache:
        g = DomainGrid.square(1.0, 41)
        _cache["d41"] = sample_data("z", "1", g)
    return _cache["d41"]


def test_criterion_01_enneper_exactness():
    data = _data41()
    g = data.grid
    s = make_affine_surface(data, E0)
    zs = g.zs()
    exact = np.stack([np.zeros(g.shape), (zs - zs ** 3 / 3).real,
                      -(zs + zs ** 3 / 3).imag, (zs ** 2).real], axis=-1)
    dev = float(np.nanmax(np.abs(s.x - exact)[s.mask]))
    _check(1, "Enneper vertex deviation from analytic antiderivative", dev, 1e-8)


def test_criterion_02_zero_mean_curvature_three_normals():
    data = _data41()
    for p, label in ((E0, "timelike e0"), (E3, "spacelike e3")):
        s = make_affine_surface(data, p)
        i_form, ii_form, valid = fundamental_forms(s)
        h, _k, ok = curvatures(i_form, ii_form)
        hmax = float(np.nanmax(np.abs(h[valid & ok])))
        _check(2, f"|H| for hyperplane normal {label}", hmax, 1e-5)
    iso = make_affine_surface(data, (E0 + E3) / 2)
    res, _align, ok = marginally_trapped_residual(iso)
    _check(2, "marginally-trapped residual, isotropic normal",
           float(np.nanmax(res[ok])), 1e-5)


def test_criterion_03_cmc_hyperbolic():
    data = _data41()
    s = make_quadric_surface(data, 1.0, -1.0)
    i_form, ii_form, valid = fundamental_forms(s)
    h, _k, ok = curvatures(i_form, ii_form)
    _check(3, "|H - 1| for the mu=-1 quadric surface",
           float(np.nanmax(np.abs(h - 1.0)[valid & ok])), 1e-4)
    _check(3, "|(x,x) + 1| for the mu=-1 quadric surface",
           float(np.nanmax(np.abs(ip31(s.x, s.x) + 1.0)[s.mask])), 1e-8)


def test_criterion_04_cmc_de_sitter():
    g = DomainGrid.square(0.6, 41)
    data = sample_data("z", "1", g)
    s = make_quadric_surface(data, 1.0, 1.0)
    i_form, ii_form, valid = fundamental_forms(s)
    h, _k, ok = curvatures(i_form, ii_form)
    _check(4, "||H| - 1| for the mu=+1 quadric surface",
           float(np.nanmax(np.abs(np.abs(h) - 1.0)[valid & ok])), 1e-4)
    _check(4, "|(x,x) - 1| for the mu=+1 quadric surface",
           float(np.nanmax(np.abs(ip31(s.x, s.x) - 1.0)[s.mask])), 1e-8)


def test_criterion_05_lightcone_flat():
    g = DomainGrid.square(1.0, 81)
    data = sample_data("z", "1", g)
    s = make_quadric_surface(data, 1.0, 0.0)
    _check(5, "|(x,x)| for the mu=0 quadric surface",
           float(np.nanmax(np.abs(ip31(s.x, s.x))[s.mask])), 1e-10)
    i_form, _xu, _xv, valid = first_form(s)
    k_int, ok = intrinsic_curvature(i_form, g)
    sel = valid & ok & np.isfinite(k_int)
    _check(5, "|K_int| for the mu=0 quadric surface",
           float(np.nanmax(np.abs(k_int[sel]))), 1e-3)


def test_criterion_06_perturbation_into_affine():
    data = _data41()
    s = uy_perturb(data, 1.0, -1.0)
    c = np.asarray(s.params["p"])
    lev = ip31(s.x, c)
    _check(6, "hyperplane residual of the perturbed mu=-1 surface",
           float(np.nanmax(np.abs(lev - lev[data.grid.base_index])[s.mask])), 1e-9)
    i_form, ii_form, valid = fundamental_forms(s)
    h, _k, ok = curvatures(i_form, ii_form)
    _check(6, "|H| of the perturbed surface in its hyperplane",
           float(np.nanmax(np.abs(h[valid & ok]))), 1e-4)


def test_criterion_07_linear_weingarten_family():
    g = DomainGrid.square(0.6, 81)
    for mu in (-0.5, 0.0, 0.5):
        s, _middle = make_lw_bryant("z", "0.3", 1.0, mu, g)
        i_form, ii_form, valid = fundamental_forms(s)
        h, k, ok = curvatures(i_form, ii_form)
        res = float(np.nanmax(lw_residual(h, k, mu)[valid & ok]))
        _check(7, f"linear-Weingarten residual at mu={mu}", res, 1e-3)


def test_criterion_08_frame_integrity():
    data = _data41()
    g = data.grid
    xi = build_xi(data)
    frame = solve_psi(xi, 1.0, g)
    _check(8, "raw determinant drift per unit path at 41x41",
           frame.det_drift, 1e-9)
    dev41 = path_independence_check(xi, 1.0, g)
    _check(8, "path-independence deviation at 41x41", dev41, 1e-7)

    devs = []
    errors = []
    for n in (21, 41, 81):
        gn = DomainGrid.square(1.0, n)
        xin = build_xi(sample_data("z", "1", gn))
        devs.append(path_independence_check(xin, 1.0, gn))
        ref = solve_psi(xin, 1.0, gn, substeps=32).values
        cur = solve_psi(xin, 1.0, gn, substeps=4).values
        errors.append(float(np.nanmax(np.abs(cur - ref))))
    if max(devs) <= ROUNDING_FLOOR:
        _line(8, "deviation slope clause: all deviations below rounding floor "
                 f"{ROUNDING_FLOOR:.0e} (converged past measurability)",
              max(devs), ROUNDING_FLOOR, True)
    else:
        slope = math.log(devs[0] / devs[2]) / math.log(4.0)
        _line(8, "path-independence deviation slope across 21/41/81",
              slope, 3.5, slope >= 3.5)
        assert slope >= 3.5
    order = math.log(errors[0] / errors[2]) / math.log(4.0)
    _line(8, "transport order oracle (global error slope vs refined substeps)",
          order, 3.5, order >= 3.5)
    assert order >= 3.5


def test_criterion_09_iteration_law():
    data = _data41()
    xi = build_xi(data)
    defect = iteration_law_defect(xi, 0.5, 0.5, data.grid)
    _check(9, "gauge composition defect for (t, s) = (0.5, 0.5)", defect, 1e-6)


def _christoffel_series(builder):
    out = {"pair": [], "wedge": [], "h": []}
    for n in (21, 41, 81):
        g = DomainGrid.square(1.0, n)
        data = sample_data("z", "1", g)
        s = builder(data)
        pairing, wedge, valid = christoffel_residual(s.x, s.gauss, g, mask=s.mask)
        out["pair"].append(float(np.nanmax(np.abs(pairing[valid]))))
        out["wedge"].append(float(np.nanmax(wedge[valid])))
        out["h"].append(g.du)
    return out


def test_criterion_10_duality_residuals_and_controls():
    c_bound = {"pair": 0.1, "wedge": 1.0}
    for label, builder in (
            ("affine pipeline", lambda d: make_affine_surface(d, E0)),
            ("quadric pipeline", lambda d: make_quadric_surface(d, 1.0, -1.0))):
        series = _christoffel_series(builder)
        for key in ("pair", "wedge"):
            vals, hs = series[key], series["h"]
            bound_ok = all(v <= c_bound[key] * h ** 2 for v, h in zip(vals, hs))
            _line(10, f"{label} {key} residual <= C h^2 at 21/41/81",
                  max(v / h ** 2 for v, h in zip(vals, hs)), c_bound[key], bound_ok)
            assert bound_ok, (label, key, vals)
            if max(vals) <= ROUNDING_FLOOR * 0.01:
                _line(10, f"{label} {key} slope clause: below rounding floor",
                      max(vals), ROUNDING_FLOOR * 0.01, True)
            else:
                slope = math.log(vals[0] / vals[2]) / math.log(hs[0] / hs[2])
                _line(10, f"{label} {key} residual slope", slope, 1.8, slope >= 1.8)
                assert slope >= 1.8, (label, key, vals)

    # negative control: a round sphere is not marginally trapped
    n = 41
    gs = DomainGrid(0.6, 1.2, 0.2, 0.8, n, n, (n // 2, n // 2))
    zs = gs.zs()
    th, ph = zs.real, zs.imag
    x = np.stack([np.zeros(gs.shape), np.sin(th) * np.cos(ph),
                  np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)
    sphere = SurfaceSample(grid=gs, kind=GeometryKind.AFFINE_E3, x=x,
                           mask=np.ones(gs.shape, dtype=bool), normal=x.copy(),
                           params={"p": (1.0, 0.0, 0.0, 0.0)})
    res, _align, ok = marginally_trapped_residual(sphere)
    control = float(np.nanmin(res[ok]))
    _line(10, "sphere control exceeds the trapped threshold by 10x",
          control, 10 * 1e-5, control >= 10 * 1e-5)
    assert control >= 10 * 1e-5

    # negative control: a sheared plane is not conformally parametrized
    gp = DomainGrid.square(1.0, 21)
    zp = gp.zs()
    xp = np.stack([np.zeros(gp.shape), zp.real, zp.imag, zp.real], axis=-1)
    plane = SurfaceSample(grid=gp, kind=GeometryKind.AFFINE_E3, x=xp,
                          mask=np.ones(gp.shape, dtype=bool),
                          params={"p": (1.0, 0.0, 0.0, 0.0)})
    eg, _f, valid = conformality_residual(plane)
    control2 = float(np.nanmin(eg[valid]))
    _line(10, "sheared-plane control exceeds the conformality threshold by 10x",
          control2, 10 * 1e-8, control2 >= 10 * 1e-8)
    assert control2 >= 10 * 1e-8


def test_criterion_11_frame_equation_duality():
    g = DomainGrid.square(1.0, 81)
    data = sample_data("z", "1", g)
    quadric = make_quadric_surface(data, 1.0, -1.0)
    frame = solve_psi(build_xi(data), 1.0, g)
    psi_vals, ok = secondary_gauss(frame, data.phi)
    _psi2, eta_vals = secondary_form(frame, data)
    lw, _middle = make_lw_bryant(psi_vals, eta_vals, 1.0, -1.0, g,
                                 mask=ok & data.mask)
    i_q, *_rest, v_q = first_form(quadric)
    i_l, *_rest2, v_l = first_form(lw)
    sel = v_q & v_l
    gram = float(np.nanmax(np.abs(i_q - i_l)[sel]))
    _check(11, "FD-tangent Gram agreement, quadric vs rebuilt LW surface",
           gram, 1e-6)
