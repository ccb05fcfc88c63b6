"""Numerical verification: fundamental forms, curvatures, and residuals.

Everything here is 4th-order central finite differences (fd.py) on the
grid chart; nodes whose stencil touches a masked node (or the grid
boundary) are excluded rather than treated one-sided.  Residual maxima
additionally exclude a 2-node ring so every reported number comes from a
full-quality stencil.

verify_surface works one band of rows at a time, about BAND_NODES nodes
per band, so every temporary fits in cache and is reused from the heap.
A band copies its rows of x, plus a halo of 2 rows on each side (4 for
the lightcone, whose K_int differences I), into a component-first (4,
rows, nu) array; it takes one derivative jet there (x_u, x_v and I, then
x_uu, x_vv and x_uv from that x_v when a normal or the trapping check
needs them, and the Gauss-section tangents when the Christoffel check
does).  Only the stencils read the halo: the band slices its own rows out
of every derivative, works every other value on those rows alone, and
writes them into one whole-grid array per band array, whatever names that
array has.  Its kernels accumulate in the buffer of their first product,
with at most one scratch array, by the same operations in the same order
as the plain expressions (tests/reference.py holds those).  The
band reads which residuals the construction certifies from its row of
CERTIFICATES, and hands each back with its gate; the interior (the stencil
validity of the mask and of finite x) and the Christoffel gate are band
fields too, since the halo holds every stencil of the band's own rows.
Only the trapping floor, a maximum over the grid, needs the whole grid:
the bands store the trapping check's per-node parts and one whole-grid
pass finishes it.  verify_surface then gates whatever the bands returned
in one loop.  The public single-quantity functions run the same private
code as one band that spans the grid.

Every value is computed from the same inputs by the same operations
whatever the band size or the input's memory layout, so the field bits
depend on neither.  NaN signs are the exception: numpy's SIMD loops pick
the sign of a NaN result by the position of the operands in the vector
blocks, so a report stores every NaN of its fields as the one pattern
0x7ff8000000000000.

Sign conventions: II is the pairing of coordinate second derivatives with
the unit normal (for surfaces inside a quadric the normal is tangent to
the ambient quadric, so the pairing automatically projects out the
position direction); H = tr(I^-1 II)/2 and K = det(I^-1 II).  With the
Gauss sections produced by the factories this yields H = +1 for the
standard horosphere.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations

import numpy as np

from .fd import central_diff, second_diff, stencil_valid
from .minkowski import enorm, ip31
from .surfaces import GeometryKind, SurfaceSample, canonical_nans

EPS_METRIC = 1e-12
BAND_NODES = 8192  # nodes per verify_surface band: the temporaries stay in cache

# every residual a report can gate: the keys of default_tolerances()
RESIDUAL_NAMES = ("hyperplane", "quadric", "lightcone", "mean_curvature",
                  "intrinsic_flatness", "linear_weingarten", "marginally_trapped",
                  "gauss_alignment", "christoffel_pairing", "christoffel_wedge",
                  "conformality")


def _finite_all(a):
    """True where every component of the (..., 4) array a is finite; one plane at a
    time, which is fast in every layout."""
    ok = np.isfinite(a[..., 0])
    for i in range(1, a.shape[-1]):
        ok &= np.isfinite(a[..., i])
    return ok


def _planar(v):
    """v (nv, nu, 4) as a view of a contiguous (4, nv, nu) array; copies unless it is one."""
    return np.ascontiguousarray(v.transpose(2, 0, 1)).transpose(1, 2, 0)


def _form(pairs):
    """Symmetric forms [[(u0, v0), (u1, v1)], [(u1, v1), (u2, v2)]], stored entry-first."""
    out = np.empty((2, 2) + pairs[0][0].shape[:-1])
    for (i, j), (u, v) in zip(((0, 0), (0, 1), (1, 1)), pairs):
        out[i, j] = out[j, i] = ip31(u, v)
    return out.transpose(2, 3, 0, 1)


def _tangents(x, grid):
    return (central_diff(x, grid.du, axis=1), central_diff(x, grid.dv, axis=0))


def _jet(x, grid):
    """(I, xu, xv) of positions x by central differences."""
    with np.errstate(all="ignore"):
        xu, xv = _tangents(x, grid)
        return _form(((xu, xu), (xu, xv), (xv, xv))), xu, xv


def _band(surface, rows=slice(None)):
    """(x, I, xu, xv, valid) of the grid rows `rows`: their x copied component-first,
    its jet, and the stencil validity of the mask and of finite x there."""
    x = _planar(surface.x[rows])
    return (x, *_jet(x, surface.grid), stencil_valid(surface.mask[rows] & _finite_all(x)))


def first_form(surface: SurfaceSample):
    """Induced metric I by central differences: (I, xu, xv, valid)."""
    return _band(surface)[1:]


def _second_derivatives(x, xv, grid):
    """(xuu, xvv, xuv): the verifier's only second derivatives of x; xuv from x_v."""
    with np.errstate(all="ignore"):
        return (second_diff(x, grid.du, axis=1), second_diff(x, grid.dv, axis=0),
                central_diff(xv, grid.du, axis=1))


def _second_form(surface: SurfaceSample, cert, rows, x, valid, xuu, xvv, xuv):
    """(II, valid) from the unit normal orthogonal to the carrier (hyperplane or quadric)
    of the surface's certificate `cert`, on the rows of the grid that x holds."""
    if surface.normal is None:
        raise ValueError(f"{surface.kind.value} surface carries no normal field")
    n = np.empty_like(x, dtype=float)  # in x's layout, worked in place
    n[...] = surface.normal[rows]
    with np.errstate(all="ignore"):
        if cert.carrier == "hyperplane":
            p = surface.hyperplane_normal
            pp = float(ip31(p, p))
            if abs(pp) > 1e-14:
                ratio = ip31(n, p)
                ratio /= pp
                n -= p * ratio[..., None]
        else:
            ratio = ip31(n, x)
            ratio /= ip31(x, x)
            n -= x * ratio[..., None]
        norm = ip31(n, n)
        n /= np.sqrt(np.abs(norm, out=norm), out=norm)[..., None]
        ii_form = _form(((xuu, n), (xuv, n), (xvv, n)))
    return ii_form, valid & _finite_all(n)


def fundamental_forms(surface: SurfaceSample):
    """First and second fundamental forms: (I, II, valid).

    The normal is re-orthogonalized against the carrier and normalized to
    |(n, n)| = 1 before pairing with the FD second derivatives.
    """
    x, i_form, _xu, xv, valid = _band(surface)
    ii_form, valid = _second_form(surface, _certificate(surface), slice(None), x, valid,
                                  *_second_derivatives(x, xv, surface.grid))
    return i_form, ii_form, valid


def curvatures(i_form, ii_form):
    """Mean and extrinsic Gauss curvature: H = tr(I^-1 II)/2, K = det(I^-1 II).

    Nodes with a degenerate metric are masked, judged both absolutely
    (|det I| <= EPS_METRIC) and relative to the metric scale (|det I| <=
    1e-8 of it), since fronts cross genuine det I = 0 curves.
    """
    e, f, g = i_form[..., 0, 0], i_form[..., 0, 1], i_form[..., 1, 1]
    l, m, n = ii_form[..., 0, 0], ii_form[..., 0, 1], ii_form[..., 1, 1]
    # each value in the buffer of its first product, t the one scratch plane
    det_i = e * g
    det_i -= (t := f * f)
    scale = np.abs(e)
    scale += np.abs(g, out=t)
    np.square(scale, out=scale)
    scale *= 0.25
    abs_det = np.abs(det_i, out=t)
    ok = abs_det > EPS_METRIC
    scale *= 1e-8
    ok &= abs_det > scale
    with np.errstate(all="ignore"):
        h = e * n
        h -= np.multiply(np.multiply(2.0, f, out=t), m, out=t)
        h += np.multiply(g, l, out=t)
        h /= np.multiply(2.0, det_i, out=t)
        k = l * n
        k -= np.multiply(m, m, out=t)
        k /= det_i
    bad = ~ok    # a degenerate metric has no H or K
    np.copyto(h, np.nan, where=bad)
    np.copyto(k, np.nan, where=bad)
    return h, k, ok


def intrinsic_curvature(i_form, grid):
    """Gauss curvature of the induced metric: the Brioschi formula in closed form."""
    e, f, g = i_form[..., 0, 0], i_form[..., 0, 1], i_form[..., 1, 1]
    du, dv = grid.du, grid.dv
    with np.errstate(all="ignore"):
        e_u, e_v = central_diff(e, du, 1), central_diff(e, dv, 0)
        f_u, f_v = central_diff(f, du, 1), central_diff(f, dv, 0)
        g_u, g_v = central_diff(g, du, 1), central_diff(g, dv, 0)
        e_vv = second_diff(e, dv, 0)
        g_uu = second_diff(g, du, 1)
        f_uv = central_diff(f_v, du, 1)
        # det M1 - det M2 of the Brioschi matrices, expanded along their first rows
        a = -0.5 * e_vv + f_uv - 0.5 * g_uu
        c = f_u - 0.5 * e_v
        d = f_v - 0.5 * g_u
        det_i = e * g - f * f
        brioschi = (a * det_i - 0.5 * e_u * (d * g - 0.5 * g_v * f)
                    + c * (d * f - 0.5 * g_v * e)
                    + 0.25 * (e_v * e_v * g - 2.0 * e_v * g_u * f + g_u * g_u * e))
        k_int = brioschi / det_i ** 2
    ok = np.abs(det_i) > EPS_METRIC
    return np.where(ok & np.isfinite(k_int), k_int, np.nan), ok


def _duality(xu, xv, su, sv):
    """Pairing and wedge residuals of a surface pair from both pairs of tangents.

    The wedge is the Frobenius norm of xu^sv - xv^su, sqrt(2 sum_{i<j} A_ij^2)
    over its six bivector components
    A_ij = xu_i sv_j - xu_j sv_i - (xv_i su_j - xv_j su_i).
    """
    shape = np.broadcast_shapes(xu.shape, xv.shape, su.shape, sv.shape)[:-1]
    a, b, t = np.empty((3,) + shape)    # A_ij and its two halves, reused for every ij
    sq = np.zeros(shape)
    with np.errstate(all="ignore"):
        pairing = ip31(xu, sv)
        pairing -= ip31(xv, su)
        for i, j in combinations(range(4), 2):
            np.multiply(xu[..., i], sv[..., j], out=a)
            a -= np.multiply(xu[..., j], sv[..., i], out=t)
            np.multiply(xv[..., i], su[..., j], out=b)
            b -= np.multiply(xv[..., j], su[..., i], out=t)
            a -= b
            sq += np.multiply(a, a, out=a)
        sq *= 2.0
    return pairing, np.sqrt(sq, out=sq)


def christoffel_residual(x, x_star, grid, mask=None):
    """Discretized duality residuals of a surface pair.

    Returns (pairing, wedge, valid): pairing is the scalar antisymmetric
    residual (dx(X), dx*(Y)) - (dx(Y), dx*(X)) on coordinate directions;
    wedge is the Frobenius norm of the corresponding bivector-valued
    residual dx(X)^dx*(Y) - dx(Y)^dx*(X).
    """
    with np.errstate(all="ignore"):
        tangents = _tangents(x, grid) + _tangents(x_star, grid)
    ok = _finite_all(x) & _finite_all(x_star)
    if mask is not None:
        ok &= np.asarray(mask, dtype=bool)
    return (*_duality(*tangents), stencil_valid(ok))


def _trapping_parts(gauss, i_form, xu, xv, valid, xuu, xvv, xuv):
    """Per-node parts of the marginal-trapping check from the derivative jet:
    (|Hvec|_E, (Hvec, Hvec), (Hvec, g), |g|_E, ok); the last two parts are
    None without a Gauss section.

    The mean curvature vector Hvec is the metric-traced second derivative
    less its tangential part; ok requires a spacelike nondegenerate induced
    metric at full-stencil nodes.
    """
    e, f, g = i_form[..., 0, 0], i_form[..., 0, 1], i_form[..., 1, 1]
    det_i = e * g
    det_i -= f * f
    ok = valid & (det_i > EPS_METRIC) & (e > 0)
    with np.errstate(all="ignore"):
        # lap = (g xuu - (2 f) xuv + e xvv) / det I in its own buffer, w the one
        # 4-vector scratch
        lap, w = np.empty_like(xuu), np.empty_like(xuu)
        np.multiply(g[..., None], xuu, out=lap)
        lap -= np.multiply((2.0 * f)[..., None], xuv, out=w)
        lap += np.multiply(e[..., None], xvv, out=w)
        lap /= det_i[..., None]
        b1 = ip31(lap, xu)
        b2 = ip31(lap, xv)
        a1 = g * b1    # a1 = (g b1 - f b2) / det I and a2 = (e b2 - f b1) / det I
        a2 = e * b2
        a1 -= np.multiply(f, b2, out=b2)
        a2 -= np.multiply(f, b1, out=b1)
        a1 /= det_i
        a2 /= det_i
        lap -= np.multiply(a1[..., None], xu, out=w)  # hvec = 0.5 * (lap - a1 xu - a2 xv)
        lap -= np.multiply(a2[..., None], xv, out=w)
        hvec = np.multiply(0.5, lap, out=lap)
        if gauss is None:
            return enorm(hvec), ip31(hvec, hvec), None, None, ok
        return enorm(hvec), ip31(hvec, hvec), ip31(hvec, gauss), enorm(gauss), ok


def _trapping(norm, hh, hg, gnorm, ok):
    """Marginal-trapping residual and Gauss alignment from the per-node parts.

    residual = |(Hvec, Hvec)| / max(|Hvec|_E, floor)^2 and
    alignment = |(Hvec, g)| / (max(|Hvec|_E, floor) * max(|g|_E, floor)); the
    floor is 1e-6 * (1 + max |Hvec|_E) over the ok nodes of the whole grid.
    """
    if not np.any(ok):
        nanf = np.full(ok.shape, np.nan)
        return nanf, nanf, ok
    floor = 1e-6 * (1.0 + float(np.nanmax(np.where(ok, norm, 0.0))))
    denom = np.maximum(norm, floor)
    with np.errstate(all="ignore"):
        residual = np.abs(hh)
        residual /= np.square(denom)
        if hg is None:
            alignment = np.full(ok.shape, np.nan)
        else:
            alignment = np.abs(hg)
            alignment /= denom * np.maximum(gnorm, floor)
    return residual, alignment, ok


def marginally_trapped_residual(surface: SurfaceSample):
    """Nullity of the mean curvature vector, plus its Gauss alignment.

    residual = |(Hvec, Hvec)| / max(|Hvec|_E, floor)^2 and
    alignment = |(Hvec, g)| / (max(|Hvec|_E, floor) * |g|_E); the floor is
    1e-6 * (1 + max |Hvec|_E), keeping the ratio meaningful when the
    mean curvature vector itself vanishes (affine surfaces).
    """
    x, i_form, xu, xv, valid = _band(surface)
    return _trapping(*_trapping_parts(surface.gauss, i_form, xu, xv, valid,
                                      *_second_derivatives(x, xv, surface.grid)))


def _conformality(i_form):
    """(|E-G|, |F|) of the induced metric."""
    return np.abs(i_form[..., 0, 0] - i_form[..., 1, 1]), np.abs(i_form[..., 0, 1])


def conformality_residual(surface: SurfaceSample):
    """Deviation from isothermal coordinates: (|E-G|, |F|, valid)."""
    i_form, _xu, _xv, valid = first_form(surface)
    return (*_conformality(i_form), valid)


def lw_residual(h, k, mu):
    """Pointwise linear-Weingarten defect |(mu+1)K - 2 mu H + (mu-1)|."""
    return np.abs((mu + 1.0) * k - 2.0 * mu * h + (mu - 1.0))


@dataclass(frozen=True)
class Certificate:
    """What one construction certifies: its carrier residual ("hyperplane", or (x, x) less
    `level`, None reading params["mu"], as "quadric" or "lightcone"), its mean-curvature
    residual (name, f(H, K, mu)) if any, the checks flagged, and tolerance overrides."""

    carrier: str
    level: float | None = None
    mean: tuple | None = None
    conformal: bool = True
    christoffel: bool = True
    trapped: bool = False
    k_int: bool = False
    tolerances: dict = dc_field(default_factory=dict)


_ZERO_H = ("mean_curvature", lambda h, _k, _mu: h)    # the very array H: one field
_H3 = ("mean_curvature", lambda h, _k, mu: h - 1.0 / np.sqrt(-mu))
_DS = ("mean_curvature", lambda h, _k, mu: np.subtract(a := np.abs(h), 1.0 / np.sqrt(mu), out=a))
_CMC, _PERTURBED = {"mean_curvature": 1e-4}, {"mean_curvature": 1e-4, "hyperplane": 1e-9}
_NULL_HVEC, _CONE = ({"marginally_trapped": t, "gauss_alignment": t} for t in (1e-5, 1e-2))
_K = GeometryKind
# Keyed by (kind, aux["perturbed"]).  Trapping is gated where Hvec has scale (quadrics)
# or vanishes exactly (polynomial-exact isotropic case); LW fronts are envelopes, and
# conformal in z only through their middle spheres.  Only the timelike perturbed surface
# keeps H and duality gates: the others' conditioning near a degenerate band dominates them.
CERTIFICATES = {
    (_K.AFFINE_E3, False): Certificate("hyperplane", mean=_ZERO_H),
    (_K.AFFINE_L3, False): Certificate("hyperplane", mean=_ZERO_H),
    (_K.AFFINE_ISOTROPIC, False): Certificate("hyperplane", trapped=True, tolerances=_NULL_HVEC),
    (_K.QUADRIC_H3, False): Certificate("quadric", mean=_H3, trapped=True, tolerances=_CMC),
    (_K.QUADRIC_DESITTER, False): Certificate("quadric", mean=_DS, trapped=True, tolerances=_CMC),
    (_K.QUADRIC_LIGHTCONE, False): Certificate("lightcone", 0.0, trapped=True, k_int=True,
                                               tolerances=_CONE),
    (_K.LW_BRYANT, False): Certificate("quadric", -1.0, mean=("linear_weingarten", lw_residual),
                                       conformal=False, christoffel=False, tolerances=_CMC),
    (_K.AFFINE_E3, True): Certificate("hyperplane", mean=_ZERO_H, tolerances=_PERTURBED),
    (_K.AFFINE_L3, True): Certificate("hyperplane", christoffel=False, tolerances=_PERTURBED),
    (_K.AFFINE_ISOTROPIC, True): Certificate("hyperplane", christoffel=False,
                                             tolerances={**_NULL_HVEC, **_PERTURBED}),
}


def _certificate(surface: SurfaceSample) -> Certificate:
    """The CERTIFICATES row of the surface's construction; ValueError if it has none."""
    key = (surface.kind, bool(surface.aux.get("perturbed")))
    if (cert := CERTIFICATES.get(key)) is None:
        raise ValueError(f"no certificate for {surface.kind.value} with perturbed={key[1]}")
    return cert


# ---------------------------------------------------------------------------
# report assembly

@dataclass
class ResidualStat:
    name: str
    max_value: float
    tolerance: float
    passed: bool
    nodes: int


@dataclass
class CurvatureReport:
    """Residual stats and per-node fields; every NaN in a field is 0x7ff8000000000000."""

    kind: str
    grid_shape: tuple
    stats: dict = dc_field(default_factory=dict)
    fields: dict = dc_field(default_factory=dict)
    interior: np.ndarray | None = None

    @property
    def passed(self):
        return all(s.passed for s in self.stats.values())

    def keep(self, name, values):
        """Hold values as field name, its NaNs made canonical (in place when writable)."""
        self.fields[name] = canonical_nans(values)

    def add(self, name, values, tolerance, where=None):
        sel = np.isfinite(values)
        sel &= self.interior
        if where is not None:
            sel &= where
        count = int(np.count_nonzero(sel))
        mx = float(np.max(np.abs(values), where=sel, initial=0.0)) if count else float("nan")
        passed = bool(count > 0 and mx <= tolerance)
        self.stats[name] = ResidualStat(name, mx, float(tolerance), passed, count)
        self.keep(name, values)

    def to_dict(self):
        return {
            "kind": self.kind,
            "grid": list(self.grid_shape),
            "passed": self.passed,
            "residuals": {
                name: {
                    "max": None if np.isnan(s.max_value) else s.max_value,
                    "tolerance": s.tolerance,
                    "passed": s.passed,
                    "nodes": s.nodes,
                } for name, s in sorted(self.stats.items())
            },
        }


def default_tolerances(surface: SurfaceSample):
    """Per-kind residual tolerances; grid-independent unless noted."""
    h = max(surface.grid.du, surface.grid.dv)
    tol = {
        "hyperplane": 1e-9 * max(surface.grid.diameter, 1.0),
        "quadric": 1e-8,
        "lightcone": 1e-10,
        "mean_curvature": 1e-5,
        "intrinsic_flatness": 1e-3,
        "linear_weingarten": 1e-3,
        "marginally_trapped": 1e-3,
        "gauss_alignment": 1e-3,
        "christoffel_pairing": 50.0 * h ** 2,
        "christoffel_wedge": 50.0 * h ** 2,
        "conformality": 20.0 * h ** 2,
    }
    tol.update(_certificate(surface).tolerances)
    return tol


def _bands(nv, nu, halo):
    """(r0, r1, lo, hi): bands of about BAND_NODES nodes whose rows r0:r1 tile the
    grid's, each read from rows lo:hi, its halo of up to `halo` rows included."""
    rows = max(1, BAND_NODES // nu)
    for r0 in range(0, nv, rows):
        r1 = min(r0 + rows, nv)
        yield r0, r1, max(r0 - halo, 0), min(r1 + halo, nv)


_TRAPPING_PARTS = ("trap_norm", "trap_hh", "trap_hg", "trap_gnorm", "trap_ok")


def _band_fields(surface: SurfaceSample, rows, read):
    """Every per-node field of verify_surface on the grid rows `rows`, by name: the
    interior, each residual the surface's construction certifies, its gate as
    name + "_ok" where it has one, H, K, K_int and the trapping check's per-node parts.

    The stencils read the rows `read`, which hold `rows` and their halo; every
    other value is worked on `rows` alone."""
    grid, params, cert = surface.grid, surface.params, _certificate(surface)
    own = slice(rows.start - read.start, rows.stop - read.start)
    x_read, i_read, xu, xv_read, valid = _band(surface, read)
    x, i_form, xu, xv, valid = x_read[own], i_read[own], xu[own], xv_read[own], valid[own]
    out = {"interior": valid}
    if cert.carrier == "hyperplane":
        p = surface.hyperplane_normal
        out["hyperplane"] = ip31(x, p)
        out["hyperplane"] -= float(ip31(surface.x[grid.base_index], p))
    else:
        out[cert.carrier] = ip31(x, x)
        out[cert.carrier] -= params["mu"] if cert.level is None else cert.level

    if cert.conformal:
        eg, f_res = _conformality(i_form)    # (|E-G| + 2|F|) / max(E + G, 1e-30), in eg
        eg += np.multiply(2.0, f_res, out=f_res)
        scale = np.add(i_form[..., 0, 0], i_form[..., 1, 1], out=f_res)
        eg /= np.maximum(scale, 1e-30, out=scale)
        out["conformality"] = eg

    if cert.k_int:
        k_int, k_ok = intrinsic_curvature(i_read, grid)
        out["K_int"] = out["intrinsic_flatness"] = k_int[own]
        out["intrinsic_flatness_ok"] = k_ok[own]

    gauss = None  # read only here and by the trapping check
    if surface.gauss is not None and cert.christoffel:
        gauss = _planar(surface.gauss[read])
        su, sv = (t[own] for t in _tangents(gauss, grid))
        # gate the scale-free version: the dual section diverges towards
        # non-immersion loci and would otherwise dominate the raw residual
        scale = enorm(xu)    # 1 + |xu| |sv| + |xv| |su|
        scale *= enorm(sv)
        scale += 1.0
        cross = enorm(xv)
        cross *= enorm(su)
        scale += cross
        pairing, wedge = _duality(xu, xv, su, sv)
        pairing /= scale
        wedge /= scale
        out["christoffel_pairing"], out["christoffel_wedge"] = pairing, wedge
        ok = stencil_valid(_finite_all(gauss))[own]  # the interior holds x's own validity
        gauss = gauss[own]
        out.update(christoffel_pairing_ok=ok, christoffel_wedge_ok=ok)
        del su, sv, scale, cross, pairing, wedge  # freed before the second derivatives

    if surface.normal is not None or cert.trapped:
        d2 = [d[own] for d in _second_derivatives(x_read, xv_read, grid)]
        if surface.normal is not None:
            ii_form, ff_valid = _second_form(surface, cert, rows, x, valid, *d2)
            h, k, c_ok = curvatures(i_form, ii_form)
            out["H"], out["K"] = h, k
            if cert.mean is not None:
                name, residual = cert.mean
                out[name] = residual(h, k, params.get("mu"))
                out[name + "_ok"] = ff_valid & c_ok
        if cert.trapped:
            parts = _trapping_parts(gauss, i_form, xu, xv, valid, *d2)
            out.update((name, part) for name, part in zip(_TRAPPING_PARTS, parts)
                       if part is not None)
    return out


def verify_surface(surface: SurfaceSample, tolerances=None) -> CurvatureReport:
    """Run the geometry-specific residual suite for a pipeline surface.

    Residual maxima exclude a 2-ring around masked nodes and the grid
    boundary.  Pass/fail is decided against default_tolerances() merged
    with the given overrides, whose names must be in RESIDUAL_NAMES and
    whose values must be finite and non-negative (ValueError).  The per-node
    fields are computed one band of rows at a time (see the module docstring).
    """
    unknown = sorted(set(tolerances or ()) - set(RESIDUAL_NAMES))
    if unknown:
        raise ValueError(f"unknown tolerance names: {unknown}")
    bad = sorted(k for k, v in (tolerances or {}).items() if not 0.0 <= v < np.inf)
    if bad:
        raise ValueError(f"tolerances must be finite and non-negative: {bad}")
    tol = {**default_tolerances(surface), **(tolerances or {})}
    grid = surface.grid
    fields = {}
    halo = 4 if _certificate(surface).k_int else 2   # K_int differences I
    for r0, r1, lo, hi in _bands(*grid.shape, halo):
        with np.errstate(all="ignore"):    # the gates leave non-finite values out
            band = _band_fields(surface, slice(r0, r1), slice(lo, hi))
        if (lo, hi) == (r0, r1):    # the band spans the grid: its arrays are the fields
            fields = band
            continue
        if not fields:    # one whole-grid array per band array, under each of its names
            made = {id(values): np.empty(grid.shape, values.dtype) for values in band.values()}
            fields = {name: made[id(values)] for name, values in band.items()}
        for name, values in band.items():
            fields[name][r0:r1] = values

    report = CurvatureReport(kind=surface.kind.value, grid_shape=grid.shape,
                             interior=fields.pop("interior"))
    if "trap_ok" in fields:    # the trapping floor is a maximum over the whole grid
        residual, alignment, ok = _trapping(*(fields.pop(name, None) for name in _TRAPPING_PARTS))
        fields.update(marginally_trapped=residual, marginally_trapped_ok=ok,
                      gauss_alignment=alignment, gauss_alignment_ok=ok)
    for name in ("H", "K", "K_int"):
        if name in fields:
            report.keep(name, fields[name])
    for name in RESIDUAL_NAMES:
        if name in fields:
            report.add(name, fields[name], tol[name], where=fields.get(name + "_ok"))
    return report
