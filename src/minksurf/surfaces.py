"""Surface factories: seven target geometries from holomorphic data.

Every factory returns a SurfaceSample: gridded positions in R^{3,1}
together with the lightlike Gauss section that certifies the construction
(rescaled so its pairing with the position or hyperplane normal is -1),
an optional unit normal, and a validity mask.  Non-immersion loci
(where the Gauss direction degenerates against the target) are masked
and dilated by one ring, matching the sampling convention.

The three families:

  * affine: integrate dx = -(zeta p) into the hyperplane normal to p;
    zero mean curvature there (minimal / maximal / isotropic cases).
  * quadric: transport the frame dPsi = -m xi Psi and set
    x = Psi diag(1, -mu) Psi*, giving (x, x) = mu (CMC surfaces in H^3
    or S^{2,1}, intrinsically flat surfaces in the lightcone).
  * linear-Weingarten: transport dPsi = -m Psi xi_m from secondary data
    (psi, eta) -- note the opposite multiplication side.  The middle-sphere
    congruence x_m is the quadric formula in that frame, and the front is
    x_m moved along its Gauss section: x = x_m + (mu+1)/2 g~.

The T-transform perturbation couples the frame to the quadrature of
dx_m = -m (Ad_Psi^{-1} xi) applied to the quadric anchor, turning
quadric surfaces into affine ones without leaving the grid walk; the
result is assembled as the affine surface of the secondary Gauss map.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from enum import Enum

import numpy as np

from .domain import DomainGrid, SampledData, _as_expr, check_base, dilate_mask, grid_line_interpolant
from .expr import Expr, evaluate
from .forms import build_xi, xi_hat_values, zeta_density_fn
from .integrate import (EDGE_BLOCK, FrameField, FrameSide, FrameWithMovedIntegral, PathOrder,
                        integrate_closed_form, solve_path_system, solve_psi)
from .minkowski import (LIGHTLIKE, SPACELIKE, TIMELIKE, causal_type, enorm,
                        herm_from_vec, ip31)

EPS_DEGENERATE = 0.02   # relative threshold for non-immersion masking
EPS_LW_POLE = 1e-6      # relative threshold on |1 - mu |psi|^2|
BASE_X = np.zeros(4)    # position of the base node for the affine families


class GeometryKind(str, Enum):
    AFFINE_E3 = "affine-e3"
    AFFINE_L3 = "affine-l3"
    AFFINE_ISOTROPIC = "affine-isotropic"
    QUADRIC_H3 = "quadric-h3"
    QUADRIC_DESITTER = "quadric-desitter"
    QUADRIC_LIGHTCONE = "quadric-lightcone"
    LW_BRYANT = "lw-bryant"


AFFINE_KINDS = (GeometryKind.AFFINE_E3, GeometryKind.AFFINE_L3,
                GeometryKind.AFFINE_ISOTROPIC)
QUADRIC_KINDS = (GeometryKind.QUADRIC_H3, GeometryKind.QUADRIC_DESITTER,
                 GeometryKind.QUADRIC_LIGHTCONE)

_AFFINE_KIND_BY_CAUSAL = {
    TIMELIKE: GeometryKind.AFFINE_E3,
    SPACELIKE: GeometryKind.AFFINE_L3,
    LIGHTLIKE: GeometryKind.AFFINE_ISOTROPIC,
}


def _check_mu(mu):
    """A non-zero mu must have a finite 1/mu: the normals divide x by mu."""
    if mu != 0 and not np.isfinite(1.0 / float(mu)):
        raise ValueError(f"mu={mu} is too close to 0: 1/mu is not finite")


def quadric_kind_for(mu):
    if mu < 0:
        return GeometryKind.QUADRIC_H3
    if mu > 0:
        return GeometryKind.QUADRIC_DESITTER
    return GeometryKind.QUADRIC_LIGHTCONE


@dataclass(frozen=True)
class TargetGeometry:
    """Validated target description used by the pipeline driver."""

    kind: GeometryKind
    mu: float = 0.0
    m: float = 1.0
    p: tuple | None = None

    def __post_init__(self):
        if self.kind in AFFINE_KINDS:
            if self.p is None:
                raise ValueError("affine targets need the hyperplane normal p")
            p = np.asarray(self.p, dtype=float)
            if not np.any(p):
                raise ValueError("hyperplane normal p must be non-zero")
            if not np.isfinite(sum(c * c for c in p.tolist())):   # every node would be degenerate
                raise ValueError("hyperplane normal p is too large: (p, p) overflows a float")
            expected = _AFFINE_KIND_BY_CAUSAL[causal_type(p)]
            if expected is not self.kind:
                raise ValueError(
                    f"p is {causal_type(p)}, which selects {expected.value}, "
                    f"not {self.kind.value}")
        else:
            if self.m == 0:
                raise ValueError("quadric and linear-Weingarten targets need m != 0")
            _check_mu(self.mu)
            if self.kind in QUADRIC_KINDS and quadric_kind_for(self.mu) is not self.kind:
                raise ValueError(
                    f"mu={self.mu} selects {quadric_kind_for(self.mu).value}, "
                    f"not {self.kind.value}")


def canonical_nans(values):
    """values with every NaN as the one pattern 0x7ff8000000000000, in place when
    writable: numpy's SIMD loops pick a NaN's sign by its place in the vector blocks."""
    values = np.asarray(values)
    nan = np.isnan(values)
    if nan.any():
        if not values.flags.writeable:
            values = values.copy()
        values[nan] = np.nan
    return values


@dataclass
class SurfaceSample:
    """Gridded surface with positions, Gauss section, normal and mask.

    x, gauss and normal hold every NaN as 0x7ff8000000000000 (canonical_nans).
    """

    grid: DomainGrid
    kind: GeometryKind
    x: np.ndarray                     # (nv, nu, 4) real positions
    mask: np.ndarray                  # (nv, nu) bool, True = usable
    gauss: np.ndarray | None = None   # lightlike section, pairing -1
    normal: np.ndarray | None = None  # unit normal where defined
    params: dict = dc_field(default_factory=dict)
    aux: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        for name in ("x", "gauss", "normal"):
            if getattr(self, name) is not None:
                setattr(self, name, canonical_nans(getattr(self, name)))

    @property
    def hyperplane_normal(self):
        p = self.params.get("p")
        return None if p is None else np.asarray(p, dtype=float)


def gauss_lift(phi):
    """Lightlike lift of the Gauss direction from phi values, broadcasting.

    Returns (1+|phi|^2, 2 Re phi, 2 Im phi, |phi|^2 - 1); its Hermitian
    image is 2 v v* with v = (phi, 1)^T, null by construction.
    """
    phi = np.asarray(phi, dtype=complex)
    r2 = (phi * np.conj(phi)).real
    out = np.empty(phi.shape + (4,))
    out[..., 0] = 1.0 + r2
    out[..., 1] = 2.0 * phi.real
    out[..., 2] = 2.0 * phi.imag
    out[..., 3] = r2 - 1.0
    return out


def _gauss_section(g, pairing, scale):
    """Rescale a lift to pairing -1 and mask where that pairing degenerates.

    Returns (section, degenerate): the section is non-finite where the
    pairing is zero, and degenerate marks |pairing| < EPS_DEGENERATE * scale
    (a non-finite pairing reads as zero) dilated by one ring.
    """
    with np.errstate(all="ignore"):
        section = g * (-1.0 / pairing)[..., None]
    pairing = np.where(np.isfinite(pairing), pairing, 0.0)
    return section, dilate_mask(np.abs(pairing) < EPS_DEGENERATE * scale)


def _affine_sample(data: SampledData, x, valid, phi, p, params, aux=None):
    """Affine-family sample: x lies in the hyperplane normal to p, Gauss map phi.

    Masks nodes where the Gauss direction is orthogonal to p (x fails to
    immerse there).  For non-lightlike p a normal g - p is attached, with
    the Gauss section rescaled to pairing -1 against p.
    """
    kind = _AFFINE_KIND_BY_CAUSAL[causal_type(p)]
    with np.errstate(all="ignore"):    # a huge phi overflows |phi|^2: degenerate there
        g = gauss_lift(phi)
        gauss, degenerate = _gauss_section(
            g, ip31(g, p), (1.0 + np.abs(phi) ** 2) * max(enorm(p), 1e-30))
    normal = None if kind is GeometryKind.AFFINE_ISOTROPIC else gauss - p
    return SurfaceSample(grid=data.grid, kind=kind, x=x, mask=valid & data.mask & ~degenerate,
                         gauss=gauss, normal=normal,
                         params={"p": tuple(p), **params, "base_x": tuple(BASE_X)},
                         aux=aux or {})


def make_affine_surface(data: SampledData, p) -> SurfaceSample:
    """Integrate dx = -(zeta p) from BASE_X into the affine hyperplane normal to p."""
    p = np.asarray(p, dtype=float)
    if not np.any(p):
        raise ValueError("hyperplane normal p must be non-zero")
    density = zeta_density_fn(data, p)
    integral, valid = integrate_closed_form(
        density, data.grid, base_value=np.zeros(4, dtype=complex), mask=data.mask)
    return _affine_sample(data, BASE_X - integral.real, valid, data.phi, p, {})


def _frame_conjugate(psi, h):
    """vec(Psi H Psi*) for Hermitian H, entry by entry, broadcasting."""
    a, b, c, d = psi[..., 0, 0], psi[..., 0, 1], psi[..., 1, 0], psi[..., 1, 1]
    u0, u1 = a * h[..., 0, 0] + b * h[..., 1, 0], a * h[..., 0, 1] + b * h[..., 1, 1]
    m00 = (u0 * np.conj(a) + u1 * np.conj(b)).real
    m01 = u0 * np.conj(c) + u1 * np.conj(d)
    del u0, u1
    w0, w1 = c * h[..., 0, 0] + d * h[..., 1, 0], c * h[..., 0, 1] + d * h[..., 1, 1]
    m11 = (w0 * np.conj(c) + w1 * np.conj(d)).real
    del w0, w1
    return np.stack((0.5 * (m00 + m11), m01.real, m01.imag, 0.5 * (m00 - m11)), axis=-1)


def make_quadric_surface(data: SampledData, m, mu) -> SurfaceSample:
    """Frame transport x = Psi diag(1, -mu) Psi* with (x, x) = mu.

    Masks nodes where x is orthogonal to the Gauss direction; for mu < 0, x
    is timelike and the Gauss direction null, so none is.  For mu != 0 an
    ambient-tangent unit normal gauss + x/mu is attached.
    """
    if m == 0:
        raise ValueError("m must be non-zero")
    _check_mu(mu)
    xi = build_xi(data)
    frame = solve_psi(xi, m, data.grid)
    with np.errstate(all="ignore"):    # a huge mu, phi or x overflows x or the norms
        x = _frame_conjugate(frame.values, np.diag([1.0, -mu]))
        g = gauss_lift(data.phi)
        gauss, degenerate = _gauss_section(g, ip31(x, g), np.maximum(enorm(x), 1e-30) * enorm(g))
    mask = frame.valid & data.mask
    if mu >= 0:
        mask &= ~degenerate
    with np.errstate(all="ignore"):    # a small mu can overflow x / mu
        normal = None if mu == 0 else gauss + x / mu
    return SurfaceSample(grid=data.grid, kind=quadric_kind_for(mu), x=x, mask=mask,
                         gauss=gauss, normal=normal,
                         params={"mu": mu, "m": m},
                         aux={"frame": frame})


def _moebius_pair(frame: FrameField, phi):
    """v = Psi^{-1} (phi, 1)^T, by the adjugate (det Psi = 1): psi = v0 / v1."""
    psi_m = frame.values
    return (psi_m[..., 1, 1] * phi - psi_m[..., 0, 1],
            -psi_m[..., 1, 0] * phi + psi_m[..., 0, 0])


def secondary_gauss(frame: FrameField, phi):
    """Transformed Gauss function psi from the frame, by Moebius action.

    With F = Psi^{-1}, psi = (F11 phi + F12) / (F21 phi + F22); returns
    (psi, ok) with ok False where the denominator nearly vanishes.
    """
    num, den = _moebius_pair(frame, phi)
    scale = np.sqrt(np.abs(num) ** 2 + np.abs(den) ** 2)
    ok = np.abs(den) > 1e-9 * scale
    with np.errstate(all="ignore"):
        psi = np.where(ok, num / np.where(ok, den, 1.0), np.nan)
    return psi, ok & frame.valid


def secondary_form(frame: FrameField, data: SampledData):
    """Secondary 1-form density eta and psi from the gauge-moved data.

    xi_hat = omega (phi, 1)^T (-1, phi) has rank one, so with v = Psi^{-1}
    (phi, 1)^T the moved density Psi^{-1} xi_hat Psi is
    eta [[-psi, psi^2], [-1, psi]] with psi = v0 / v1 and eta = omega v1^2.
    """
    v0, v1 = _moebius_pair(frame, data.phi)
    with np.errstate(all="ignore"):
        eta = data.omega_hat * v1 * v1
        psi = np.where(np.abs(eta) > 0, v0 / v1, np.nan)
    return psi, eta


def uy_perturb(data: SampledData, m, mu, *, order=PathOrder.ROW_FIRST) -> SurfaceSample:
    """T-transform of the quadric surface: a zero-mean-curvature affine surface.

    Couples the frame transport to the quadrature of the gauge-moved form
    applied to the quadric anchor diag(1, -mu); the result lies in the
    affine hyperplane Minkowski-normal to that anchor vector, through BASE_X,
    with the secondary psi as Gauss map.
    """
    if m == 0:
        raise ValueError("m must be non-zero")
    xi = build_xi(data)
    c_vec = np.array([0.5 * (1.0 - mu), 0.0, 0.0, 0.5 * (1.0 + mu)])   # vec diag(1, -mu)
    frame = solve_path_system(data.grid, FrameWithMovedIntegral(xi.fn, m), mask=xi.mask,
                              order=order)
    # x = vec(M C + (M C)*) with C = diag(1, -mu), from M's entries
    m00, m01, m10, m11 = (frame.coupled[0][..., i, j] for i in (0, 1) for j in (0, 1))
    x = BASE_X + np.stack((m00.real - mu * m11.real, m10.real - mu * m01.real,
                           -mu * m01.imag - m10.imag, m00.real + mu * m11.real), axis=-1)
    del m00, m01, m10, m11
    frame = replace(frame, values=frame.values.copy(), coupled=())   # frees M's buffer

    psi_sec, sec_ok = secondary_gauss(frame, data.phi)
    valid = frame.valid & ~dilate_mask(frame.valid & ~sec_ok)
    return _affine_sample(data, x, valid, np.where(sec_ok, psi_sec, 0.0), c_vec,
                          {"mu": mu, "m": m}, aux={"frame": frame, "perturbed": True})


def _as_field_and_fn(obj, grid, mask):
    """Accept an expression (or text) or a per-node array; give values + callable."""
    obj = _as_expr(obj)
    if isinstance(obj, Expr):
        def fn(z):
            v, s = evaluate(obj, z)
            return np.where(s, np.nan, v)

        return fn(grid.zs()), fn
    vals = np.asarray(obj, dtype=complex)
    return vals, grid_line_interpolant(vals, grid, mask=mask)


def make_lw_bryant(psi, eta_hat, m, mu, grid: DomainGrid, *, mask=None,
                   eps_pole=EPS_LW_POLE):
    """Linear Weingarten surface of Bryant type plus its middle sphere.

    psi and eta_hat may be expressions/text or per-node sampled arrays
    (sampled data is line-interpolated for the transport).  The frame
    solves dPsi = -m Psi xi -- coefficient on the right.  The front is the
    middle sphere x_m moved along g~ = Psi lift(psi) Psi* / (1 - mu |psi|^2):
    x = x_m + (mu+1)/2 g~.  Nodes where the denominator nearly vanishes are
    masked.  Raises BasePointMaskedError, before the walk, if no node or the
    base node is usable (check_base).  Returns (surface, middle).
    """
    if m == 0:
        raise ValueError("m must be non-zero")
    _check_mu(mu)
    psi_v, psi_fn = _as_field_and_fn(psi, grid, mask)
    eta_v, eta_fn = _as_field_and_fn(eta_hat, grid, mask)

    def coeff(z):
        return xi_hat_values(psi_fn(z), eta_fn(z))

    node_ok = np.isfinite(psi_v) & np.isfinite(eta_v)
    if mask is not None:
        node_ok &= np.asarray(mask, dtype=bool)
    with np.errstate(all="ignore"):    # a huge psi overflows |psi|^2; the walk drops its node
        r2 = np.abs(psi_v) ** 2
        pole = 1.0 - mu * r2
        usable = node_ok & ~dilate_mask(np.abs(pole) < eps_pole * (1.0 + abs(mu) * r2))
    check_base(usable, grid)
    frame = solve_psi(coeff, m, grid, side=FrameSide.RIGHT, mask=node_ok)
    surf_mask = frame.valid & usable

    with np.errstate(all="ignore"):    # a huge mu overflows x_m
        xm = _frame_conjugate(frame.values, np.diag([1.0, -mu]))
        gtilde, rows = np.empty_like(xm), max(1, EDGE_BLOCK // grid.nu)   # no whole-grid lift
        for band in (slice(r, r + rows) for r in range(0, grid.nv, rows)):
            gtilde[band] = _frame_conjugate(frame.values[band],
                                            herm_from_vec(gauss_lift(psi_v[band])))
        gtilde /= pole[..., None]
        x = xm + 0.5 * (mu + 1.0) * gtilde
        normal = gtilde - x
        middle_normal = None if mu == 0 else gtilde + xm / mu
    surface = SurfaceSample(grid=grid, kind=GeometryKind.LW_BRYANT, x=x,
                            mask=surf_mask, gauss=gtilde, normal=normal,
                            params={"mu": mu, "m": m}, aux={"frame": frame})
    middle = SurfaceSample(grid=grid, kind=quadric_kind_for(mu), x=xm,
                           mask=surf_mask, gauss=gtilde, normal=middle_normal,
                           params={"mu": mu, "m": m, "middle_sphere": True},
                           aux={"frame": frame})
    return surface, middle
