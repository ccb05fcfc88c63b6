import warnings

import numpy as np
import pytest

from minksurf import surfaces
from minksurf.domain import BasePointMaskedError, DomainGrid, dilate_mask, sample_data
from minksurf.fd import central_diff, stencil_valid
from minksurf.integrate import FrameField
from minksurf.minkowski import E0, E1, E3, ip31
from minksurf.surfaces import (GeometryKind, TargetGeometry, gauss_lift,
                               make_affine_surface, make_lw_bryant,
                               make_quadric_surface, quadric_kind_for,
                               secondary_form, secondary_gauss, uy_perturb)
from minksurf.verify import verify_surface
from reference import (exact_frame, h_frame_check, mobius_data, mobius_pole,
                       secondary_form_by_conjugation, vec_from_herm_unchecked)


def test_gauss_lift_values():
    assert np.allclose(gauss_lift(0.0), E0 - E3)
    assert np.allclose(gauss_lift(1.0), 2 * E0 + 2 * E1)


def test_gauss_lift_null_and_hermitian_rank_one():
    rng = np.random.default_rng(2)
    phi = rng.normal(size=1000) + 1j * rng.normal(size=1000)
    g = gauss_lift(phi)
    assert np.max(np.abs(ip31(g, g))) < 1e-10 * (1 + np.max(np.abs(phi)) ** 4)
    from minksurf.minkowski import herm_from_vec
    h = herm_from_vec(g)
    v = np.stack([phi, np.ones_like(phi)], axis=-1)
    vv = 2 * v[..., :, None] * np.conj(v[..., None, :])
    assert np.max(np.abs(h - vv)) < 1e-12 * (1 + np.max(np.abs(vv)))


def test_target_geometry_validation():
    TargetGeometry(GeometryKind.AFFINE_E3, p=(1, 0, 0, 0))
    TargetGeometry(GeometryKind.QUADRIC_H3, mu=-1.0, m=1.0)
    with pytest.raises(ValueError):
        TargetGeometry(GeometryKind.AFFINE_E3, p=(0, 1, 0, 0))  # spacelike p
    with pytest.raises(ValueError):
        TargetGeometry(GeometryKind.AFFINE_E3, p=None)
    with pytest.raises(ValueError):
        TargetGeometry(GeometryKind.QUADRIC_H3, mu=1.0)  # wrong sign
    with pytest.raises(ValueError):
        TargetGeometry(GeometryKind.QUADRIC_DESITTER, mu=-1.0)
    with pytest.raises(ValueError):
        TargetGeometry(GeometryKind.QUADRIC_H3, mu=-1.0, m=0.0)
    with pytest.raises(ValueError):
        TargetGeometry(GeometryKind.LW_BRYANT, mu=0.5, m=0.0)


ENNEPER_CASES = [
    (1 + 0j, np.array([0.0, 2.0 / 3.0, 0.0, 1.0])),
    (1j, np.array([0.0, 0.0, -2.0 / 3.0, -1.0])),
]


@pytest.mark.parametrize("z,expect", ENNEPER_CASES)
def test_affine_enneper_values(z, expect):
    g = DomainGrid.square(1.0, 41)
    data = sample_data("z", "1", g)
    s = make_affine_surface(data, E0)
    iv, iu = g.nearest_index(z)
    assert np.max(np.abs(s.x[iv, iu] - expect)) < 1e-12


def test_affine_rejects_zero_normal():
    g = DomainGrid.square(1.0, 9)
    data = sample_data("z", "1", g)
    with pytest.raises(ValueError):
        make_affine_surface(data, np.zeros(4))


def test_affine_kinds_and_normals():
    g = DomainGrid.square(1.0, 21)
    data = sample_data("z", "1", g)
    e0s = make_affine_surface(data, E0)
    assert e0s.kind is GeometryKind.AFFINE_E3
    assert e0s.normal is not None
    e3s = make_affine_surface(data, E3)
    assert e3s.kind is GeometryKind.AFFINE_L3
    iso = make_affine_surface(data, (E0 + E3) / 2)
    assert iso.kind is GeometryKind.AFFINE_ISOTROPIC
    assert iso.normal is None


def test_affine_hyperplane_constraint_exact():
    g = DomainGrid.square(1.0, 21)
    data = sample_data("z^2 + z", "exp(z)", g, eps_crit=1e-12)
    p = np.array([1.0, 0.2, -0.3, 0.1])  # timelike
    s = make_affine_surface(data, p)
    lev = ip31(s.x, p)
    assert np.nanmax(np.abs(lev - lev[g.base_index])) < 1e-12


def test_affine_coordinate_hyperplanes_hold_exactly():
    # the trace-free cancellation leaves the coordinate along p exactly zero
    g = DomainGrid.square(1.0, 81)
    data = sample_data("z", "1 + 0.1*z^2", g)
    for p, axis in ((E0, 0), (E3, 3)):
        s = make_affine_surface(data, p)
        assert s.mask.sum() > 0.8 * s.mask.size
        assert np.all(s.x[s.mask][:, axis] == 0.0)


def test_affine_pole_behind_base_keeps_positions():
    # the pole sits at the Simpson midpoint of the edge left of the base;
    # it cuts only the paths through that edge, not the whole base row
    g = DomainGrid.square(1.0, 17)
    data = sample_data("z", "1 + 0.01/(z + 0.0625)", g)
    s = make_affine_surface(data, E0)
    assert s.mask.sum() == 153
    assert np.isfinite(s.x[s.mask]).all()


def test_affine_gauss_pairing_is_minus_one():
    g = DomainGrid.square(1.0, 11)
    data = sample_data("z", "1", g)
    s = make_affine_surface(data, E0)
    assert np.nanmax(np.abs(ip31(s.gauss, E0) + 1.0)) < 1e-12


def test_affine_degenerate_circle_masked():
    g = DomainGrid.square(1.0, 41)
    data = sample_data("z", "1", g)
    s = make_affine_surface(data, E3)
    iv, iu = g.nearest_index(1.0 + 0j)  # |z| = 1 is the degenerate set
    assert not s.mask[iv, iu]
    assert s.mask[g.base_index]


def test_quadric_smoke_horosphere():
    g = DomainGrid.square(1.0, 21)
    data = sample_data("0", "1", g, eps_crit=0.0)
    s = make_quadric_surface(data, 1.0, -1.0)
    zs = g.zs()
    expect = np.stack([1 + np.abs(zs) ** 2 / 2, zs.real, -zs.imag,
                       -np.abs(zs) ** 2 / 2], axis=-1)
    assert np.nanmax(np.abs(s.x - expect)) < 1e-12
    assert np.nanmax(np.abs(ip31(s.x, s.x) + 1.0)) < 1e-12


def test_quadric_base_value_and_lightcone():
    g = DomainGrid.square(1.0, 15)
    data = sample_data("z", "1", g)
    for mu in (-1.0, -0.3, 0.0, 0.7, 1.0):
        s = make_quadric_surface(data, 1.0, mu)
        iv, iu = g.base_index
        expect = 0.5 * np.array([1 - mu, 0.0, 0.0, 1 + mu])
        assert np.allclose(s.x[iv, iu], expect, atol=1e-13)
        assert np.nanmax(np.abs(ip31(s.x, s.x) - mu)[s.mask]) < 1e-12


@pytest.mark.parametrize("pole", (None, 0.31, 0.31 + 0.4j))
@pytest.mark.parametrize("mu", (-1.0, 0.0, 0.5))
def test_quadric_matches_the_exact_frame(mu, pole):
    # x = Psi diag(1, -mu) Psi* with the exact frame of phi = z, omega = 1, or of its
    # Moebius image whose phi has a pole between the nodes
    g = DomainGrid.square(1.0, 81)
    a = np.eye(2) if pole is None else mobius_pole(pole)
    s = make_quadric_surface(sample_data(*mobius_data(a), g), 1.0, mu)
    psi = exact_frame(g.zs(), 1.0, a)
    want = vec_from_herm_unchecked(psi @ np.diag([1.0, -mu]) @ np.conj(np.swapaxes(psi, -1, -2)))
    assert s.aux["frame"].valid.all()    # the Gauss section may mask nodes; x is still built
    assert np.max(np.abs(s.x - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("factory", [make_quadric_surface, uy_perturb])
def test_quadric_rejects_zero_m(factory):
    g = DomainGrid.square(1.0, 9)
    data = sample_data("z", "1", g)
    with pytest.raises(ValueError, match="m must be non-zero"):
        factory(data, 0.0, -1.0)


def test_quadric_normal_is_unit_and_orthogonal():
    g = DomainGrid.square(1.0, 15)
    data = sample_data("z", "1", g)
    s = make_quadric_surface(data, 1.0, -1.0)
    nn = ip31(s.normal, s.normal)
    nx = ip31(s.normal, s.x)
    assert np.nanmax(np.abs(nn - 1.0)[s.mask]) < 1e-10
    assert np.nanmax(np.abs(nx)[s.mask]) < 1e-10


def test_uy_hyperplane_and_kind():
    g = DomainGrid.square(1.0, 21)
    data = sample_data("z", "1", g)
    for mu, kind in ((-1.0, GeometryKind.AFFINE_E3), (1.0, GeometryKind.AFFINE_L3),
                     (0.0, GeometryKind.AFFINE_ISOTROPIC)):
        s = uy_perturb(data, 1.0, mu)
        assert s.kind is kind
        c = np.asarray(s.params["p"])
        lev = ip31(s.x, c)
        assert np.nanmax(np.abs(lev - lev[g.base_index])[s.mask]) < 1e-9


def test_uy_keeps_reachable_nodes_next_to_unreachable_ones():
    # a critical point of phi on the base row cuts off part of the grid; only
    # Moebius-denominator failures get a ring, the unreachable nodes do not
    data = sample_data("z^2/2 - 0.5*z", "1", DomainGrid.square(1.0, 41))
    s = uy_perturb(data, 1.0, -1.0)
    reached = s.aux["frame"].valid
    ring = reached & dilate_mask(~reached)
    assert ring.sum() == 41
    assert s.mask[ring].all()
    assert make_quadric_surface(data, 1.0, -1.0).mask[ring].all()
    assert verify_surface(s).passed


def test_uy_m_scaling_oracle():
    # solving with parameter m equals solving with parameter 1 and the
    # 1-form scaled by m (the parameter is a scaling of the Hopf data)
    g = DomainGrid.square(1.0, 15)
    a = uy_perturb(sample_data("z", "1", g), 2.0, -1.0)
    b = uy_perturb(sample_data("z", "2", g), 1.0, -1.0)
    sel = a.mask & b.mask
    assert np.nanmax(np.abs(a.x - b.x)[sel]) < 1e-11


def test_secondary_gauss_identity_frame():
    g = DomainGrid.square(1.0, 9)
    vals = np.broadcast_to(np.eye(2, dtype=complex), g.shape + (2, 2)).copy()
    frame = FrameField(grid=g, values=vals, valid=np.ones(g.shape, bool), det_drift=0.0)
    phi = g.zs() ** 2
    psi, ok = secondary_gauss(frame, phi)
    assert ok.all()
    assert np.allclose(psi, phi)


def test_secondary_gauss_moebius_formula():
    g = DomainGrid.square(1.0, 9)
    zs = g.zs()
    vals = np.zeros(g.shape + (2, 2), dtype=complex)
    vals[..., 0, 0] = 1.0
    vals[..., 1, 0] = zs
    vals[..., 1, 1] = 1.0
    frame = FrameField(grid=g, values=vals, valid=np.ones(g.shape, bool), det_drift=0.0)
    phi = np.full(g.shape, 0.3 + 0.1j)
    psi, ok = secondary_gauss(frame, phi)
    expect = phi / (1 - zs * phi)
    assert np.max(np.abs(psi - expect)[ok]) < 1e-12


def test_secondary_gauss_is_holomorphic():
    # Cauchy-Riemann residual of the sampled secondary function is O(h^2)
    res = []
    for n in (21, 41):
        g = DomainGrid.square(1.0, n)
        data = sample_data("z", "1", g)
        q = make_quadric_surface(data, 1.0, -1.0)
        psi, ok = secondary_gauss(q.aux["frame"], data.phi)
        du_ = central_diff(psi, g.du, axis=1)
        dv_ = central_diff(psi, g.dv, axis=0)
        cr = du_ + 1j * dv_  # d/dx + i d/dy kills holomorphic samples
        sel = stencil_valid(ok)
        res.append(np.nanmax(np.abs(cr)[sel]))
    assert res[0] < 1e-3
    assert res[1] < 0.3 * res[0]


def test_secondary_form_consistent_with_gauss():
    g = DomainGrid.square(1.0, 15)
    data = sample_data("z", "1", g)
    q = make_quadric_surface(data, 1.0, -1.0)
    psi_a, ok = secondary_gauss(q.aux["frame"], data.phi)
    psi_b, eta = secondary_form(q.aux["frame"], data)
    assert np.nanmax(np.abs(psi_a - psi_b)[ok]) < 1e-10
    assert np.isfinite(eta[ok]).all()


@pytest.mark.parametrize("phi, omega", [
    ("z", "1"), ("z", "1 + 0.1*z^2"),
    ("z^2/2 - 0.5*z", "1"),            # a critical point: NaN at the masked frame nodes
])
def test_secondary_form_matches_full_conjugation(phi, omega):
    data = sample_data(phi, omega, DomainGrid.square(1.0, 41))
    frame = make_quadric_surface(data, 1.0, -1.0).aux["frame"]
    assert frame.valid.all() == (phi == "z")
    for got, want in zip(secondary_form(frame, data), secondary_form_by_conjugation(frame, data)):
        assert np.array_equal(np.isnan(got), np.isnan(want))
        fin = np.isfinite(want)
        assert np.all(np.abs(got - want)[fin] <= 1e-13 * np.abs(want[fin]))


@pytest.mark.parametrize("mu", (-1e-320, 1e-320, -5e-324))
def test_mu_without_a_finite_reciprocal_is_rejected(mu):
    # the normals divide x by mu; 1/mu overflows for these finite values
    g = DomainGrid.square(0.5, 21)
    with pytest.raises(ValueError, match="1/mu"):
        make_quadric_surface(sample_data("z", "1", g), 1.0, mu)
    with pytest.raises(ValueError, match="1/mu"):
        make_lw_bryant("z", "1", 1.0, mu, g)
    with pytest.raises(ValueError, match="1/mu"):
        TargetGeometry(quadric_kind_for(mu), mu=mu)
    with pytest.raises(ValueError, match="1/mu"):
        TargetGeometry(GeometryKind.LW_BRYANT, mu=mu)


def test_small_mu_with_a_finite_reciprocal_builds_without_warnings():
    g = DomainGrid.square(0.5, 21)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = make_quadric_surface(sample_data("z", "1", g), 1.0, -1e-300)
        s, mid = make_lw_bryant("z", "1", 1.0, -1e-300, g)
    assert q.mask.any() and s.mask.any()


def test_lw_psi_zero_gives_hyperbolic_unit():
    g = DomainGrid.square(1.0, 15)
    for mu in (-1.0, -0.5, 0.0, 0.5):
        s, mid = make_lw_bryant("0", "1", 1.0, mu, g)
        psi_m = s.aux["frame"].values
        psi_star = np.conj(np.swapaxes(psi_m, -1, -2))
        direct = psi_m @ psi_star
        assert np.nanmax(np.abs(s.x - vec_from_herm_unchecked(direct))[s.mask]) < 1e-12
        assert np.nanmax(np.abs(ip31(s.x, s.x) + 1.0)[s.mask]) < 1e-11


def test_lw_mu_minus_one_is_frame_square():
    g = DomainGrid.square(1.0, 15)
    s, _mid = make_lw_bryant("z", "0.3", 1.0, -1.0, g)
    psi_m = s.aux["frame"].values
    psi_star = np.conj(np.swapaxes(psi_m, -1, -2))
    expect = vec_from_herm_unchecked(psi_m @ psi_star)
    assert np.nanmax(np.abs(s.x - expect)[s.mask]) < 1e-12


def test_lw_middle_sphere_relation():
    # the front is built as x_m + (mu+1)/2 g~; check it against the direct
    # form Psi [[1+|psi|^2, (mu+1) psi], [(mu+1) conj(psi), 1+mu^2 |psi|^2]] Psi*
    # / (1 - mu |psi|^2)
    g = DomainGrid.square(0.8, 21)
    psi = g.zs()
    r2 = np.abs(psi) ** 2
    for mu in (-0.5, 0.0, 0.5):
        s, mid = make_lw_bryant("z", "0.3", 1.0, mu, g)
        inner = np.empty(g.shape + (2, 2), dtype=complex)
        inner[..., 0, 0] = 1.0 + r2
        inner[..., 0, 1] = (mu + 1.0) * psi
        inner[..., 1, 0] = (mu + 1.0) * np.conj(psi)
        inner[..., 1, 1] = 1.0 + mu ** 2 * r2
        psi_m = s.aux["frame"].values
        direct = psi_m @ inner @ np.conj(np.swapaxes(psi_m, -1, -2))
        expect = vec_from_herm_unchecked(direct) / (1.0 - mu * r2)[..., None]
        assert np.nanmax(np.abs(s.x - expect)[s.mask]) < 1e-12
        assert np.nanmax(np.abs(ip31(mid.x, mid.x) - mu)[mid.mask]) < 1e-12
        assert mid.kind is (GeometryKind.QUADRIC_H3 if mu < 0 else
                            GeometryKind.QUADRIC_DESITTER if mu > 0 else
                            GeometryKind.QUADRIC_LIGHTCONE)


def test_lw_pole_masking():
    g = DomainGrid.square(1.5, 31)
    s, _mid = make_lw_bryant("z", "0.3", 1.0, 0.5, g, eps_pole=1e-2)
    zs = g.zs()
    near = np.abs(1.0 - 0.5 * np.abs(zs) ** 2) < 5e-3
    assert not s.mask[near].any()


def test_lw_gauss_pairing():
    g = DomainGrid.square(0.8, 21)
    s, _ = make_lw_bryant("z", "0.3", 1.0, -0.5, g)
    pairing = ip31(s.gauss, s.x)
    assert np.nanmax(np.abs(pairing + 1.0)[s.mask]) < 1e-11


def test_lw_checks_its_base_before_the_walk(monkeypatch):
    # mu |psi|^2 = 1 at every node: every node lies on the pole
    def walk(*args, **kwargs):
        raise AssertionError("solve_psi called")
    monkeypatch.setattr(surfaces, "solve_psi", walk)
    with pytest.raises(BasePointMaskedError, match="no grid node is usable"):
        make_lw_bryant("1", "0.3", 1.0, 1.0, DomainGrid.square(1.0, 9))


def test_lw_rejects_zero_m():
    g = DomainGrid.square(1.0, 9)
    with pytest.raises(ValueError):
        make_lw_bryant("z", "0.3", 0.0, -1.0, g)


def test_h_frame_check_small_and_det_one():
    g = DomainGrid.square(0.8, 41)
    s, _ = make_lw_bryant("z", "0.3", 1.0, -0.5, g)
    res = h_frame_check(s.aux["frame"], "z", "0.3", 1.0)
    assert res < 5e-4
    # the companion matrix has unit determinant by construction
    psi_m = s.aux["frame"].values
    hmat = np.zeros_like(psi_m)
    hmat[..., 0, 0] = 1j * g.zs()
    hmat[..., 0, 1] = 1j
    hmat[..., 1, 0] = 1j
    hmat = psi_m @ hmat
    det = hmat[..., 0, 0] * hmat[..., 1, 1] - hmat[..., 0, 1] * hmat[..., 1, 0]
    assert np.nanmax(np.abs(det - 1.0)[s.mask]) < 1e-11


def test_h_frame_residual_refines_quadratically():
    res = []
    for n in (21, 41):
        g = DomainGrid.square(0.8, n)
        s, _ = make_lw_bryant("z", "0.3", 1.0, 0.0, g)
        res.append(h_frame_check(s.aux["frame"], "z", "0.3", 1.0))
    assert res[1] < 0.35 * res[0]


def test_h_frame_psi_zero_lower_left():
    g = DomainGrid.square(1.0, 21)
    s, _ = make_lw_bryant("0", "1", 1.0, -1.0, g)
    frame = s.aux["frame"]
    psi_m = frame.values
    hmat = np.zeros_like(psi_m)
    hmat[..., 0, 1] = 1j
    hmat[..., 1, 0] = 1j
    hmat = psi_m @ hmat
    hu = central_diff(hmat, g.du, axis=1)
    inv = np.linalg.inv(hmat[2:-2, 2:-2])
    lower_left = (inv @ hu[2:-2, 2:-2])[..., 1, 0]
    assert np.nanmax(np.abs(lower_left)) < 1e-10
