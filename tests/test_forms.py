import numpy as np

from minksurf.domain import DomainGrid, sample_data
from minksurf.forms import xi_hat_values, zeta_density_fn, zeta_vector_density
from minksurf.minkowski import E0, E3, herm_from_vec, ip31
from minksurf.surfaces import _frame_conjugate
from reference import vec_density_from_matrix


def test_xi_hat_simple_values():
    assert np.allclose(xi_hat_values(0.0, 1.0), [[0, 0], [-1, 0]])
    assert np.allclose(xi_hat_values(1j, 2.0), [[-2j, -2], [-2, 2j]])


def test_xi_trace_free_and_nilpotent():
    rng = np.random.default_rng(17)
    phi = rng.normal(size=1000) + 1j * rng.normal(size=1000)
    om = rng.normal(size=1000) + 1j * rng.normal(size=1000)
    xh = xi_hat_values(phi, om)
    tr = xh[..., 0, 0] + xh[..., 1, 1]
    det = xh[..., 0, 0] * xh[..., 1, 1] - xh[..., 0, 1] * xh[..., 1, 0]
    scale = 1 + np.abs(phi) ** 2 * np.abs(om)
    assert np.max(np.abs(tr)) == 0.0
    assert np.max(np.abs(det) / scale ** 2) < 1e-15


def _lift_pair(phi):
    # complex null frame pair used by the explicit expansion of the form
    a = np.stack([np.ones_like(phi), phi, -1j * phi, -np.ones_like(phi)], axis=-1)
    b = np.stack([phi, np.ones_like(phi), 1j * np.ones_like(phi), phi], axis=-1)
    return a, b


def _zeta_density_direct(phi, om, vec):
    # independent oracle: ((A, v) B - (B, v) A) * omega with complex-bilinear ip
    a, b = _lift_pair(phi)
    av = ip31(a, vec)
    bv = ip31(b, vec)
    return (av[..., None] * b - bv[..., None] * a) * om[..., None]


def test_zeta_density_weierstrass_component():
    g = DomainGrid.square(1.0, 9)
    data = sample_data("z", "1", g)
    w = zeta_vector_density(data.phi, data.omega_hat, E0)
    zs = g.zs()
    # -(zeta e0) must be ((1 - z^2), i(1 + z^2), 2z) in the spatial slots
    assert np.max(np.abs(w[..., 0])) < 1e-14
    assert np.allclose(-w[..., 1], 1 - zs ** 2)
    assert np.allclose(-w[..., 2], 1j * (1 + zs ** 2))
    assert np.allclose(-w[..., 3], 2 * zs)


def test_zeta_density_maximal_component():
    g = DomainGrid.square(1.0, 9)
    data = sample_data("z", "1", g)
    w = zeta_vector_density(data.phi, data.omega_hat, E3)
    zs = g.zs()
    assert np.allclose(-w[..., 0], 2 * zs)
    assert np.allclose(-w[..., 1], 1 + zs ** 2)
    assert np.allclose(-w[..., 2], 1j * (1 - zs ** 2))
    assert np.max(np.abs(w[..., 3])) < 1e-14


def test_zeta_density_two_formula_oracle():
    rng = np.random.default_rng(29)
    phi = rng.normal(size=100) + 1j * rng.normal(size=100)
    om = rng.normal(size=100) + 1j * rng.normal(size=100)
    for vec in (E0, E3, np.array([0.3, -1.0, 2.0, 0.7])):
        herm_route = vec_density_from_matrix(
            xi_hat_values(phi, om) @ herm_from_vec(vec))
        direct = _zeta_density_direct(phi, om, vec)
        scale = 1 + np.max(np.abs(direct))
        assert np.max(np.abs(herm_route - direct)) <= 1e-11 * scale


def test_zeta_density_fn_matches_node_values():
    g = DomainGrid.square(1.0, 7, base=1 + 1j)  # phi' vanishes at 0
    data = sample_data("z^2 + i", "exp(z)", g)
    fn = zeta_density_fn(data, E0)
    assert np.allclose(fn(g.zs()), zeta_vector_density(data.phi, data.omega_hat, E0))


def test_zeta_ad_equivariance():
    # conjugating the matrix density and transforming the argument equals
    # transforming the output vector density
    rng = np.random.default_rng(41)
    phi = rng.normal(size=50) + 1j * rng.normal(size=50)
    om = rng.normal(size=50) + 1j * rng.normal(size=50)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = a / np.sqrt(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    vec = np.array([0.2, 1.0, -0.5, 0.3])
    vec_moved = _frame_conjugate(a, herm_from_vec(vec))
    xh = xi_hat_values(phi, om)
    xh_moved = a @ xh @ np.linalg.inv(a)
    w_moved = vec_density_from_matrix(xh_moved @ herm_from_vec(vec_moved))
    w = vec_density_from_matrix(xh @ herm_from_vec(vec))
    expect = (_frame_conjugate(a, herm_from_vec(w.real))
              + 1j * _frame_conjugate(a, herm_from_vec(w.imag)))
    assert np.max(np.abs(w_moved - expect)) < 1e-10 * (1 + np.max(np.abs(w)))
