import numpy as np

from minksurf import minkowski as mk
from minksurf.forms import zeta_vector_density
from minksurf.surfaces import _frame_conjugate
from reference import vec_density_from_matrix, vec_from_herm_unchecked


def _expm2(b, terms=24):
    out = np.eye(2, dtype=complex)
    acc = np.eye(2, dtype=complex)
    for k in range(1, terms):
        acc = acc @ b / k
        out = out + acc
    return out


def _random_sl2(rng):
    while True:
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        if abs(det) > 0.1:
            return a / np.sqrt(det)


def test_ip31_basis():
    assert mk.ip31(mk.E0, mk.E0) == -1.0
    assert mk.ip31(mk.E1, mk.E1) == 1.0
    null = mk.E0 + mk.E3
    assert mk.ip31(null, null) == 0.0


def test_causal_classification():
    assert mk.causal_type(mk.E0) == mk.TIMELIKE
    assert mk.causal_type(3 * mk.E2) == mk.SPACELIKE
    assert mk.causal_type(mk.E0 + mk.E3) == mk.LIGHTLIKE
    assert mk.causal_type(1e6 * (mk.E0 + mk.E3)) == mk.LIGHTLIKE


def test_causal_type_reads_the_direction_only():
    # below unit scale, and where (v, v) underflows to 0, the type is the direction's
    assert mk.causal_type(1e-5 * mk.E0) == mk.TIMELIKE
    assert mk.causal_type(1e-170 * mk.E0) == mk.TIMELIKE
    assert mk.causal_type(1e-170 * mk.E3) == mk.SPACELIKE
    assert mk.causal_type(1e-170 * (mk.E0 + mk.E3)) == mk.LIGHTLIKE


def test_herm_from_vec_basis():
    assert np.allclose(mk.herm_from_vec(mk.E1), [[0, 1], [1, 0]])
    assert np.allclose(mk.herm_from_vec(mk.E0), np.eye(2))
    assert np.allclose(mk.herm_from_vec(mk.E2), [[0, 1j], [-1j, 0]])
    assert np.allclose(mk.herm_from_vec(mk.E3), [[1, 0], [0, -1]])


def test_herm_from_vec_general():
    a = mk.herm_from_vec(np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(a, [[5, 2 + 3j], [2 - 3j, -3]])


def test_herm_vec_roundtrip_and_det():
    rng = np.random.default_rng(11)
    v = rng.normal(size=(300, 4))
    a = mk.herm_from_vec(v)
    back = vec_from_herm_unchecked(a)
    assert np.max(np.abs(back - v)) < 1e-14
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    ip = mk.ip31(v, v)
    assert np.max(np.abs(-det.real - ip)) <= 1e-12 * (1 + np.max(np.abs(ip)))


def _conjugate_matmul(a, v):
    # vec(A herm(v) A*) by plain matrix products
    return vec_from_herm_unchecked(a @ mk.herm_from_vec(v) @ a.conj().T)


def test_sl2_identity_action():
    v = np.array([0.3, -1.2, 0.5, 2.0])
    assert np.allclose(_frame_conjugate(np.eye(2, dtype=complex), mk.herm_from_vec(v)), v)


def test_sl2_boost():
    lam = 2.0
    a = np.diag([lam, 1.0 / lam]).astype(complex)
    out = _frame_conjugate(a, mk.herm_from_vec(mk.E0))
    t = 2.0 * np.log(lam)
    assert np.allclose(out, [np.cosh(t), 0.0, 0.0, np.sinh(t)])
    assert np.allclose(out, _conjugate_matmul(a, mk.E0))


def test_sl2_action_preserves_ip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = _random_sl2(rng)
        u = rng.normal(size=4)
        v = rng.normal(size=4)
        au = _frame_conjugate(a, mk.herm_from_vec(u))
        av = _frame_conjugate(a, mk.herm_from_vec(v))
        lhs = mk.ip31(au, av)
        rhs = mk.ip31(u, v)
        bound = 1e-10 * (1 + float(np.dot(u, u)) + float(np.dot(v, v)))
        assert abs(lhs - rhs) <= bound
        assert np.max(np.abs(au - _conjugate_matmul(a, u))) <= bound


def _alg_act(b, v):
    # vec(B herm(v) + herm(v) B*): the real part of the density at dz = 1
    return vec_density_from_matrix(b @ mk.herm_from_vec(v)).real


def _wedge_act(a, b, v):
    # (a ^ b) v = (a, v) b - (b, v) a
    return mk.ip31(a, v) * b - mk.ip31(b, v) * a


def test_sl2alg_zero():
    v = np.array([1.0, -2.0, 0.5, 0.25])
    assert np.allclose(_alg_act(np.zeros((2, 2), dtype=complex), v), 0.0)
    w = zeta_vector_density(np.array([0.3 - 0.2j]), np.array([0.0j]), v)
    assert np.all(w == 0.0)


def test_sl2alg_e01_action():
    e01 = np.array([[0, -0.5], [-0.5, 0]], dtype=complex)
    out = _alg_act(e01, mk.E0)
    assert np.allclose(out, -mk.E1)
    assert np.allclose(out, _wedge_act(mk.E0, mk.E1, mk.E0))


def test_sl2alg_matches_derivative_of_group_action():
    # the density of (zeta a) at dz = 1 is the derivative at t = 0 of
    # Psi(t) herm(a) Psi(t)* with Psi(t) = exp(t xi_hat); likewise for any
    # trace-free B through vec_density_from_matrix
    rng = np.random.default_rng(23)
    for _ in range(20):
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b[1, 1] = -b[0, 0]  # trace-free
        phi = complex(*rng.normal(size=2))
        omega_hat = complex(*rng.normal(size=2))
        xi_hat = np.array([[-phi, phi * phi], [-1.0, phi]]) * omega_hat
        v = rng.normal(size=4)
        h = mk.herm_from_vec(v)
        zeta = zeta_vector_density(np.array([phi]), np.array([omega_hat]), v)[0].real
        for gen, lin in ((b, _alg_act(b, v)), (xi_hat, zeta)):
            for t in (1e-3, 5e-4):
                g = _expm2(t * gen)
                g = g / np.sqrt(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
                fd = (_frame_conjugate(g, h) - _frame_conjugate(np.linalg.inv(g), h)) / (2 * t)
                assert np.max(np.abs(fd - lin)) < 10.0 * t ** 2 * (1 + np.sum(v * v))


_E1M = np.array([[0, 1], [1, 0]], dtype=complex)
_E2M = np.array([[0, 1j], [-1j, 0]], dtype=complex)
_E3M = np.array([[1, 0], [0, -1]], dtype=complex)

# e_i ^ e_j in sl(2,C)
_SL2_WEDGE_TABLE = {
    (0, 1): -0.5 * _E1M, (0, 2): -0.5 * _E2M, (0, 3): -0.5 * _E3M,
    (1, 2): 0.5j * _E3M, (1, 3): -0.5j * _E2M, (2, 3): 0.5j * _E1M,
}


def test_skew_to_sl2_table():
    basis = [mk.E0, mk.E1, mk.E2, mk.E3]
    for (i, j), bij in _SL2_WEDGE_TABLE.items():
        assert abs(np.trace(bij)) == 0.0
        for v in basis:
            got = _alg_act(bij, v)
            assert np.allclose(got, _wedge_act(basis[i], basis[j], v)), (i, j)


def test_skew_to_sl2_action_roundtrip():
    # a ^ b = sum over i < j of (a_i b_j - a_j b_i) e_i ^ e_j, the six
    # bivector components the duality wedge is computed from
    rng = np.random.default_rng(7)
    for _ in range(40):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        v = rng.normal(size=4)
        alg = sum((a[i] * b[j] - a[j] * b[i]) * bij
                  for (i, j), bij in _SL2_WEDGE_TABLE.items())
        expect = _wedge_act(a, b, v)
        via_alg = _alg_act(alg, v)
        assert np.max(np.abs(via_alg - expect)) <= 1e-10 * (1 + np.max(np.abs(expect)))
