"""Linear algebra of R^{3,1} and its 2x2 Hermitian matrix model.

Vectors are numpy arrays whose last axis has length 4, holding components
(x0, x1, x2, x3) in a pseudo-orthonormal basis with e0 timelike and
e1, e2, e3 spacelike; the inner product is

    (u, v) = -u0*v0 + u1*v1 + u2*v2 + u3*v3.

Points of R^{3,1} are identified with Hermitian 2x2 matrices via

    x  ->  [[x0 + x3, x1 + i*x2], [x1 - i*x2, x0 - x3]],

an isometry for (A, A) = -det A.  SL(2,C) acts on Hermitian matrices by
A.v = A v A*, covering the identity component of O(3,1); its Lie algebra
sl(2,C) acts by B.v = B v + v B*.  Skew-symmetric endomorphisms of
R^{3,1} are represented as plain 4x4 real matrices W with eta*W
antisymmetric, where eta = diag(-1, 1, 1, 1).
"""

from __future__ import annotations

import numpy as np

ETA = np.array([-1.0, 1.0, 1.0, 1.0])

E0 = np.array([1.0, 0.0, 0.0, 0.0])
E1 = np.array([0.0, 1.0, 0.0, 0.0])
E2 = np.array([0.0, 0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 0.0, 1.0])

# Tolerances of the checks below: null band, Hermitian, unit-determinant,
# trace-free and skew defects.
EPS_NULL = 1e-9
EPS_HERM = 1e-9
EPS_DET = 1e-8
EPS_TRACE = 1e-10
EPS_SKEW = 1e-10

TIMELIKE = "timelike"
SPACELIKE = "spacelike"
LIGHTLIKE = "lightlike"


def ip31(u, v):
    """Minkowski inner product, broadcasting over leading axes.

    Extends complex-bilinearly when either argument is complex (no
    conjugation), which is what the wedge/expansion identities need.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    return (-u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
            + u[..., 2] * v[..., 2] + u[..., 3] * v[..., 3])


def enorm(v):
    """Euclidean norm over the last axis, broadcasting."""
    return np.sqrt(np.sum(np.asarray(v) ** 2, axis=-1))


def causal_type(v):
    """Classify a single vector as timelike, spacelike or lightlike.

    The null band is |(v,v)| <= EPS_NULL * max(1, |v|_E^2) with the
    Euclidean norm as scale.
    """
    v = np.asarray(v, dtype=float)
    q = float(ip31(v, v))
    scale = max(1.0, float(np.dot(v, v)))
    if abs(q) <= EPS_NULL * scale:
        return LIGHTLIKE
    return TIMELIKE if q < 0.0 else SPACELIKE


def herm_from_vec(v):
    """Map vectors (..., 4) to Hermitian matrices (..., 2, 2)."""
    v = np.asarray(v)
    out = np.empty(v.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = v[..., 0] + v[..., 3]
    out[..., 0, 1] = v[..., 1] + 1j * v[..., 2]
    out[..., 1, 0] = v[..., 1] - 1j * v[..., 2]
    out[..., 1, 1] = v[..., 0] - v[..., 3]
    return out


def vec_from_herm(a):
    """Inverse of herm_from_vec; rejects non-Hermitian input.

    Hermitian defect is measured entrywise against EPS_HERM * (1 + max |a|).
    """
    a = np.asarray(a, dtype=complex)
    scale = 1.0 + (np.max(np.abs(a)) if a.size else 0.0)
    defect = max(
        float(np.max(np.abs(a[..., 1, 0] - np.conj(a[..., 0, 1]))) if a.size else 0.0),
        float(np.max(np.abs(a[..., 0, 0].imag)) if a.size else 0.0),
        float(np.max(np.abs(a[..., 1, 1].imag)) if a.size else 0.0),
    )
    if defect > EPS_HERM * scale:
        raise ValueError(f"matrix is not Hermitian within tolerance ({defect:.3e})")
    return vec_from_herm_unchecked(a)


def vec_from_herm_unchecked(a):
    """vec_from_herm without the Hermitian check (hot paths)."""
    a = np.asarray(a)
    out = np.empty(a.shape[:-2] + (4,))
    out[..., 0] = 0.5 * (a[..., 0, 0].real + a[..., 1, 1].real)
    out[..., 3] = 0.5 * (a[..., 0, 0].real - a[..., 1, 1].real)
    out[..., 1] = a[..., 0, 1].real
    out[..., 2] = a[..., 0, 1].imag
    return out


def _det2(a):
    return (a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0])


def inv2(a):
    """Adjugate inverse of 2x2 matrices, broadcasting; NaN-safe (no raise)."""
    a = np.asarray(a)
    out = np.empty_like(a)
    out[..., 0, 0] = a[..., 1, 1]
    out[..., 0, 1] = -a[..., 0, 1]
    out[..., 1, 0] = -a[..., 1, 0]
    out[..., 1, 1] = a[..., 0, 0]
    with np.errstate(all="ignore"):
        return out / _det2(a)[..., None, None]


def sl2_act_vec(a, v):
    """Action of A in SL(2,C) on R^{3,1}: v -> vec(A herm(v) A*).

    Raises if |det A - 1| exceeds EPS_DET anywhere.
    """
    a = np.asarray(a, dtype=complex)
    defect = float(np.max(np.abs(_det2(a) - 1.0)))
    if defect > EPS_DET:
        raise ValueError(f"matrix is not unit-determinant within tolerance ({defect:.3e})")
    h = herm_from_vec(v)
    astar = np.conj(np.swapaxes(a, -1, -2))
    return vec_from_herm_unchecked(a @ h @ astar)


def sl2alg_act_vec(b, v):
    """Infinitesimal action of B in sl(2,C): v -> vec(B herm(v) + herm(v) B*).

    Raises if |tr B| exceeds EPS_TRACE anywhere.
    """
    b = np.asarray(b, dtype=complex)
    defect = float(np.max(np.abs(b[..., 0, 0] + b[..., 1, 1])))
    if defect > EPS_TRACE:
        raise ValueError(f"matrix is not trace-free within tolerance ({defect:.3e})")
    h = herm_from_vec(v)
    bstar = np.conj(np.swapaxes(b, -1, -2))
    return vec_from_herm_unchecked(b @ h + h @ bstar)


def wedge_to_skew(a, b):
    """Endomorphism a^b with (a^b)v = (a,v)b - (b,v)a, as a 4x4 matrix."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # column k carries eta_k (a_k b_i - b_k a_i)
    w = a[..., :, None] * b[..., None, :] - b[..., :, None] * a[..., None, :]
    return -(w * ETA)


def is_skew31(w):
    """True where eta*W is antisymmetric within EPS_SKEW, i.e. (Wu,v) = -(u,Wv)."""
    w = np.asarray(w)
    ew = ETA[:, None] * w
    scale = 1.0 + (np.max(np.abs(w)) if w.size else 0.0)
    return float(np.max(np.abs(ew + np.swapaxes(ew, -1, -2)))) <= EPS_SKEW * scale


def skew_frobenius(w):
    """Frobenius norm of a skew endomorphism, broadcasting."""
    w = np.asarray(w)
    return np.sqrt(np.sum(w * w, axis=(-2, -1)))


# e_i ^ e_j in sl(2,C), stored as data and cross-checked against the
# wedge action in the test suite.
_E1M = np.array([[0, 1], [1, 0]], dtype=complex)
_E2M = np.array([[0, 1j], [-1j, 0]], dtype=complex)
_E3M = np.array([[1, 0], [0, -1]], dtype=complex)

SL2_WEDGE_TABLE = {
    (0, 1): -0.5 * _E1M,
    (0, 2): -0.5 * _E2M,
    (0, 3): -0.5 * _E3M,
    (1, 2): 0.5j * _E3M,
    (1, 3): -0.5j * _E2M,
    (2, 3): 0.5j * _E1M,
}


def skew_to_sl2(w):
    """Convert a skew endomorphism to the sl(2,C) element with the same action.

    Decomposes W over the basis e_i ^ e_j (coefficient c_ij = eta_i * W[j, i])
    and sums the tabulated sl(2,C) images.  Raises on non-skew input.
    """
    w = np.asarray(w, dtype=float)
    if not is_skew31(w):
        raise ValueError("matrix is not skew-symmetric with respect to the Minkowski form")
    out = np.zeros(w.shape[:-2] + (2, 2), dtype=complex)
    for (i, j), bij in SL2_WEDGE_TABLE.items():
        c = ETA[i] * w[..., j, i]
        out = out + c[..., None, None] * bij
    return out
