"""Linear algebra of R^{3,1} and its 2x2 Hermitian matrix model.

Vectors are numpy arrays whose last axis has length 4, holding components
(x0, x1, x2, x3) in a pseudo-orthonormal basis with e0 timelike and
e1, e2, e3 spacelike; the inner product is

    (u, v) = -u0*v0 + u1*v1 + u2*v2 + u3*v3.

Points of R^{3,1} are identified with Hermitian 2x2 matrices via

    x  ->  [[x0 + x3, x1 + i*x2], [x1 - i*x2, x0 - x3]],

an isometry for (A, A) = -det A.
"""

from __future__ import annotations

import numpy as np

E0 = np.array([1.0, 0.0, 0.0, 0.0])
E1 = np.array([0.0, 1.0, 0.0, 0.0])
E2 = np.array([0.0, 0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 0.0, 1.0])

# Null band of causal_type and unit-determinant tolerance of frames.
EPS_NULL = 1e-9
EPS_DET = 1e-8

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
