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
    The sum runs left to right in the buffer of its first term, with one
    scratch plane for the other products.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    out = np.asarray(-u[..., 0] * v[..., 0])
    t = np.asarray(u[..., 1] * v[..., 1])
    out += t
    out += np.multiply(u[..., 2], v[..., 2], out=t)
    out += np.multiply(u[..., 3], v[..., 3], out=t)
    return out[()]


def enorm(v):
    """Euclidean norm of floating v over the last axis, broadcasting.

    Summed in place from v0^2 in component order, the order numpy's sum
    over a length-4 axis takes in every layout.
    """
    v = np.asarray(v)
    out = np.asarray(np.square(v[..., 0]))
    t = np.empty_like(out)
    for i in range(1, v.shape[-1]):
        out += np.square(v[..., i], out=t)
    return np.sqrt(out, out=out)[()]


def causal_type(v):
    """Classify a single non-zero vector as timelike, spacelike or lightlike.

    The vector is first divided by its largest |component|, so only its
    direction counts: neither a small scale nor one whose (v, v) would
    underflow moves it across the null band |(v,v)| <= EPS_NULL * |v|_E^2.
    """
    v = np.asarray(v, dtype=float)
    v = v / np.max(np.abs(v))
    q = float(ip31(v, v))
    if abs(q) <= EPS_NULL * float(np.dot(v, v)):
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
