"""Reference formulas shared by the tests."""

import numpy as np


def vec_density_from_matrix(m):
    """Complex 4-vector density w of the Hermitian-valued form M dz + (M dz)*.

    For any complex matrix density M, the real 1-form X -> vec(M dz(X) +
    (M dz(X))*) equals Re{w dz} with w as returned here.
    """
    m = np.asarray(m)
    w = np.empty(m.shape[:-2] + (4,), dtype=complex)
    w[..., 0] = m[..., 0, 0] + m[..., 1, 1]
    w[..., 1] = m[..., 0, 1] + m[..., 1, 0]
    w[..., 2] = -1j * (m[..., 0, 1] - m[..., 1, 0])
    w[..., 3] = m[..., 0, 0] - m[..., 1, 1]
    return w
