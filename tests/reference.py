"""Reference formulas shared by the tests."""

import numpy as np

from minksurf.expr import differentiate, evaluate, parse_expr
from minksurf.fd import central_diff, stencil_valid
from minksurf.minkowski import inv2


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


class SingularPoint(ArithmeticError):
    """Scalar evaluation hit a pole or branch-point singularity."""


def eval_at(e, z):
    """Evaluate at a single point; raises SingularPoint on a singular hit."""
    vals, sing = evaluate(e, complex(z))
    if bool(sing):
        raise SingularPoint(f"expression is singular at z={complex(z)}")
    return complex(vals)


def h_frame_check(frame, psi, eta_hat, m):
    """Residual of the null-curve frame equation for the LW pipeline.

    psi and eta_hat are expression texts.  Builds H = Psi [[i psi, i], [i, 0]]
    nodewise, finite-differences H^{-1} dH, and returns the maximum deviation
    from the expected off-diagonal form [[0, m eta], [psi', 0]] dz over
    full-stencil nodes.
    """
    grid = frame.grid
    psi_e = parse_expr(psi)
    psi_v, eta_v, dpsi_v = (_values(e, grid.zs())
                            for e in (psi_e, parse_expr(eta_hat), differentiate(psi_e)))

    hmat = np.empty(grid.shape + (2, 2), dtype=complex)
    hmat[..., 0, 0] = 1j * psi_v
    hmat[..., 0, 1] = 1j
    hmat[..., 1, 0] = 1j
    hmat[..., 1, 1] = 0.0
    hmat = frame.values @ hmat

    hu = central_diff(hmat, grid.du, axis=1)
    hv = central_diff(hmat, grid.dv, axis=0)
    hinv = inv2(hmat)
    au = hinv @ hu
    av = hinv @ hv

    expected = np.zeros(grid.shape + (2, 2), dtype=complex)
    expected[..., 0, 1] = m * eta_v
    expected[..., 1, 0] = dpsi_v

    dev_u = np.sqrt(np.sum(np.abs(au - expected) ** 2, axis=(-2, -1)))
    dev_v = np.sqrt(np.sum(np.abs(av - 1j * expected) ** 2, axis=(-2, -1)))
    ok = stencil_valid(frame.valid & np.isfinite(psi_v) & np.isfinite(eta_v)
                       & np.isfinite(dpsi_v))
    if not np.any(ok):
        return float("nan")
    return float(np.max(np.maximum(dev_u, dev_v)[ok]))


def _values(e, zs):
    vals, sing = evaluate(e, zs)
    return np.where(sing, np.nan, vals)
