"""The sl(2,C)-valued 1-form of the construction and its vector densities.

All 1-forms here are (1,0)-forms written against the grid chart z: a form
is stored through its density, xi = xi_hat dz.  The matrix density built
from data (phi, omega_hat) is

    xi_hat = [[-phi, phi^2], [-1, phi]] * omega_hat,

trace-free and nilpotent at every node.  The associated so(3,1)-valued
form acting on a fixed vector a produces an R^{3,1}-valued 1-form; it is
returned as a complex 4-vector density w with

    (zeta a)(X) = Re{ w * dz(X) }    componentwise,

obtained through the Hermitian model from M = xi_hat * herm(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import SampledData
from .expr import evaluate


@dataclass
class XiField:
    """The matrix density xi_hat as an evaluator, with the usable nodes."""

    mask: np.ndarray            # True at usable nodes
    fn: Callable                # z -> (..., 2, 2) complex, NaN where singular


def xi_hat_values(phi, omega_hat):
    """Matrix density from sampled phi and omega_hat, broadcasting.

    The entries are stored first, so the (..., 2, 2) result is a view whose
    entry planes are contiguous; the walker reads them without a copy.
    """
    phi = np.asarray(phi, dtype=complex)
    omega_hat = np.asarray(omega_hat, dtype=complex)
    out = np.empty((2, 2) + np.broadcast_shapes(phi.shape, omega_hat.shape), dtype=complex)
    out[0, 0] = -phi
    out[0, 1] = phi * phi
    out[1, 0] = -1.0
    out[1, 1] = phi
    out *= omega_hat
    return np.moveaxis(out, (0, 1), (-2, -1))


def _expr_pair_fn(f_expr, g_expr, combine):
    """z -> combine(f(z), g(z)), NaN over the trailing axes where singular."""
    def fn(z):
        fv, fs = evaluate(f_expr, z)
        gv, gs = evaluate(g_expr, z)
        with np.errstate(all="ignore"):    # what overflows is not finite: the walk stops there
            out = combine(fv, gv)
        bad = fs | gs
        if np.any(bad):
            out = np.where(bad.reshape(bad.shape + (1,) * (out.ndim - bad.ndim)),
                           np.nan, out)
        return out
    return fn


def build_xi(data: SampledData) -> XiField:
    """Matrix density of the data (phi, omega), evaluated from their expressions.

    The field's mask is a copy of the data's.
    """
    return XiField(mask=data.mask.copy(),
                   fn=_expr_pair_fn(data.phi_expr, data.omega_expr, xi_hat_values))


def zeta_vector_density(phi, omega_hat, a):
    """Density w of (zeta a) from sampled phi, omega_hat and a fixed vector a.

    w is the density of M dz + (M dz)* with M = xi_hat herm(a), written
    out entry by entry.  Each entry is grouped so that the trace-free
    cancellations stay exact: w0 = 0 for a along e0 and w3 = 0 for a along e3.
    """
    phi = np.asarray(phi, dtype=complex)
    omega_hat = np.asarray(omega_hat, dtype=complex)
    a0, a1, a2, a3 = (float(c) for c in a)
    h00, h01, h10, h11 = a0 + a3, complex(a1, a2), complex(a1, -a2), a0 - a3
    phi2 = phi * phi
    w = np.empty(np.broadcast_shapes(phi.shape, omega_hat.shape) + (4,), dtype=complex)
    w[..., 0] = phi * (h11 - h00) + phi2 * h10 - h01
    w[..., 1] = phi * (h10 - h01) + phi2 * h11 - h00
    w[..., 2] = -1j * (phi2 * h11 + h00 - phi * (h01 + h10))
    w[..., 3] = phi2 * h10 + h01 - phi * (h00 + h11)
    w *= omega_hat[..., None]
    return w


def zeta_density_fn(data: SampledData, a):
    """Callable z -> w(z) for quadrature between nodes; NaN where singular."""
    a = np.asarray(a, dtype=float)
    return _expr_pair_fn(data.phi_expr, data.omega_expr,
                         lambda phi, omega_hat: zeta_vector_density(phi, omega_hat, a))
