"""Reference formulas shared by the tests."""

import math
from itertools import combinations

import numpy as np

from minksurf.expr import differentiate, evaluate, parse_expr
from minksurf.fd import central_diff, stencil_valid
from minksurf.forms import XiField, xi_hat_values
from minksurf.integrate import FrameSide, _edge_samples, _Quadrature, solve_psi


def inv2(a):
    """Adjugate inverse of 2x2 matrices, broadcasting; NaN-safe (no raise)."""
    a = np.asarray(a)
    out = np.empty_like(a)
    out[..., 0, 0] = a[..., 1, 1]
    out[..., 0, 1] = -a[..., 0, 1]
    out[..., 1, 0] = -a[..., 1, 0]
    out[..., 1, 1] = a[..., 0, 0]
    with np.errstate(all="ignore"):
        return out / (a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0])[..., None, None]


def vec_from_herm_unchecked(a):
    """Inverse of herm_from_vec for Hermitian input, broadcasting.

    Reads the real diagonal and the (0, 1) entry; the input is not checked.
    """
    a = np.asarray(a)
    out = np.empty(a.shape[:-2] + (4,))
    out[..., 0] = 0.5 * (a[..., 0, 0].real + a[..., 1, 1].real)
    out[..., 3] = 0.5 * (a[..., 0, 0].real - a[..., 1, 1].real)
    out[..., 1] = a[..., 0, 1].real
    out[..., 2] = a[..., 0, 1].imag
    return out


def secondary_form_by_conjugation(frame, data):
    """(psi, eta) read off the full conjugation Psi^{-1} xi_hat Psi: the
    moved density is eta [[-psi, psi^2], [-1, psi]] nodewise."""
    xim = inv2(frame.values) @ xi_hat_values(data.phi, data.omega_hat) @ frame.values
    eta = -xim[..., 1, 0]
    with np.errstate(all="ignore"):
        psi = np.where(np.abs(eta) > 0, xim[..., 0, 0] / xim[..., 1, 0], np.nan)
    return psi, eta


# barycentric weights for equispaced Lagrange stencils, by stencil size
_BARY = {n: np.array([(-1.0) ** j * float(math.comb(n - 1, j)) for j in range(n)])
         for n in (2, 3, 4, 5, 6)}


def lagrange_barycentric(samples, t):
    """Barycentric interpolation of rows of samples (q, n) at fractional
    index t (q,), on the 6 nearest nodes (all n when the line has fewer);
    a query within 1e-12 of a node takes that node's value."""
    n = samples.shape[1]
    stencil = min(6, n)
    w = _BARY[stencil]
    start = np.clip(np.floor(t).astype(int) - (stencil // 2 - 1), 0, n - stencil)
    offsets = np.arange(stencil)
    vals = np.take_along_axis(samples, start[:, None] + offsets[None, :], axis=1)
    diff = (t - start)[:, None] - offsets[None, :]
    exact = np.abs(diff) < 1e-12
    coeff = w[None, :] / np.where(exact, 1.0, diff)
    coeff = np.where(exact.any(axis=1)[:, None], exact.astype(float), coeff)
    coeff = coeff / coeff.sum(axis=1)[:, None]
    return (vals * coeff).sum(axis=1)


def plaquette_residuals(density, grid):
    """Loop integrals of a callable density around every grid cell (closedness check)."""
    zs = grid.zs()
    tail = np.shape(density(zs[0, :1]))[1:]
    quad = _Quadrature(density, None)

    def edge_integrals(z0, z1):
        local, _ = quad.local(*_edge_samples(density, z0, z1, quad.substeps))
        return np.moveaxis(local, 0, -1).reshape(z0.shape + tail)

    eh = edge_integrals(zs[:, :-1], zs[:, 1:])
    ev = edge_integrals(zs[:-1, :], zs[1:, :])
    return eh[:-1, :] + ev[:, 1:] - eh[1:, :] - ev[:, :-1]



def _whole_array_stencil(field, axis):
    """(out, d, taps): out is like field with a NaN rim along axis, d its interior,
    taps[k] the field shifted by k - 2 nodes, each a whole-array view."""
    f = np.asarray(field)
    f = f if f.dtype.kind == "c" else np.asarray(f, dtype=float)
    out = np.empty_like(f)
    o, f = out.swapaxes(0, axis), f.swapaxes(0, axis)
    o[:2] = o[-2:] = np.nan
    return out, o[2:-2], (f[:-4], f[1:-3], f[2:-2], f[3:-1], f[4:])


def whole_array_central_diff(field, step, axis):
    """fd.central_diff as one pass over shifted whole-array views."""
    out, d, (f0, f1, _f2, f3, f4) = _whole_array_stencil(field, axis)
    np.subtract(f0, np.multiply(8.0, f1, out=d), out=d)
    d += 8.0 * f3
    d -= f4
    d /= 12.0 * step
    return out


def whole_array_second_diff(field, step, axis):
    """fd.second_diff as one pass over shifted whole-array views."""
    out, d, (f0, f1, f2, f3, f4) = _whole_array_stencil(field, axis)
    np.negative(f0, out=d)
    d += (t := np.multiply(16.0, f1))
    d -= np.multiply(30.0, f2, out=t)
    d += np.multiply(16.0, f3, out=t)
    d -= f4
    d /= 12.0 * step ** 2
    return out

# The verifier's kernels as whole expressions, one temporary per operation:
# the in-place kernels must keep their bits (tests/test_properties.py).

def ip31_expression(u, v):
    """minkowski.ip31 as one expression."""
    u = np.asarray(u)
    v = np.asarray(v)
    return (-u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
            + u[..., 2] * v[..., 2] + u[..., 3] * v[..., 3])


def enorm_expression(v):
    """minkowski.enorm as a sum over the last axis."""
    return np.sqrt(np.sum(np.asarray(v) ** 2, axis=-1))


def duality_expression(xu, xv, su, sv):
    """verify._duality's (pairing, wedge), one temporary per operation."""
    pairing = ip31_expression(xu, sv) - ip31_expression(xv, su)
    sq = 0.0
    for i, j in combinations(range(4), 2):
        a_ij = (xu[..., i] * sv[..., j] - xu[..., j] * sv[..., i]
                - (xv[..., i] * su[..., j] - xv[..., j] * su[..., i]))
        sq = sq + a_ij * a_ij
    return pairing, np.sqrt(2.0 * sq)


def rk4_expression(states, slopes, points):
    """integrate._rk4 as plain expressions, one temporary per operation:
    slopes(i, stages) returns every state's slope at sample point i."""
    for i in range(0, points - 1, 2):
        k1 = slopes(i, states)
        k2 = slopes(i + 1, [p + 0.5 * k for p, k in zip(states, k1)])
        k3 = slopes(i + 1, [p + 0.5 * k for p, k in zip(states, k2)])
        k4 = slopes(i + 2, [p + k for p, k in zip(states, k3)])
        states = [(2.0 * b + a + 2.0 * c + d) * (1.0 / 6.0) + p
                  for p, a, b, c, d in zip(states, k1, k2, k3, k4)]
    return states


def curvatures_expression(i_form, ii_form):
    """verify.curvatures' (H, K, ok), one temporary per operation."""
    e, f, g = i_form[..., 0, 0], i_form[..., 0, 1], i_form[..., 1, 1]
    l, m, n = ii_form[..., 0, 0], ii_form[..., 0, 1], ii_form[..., 1, 1]
    det_i = e * g - f * f
    scale = 0.25 * (np.abs(e) + np.abs(g)) ** 2
    ok = (np.abs(det_i) > 1e-12) & (np.abs(det_i) > 1e-8 * scale)
    h = np.where(ok, (e * n - 2.0 * f * m + g * l) / (2.0 * det_i), np.nan)
    k = np.where(ok, (l * n - m * m) / det_i, np.nan)
    return h, k, ok


def dilate_mask_rings(masked, iterations=1):
    """domain.dilate_mask as `iterations` rings of the 8 neighbours."""
    masked = np.asarray(masked, dtype=bool)
    for _ in range(iterations):
        grown = masked.copy()
        grown[1:, :] |= masked[:-1, :]
        grown[:-1, :] |= masked[1:, :]
        grown[:, 1:] |= masked[:, :-1]
        grown[:, :-1] |= masked[:, 1:]
        grown[1:, 1:] |= masked[:-1, :-1]
        grown[1:, :-1] |= masked[:-1, 1:]
        grown[:-1, 1:] |= masked[1:, :-1]
        grown[:-1, :-1] |= masked[1:, 1:]
        masked = grown
    return masked


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


def lw_frame(psi, eta_hat, m, grid):
    """make_lw_bryant's frame of the expression texts psi and eta_hat, walked again:
    the RIGHT frame dPsi = -m Psi xi of their density, usable where both are finite."""
    psi_e, eta_e = parse_expr(psi), parse_expr(eta_hat)
    zs = grid.zs()
    xi = XiField(mask=np.isfinite(_values(psi_e, zs)) & np.isfinite(_values(eta_e, zs)),
                 fn=lambda z: xi_hat_values(_values(psi_e, z), _values(eta_e, z)))
    return solve_psi(xi, m, grid, side=FrameSide.RIGHT)


def exact_frame(zs, m, a=None):
    """The LEFT frame of phi = z, omega = 1 (Bryant's Enneper cousin), Psi = I at z = 0;
    with a in SL(2,C), a Psi a^-1, the frame of mobius_data(a).

    Each column (a, b) of Psi solves b'' = -m b and a = b'/m + z b, so with k = sqrt(m)
    Psi = [[cos kz + kz sin kz, -sin(kz)/k + z cos kz], [k sin kz, cos kz]].
    """
    zs = np.asarray(zs)
    k = np.sqrt(complex(m))
    kz = k * zs
    cos, sin = np.cos(kz), np.sin(kz)
    psi = np.stack([np.stack([cos + kz * sin, -sin / k + zs * cos], axis=-1),
                    np.stack([k * sin, cos], axis=-1)], axis=-2)
    return psi if a is None else a @ psi @ inv2(a)


def _literal(c):
    """The complex number c as an expression, exact to the last bit."""
    return f"({c.real!r} + {c.imag!r}*i)"


def mobius_data(a, phi="z", omega="1"):
    """Expression texts of phi' = (a phi + b)/(c phi + d) and omega' = (c phi + d)^2 omega
    for a = [[a, b], [c, d]] in SL(2,C).

    Their matrix density is a xi a^-1 at every point, so their frame on either side,
    started from I, is a Psi a^-1 (RK4 is linear: the discrete frames agree to rounding).
    """
    (p, q), (r, s) = ((_literal(complex(v)) for v in row) for row in a)
    denominator = f"({r}*({phi}) + {s})"
    return f"({p}*({phi}) + {q})/{denominator}", f"{denominator}^2*({omega})"


def mobius_pole(pole):
    """A = [[1, 0], [c, 1]] with c = -1/pole: mobius_data(A) has phi' = z/(cz + 1) with a
    pole at `pole` and omega' = (cz + 1)^2, and phi'^2 omega' = z^2 keeps the density
    entire, so exact_frame(zs, m, A) is its exact frame, without monodromy."""
    return np.array([[1.0, 0.0], [-1.0 / pole, 1.0]], dtype=complex)
