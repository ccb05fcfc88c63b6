"""Rectangular grids in the complex plane and sampled holomorphic data.

A DomainGrid is a node-centered rectangle: node (iv, iu) sits at
z = re_min + iu*du + 1j*(im_min + iv*dv), arrays are indexed [iv, iu].
Rectangles are simply connected, so every closed 1-form sampled on them
integrates path-independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .expr import Expr, differentiate, evaluate, parse_expr


class BasePointMaskedError(ValueError):
    """The integration base node fell on masked data."""


@dataclass(frozen=True)
class DomainGrid:
    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nu: int
    nv: int
    base_index: tuple[int, int]  # (iv, iu), matching array indexing

    def __post_init__(self):
        if self.nu < 2 or self.nv < 2:
            raise ValueError("grid needs at least 2 nodes per axis")
        width, height = self.re_max - self.re_min, self.im_max - self.im_min
        try:
            du, dv = self.du, self.dv
        except OverflowError:       # a node count past float range
            raise ValueError("grid steps cannot be formed from the node counts") from None
        if not (du > 0 and dv > 0 and math.isfinite(width * width + height * height)):
            raise ValueError("grid steps must be positive and the diameter squared finite")
        iv, iu = self.base_index
        if not (0 <= iv < self.nv and 0 <= iu < self.nu):
            raise ValueError("base_index out of range")

    @property
    def du(self):
        return (self.re_max - self.re_min) / (self.nu - 1)

    @property
    def dv(self):
        return (self.im_max - self.im_min) / (self.nv - 1)

    @property
    def shape(self):
        return (self.nv, self.nu)

    @property
    def diameter(self):
        return float(np.hypot(self.re_max - self.re_min, self.im_max - self.im_min))

    @property
    def base_z(self):
        iv, iu = self.base_index
        return complex(self.re_min + iu * self.du, self.im_min + iv * self.dv)

    def zs(self):
        """Complex node coordinates, shape (nv, nu)."""
        u = np.linspace(self.re_min, self.re_max, self.nu)
        v = np.linspace(self.im_min, self.im_max, self.nv)
        return u[None, :] + 1j * v[:, None]

    def nearest_index(self, z):
        """Grid index (iv, iu) closest to a complex point."""
        z = complex(z)
        fu, fv = (z.real - self.re_min) / self.du, (z.imag - self.im_min) / self.dv
        if not (math.isfinite(fu) and math.isfinite(fv)
                and 0 <= round(fv) < self.nv and 0 <= round(fu) < self.nu):
            raise ValueError(f"point {z} lies outside the grid")
        return (round(fv), round(fu))

    @classmethod
    def snapped(cls, re_min, re_max, im_min, im_max, nu, nv, base=0j):
        """The grid whose base node is the node nearest the point base."""
        grid = cls(re_min, re_max, im_min, im_max, nu, nv, (0, 0))
        return replace(grid, base_index=grid.nearest_index(base))

    @classmethod
    def square(cls, half_extent, n, base=0j):
        """Centered square [-h, h]^2 with n x n nodes."""
        return cls.snapped(-half_extent, half_extent, -half_extent, half_extent, n, n, base)


def dilate_mask(masked, iterations=1):
    """Grow a True-marked (masked) region by `iterations` rings of 8-neighbors.

    That is the (2r+1)^2 box around every masked node, r = iterations,
    clipped to the grid; it is taken in one separable pass, first along
    rows, then along columns.
    """
    masked = np.asarray(masked, dtype=bool)
    out = masked
    for axis in (0, 1):
        line, out = out, out.copy()
        grown, src = out.swapaxes(0, axis), line.swapaxes(0, axis)
        for k in range(1, iterations + 1):
            grown[k:] |= src[:-k]
            grown[:-k] |= src[k:]
    return out


@dataclass
class SampledData:
    """The data (phi, omega) evaluated over a grid.

    mask is True at usable nodes; it is False at singular evaluations,
    near critical points of phi, and one dilation ring around both.
    The expressions are kept so path integrators can evaluate the data
    between nodes.  The transformed data (psi, eta) are not sampled here:
    they go to make_lw_bryant directly.
    """

    grid: DomainGrid
    phi: np.ndarray
    omega_hat: np.ndarray
    mask: np.ndarray
    phi_expr: Expr
    omega_expr: Expr


def _as_expr(e):
    return parse_expr(e) if isinstance(e, str) else e


def check_base(mask, grid):
    """Raise BasePointMaskedError unless the base node is usable in mask."""
    if not np.any(mask):
        raise BasePointMaskedError("no grid node is usable; change the data or the domain")
    iv, iu = grid.base_index
    if not mask[iv, iu]:
        raise BasePointMaskedError("base node is masked; choose another base point")


def sample_data(phi, omega_hat, grid, eps_crit=None):
    """Sample phi and omega over a grid, masking where they are unusable.

    Nodes are masked at singular evaluations of phi, phi' or omega and
    where |phi'| falls below eps_crit (default 1e-8 * grid diameter):
    critical points of phi are excluded rather than modeled.  The masked
    region is dilated by one cell ring.  Raises BasePointMaskedError if no
    node or the base node is masked (check_base).
    """
    phi = _as_expr(phi)
    omega_hat = _as_expr(omega_hat)
    zs = grid.zs()
    if eps_crit is None:
        eps_crit = 1e-8 * grid.diameter

    phi_v, s1 = evaluate(phi, zs)
    dphi_v, s2 = evaluate(differentiate(phi), zs)
    omega_v, s3 = evaluate(omega_hat, zs)
    mask = ~dilate_mask(s1 | s2 | s3 | (np.abs(dphi_v) < eps_crit))
    check_base(mask, grid)
    return SampledData(grid=grid, phi=phi_v, omega_hat=omega_v,
                       mask=mask, phi_expr=phi, omega_expr=omega_hat)


def _lagrange_1d(lines, line, t):
    """Lagrange interpolation along rows of lines (L, n): row line[q] at
    fractional index t[q], on the 6 nearest nodes (all n when fewer).

    Product form, weight_j = prod_{m != j} (t - m) / prod_{m != j} (j - m)
    over the stencil's offsets, so a query on a node takes its value exactly.
    """
    n = lines.shape[1]
    k = min(6, n)
    start = np.clip(np.floor(t).astype(int) - (k // 2 - 1), 0, n - k)
    offsets = np.arange(k)
    others = np.array([np.delete(offsets, j) for j in offsets])    # (k, k - 1)
    diff = (t - start)[:, None] - offsets
    weights = np.prod(diff[:, others], axis=2) / np.prod(offsets[:, None] - others, axis=1)
    return np.sum(lines[line[:, None], start[:, None] + offsets] * weights, axis=1)


def grid_line_interpolant(values, grid, mask=None):
    """Wrap per-node samples (nv, nu) as a callable for points on grid lines.

    Queries must lie on a horizontal or vertical grid line (the staircase
    integrators only ever ask for such points); interpolation is 1D
    Lagrange on the 6 nearest nodes of that line.  Values at
    queries whose stencil touches a masked node come back NaN.
    """
    work = np.array(values, dtype=complex)
    if mask is not None:
        work[~np.asarray(mask, dtype=bool)] = np.nan

    def f(z):
        z = np.asarray(z, dtype=complex)
        fu = (z.real - grid.re_min) / grid.du
        fv = (z.imag - grid.im_min) / grid.dv
        on_row = np.abs(fv - np.round(fv)) <= 1e-9 * grid.nv
        if np.any(np.abs(fu - np.round(fu))[~on_row] > 1e-9 * grid.nu):
            raise ValueError("interpolation queries must lie on grid lines")
        out = np.empty(z.shape, dtype=complex)
        for sel, lines, along, across in ((on_row, work, fu, fv), (~on_row, work.T, fv, fu)):
            line = np.clip(np.round(across[sel]).astype(int), 0, len(lines) - 1)
            out[sel] = _lagrange_1d(lines, line, along[sel])
        return out

    return f
