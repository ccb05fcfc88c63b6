"""Staircase integration over a grid: closed-form quadrature and frame ODEs.

Every field on a DomainGrid is integrated along canonical staircase
paths: from the base node along its row, then vertically along each
column (PathOrder.ROW_FIRST), or the transpose (COLUMN_FIRST).  Closed
1-form densities are integrated with composite Simpson per grid edge;
matrix frames are transported by classical RK4 with fixed substeps per
edge, optionally coupled to extra quadrature components whose densities
depend on the frames (T-transforms need this).

Frames carry the flat-connection equation in one of two shapes,

    FrameSide.LEFT :  dPsi = -m xi Psi,
    FrameSide.RIGHT:  dPsi = -m Psi xi,

and are renormalized to unit determinant at every node (division by the
principal square root of det); the raw per-unit-length determinant drift
is recorded before renormalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .domain import DomainGrid, grid_line_interpolant
from .minkowski import _det2, inv2

IDENTITY2 = np.eye(2, dtype=complex)


class PathOrder(Enum):
    ROW_FIRST = "row-first"
    COLUMN_FIRST = "column-first"


class FrameSide(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass
class FrameField:
    grid: DomainGrid
    values: np.ndarray          # (nv, nu, 2, 2) complex
    valid: np.ndarray           # (nv, nu) bool
    m: float
    side: FrameSide
    det_drift: float            # max |det - 1| per unit path length, raw
    order: PathOrder


@dataclass
class FrameSpec:
    """One frame ODE; coeff(z, states) -> (..., 2, 2) matrix density."""

    coeff: Callable
    m: float
    side: FrameSide = FrameSide.LEFT
    psi0: np.ndarray = dc_field(default_factory=lambda: IDENTITY2.copy())


@dataclass
class IntegralSpec:
    """One quadrature component; density(z, states) -> (...,) + tail."""

    density: Callable
    base_value: np.ndarray = 0j


@dataclass
class PathSolution:
    frames: list
    integrals: list
    valid: np.ndarray
    det_drifts: list


def _as_density_fn(density, grid, mask):
    if callable(density):
        return density
    return grid_line_interpolant(np.asarray(density), grid, mask=mask)


def _simpson_weights(substeps):
    if substeps % 2 != 0 or substeps < 2:
        raise ValueError("substeps must be even and >= 2")
    w = np.ones(substeps + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / (3.0 * substeps)


def _segment_integrals(f, p0, p1, substeps):
    """Composite Simpson along straight segments p0 -> p1 (complex arrays).

    Returns (integrals, ok): integrals has shape p0.shape + tail; ok flags
    segments whose every sample came back finite.
    """
    p0 = np.asarray(p0, dtype=complex)
    p1 = np.asarray(p1, dtype=complex)
    w = _simpson_weights(substeps)
    ts = np.linspace(0.0, 1.0, substeps + 1)
    zs = p0[..., None] + (p1 - p0)[..., None] * ts
    vals = np.asarray(f(zs))
    tail = vals.shape[zs.ndim:]
    ok = np.isfinite(vals).reshape(zs.shape + (-1,)).all(axis=-1).all(axis=-1)
    wfull = w.reshape(w.shape + (1,) * len(tail))
    seg = (vals * wfull).sum(axis=zs.ndim - 1)
    dz = (p1 - p0).reshape((p1 - p0).shape + (1,) * len(tail))
    return seg * dz, ok


def _directional_cumsum(edges, i0, axis=0):
    """Signed cumulative sums of edge integrals, measured from node i0.

    edges has n-1 entries along `axis` for n nodes; result has n entries:
    out[i] = integral from node i0 to node i along that line.
    """
    edges = np.moveaxis(np.asarray(edges), axis, 0)
    n = edges.shape[0] + 1
    c = np.zeros((n,) + edges.shape[1:], dtype=edges.dtype)
    np.cumsum(edges, axis=0, out=c[1:])
    out = c - c[i0]
    return np.moveaxis(out, 0, axis)


def _chain_valid(node_ok, edge_ok, i0, axis=0):
    """Reachability along one line: node i0 outward through ok edges/nodes."""
    node_ok = np.moveaxis(np.asarray(node_ok, dtype=bool), axis, 0)
    edge_ok = np.moveaxis(np.asarray(edge_ok, dtype=bool), axis, 0)
    out = np.zeros_like(node_ok)
    out[i0] = node_ok[i0]
    n = node_ok.shape[0]
    for i in range(i0 + 1, n):
        out[i] = out[i - 1] & edge_ok[i - 1] & node_ok[i]
    for i in range(i0 - 1, -1, -1):
        out[i] = out[i + 1] & edge_ok[i] & node_ok[i]
    return np.moveaxis(out, 0, axis)


def integrate_closed_form(density, grid, base_value=0.0, *, mask=None,
                          order=PathOrder.ROW_FIRST, substeps=4):
    """Integrate a closed 1-form density along staircase paths.

    density is a callable z -> values (any tail shape, NaN marking
    singular points) or a per-node array that gets line-interpolated.
    Returns (field, valid): field[iv, iu] = base_value + integral of
    density dz from the base node to node (iv, iu); nodes that cannot be
    reached through unmasked, finite samples are invalid and NaN.
    """
    f = _as_density_fn(density, grid, mask)
    zs = grid.zs()
    node_ok = np.ones(grid.shape, dtype=bool) if mask is None \
        else np.asarray(mask, dtype=bool)
    iv0, iu0 = grid.base_index

    if order is PathOrder.COLUMN_FIRST:
        fldT, okT = _integrate_on(f, zs.T, (iu0, iv0), node_ok.T, base_value, substeps)
        tail_axes = tuple(range(2, fldT.ndim))
        return fldT.transpose((1, 0) + tail_axes), okT.T
    return _integrate_on(f, zs, (iv0, iu0), node_ok, base_value, substeps)


def _integrate_on(f, zs, base, node_ok, base_value, substeps):
    r0, c0 = base
    nr, nc = zs.shape
    eh, eh_ok = _segment_integrals(f, zs[r0, :-1], zs[r0, 1:], substeps)
    ev, ev_ok = _segment_integrals(f, zs[:-1, :], zs[1:, :], substeps)
    tail = eh.shape[1:]

    along_row = _directional_cumsum(eh, c0, axis=0)          # (nc,) + tail
    along_col = _directional_cumsum(ev, r0, axis=0)          # (nr, nc) + tail
    total = np.asarray(base_value, dtype=complex) + along_row[None, ...] + along_col

    row_valid = _chain_valid(node_ok[r0], eh_ok, c0, axis=0)
    valid = _chain_valid(node_ok, ev_ok, r0, axis=0) & row_valid[None, :]
    total = np.where(valid.reshape(valid.shape + (1,) * len(tail)), total, np.nan)
    return total, valid


def plaquette_residuals(density, grid, *, mask=None, substeps=4):
    """Loop integrals of a density around every grid cell (closedness check)."""
    f = _as_density_fn(density, grid, mask)
    zs = grid.zs()
    eh, _ = _segment_integrals(f, zs[:, :-1], zs[:, 1:], substeps)
    ev, _ = _segment_integrals(f, zs[:-1, :], zs[1:, :], substeps)
    return eh[:-1, :] + ev[:, 1:] - eh[1:, :] - ev[:, :-1]


# ---------------------------------------------------------------------------
# frame transport

def _rk4_edge(states, z0, z1, substeps, deriv):
    for k in range(substeps):
        za = z0 + (z1 - z0) * (k / substeps)
        zm = z0 + (z1 - z0) * ((k + 0.5) / substeps)
        zb = z0 + (z1 - z0) * ((k + 1.0) / substeps)
        delta = (z1 - z0) / substeps
        k1 = deriv(za, delta, states)
        k2 = deriv(zm, delta, [s + 0.5 * d for s, d in zip(states, k1)])
        k3 = deriv(zm, delta, [s + 0.5 * d for s, d in zip(states, k2)])
        k4 = deriv(zb, delta, [s + d for s, d in zip(states, k3)])
        states = [s + (a + 2.0 * b + 2.0 * c + d) / 6.0
                  for s, a, b, c, d in zip(states, k1, k2, k3, k4)]
    return states


def solve_path_system(grid, frames: Sequence[FrameSpec],
                      integrals: Sequence[IntegralSpec] = (), *,
                      mask=None, order=PathOrder.ROW_FIRST, substeps=4,
                      renormalize=True):
    """Transport coupled frames and quadrature components along staircases.

    Frame coefficients and integral densities receive (z, frame_states)
    where frame_states are the RK4 stage values of every frame (leading
    batch axis); later frames may therefore depend on earlier ones, which
    is how gauge-transformed coefficients are integrated consistently.
    """
    nframes = len(frames)

    def deriv(z, delta, states):
        fstates = states[:nframes]
        out = []
        for spec, psi in zip(frames, fstates):
            c = spec.coeff(z, fstates)
            if spec.side is FrameSide.LEFT:
                d = c @ psi
            else:
                d = psi @ c
            out.append(-spec.m * delta[..., None, None] * d)
        for spec, _cur in zip(integrals, states[nframes:]):
            dens = np.asarray(spec.density(z, fstates))
            tail = dens.ndim - delta.ndim
            out.append(dens * delta.reshape(delta.shape + (1,) * tail))
        return out

    zs = grid.zs()
    node_ok = np.ones(grid.shape, dtype=bool) if mask is None \
        else np.asarray(mask, dtype=bool)
    iv0, iu0 = grid.base_index

    if order is PathOrder.COLUMN_FIRST:
        sol = _solve_on(zs.T, (iu0, iv0), node_ok.T, frames, integrals,
                        deriv, substeps, renormalize)
        sol.frames = [np.swapaxes(fv, 0, 1) for fv in sol.frames]
        sol.integrals = [np.moveaxis(iv_, 1, 0) for iv_ in sol.integrals]
        sol.valid = sol.valid.T
        return sol
    return _solve_on(zs, (iv0, iu0), node_ok, frames, integrals,
                     deriv, substeps, renormalize)


def _solve_on(zs, base, node_ok, frames, integrals, deriv, substeps, renormalize):
    nr, nc = zs.shape
    r0, c0 = base
    nframes = len(frames)

    frame_vals = [np.full((nr, nc, 2, 2), np.nan, dtype=complex) for _ in frames]
    int_vals = [np.full((nr, nc) + np.asarray(s.base_value, dtype=complex).shape,
                        np.nan, dtype=complex) for s in integrals]
    valid = np.zeros((nr, nc), dtype=bool)
    drifts = [0.0] * nframes

    def renorm(states, edge_len, ok):
        for j in range(nframes):
            d = _det2(states[j])
            bad = np.abs(d - 1.0)
            live = ok & np.isfinite(bad)
            if np.any(live):
                drifts[j] = max(drifts[j], float(np.max(bad[live])) / edge_len)
            if renormalize:
                states[j] = states[j] / np.sqrt(d)[..., None, None]
        return states

    def state_ok(states):
        ok = np.ones(states[0].shape[:1], dtype=bool)
        for s in states:
            ok &= np.isfinite(s).reshape(s.shape[0], -1).all(axis=1)
        return ok

    with np.errstate(all="ignore"):
        # base-row phase, batch of one
        states = [np.asarray(s.psi0, dtype=complex)[None, :, :].copy() for s in frames]
        states += [np.asarray(s.base_value, dtype=complex)[None, ...].copy()
                   for s in integrals]
        row_states = {c0: [s.copy() for s in states]}
        row_live = np.zeros(nc, dtype=bool)
        row_live[c0] = node_ok[r0, c0]
        for rng in (range(c0 + 1, nc), range(c0 - 1, -1, -1)):
            cur = [s.copy() for s in row_states[c0]]
            live = row_live[c0]
            prev = c0
            for c in rng:
                z0 = np.asarray([zs[r0, prev]])
                z1 = np.asarray([zs[r0, c]])
                cur = _rk4_edge(cur, z0, z1, substeps, deriv)
                cur = renorm(cur, abs(zs[r0, c] - zs[r0, prev]), np.asarray([live]))
                live = live and node_ok[r0, c] and bool(state_ok(cur)[0])
                row_live[c] = live
                row_states[c] = [s.copy() for s in cur]
                prev = c

        for c in range(nc):
            st = row_states.get(c)
            if st is None:
                continue
            for j in range(nframes):
                frame_vals[j][r0, c] = st[j][0]
            for j in range(len(integrals)):
                int_vals[j][r0, c] = st[nframes + j][0]
        valid[r0, :] = row_live

        # vertical phase, batched over all columns
        col_states = [np.concatenate([row_states[c][k] for c in range(nc)], axis=0)
                      for k in range(len(states))]
        for rng in (range(r0 + 1, nr), range(r0 - 1, -1, -1)):
            cur = [s.copy() for s in col_states]
            live = row_live.copy()
            prev = r0
            for r in rng:
                z0 = zs[prev, :]
                z1 = zs[r, :]
                cur = _rk4_edge(cur, z0, z1, substeps, deriv)
                cur = renorm(cur, abs(zs[r, 0] - zs[prev, 0]), live)
                live = live & node_ok[r, :] & state_ok(cur)
                valid[r, :] = live
                for j in range(nframes):
                    frame_vals[j][r, :] = cur[j]
                for j in range(len(integrals)):
                    int_vals[j][r, :] = cur[nframes + j]
                prev = r

    for j in range(nframes):
        frame_vals[j][~valid] = np.nan
    for j in range(len(integrals)):
        int_vals[j][~valid] = np.nan
    return PathSolution(frames=frame_vals, integrals=int_vals, valid=valid,
                        det_drifts=drifts)


def _xi_inputs(xi, mask):
    from .forms import XiField
    if isinstance(xi, XiField):
        fn = xi.fn
        merged = xi.mask if mask is None else (xi.mask & np.asarray(mask, dtype=bool))
        return fn, merged
    return xi, mask


def solve_psi(xi, m, grid, psi0=None, *, side=FrameSide.LEFT, mask=None,
              order=PathOrder.ROW_FIRST, substeps=4, renormalize=True) -> FrameField:
    """Integrate the frame equation for a matrix density xi.

    xi is an XiField or a callable z -> (..., 2, 2); the equation side is
    dPsi = -m xi Psi (LEFT) or dPsi = -m Psi xi (RIGHT).  m = 0 returns
    the constant frame psi0.
    """
    fn, node_mask = _xi_inputs(xi, mask)
    if psi0 is None:
        psi0 = IDENTITY2
    spec = FrameSpec(coeff=lambda z, _st: fn(z), m=m, side=side,
                     psi0=np.asarray(psi0, dtype=complex))
    sol = solve_path_system(grid, [spec], mask=node_mask, order=order,
                            substeps=substeps, renormalize=renormalize)
    return FrameField(grid=grid, values=sol.frames[0], valid=sol.valid, m=m,
                      side=side, det_drift=sol.det_drifts[0], order=order)


def iteration_law_defect(xi, t, s, grid, *, mask=None, substeps=4):
    """Defect of composing trivializing gauges: F^t_s F_t against F_{t+s}.

    F_t solves dF = t F xi; the second-stage gauge F^t_s solves
    dF = s F (F_t xi F_t^{-1}) coupled to the first; both are compared to
    the directly solved F_{t+s}.  The product (F^t_s F_t) F_{t+s}^{-1}
    should be a constant matrix over the grid; returns its maximum
    Frobenius distance from the base-node value.
    """
    fn, node_mask = _xi_inputs(xi, mask)

    def coeff_t(z, _states):
        return fn(z)

    def coeff_moved(z, states):
        f_t = states[0]
        return f_t @ fn(z) @ inv2(f_t)

    specs = [
        FrameSpec(coeff=coeff_t, m=-t, side=FrameSide.RIGHT),
        FrameSpec(coeff=coeff_moved, m=-s, side=FrameSide.RIGHT),
        FrameSpec(coeff=coeff_t, m=-(t + s), side=FrameSide.RIGHT),
    ]
    sol = solve_path_system(grid, specs, mask=node_mask, substeps=substeps,
                            renormalize=True)
    f_t, f_st, f_ts = sol.frames
    with np.errstate(all="ignore"):
        prod = (f_st @ f_t) @ inv2(f_ts)
    iv0, iu0 = grid.base_index
    base = prod[iv0, iu0]
    diff = prod - base
    fro = np.sqrt(np.sum(np.abs(diff) ** 2, axis=(-2, -1)))
    if not np.any(sol.valid):
        return float("nan")
    return float(np.nanmax(fro[sol.valid]))


def path_independence_check(xi, m, grid, *, mask=None, substeps=4, psi0=None):
    """Max Frobenius deviation between row-first and column-first transport."""
    a = solve_psi(xi, m, grid, psi0, mask=mask, order=PathOrder.ROW_FIRST,
                  substeps=substeps)
    b = solve_psi(xi, m, grid, psi0, mask=mask, order=PathOrder.COLUMN_FIRST,
                  substeps=substeps)
    both = a.valid & b.valid
    if not np.any(both):
        return float("nan")
    diff = a.values - b.values
    fro = np.sqrt(np.sum(np.abs(diff) ** 2, axis=(-2, -1)))
    return float(np.max(fro[both]))
