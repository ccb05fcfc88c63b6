"""Staircase integration over a grid: one walker for frames and quadrature.

Every field on a DomainGrid is integrated along canonical staircase
paths: from the base node along its row, then vertically along each
column (PathOrder.ROW_FIRST), or the transpose (COLUMN_FIRST).  Each
integration is an edge problem: a local solution per grid edge, from
samples of a coefficient, and a rule that composes it into the state.

Frames solve the flat-connection equation in one of two shapes,

    FrameSide.LEFT :  dPsi = -m xi Psi,
    FrameSide.RIGHT:  dPsi = -m Psi xi.

RK4 on this linear equation is a linear map, so each edge has a transition
matrix P: classical RK4 with fixed substeps integrates it from the identity
for a block of edges in one batched call, and the walk composes
Psi_next = P Psi (LEFT) or Psi P (RIGHT).  Every P is divided by the
principal square root of its determinant; its raw |det P - 1| per unit
length is the recorded drift; a frame whose determinant leaves 1 by more
than EPS_DET ends its path (a pole within rounding of a node does that).
The T-transform and the iteration law solve coupled local problems on the
same edges; one RK4 (_rk4) advances every frame problem, which states only
its slopes.  The law walks its two sides, G = F^t_s F_t as values and
F_{t+s} as coupled: G moves by P2 P1 and F_{t+s} by P3, the propagators of
F_t, F^t_s and F_{t+s}.  A closed 1-form density is one more edge problem:
RK4 on dy = f dz is composite Simpson, so each edge adds its Simpson sum.

The walk takes both halves of the base row as one batch, then both halves
of the columns; each edge is still solved on its own and each line composes
only its own states, so the batching moves no bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from numbers import Integral
from typing import Callable

import numpy as np

from .domain import DomainGrid
from .minkowski import EPS_DET

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
    det_drift: float            # max raw |det P - 1| per unit length of edge
    coupled: tuple = ()         # further matrices transported with the frame


def _oriented(grid, mask, order):
    """Node coordinates, usable nodes and base index in walk order (rows last)."""
    zs = grid.zs()
    node_ok = np.ones(grid.shape, dtype=bool) if mask is None \
        else np.asarray(mask, dtype=bool)
    r0, c0 = grid.base_index
    if order is PathOrder.COLUMN_FIRST:
        return zs.T, node_ok.T, (c0, r0)
    return zs, node_ok, (r0, c0)


def _max_frobenius(diff, valid):
    """Largest Frobenius norm over valid nodes of 2x2 matrices whose four
    entries lie on the last axis (NaN if no node is valid)."""
    if not np.any(valid):
        return float("nan")
    return float(np.nanmax(np.sqrt(np.sum(np.abs(diff) ** 2, axis=-1))[valid]))


# ---------------------------------------------------------------------------
# the staircase walker
#
# A batch of 2x2 matrices is a (4, ...) array of the entries 00, 01, 10, 11;
# products are written out entry by entry, since numpy's matmul on
# (N, 2, 2) stacks is several times slower at the batch sizes walked here.
# Each entry is filled in place (a.b + c.d as out = a.b, out += c.d), so a
# product makes one output array, not eight temporaries and a stacked copy.
# A complex array divided by a real constant runs numpy's full complex
# division: 56 us against 9 us for a multiply at 10^4 entries (AVX-512
# x86-64, numpy 2.4).  x * (1/6) equals x / 6 and can differ only in the
# sign of a zero part; RK4 sums are only added to states that never hold
# -0 (they start at +0 or 1), where that sign is lost, so the weights are
# applied as a multiply with the bits of the division.

EDGE_BLOCK = 4096   # edges whose local solutions are computed in one call


def _mul(a, b, out=None):
    """Product of two complex batches of the same shape, into out if given
    (an array that shares no memory with a or b)."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    if out is None:
        out = np.empty((4,) + a00.shape, dtype=complex)
    for o, x, y, u, v in ((out[0], a00, b00, a01, b10), (out[1], a00, b01, a01, b11),
                          (out[2], a10, b00, a11, b10), (out[3], a10, b01, a11, b11)):
        np.multiply(x, y, out=o)
        o += u * v
    return out


def _det(a):
    return a[0] * a[3] - a[1] * a[2]


def _adj(a):
    """Adjugate as a tuple of entries: a . adj(a) = det(a) I."""
    return a[3], -a[1], -a[2], a[0]


def _inv(a):
    out = a[[3, 1, 2, 0]]
    np.negative(out[1:3], out=out[1:3])
    out /= _det(a)
    return out


def _renormalize(*props):
    """Divide propagators in place by sqrt(det); returns their raw dets, stacked."""
    dets = np.stack([_det(p) for p in props])
    for p, d in zip(props, dets):
        p /= np.sqrt(d)
    return dets


def _identities(edges):
    return np.repeat(IDENTITY2.reshape(4, 1), edges, axis=1)


def _rk4(states, slopes, points):
    """Classical RK4 for coupled (4, edges) batches from `states` (its own to
    overwrite) over an edge's sample points 0 .. points - 1, a substep per two;
    slopes(i, stages, out) writes every state's slope at sample point i, given
    every state's stage value there, into out.  Each slope joins the sum once
    the next stage value is formed: stages p + k1/2, p + k2/2, p + k3, then
    k1 + 2 k2 + 2 k3 + k4, times 1/6, plus p.  Returns the last point's batches."""
    stage, k, acc = ([np.empty_like(p) for p in states] for _ in range(3))
    for i in range(0, points - 1, 2):
        slopes(i, states, acc)                      # k1 starts the sum
        for j in (1, 2, 3):
            for s, last, a, p in zip(stage, acc if j == 1 else k, acc, states):
                if j == 3:
                    np.add(p, last, out=s)
                else:
                    np.multiply(0.5, last, out=s)
                    s += p
                if j > 1:                           # 2 k2 and 2 k3 join the sum
                    a += np.multiply(2.0, last, out=last)
            slopes(i + (j + 1) // 2, stage, k)
        for a, k4, p in zip(acc, k, states):
            a += k4
            a *= 1.0 / 6.0
            a += p
        states, acc = acc, states
    return states


# Edge problems: a frame equation plus what rides on it, or a quadrature,
# with state0 at the base node.  local(xi, delta) solves it on a batch of
# edges, given the coefficient at every sample point (entries, points,
# edges; its own to overwrite) and each edge's RK4 substep, and returns the
# local solutions and the raw determinants of its frame propagators (none
# for a quadrature); step(state, local) composes one edge into the state.

@dataclass
class FrameEquation:
    """dPsi = -m xi Psi (LEFT) or dPsi = -m Psi xi (RIGHT), from psi0."""

    coeff: Callable
    m: float
    side: FrameSide = FrameSide.LEFT
    psi0: np.ndarray | None = None

    def __post_init__(self):
        self.psi0 = IDENTITY2 if self.psi0 is None else np.asarray(self.psi0, dtype=complex)
        if self.psi0.shape != (2, 2) or not abs(_det(self.psi0.reshape(4)) - 1.0) <= EPS_DET:
            raise ValueError("psi0 must be a 2x2 matrix with determinant 1")
        self.state0 = self.psi0.reshape(4)

    def local(self, xi, delta):
        xi *= -self.m * delta

        def slopes(i, st, out):
            a, b = (xi[:, i], st[0]) if self.side is FrameSide.LEFT else (st[0], xi[:, i])
            _mul(a, b, out=out[0])

        p, = _rk4([_identities(len(delta))], slopes, xi.shape[1])
        return p, _renormalize(p)

    def step(self, state, p):
        return _mul(p, state) if self.side is FrameSide.LEFT else _mul(state, p)


@dataclass
class FrameWithMovedIntegral:
    """The LEFT frame dPsi = -m xi Psi from I and M, the integral of
    Psi^{-1} dPsi = -m Psi^{-1} xi Psi dz from 0.  Per edge, Q sums S^{-1} dS
    RK4-weighted over the propagator's stages S; M grows by Psi^{-1} Q Psi."""

    coeff: Callable
    m: float
    state0 = np.concatenate((IDENTITY2.reshape(4), np.zeros(4)))

    def local(self, xi, delta):
        xi *= -self.m * delta

        def slopes(i, st, out):         # Q's slope S^{-1} dS does not read Q
            _mul(xi[:, i], st[0], out=out[0])
            _mul(_inv(st[0]), out[0], out=out[1])

        p, q = _rk4([_identities(len(delta)), np.zeros((4, len(delta)), complex)],
                    slopes, xi.shape[1])
        dets = _renormalize(p)
        return np.concatenate((p, q)), dets

    def step(self, state, local):
        psi, moved = state[:4], state[4:]
        return np.concatenate((_mul(local[:4], psi),
                               moved + _mul(_mul(_inv(psi), local[4:]), psi)))


@dataclass
class IterationLawFrames:
    """The two sides of the iteration law, both from the identity: G =
    F^t_s F_t and F_{t+s}, where dF_t = t F_t xi, dF^t_s = s F^t_s (F_t xi
    F_t^{-1}) and dF_{t+s} = (t+s) F_{t+s} xi.  Across an edge F_t moves by
    its propagator P1, F^t_s to F^t_s F_t P2 F_t^{-1} with dP2 = s P2 (S xi
    S^{-1}) over the stage values S of P1, and F_{t+s} by P3; so G moves by
    P2 P1 and F_{t+s} by P3.  values is G, coupled is (F_{t+s},)."""

    coeff: Callable
    t: float
    s: float
    state0 = np.tile(IDENTITY2.reshape(4), 2)

    def local(self, xi, delta):
        xi *= delta
        xi_ts = xi * (self.t + self.s)
        moved = np.empty((4, len(delta)), complex)

        def slopes(i, st, out):
            # u = S delta xi at P1's stage value S: P1's slope is t u, and P2's
            # coefficient s delta S xi S^-1 is (u adj S) (s / det S), one
            # division per edge and stage
            u = _mul(st[0], xi[:, i], out=out[0])
            _mul(u, _adj(st[0]), out=moved)
            np.multiply(moved, self.s / _det(st[0]), out=moved)
            u *= self.t
            _mul(st[1], moved, out=out[1])
            _mul(st[2], xi_ts[:, i], out=out[2])

        p1, p2, p3 = _rk4([_identities(len(delta)) for _ in range(3)], slopes, xi.shape[1])
        dets = _renormalize(p1, p2, p3)
        return np.concatenate((_mul(p2, p1), p3)), dets

    def step(self, state, local):
        return np.concatenate((_mul(state[:4], local[:4]), _mul(state[4:], local[4:])))


@dataclass
class _Quadrature:
    """dy = f dz from state0.  f does not depend on y, so RK4 is Simpson's
    rule on each substep's end and mid points: an edge adds delta (w . f)
    with w the _simpson_weights of its sample points.  No propagator, so
    no determinants."""

    coeff: Callable
    state0: np.ndarray
    weights: np.ndarray

    def local(self, f, delta):
        # point by point: numpy's sum goes pairwise for a one-edge block
        out = f[:, 0] * self.weights[0]
        for j in range(1, len(self.weights)):
            out += f[:, j] * self.weights[j]
        return out * delta, np.empty((0, delta.size))

    def step(self, state, local):
        return state + local


def _simpson_weights(substeps):
    """Composite Simpson weights over `substeps` (even, >= 2) intervals of an
    edge, for a step of two intervals: the edge integral is delta (w . f)."""
    if substeps % 2 != 0 or substeps < 2:
        raise ValueError("substeps must be even and >= 2")
    w = np.ones(substeps + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 6.0


def _edge_samples(coeff, z0, z1, substeps):
    """coeff at the 2*substeps + 1 sample points of the edges z0 -> z1, as
    (entries, points, edges), and each edge's RK4 substep.  The samples are
    the walk's own (coeff returns a new array per call), so a local solver
    may scale them in place."""
    dz = z1 - z0
    pts = z0.ravel() + dz.ravel() * (np.arange(2 * substeps + 1) / 2 / substeps)[:, None]
    f = np.moveaxis(np.reshape(coeff(pts), pts.shape + (-1,)), -1, 0)
    return np.ascontiguousarray(f), (dz / substeps).ravel()


def _walk(problem, substeps, halves):
    """Compose edge solutions forward along axis 0 of sets of lines, as one batch.

    Each half is (z, ok, out, valid): z, ok and valid are (nodes, lines)
    views, out is (nodes, lines, entries) with the first node filled in.
    Each block solves the next rows of edges of every half still walking in
    one local call and composes them one row at a time; a block stops where
    a half ends, and that half drops out of the batch.  Returns the largest
    raw |det P - 1| per unit length over edges that leave a valid node.

    For a frame problem (local returns determinants) a node is valid only
    while its state's first frame keeps |det Psi - 1| <= EPS_DET.  Every
    renormalized P has det 1 to rounding, so det Psi drifts only where a
    sample near a pole blows P up past its precision.  The drift reaches the
    surfaces directly: x = Psi diag(1, -mu) Psi* has (x, x) - mu =
    mu (|det Psi|^2 - 1).  Good frames read about 1e-14, and a pole within
    rounding of a node, or 1e-3 from one, more than 1e-6; EPS_DET (1e-8,
    the bound a frame start must meet) lies between.
    """
    halves = sorted(halves, key=lambda h: -len(h[0]))   # those still walking lead
    state = np.concatenate([out[0].T for _, _, out, _ in halves], axis=1)
    live = np.concatenate([valid[0] for *_, valid in halves])
    drift, b0 = 0.0, 1
    while b0 < len(halves[0][0]):
        walking = [h for h in halves if len(h[0]) > b0]
        cols = np.cumsum([0] + [h[0].shape[1] for h in walking])
        b1 = min(b0 + max(1, EDGE_BLOCK // cols[-1]), len(walking[-1][0]))
        z, ok = (np.concatenate([h[k][b0 - 1:b1] for h in walking], axis=1) for k in (0, 1))
        z0, z1 = z[:-1], z[1:]
        state, live = state[:, :cols[-1]], live[:cols[-1]]
        local, dets = problem.local(*_edge_samples(problem.coeff, z0, z1, substeps))
        local = local.reshape(local.shape[:1] + z0.shape)
        for i in range(b1 - b0):
            state = problem.step(state, local[:, i])
            live = live & ok[i + 1] & np.isfinite(state).all(axis=0)
            if len(dets):    # a frame problem: its first frame keeps det 1
                live &= np.abs(_det(state) - 1.0) <= EPS_DET
            for (_, _, out, valid), c0, c1 in zip(walking, cols, cols[1:]):
                out[b0 + i] = state[:, c0:c1].T
                valid[b0 + i] = live[c0:c1]
        bad = np.abs(dets.reshape(dets.shape[:1] + z0.shape) - 1.0) / np.abs(z1 - z0)
        bad = bad[:, np.concatenate([valid[b0 - 1:b1 - 1] for *_, valid in walking], axis=1)]
        drift = max(drift, float(np.max(bad, where=np.isfinite(bad), initial=0.0)))
        b0 = b1
    return drift


def _walk_staircases(grid, problem, mask, order, substeps):
    """States of an edge problem at every node, their validity and the drift.

    The base row is walked as one batch of its two halves, then the columns
    as one batch of the rows above and below it: local solutions are
    computed for whole rows of edges, about EDGE_BLOCK edges per call, and
    composed one row of nodes at a time.  A node is valid when the
    node before it on its path is, it is unmasked, its state is finite and
    a frame's determinant is 1 to EPS_DET (_walk); invalid nodes hold NaN
    in both the real and the imaginary part.
    """
    zs, node_ok, (r0, c0) = _oriented(grid, mask, order)
    out = np.empty(zs.shape + problem.state0.shape, dtype=complex)
    valid = np.zeros(zs.shape, dtype=bool)
    out[r0, c0] = problem.state0
    valid[r0, c0] = node_ok[r0, c0]
    drift = 0.0
    with np.errstate(all="ignore"):
        for halves in ((np.s_[r0, c0:, None], np.s_[r0, c0::-1, None]),
                       (np.s_[r0:], np.s_[r0::-1])):
            drift = max(drift, _walk(problem, substeps,
                                     [(zs[sl], node_ok[sl], out[sl], valid[sl]) for sl in halves]))
    out[~valid] = complex(np.nan, np.nan)
    if order is PathOrder.COLUMN_FIRST:
        return np.swapaxes(out, 0, 1), valid.T, drift
    return out, valid, drift


def solve_path_system(grid, problem, *, mask=None, order=PathOrder.ROW_FIRST,
                      substeps=4) -> FrameField:
    """Transport an edge problem along the staircases of the grid, with
    `substeps` RK4 substeps per edge (an integer >= 1).  values is the
    problem's first frame, coupled its other matrices."""
    if isinstance(substeps, bool) or not isinstance(substeps, Integral) or substeps < 1:
        raise ValueError(f"substeps must be an integer >= 1, not {substeps!r}")
    out, valid, drift = _walk_staircases(grid, problem, mask, order, substeps)
    mats = out.reshape(out.shape[:2] + (-1, 2, 2))
    return FrameField(grid=grid, values=mats[:, :, 0], valid=valid, det_drift=drift,
                      coupled=tuple(mats[:, :, i] for i in range(1, mats.shape[2])))


def integrate_closed_form(density, grid, base_value=0.0, *, mask=None,
                          order=PathOrder.ROW_FIRST, substeps=4):
    """Integrate a closed 1-form density along staircase paths.

    density is a callable z -> values (any tail shape, NaN marking
    singular points).  Returns (field, valid): field[iv, iu] = base_value
    + integral of density dz from the base node to node (iv, iu), composite
    Simpson over `substeps` intervals per edge; nodes that cannot be
    reached through unmasked, finite samples are invalid and NaN.
    """
    weights = _simpson_weights(substeps)
    tail = np.broadcast_shapes(np.shape(base_value),
                               np.shape(density(np.array([grid.base_z])))[1:])
    state0 = np.broadcast_to(np.asarray(base_value, dtype=complex), tail).ravel()
    out, valid, _ = _walk_staircases(grid, _Quadrature(density, state0, weights),
                                     mask, order, substeps // 2)
    return out.reshape(grid.shape + tail), valid


def _xi_inputs(xi, mask):
    from .forms import XiField
    if not isinstance(xi, XiField):
        return xi, mask
    return xi.fn, xi.mask if mask is None else (xi.mask & np.asarray(mask, dtype=bool))


def solve_psi(xi, m, grid, psi0=None, *, side=FrameSide.LEFT, mask=None,
              order=PathOrder.ROW_FIRST, substeps=4) -> FrameField:
    """Integrate the frame equation for a matrix density xi.

    xi is an XiField or a callable z -> (..., 2, 2) that returns a new array
    per call (the walk may scale it in place); the equation side is
    dPsi = -m xi Psi (LEFT) or dPsi = -m Psi xi (RIGHT).  psi0 must have
    determinant 1; m = 0 returns the constant frame psi0.
    """
    fn, node_mask = _xi_inputs(xi, mask)
    return solve_path_system(grid, FrameEquation(fn, m, side, psi0), mask=node_mask,
                             order=order, substeps=substeps)


def iteration_law_defect(xi, t, s, grid):
    """Defect of composing trivializing gauges: F^t_s F_t against F_{t+s}.

    F_t solves dF = t F xi; the second-stage gauge F^t_s solves
    dF = s F (F_t xi F_t^{-1}) coupled to the first; their product G =
    F^t_s F_t is walked against the directly solved F_{t+s}
    (IterationLawFrames).  G F_{t+s}^{-1} should be a constant matrix over
    the grid; returns its maximum Frobenius distance from the base-node value.
    """
    fn, node_mask = _xi_inputs(xi, None)
    frames = solve_path_system(grid, IterationLawFrames(fn, t, s), mask=node_mask)
    g, f_ts = (np.moveaxis(f.reshape(f.shape[:2] + (4,)), -1, 0)
               for f in (frames.values,) + frames.coupled)
    with np.errstate(all="ignore"):
        prod = _mul(g, _inv(f_ts))
    r0, c0 = grid.base_index
    prod -= prod[:, r0, c0, None, None]
    return _max_frobenius(np.moveaxis(prod, 0, -1), frames.valid)


def path_independence_check(xi, m, grid):
    """Max Frobenius deviation between row-first and column-first transport."""
    a = solve_psi(xi, m, grid, order=PathOrder.ROW_FIRST)
    b = solve_psi(xi, m, grid, order=PathOrder.COLUMN_FIRST)
    return _max_frobenius((a.values - b.values).reshape(a.valid.shape + (4,)),
                          a.valid & b.valid)
