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
same edges.  A frame problem states its start, its propagators (from I), its
passive integrals (from 0 and read by no slope, so RK4 forms no stage value
for them: the T-transform's Q), the scale of its samples and its slopes; one
shared local does the rest.  A closed 1-form density is one more edge
problem: RK4 on dy = f dz is composite Simpson, so each edge adds its
Simpson sum.

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
    values: np.ndarray | None   # (nv, nu, 2, 2) complex; None in a surface's aux["frame"]
    valid: np.ndarray           # (nv, nu) bool
    det_drift: float            # max raw |det P - 1| per unit length of edge
    coupled: tuple = ()         # further matrices transported with the frame; () there


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


def _rk4(states, slopes, points, passive):
    """Classical RK4 for a (count, 4, edges) array of coupled batches from
    `states` (its own to overwrite) over an edge's sample points
    0 .. points - 1, a substep per two; slopes(i, stages, out) writes every
    state's slope at sample point i, given the stage values there, into out.
    No slope reads the last `passive` states, so stages holds only the
    others': passive stage values are never formed.  Each slope joins the sum
    once the next stages are formed: p + k1/2, p + k2/2, p + k3, then
    k1 + 2 k2 + 2 k3 + k4, times 1/6, plus p.  Returns the last point's states."""
    active = slice(len(states) - passive)
    stage, k, acc = np.empty_like(states[active]), np.empty_like(states), np.empty_like(states)
    for i in range(0, points - 1, 2):
        slopes(i, states[active], acc)              # k1 starts the sum
        for j in (1, 2, 3):
            if j == 3:
                np.add(states[active], k[active], out=stage)
            else:
                np.multiply(0.5, (acc if j == 1 else k)[active], out=stage)
                stage += states[active]
            if j > 1:                               # 2 k2 and 2 k3 join the sum
                acc += np.multiply(2.0, k, out=k)
            slopes(i + (j + 1) // 2, stage, k)
        acc += k
        acc *= 1.0 / 6.0
        acc += states
        states, acc = acc, states
    return states


# Edge problems: a frame equation plus what rides on it, or a quadrature,
# from state0 at the base node.  local(xi, delta) solves one on a batch of
# edges, given the coefficient at every sample point (entries, points, edges;
# its own to overwrite) and each edge's RK4 substep, and returns the local
# solutions and the raw determinants of its propagators (none for a
# quadrature); step(state, local) composes one edge into the state.  A frame
# problem states only its start, its `propagators` (from I, divided by
# sqrt(det); the walk checks the first against EPS_DET), its `passive`
# integrals (from 0, read by no slope), the `scale` of its samples (times
# delta), slopes(xi) over a block's scaled samples, and its step;
# _FrameProblem.local does the rest, and joined(states) is the local solution.

class _FrameProblem:
    passive = 0

    def local(self, xi, delta):
        xi *= self.scale * delta
        start = np.zeros((self.propagators + self.passive, 4, len(delta)), complex)
        start[:self.propagators, ::3] = 1.0         # entries 00 and 11
        states = _rk4(start, self.slopes(xi), xi.shape[1], self.passive)
        dets = _det(states[:self.propagators].swapaxes(0, 1))
        states[:self.propagators] /= np.sqrt(dets)[:, None]
        return self.joined(states), dets

    def joined(self, states):
        return states.reshape(-1, states.shape[2])


@dataclass
class FrameEquation(_FrameProblem):
    """dPsi = -m xi Psi (LEFT) or dPsi = -m Psi xi (RIGHT), from I."""

    coeff: Callable
    m: float
    side: FrameSide = FrameSide.LEFT
    state0 = IDENTITY2.reshape(4)
    propagators = 1
    scale = property(lambda self: -self.m)

    def slopes(self, xi):
        if self.side is FrameSide.LEFT:
            return lambda i, st, out: _mul(xi[:, i], st[0], out=out[0])
        return lambda i, st, out: _mul(st[0], xi[:, i], out=out[0])

    def step(self, state, p):
        return _mul(p, state) if self.side is FrameSide.LEFT else _mul(state, p)


@dataclass
class FrameWithMovedIntegral(_FrameProblem):
    """The LEFT frame dPsi = -m xi Psi from I and M, the integral of
    Psi^{-1} dPsi = -m Psi^{-1} xi Psi dz from 0.  Per edge, Q sums S^{-1} dS
    RK4-weighted over the propagator's stages S; M grows by Psi^{-1} Q Psi."""

    coeff: Callable
    m: float
    state0 = np.concatenate((IDENTITY2.reshape(4), np.zeros(4)))
    propagators, passive = 1, 1                 # P, then Q
    scale = property(lambda self: -self.m)

    def slopes(self, xi):
        def slopes(i, st, out):
            _mul(xi[:, i], st[0], out=out[0])
            _mul(_inv(st[0]), out[0], out=out[1])
        return slopes

    def step(self, state, local):
        psi, moved = state[:4], state[4:]
        return np.concatenate((_mul(local[:4], psi),
                               moved + _mul(_mul(_inv(psi), local[4:]), psi)))


@dataclass
class IterationLawFrames(_FrameProblem):
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
    propagators = 3                             # P1, P2, P3
    scale = 1.0                                 # t and t + s enter the slopes

    def slopes(self, xi):
        xi_ts = xi * (self.t + self.s)
        moved = np.empty((4, xi.shape[2]), complex)

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
        return slopes

    def joined(self, states):
        p1, p2, p3 = states
        return np.concatenate((_mul(p2, p1), p3))

    def step(self, state, local):
        return np.concatenate((_mul(state[:4], local[:4]), _mul(state[4:], local[4:])))


@dataclass
class _Quadrature:
    """dy = f dz from state0.  f does not depend on y, so RK4 is Simpson's
    rule on each substep's end and mid points: an edge adds delta (w . f),
    w = (1, 4, 2, 4, 1) / 6 over its 5 sample points.  No propagator, so no
    determinants."""

    coeff: Callable
    state0: np.ndarray
    substeps = 2                                # per edge, two Simpson intervals each

    def local(self, f, delta):
        # point by point: numpy's sum goes pairwise for a one-edge block
        out = f[:, 0] * (1.0 / 6.0)
        for j, w in enumerate((4.0, 2.0, 4.0, 1.0), 1):
            out += f[:, j] * (w / 6.0)
        return out * delta, np.empty((0, delta.size))

    def step(self, state, local):
        return state + local


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
    rounding of a node, or 1e-3 from one, more than 1e-6; EPS_DET (1e-8)
    lies between.
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


def integrate_closed_form(density, grid, *, mask=None):
    """Integrate a closed 1-form density along row-first staircase paths.

    density is a callable z -> values (any tail shape, NaN marking
    singular points).  Returns (field, valid): field[iv, iu] = the integral
    of density dz from the base node to node (iv, iu), composite Simpson
    over 4 intervals per edge; nodes that cannot be reached through
    unmasked, finite samples are invalid and NaN.
    """
    with np.errstate(all="ignore"):     # the base node may be singular, as any node
        tail = np.shape(density(np.array([grid.base_z])))[1:]
    problem = _Quadrature(density, np.zeros(tail, dtype=complex).ravel())
    out, valid, _ = _walk_staircases(grid, problem, mask, PathOrder.ROW_FIRST, problem.substeps)
    return out.reshape(grid.shape + tail), valid


def solve_psi(xi, m, grid, *, side=FrameSide.LEFT, order=PathOrder.ROW_FIRST,
              substeps=4) -> FrameField:
    """Integrate the frame equation for an XiField xi from I at the base node.

    xi.fn must return a new array per call (the walk may scale it in place),
    and only the nodes of xi.mask are usable; the equation side is
    dPsi = -m xi Psi (LEFT) or dPsi = -m Psi xi (RIGHT).  m = 0 returns
    the constant frame I.
    """
    return solve_path_system(grid, FrameEquation(xi.fn, m, side), mask=xi.mask,
                             order=order, substeps=substeps)


def iteration_law_defect(xi, t, s, grid):
    """Defect of composing trivializing gauges: F^t_s F_t against F_{t+s}.

    F_t solves dF = t F xi for an XiField xi; the second-stage gauge F^t_s
    solves dF = s F (F_t xi F_t^{-1}) coupled to the first; their product
    G = F^t_s F_t is walked against the directly solved F_{t+s}
    (IterationLawFrames).  G F_{t+s}^{-1}, formed as G adj(F_{t+s}) since
    F_{t+s} has det 1 to rounding, should be a constant matrix over the
    grid; returns its maximum Frobenius distance from the base-node value.
    """
    frames = solve_path_system(grid, IterationLawFrames(xi.fn, t, s), mask=xi.mask)
    g, f_ts = (np.moveaxis(f.reshape(f.shape[:2] + (4,)), -1, 0)
               for f in (frames.values,) + frames.coupled)
    with np.errstate(all="ignore"):
        prod = _mul(g, _adj(f_ts))
    r0, c0 = grid.base_index
    prod -= prod[:, r0, c0, None, None]
    return _max_frobenius(np.moveaxis(prod, 0, -1), frames.valid)


def path_independence_check(xi, m, grid):
    """Max Frobenius deviation between row-first and column-first transport
    of an XiField xi."""
    a = solve_psi(xi, m, grid, order=PathOrder.ROW_FIRST)
    b = solve_psi(xi, m, grid, order=PathOrder.COLUMN_FIRST)
    return _max_frobenius((a.values - b.values).reshape(a.valid.shape + (4,)),
                          a.valid & b.valid)
