"""Central finite differences on gridded fields with validity tracking.

Fields are arrays shaped (nv, nu) + tail; axis 0 runs along v (imaginary
direction), axis 1 along u; derivatives keep the input's memory layout.
Derivatives use 4th-order 5-point central stencils at the grid step (the
2-node ring around boundary and masked nodes carries no values); nodes
whose stencil touches an invalid node are reported invalid rather than
falling back to one-sided differences.  The 4th-order stencils are exact
on the cubic position fields the polynomial data produce, which is what
the tight mean-curvature gates rely on.

A stencil runs along the flat memory run of its field: a field contiguous
in some axis order is one run, and a step of k nodes along the axis is k
times that axis's stride in elements.  Every interior value therefore reads
the same taps with the same operations in the same order as a whole-array
shift would, so its bits do not depend on the input's layout.  Values whose
taps wrap into the next line of the run lie in the 2-node rim, which is set
to NaN afterwards.  A field that is not contiguous in any axis order (a
strided or reversed view) is copied first.
"""

from __future__ import annotations

import numpy as np

from .domain import dilate_mask

STENCIL_RADIUS = 2


def _run(f):
    """(f, run, order): f contiguous in the axis order `order` (copied when it is
    not) and run its elements as one 1-D view in memory order."""
    order = np.argsort([-s for s in f.strides], kind="stable")
    if not f.transpose(order).flags.c_contiguous:
        f = f.copy(order="K")
        order = np.argsort([-s for s in f.strides], kind="stable")
    return f, f.transpose(order).reshape(-1), order


def _stencils(field, axis, kernel):
    """Apply kernel(d, taps) along axis: d the output run less its first and last
    two steps, taps[k] the input run shifted by k - 2 nodes; the rim along axis is NaN."""
    f = np.asarray(field)
    f = f if f.dtype.kind == "c" else np.asarray(f, dtype=float)
    f, run, order = _run(f)
    out_run = np.empty_like(run)
    out = out_run.reshape(f.transpose(order).shape).transpose(np.argsort(order))
    if f.shape[axis] > 2 * STENCIL_RADIUS:
        s, n = f.strides[axis] // f.itemsize, run.size
        kernel(out_run[2 * s:n - 2 * s], [run[k * s:n - (4 - k) * s] for k in range(5)])
    o = out.swapaxes(0, axis)
    o[:2] = o[-2:] = np.nan
    return out


def central_diff(field, step, axis):
    """4th-order central first derivative along axis (0=v, 1=u); rim is NaN."""
    def kernel(d, f):
        # (f0 - 8 f1 + 8 f3 - f4) / (12 step)
        np.subtract(f[0], np.multiply(8.0, f[1], out=d), out=d)
        d += 8.0 * f[3]
        d -= f[4]
        d /= 12.0 * step
    return _stencils(field, axis, kernel)


def second_diff(field, step, axis):
    """4th-order central second derivative along axis; rim is NaN."""
    def kernel(d, f):
        # (-f0 + 16 f1 - 30 f2 + 16 f3 - f4) / (12 step^2)
        np.negative(f[0], out=d)
        d += (t := np.multiply(16.0, f[1]))
        d -= np.multiply(30.0, f[2], out=t)
        d += np.multiply(16.0, f[3], out=t)
        d -= f[4]
        d /= 12.0 * step ** 2
    return _stencils(field, axis, kernel)


def mixed_diff(field, du, dv):
    """Mixed second derivative as composed 4th-order first derivatives."""
    return central_diff(central_diff(field, dv, 0), du, 1)


def stencil_valid(mask):
    """True where every node within Chebyshev distance STENCIL_RADIUS is valid.

    Grid-boundary nodes within STENCIL_RADIUS of the edge are invalid by
    construction (central stencils only).
    """
    r = STENCIL_RADIUS
    out = ~dilate_mask(~np.asarray(mask, dtype=bool), r)
    out[:r] = out[-r:] = False
    out[:, :r] = out[:, -r:] = False
    return out
