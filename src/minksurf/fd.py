"""Central finite differences on gridded fields with validity tracking.

Fields are arrays shaped (nv, nu) + tail; axis 0 runs along v (imaginary
direction), axis 1 along u; derivatives keep the input's memory layout.
Derivatives use 4th-order 5-point central stencils at the grid step (the
2-node ring around boundary and masked nodes carries no values); nodes
whose stencil touches an invalid node are reported invalid rather than
falling back to one-sided differences.  The 4th-order stencils are exact
on the cubic position fields the polynomial data produce, which is what
the tight mean-curvature gates rely on.
"""

from __future__ import annotations

import numpy as np

from .domain import dilate_mask

STENCIL_RADIUS = 2


def _stencil(field, axis):
    """(out, d, taps): out is like field with a NaN rim along axis, d its interior,
    taps[k] the field shifted by k - 2 nodes; the stencils fill d in place."""
    f = np.asarray(field)
    f = f if f.dtype.kind == "c" else np.asarray(f, dtype=float)
    out = np.empty_like(f)
    o, f = out.swapaxes(0, axis), f.swapaxes(0, axis)
    o[:2] = o[-2:] = np.nan
    return out, o[2:-2], (f[:-4], f[1:-3], f[2:-2], f[3:-1], f[4:])


def central_diff(field, step, axis):
    """4th-order central first derivative along axis (0=v, 1=u); rim is NaN."""
    out, d, (f0, f1, _f2, f3, f4) = _stencil(field, axis)
    # (f0 - 8 f1 + 8 f3 - f4) / (12 step)
    np.subtract(f0, np.multiply(8.0, f1, out=d), out=d)
    d += 8.0 * f3
    d -= f4
    d /= 12.0 * step
    return out


def second_diff(field, step, axis):
    """4th-order central second derivative along axis; rim is NaN."""
    out, d, (f0, f1, f2, f3, f4) = _stencil(field, axis)
    # (-f0 + 16 f1 - 30 f2 + 16 f3 - f4) / (12 step^2)
    np.negative(f0, out=d)
    d += (t := np.multiply(16.0, f1))
    d -= np.multiply(30.0, f2, out=t)
    d += np.multiply(16.0, f3, out=t)
    d -= f4
    d /= 12.0 * step ** 2
    return out


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
