"""Central finite differences on gridded fields with validity tracking.

Fields are arrays shaped (nv, nu) + tail; axis 0 runs along v (imaginary
direction), axis 1 along u.  Derivatives use 4th-order 5-point central
stencils at the grid step (the 2-node ring around boundary and masked
nodes carries no values); nodes whose stencil touches an invalid node
are reported invalid rather than falling back to one-sided differences.
The 4th-order stencils are exact on the cubic position fields the
polynomial data produce, which is what the tight mean-curvature gates
rely on.
"""

from __future__ import annotations

import numpy as np

from .domain import dilate_mask

STENCIL_RADIUS = 2


def _work(field):
    f = np.asarray(field)
    return f if f.dtype.kind == "c" else np.asarray(f, dtype=float)


def central_diff(field, step, axis):
    """4th-order central first derivative along axis (0=v, 1=u); rim is NaN."""
    f = _work(field)
    out = np.full_like(f, np.nan)
    if axis == 0:
        out[2:-2, :] = (f[:-4, :] - 8.0 * f[1:-3, :] + 8.0 * f[3:-1, :]
                        - f[4:, :]) / (12.0 * step)
    else:
        out[:, 2:-2] = (f[:, :-4] - 8.0 * f[:, 1:-3] + 8.0 * f[:, 3:-1]
                        - f[:, 4:]) / (12.0 * step)
    return out


def second_diff(field, step, axis):
    """4th-order central second derivative along axis; rim is NaN."""
    f = _work(field)
    out = np.full_like(f, np.nan)
    if axis == 0:
        out[2:-2, :] = (-f[:-4, :] + 16.0 * f[1:-3, :] - 30.0 * f[2:-2, :]
                        + 16.0 * f[3:-1, :] - f[4:, :]) / (12.0 * step ** 2)
    else:
        out[:, 2:-2] = (-f[:, :-4] + 16.0 * f[:, 1:-3] - 30.0 * f[:, 2:-2]
                        + 16.0 * f[:, 3:-1] - f[:, 4:]) / (12.0 * step ** 2)
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
