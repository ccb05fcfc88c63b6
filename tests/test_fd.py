import numpy as np

from minksurf.fd import STENCIL_RADIUS, stencil_valid


def _chebyshev_window_reference(ok, r):
    # a node is valid when its whole (2r+1)^2 window lies on the grid and is ok
    nv, nu = ok.shape
    out = np.zeros_like(ok)
    for iv in range(r, nv - r):
        for iu in range(r, nu - r):
            out[iv, iu] = ok[iv - r:iv + r + 1, iu - r:iu + r + 1].all()
    return out


def test_stencil_valid_matches_chebyshev_window():
    rng = np.random.default_rng(5)
    masks = [np.ones(shape, dtype=bool) for shape in ((2, 2), (5, 5), (9, 7))]
    for _ in range(300):
        nv, nu = rng.integers(2, 16, size=2)
        masks.append(rng.random((nv, nu)) < rng.uniform(0.6, 1.0))
    for ok in masks:
        got = stencil_valid(ok)
        assert got.dtype == bool
        assert np.array_equal(got, _chebyshev_window_reference(ok, STENCIL_RADIUS))
