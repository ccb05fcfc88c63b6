import numpy as np
import pytest

import minksurf.fd as fd
from minksurf.fd import STENCIL_RADIUS, stencil_valid
from reference import whole_array_central_diff, whole_array_second_diff


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


# ---------------------------------------------------------------------------
# flat-run stencils against the whole-array reference, bit for bit

STENCILS = ((fd.central_diff, whole_array_central_diff),
            (fd.second_diff, whole_array_second_diff))


def _values(rng, shape, kind):
    if kind == "int":
        return rng.integers(-1000, 1000, size=shape)
    if kind == "complex":
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return rng.normal(size=shape)


def _laid_out(a, layout):
    """a's values in another memory layout."""
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "tail-first":      # e.g. (4, nv, nu) storage seen as (nv, nu, 4)
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, (0, 1), (-2, -1))),
                           (-2, -1), (0, 1))
    if layout == "strided":
        wide = np.zeros(a.shape[:1] + (2 * a.shape[1],) + a.shape[2:], dtype=a.dtype)
        wide[:, ::2] = a
        return wide[:, ::2]
    if layout == "reversed":
        return np.ascontiguousarray(a[::-1])[::-1]
    return np.ascontiguousarray(a)


@pytest.mark.parametrize("layout", ("C", "F", "tail-first", "strided", "reversed"))
@pytest.mark.parametrize("kind", ("real", "int", "complex"))
@pytest.mark.parametrize("tail", ((), (4,), (2, 2)))
def test_flat_run_stencils_match_whole_array_reference(layout, kind, tail):
    rng = np.random.default_rng(11)
    for shape in ((4, 7), (5, 7), (7, 4), (7, 5), (13, 11)):
        a = _laid_out(_values(rng, shape + tail, kind), layout)
        for axis in (0, 1):
            for flat, whole in STENCILS:
                got, want = flat(a, 0.05, axis), whole(a, 0.05, axis)
                assert got.dtype == want.dtype and got.strides == want.strides
                assert got.tobytes() == want.tobytes(), (shape, axis, flat.__name__)
