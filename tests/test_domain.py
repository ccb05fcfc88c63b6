import numpy as np
import pytest

from minksurf.domain import (BasePointMaskedError, DomainGrid, dilate_mask,
                             grid_line_interpolant, sample_data)
from reference import lagrange_barycentric


def test_grid_validation():
    with pytest.raises(ValueError):
        DomainGrid(1.0, -1.0, -1.0, 1.0, 5, 5, (0, 0))
    with pytest.raises(ValueError):
        DomainGrid(-1.0, 1.0, -1.0, 1.0, 1, 5, (0, 0))
    with pytest.raises(ValueError):
        DomainGrid(-1.0, 1.0, -1.0, 1.0, 5, 5, (5, 0))
    with pytest.raises(ValueError, match="finite"):
        DomainGrid(-1.0, float("inf"), -1.0, 1.0, 5, 5, (0, 0))


@pytest.mark.parametrize("nu, nv", [(10 ** 400, 5), (5, 10 ** 400)], ids=["nu", "nv"])
def test_node_counts_past_float_range_are_value_errors(nu, nv):
    # the step width / (n - 1) cannot be formed in floating point
    with pytest.raises(ValueError, match="step"):
        DomainGrid(-1.0, 1.0, -1.0, 1.0, nu, nv, (0, 0))


def test_grid_coordinates():
    g = DomainGrid.square(1.0, 5)
    zs = g.zs()
    assert zs.shape == (5, 5)
    assert zs[0, 0] == -1 - 1j
    assert zs[4, 4] == 1 + 1j
    assert g.base_index == (2, 2)
    assert g.base_z == 0j
    assert g.nearest_index(0.45 + 0.55j) == (3, 3)


def test_sample_data_all_valid():
    g = DomainGrid.square(1.0, 11)
    data = sample_data("z", "1", g)
    assert data.mask.all()
    assert np.allclose(data.phi, g.zs())


def test_pole_masking_with_ring():
    g = DomainGrid.square(1.0, 11, base=1 + 1j)  # base away from the pole
    data = sample_data("1/z", "1", g)
    iv, iu = g.nearest_index(0j)
    assert not data.mask[iv, iu]
    for div in (-1, 0, 1):
        for diu in (-1, 0, 1):
            assert not data.mask[iv + div, iu + diu]


def test_critical_point_masked():
    g = DomainGrid.square(1.0, 11, base=1 + 1j)
    data = sample_data("z^2", "1", g)
    iv, iu = g.nearest_index(0j)
    assert not data.mask[iv, iu]


def test_masked_base_raises():
    g = DomainGrid.square(1.0, 11)  # base at the pole of 1/z
    with pytest.raises(BasePointMaskedError):
        sample_data("1/z", "1", g)


def test_mask_monotone_under_refinement():
    # the cells incident to the pole stay masked at every resolution
    for n in (11, 21, 41):
        g = DomainGrid.square(1.0, n, base=1 + 1j)
        data = sample_data("1/z", "1", g)
        iv, iu = g.nearest_index(0j)
        assert not data.mask[iv, iu]
        assert not data.mask[iv + 1, iu]
        assert not data.mask[iv, iu + 1]
        assert not data.mask[iv - 1, iu - 1]


def test_dilate_mask():
    m = np.zeros((5, 5), dtype=bool)
    m[2, 2] = True
    grown = dilate_mask(m)
    assert grown[1:4, 1:4].all()
    assert grown.sum() == 9


def test_interpolant_reproduces_polynomials_on_lines():
    g = DomainGrid.square(1.0, 21)
    zs = g.zs()
    values = zs ** 5 - 2 * zs ** 2 + 1j
    f = grid_line_interpolant(values, g)
    # off-node points on a horizontal grid line
    line_v = zs[7, 0].imag
    q = np.array([-0.63 + 1j * line_v, 0.241 + 1j * line_v])
    expect = q ** 5 - 2 * q ** 2 + 1j
    assert np.max(np.abs(f(q) - expect)) < 1e-12
    # and on a vertical line
    line_u = zs[0, 13].real
    q = np.array([line_u + 0.33j, line_u - 0.847j])
    expect = q ** 5 - 2 * q ** 2 + 1j
    assert np.max(np.abs(f(q) - expect)) < 1e-12


def test_interpolant_order_for_analytic_data():
    errs = []
    for n in (11, 21, 41):
        g = DomainGrid.square(1.0, n)
        zs = g.zs()
        f = grid_line_interpolant(np.exp(zs), g)
        line_v = zs[n // 3, 0].imag
        q = np.linspace(-0.9, 0.9, 17) + 1j * line_v
        errs.append(np.max(np.abs(f(q) - np.exp(q))))
    assert errs[0] > errs[1] > errs[2]
    slope = np.log(errs[0] / errs[2]) / np.log(4.0)
    assert slope > 5.0  # six-point stencil


def test_interpolant_masks_to_nan():
    g = DomainGrid.square(1.0, 11)
    zs = g.zs()
    mask = np.ones(g.shape, dtype=bool)
    mask[5, 5] = False
    f = grid_line_interpolant(zs, g, mask=mask)
    line_v = zs[5, 0].imag
    assert np.isnan(f(np.array([0.05 + 1j * line_v]))).all()
    far = f(np.array([zs[0, 0] + 0.05]))
    assert np.isfinite(far).all()


def test_interpolant_rejects_off_line_queries():
    g = DomainGrid.square(1.0, 11)
    f = grid_line_interpolant(g.zs(), g)
    with pytest.raises(ValueError):
        f(np.array([0.123 + 0.456j]))


@pytest.mark.parametrize("seed", range(4))
def test_interpolant_matches_barycentric_reference(seed):
    # lines of 2 to 7 nodes with masked nodes; unit steps, so the first ten
    # queries land exactly on nodes (which the interpolant reads along rows)
    rng = np.random.default_rng(seed)
    hit = np.arange(40) < 10
    for nu in range(2, 8):
        for nv in range(2, 8):
            g = DomainGrid(0.0, nu - 1.0, 0.0, nv - 1.0, nu, nv, (0, 0))
            values = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
            mask = rng.random(g.shape) > 0.1
            work = np.where(mask, values, np.nan)
            rows, cols = rng.integers(0, nv, 40), rng.integers(0, nu, 40)
            t_row = np.where(hit, rng.integers(0, nu, 40), rng.uniform(0, nu - 1, 40))
            t_col = rng.uniform(0, nv - 1, 40)
            got = grid_line_interpolant(values, g, mask=mask)(
                np.concatenate([t_row + 1j * rows, cols + 1j * t_col]))
            want = np.concatenate([lagrange_barycentric(work[rows], t_row),
                                   lagrange_barycentric(work.T[cols], t_col)])
            assert np.array_equal(np.isnan(got), np.isnan(want))
            fin = ~np.isnan(want)
            assert np.all(np.abs(got - want)[fin] <= 1e-13 * np.abs(values).max())
            assert np.array_equal(got[:40][hit], want[:40][hit], equal_nan=True)
