import math

import numpy as np
import pytest

from minksurf.domain import DomainGrid, sample_data
from minksurf.forms import build_xi
from minksurf.integrate import (FrameSide, FrameWithMovedIntegral, IterationLawFrames,
                                PathOrder, integrate_closed_form, iteration_law_defect,
                                path_independence_check, solve_path_system, solve_psi)
from reference import (exact_frame, inv2, mobius_data, mobius_pole, plaquette_residuals,
                       vec_density_from_matrix)


def test_constant_density_integrates_linearly():
    g = DomainGrid.square(1.0, 11)
    c = 2.0 - 0.5j
    fld, ok = integrate_closed_form(lambda z: np.full_like(z, c), g)
    assert ok.all()
    assert np.max(np.abs(fld - c * g.zs())) < 1e-13


def test_linear_density_exact():
    g = DomainGrid.square(1.0, 41)
    fld, ok = integrate_closed_form(lambda z: z, g)
    iv, iu = g.nearest_index(1 + 1j)
    assert abs(fld[iv, iu] - (1 + 1j) ** 2 / 2) <= 1e-10


def test_base_value_respected():
    g = DomainGrid.square(1.0, 11)
    base = np.array([1.0 + 0j, -2.0 + 0j])
    fld, ok = integrate_closed_form(lambda z: np.stack([z, z * z], axis=-1),
                                    g, base_value=base)
    iv, iu = g.base_index
    assert np.allclose(fld[iv, iu], base)


def test_quadrature_convergence_on_entire_density():
    errs = []
    for n in (11, 21, 41):
        g = DomainGrid.square(1.0, n)
        fld, _ok = integrate_closed_form(np.exp, g)
        expect = np.exp(g.zs()) - 1.0
        errs.append(np.max(np.abs(fld - expect)))
    slope = math.log(errs[0] / errs[2]) / math.log(4.0)
    assert slope >= 3.5


def test_plaquette_residuals_bounded_by_h4():
    for n, half in ((11, 1.0), (21, 1.0)):
        g = DomainGrid.square(half, n)
        loops = plaquette_residuals(np.exp, g)
        h = g.du
        assert np.max(np.abs(loops)) <= 1.0 * h ** 4


def test_mask_blocks_paths():
    g = DomainGrid.square(1.0, 11)
    mask = np.ones(g.shape, dtype=bool)
    mask[7, :] = False  # wall above the base row
    fld, ok = integrate_closed_form(lambda z: np.ones_like(z), g, mask=mask)
    assert not ok[7:, :].any()
    assert ok[:7, :].all()
    assert np.isnan(fld[8, 3])


def test_singular_edge_blocks_paths():
    # every node is finite; a NaN at the midpoint of an edge cuts the paths
    # through that edge, on both sides of the base and along rows and columns
    g = DomainGrid.square(1.0, 5)       # nodes at -1, -0.5, 0, 0.5, 1; base 0
    poles = np.array([0.25, -0.75, -0.5 + 0.25j, -0.75j])

    def density(z):
        near = np.abs(np.asarray(z)[..., None] - poles).min(axis=-1) < 1e-12
        return np.where(near, np.nan, 1.0 + 0j)

    fld, ok = integrate_closed_form(density, g)
    want = np.zeros(g.shape, dtype=bool)
    want[:3, 1] = True                  # rows of im -1 .. 0 in the column re = -0.5
    want[1:, 2] = True                  # rows of im -0.5 .. 1 in the base column
    assert np.array_equal(ok, want)
    assert np.isnan(fld[~ok]).all()
    assert np.max(np.abs(fld[ok] - g.zs()[ok])) <= 1e-15    # density 1: the integral is z


def test_column_first_order_walks_transposed():
    g = DomainGrid.square(1.0, 11)
    mask = np.ones(g.shape, dtype=bool)
    mask[:, 7] = False  # wall right of the base column blocks COLUMN_FIRST
    _fld, ok = integrate_closed_form(lambda z: np.ones_like(z), g, mask=mask,
                                     order=PathOrder.COLUMN_FIRST)
    assert not ok[:, 7:].any()
    assert ok[:, :7].all()


def test_solve_psi_m_zero_is_constant():
    g = DomainGrid.square(1.0, 9)
    xi = build_xi(sample_data("z", "1", g))
    psi0 = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
    ff = solve_psi(xi, 0.0, g, psi0)
    assert np.max(np.abs(ff.values - psi0)) == 0.0


@pytest.mark.parametrize("psi0", [2.0 * np.eye(2), np.zeros((2, 2)),
                                  np.full((2, 2), np.nan), np.eye(3)])
def test_solve_psi_rejects_a_start_outside_sl2(psi0):
    # a start with det != 1 would keep its det at the base node only
    g = DomainGrid.square(1.0, 5)
    xi = build_xi(sample_data("z", "1", g))
    with pytest.raises(ValueError, match="determinant 1"):
        solve_psi(xi, 1.0, g, psi0)


def test_solve_psi_nilpotent_closed_form():
    g = DomainGrid.square(1.0, 11)
    data = sample_data("0", "1", g, eps_crit=0.0)
    ff = solve_psi(build_xi(data), 1.0, g)
    zs = g.zs()
    expect = np.zeros(g.shape + (2, 2), dtype=complex)
    expect[..., 0, 0] = 1.0
    expect[..., 1, 0] = zs
    expect[..., 1, 1] = 1.0
    assert np.max(np.abs(ff.values - expect)) < 1e-13
    assert ff.det_drift < 1e-14


def test_solve_psi_constant_phi_closed_form():
    g = DomainGrid.square(1.0, 11)
    c = 0.5 - 0.25j
    m = 1.5
    data = sample_data(f"0*z + (0.5 - 0.25*i)", "1", g, eps_crit=0.0)
    ff = solve_psi(build_xi(data), m, g)
    zs = g.zs()
    expect = np.zeros(g.shape + (2, 2), dtype=complex)
    expect[..., 0, 0] = 1.0 + m * zs * c
    expect[..., 0, 1] = -m * zs * c * c
    expect[..., 1, 0] = m * zs
    expect[..., 1, 1] = 1.0 - m * zs * c
    assert np.max(np.abs(ff.values - expect)) < 1e-12


def _ode_residual(ff, xi_fn, g, side):
    # central first difference along u equals the equation's right side;
    # the frames are solved with m = 1
    vals = ff.values
    du = g.du
    lhs = (vals[:, 2:, :, :] - vals[:, :-2, :, :]) / (2 * du)
    coeff = xi_fn(g.zs()[:, 1:-1])
    if side is FrameSide.LEFT:
        rhs = -coeff @ vals[:, 1:-1]
    else:
        rhs = -vals[:, 1:-1] @ coeff
    return np.max(np.abs(lhs - rhs))


def test_frame_side_is_honored():
    g = DomainGrid.square(1.0, 41)
    xi = build_xi(sample_data("z", "1", g))
    left = solve_psi(xi, 1.0, g, side=FrameSide.LEFT)
    right = solve_psi(xi, 1.0, g, side=FrameSide.RIGHT)
    assert np.max(np.abs(left.values - right.values)) > 1e-3
    h2 = g.du ** 2
    assert _ode_residual(left, xi.fn, g, FrameSide.LEFT) < 20 * h2
    assert _ode_residual(right, xi.fn, g, FrameSide.RIGHT) < 20 * h2
    # the wrong side leaves an O(1) residual
    assert _ode_residual(left, xi.fn, g, FrameSide.RIGHT) > 0.05


def test_det_drift_within_tolerance():
    g = DomainGrid.square(1.0, 41)
    xi = build_xi(sample_data("z", "1", g))
    ff = solve_psi(xi, 1.0, g)
    assert ff.det_drift <= 1e-9
    assert np.max(np.abs(ff.values[..., 0, 0] * ff.values[..., 1, 1]
                         - ff.values[..., 0, 1] * ff.values[..., 1, 0] - 1.0)) < 1e-12


def test_det_drift_with_strong_data():
    # coefficient entries up to 10 on the domain, step 0.05
    g = DomainGrid.square(1.0, 41)
    xi = build_xi(sample_data("z", "5", g))
    ff = solve_psi(xi, 1.0, g)
    assert ff.det_drift <= 1e-9


def test_path_independence_trivial_and_flat():
    g = DomainGrid.square(1.0, 21)
    xi = build_xi(sample_data("z", "1", g))
    assert path_independence_check(xi, 0.0, g) == 0.0
    dev = path_independence_check(xi, 1.0, g)
    assert dev <= 1e-7


def test_path_independence_41():
    g = DomainGrid.square(1.0, 41)
    xi = build_xi(sample_data("z", "1", g))
    assert path_independence_check(xi, 1.0, g) <= 1e-7


def test_rk4_global_order():
    # frame error against a substep-refined reference decreases at order 4
    errs = []
    g = DomainGrid.square(1.0, 9)
    xi = build_xi(sample_data("z", "1", g))
    ref = solve_psi(xi, 1.0, g, substeps=64).values
    for sub in (2, 4, 8):
        errs.append(np.max(np.abs(solve_psi(xi, 1.0, g, substeps=sub).values - ref)))
    order = math.log(errs[0] / errs[2]) / math.log(4.0)
    assert 3.5 <= order <= 4.5


def _exact_frame_error(n, m, a=None):
    """The walker's worst error against the exact frame (reference.exact_frame, or its
    conjugate by a for the Moebius image data) over both path orders, relative to
    max |Psi|; no node of the data or the frame is masked."""
    g = DomainGrid.square(1.0, n)
    data = sample_data(*(("z", "1") if a is None else mobius_data(a)), g)
    want = exact_frame(g.zs(), m, a)
    errors = []
    for order in PathOrder:
        frame = solve_psi(build_xi(data), m, g, order=order)
        assert data.mask.all() and frame.valid.all()
        errors.append(np.max(np.abs(frame.values - want)) / np.max(np.abs(want)))
    return max(errors)


# the 161^2 error measured on a 2-core x86-64 host (numpy 2.4.6): 16x per halving
@pytest.mark.parametrize("m,measured", [(1.0, 1.12e-12), (-0.5, 2.72e-13), (2.0, 5.22e-12)])
def test_frame_converges_to_the_exact_frame_at_order_4(m, measured):
    errors = [_exact_frame_error(n, m) for n in (41, 81, 161)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.8 <= math.log2(coarse / fine) <= 4.2
    assert errors[-1] <= 2 * measured


# phi' has a pole between the nodes, but the density and the frame stay entire;
# measured 4.50e-10 and 1.75e-12 at 0.31, 3.66e-10 and 1.42e-12 at 0.31 + 0.4i
@pytest.mark.parametrize("pole,measured", [(0.31, (4.50e-10, 1.75e-12)),
                                           (0.31 + 0.4j, (3.66e-10, 1.42e-12))])
def test_frame_of_pole_data_matches_its_exact_frame(pole, measured):
    errors = [_exact_frame_error(n, 1.0, mobius_pole(pole)) for n in (41, 161)]
    assert 3.8 <= math.log2(errors[0] / errors[1]) / 2 <= 4.2
    assert errors[0] <= 2 * measured[0] and errors[1] <= 2 * measured[1]


def test_iteration_law_defect():
    g = DomainGrid.square(1.0, 41)
    xi = build_xi(sample_data("z", "1", g))
    assert iteration_law_defect(xi, 0.5, 0.5, g) <= 1e-6
    assert iteration_law_defect(xi, 0.0, 0.0, g) <= 1e-12


def test_masked_region_blocks_frames():
    g = DomainGrid.square(1.0, 11, base=1 + 1j)
    data = sample_data("1/z", "1", g)
    xi = build_xi(data)
    ff = solve_psi(xi, 1.0, g)
    iv, iu = g.nearest_index(0j)
    assert not ff.valid[iv, iu]
    assert ff.valid[g.base_index]


def test_invalid_nodes_hold_nan_in_both_parts():
    # frames, coupled matrices and quadrature fields alike: .imag reads NaN too
    g = DomainGrid.square(1.0, 11, base=1 + 1j)
    xi = build_xi(sample_data("1/z", "1", g))
    frame = solve_psi(xi, 1.0, g)
    moved = solve_path_system(g, FrameWithMovedIntegral(xi.fn, 1.0), mask=xi.mask)
    fld, ok = integrate_closed_form(lambda z: np.ones_like(z), g, mask=xi.mask)
    for values, valid in ((frame.values, frame.valid), (moved.coupled[0], moved.valid),
                          (fld, ok)):
        assert not valid.all()
        assert np.isnan(values[~valid].real).all()
        assert np.isnan(values[~valid].imag).all()


def test_substeps_must_be_even():
    g = DomainGrid.square(1.0, 5)
    with pytest.raises(ValueError):
        integrate_closed_form(lambda z: z, g, substeps=3)


@pytest.mark.parametrize("substeps", [0, -2, 2.5, True, "4", None])
def test_transport_rejects_invalid_substeps(substeps):
    g = DomainGrid.square(1.0, 5)
    xi = build_xi(sample_data("z", "1", g))
    with pytest.raises(ValueError, match="substeps"):
        solve_psi(xi, 1.0, g, substeps=substeps)
    with pytest.raises(ValueError, match="substeps"):
        solve_path_system(g, IterationLawFrames(xi.fn, 0.5, 0.5), substeps=substeps)


def test_transport_accepts_any_integer_substeps():
    g = DomainGrid.square(1.0, 5)
    xi = build_xi(sample_data("z", "1", g))
    want = solve_psi(xi, 1.0, g, substeps=3).values
    assert np.array_equal(solve_psi(xi, 1.0, g, substeps=np.int64(3)).values, want)
    assert not np.array_equal(solve_psi(xi, 1.0, g, substeps=1).values, want)


def test_bits_do_not_depend_on_the_edge_block(monkeypatch):
    # every edge is solved on its own, so the number of edges per local
    # call moves no bit; with 7 the base row (22 edges) ends in a call with
    # one edge, and each column walk takes one row per call
    from minksurf import integrate
    from minksurf.minkowski import E0
    from minksurf.surfaces import make_affine_surface, uy_perturb
    g = DomainGrid.square(1.0, 23, base=1 + 1j)
    data = sample_data("1/z", "1", g)
    xi = build_xi(data)

    def states():
        frames = [solve_psi(xi, 1.0, g, side=side, order=order)
                  for side in FrameSide for order in PathOrder]
        uy = uy_perturb(data, 1.0, -1.0)
        law = solve_path_system(g, IterationLawFrames(xi.fn, 0.5, 0.25), mask=xi.mask)
        frames += [uy.aux["frame"], law]
        affine = make_affine_surface(data, E0)
        return ([f.values for f in frames] + list(law.coupled) + [uy.x, affine.x],
                [f.valid for f in frames], [f.det_drift for f in frames])

    want = states()
    assert not want[1][0].all()
    monkeypatch.setattr(integrate, "EDGE_BLOCK", 7)
    got = states()
    for a, b in zip(got[0], want[0]):
        assert np.array_equal(a, b, equal_nan=True)
    assert all(np.array_equal(a, b) for a, b in zip(got[1], want[1]))
    assert got[2] == want[2]


def test_iteration_law_survives_masked_data():
    g = DomainGrid.square(1.0, 11, base=1 + 1j)
    xi = build_xi(sample_data("1/z", "1", g))
    defect = iteration_law_defect(xi, 0.5, 0.5, g)
    assert np.isfinite(defect)


def test_coupled_integrals_transpose_consistently():
    # the same flat transport walked in either staircase order agrees
    from minksurf.surfaces import uy_perturb
    g = DomainGrid.square(1.0, 21)
    a = uy_perturb(sample_data("z", "1", g), 1.0, -1.0)
    b = uy_perturb(sample_data("z", "1", g), 1.0, -1.0, order=PathOrder.COLUMN_FIRST)
    sel = a.mask & b.mask
    assert sel.any()
    assert np.nanmax(np.abs(a.x - b.x)[sel]) < 1e-9


# ---------------------------------------------------------------------------
# transport pinned against a per-node reference: the coupled system stepped
# by RK4 one edge at a time, along the base row and then up and down every
# column, exactly as the staircase is defined.

def _det(a):
    return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]


def _staircase_reference(grid, deriv, states0, nframes, mask=None,
                         order=PathOrder.ROW_FIRST, substeps=4):
    """Reference: per-node RK4 of deriv(z, h, states) along the staircase.

    The first nframes states are frames, divided by sqrt(det) at every node
    after their raw |det - 1| per unit length was recorded (edges leaving a
    valid node only).  Returns (fields, valid, drifts); fields hold NaN at
    invalid nodes.
    """
    zs = grid.zs()
    ok = np.ones(grid.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    r0, c0 = grid.base_index
    if order is PathOrder.COLUMN_FIRST:
        zs, ok, (r0, c0) = zs.T, ok.T, (c0, r0)
    nr, nc = zs.shape
    states_at = {}
    valid = np.zeros((nr, nc), dtype=bool)
    drifts = [0.0] * nframes

    def edge(src, dst, states, live):
        z0, z1 = zs[src], zs[dst]
        h = (z1 - z0) / substeps
        for k in range(substeps):
            za = z0 + (z1 - z0) * (k / substeps)
            zm = z0 + (z1 - z0) * ((k + 0.5) / substeps)
            zb = z0 + (z1 - z0) * ((k + 1.0) / substeps)
            k1 = deriv(za, h, states)
            k2 = deriv(zm, h, [s + 0.5 * d for s, d in zip(states, k1)])
            k3 = deriv(zm, h, [s + 0.5 * d for s, d in zip(states, k2)])
            k4 = deriv(zb, h, [s + d for s, d in zip(states, k3)])
            states = [s + (a + 2.0 * b + 2.0 * c + d) / 6.0
                      for s, a, b, c, d in zip(states, k1, k2, k3, k4)]
        for j in range(nframes):
            det = _det(states[j])
            if live and np.isfinite(det):
                drifts[j] = max(drifts[j], abs(det - 1.0) / abs(z1 - z0))
            states[j] = states[j] / np.sqrt(det)
        live = live and ok[dst] and all(np.isfinite(s).all() for s in states)
        states_at[dst] = states
        valid[dst] = live
        return states, live

    with np.errstate(all="ignore"):
        states_at[r0, c0] = [np.asarray(s, dtype=complex) for s in states0]
        valid[r0, c0] = ok[r0, c0]
        for cols in (range(c0 + 1, nc), range(c0 - 1, -1, -1)):
            states, live, prev = states_at[r0, c0], valid[r0, c0], c0
            for c in cols:
                states, live = edge((r0, prev), (r0, c), states, live)
                prev = c
        for c in range(nc):
            for rows in (range(r0 + 1, nr), range(r0 - 1, -1, -1)):
                states, live, prev = states_at[r0, c], valid[r0, c], r0
                for r in rows:
                    states, live = edge((prev, c), (r, c), states, live)
                    prev = r

    fields = []
    for j, s0 in enumerate(states0):
        fld = np.full((nr, nc) + np.shape(s0), np.nan, dtype=complex)
        for (r, c), states in states_at.items():
            if valid[r, c]:
                fld[r, c] = states[j]
        fields.append(fld.swapaxes(0, 1) if order is PathOrder.COLUMN_FIRST else fld)
    return fields, valid.T if order is PathOrder.COLUMN_FIRST else valid, drifts


def _frame_deriv(fn, m, side):
    def deriv(z, h, states):
        c = fn(np.asarray(z))
        d = c @ states[0] if side is FrameSide.LEFT else states[0] @ c
        return [-m * h * d]
    return deriv


REF_CASES = {
    "plain": (lambda: DomainGrid.square(1.0, 11), "z", "1 + 0.1*z^2"),
    "masked-pole": (lambda: DomainGrid.square(1.0, 11, base=1 + 1j), "1/z", "1"),
    "nv-ne-nu": (lambda: DomainGrid(-1.0, 1.0, -0.6, 0.6, 9, 6, (4, 2)), "z", "1 + 0.1*z^2"),
}
PSI0 = np.array([[2.0, 1.0 + 0.5j], [1.0, 1.0 + 0.25j]], dtype=complex)
PSI0 = PSI0 / np.sqrt(_det(PSI0))


def _assert_matches(got, want, valid_got, valid_want, tol=1e-12):
    # tol is relative to the field's largest entry (1/z data reaches ~15)
    assert np.array_equal(valid_got, valid_want)
    assert valid_got.any()
    assert np.array_equal(np.isnan(got), np.isnan(want))
    scale = max(1.0, float(np.max(np.abs(want[valid_want]))))
    assert np.max(np.abs(got[valid_got] - want[valid_want])) <= tol * scale


@pytest.mark.parametrize("case", sorted(REF_CASES))
@pytest.mark.parametrize("side", list(FrameSide))
@pytest.mark.parametrize("order", list(PathOrder))
@pytest.mark.parametrize("identity_start", [True, False])
def test_solve_psi_matches_per_node_reference(case, side, order, identity_start):
    make_grid, phi, omega = REF_CASES[case]
    g = make_grid()
    xi = build_xi(sample_data(phi, omega, g))
    psi0 = np.eye(2, dtype=complex) if identity_start else PSI0
    ff = solve_psi(xi, 1.0, g, None if identity_start else psi0, side=side, order=order)
    (want,), valid, (drift,) = _staircase_reference(
        g, _frame_deriv(xi.fn, 1.0, side), [psi0], 1, mask=xi.mask, order=order)
    _assert_matches(ff.values, want, ff.valid, valid)
    assert abs(ff.det_drift - drift) <= 1e-12


@pytest.mark.parametrize("case", sorted(REF_CASES))
@pytest.mark.parametrize("order", list(PathOrder))
def test_uy_perturb_matches_per_node_reference(case, order):
    from minksurf.surfaces import uy_perturb
    make_grid, phi, omega = REF_CASES[case]
    g = make_grid()
    data = sample_data(phi, omega, g)
    xi = build_xi(data)
    m, mu = 1.0, -1.0
    c_mat = np.diag([1.0, -mu]).astype(complex)

    def deriv(z, h, states):
        c = xi.fn(np.asarray(z))
        psi = states[0]
        dens = -m * vec_density_from_matrix(inv2(psi) @ c @ psi @ c_mat)
        return [-m * h * (c @ psi), dens * h]

    surface = uy_perturb(data, m, mu, order=order)
    frame = surface.aux["frame"]
    (psi, integral), valid, _ = _staircase_reference(
        g, deriv, [np.eye(2), np.zeros(4)], 1, mask=xi.mask, order=order)
    _assert_matches(frame.values, psi, frame.valid, valid)
    x = np.where(np.isfinite(integral.real), integral.real, np.nan)
    _assert_matches(surface.x, x, frame.valid, valid)


@pytest.mark.parametrize("case", sorted(REF_CASES))
def test_iteration_law_matches_per_node_reference(case):
    make_grid, phi, omega = REF_CASES[case]
    g = make_grid()
    xi = build_xi(sample_data(phi, omega, g))
    t, s = 0.5, 0.25

    def deriv(z, h, states):
        c = xi.fn(np.asarray(z))
        moved = states[0] @ c @ inv2(states[0])
        return [t * h * (states[0] @ c), s * h * (states[1] @ moved),
                (t + s) * h * (states[2] @ c)]

    (f_t, f_st, f_ts), valid, drifts = _staircase_reference(
        g, deriv, [np.eye(2)] * 3, 3, mask=xi.mask)
    frames = solve_path_system(g, IterationLawFrames(xi.fn, t, s), mask=xi.mask)
    for got, want in zip((frames.values,) + frames.coupled, (f_t, f_st, f_ts)):
        _assert_matches(got, want, frames.valid, valid)
    assert abs(frames.det_drift - max(drifts)) <= 1e-12
    prod = (f_st @ f_t) @ inv2(f_ts)
    fro = np.sqrt(np.sum(np.abs(prod - prod[g.base_index]) ** 2, axis=(-2, -1)))
    want = float(np.max(fro[valid]))
    assert abs(iteration_law_defect(xi, t, s, g) - want) <= 1e-12
