"""Property tests: invariants the maths guarantees, on random inputs.

Examples are few, so tier-1 stays quick, and no example database is kept.
"""

from dataclasses import fields
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from minksurf.domain import DomainGrid, dilate_mask, sample_data
from minksurf.fd import central_diff, mixed_diff, second_diff
from minksurf.expr import FUNCTIONS, BinOp, Call, Expr, Pow, differentiate, parse_expr, print_expr
from minksurf.forms import build_xi, xi_hat_values
from minksurf.integrate import (FrameSide, IterationLawFrames, PathOrder, _inv, _mul, _rk4,
                                integrate_closed_form, solve_path_system, solve_psi)
from minksurf.minkowski import E0, E1, E3, enorm, herm_from_vec, ip31
from minksurf.surfaces import (BASE_X, GeometryKind, make_affine_surface, make_lw_bryant,
                               make_quadric_surface, uy_perturb)
from minksurf.verify import _duality, curvatures, intrinsic_curvature
from reference import (SingularPoint, curvatures_expression, dilate_mask_rings,
                       duality_expression, enorm_expression, eval_at, inv2,
                       ip31_expression, mobius_data, rk4_expression, vec_from_herm_unchecked)

# a fifth of the profile's examples: 20 locally, more under the ci profile (conftest.py)
FEW = settings(max_examples=settings.default.max_examples // 5, deadline=None, database=None)

entry = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def sl2_algebra(draw):
    """A trace-free 2x2 complex matrix with entries of modulus <= 1."""
    a, b, c = draw(entry), draw(entry), draw(entry)
    return np.array([[a, b], [c, -a]])


def _linear_coefficient(draw):
    """A linear sl(2,C) coefficient A + B z and a small grid with any base node."""
    a, b = draw(sl2_algebra()), draw(sl2_algebra())
    nu, nv = draw(st.integers(3, 9)), draw(st.integers(3, 9))
    base = (draw(st.integers(0, nv - 1)), draw(st.integers(0, nu - 1)))

    def coeff(z):
        return a + np.asarray(z)[..., None, None] * b

    return coeff, DomainGrid(-1.0, 1.0, -1.0, 1.0, nu, nv, base)


@st.composite
def transports(draw):
    """A linear sl(2,C) coefficient on a small grid, solved by solve_psi."""
    coeff, grid = _linear_coefficient(draw)
    kwargs = dict(side=draw(st.sampled_from(FrameSide)), order=draw(st.sampled_from(PathOrder)))
    m = draw(st.floats(-1.0, 1.0))
    return partial(solve_psi, coeff, m, grid, **kwargs)


@st.composite
def iteration_laws(draw):
    """A linear sl(2,C) coefficient on a small grid, its iteration law's two sides
    solved by solve_path_system."""
    coeff, grid = _linear_coefficient(draw)
    t, s = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    return partial(solve_path_system, grid, IterationLawFrames(coeff, t, s))


@FEW
@given(transports())
def test_transport_keeps_unit_determinant(solve):
    psi = solve().values
    det = psi[..., 0, 0] * psi[..., 1, 1] - psi[..., 0, 1] * psi[..., 1, 0]
    assert np.max(np.abs(det - 1.0)) <= 1e-12


@FEW
@given(transports(), st.lists(entry, min_size=4, max_size=4))
def test_transport_composes_with_the_start(solve, entries):
    # Psi[psi0 = G] = Psi[I] G (LEFT) and G Psi[I] (RIGHT) for G in SL(2,C)
    g = np.array(entries).reshape(2, 2)
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    assume(abs(det) > 0.1)
    g = g / np.sqrt(det)
    from_identity = solve()
    want = from_identity.values @ g if solve.keywords["side"] is FrameSide.LEFT \
        else g @ from_identity.values
    got = solve(g).values
    scale = np.max(np.abs(from_identity.values)) * np.max(np.abs(g))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@FEW
@given(st.lists(entry, min_size=4, max_size=4), st.integers(2, 9), st.integers(2, 9),
       st.data())
def test_quadrature_is_exact_on_cubics(coefs, nu, nv, data):
    # Simpson is exact on cubics, so every node, reached forwards or
    # backwards along either path order, holds the exact antiderivative
    base = (data.draw(st.integers(0, nv - 1)), data.draw(st.integers(0, nu - 1)))
    grid = DomainGrid(-1.0, 1.0, -1.0, 1.0, nu, nv, base)
    c = np.array(coefs)

    def antiderivative(z):
        return sum(ck * z ** (k + 1) / (k + 1) for k, ck in enumerate(c))

    zs = grid.zs()
    want = antiderivative(zs) - antiderivative(zs[base])
    scale = 1.0 + np.max(np.abs(want))
    for order in PathOrder:
        fld, ok = integrate_closed_form(lambda z: np.polyval(c[::-1], z), grid, order=order)
        assert ok.all()
        assert np.max(np.abs(fld - want)) <= 1e-12 * scale


numbers = st.one_of(st.integers(0, 1000).map(str),
                    st.floats(0.0, 1e6, allow_nan=False).map(repr),
                    st.sampled_from([".5", "1e-3", "2E4"]))
atoms = st.one_of(st.sampled_from(["z", "i", "pi", "e"]), numbers)


def _exponent(n):
    return str(n) if n >= 0 else f"(-{-n})"


def _grammar(atoms, max_leaves):
    return st.recursive(atoms, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(" ".join),
        inner.map(lambda s: f"-{s}"),
        inner.map(lambda s: f"({s})"),
        st.tuples(st.sampled_from(FUNCTIONS), inner).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(inner, st.integers(-4, 4)).map(lambda t: f"({t[0]})^{_exponent(t[1])}"),
    ), max_leaves=max_leaves)


sources = _grammar(atoms, 12)


@FEW
@given(sources)
def test_print_parse_round_trip(source):
    ast = parse_expr(source)
    printed = print_expr(ast)
    assert parse_expr(printed) == ast
    assert print_expr(parse_expr(printed)) == printed


# small constants keep most trees finite on the sampled square
smooth_sources = _grammar(st.one_of(st.sampled_from(["z", "i", "pi", "e", ".5"]),
                                    st.integers(0, 9).map(str)), 8)
points = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)
STEP = 1e-5
# +-STEP then +-STEP/2 along u, then the same along v
OFFSETS = (STEP, -STEP, STEP / 2, -STEP / 2, 1j * STEP, -1j * STEP, 0.5j * STEP, -0.5j * STEP)
CLEARANCE = 1e3   # distance to a pole or cut, in stencil spreads


def _subtrees(e):
    yield e
    for f in fields(e):
        child = getattr(e, f.name)
        if isinstance(child, Expr):
            yield from _subtrees(child)


def _hazards(e):
    """(subtree, cut): values that must stay clear of 0, or of the cut (-inf, 0]."""
    for node in _subtrees(e):
        if isinstance(node, BinOp) and node.op == "/":
            yield node.right, False
        elif isinstance(node, Pow) and node.exponent < 0:
            yield node.base, False
        elif isinstance(node, Call) and node.func in ("log", "sqrt"):
            yield node.arg, True


def _clear_draw(ast, z):
    """Values on the cross stencil at z, f'(z) and the largest subtree value.

    None when the tree is singular or non-finite there, or its stencil comes
    within CLEARANCE spreads of a pole or a log/sqrt branch cut.
    """
    stencil = [z] + [z + d for d in OFFSETS]
    try:
        values = [eval_at(ast, p) for p in stencil]
        derivative = eval_at(differentiate(ast), z)
        scale = max(abs(eval_at(node, z)) for node in _subtrees(ast))
        for arg, cut in _hazards(ast):
            at = [eval_at(arg, p) for p in stencil]
            spread = max(abs(a - at[0]) for a in at)
            distance = abs(at[0].imag) if cut and at[0].real < 0 else abs(at[0])
            if spread > 0.0 and distance <= CLEARANCE * spread:
                return None
    except SingularPoint:
        return None
    if not (np.isfinite(values + [derivative, scale]).all() and scale < 1e6):
        return None
    return values, derivative, scale


def _richardson(f, step):
    """f'(z) from central differences at step and step/2: O(step^4) error.

    f holds the values at z + step, z - step, z + step/2, z - step/2.
    """
    coarse = (f[0] - f[1]) / (2.0 * step)
    fine = (f[2] - f[3]) / step
    return (4.0 * fine - coarse) / 3.0


@FEW
@given(st.lists(smooth_sources, min_size=32, max_size=32), points)
# a single STEP difference is off by 8.2e-3 here, against a tolerance of 4.7e-3
@example(["sin((z)^(-2))"], 0.125 + 0j)
def test_differentiate_matches_central_difference(trees, z):
    # 32 trees per example, so twenty examples reach most rules of differentiate
    draws = [(source, _clear_draw(parse_expr(source), z)) for source in trees]
    draws = [(source, draw) for source, draw in draws if draw is not None]
    assume(draws)
    for source, (values, derivative, scale) in draws:
        along_u = _richardson(values[1:5], STEP)
        along_v = _richardson(values[5:9], 1j * STEP)
        tol = 1e-5 * (1.0 + scale + abs(derivative))
        assert abs(along_u - derivative) <= tol, (source, z)
        assert abs(along_v - derivative) <= tol, (source, z)


ETA = np.array([-1.0, 1.0, 1.0, 1.0])


def _wedge_to_skew(a, b):
    # reference: a^b as the 4x4 endomorphism v -> (a, v) b - (b, v) a;
    # column k carries eta_k (a_k b_i - b_k a_i)
    w = a[..., :, None] * b[..., None, :] - b[..., :, None] * a[..., None, :]
    return -(w * ETA)


def _skew_frobenius(w):
    return np.sqrt(np.sum(w * w, axis=(-2, -1)))


def test_wedge_to_skew_defining_formula():
    assert np.allclose(_wedge_to_skew(E0, E1) @ E0, -E1)
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        v = rng.normal(size=4)
        w = _wedge_to_skew(a, b)
        ew = ETA[:, None] * w
        assert np.array_equal(ew, -ew.T)  # skew for the Minkowski form
        expect = ip31(a, v) * b - ip31(b, v) * a
        assert np.max(np.abs(w @ v - expect)) < 1e-12


tangent = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@FEW
@given(st.integers(1, 8).flatmap(lambda n: hnp.arrays(float, (4, n, 4), elements=tangent)))
def test_duality_wedge_matches_the_skew_reference(tangents):
    # the six bivector components give the Frobenius norm of the 4x4 picture
    xu, xv, su, sv = tangents
    _pairing, wedge = _duality(xu, xv, su, sv)
    want = _skew_frobenius(_wedge_to_skew(xu, sv) - _wedge_to_skew(xv, su))
    scale = 1.0 + enorm(xu) * enorm(sv) + enorm(xv) * enorm(su)
    assert np.all(np.abs(wedge - want) <= 1e-12 * scale)


def _brioschi_reference(i_form, grid):
    """K_int from the two 3x3 Brioschi determinants off the 2-node rim, and its scale."""
    e, f, g = i_form[..., 0, 0], i_form[..., 0, 1], i_form[..., 1, 1]
    du, dv = grid.du, grid.dv
    m1 = np.empty(e.shape + (3, 3))
    m1[..., 1, 1] = e
    m1[..., 1, 2] = m1[..., 2, 1] = f
    m1[..., 2, 2] = g
    m2 = m1.copy()
    m1[..., 0, 0] = (-0.5 * second_diff(e, dv, 0) + mixed_diff(f, du, dv)
                     - 0.5 * second_diff(g, du, 1))
    m1[..., 0, 1] = 0.5 * central_diff(e, du, 1)
    m1[..., 0, 2] = central_diff(f, du, 1) - 0.5 * central_diff(e, dv, 0)
    m1[..., 1, 0] = central_diff(f, dv, 0) - 0.5 * central_diff(g, du, 1)
    m1[..., 2, 0] = 0.5 * central_diff(g, dv, 0)
    m2[..., 0, 0] = 0.0
    m2[..., 0, 1] = m2[..., 1, 0] = 0.5 * central_diff(e, dv, 0)
    m2[..., 0, 2] = m2[..., 2, 0] = 0.5 * central_diff(g, du, 1)
    m1, m2, det_i = m1[2:-2, 2:-2], m2[2:-2, 2:-2], (e * g - f * f)[2:-2, 2:-2]
    with np.errstate(all="ignore"):   # det I = 0 where ok is False
        k_int = (np.linalg.det(m1) - np.linalg.det(m2)) / det_i ** 2
        scale = (1.0 + np.max(np.abs(m1), axis=(-2, -1))) ** 3 / det_i ** 2
    return k_int, scale


coefficient = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@FEW
@given(st.lists(coefficient, min_size=30, max_size=30), st.integers(5, 13))
def test_brioschi_closed_form_matches_the_determinants(coefs, n):
    # E, F, G are random cubics in (u, v); the metric may be indefinite
    grid = DomainGrid.square(1.0, n)
    zs = grid.zs()
    u, v = zs.real, zs.imag
    monomials = np.stack([u ** i * v ** (k - i) for k in range(4) for i in range(k + 1)])
    e, f, g = np.tensordot(np.reshape(coefs, (3, 10)), monomials, axes=1)
    i_form = np.stack([np.stack([e, f], axis=-1), np.stack([f, g], axis=-1)], axis=-2)
    k_int, ok = intrinsic_curvature(i_form, grid)
    want, scale = _brioschi_reference(i_form, grid)
    inner = k_int[2:-2, 2:-2]
    assert np.count_nonzero(np.isfinite(k_int)) == np.count_nonzero(np.isfinite(inner))
    assert np.array_equal(np.isfinite(inner), ok[2:-2, 2:-2])
    sel = ok[2:-2, 2:-2]
    assert np.all(np.abs(inner - want)[sel] <= 1e-13 * scale[sel])


# The walker's arithmetic against the expression forms it replaced: the
# same floating-point operations in the same order, so the same bits.

wide = st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False)


def _batches(count):
    """count complex batches of 2x2 entries, (count, 4, ...) with a random tail shape."""
    return hnp.array_shapes(min_dims=1, max_dims=2, max_side=5).flatmap(
        lambda tail: hnp.arrays(complex, (count, 4) + tail, elements=wide))


def _stacked_mul(a, b):
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return np.stack((a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
                     a10 * b00 + a11 * b10, a10 * b01 + a11 * b11))


def _stacked_inv(a):
    return np.stack((a[3], -a[1], -a[2], a[0])) / (a[0] * a[3] - a[1] * a[2])


def _xi_hat_entries_last(phi, omega_hat):
    phi = np.asarray(phi, dtype=complex)
    omega_hat = np.asarray(omega_hat, dtype=complex)
    out = np.empty(phi.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = -phi
    out[..., 0, 1] = phi * phi
    out[..., 1, 0] = -1.0
    out[..., 1, 1] = phi
    return out * omega_hat[..., None, None]


def _same_bits(got, want):
    return got.shape == want.shape and np.ascontiguousarray(got).tobytes() == want.tobytes()


@FEW
@given(_batches(2))
def test_mul_and_inv_keep_the_stacked_bits(ab):
    a, b = ab
    with np.errstate(all="ignore"):
        assert _same_bits(_mul(a, b), _stacked_mul(a, b))
        assert _same_bits(_mul(a.T.copy().T, b), _stacked_mul(a, b))   # strided entries
        assert _same_bits(_inv(a), _stacked_inv(a))


def _rk4_substep_with_slopes(p, k):
    """_rk4 over one substep from p whose four slopes are k, whatever the stages."""
    given = iter(k)

    def slopes(i, stages, out):
        out[0][...] = next(given)

    return _rk4([p.copy()], slopes, 3)[0]


@FEW
@given(_batches(5))
@example(np.full((5, 4, 2), complex(-0.0, -0.0)))
@example(np.full((5, 4, 2), complex(1.0, -0.0)))
def test_rk4_keeps_the_bits_of_the_division(ks):
    p, k = ks[0] + 0.0, ks[1:]      # + 0.0: a state never holds -0
    old = (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3]) / 6.0
    new = _rk4_substep_with_slopes(np.zeros_like(p), k)
    assert np.array_equal(new, old)             # a zero part may differ in sign
    assert _same_bits(_rk4_substep_with_slopes(p, k), p + old)   # which p + sum does not see


@st.composite
def coupled_linear_slopes(draw):
    """Start states and coefficients C_r of one to three coupled (4, edges)
    states over one to three substeps: state r's slope is C_r S_r, plus
    S_{r-1} for r > 0, at the stage values S.  Entries of modulus <= 1 keep
    every value finite, where addition commutes bit for bit (_rk4 sums
    k1 + 2 k2, the expression 2 k2 + k1)."""
    count, substeps, edges = (draw(st.integers(1, top)) for top in (3, 3, 5))
    return (draw(hnp.arrays(complex, (count, 4, edges), elements=entry)),
            draw(hnp.arrays(complex, (count, 4, 2 * substeps + 1, edges), elements=entry)))


@FEW
@given(coupled_linear_slopes())
def test_rk4_keeps_the_bits_of_the_expression_substeps(problem):
    states, coeffs = problem

    def slopes(i, stages, out):
        for r, (c, s, o) in enumerate(zip(coeffs, stages, out)):
            _mul(c[:, i], s, out=o)
            if r:
                o += stages[r - 1]

    def slopes_expression(i, stages):
        ks = [_stacked_mul(c[:, i], s) for c, s in zip(coeffs, stages)]
        return [k + stages[r - 1] if r else k for r, k in enumerate(ks)]

    got = _rk4([s.copy() for s in states], slopes, coeffs.shape[2])
    want = rk4_expression(list(states), slopes_expression, coeffs.shape[2])
    assert _same_bits(np.stack(got), np.stack(want))


@st.composite
def xi_inputs(draw):
    """phi and omega_hat: broadcasting arrays, 0-d arrays or Python complex scalars."""
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3,
                                                     max_side=4))
    values = [draw(hnp.arrays(complex, shape, elements=wide)) for shape in shapes.input_shapes]
    return [complex(v) if v.ndim == 0 and draw(st.booleans()) else v for v in values]


@FEW
@given(xi_inputs())
def test_xi_hat_values_keep_the_entries_last_bits(inputs):
    with np.errstate(all="ignore"):
        assert _same_bits(xi_hat_values(*inputs), _xi_hat_entries_last(*inputs))


@FEW
@given(iteration_laws())
def test_iteration_law_sides_keep_unit_determinant(solve):
    # both sides, G = F^t_s F_t and F_{t+s}, are products of SL(2,C) frames
    law = solve()
    assert law.valid.all()
    for side in (law.values,) + law.coupled:
        det = side[..., 0, 0] * side[..., 1, 1] - side[..., 0, 1] * side[..., 1, 0]
        assert np.max(np.abs(det - 1.0)) <= 1e-12


COVARIANCE_GRID = DomainGrid.square(0.6, 41)
COVARIANCE_DATA = ("z", "1 + 0.1*z^2")


@st.composite
def sl2_group(draw):
    """A in SL(2,C): a, b, c of modulus <= 1.5 with |a| >= 0.25, and d = (1 + bc)/a."""
    part = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)
    a, b, c = draw(part.filter(lambda a: abs(a) >= 0.25)), draw(part), draw(part)
    return np.array([[a, b], [c, (1.0 + b * c) / a]])


def _frames(phi, omega, side):
    frame = solve_psi(build_xi(sample_data(phi, omega, COVARIANCE_GRID)), 1.0,
                      COVARIANCE_GRID, side=side)
    return frame.values, frame.valid


@FEW
@given(sl2_group(), st.sampled_from(FrameSide))
def test_frames_are_sl2_covariant(a, side):
    # phi' = (a phi + b)/(c phi + d), omega' = (c phi + d)^2 omega have the density
    # a xi a^-1, and RK4 is linear, so their frame is a Psi a^-1 to rounding
    assume(np.min(np.abs(a[1, 0] * COVARIANCE_GRID.zs() + a[1, 1])) >= 0.1)
    psi, valid = _frames(*COVARIANCE_DATA, side)
    got, got_valid = _frames(*mobius_data(a, *COVARIANCE_DATA), side)
    want = a @ psi @ inv2(a)
    assert np.array_equal(got_valid, valid)
    assert np.max(np.abs(got - want)[valid]) <= 1e-12 * np.max(np.abs(want)[valid])


@st.composite
def su2_group(draw):
    """A in SU(2): [[a, b], [-conj b, conj a]] from a unit quaternion (a, b)."""
    q = draw(hnp.arrays(float, 4, elements=st.floats(-1.0, 1.0)).filter(
        lambda q: np.linalg.norm(q) >= 0.25))
    a, b = complex(*q[:2] / np.linalg.norm(q)), complex(*q[2:] / np.linalg.norm(q))
    return np.array([[a, b], [-b.conjugate(), a.conjugate()]])


def _lorentz(a, v):
    """Lambda(A) v, defined by herm(Lambda(A) v) = A herm(v) A*, broadcasting."""
    return vec_from_herm_unchecked(a @ herm_from_vec(v) @ a.conj().T)


def _assert_moved_by(a, surface, moved):
    """moved.x = Lambda(A) surface.x to 1e-12 of max |x| where both are finite.  (The
    masks need not agree: their degeneracy tests are normed in Euclidean components.)"""
    on = np.isfinite(surface.x).all(axis=-1) & np.isfinite(moved.x).all(axis=-1)
    assert on.all()
    want = _lorentz(a, surface.x)
    assert np.max(np.abs(moved.x - want)[on]) <= 1e-12 * np.max(np.abs(want)[on])


@FEW
@given(su2_group())
def test_quadric_h3_is_su2_covariant(a):
    # x = Psi diag(1, -mu) Psi*, and the Moebius data's frame is A Psi A^-1; for mu = -1
    # and A in SU(2), A^-1 diag(1, -mu) A^-* = I, so x' = A x A*
    assume(np.min(np.abs(a[1, 0] * COVARIANCE_GRID.zs() + a[1, 1])) >= 0.1)
    surface, moved = (make_quadric_surface(sample_data(phi, omega, COVARIANCE_GRID), 1.0, -1.0)
                      for phi, omega in (COVARIANCE_DATA, mobius_data(a, *COVARIANCE_DATA)))
    _assert_moved_by(a, surface, moved)


@FEW
@given(su2_group())
def test_uy_perturb_is_su2_covariant(a):
    # the Moebius data's frame is A Psi A^-1, so M = int Psi^-1 dPsi moves to A M A^-1; x is
    # vec(M C + (M C)*) from BASE_X = 0 with C = diag(1, -mu) = I at mu = -1, and A^-1 = A*
    # in SU(2), so x' = A x A*; the anchor e0 and the Gauss map's masks move with it
    assume(np.min(np.abs(a[1, 0] * COVARIANCE_GRID.zs() + a[1, 1])) >= 0.1)
    surface, moved = (uy_perturb(sample_data(phi, omega, COVARIANCE_GRID), 1.0, -1.0)
                      for phi, omega in (COVARIANCE_DATA, mobius_data(a, *COVARIANCE_DATA)))
    assert np.array_equal(moved.mask, surface.mask)
    _assert_moved_by(a, surface, moved)


LW_DATA = ("z", "0.3 + 0.1*z^2")


@FEW
@given(su2_group(), st.sampled_from([-1.0, -0.5, -2.0]))
def test_lw_bryant_is_covariant(u, mu):
    # A = D U D^-1 with D = diag(1, sqrt|mu|) keeps C = diag(1, -mu): A C A* = C.  The Moebius
    # data's RIGHT frame is A Psi A^-1, so x_m = Psi C Psi* moves to A x_m A*; and
    # lift(psi') = A lift(psi) A* / |c psi + d|^2 with 1 - mu |psi'|^2 = (1 - mu |psi|^2) /
    # |c psi + d|^2, so g~' = A g~ A*: the front and the middle sphere both move by Lambda(A)
    scale = np.array([1.0, np.sqrt(-mu)])
    a = scale[:, None] * u / scale
    assume(np.min(np.abs(a[1, 0] * COVARIANCE_GRID.zs() + a[1, 1])) >= 0.1)
    (surface, middle), (moved, moved_middle) = (
        make_lw_bryant(psi, eta, 1.0, mu, COVARIANCE_GRID)
        for psi, eta in (LW_DATA, mobius_data(a, *LW_DATA)))
    for before, after in ((surface, moved), (middle, moved_middle)):
        assert np.array_equal(after.mask, before.mask)
        _assert_moved_by(a, before, after)

@FEW
@given(sl2_group(), st.sampled_from([E0, E3]))
def test_affine_surfaces_are_sl2_covariant(a, p):
    # dx = -(zeta p) has the density M dz + (M dz)* with M = xi_hat herm(p).  The Moebius
    # data's density is A xi_hat A^-1, so with herm(p') = A herm(p) A* M' = A M A*, and
    # x' = Lambda(A) x from x = 0 at the base node; boosts included
    assume(np.min(np.abs(a[1, 0] * COVARIANCE_GRID.zs() + a[1, 1])) >= 0.1)
    surface = make_affine_surface(sample_data(*COVARIANCE_DATA, COVARIANCE_GRID), p)
    moved = make_affine_surface(sample_data(*mobius_data(a, *COVARIANCE_DATA), COVARIANCE_GRID),
                                _lorentz(a, p))
    assert surface.kind is moved.kind is (GeometryKind.AFFINE_E3 if p is E0
                                          else GeometryKind.AFFINE_L3)
    _assert_moved_by(a, surface, moved)


M_DERIVATIVE_DATA = (("z", "1 + 0.1*z^2"), ("1/(z - 0.31)", "(z - 0.31)^2"))


@pytest.mark.parametrize("make", (make_quadric_surface, uy_perturb))
@pytest.mark.parametrize("mu", (-1.0, 0.0, 2.0))
@pytest.mark.parametrize("phi, omega", M_DERIVATIVE_DATA)
def test_affine_kinds_are_the_m_derivative_of_the_transport_families(phi, omega, mu, make):
    # The frame is I + m int xi + O(m^2), so both transport families are, to first
    # order in m, the affine surface through BASE_X normal to their anchor
    # p = vec diag(1, -mu); the central difference in m is second order, so its
    # error falls four-fold per halving of m
    data = sample_data(phi, omega, DomainGrid.square(0.6, 41))
    affine = make_affine_surface(data, (0.5 * (1.0 - mu), 0.0, 0.0, 0.5 * (1.0 + mu)))
    errors = []
    for m in (1e-2, 5e-3, 2.5e-3):
        plus, minus = make(data, m, mu), make(data, -m, mu)
        ok = plus.mask & minus.mask & affine.mask
        assert np.count_nonzero(ok) > ok.size // 2
        slope = (plus.x[ok] - minus.x[ok]) / (2.0 * m)
        errors.append(float(np.max(np.abs(slope - (affine.x[ok] - BASE_X)))))
    assert errors[-1] < 1e-6, errors
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= coarse / fine <= 4.5, errors


# The verifier's in-place kernels against the expressions they replaced
# (tests/reference.py): the same operations in the same order, so every value
# keeps its bits, whatever the inputs' memory layout.  Only a NaN's sign may
# differ, since numpy's SIMD loops pick it by the operands' place in the
# vector blocks.  No kernel may write into its inputs.

LAYOUTS = ("C", "component-first", "strided")
# mostly moderate values, whose sums round, with any float now and then
float_values = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(width=64))
complex_values = st.builds(complex, float_values, float_values)
grid_shapes = st.tuples(st.integers(1, 5), st.integers(1, 5))


def _laid_out(a, layout):
    """a (C order) as a copy stored component-first (last axis first) or a strided view."""
    if layout == "component-first":
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)
    if layout == "strided":
        wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), a.dtype)
        wide[..., ::2] = a
        return wide[..., ::2]
    return a


def _same_bits_but_nan_sign(got, want):
    """Same shape and dtype, NaN at the same places, every other value the same bits."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or got.dtype != want.dtype:
        return False
    got, want = (np.ascontiguousarray(a).reshape(-1).view(np.float64) for a in (got, want))
    nan = np.isnan(got)
    return (np.array_equal(nan, np.isnan(want))
            and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64)))


def _kept(inputs, copies):
    return all(_same_bits(np.ascontiguousarray(a), np.ascontiguousarray(c))
               for a, c in zip(inputs, copies))


@st.composite
def vectors(draw, shape, dtype=float):
    """A (shape + (4,)) array of any floats, in one of LAYOUTS."""
    a = draw(hnp.arrays(dtype, shape + (4,),
                        elements=float_values if dtype is float else complex_values))
    return _laid_out(a, draw(st.sampled_from(LAYOUTS)))


@FEW
@given(st.data(), st.sampled_from(("grid", "grid and vector", "vectors")), st.booleans())
def test_in_place_ip31_keeps_the_expression_bits(data, shapes, complex_v):
    shape = data.draw(grid_shapes) if shapes != "vectors" else ()
    u = data.draw(vectors(shape))
    v = data.draw(vectors(shape if shapes == "grid" else (), complex if complex_v else float))
    copies = (u.copy(), v.copy())
    with np.errstate(all="ignore"):
        for a, b in ((u, v), (v, u)):
            got, want = ip31(a, b), ip31_expression(a, b)
            assert _same_bits_but_nan_sign(got, want)
            assert type(got) is type(want)    # a vector pair gives a numpy scalar
    assert _kept((u, v), copies)


@FEW
@given(st.data(), st.booleans())
def test_in_place_enorm_keeps_the_expression_bits(data, vector):
    v = data.draw(vectors(() if vector else data.draw(grid_shapes)))
    copy = v.copy()
    with np.errstate(all="ignore"):
        got, want = enorm(v), enorm_expression(v)
    assert _same_bits_but_nan_sign(got, want) and type(got) is type(want)
    assert _kept((v,), (copy,))


@FEW
@given(st.data())
def test_in_place_duality_keeps_the_expression_bits(data):
    shape = data.draw(grid_shapes)
    tangents = [data.draw(vectors(shape)) for _ in range(4)]
    copies = [t.copy() for t in tangents]
    with np.errstate(all="ignore"):
        got, want = _duality(*tangents), duality_expression(*tangents)
    assert all(_same_bits_but_nan_sign(g, w) for g, w in zip(got, want))
    assert _kept(tangents, copies)


@st.composite
def symmetric_forms(draw, shape):
    """A symmetric (shape + (2, 2)) form, stored C order, entry-first or strided."""
    entries = st.one_of(st.floats(-4.0, 4.0), float_values)    # small: det I near 0
    e, f, g = (draw(hnp.arrays(float, shape, elements=entries)) for _ in range(3))
    form = np.stack([np.stack([e, f], axis=-1), np.stack([f, g], axis=-1)], axis=-2)
    layout = draw(st.sampled_from(LAYOUTS))
    if layout == "component-first":    # entry-first, as verify._form stores it
        return np.ascontiguousarray(form.transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1)
    return _laid_out(form, layout)


@FEW
@given(st.data())
def test_in_place_curvatures_keep_the_expression_bits(data):
    shape = data.draw(grid_shapes)
    forms = data.draw(symmetric_forms(shape)), data.draw(symmetric_forms(shape))
    copies = [f.copy() for f in forms]
    with np.errstate(all="ignore"):
        h, k, ok = curvatures(*forms)
        want_h, want_k, want_ok = curvatures_expression(*forms)
    assert np.array_equal(ok, want_ok)
    for got, want in ((h, want_h), (k, want_k)):
        assert _same_bits_but_nan_sign(got, want)
        assert _same_bits(got[~ok], want[~ok])    # the NaN np.where writes
    assert _kept(forms, copies)


@FEW
@given(st.integers(1, 12).flatmap(
           lambda nv: st.integers(1, 12).flatmap(
               lambda nu: hnp.arrays(bool, (nv, nu)))),
       st.integers(0, 3))
def test_one_pass_dilate_mask_keeps_the_rings(masked, iterations):
    copy = masked.copy()
    assert np.array_equal(dilate_mask(masked, iterations), dilate_mask_rings(masked, iterations))
    assert np.array_equal(masked, copy)
