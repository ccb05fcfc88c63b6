"""Property tests: invariants the maths guarantees, on random inputs.

Examples are few, so tier-1 stays quick, and no example database is kept.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from minksurf.domain import DomainGrid
from minksurf.expr import FUNCTIONS, parse_expr, print_expr
from minksurf.integrate import FrameSide, PathOrder, solve_psi

FEW = settings(max_examples=20, deadline=None, database=None)

entry = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def sl2_algebra(draw):
    """A trace-free 2x2 complex matrix with entries of modulus <= 1."""
    a, b, c = draw(entry), draw(entry), draw(entry)
    return np.array([[a, b], [c, -a]])


@st.composite
def transports(draw):
    """A linear sl(2,C) coefficient A + B z on a small grid, solved by solve_psi."""
    a, b = draw(sl2_algebra()), draw(sl2_algebra())
    nu, nv = draw(st.integers(3, 9)), draw(st.integers(3, 9))
    base = (draw(st.integers(0, nv - 1)), draw(st.integers(0, nu - 1)))
    grid = DomainGrid(-1.0, 1.0, -1.0, 1.0, nu, nv, base)
    kwargs = dict(side=draw(st.sampled_from(FrameSide)), order=draw(st.sampled_from(PathOrder)))
    m = draw(st.floats(-1.0, 1.0))

    def coeff(z):
        return a + np.asarray(z)[..., None, None] * b

    return lambda psi0=None: solve_psi(coeff, m, grid, psi0, **kwargs)


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
    want = from_identity.values @ g if from_identity.side is FrameSide.LEFT \
        else g @ from_identity.values
    got = solve(g).values
    scale = np.max(np.abs(from_identity.values)) * np.max(np.abs(g))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


numbers = st.one_of(st.integers(0, 1000).map(str),
                    st.floats(0.0, 1e6, allow_nan=False).map(repr),
                    st.sampled_from([".5", "1e-3", "2E4"]))
atoms = st.one_of(st.sampled_from(["z", "i", "pi", "e"]), numbers)


def _exponent(n):
    return str(n) if n >= 0 else f"(-{-n})"


sources = st.recursive(atoms, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(" ".join),
    inner.map(lambda s: f"-{s}"),
    inner.map(lambda s: f"({s})"),
    st.tuples(st.sampled_from(FUNCTIONS), inner).map(lambda t: f"{t[0]}({t[1]})"),
    st.tuples(inner, st.integers(-4, 4)).map(lambda t: f"({t[0]})^{_exponent(t[1])}"),
), max_leaves=12)


@FEW
@given(sources)
def test_print_parse_round_trip(source):
    ast = parse_expr(source)
    printed = print_expr(ast)
    assert parse_expr(printed) == ast
    assert print_expr(parse_expr(printed)) == printed
