import numpy as np
import pytest

from minksurf.expr import MAX_DEPTH, ExprSyntaxError, differentiate, evaluate, parse_expr, print_expr
from reference import SingularPoint, eval_at

CORPUS = [
    "z^2 + i",
    "1/z",
    "exp(2*log(z))",
    "sin(z)*cos(z) - z^3/(1 + z^2)",
    "sqrt(z + 2)",
    "-z^(-2) + pi*e",
    "0.5*exp(-z)*sin(2*z)",
    "(z - i)*(z + i)/(z^2 + 1)",
    "log(z + 3) + 2e-3*z",
    "+z^2 - (+i)*z",
]
# print_expr(differentiate(parse_expr(s))): evaluation order follows the tree,
# so its shape, not only its value, is part of the result
DERIVATIVES = {
    "z^2 + i": "2*z",
    "1/z": "(-1)/z^2",
    "exp(2*log(z))": "exp(2*log(z))*(2*(1/z))",
    "sin(z)*cos(z) - z^3/(1 + z^2)":
        "cos(z)*cos(z) + sin(z)*-sin(z) - (3*z^2*(1 + z^2) - z^3*(2*z))/(1 + z^2)^2",
    "sqrt(z + 2)": "1/(2*sqrt(z + 2))",
    "-z^(-2) + pi*e": "-((-2)*z^(-3))",
    "0.5*exp(-z)*sin(2*z)": "0.5*(exp(-z)*(-1))*sin(2*z) + 0.5*exp(-z)*(cos(2*z)*2)",
    "(z - i)*(z + i)/(z^2 + 1)":
        "((z + i + (z - i))*(z^2 + 1) - (z - i)*(z + i)*(2*z))/(z^2 + 1)^2",
    "log(z + 3) + 2e-3*z": "1/(z + 3) + 0.002",
    "+z^2 - (+i)*z": "2*z - i",
}

# each source nested k levels deep
NESTINGS = {
    "sums": lambda k: "z" + "+z" * (k - 1),
    "quotients": lambda k: "z" + "/z" * (k - 1),
    "signs": lambda k: "-" * (k - 1) + "z",
    "parentheses": lambda k: "(" * (k - 1) + "z" + ")" * (k - 1),
    "calls": lambda k: "sin(" * (k - 1) + "z" + ")" * (k - 1),
}


def test_parse_eval_basic():
    e = parse_expr("z^2 + i")
    assert eval_at(e, 2.0) == 4 + 1j


def test_pole_is_flagged_not_silent():
    e = parse_expr("1/z")
    vals, sing = evaluate(e, np.array([0j, 2 + 0j]))
    assert sing.tolist() == [True, False]
    assert np.isfinite(vals).all()
    with pytest.raises(SingularPoint):
        eval_at(e, 0.0)


def test_singularity_not_laundered():
    # exp(log(0)) would be finite if the flag were dropped along the way
    vals, sing = evaluate(parse_expr("exp(log(z))"), np.array([0j]))
    assert bool(sing[0])


def test_principal_branch_identity():
    e = parse_expr("exp(2*log(z))")
    z = 1 + 1j
    assert abs(eval_at(e, z) - z ** 2) < 1e-12


def test_syntax_error_reports_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("z +* 2")
    assert err.value.pos == 3


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("2*w + 1")
    assert err.value.pos == 2


@pytest.mark.parametrize("text,pos", [("z^²", 2), ("²*z", 0), ("٣*z", 0), ("z^(٣)", 3)])
def test_only_ascii_digits(text, pos):
    # str.isdigit() is true for superscripts and other scripts' digits
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text)
    assert err.value.pos == pos


@pytest.mark.parametrize("text,pos", [("1e999", 0), ("2*1e400 + z", 2), ("z^2 - 1e309", 6),
                                      pytest.param("z^" + "9" * 400, 2, id="z^9...9"),
                                      pytest.param("z^(-" + "9" * 400 + ")", 4, id="z^(-9...9)")])
def test_overflowing_literal_is_syntax_error(text, pos):
    # float() reads these as inf, which evaluate would pass on unflagged; an
    # exponent that large would crash differentiate, which takes it as a float
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text)
    assert err.value.pos == pos


def test_underflowing_literal_reads_zero():
    assert eval_at(parse_expr("1e-999 + z"), 2.0) == 2.0


def test_integer_exponents_only():
    with pytest.raises(ExprSyntaxError):
        parse_expr("z^2.5")
    with pytest.raises(ExprSyntaxError):
        parse_expr("z^2^3")
    assert eval_at(parse_expr("z^(-2)"), 2.0) == 0.25
    assert eval_at(parse_expr("z^-2"), 2.0) == 0.25


def test_constants():
    assert abs(eval_at(parse_expr("pi"), 0.0) - np.pi) == 0.0
    assert abs(eval_at(parse_expr("e"), 0.0) - np.e) == 0.0
    assert eval_at(parse_expr("i*i"), 0.0) == -1


@pytest.mark.parametrize("source", CORPUS)
def test_print_parse_roundtrip(source):
    ast = parse_expr(source)
    assert parse_expr(print_expr(ast)) == ast


def test_differentiate_monomial():
    d = differentiate(parse_expr("z^3"))
    assert eval_at(d, 2.0) == 12.0


def test_differentiate_reciprocal():
    d = differentiate(parse_expr("1/z"))
    assert abs(eval_at(d, 1j) - 1.0) < 1e-15  # -(i)^-2 = 1


@pytest.mark.parametrize("source", CORPUS)
def test_derivative_matches_finite_differences(source):
    ast = parse_expr(source)
    d = differentiate(ast)
    rng = np.random.default_rng(hash(source) % 2 ** 31)
    pts = rng.normal(size=100) + 1j * rng.normal(size=100)
    pts = pts[np.abs(pts) > 0.3] + 3.5  # keep clear of poles/branch cuts
    h = 1e-5
    sym, s1 = evaluate(d, pts)
    fp, s2 = evaluate(ast, pts + h)
    fm, s3 = evaluate(ast, pts - h)
    ok = ~(s1 | s2 | s3)
    assert ok.sum() >= 50
    fd = (fp[ok] - fm[ok]) / (2 * h)
    rel = np.abs(sym[ok] - fd) / (1.0 + np.abs(sym[ok]))
    assert np.max(rel) <= 1e-6


def test_evaluate_vectorized_shape():
    z = np.linspace(-1, 1, 7).reshape(1, 7) + 1j * np.zeros((3, 1))
    vals, sing = evaluate(parse_expr("z*z"), z)
    assert vals.shape == (3, 7) and sing.shape == (3, 7)
    assert np.allclose(vals, z * z)


def test_derivative_of_sqrt_singular_at_origin():
    d = differentiate(parse_expr("sqrt(z)"))
    _vals, sing = evaluate(d, np.array([0j]))
    assert bool(sing[0])


def test_folding_keeps_an_overflowing_sum_as_a_node():
    # 1e308*z + 1e308*z is finite near 0, but its derivative 1e308 + 1e308 is not
    # a finite constant: it stays a sum, which prints, re-parses and evaluates as
    # singular instead of an unflagged inf
    d = differentiate(parse_expr("1e308*z + 1e308*z"))
    assert print_expr(d) == "1e+308 + 1e+308"
    assert parse_expr(print_expr(d)) == d
    vals, sing = evaluate(d, np.array([0.25, 0.1j]))
    assert sing.all() and (vals == 0).all()


@pytest.mark.parametrize("source", CORPUS)
def test_derivative_trees_are_pinned(source):
    assert print_expr(differentiate(parse_expr(source))) == DERIVATIVES[source]


@pytest.mark.parametrize("text,pos", [
    pytest.param("z" + "+z" * 1500, 2 * MAX_DEPTH - 1, id="1500 sums"),
    pytest.param("(" * 1000 + "z" + ")" * 1000, MAX_DEPTH - 1, id="1000 parentheses")])
def test_nesting_past_the_bound_is_syntax_error(text, pos):
    # these ran out of Python's recursion, in evaluate and in the parser
    with pytest.raises(ExprSyntaxError, match="nested deeper than") as err:
        parse_expr(text)
    assert err.value.pos == pos


@pytest.mark.parametrize("nesting", NESTINGS.values(), ids=NESTINGS.keys())
def test_the_deepest_accepted_tree_evaluates_differentiates_and_prints(nesting):
    ast = parse_expr(nesting(MAX_DEPTH))
    d = differentiate(ast)          # the quotients' is about three times deeper
    assert parse_expr(print_expr(ast)) == ast
    assert print_expr(d)
    for e in (ast, d):
        vals, sing = evaluate(e, np.array([0.5 + 0.25j]))
        assert np.isfinite(vals).all() and not sing.any()
    with pytest.raises(ExprSyntaxError, match="nested deeper than"):
        parse_expr(nesting(MAX_DEPTH + 1))
