"""Complex-analytic expressions in one variable: parse, print, evaluate, differentiate.

Grammar (EBNF, whitespace insensitive):

    expr     = term { ("+" | "-") term } ;
    term     = factor { ("*" | "/") factor } ;
    factor   = ("+" | "-") factor | power ;
    power    = atom [ "^" exponent ] ;
    exponent = [ "-" ] INTEGER | "(" [ "-" ] INTEGER ")" ;
    atom     = NUMBER | "z" | "i" | "pi" | "e"
             | FUNC "(" expr ")" | "(" expr ")" ;
    FUNC     = "exp" | "log" | "sin" | "cos" | "sqrt" ;
    NUMBER   = finite decimal literal in ASCII digits, e.g. 2, 0.5, .5, 1e-3 ;

log and sqrt use the principal branch.  Exponents are integer literals
(chained "^" is rejected).  Evaluation is deterministic and vectorized;
poles and branch-point hits are reported through an explicit singular
mask, never as silent non-finite numbers.

Trees are built from Const, Var, Neg, Pow, Call and BinOp, whose operator
("+", "-", "*" or "/") keys the _OPS table: its precedence, printed separator
and Python operator serve the printer, the evaluator and constant folding.
An expression nests at most MAX_DEPTH levels (each binary operator, sign,
"^", function call and pair of parentheses is one); deeper input is a syntax
error at the token that passes the bound.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")
CONSTANTS = {"i": 1j, "pi": complex(np.pi), "e": complex(np.e)}
# operator: (precedence, printed separator, Python operator)
_OPS = {"+": (1, " + ", operator.add), "-": (1, " - ", operator.sub),
       "*": (2, "*", operator.mul), "/": (2, "/", operator.truediv)}
# Inputs in use nest about 10 levels.  At 100 a derivative (up to 3x deeper)
# takes about 300 frames to evaluate or print, and nested parentheses about
# 800 to parse: inside Python's default recursion limit of 1,000.
MAX_DEPTH = 100
# [0-9], not \d or str.isdigit(): those also accept "²" and "٣"
_NUMBER = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


class ExprSyntaxError(ValueError):
    """Malformed source text; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Expr:
    """Base class for AST nodes; structural equality via dataclass eq."""


@dataclass(frozen=True)
class Const(Expr):
    value: complex


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


Z = Var()
ZERO = Const(0j)
ONE = Const(1 + 0j)


# ---------------------------------------------------------------------------
# tokenizer / parser

def _tokenize(source):
    tokens = []
    n = len(source)
    k = 0
    while k < n:
        c = source[k]
        if c.isspace():
            k += 1
            continue
        if c in "+-*/^()":
            kind, j = c, k + 1
        elif number := _NUMBER.match(source, k):
            kind, j = "num", number.end()
            if not np.isfinite(float(number.group())):    # exponents too: they become floats
                raise ExprSyntaxError(f"number {number.group()!r} overflows a float", k)
        elif c.isalpha() or c == "_":
            kind, j = "ident", k + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
        else:
            raise ExprSyntaxError(f"unexpected character {c!r}", k)
        tokens.append((kind, source[k:j], k))
        k = j
    tokens.append(("end", "", n))
    return tokens


def _deeper(depth, tok):
    """depth + 1: a level opened at tok over a subtree depth levels deep."""
    if depth >= MAX_DEPTH:
        raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", tok[2])
    return depth + 1


class _Parser:
    """Recursive descent; each rule returns (tree, depth in MAX_DEPTH's levels)."""

    def __init__(self, source):
        self.tokens = _tokenize(source)
        self.k = 0
        self.open = 0       # signs, calls and parentheses the parser is inside

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def nested(self, tok, rule):
        """rule() inside one more sign, call or parenthesis opened at tok; refused
        there, before recursing, once the open levels and an atom pass the bound."""
        self.open += 1
        _deeper(self.open, tok)
        e, depth = rule()
        self.open -= 1
        return e, _deeper(depth, tok)

    def parse(self):
        e, _ = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def _chain(self, ops, operand):
        e, depth = operand()
        while self.peek()[0] in ops:
            tok = self.advance()
            rhs, rhs_depth = operand()
            e, depth = BinOp(tok[0], e, rhs), _deeper(max(depth, rhs_depth), tok)
        return e, depth

    def expr(self):
        return self._chain("+-", self.term)

    def term(self):
        return self._chain("*/", self.factor)

    def factor(self):
        tok = self.peek()
        if tok[0] not in "+-":
            return self.power()
        self.advance()
        e, depth = self.nested(tok, self.factor)
        return (Neg(e) if tok[0] == "-" else e), depth

    def power(self):
        base, depth = self.atom()
        tok = self.peek()
        if tok[0] != "^":
            return base, depth
        self.advance()
        n = self._integer_exponent()
        if self.peek()[0] == "^":
            raise ExprSyntaxError("chained '^' is not supported", self.peek()[2])
        return Pow(base, n), _deeper(depth, tok)

    def _integer_exponent(self):
        paren = self.peek()[0] == "("
        if paren:
            self.advance()
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        tok = self.expect("num")
        if any(c in tok[1] for c in ".eE"):
            raise ExprSyntaxError("exponent must be an integer literal", tok[2])
        if paren:
            self.expect(")")
        return sign * int(tok[1])

    def atom(self):
        tok = self.advance()
        kind, text, pos = tok
        if kind == "num":
            return Const(complex(float(text))), 1
        if kind == "(":
            e = self.nested(tok, self.expr)
            self.expect(")")
            return e
        if kind == "ident":
            if text == "z":
                return Z, 1
            if text in CONSTANTS:
                return Const(CONSTANTS[text]), 1
            if text in FUNCTIONS:
                self.expect("(")
                arg, depth = self.nested(tok, self.expr)
                self.expect(")")
                return Call(text, arg), depth
            raise ExprSyntaxError(f"unknown identifier {text!r}", pos)
        raise ExprSyntaxError(f"unexpected token {text!r}", pos)


def parse_expr(source):
    """Parse source text into an Expr AST."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# printing

_PREC = {Neg: 3, Pow: 4, Call: 5, Const: 5, Var: 5}


def _fmt_real(x):
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _print_const(c):
    re, im = c.real, c.imag
    if im == 0.0:
        return _fmt_real(re) if re >= 0 else f"(-{_fmt_real(-re)})"
    if re == 0.0:
        if im == 1.0:
            return "i"
        if im == -1.0:
            return "(-i)"
        body = f"{_fmt_real(abs(im))}*i"
        return body if im > 0 else f"(-{body})"
    sgn = "+" if im >= 0 else "-"
    return f"({_fmt_real(re)}{sgn}{_fmt_real(abs(im))}*i)"


def print_expr(e):
    """Canonical printer; parse(print_expr(parse(s))) == parse(s)."""
    return _print(e, 0)


def _print(e, parent_prec):
    prec = _OPS[e.op][0] if isinstance(e, BinOp) else _PREC[type(e)]
    if isinstance(e, Const):
        s = _print_const(e.value)
    elif isinstance(e, Var):
        s = "z"
    elif isinstance(e, BinOp):
        s = f"{_print(e.left, prec)}{_OPS[e.op][1]}{_print(e.right, prec + 1)}"
    elif isinstance(e, Neg):
        s = f"-{_print(e.arg, 3)}"
    elif isinstance(e, Pow):
        n = e.exponent
        s = f"{_print(e.base, 5)}^{n if n >= 0 else f'(-{-n})'}"
    else:
        s = f"{e.func}({_print(e.arg, 0)})"
    if prec < parent_prec:
        return f"({s})"
    return s


# ---------------------------------------------------------------------------
# evaluation

def evaluate(e, z):
    """Evaluate e at z (scalar or ndarray).

    Returns (values, singular): values is a complex ndarray shaped like z,
    singular a boolean ndarray flagging poles/branch hits; singular entries
    hold 0 so downstream arithmetic stays finite.  Singularity flags
    propagate through every operation, so a non-finite intermediate can
    never be laundered into a finite result.
    """
    zarr = np.asarray(z, dtype=complex)
    with np.errstate(all="ignore"):
        vals, sing = _eval(e, zarr)
    vals = np.where(sing, 0j, vals)
    return vals, sing


def _eval(e, z):
    if isinstance(e, Const):
        v = np.broadcast_to(np.asarray(e.value, dtype=complex), z.shape)
        return v, np.zeros(z.shape, dtype=bool)
    if isinstance(e, Var):
        return z, np.zeros(z.shape, dtype=bool)
    if isinstance(e, Neg):
        v, s = _eval(e.arg, z)
        return -v, s
    if isinstance(e, BinOp):
        a, sa = _eval(e.left, z)
        b, sb = _eval(e.right, z)
        if e.op == "/":
            bad = b == 0
            a, b, sb = np.where(bad, np.nan, a), np.where(bad, 1, b), sb | bad
        v = _OPS[e.op][2](a, b)
        return v, sa | sb | ~np.isfinite(v)
    if isinstance(e, Pow):
        b, sb = _eval(e.base, z)
        n = e.exponent
        if n >= 0:
            v = b ** n
        else:
            bad = b == 0
            v = np.where(bad, 1, b) ** n
            sb = sb | bad
        return v, sb | ~np.isfinite(v)
    if isinstance(e, Call):
        a, sa = _eval(e.arg, z)
        if e.func == "log":
            bad = a == 0
            a, sa = np.where(bad, 1, a), sa | bad
        v = getattr(np, e.func)(a)
        return v, sa | ~np.isfinite(v)
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# differentiation

def _is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.value == value)


def _bin(op, a, b):
    """a op b, folded: constants fold, if finite and not in a quotient; 0 annihilates
    a product or a numerator, and 0 (in + and -) or 1 (in * and /) drops out."""
    folded = _OPS[op][2](a.value, b.value) if op != "/" and _is_const(a) and _is_const(b) else None
    if folded is not None and np.isfinite(folded):
        return Const(folded)
    if _is_const(a, 0j) and op in "*/" or _is_const(b, 0j) and op == "*":
        return ZERO
    unit = 0j if op in "+-" else 1 + 0j
    if _is_const(b, unit):
        return a
    if _is_const(a, unit) and op != "/":
        return _neg(b) if op == "-" else b
    return BinOp(op, a, b)


def _neg(a):
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _pow(b, n):
    if n == 0:
        return ONE
    if n == 1:
        return b
    return Pow(b, n)


def differentiate(e):
    """Symbolic complex derivative d/dz."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE
    if isinstance(e, BinOp):
        da, db = differentiate(e.left), differentiate(e.right)
        if e.op in "+-":
            return _bin(e.op, da, db)
        num = _bin("+" if e.op == "*" else "-", _bin("*", da, e.right), _bin("*", e.left, db))
        return num if e.op == "*" else _bin("/", num, _pow(e.right, 2))
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg))
    if isinstance(e, Pow):
        inner = _bin("*", Const(complex(e.exponent)), _pow(e.base, e.exponent - 1))
        return _bin("*", inner, differentiate(e.base))
    if isinstance(e, Call):
        u, du = e.arg, differentiate(e.arg)
        if e.func == "exp":
            return _bin("*", e, du)
        if e.func == "log":
            return _bin("/", du, u)
        if e.func == "sin":
            return _bin("*", Call("cos", u), du)
        if e.func == "cos":
            return _neg(_bin("*", Call("sin", u), du))
        if e.func == "sqrt":
            return _bin("/", du, _bin("*", Const(2 + 0j), e))
    raise TypeError(f"not an Expr node: {e!r}")
