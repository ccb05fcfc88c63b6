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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")
CONSTANTS = {"i": 1j, "pi": complex(np.pi), "e": complex(np.e)}
_DIGITS = frozenset("0123456789")   # str.isdigit() also accepts "²" and "٣"


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
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
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
            tokens.append((c, c, k))
            k += 1
            continue
        if c in _DIGITS or (c == "." and k + 1 < n and source[k + 1] in _DIGITS):
            j = k
            while j < n and source[j] in _DIGITS:
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j] in _DIGITS:
                    j += 1
            if j < n and source[j] in "eE":
                j2 = j + 1
                if j2 < n and source[j2] in "+-":
                    j2 += 1
                if j2 < n and source[j2] in _DIGITS:
                    j = j2
                    while j < n and source[j] in _DIGITS:
                        j += 1
            if not np.isfinite(float(source[k:j])):    # exponents too: they become floats
                raise ExprSyntaxError(f"number {source[k:j]!r} overflows a float", k)
            tokens.append(("num", source[k:j], k))
            k = j
            continue
        if c.isalpha() or c == "_":
            j = k
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[k:j], k))
            k = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", k)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.k = 0

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

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self):
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self):
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.factor()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def factor(self):
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            return Neg(self.factor())
        if tok[0] == "+":
            self.advance()
            return self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.advance()
        n = self._integer_exponent()
        if self.peek()[0] == "^":
            raise ExprSyntaxError("chained '^' is not supported", self.peek()[2])
        return Pow(base, n)

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
            return Const(complex(float(text)))
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "ident":
            if text == "z":
                return Z
            if text in CONSTANTS:
                return Const(CONSTANTS[text])
            if text in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(text, arg)
            raise ExprSyntaxError(f"unknown identifier {text!r}", pos)
        raise ExprSyntaxError(f"unexpected token {text!r}", pos)


def parse_expr(source):
    """Parse source text into an Expr AST."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# printing

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Call: 5, Const: 5, Var: 5}


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
    prec = _PREC[type(e)]
    if isinstance(e, Const):
        s = _print_const(e.value)
    elif isinstance(e, Var):
        s = "z"
    elif isinstance(e, Add):
        s = f"{_print(e.left, 1)} + {_print(e.right, 2)}"
    elif isinstance(e, Sub):
        s = f"{_print(e.left, 1)} - {_print(e.right, 2)}"
    elif isinstance(e, Mul):
        s = f"{_print(e.left, 2)}*{_print(e.right, 3)}"
    elif isinstance(e, Div):
        s = f"{_print(e.left, 2)}/{_print(e.right, 3)}"
    elif isinstance(e, Neg):
        s = f"-{_print(e.arg, 3)}"
    elif isinstance(e, Pow):
        n = e.exponent
        s = f"{_print(e.base, 5)}^{n if n >= 0 else f'(-{-n})'}"
    elif isinstance(e, Call):
        s = f"{e.func}({_print(e.arg, 0)})"
    else:
        raise TypeError(f"not an Expr node: {e!r}")
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
    if isinstance(e, (Add, Sub, Mul, Div)):
        a, sa = _eval(e.left, z)
        b, sb = _eval(e.right, z)
        if isinstance(e, Add):
            v = a + b
        elif isinstance(e, Sub):
            v = a - b
        elif isinstance(e, Mul):
            v = a * b
        else:
            v = np.where(b == 0, np.nan, a) / np.where(b == 0, 1, b)
            sb = sb | (b == 0)
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
        if e.func == "exp":
            v = np.exp(a)
        elif e.func == "sin":
            v = np.sin(a)
        elif e.func == "cos":
            v = np.cos(a)
        elif e.func == "log":
            bad = a == 0
            v = np.log(np.where(bad, 1, a))
            sa = sa | bad
        elif e.func == "sqrt":
            v = np.sqrt(a)
        else:
            raise ValueError(f"unknown function {e.func!r}")
        return v, sa | ~np.isfinite(v)
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# differentiation

def _is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.value == value)


def _add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0j):
        return b
    if _is_const(b, 0j):
        return a
    return Add(a, b)


def _sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0j):
        return a
    if _is_const(a, 0j):
        return _neg(b)
    return Sub(a, b)


def _mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0j) or _is_const(b, 0j):
        return ZERO
    if _is_const(a, 1 + 0j):
        return b
    if _is_const(b, 1 + 0j):
        return a
    return Mul(a, b)


def _div(a, b):
    if _is_const(a, 0j):
        return ZERO
    if _is_const(b, 1 + 0j):
        return a
    return Div(a, b)


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
    if isinstance(e, Add):
        return _add(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Sub):
        return _sub(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Mul):
        return _add(_mul(differentiate(e.left), e.right),
                    _mul(e.left, differentiate(e.right)))
    if isinstance(e, Div):
        num = _sub(_mul(differentiate(e.left), e.right),
                   _mul(e.left, differentiate(e.right)))
        return _div(num, _pow(e.right, 2))
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg))
    if isinstance(e, Pow):
        inner = _mul(Const(complex(e.exponent)), _pow(e.base, e.exponent - 1))
        return _mul(inner, differentiate(e.base))
    if isinstance(e, Call):
        da = differentiate(e.arg)
        if e.func == "exp":
            return _mul(e, da)
        if e.func == "log":
            return _div(da, e.arg)
        if e.func == "sin":
            return _mul(Call("cos", e.arg), da)
        if e.func == "cos":
            return _neg(_mul(Call("sin", e.arg), da))
        if e.func == "sqrt":
            return _div(da, _mul(Const(2 + 0j), e))
    raise TypeError(f"not an Expr node: {e!r}")
