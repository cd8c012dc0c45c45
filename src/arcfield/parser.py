"""Parsers for series literals, map expressions and polynomial specs.

Series grammar (whitespace-insensitive, ASCII only)::

    series := ['-'] term (('+'|'-') term)* ['+' 'O(' 't^' exp ')'] | 'O(' 't^' exp ')'
    term   := rat ['*' 't^' exp] | 't^' exp | 't'
    exp    := int | '(' int '/' posint ')'
    rat    := int ['/' posint]

Map grammar: usual precedence (^ above unary minus above * and / above + and -),
parentheses, a declared variable list, exponents only as integers or
parenthesized integer fractions, and top-level tuples ``(e1, e2, ...)`` for
vector maps.

Every rejection is a ParseError carrying the byte span of the offending
token; arbitrary input never escapes as anything else.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import (
    DuplicateExponent,
    NonRationalExponent,
    ParseError,
    UnknownVariable,
)
from .mapexpr import (
    Add,
    Const,
    Div,
    Expr,
    MapExpr,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
)
from .newton import PolyOverSeries
from .puiseux import PuiseuxSeries


def _is_digit(ch: str) -> bool:
    """An ASCII digit; ``str.isdigit`` also takes other scripts' digits."""
    return "0" <= ch <= "9"


class _Scanner:
    """Byte-position tokenizer shared by both grammars.

    It reads ``text[start:end]``, and every span it reports is a position in
    the whole ``text``.
    """

    def __init__(self, text: str, start: int = 0, end: Optional[int] = None):
        self.text = text
        self.pos = start
        self.end = len(text) if end is None else end

    def skip_ws(self):
        while self.pos < self.end and (ch := self.text[self.pos]).isascii() and ch.isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < self.end else ""

    def error(self, expected: str, start=None, end=None, cls=ParseError) -> ParseError:
        """``cls`` for the bytes start..end, by default the next character,
        which it quotes as found; past the end, found is 'end of input'."""
        if start is None:
            self.skip_ws()
            start = self.pos
        if end is None:
            end = min(self.end, start + 1)
        found = self.text[start:end] if start < self.end else "end of input"
        return cls(start, end, expected, repr(found), self.text)

    def take(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.take(literal):
            raise self.error(f"{literal!r}")

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= self.end

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < self.end and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < self.end and _is_digit(self.text[self.pos]):
            self.pos += 1
        if self.pos == digits:
            self.pos = start
            raise self.error("an integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past the interpreter's digit limit, which bounds work
            expected = f"an integer of at most {sys.get_int_max_str_digits()} digits"
            found = f"{self.pos - digits} digits"
            raise ParseError(start, self.pos, expected, found, self.text) from None

    def bounded_integer(self, low: int, expected: str, cls=ParseError) -> int:
        """An integer of at least ``low``; a smaller one is refused at its bytes."""
        self.skip_ws()
        start = self.pos
        n = self.integer()
        if n < low:
            raise self.error(expected, start, self.pos, cls)
        return n

    def ident(self) -> Optional[str]:
        self.skip_ws()
        start = self.pos
        while self.pos < self.end and (
            (ch := self.text[self.pos]).isascii() and ch.isalpha() or ch == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos] or None


def _exp_value(sc: _Scanner, cls=ParseError) -> Fraction:
    """exp := int | '(' int '/' posint ')'; ``cls`` for a denominator below 1"""
    if sc.take("("):
        num = sc.integer()
        sc.expect("/")
        den = sc.bounded_integer(1, "a positive denominator", cls)
        sc.expect(")")
        return Fraction(num, den)
    return Fraction(sc.integer())


# -- series literals -------------------------------------------------------------


def parse_series(text: str, start: int = 0, end: Optional[int] = None) -> PuiseuxSeries:
    """Parse the canonical series grammar into a truncated series.

    ``start`` and ``end`` select a slice of ``text`` to parse; error spans
    stay positions in the whole ``text``.
    """
    sc = _Scanner(text, start, end)
    terms: List[Tuple[Fraction, Fraction]] = []
    seen = {}
    trunc = None
    sign = -1 if sc.take("-") else 1
    first = True
    while True:
        if sc.peek() == "O":
            trunc = _parse_o_marker(sc)
            break
        start = sc.pos
        exp, coeff = _parse_term(sc)
        if exp in seen:
            raise sc.error("a fresh exponent", start, sc.pos, DuplicateExponent)
        seen[exp] = True
        terms.append((exp, sign * coeff))
        first = False
        if sc.take("+"):
            sign = 1
        elif sc.take("-"):
            sign = -1
        else:
            break
    if first and trunc is None:
        raise sc.error("a series term")
    if not sc.at_end():
        raise sc.error("end of series")
    return PuiseuxSeries(terms, trunc=trunc)


def _parse_o_marker(sc: _Scanner) -> Fraction:
    sc.expect("O")
    sc.expect("(")
    sc.expect("t")
    sc.expect("^")
    e = _exp_value(sc)
    sc.expect(")")
    return e


def _parse_term(sc: _Scanner) -> Tuple[Fraction, Fraction]:
    """term := rat ['*' 't^' exp] | 't^' exp | 't'"""
    ch = sc.peek()
    if ch == "t":
        return _t_power(sc), Fraction(1)
    if not (_is_digit(ch) or ch in "+-"):
        raise sc.error("a coefficient or 't'")
    num = sc.integer()
    coeff = Fraction(num)
    if sc.take("/"):
        coeff = Fraction(num, sc.bounded_integer(1, "a positive denominator"))
    save = sc.pos
    if sc.take("*"):
        if sc.peek() == "t":
            return _t_power(sc), coeff
        sc.pos = save  # the '*' belongs to an enclosing grammar (e.g. 2*X)
    return Fraction(0), coeff


def _t_power(sc: _Scanner) -> Fraction:
    """'t' ['^' exp], read for its exponent"""
    sc.expect("t")
    return _exp_value(sc) if sc.take("^") else Fraction(1)


# -- map expressions --------------------------------------------------------------


def parse_map(text: str, var_names=("x", "y")) -> MapExpr:
    """Parse a scalar expression or a top-level tuple into a MapExpr."""
    sc = _Scanner(text)
    exprs = _parse_tuple_or_expr(sc, tuple(var_names))
    if not sc.at_end():
        raise sc.error("end of expression")
    return MapExpr(tuple(exprs), tuple(var_names))


def _parse_tuple_or_expr(sc: _Scanner, names) -> List[Expr]:
    # a leading '(' opens a tuple only if a depth-one comma follows
    save = sc.pos
    if sc.take("("):
        first = _parse_sum(sc, names)
        if sc.take(","):
            exprs = [first]
            while True:
                exprs.append(_parse_sum(sc, names))
                if sc.take(","):
                    continue
                sc.expect(")")
                return exprs
        sc.expect(")")
        # plain parenthesized scalar: keep parsing operators after it
        sc.pos = save
    return [_parse_sum(sc, names)]


def _parse_sum(sc: _Scanner, names) -> Expr:
    left = _parse_product(sc, names)
    while True:
        if sc.take("+"):
            left = Add(left, _parse_product(sc, names))
        elif sc.take("-"):
            left = Sub(left, _parse_product(sc, names))
        else:
            return left


def _parse_product(sc: _Scanner, names) -> Expr:
    left = _parse_unary(sc, names)
    while True:
        if sc.take("*"):
            left = Mul(left, _parse_unary(sc, names))
        elif sc.take("/"):
            left = Div(left, _parse_unary(sc, names))
        else:
            return left


def _parse_unary(sc: _Scanner, names) -> Expr:
    if sc.take("-"):
        return Neg(_parse_unary(sc, names))
    return _parse_power(sc, names)


def _parse_power(sc: _Scanner, names) -> Expr:
    base = _parse_atom(sc, names)
    while sc.take("^"):
        ch = sc.peek()
        if not (ch == "(" or _is_digit(ch) or ch in "+-"):
            raise sc.error("an integer or (p/q) exponent", cls=NonRationalExponent)
        base = Pow(base, _exp_value(sc, NonRationalExponent))
    return base


def _parse_atom(sc: _Scanner, names) -> Expr:
    ch = sc.peek()
    if ch == "(":
        sc.expect("(")
        inner = _parse_sum(sc, names)
        sc.expect(")")
        return inner
    if _is_digit(ch):
        # integer constants only; "3/2" is ordinary division, which keeps
        # literal and operator readings from colliding in chains like a/1/4
        return Const(Fraction(sc.integer()))
    start = sc.pos
    name = sc.ident()
    if name is None:
        raise sc.error("a variable, constant or '('")
    if name not in names:
        raise sc.error(f"one of {', '.join(names)}", start, sc.pos, UnknownVariable)
    return Var(names.index(name), name)


# -- polynomial specs --------------------------------------------------------------


def parse_poly(text: str) -> PolyOverSeries:
    """Polynomial in X with series coefficients.

    Two surface forms: a semicolon-separated list of series literals by
    ascending degree (``"-t - t^2; 0; 1"``), or polynomial text such as
    ``"X^2 - (t + t^2)"`` where coefficients are series atoms, constants, or
    parenthesized series literals.
    """
    if ";" in text:
        return PolyOverSeries(tuple(parse_series(text, a, b) for a, b in chunk_spans(text)))
    sc = _Scanner(text)
    acc: dict = {}
    sign = -1 if sc.take("-") else 1
    while True:
        deg, coeff = _parse_poly_term(sc)
        acc[deg] = acc.get(deg, PuiseuxSeries.zero()) + coeff.scale(sign)
        if sc.take("+"):
            sign = 1
        elif sc.take("-"):
            sign = -1
        else:
            break
    if not sc.at_end():
        raise sc.error("end of polynomial")
    top = max(acc)
    coeffs = [acc.get(d, PuiseuxSeries.zero()) for d in range(top + 1)]
    return PolyOverSeries(tuple(coeffs))


def chunk_spans(text: str):
    """``(start, end)`` of each ``;``-separated chunk, whitespace stripped,
    for ``parse_series(text, start, end)``."""
    start = 0
    for chunk in text.split(";"):
        body = chunk.lstrip()
        a = start + len(chunk) - len(body)
        yield a, a + len(body.rstrip())
        start += len(chunk) + 1


def _parse_poly_term(sc: _Scanner):
    """polyterm := coef ['*' Xpow] | Xpow; coef := rat | 't'-term | '(' series ')'"""
    ch = sc.peek()
    if ch == "X":
        return _parse_x_power(sc), PuiseuxSeries.one()
    if ch == "(":
        start = sc.pos
        depth = 0
        i = sc.pos
        while i < sc.end:
            if sc.text[i] == "(":
                depth += 1
            elif sc.text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if depth != 0:
            raise ParseError(start, sc.end, "a closing ')'", repr("end of input"), sc.text)
        series = parse_series(sc.text, start + 1, i)
        sc.pos = i + 1
    else:
        exp, coeff = _parse_term(sc)
        series = PuiseuxSeries(((exp, coeff),))
    if sc.take("*"):
        return _parse_x_power(sc), series
    return 0, series


def _parse_x_power(sc: _Scanner) -> int:
    sc.expect("X")
    if sc.take("^"):
        return sc.bounded_integer(0, "a nonnegative degree")
    return 1

