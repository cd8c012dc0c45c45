import random
import string
from fractions import Fraction

import pytest

from conftest import random_series

from arcfield.errors import (
    DuplicateExponent,
    NonRationalExponent,
    ParseError,
    UnknownVariable,
)
from arcfield.mapexpr import (
    Add,
    Const,
    Div,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    MapExpr,
    render_map,
)
from arcfield.newton import np_roots
from arcfield.parser import parse_map, parse_poly, parse_series
from arcfield.puiseux import PuiseuxSeries, render_series

F = Fraction


class TestSeries:
    def test_spec_literal(self):
        s = parse_series("3/2*t^(5/2) - t^3 + O(t^4)")
        assert s.terms == ((F(5, 2), F(3, 2)), (F(3), F(-1)))
        assert s.trunc == 4
        assert s.ram == 2

    def test_plain_t_exact(self):
        s = parse_series("t")
        assert s == PuiseuxSeries.t_power(1)
        assert s.trunc is None

    def test_ramification_lcm(self):
        s = parse_series("1 + t^(1/2) + t^(1/3)")
        assert s.ram == 6
        assert len(s.terms) == 3

    def test_leading_minus_and_marker_only(self):
        assert parse_series("-t + O(t^2)").terms == ((F(1), F(-1)),)
        assert parse_series("O(t^7)").trunc == 7

    def test_duplicate_exponent(self):
        with pytest.raises(DuplicateExponent):
            parse_series("t + 2*t^1")

    def test_error_spans_inside_input(self):
        bad = ["t^", "1 +", "t^(1/2", "* t", "3/0", ""]
        for text in bad:
            with pytest.raises(ParseError) as info:
                parse_series(text)
            assert 0 <= info.value.start <= len(text)
            assert info.value.start <= info.value.end

    def test_roundtrip_random(self):
        rng = random.Random(71)
        for _ in range(200):
            s = random_series(rng, max_terms=5)
            text = render_series(s)
            assert parse_series(text) == s


class TestMaps:
    def test_stretch_expression(self):
        m = parse_map("(x*(1 + y^2/(x^2+y^2))^(1/4), y)")
        assert m.out_dim == 2 and m.arity == 2
        first = m.exprs[0]
        assert isinstance(first, Mul)
        assert isinstance(first.right, Pow)
        assert first.right.exponent == F(1, 4)
        assert m.exprs[1] == Var(1, "y")

    def test_whitney(self):
        m = parse_map("(u, u*v, v^(2/1))", ("u", "v"))
        assert m.out_dim == 3
        assert m.exprs[2] == Pow(Var(1, "v"), F(2))

    def test_single_variable(self):
        m = parse_map("x")
        assert m.exprs == (Var(0, "x"),)

    def test_precedence(self):
        m = parse_map("-x^2 + y*x / 2")
        expr = m.exprs[0]
        assert isinstance(expr, Add)
        assert isinstance(expr.left, Neg)
        assert isinstance(expr.left.arg, Pow)

    def test_unknown_variable_span(self):
        with pytest.raises(UnknownVariable) as info:
            parse_map("x + longname * y")
        assert info.value.found == "'longname'"
        assert info.value.start == 4

    def test_non_rational_exponent(self):
        with pytest.raises(NonRationalExponent):
            parse_map("x^y")

    def test_roundtrip_random(self):
        rng = random.Random(73)
        names = ("x", "y")
        for _ in range(100):
            m = MapExpr((_random_expr(rng, 0),), names)
            text = render_map(m)
            again = parse_map(text, names)
            assert render_map(again) == text

    def test_fuzz_never_crashes(self):
        rng = random.Random(79)
        alphabet = string.printable
        for _ in range(400):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            try:
                parse_series(text)
            except ParseError as e:
                assert 0 <= e.start <= max(1, len(text))
            try:
                parse_map(text)
            except ParseError as e:
                assert 0 <= e.start <= max(1, len(text))


@pytest.mark.parametrize("parse, text, found", [
    pytest.param(parse_map, "x^٣", "٣", id="map-exponent"),
    pytest.param(parse_map, "٣*x", "٣", id="map-constant"),
    pytest.param(parse_series, "t^(١/٢)", "١", id="series-exponent"),
    pytest.param(parse_series, "٣*t", "٣", id="series-coefficient"),
    pytest.param(parse_series, "2٣*t", "٣", id="series-after-a-digit"),
    pytest.param(parse_poly, "X^٢ - t", "٢", id="poly-degree"),
    pytest.param(parse_poly, "X^2 - ٢*t", "٢", id="poly-coefficient"),
    pytest.param(parse_map, "x^²", "²", id="superscript"),
])
def test_only_ascii_digits_are_read(parse, text, found):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.found == repr(found)
    assert text[info.value.start:info.value.end] == found


# the scanner reads ASCII only, so a span counts bytes as well as characters
@pytest.mark.parametrize("parse, text, span", [
    pytest.param(parse_map, "x\u00a0+ x", (1, 2), id="map-no-break-space"),
    pytest.param(parse_series, "t\u2003+ t^2", (1, 2), id="series-em-space"),
    pytest.param(parse_poly, "X^2\u3000- t", (3, 4), id="poly-ideographic-space"),
    pytest.param(lambda text: parse_map(text, ("\u00e9",)), "\u00e9^2", (0, 1), id="map-letter"),
    # the name ends before its first letter past ASCII, and 'x' is not declared
    pytest.param(lambda text: parse_map(text, ("x\u00e9",)), "x\u00e9", (0, 1),
                 id="map-letter-in-a-name"),
])
def test_only_ascii_space_and_letters_are_read(parse, text, span):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.start, info.value.end) == span


class TestPoly:
    def test_polynomial_text(self):
        p = parse_poly("X^2 - (t + t^2)")
        assert [render_series(c) for c in p.coeffs] == ["-t - t^2", "0", "1"]

    def test_series_list(self):
        p = parse_poly("-t - t^2; 0; 1")
        assert p.degree == 2
        branches = np_roots(p, F(7, 2))
        assert len(branches) == 2

    def test_mixed_terms(self):
        p = parse_poly("X^3 + t*X - t")
        assert [render_series(c) for c in p.coeffs] == ["-t", "t", "0", "1"]

    def test_integer_coefficient_term(self):
        p = parse_poly("2*X^2 - 3")
        assert [render_series(c) for c in p.coeffs] == ["-3", "0", "2"]


def _random_expr(rng, depth):
    if depth > 3 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var(rng.randrange(2), ("x", "y")[rng.randrange(2)])
        return Const(F(rng.randint(0, 9), rng.randint(1, 5)))
    kind = rng.randrange(5)
    a = _random_expr(rng, depth + 1)
    b = _random_expr(rng, depth + 1)
    if kind == 0:
        return Add(a, b)
    if kind == 1:
        return Sub(a, b)
    if kind == 2:
        return Mul(a, b)
    if kind == 3:
        return Div(a, b)
    return Pow(a, F(rng.randint(-3, 5), rng.choice((1, 1, 2, 3))))

