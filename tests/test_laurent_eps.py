"""``LaurentEps``, a series of the kernel, against the dict arithmetic it replaced.

``ReferenceLaurent`` below is the Laurent-polynomial ring ``LaurentEps`` had
of its own before it became an exact ``PuiseuxSeries`` in the parameter: a
dict that accumulates ``int``-keyed ``Fraction`` coefficients, then a sort.
Every drawn operation must give the same terms, the same error class and
message, and a result that is again an exact ``LaurentEps`` of ramification 1.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arcfield.errors import IrrationalLeadingRoot, NegativeBaseForEvenRoot
from arcfield.param_series import LaurentEps
from arcfield.qarith import rational_pow

F = Fraction


class ReferenceLaurent:
    """The former dict-based Laurent polynomial: sorted, nonzero, int exponents."""

    def __init__(self, terms=()):
        if isinstance(terms, dict):
            terms = terms.items()
        acc = {}
        for k, c in terms:
            acc[int(k)] = acc.get(int(k), F(0)) + F(c)
        self.terms = tuple(sorted((k, c) for k, c in acc.items() if c != 0))

    @staticmethod
    def coerce(x):
        return x if isinstance(x, ReferenceLaurent) else ReferenceLaurent({0: x})

    def __add__(self, other):
        return ReferenceLaurent(self.terms + self.coerce(other).terms)

    __radd__ = __add__

    def __neg__(self):
        return ReferenceLaurent(tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other):
        return self + (-self.coerce(other))

    def __rsub__(self, other):
        return self.coerce(other) + (-self)

    def __mul__(self, other):
        acc = {}
        for k1, c1 in self.terms:
            for k2, c2 in self.coerce(other).terms:
                acc[k1 + k2] = acc.get(k1 + k2, F(0)) + c1 * c2
        return ReferenceLaurent(acc)

    __rmul__ = __mul__

    def pow_rational(self, e):
        if len(self.terms) != 1:
            if e.denominator % 2 == 0 and self.terms[0][1] < 0:
                # the message renders the lead as LaurentEps does
                lead = LaurentEps(self.terms)
                raise NegativeBaseForEvenRoot(f"even root of a negative lead: ({lead})^{e}")
            if e.denominator != 1 or e < 0:
                raise IrrationalLeadingRoot("leading coefficient is not a parameter monomial")
            out = ReferenceLaurent({0: 1})
            for _ in range(e.numerator):
                out = out * self
            return out
        k, c = self.terms[0]
        ke = k * e
        if ke.denominator != 1:
            raise IrrationalLeadingRoot(f"parameter exponent {k}*{e} is not an integer")
        if c < 0 and e.denominator % 2 == 0:
            raise NegativeBaseForEvenRoot(f"even root of a negative lead: ({c})^{e}")
        p = rational_pow(c, e)
        if p is None:
            raise IrrationalLeadingRoot(f"({c})^{e} is irrational")
        return ReferenceLaurent({int(ke): p})

    def as_integer_ratio(self):
        d = 1
        for _k, a in self.terms:
            d = math.lcm(d, a.denominator)
        return tuple((k, a.numerator * (d // a.denominator)) for k, a in self.terms), d

    def at(self, eps0):
        return sum((c * F(eps0) ** k for k, c in self.terms), F(0))


COEFFS = st.builds(F, st.integers(-9, 9), st.integers(1, 6))
ROWS = st.dictionaries(st.integers(-3, 3), COEFFS, max_size=4)
SCALARS = st.one_of(st.integers(-5, 5), COEFFS)
# powers of a monomial c e^k: squares, cubes and non-powers, of either sign
MONOMIAL_COEFFS = st.sampled_from([F(1), F(-1), F(4), F(-8), F(9, 4), F(-27, 8), F(2), F(-3, 5)])
EXPONENTS = st.sampled_from([F(0), F(1), F(2), F(3), F(-1), F(-2), F(1, 2), F(-1, 2),
                             F(1, 3), F(2, 3), F(-1, 3), F(3, 2), F(1, 4)])


def pair(row):
    return LaurentEps(row), ReferenceLaurent(row)


def assert_same(got, want):
    assert type(got) is LaurentEps
    assert got.ram == 1 and got.trunc is None
    assert got.terms == want.terms
    assert all(k.denominator == 1 for k, _c in got.terms)


def outcome(f, *args):
    try:
        return f(*args), None
    except (IrrationalLeadingRoot, NegativeBaseForEvenRoot) as exc:
        return None, (type(exc), str(exc))


OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
}


@settings(max_examples=300, deadline=None)
@given(ROWS, ROWS, st.sampled_from(sorted(OPS)))
def test_ring_operations_match_the_reference(r1, r2, op):
    (a, ra), (b, rb) = pair(r1), pair(r2)
    assert_same(OPS[op](a, b), OPS[op](ra, rb))
    assert_same(-a, -ra)


@settings(max_examples=300, deadline=None)
@given(ROWS, SCALARS, st.sampled_from(sorted(OPS)), st.booleans())
def test_scalars_on_either_side_match_the_reference(row, scalar, op, left):
    a, ra = pair(row)
    if left:
        got, want = OPS[op](scalar, a), OPS[op](scalar, ra)
    else:
        got, want = OPS[op](a, scalar), OPS[op](ra, scalar)
    assert_same(got, want)


@settings(max_examples=300, deadline=None)
@given(st.integers(-3, 3), MONOMIAL_COEFFS, EXPONENTS)
def test_monomial_powers_match_the_reference(k, c, e):
    a, ra = pair({k: c})
    got, got_error = outcome(a.pow_rational, e)
    want, want_error = outcome(ra.pow_rational, e)
    assert got_error == want_error
    if want is not None:
        assert_same(got, want)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(-3, 3), COEFFS.filter(bool), min_size=2, max_size=4),
       EXPONENTS)
def test_powers_of_a_non_monomial_match_the_reference(row, e):
    a, ra = pair(row)
    got, got_error = outcome(a.pow_rational, e)
    want, want_error = outcome(ra.pow_rational, e)
    assert got_error == want_error
    if want is not None:
        assert_same(got, want)


@settings(max_examples=200, deadline=None)
@given(ROWS, COEFFS.filter(bool))
def test_integer_rows_and_values_match_the_reference(row, eps0):
    a, ra = pair(row)
    got = a.as_integer_ratio()
    assert got == ra.as_integer_ratio()
    assert all(type(k) is int for k, _a in got[0])
    assert a.at(eps0) == ra.at(eps0)


def test_a_monomial_divides_and_renders_in_the_parameter():
    c = LaurentEps({-1: F(1, 4)})
    assert_same(1 / c, ReferenceLaurent({1: 4}))
    assert repr(c) == "LaurentEps(1/4*e^-1)"
    with pytest.raises(IrrationalLeadingRoot):
        1 / LaurentEps({0: 1, 1: 1})
