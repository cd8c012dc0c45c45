"""Exact powers against a copy of the plain Fraction binomial recurrence.

``reference_pow`` is the exact path of ``pow_rational`` written out with
Fraction arithmetic only: split off the leading term, run the first-order
recurrence of (1 + u) h' = e u' h on Fractions (or the terminating binomial
sum for an exact integer power), then scale and shift.  The kernel computes
integer powers by products and other powers on an integer lattice; both must
give the same terms, ``trunc`` and ``ram``, and the same error class.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from arcfield import puiseux
from arcfield.errors import (
    FloatOverflow,
    GuardViolation,
    IrrationalLeadingRoot,
    NegativeBaseForEvenRoot,
    RamificationOverflow,
    UnboundedExpansion,
    ZeroUpToTruncationError,
)
from arcfield.puiseux import PuiseuxSeries
from arcfield.qarith import float_pow, lcm, rational_pow

F = Fraction


def reference_binomial(u, e, rel):
    if u.is_zero():
        one = PuiseuxSeries.one()
        return one if rel is None else one + PuiseuxSeries.unknown(rel)
    if rel is None:
        out = PuiseuxSeries.one()
        term = PuiseuxSeries.one()
        coeff = F(1)
        for k in range(1, int(e) + 1):
            coeff = coeff * (e - (k - 1)) / k
            if coeff == 0:
                break
            term = term * u
            out = out + term.scale(coeff)
        return out
    ram = u.ram
    n_max = math.ceil(rel * ram) - 1
    if n_max < 0:
        return PuiseuxSeries((), trunc=rel, ram=ram)
    ua = {}
    for exp, c in u.terms:
        idx = int(exp * ram)
        if 0 < idx <= n_max:
            ua[idx] = c
    h = [F(0)] * (n_max + 1)
    h[0] = F(1)
    for n in range(1, n_max + 1):
        h[n] = sum((((e + 1) * j - n) * a * h[n - j] for j, a in ua.items() if j <= n), F(0)) / n
    terms = tuple((F(n, ram), h[n]) for n in range(n_max + 1) if h[n])
    return PuiseuxSeries._canonical(terms, rel, ram)


def reference_pow(f, e, order=None):
    e = F(e)
    terminates = e.denominator == 1 and e >= 0
    if not f.terms:
        if f.is_zero():
            if e < 0:
                raise GuardViolation("zero base with negative exponent")
            return PuiseuxSeries.one() if e == 0 else PuiseuxSeries.zero()
        if terminates and e > 0:
            return PuiseuxSeries((), trunc=e * f.trunc, ram=f.ram)
        raise ZeroUpToTruncationError(f.trunc)
    if e == 0:
        return PuiseuxSeries.one()
    v, c = f.terms[0]
    rest = PuiseuxSeries._canonical(f.terms[1:], f.trunc, f.ram)
    u = rest.shift(-v).scale(1 / c)
    if c < 0 and e.denominator % 2 == 0:
        raise NegativeBaseForEvenRoot(f"even root of a negative lead: ({c})^{e}")
    lead_pow = rational_pow(c, e)
    if lead_pow is None:
        raise IrrationalLeadingRoot(f"({c})^{e} is irrational")
    head_exp = e * v
    if u.is_zero():
        return PuiseuxSeries(((head_exp, lead_pow),))
    rel = None if f.trunc is None else f.trunc - v
    if not terminates:
        if order is not None:
            cap = F(order) - head_exp
            rel = cap if rel is None else min(rel, cap)
        if rel is None:
            raise UnboundedExpansion("needs an order")
    return reference_binomial(u, e, rel).scale(lead_pow).shift(head_exp)


def outcome(fn):
    try:
        out = fn()
    except Exception as exc:  # the class is what must agree
        return type(exc)
    return out.terms, out.trunc, out.ram


EXPONENTS = [F(2), F(3), F(5), F(-1), F(-2), F(5, 3), F(-1, 4)] + [
    F(s, q) for s in (1, -1) for q in (2, 3, 4, 5, 7)
]
SMALL = st.integers(min_value=-9, max_value=9).filter(bool)


@st.composite
def power_cases(draw):
    """(f, e, order): ram 1-24, relative order up to 32, every operand shape,
    the exactly zero series too."""
    ram = draw(st.integers(min_value=1, max_value=24))
    e = draw(st.sampled_from(EXPONENTS))
    shape = draw(st.sampled_from(("exact", "truncated", "monomial", "unknown", "zero")))
    v = F(draw(st.integers(min_value=-2 * ram, max_value=4 * ram)), ram)
    order = draw(st.one_of(
        st.none(), st.integers(min_value=-ram, max_value=32 * ram).map(lambda k: e * v + F(k, ram))
    ))
    if shape == "unknown":
        return PuiseuxSeries((), trunc=v, ram=ram), e, order
    if shape == "zero":
        return PuiseuxSeries.zero(), e, order
    base = F(draw(SMALL), draw(st.integers(min_value=1, max_value=5)))
    # mostly an exact q-th power, so that most roots get past their lead
    power = base ** e.denominator
    lead = draw(st.sampled_from((power, power, abs(power), -power, base)))
    terms = [(v, lead)]
    if shape != "monomial":
        offsets = draw(st.lists(st.integers(min_value=1, max_value=32 * ram),
                                max_size=4, unique=True))
        for k in offsets:
            terms.append((v + F(k, ram), F(draw(SMALL), draw(st.integers(1, 6)))))
    trunc = None
    if shape == "truncated":
        trunc = v + F(draw(st.integers(min_value=1, max_value=32 * ram)), ram)
    return PuiseuxSeries(terms, trunc=trunc, ram=ram), e, order


@settings(max_examples=600, deadline=None)
@given(power_cases())
def test_pow_rational_matches_the_fraction_recurrence(case):
    f, e, order = case
    assert outcome(lambda: f.pow_rational(e, order=order)) == outcome(
        lambda: reference_pow(f, e, order)
    )


def test_exact_monomial_square_reduces_ramification():
    f = PuiseuxSeries.t_power(F(11, 4), F(5))
    sq = f.pow_rational(2)
    assert sq.terms == ((F(11, 2), F(25)),) and sq.trunc is None and sq.ram == 2
    assert (f * f).ram == 4


def test_integer_power_of_a_product_beyond_the_cap_overflows():
    f = PuiseuxSeries.t_power(F(1, 8)) * (1 + PuiseuxSeries.t_power(F(1, 3)))
    cap = puiseux.get_ram_cap()
    puiseux.set_ram_cap(8)
    try:
        for e in (2, F(1, 2), -1):
            with pytest.raises(RamificationOverflow):
                f.pow_rational(e, order=4)
            with pytest.raises(RamificationOverflow):
                reference_pow(f, e, order=4)
    finally:
        puiseux.set_ram_cap(cap)


def test_large_denominators_late_in_u_stay_exact():
    # u = t^(1/24) + t^(23/24)/999983: on the integer lattice M is 999983,
    # about 19 bits a step more than the true denominators need
    f = PuiseuxSeries([(0, 1), (F(1, 24), 1), (F(23, 24), F(1, 999983))])
    got = f.pow_rational(F(1, 3), order=32)
    assert (got.terms, got.trunc, got.ram) == outcome(lambda: reference_pow(f, F(1, 3), 32))


def test_sparse_u_runs_on_the_coarse_lattice():
    # only multiples of 12 carry terms: the recurrence runs in t^(1/2)
    f = PuiseuxSeries([(0, F(1, 9)), (F(1, 2), F(3, 5)), (F(3, 2), F(-7, 3))], ram=24)
    for e in (F(-1), F(1, 2), F(-3, 2)):
        got = f.pow_rational(e, order=20)
        assert got.ram == 24
        assert (got.terms, got.trunc, got.ram) == outcome(lambda: reference_pow(f, e, 20))


@pytest.mark.parametrize("e", [F(2), F(-1), F(1, 2), F(-1, 4), F(5, 3)])
def test_numeric_powers_agree_with_exact_ones(e):
    # the lead 2^12 has an exact e-th power, so the exact kernel is the oracle
    exact = PuiseuxSeries([(F(1, 2), F(4096)), (F(5, 6), F(3, 5)), (F(3, 2), F(-7, 3))], trunc=F(4))
    numeric = PuiseuxSeries([(x, float(c)) for x, c in exact.terms], trunc=exact.trunc, ram=exact.ram)
    want = exact.pow_rational(e, order=6)
    got = numeric.pow_rational(e, order=6)
    assert (got.trunc, got.ram) == (want.trunc, want.ram)
    assert all(isinstance(c, float) for _x, c in got.terms)
    # rounding may leave a tiny coefficient where the exact one cancels
    got, want = dict(got.terms), dict(want.terms)
    tol = 1e-12 * max(abs(c) for c in want.values())
    for x in got.keys() | want.keys():
        assert math.isclose(got.get(x, 0.0), want.get(x, 0), rel_tol=1e-9, abs_tol=tol)


def test_numeric_integer_power_is_a_product_chain():
    f = PuiseuxSeries([(F(1, 2), 0.3), (F(5, 6), -1.7), (F(3, 2), 2.1)], trunc=F(4))
    for n in (2, 3, 4):
        chain = f
        for _ in range(n - 1):
            chain = chain * f
        assert f.pow_rational(n) == chain


# -- float coefficients: the exact expansion of the floats' values, rounded once


def float_oracle(f, e, order):
    """lead * sum_k C(e, k) u^k on the exact values of the floats of f, by
    kernel products on Fractions, each coefficient rounded once.  u =
    (f / c t^v) - 1 is built by Fraction division, because a float quotient
    is rounded whatever the lead c: by a lead that is not a power of 2, and
    below the normal range by one that is.  ``lead`` is the float power of c."""
    v, c = f.terms[0]
    head = e * v
    rel = None if f.trunc is None else f.trunc - v
    if order is not None:
        rel = F(order) - head if rel is None else min(rel, F(order) - head)
    lead = F(float_pow(c, e))
    u = PuiseuxSeries(tuple((x - v, F(k) / F(c)) for x, k in f.terms[1:]),
                      trunc=None if f.trunc is None else f.trunc - v, ram=f.ram)
    total = PuiseuxSeries.one() + PuiseuxSeries.unknown(rel)
    power, coeff = PuiseuxSeries.one(), F(1)
    # ord u >= 1/ram, so u^k lies past rel from k = rel * ram on
    for k in range(1, max(0, math.ceil(rel * f.ram)) + 1):
        coeff = coeff * (e - (k - 1)) / k
        power = (power * u).truncate(rel)
        total = total + power.scale(coeff)
    terms = tuple((x + head, q) for x, a in total.terms if (q := float(lead * a)))
    return terms, rel + head, lcm(f.ram, head.denominator)


# below the normal range a float has fewer than 53 significant bits, and a
# float product taken there before an exact step is rounded
MIN_NORMAL = 2.2250738585072014e-308
SUBNORMAL = st.one_of(
    st.sampled_from((5e-324, 2.2250738585e-313, MIN_NORMAL - 5e-324)),
    st.floats(min_value=5e-324, max_value=MIN_NORMAL, exclude_max=True),
)
NEAR_SUBNORMAL = st.floats(min_value=MIN_NORMAL, max_value=1e-300)


@st.composite
def float_power_cases(draw):
    """(f, e, order) over floats: ram 1-24, truncated operands, e with
    denominators up to 6, leads that are powers of 2 and leads that are not,
    signed coefficients, subnormal and near-subnormal ones, and powers that
    cancel."""
    ram = draw(st.integers(min_value=1, max_value=24))
    e = draw(st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(
        lambda x: x and not (x.denominator == 1 and x > 0)))
    v = F(draw(st.integers(min_value=-2 * ram, max_value=3 * ram)), ram)
    sign = 1 if e.denominator % 2 == 0 else draw(st.sampled_from((1, -1)))
    magnitude = draw(st.one_of(
        st.integers(min_value=-2, max_value=2).map(lambda k: 2.0**k),
        st.floats(min_value=0.1, max_value=10).filter(lambda x: math.frexp(x)[0] != 0.5),
    ))
    c = F(sign * magnitude)
    if draw(st.booleans()):
        # (c t^v + a t^(v + j/ram))^q with a dyadic a: the e = p/q power is
        # a polynomial, so every coefficient past it cancels exactly
        a = F(draw(SMALL), 2 ** draw(st.integers(min_value=0, max_value=3)))
        j = draw(st.integers(min_value=1, max_value=3))
        exact = PuiseuxSeries([(v, c), (v + F(j, ram), a)]).pow_rational(e.denominator)
    else:
        offsets = draw(st.lists(st.integers(min_value=1, max_value=12), min_size=1,
                                max_size=4, unique=True))
        tiny = st.one_of(SUBNORMAL, NEAR_SUBNORMAL)
        coeffs = st.one_of(
            st.floats(min_value=-9, max_value=9, allow_nan=False).filter(bool),
            st.tuples(st.sampled_from((1, -1)), tiny).map(lambda p: p[0] * p[1]),
        )
        exact = PuiseuxSeries([(v, c)] + [(v + F(k, ram), F(draw(coeffs))) for k in offsets])
    trunc = None
    if draw(st.booleans()):
        trunc = exact.terms[0][0] + F(draw(st.integers(min_value=1, max_value=12)), ram)
    f = PuiseuxSeries([(x, float(q)) for x, q in exact.terms if trunc is None or x < trunc],
                      trunc=trunc, ram=exact.ram)
    head = e * f.terms[0][0]
    order = draw(st.integers(min_value=-2, max_value=12).map(lambda k: head + F(k, f.ram)))
    return f, e, order


@settings(max_examples=150, deadline=None)
@given(float_power_cases())
# a subnormal coefficient under a power-of-2 lead, and a lead that is not one
@example((PuiseuxSeries([(0, 4.0), (1, 2.2250738585e-313)]), F(3, 5), F(2)))
@example((PuiseuxSeries([(0, 3.0), (1, 1.0)]), F(-1), F(3)))
def test_float_power_is_the_exact_expansion_rounded_once(case):
    f, e, order = case
    cap = puiseux.get_ram_cap()
    puiseux.set_ram_cap(1024)
    try:
        got = f.inv(order=order) if e == -1 else f.pow_rational(e, order=order)
        want = float_oracle(f, e, order)
    finally:
        puiseux.set_ram_cap(cap)
    assert all(isinstance(q, float) for _x, q in got.terms)
    assert (got.terms, got.trunc, got.ram) == want


def test_float_inverse_is_rounded_once():
    # 1/(3 + t) = (1/3) (1 + t/3)^-1: the t^2 coefficient is fl(1/3), the
    # float power of the lead, times the exact 1/9, rounded once
    got = PuiseuxSeries([(0, 3.0), (1, 1.0)]).pow_rational(-1, order=3)
    assert got.coeff(2) == float(F(1 / 3) / 9) == 0.037037037037037035
    assert got.terms == ((F(0), 1 / 3), (F(1), -1 / 9), (F(2), 0.037037037037037035))


def test_float_power_drops_a_coefficient_that_underflows():
    f = PuiseuxSeries([(0, 1.0), (1, 1e-200)])
    got = f.pow_rational(F(1, 2), order=4)
    # t^2 and t^3 carry about -1e-400 and 1e-600, which round to 0.0
    assert got.terms == ((F(0), 1.0), (F(1), 1e-200 / 2)) and got.trunc == 4


@pytest.mark.parametrize("f, e", [
    pytest.param(PuiseuxSeries([(0, 1.0), (1, 1e300)]), F(1, 2), id="quotient"),
    pytest.param(PuiseuxSeries([(0, 1.0), (1, 1e300)]), F(-1), id="inverse"),
    pytest.param(PuiseuxSeries([(0, 1.0), (1, math.inf)]), F(1, 2), id="inf"),
    pytest.param(PuiseuxSeries([(0, 1.0), (1, math.nan)]), F(-1, 3), id="nan"),
    pytest.param(PuiseuxSeries([(1, 1e300), (2, 1.0)]), F(3, 2), id="lead"),
])
def test_float_power_past_the_float_range_overflows(f, e):
    with pytest.raises(FloatOverflow):
        f.pow_rational(e, order=4)
