import random
from fractions import Fraction
from math import nextafter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import binomial_series, poly_from_roots, series_from_ints

from arcfield.errors import IrrationalBranch, TruncationExhausted
from arcfield.newton import (
    PolyOverSeries,
    _at,
    _bisect_root,
    _candidates,
    _integer_form,
    _isolate,
    _poly_divmod,
    _poly_gcd,
    np_roots,
    rc_witness_odd,
)
from arcfield.puiseux import PuiseuxSeries

F = Fraction
t = PuiseuxSeries.t_power(1)
one = PuiseuxSeries.one()
zero = PuiseuxSeries.zero()


def poly(*coeffs):
    return PolyOverSeries(tuple(coeffs))


class TestRoots:
    def test_square_root_pair(self):
        branches = np_roots(poly(-t, zero, one), 3)
        assert len(branches) == 2
        series = sorted(str(b.series) for b in branches)
        assert series == ["-t^(1/2)", "t^(1/2)"]
        assert all(b.certified_order is None for b in branches)

    def test_binomial_oracle(self):
        branches = np_roots(poly(-(t + t * t), zero, one), F(7, 2))
        # sqrt(t + t^2) = t^(1/2) (1 + t)^(1/2)
        expect = binomial_series(F(1, 2), [F(0), F(1)], 3)
        plus = next(b for b in branches if b.series.lead()[1] > 0)
        for k, c in enumerate(expect):
            assert plus.series.coeff(F(1, 2) + k) == c
        minus = next(b for b in branches if b.series.lead()[1] < 0)
        for k, c in enumerate(expect):
            assert minus.series.coeff(F(1, 2) + k) == -c

    def test_dominant_balance_cubic(self):
        branches = np_roots(poly(-t, t, zero, one), 3)
        assert len(branches) == 1
        b = branches[0]
        assert b.series.lead() == (F(1, 3), F(1))
        assert b.certified_order >= 3

    def test_no_real_branches(self):
        assert np_roots(poly(one, zero, one), 4) == []

    def test_exact_multiple_root(self):
        # (X - t)^2
        branches = np_roots(poly(t * t, t.scale(F(-2)), one), 4)
        assert len(branches) == 1
        assert branches[0].series == t
        assert branches[0].multiplicity == 2
        assert branches[0].certified_order is None

    def test_complex_continuation_pruned(self):
        # (X - t)^2 + t^5 has no real roots near 0+
        p = poly(t * t + PuiseuxSeries.t_power(5), t.scale(F(-2)), one)
        assert np_roots(p, 4) == []

    def test_real_split_of_double_lead(self):
        # (X - t)^2 - t^5 splits at order 5/2
        p = poly(t * t - PuiseuxSeries.t_power(5), t.scale(F(-2)), one)
        branches = np_roots(p, 4)
        assert len(branches) == 2
        coeffs = sorted(b.series.coeff(F(5, 2)) for b in branches)
        assert coeffs == [F(-1), F(1)]

    def test_negative_valuation_root(self):
        # X^2 = 1/t
        p = poly(-PuiseuxSeries.t_power(-1), zero, one)
        branches = np_roots(p, 2)
        assert sorted(str(b.series) for b in branches) == ["-t^(-1/2)", "t^(-1/2)"]

    def test_catalog_products_certified(self):
        rng = random.Random(41)
        for _ in range(25):
            roots = []
            for _ in range(rng.randint(1, 3)):
                e = F(rng.randint(1, 4), rng.choice((1, 2)))
                c = F(rng.choice((1, -1, 2, -2)))
                extra = PuiseuxSeries.t_power(e + rng.randint(1, 2), F(rng.randint(-3, 3)))
                roots.append(PuiseuxSeries.t_power(e, c) + extra)
            p = poly_from_roots(roots)
            target = F(6)
            branches = np_roots(p, target)
            assert sum(b.multiplicity for b in branches) >= len(roots)
            for b in branches:
                residual = p.eval(b.series)
                lb = residual.ord_lower_bound()
                assert lb is None or lb >= min(target, b.certified_order or target)

    def test_irrational_branch_exact_mode(self):
        # X^2 - 2t and X^3 - 2t: edge equations z^2 = 2, z^3 = 2 have no
        # rational root
        with pytest.raises(IrrationalBranch):
            np_roots(poly(t.scale(F(-2)), zero, one), 3)
        with pytest.raises(IrrationalBranch):
            np_roots(poly(t.scale(F(-2)), zero, zero, one), 3)

    def test_numeric_mode_fallback(self):
        branches = np_roots(poly(t.scale(F(-2)), zero, one), 3, mode="numeric")
        assert len(branches) == 2
        lead = max(b.series.lead()[1] for b in branches)
        assert abs(lead - 2**0.5) < 1e-9
        assert all(b.exactness == "numeric" for b in branches)

    def test_truncation_exhausted(self):
        p = poly(PuiseuxSeries.unknown(1), zero, one)
        with pytest.raises(TruncationExhausted):
            np_roots(p, 3)

    def test_truncated_linear_root_short_of_target(self):
        # the root t/3 + O(t^3) cannot certify order 7: knowledge ends first
        with pytest.raises(TruncationExhausted):
            np_roots(poly(t.scale(F(-1, 3)) + PuiseuxSeries.unknown(3), one), 7)

    def test_unknown_coefficient_on_the_hull(self):
        # X^3 + O(t^(1/3)) X^2 + 3 t^(2/3) X - t: the X^2 coefficient could
        # put a term on the edge from (0, 1) to (3, 0), so the edge equation
        # is not known (with -3 t^(1/3) there it is (z - 1)^3)
        p = poly(-t, PuiseuxSeries.t_power(F(2, 3), F(3)),
                 PuiseuxSeries.unknown(F(1, 3)), one)
        with pytest.raises(TruncationExhausted):
            np_roots(p, 2)

    def test_unknown_constant_on_the_first_edge_extension(self):
        # Y^2 + t Y + O(t^2): the edge from (1, 1) to (2, 0) extends to
        # (0, 2), so a constant term at t^2 would join its equation.  The
        # completions disagree: t^2 leaves no real branch, 0 gives 0 and -t.
        assert np_roots(poly(t * t, t, one), 1) == []
        assert len(np_roots(poly(zero, t, one), 1)) == 2
        with pytest.raises(TruncationExhausted):
            np_roots(poly(PuiseuxSeries.unknown(2), t, one), 1)

    def test_unknown_constant_pins_the_linear_root(self):
        # X + O(t^3): the root is O(t^3), known to vanish below t^3
        branches = np_roots(poly(PuiseuxSeries.unknown(3), one), 3)
        assert [(b.series, b.multiplicity, b.certified_order) for b in branches] == [
            (PuiseuxSeries.unknown(3), 1, F(3))]
        with pytest.raises(TruncationExhausted, match="residual is known only below order 3"):
            np_roots(poly(PuiseuxSeries.unknown(3), one), 8)

    @pytest.mark.parametrize("k", [3, 4])
    def test_unknown_constant_over_a_linear_coefficient_as_high(self, k):
        # t^k X + O(t^3): the root is O(t^(3 - k)), so not even its order is known
        with pytest.raises(TruncationExhausted, match="root order undecidable at this truncation"):
            np_roots(poly(PuiseuxSeries.unknown(3), t ** k), 3)

    def test_truncated_linear_coefficient_ok(self):
        g = t + t * t + PuiseuxSeries.unknown(8)
        branches = np_roots(poly(-g, one), 6)
        assert len(branches) == 1
        assert branches[0].series.terms == g.terms

    def test_repeated_factor_multiplicities(self):
        # (X - s)^2 (X - r) with distinct leading exponents
        s = t + t * t
        r = PuiseuxSeries.t_power(2, F(3))
        p = poly_from_roots([s, s, r])
        branches = np_roots(p, 6)
        assert sum(b.multiplicity for b in branches) == 3
        by_mult = {b.multiplicity: b.series for b in branches}
        assert by_mult[2] == s
        assert by_mult[1] == r

    def test_numeric_agrees_with_exact_on_solvable_input(self):
        p = poly(-(t + t * t), zero, one)
        exact = np_roots(p, F(5, 2))
        numeric = np_roots(p, F(5, 2), mode="numeric")
        assert len(exact) == len(numeric) == 2
        for eb, nb in zip(exact, numeric):
            for e, c in eb.series.terms:
                assert abs(float(c) - nb.series.coeff(e)) < 1e-9


class TestBinomialEdgesAndLift:
    @pytest.mark.parametrize("order", [24, 64])
    def test_cube_root_branch_to_high_order(self, order):
        # X^3 - t - t^2 has one real branch, t^(1/3) (1 + t)^(1/3)
        p = poly(-(t + t * t), zero, zero, one)
        (b,) = np_roots(p, order)
        expect = binomial_series(F(1, 3), [F(0), F(1)], order)
        assert b.series.trunc == order
        assert b.series.terms == tuple(
            (F(1, 3) + k, c) for k, c in enumerate(expect) if c
        )
        assert b.certified_order >= order
        lb = p.eval(b.series).ord_lower_bound()
        assert lb >= order

    @pytest.mark.parametrize("root", [10**8, 10**200], ids=["1e8", "1e200"])
    def test_large_square_coefficient(self, root):
        # 10^400 lies beyond float range, so the k-th root cannot start
        # from a float guess
        p = poly(PuiseuxSeries.t_power(2, F(-root * root)), zero, one)
        branches = np_roots(p, 4)
        assert [b.series.terms for b in branches] == [((1, -root),), ((1, root),)]
        assert all(b.certified_order is None for b in branches)

    def test_lift_knowledge_bound(self):
        # sqrt(t + t^2 + O(t^8)): the truncation allows order 6, not order 8
        g = t + t * t + PuiseuxSeries.unknown(8)
        p = poly(-g, zero, one)
        expect = binomial_series(F(1, 2), [F(0), F(1)], 6)
        for b in np_roots(p, 6):
            sign = 1 if b.series.lead()[1] > 0 else -1
            assert b.series.trunc == 6
            assert b.series.terms == tuple(
                (F(1, 2) + k, sign * c) for k, c in enumerate(expect) if c
            )
        with pytest.raises(TruncationExhausted):
            np_roots(p, 8)

    def test_lift_defers_when_a_lead_may_cancel(self):
        # the edge z^3 - 3z^2 + 4z - 2 has E''(1) = 0, so the Y^2 coefficient
        # at the root 1 starts at t^2; with the top coefficient known only
        # below t^9 it could cancel, the lift defers to the recursion, and
        # both must agree with the exact input
        low = (
            PuiseuxSeries.t_power(3, F(-2)),
            PuiseuxSeries.t_power(2, F(4)),
            t.scale(F(-3)) + PuiseuxSeries.t_power(3),
        )
        exact = np_roots(poly(*low, one), 6)
        truncated = np_roots(poly(*low, one + PuiseuxSeries.unknown(9)), 6)
        assert [str(b.series) for b in truncated] == ["t - t^3 + 2*t^5 + O(t^6)"]
        assert [b.series for b in truncated] == [b.series for b in exact]


class TestOddWitness:
    def test_cube(self):
        b = rc_witness_odd(poly(-PuiseuxSeries.t_power(3), zero, zero, one), 4)
        assert b.series == t

    def test_cube_root(self):
        b = rc_witness_odd(poly(-t, zero, zero, one), 2)
        assert b.series.lead() == (F(1, 3), F(1))

    def test_quintic_with_lift(self):
        # X^5 + X^3 - t: single real branch, residual-certified
        p = poly(-t, zero, zero, one, zero, one)
        b = rc_witness_odd(p, 2)
        assert b.series.lead() == (F(1, 3), F(1))
        residual = p.eval(b.series)
        lb = residual.ord_lower_bound()
        assert lb is None or lb >= 2

    def test_even_degree_rejected(self):
        with pytest.raises(ValueError):
            rc_witness_odd(poly(-t, zero, one), 2)

    def test_random_solvable_odd_instances(self):
        rng = random.Random(43)
        for _ in range(20):
            root = PuiseuxSeries.t_power(
                F(rng.randint(1, 3)), F(rng.choice((1, -1, 2)))
            )
            # odd degree: linear factor times a positive-definite even factor
            q = PuiseuxSeries.t_power(rng.randint(1, 3), F(rng.randint(1, 3)))
            p = poly_from_roots([root], extra=[[q, zero, one]])
            b = rc_witness_odd(p, 5)
            residual = p.eval(b.series)
            lb = residual.ord_lower_bound()
            assert lb is None or lb >= 5


class NotPositive(Exception):
    """The oracle's refusal of a series that is not positive near 0+."""


def sqrt_positive(f: PuiseuxSeries, target) -> PuiseuxSeries:
    """The positive square root of a series with a positive lead, the
    oracle the solver's quadratic branches are checked against."""
    lead = f.lead()
    if lead is None or lead[1] <= 0:
        raise NotPositive("series is not positive in the field order")
    return f.pow_rational(F(1, 2), order=F(target))


class TestSqrt:
    def test_constant(self):
        assert sqrt_positive(PuiseuxSeries.constant(4), 4) == PuiseuxSeries.constant(2)

    def test_binomial(self):
        got = sqrt_positive(t * t * (one + t), 4)
        assert got.coeff(1) == 1
        assert got.coeff(2) == F(1, 2)
        assert got.coeff(3) == F(-1, 8)

    def test_pure_power(self):
        assert sqrt_positive(t, 3) == PuiseuxSeries.t_power(F(1, 2))

    def test_not_positive(self):
        with pytest.raises(NotPositive):
            sqrt_positive(-t, 3)

    def test_roundtrip(self):
        rng = random.Random(47)
        for _ in range(30):
            lead = rng.choice((1, 4, 9, 16))  # exact mode needs a square lead
            f = series_from_ints(
                [(rng.randint(0, 3), lead), (5, rng.randint(-4, 4))]
            )
            target = F(6)
            r = sqrt_positive(f, target)
            diff = r * r - f
            assert not diff.terms
            lb = diff.ord_lower_bound()
            assert lb is None or lb >= target

    def test_agreement_with_solver(self):
        for f in (t + t * t, PuiseuxSeries.constant(9) + t, t * t * (one + t)):
            target = F(5)
            r = sqrt_positive(f, target)
            branches = np_roots(poly(-f, zero, one), target)
            rendered = {str(b.series.truncate(r.trunc)) for b in branches}
            assert str(r) in rendered
            assert str(-r) in rendered


# -- root isolation against the loops it replaced ------------------------------------


def _reference_candidates(ints, intervals):
    """Each interval's candidate, by the halving loop written out in place."""
    L = abs(ints[-1])
    out = []
    for a, b, k in intervals:
        at_b = _at(ints, b, 1 << k)
        cand = Fraction(b, 1 << k) if at_b == 0 else None
        while cand is None and (b - a) * L >= 1 << k:
            mid, a, b, k = a + b, 2 * a, 2 * b, k + 1
            at_mid = _at(ints, mid, 1 << k)
            if at_mid == 0:
                cand = Fraction(mid, 1 << k)
            elif (at_mid > 0) == (at_b > 0):
                b = mid
            else:
                a = mid
        if cand is None:
            n = (b * L) >> k
            if n << k > a * L and _at(ints, n, L) == 0:
                cand = Fraction(n, L)
        out.append(cand)
    return out


def _reference_bisect_root(ints, lo, hi, k):
    """The interval's root rounded to a float, by bisection on Fraction ends."""
    def sign_at(x):
        return _at(ints, x.numerator, x.denominator)

    lo, hi = Fraction(lo, 1 << k), Fraction(hi, 1 << k)
    at_hi = sign_at(hi)
    while at_hi and float(lo) != float(hi):
        a, b = float(lo), float(hi)
        if nextafter(a, b) == b:
            mid = (Fraction(a) + Fraction(b)) / 2
            at_mid = sign_at(mid)
            if not at_mid:
                return float(mid)
            return a if (at_mid > 0) == (at_hi > 0) else b
        mid = (lo + hi) / 2
        at_mid = sign_at(mid)
        if not at_mid:
            return float(mid)
        if (at_mid > 0) == (at_hi > 0):
            hi = mid
        else:
            lo = mid
    return float(hi)


def _times(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


COEFF = st.integers(-10**12, 10**12)


@st.composite
def integer_polynomials(draw):
    """Products of linear factors q x - p (rational roots) and of x^m - d or
    a x^2 + b x + c (irrational roots when d or b^2 - 4ac is not a power)."""
    factors = [[-draw(COEFF), draw(st.integers(1, 10**12))]
               for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0 if factors else 1, 2))):
        if draw(st.booleans()):
            m = draw(st.integers(2, 3))
            factors.append([draw(st.integers(1, 10**12))] + [0] * (m - 1) + [-1])
        else:
            factors.append([draw(COEFF), draw(COEFF), draw(COEFF.filter(bool))])
    p = [Fraction(1)]
    for f in factors:
        p = _times(p, [Fraction(c) for c in f])
    return p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(integer_polynomials())
def test_root_isolation_matches_the_reference_loops(p):
    d = _poly_gcd(p, [c * k for k, c in enumerate(p)][1:])
    part, _r = _poly_divmod(p, d)  # squarefree, with the real roots of p
    ints = _integer_form(part)
    intervals = _isolate(part)
    assert _candidates(ints, intervals) == _reference_candidates(ints, intervals)
    for iv in intervals:
        assert _bisect_root(ints, *iv).hex() == _reference_bisect_root(ints, *iv).hex()
