import copy
import pickle
import random
from fractions import Fraction

import pytest

from conftest import (
    binomial_series,
    common_trunc_equal,
    lagrange_inverse,
    poly_inv,
    random_series,
    series_from_ints,
)

from arcfield.errors import (
    GuardViolation,
    IndistinguishableAtTruncation,
    NegativeBaseForEvenRoot,
    IrrationalLeadingRoot,
    NonPositiveValuationSubstitution,
    RamificationOverflow,
    TruncationExhausted,
    UnboundedExpansion,
    ZeroUpToTruncationError,
)
from arcfield.param_series import ParamSeries
from arcfield.parser import parse_series
from arcfield.puiseux import (
    DIVERGES,
    PuiseuxSeries,
    ZeroUpToTruncation,
    formal_derivative,
    get_ram_cap,
    render_series,
    reparam_inverse,
    set_ram_cap,
)

F = Fraction
t = PuiseuxSeries.t_power(1)
one = PuiseuxSeries.one()


class TestAdd:
    def test_cancellation(self):
        assert (t + t * t) + (-t) == t * t
        assert ((t + t * t) + (-t)).trunc is None

    def test_identity(self):
        f = series_from_ints([(1, 2), (3, -1)], trunc=5)
        assert f + PuiseuxSeries.zero() == f

    def test_lcm_ramification(self):
        f = PuiseuxSeries.t_power(F(1, 2)) + PuiseuxSeries.unknown(2)
        g = PuiseuxSeries.t_power(F(1, 3))
        s = f + g
        assert s.ram == 6
        assert s.trunc == 2
        assert s.terms == ((F(1, 3), F(1)), (F(1, 2), F(1)))

    def test_trunc_is_min(self):
        f = series_from_ints([(0, 1)], trunc=3)
        g = series_from_ints([(1, 1)], trunc=5)
        assert (f + g).trunc == 3

    def test_terms_beyond_trunc_dropped(self):
        f = series_from_ints([(0, 1), (4, 2)])  # exact, term at t^4
        g = PuiseuxSeries.unknown(2)
        assert (f + g).terms == ((F(0), F(1)),)


class TestMul:
    def test_monomials(self):
        assert t * PuiseuxSeries.t_power(F(1, 2)) == PuiseuxSeries.t_power(F(3, 2))

    def test_unit_product(self):
        assert (one + t) * (one - t) == one - t * t

    def test_termwise_oracle_with_truncation(self):
        f = t + PuiseuxSeries.unknown(3)
        g = PuiseuxSeries.t_power(-1) + one
        prod = f * g
        assert prod.trunc == 2
        assert prod.terms == ((F(0), F(1)), (F(1), F(1)))

    def test_ord_multiplicative(self):
        rng = random.Random(3)
        for _ in range(50):
            f = random_series(rng, allow_trunc=False)
            g = random_series(rng, allow_trunc=False)
            if f.lead() and g.lead():
                assert (f * g).lead()[0] == f.lead()[0] + g.lead()[0]


class TestInv:
    def test_geometric_oracle(self):
        inv = (one - t).inv(order=4)
        expect = poly_inv([F(1), F(-1)], 4)
        assert inv.terms == tuple((F(k), c) for k, c in enumerate(expect) if c)
        assert inv.trunc == 4

    def test_monomials_exact(self):
        assert t.inv() == PuiseuxSeries.t_power(-1)
        assert PuiseuxSeries.constant(2).inv() == PuiseuxSeries.constant(F(1, 2))

    def test_roundtrip_residual(self):
        rng = random.Random(11)
        for _ in range(60):
            f = random_series(rng)
            if f.lead() is None:
                continue
            inv = f.inv(order=8)
            prod = f * inv
            residual = prod - one
            lb = residual.ord_lower_bound()
            assert lb is None or residual.trunc is not None
            if residual.trunc is not None:
                assert not residual.terms  # all known coefficients cancel

    def test_zero_up_to_truncation(self):
        with pytest.raises(ZeroUpToTruncationError):
            PuiseuxSeries.unknown(3).inv()

    def test_exact_nonmonomial_needs_order(self):
        with pytest.raises(UnboundedExpansion):
            (one - t).inv()


class TestPow:
    def test_binomial_oracle_sqrt(self):
        got = (one + t).pow_rational(F(1, 2), order=3)
        expect = binomial_series(F(1, 2), [F(0), F(1)], 3)
        assert got.terms == tuple((F(k), c) for k, c in enumerate(expect) if c)

    def test_monomial(self):
        assert PuiseuxSeries.t_power(2, F(4)).pow_rational(F(1, 2)) == PuiseuxSeries.t_power(1, F(2))

    def test_quarter_power_oracle(self):
        # (1 + v^2/(1+v^2))^(1/4) = 1 + v^2/4 - 11 v^4/32 + O(v^6)
        inner = one + (t * t) * (one + t * t).inv(order=6)
        got = inner.pow_rational(F(1, 4), order=6)
        w = [F(0), F(0)] + poly_inv([F(1), F(0), F(1)], 4)  # v^2 * 1/(1+v^2)
        expect = binomial_series(F(1, 4), w[:6], 6)
        assert got.coeff(2) == expect[2] == F(1, 4)
        assert got.coeff(4) == expect[4] == F(-11, 32)

    def test_consistency_roundtrip(self):
        # (f^(p/q))^q == f^p on the shared truncation
        rng = random.Random(5)
        for _ in range(40):
            f = random_series(rng, unit_lead=True, positive_lead=True, min_exp=F(0))
            for e in (F(1, 2), F(1, 3), F(2, 3), F(-1, 2)):
                root = f.pow_rational(e, order=6)
                back = root.pow_rational(F(e.denominator), order=6)
                direct = f.pow_rational(F(e.numerator), order=6)
                assert common_trunc_equal(back, direct)

    def test_even_root_needs_positive_lead(self):
        with pytest.raises(NegativeBaseForEvenRoot):
            (-one + t).pow_rational(F(1, 2), order=3)

    def test_irrational_lead(self):
        with pytest.raises(IrrationalLeadingRoot):
            PuiseuxSeries.constant(2).pow_rational(F(1, 2), order=3)

    def test_negative_base_odd_root(self):
        got = PuiseuxSeries.t_power(3, F(-8)).pow_rational(F(1, 3))
        assert got == PuiseuxSeries.t_power(1, F(-2))

    def test_unknown_series_integer_power(self):
        assert PuiseuxSeries.unknown(8) ** 2 == PuiseuxSeries.unknown(16)
        # order caps non-terminating expansions only, not an integer power
        assert PuiseuxSeries.unknown(8).pow_rational(F(3), order=7) == PuiseuxSeries.unknown(24)
        assert PuiseuxSeries((), trunc=3, ram=6).pow_rational(F(2)).ram == 6

    def test_unknown_series_integer_power_is_sound(self):
        # every series of order >= 3, of either sign, has f^n of order >= 3n
        for f in (PuiseuxSeries.t_power(3, F(-8)), PuiseuxSeries.t_power(F(7, 2), F(27)) + t**4):
            for n in (F(2), F(3)):
                power = f.pow_rational(n, order=12)
                bound = PuiseuxSeries.unknown(3).pow_rational(n, order=12).trunc
                assert power.ord_lower_bound() >= bound

    def test_unknown_series_undecidable_powers(self):
        # a root's leading coefficient may be irrational or need a positive
        # base, and an inverse needs a nonzero one
        for e in (F(1, 3), F(5, 3), F(1, 2), F(3, 4), F(0), F(-1), F(-1, 3)):
            with pytest.raises(ZeroUpToTruncationError):
                PuiseuxSeries.unknown(8).pow_rational(e, order=12)

    def test_root_beyond_the_order_keeps_ramification(self):
        # no lattice point below the order is left, yet the half-integer
        # exponents of the base still count
        base = PuiseuxSeries(((F(16), F(1)), (F(33, 2), F(1))))
        assert base.pow_rational(F(1, 5), order=2).ram == 10
        assert base.pow_rational(F(1, 5), order=16).ram == 10


class TestCompose:
    def test_square(self):
        f = t * t
        g = t + t * t
        assert f.compose(g) == series_from_ints([(2, 1), (3, 2), (4, 1)])

    def test_geometric(self):
        f = (one - t).inv(order=3)
        assert f.compose(t).terms == ((F(0), F(1)), (F(1), F(1)), (F(2), F(1)))

    def test_identity(self):
        rng = random.Random(9)
        for _ in range(20):
            g = random_series(rng, min_exp=F(1, 4))
            if g.lead() and g.lead()[0] > 0:
                assert t.compose(g) == g

    def test_positive_valuation_required(self):
        with pytest.raises(NonPositiveValuationSubstitution):
            (t * t).compose(one + t)

    def test_zero_inner_keeps_the_constant_term(self):
        zero = PuiseuxSeries.zero()
        f = one + t + PuiseuxSeries.unknown(3)
        assert f.compose(zero) == one

    def test_zero_inner_under_a_pole_is_a_guard(self):
        # t^-1 at t = 0 is the zero base under a negative power
        with pytest.raises(GuardViolation, match="zero base with negative exponent"):
            (one + t.inv()).compose(PuiseuxSeries.zero())

    @pytest.mark.parametrize("trunc", [F(0), F(-1, 2)])
    def test_zero_inner_needs_a_known_constant_term(self, trunc):
        with pytest.raises(ZeroUpToTruncationError, match="constant term unknown"):
            PuiseuxSeries.unknown(trunc).compose(PuiseuxSeries.zero())


class TestOrdCmpLimit:
    def test_ord_examples(self):
        assert series_from_ints([(3, 1), (5, -2)]).ord() == 3
        assert PuiseuxSeries.unknown(7).ord() == ZeroUpToTruncation(F(7))
        assert (PuiseuxSeries.t_power(F(1, 2)) + t).ord() == F(1, 2)

    def test_infinitesimal_below_reals(self):
        tiny = PuiseuxSeries.constant(F(1, 10**9))
        assert t < tiny
        assert t > t * t
        f = series_from_ints([(1, 2), (2, 5)])
        assert f.compare(f) == 0

    def test_cmp_undecidable(self):
        f = t + PuiseuxSeries.unknown(2)
        g = t + PuiseuxSeries.unknown(3)
        with pytest.raises(IndistinguishableAtTruncation):
            f.compare(g)

    def test_limits(self):
        assert (PuiseuxSeries.constant(2) + t).limit0() == 2
        assert PuiseuxSeries.t_power(F(1, 2)).limit0() == 0
        assert PuiseuxSeries.t_power(-1).limit0() is DIVERGES


class TestReparam:
    def test_square_root_case(self):
        d = reparam_inverse(t * t, 3)
        assert d.terms == ((F(1, 2), F(1)),)

    def test_lagrange_oracle(self):
        # f = t/(1-t) = t + t^2 + ...; inverse must match Lagrange inversion
        f = t * (one - t).inv(order=6)
        d = reparam_inverse(f, 5)
        expect = lagrange_inverse([F(0), F(1), F(1), F(1), F(1), F(1)], 6)
        for k in range(1, 5):
            assert d.coeff(k) == expect[k]

    def test_substitute_and_match(self):
        d = reparam_inverse(t * t + t * t * t, F(5, 2))
        assert d.coeff(F(1, 2)) == 1
        assert d.coeff(F(1)) == F(-1, 2)
        assert d.coeff(F(3, 2)) == F(5, 8)

    def test_roundtrip_random(self):
        rng = random.Random(17)
        for _ in range(30):
            # positive lead: the germ must map (0, eps) into (0, eps')
            f = random_series(
                rng, min_exp=F(1, 2), unit_lead=True, positive_lead=True,
                allow_trunc=False,
            )
            lead = f.lead()
            if lead is None or lead[0] <= 0:
                continue
            target = F(4)
            d = reparam_inverse(f, target)
            res = f.compose(d, order=target) - t
            lb = res.ord_lower_bound()
            assert lb is not None and lb >= target and not res.terms

    @pytest.mark.parametrize("f, error, message", [
        pytest.param(one + t, NonPositiveValuationSubstitution, "order 0 is not positive",
                     id="order-0"),
        pytest.param(PuiseuxSeries([(1, 1)], trunc=2), TruncationExhausted,
                     "inverting to order 3 needs f known below 4", id="known-too-low"),
        pytest.param(PuiseuxSeries.unknown(2), ZeroUpToTruncationError,
                     "series is zero up to truncation 2", id="no-known-term"),
    ])
    def test_refuses_what_it_cannot_invert(self, f, error, message):
        with pytest.raises(error, match=message):
            reparam_inverse(f, 3)


class TestStructure:
    def test_three_valued_zero(self):
        assert PuiseuxSeries.zero().is_zero()
        u = PuiseuxSeries.unknown(3)
        assert u.is_indeterminate_zero() and not u.is_zero()
        assert not t.is_zero()

    def test_ram_cap(self):
        set_ram_cap(8)
        try:
            with pytest.raises(RamificationOverflow):
                PuiseuxSeries.t_power(F(1, 9))
            with pytest.raises(RamificationOverflow):
                t.shift(F(1, 9))
        finally:
            set_ram_cap(64)

    def test_ram_cap_bounds_products(self):
        cap = get_ram_cap()
        set_ram_cap(8)
        try:
            with pytest.raises(RamificationOverflow):
                PuiseuxSeries.t_power(F(1, 8)) * PuiseuxSeries.t_power(F(1, 3))
        finally:
            set_ram_cap(cap)

    @pytest.mark.parametrize("f", [
        pytest.param(parse_series("3*t^(1/2) + O(t^3)", 0, 18), id="fraction"),
        pytest.param(PuiseuxSeries(((F(1, 2), 0.5), (F(3, 2), -1.25)), trunc=F(3)), id="float"),
        pytest.param(ParamSeries.eps_t(1, F(1, 2)) + ParamSeries.eps_t(-1, 2), id="param"),
    ])
    def test_copy_and_pickle_rebuild_the_series(self, f):
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert type(g) is type(f) and g == f
            assert (g.terms, g.trunc, g.ram) == (f.terms, f.trunc, f.ram)
            assert [type(c) for _e, c in g.terms] == [type(c) for _e, c in f.terms]
            with pytest.raises(AttributeError, match="immutable"):
                g.trunc = None
        assert f.ram == 2

    def test_copies_of_the_divergence_sentinel_are_the_sentinel(self):
        assert copy.copy(DIVERGES) is DIVERGES and copy.deepcopy(DIVERGES) is DIVERGES

    def test_numeric_scale_drops_underflow(self):
        tiny = PuiseuxSeries(((F(1), 1e-200), (F(2), 1.0)))
        assert tiny.scale(1e-200).terms == ((F(2), 1e-200),)

    def test_derivative(self):
        f = series_from_ints([(0, 3), (2, 1)], trunc=4)
        df = formal_derivative(f)
        assert df.terms == ((F(1), F(2)),)
        assert df.trunc == 3

    def test_render(self):
        assert render_series(t * t) == "t^2"
        f = PuiseuxSeries(((F(0), F(1)), (F(3), F(1, 4))), trunc=F(5))
        assert render_series(f) == "1 + 1/4*t^3 + O(t^5)"
