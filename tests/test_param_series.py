import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from arcfield import puiseux
from arcfield.errors import IrrationalLeadingRoot, RamificationOverflow, ZeroUpToTruncationError
from arcfield.param_series import (
    DivergenceWitness,
    LaurentEps,
    ParamSeries,
    _param_binomial,
    divergence_witness,
    param_rows,
    render_param_series,
    select_m0n0,
)
from arcfield.puiseux import PuiseuxSeries, _binomial_sum

F = Fraction


def eps_t(k, e, c=1):
    return ParamSeries.eps_t(k, e, F(c))


class TestArith:
    def test_cross_terms_cancel_parameter(self):
        # (e t) * (e^-1 t) = t^2
        assert eps_t(1, 1) * eps_t(-1, 1) == ParamSeries.t_power(2, 1)

    def test_additive_cancellation(self):
        s = (eps_t(1, 1) + ParamSeries.t_power(2, 1)) + (-eps_t(1, 1))
        assert s == ParamSeries.t_power(2, 1)

    def test_distribute_and_collect(self):
        mixed = ParamSeries(((F(1), LaurentEps({1: F(1), -1: F(1)})),))
        got = mixed * ParamSeries.t_power(1, 1)
        assert got.terms == ((F(2), LaurentEps({1: F(1), -1: F(1)})),)

    def test_truncation_rules_match_kernel(self):
        a = eps_t(1, 1) + ParamSeries.unknown(3)
        b = ParamSeries.t_power(-1, 1) + ParamSeries.one()
        prod = a * b
        assert prod.trunc == F(2)

    def test_division_by_parameter_monomial(self):
        q = ParamSeries.t_power(2, 1) / eps_t(1, 1)
        assert q == eps_t(-1, 1)


class TestSubstitution:
    def test_uv_product(self):
        assert eps_t(1, 1) * eps_t(-1, 1) == ParamSeries.t_power(2, 1)

    def test_exponent_law_exhaustive(self):
        # u^m v^n at (e t, t/e), prefixed by e t: coefficient lands at
        # t^(m+n+1) e^(m-n+1), checked for all m, n <= 6
        u = eps_t(1, 1)
        v = eps_t(-1, 1)
        prefix = eps_t(1, 1)
        for m in range(7):
            for n in range(7):
                got = prefix * u.pow_rational(F(m)) * v.pow_rational(F(n))
                assert got == ParamSeries.eps_t(m - n + 1, m + n + 1)

    def test_chart_factor_composition(self):
        # (1 + v^2/(1+v^2))^(1/4) at v = t/e, times e t
        one = ParamSeries.one()
        v = eps_t(-1, 1)
        base = one + (v * v) * (one + v * v).inv(order=7)
        factor = base.pow_rational(F(1, 4), order=7)
        got = eps_t(1, 1) * factor
        assert got.coeff(1) == LaurentEps({1: F(1)})
        assert got.coeff(3) == LaurentEps({-1: F(1, 4)})
        assert got.coeff(5) == LaurentEps({-3: F(-11, 32)})

    def test_non_monomial_lead_rejected_for_roots(self):
        two_terms = ParamSeries(((F(0), LaurentEps({0: F(1), 1: F(1)})),)) + eps_t(0, 1)
        with pytest.raises(IrrationalLeadingRoot):
            two_terms.pow_rational(F(1, 2), order=3)


class TestSelection:
    def test_quarter_power_data(self):
        assert select_m0n0({(0, 2): F(1, 4), (0, 4): F(-11, 32)}) == (0, 2)

    def test_exclusion_rule(self):
        # (1, 2) has n = m + 1 and is excluded
        assert select_m0n0({(1, 2): F(1), (0, 3): F(1)}) == (0, 3)

    def test_empty(self):
        assert select_m0n0({(0, 1): F(5)}) is None

    def test_tie_breaks(self):
        # same m + n: maximize n - m
        assert select_m0n0({(1, 4): F(1), (0, 5): F(2)}) == (0, 5)


class TestDivergence:
    def test_counterexample_series(self):
        p = eps_t(1, 1) + ParamSeries.eps_t(-1, 3, F(1, 4)) + ParamSeries.unknown(5)
        w = divergence_witness(p)
        assert w == DivergenceWitness(t_exp=F(3), eps_exp=-1, coeff=F(1, 4))

    def test_bounded_family(self):
        assert divergence_witness(eps_t(1, 1) + ParamSeries.t_power(2, 1)) is None

    def test_fractional_exponent(self):
        w = divergence_witness(ParamSeries.eps_t(-2, F(1, 2)))
        assert (w.t_exp, w.eps_exp, w.coeff) == (F(1, 2), -2, F(1))

    def test_witness_validation(self):
        with pytest.raises(ValueError):
            DivergenceWitness(t_exp=F(1), eps_exp=0, coeff=F(1))


class TestSpecialization:
    def test_commutes_with_arithmetic(self):
        # equality on the shared knowledge bound: specializing can only
        # erase terms, never invent them
        rng = random.Random(23)
        for _ in range(80):
            a = _random_param(rng)
            b = _random_param(rng)
            eps0 = F(rng.choice([1, -1, 2, 3]), rng.choice([1, 2, 5]))
            assert _common_eq((a * b).at_eps(eps0), a.at_eps(eps0) * b.at_eps(eps0))
            assert _common_eq((a + b).at_eps(eps0), a.at_eps(eps0) + b.at_eps(eps0))

    def test_no_witness_means_coefficientwise_convergence(self):
        rng = random.Random(29)
        for _ in range(40):
            p = _random_param(rng, min_eps=0)
            assert divergence_witness(p) is None
            limit = p.eps_limit()
            # specializations approach the limit coefficient by coefficient
            for k in (10, 100, 1000):
                spec = p.at_eps(F(1, k))
                for e, c in limit.terms:
                    got = spec.coeff(e)
                    want = c
                    assert abs(got - want) <= F(2, k) * _coeff_scale(p, e)

    def test_limit_drops_positive_powers(self):
        p = ParamSeries.t_power(1, 1) + ParamSeries.eps_t(2, 2)
        assert p.eps_limit() == PuiseuxSeries.t_power(1)

    def test_commutes_with_inverse_and_fourth_root(self):
        # a lead c e^k t^v with c a fourth power and 4 | k has rational
        # fourth roots both before and after specializing e > 0
        rng = random.Random(31)
        quarter = F(1, 4)
        for _ in range(60):
            v = F(rng.randint(0, 2))
            lead = ParamSeries.eps_t(rng.choice([-4, 0, 4]), v, rng.choice([F(1), F(16), F(1, 81)]))
            p = lead + _random_param(rng, t_shift=v)
            eps0 = F(rng.randint(1, 3), rng.choice([1, 2, 5]))
            plain = p.at_eps(eps0)
            assert _common_eq(p.inv(order=6).at_eps(eps0), plain.inv(order=6))
            got = p.pow_rational(quarter, order=6).at_eps(eps0)
            assert _common_eq(got, plain.pow_rational(quarter, order=6))


def _common_eq(a, b):
    bound = a.trunc
    if b.trunc is not None and (bound is None or b.trunc < bound):
        bound = b.trunc
    return a.truncate(bound) == b.truncate(bound)


def _coeff_scale(p, e):
    c = p.coeff(e)
    return sum(abs(v) for _k, v in c.terms) or F(1)


def _random_param(rng, min_eps=-3, t_shift=0):
    terms = []
    for _ in range(rng.randint(1, 4)):
        t_exp = t_shift + F(rng.randint(1, 6))
        coeff = LaurentEps(
            {
                rng.randint(min_eps, 3): F(rng.randint(-5, 5))
                for _ in range(rng.randint(1, 3))
            }
        )
        if coeff.is_zero():
            continue
        terms.append((t_exp, coeff))
    trunc = F(8) if rng.random() < 0.5 else None
    return ParamSeries(terms, trunc=trunc)


class TestKernelBoundary:
    def test_scalar_rows_become_laurent_constants(self):
        p = ParamSeries(((0, 3), (F(1, 2), F(-1, 4))))
        assert p.terms == (
            (F(0), LaurentEps.constant(3)),
            (F(1, 2), LaurentEps.constant(F(-1, 4))),
        )
        assert all(type(c) is LaurentEps for _e, c in p.terms)

    def test_unlisted_coefficient_is_laurent_zero(self):
        c = eps_t(1, 1).coeff(2)
        assert type(c) is LaurentEps and c == LaurentEps()

    def test_operations_stay_in_the_class(self):
        a = eps_t(1, 1) + ParamSeries.t_power(2, F(1, 3)) + ParamSeries.unknown(6)
        b = ParamSeries.one() + eps_t(-1, 1)
        results = [
            a + b, a - b, a * b, -a, a.truncate(4), b.inv(order=5),
            b.pow_rational(F(1, 4), order=5), b.pow_rational(F(3)), a / eps_t(1, 0),
            a + 1, 1 - a, F(1, 2) * a, a * LaurentEps({-1: F(2)}), a.scale(F(2)), a.shift(1),
        ]
        for r in results:
            assert type(r) is ParamSeries
            assert all(type(c) is LaurentEps for _e, c in r.terms)

    def test_unknown_to_a_positive_integer_power_is_unknown(self):
        # O(t^T)^n = O(t^(nT)), as in the kernel
        for n in (1, 2, 3):
            got = ParamSeries.unknown(F(3, 2)).pow_rational(F(n))
            assert type(got) is ParamSeries and not got.terms and got.trunc == F(3 * n, 2)
        with pytest.raises(ZeroUpToTruncationError):
            ParamSeries.unknown(2).pow_rational(F(1, 2), order=4)

    def test_only_integer_powers_of_a_non_monomial_lead_exist(self):
        c = LaurentEps({0: F(1), 1: F(2)})
        assert c.pow_rational(F(3)) == c * c * c
        assert c.pow_rational(F(0)) == LaurentEps.constant(1)
        p = ParamSeries(((F(1), c),))
        assert p.pow_rational(F(2)) == ParamSeries(((F(2), c * c),))
        for e in (F(-1), F(1, 2)):
            with pytest.raises(IrrationalLeadingRoot):
                c.pow_rational(e)
            with pytest.raises(IrrationalLeadingRoot):
                p.pow_rational(e, order=4)

    def test_plain_series_do_not_mix_in(self):
        with pytest.raises(TypeError):
            eps_t(1, 1) + PuiseuxSeries.one()
        with pytest.raises(TypeError):
            PuiseuxSeries.one() * eps_t(1, 1)


class TestRendering:
    def test_rows(self):
        p = eps_t(1, 1) + ParamSeries.eps_t(-1, 3, F(1, 4))
        rows = param_rows(p)
        assert rows == [
            {"t_exp": "1", "coeffs": {"1": "1"}},
            {"t_exp": "3", "coeffs": {"-1": "1/4"}},
        ]

    def test_text(self):
        p = eps_t(1, 1) + ParamSeries.unknown(4)
        assert render_param_series(p) == "e*t + O(t^4)"


class TestRamification:
    def test_cap_is_enforced(self):
        cap = puiseux.get_ram_cap()
        puiseux.set_ram_cap(8)
        try:
            with pytest.raises(RamificationOverflow):
                eps_t(1, F(1, 128))
            with pytest.raises(RamificationOverflow):
                eps_t(0, F(1, 2)) + eps_t(1, F(1, 9))
            assert eps_t(1, F(1, 8)).ram == 8
        finally:
            puiseux.set_ram_cap(cap)

    @pytest.mark.parametrize("rel", [F(0), F(1, 6), F(1, 3), F(2)])
    def test_binomial_keeps_ram_as_the_plain_kernel_does(self, rel):
        # u = t^(1/3): an order with no lattice point below it keeps ram 3
        u = eps_t(1, F(1, 3))
        plain = _binomial_sum(PuiseuxSeries.t_power(F(1, 3)), F(1, 2), rel)
        got = _param_binomial(u, F(1, 2), rel)
        assert got.ram == plain.ram == 3
        assert got.trunc == plain.trunc == rel


def reference_param_binomial(u, e, rel):
    """The truncated recurrence of (1 + u) h' = e u' h on LaurentEps rows."""
    ram = u.ram
    n_max = math.ceil(rel * ram) - 1
    if n_max < 0:
        return ParamSeries((), trunc=rel, ram=ram)
    ua = {}
    for exp, c in u.terms:
        idx = int(exp * ram)
        if 0 < idx <= n_max:
            ua[idx] = c
    zero = LaurentEps()
    h = [zero] * (n_max + 1)
    h[0] = LaurentEps.constant(1)
    for n in range(1, n_max + 1):
        acc = zero
        for j, a in ua.items():
            if j <= n:
                acc = acc + (a * h[n - j]) * (((e + 1) * j - n) / n)
        h[n] = acc
    terms = [(F(n, ram), h[n]) for n in range(n_max + 1) if not h[n].is_zero()]
    return ParamSeries(terms, trunc=rel, ram=ram)


BINOMIAL_EXPONENTS = [F(2), F(3), F(-1), F(-2), F(5, 3), F(-2, 3)] + [
    F(s, q) for s in (1, -1) for q in (2, 3, 4, 7)
]
NONZERO = st.integers(min_value=-9, max_value=9).filter(bool)


@st.composite
def laurent_rows(draw):
    """A nonzero LaurentEps of 1-3 terms with parameter powers -3..3."""
    powers = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=1,
                           max_size=3, unique=True))
    return LaurentEps({k: F(draw(NONZERO), draw(st.integers(1, 6))) for k in powers})


@st.composite
def binomial_cases(draw):
    """(u, e, rel): ram 1-24 and a relative order from 0 to 6."""
    ram = draw(st.integers(min_value=1, max_value=24))
    offsets = draw(st.lists(st.integers(min_value=1, max_value=6 * ram), min_size=1,
                            max_size=4, unique=True))
    u = ParamSeries([(F(k, ram), draw(laurent_rows())) for k in offsets], ram=ram)
    e = draw(st.sampled_from(BINOMIAL_EXPONENTS))
    den = draw(st.sampled_from((1, 2, 3, ram)))
    rel = F(draw(st.integers(min_value=0, max_value=6 * den)), den)
    return u, e, rel


# (1 + 2 e t + e^2 t^2)^(1/2) = 1 + e t: every row past t^1 sums to zero
SQUARE = ParamSeries([(F(1), LaurentEps({1: F(2)})), (F(2), LaurentEps({2: F(1)}))])


@settings(max_examples=300, deadline=None)
@given(binomial_cases())
@example((SQUARE, F(1, 2), F(6)))
@example((eps_t(-1, F(1, 3)), F(-1, 2), F(0)))  # no lattice point: n_max < 0
def test_param_binomial_matches_the_laurent_recurrence(case):
    u, e, rel = case
    got = _param_binomial(u, e, rel)
    ref = reference_param_binomial(u, e, rel)
    assert (got.terms, got.trunc, got.ram) == (ref.terms, ref.trunc, ref.ram)


@settings(max_examples=60, deadline=None)
@given(binomial_cases(), laurent_rows().filter(lambda c: len(c.terms) == 1),
       st.fractions(min_value=-3, max_value=3, max_denominator=2))
def test_param_binomial_writes_lead_and_shift_into_its_rows(case, lead, shift):
    u, e, rel = case
    got = _param_binomial(u, e, rel, lead, shift)
    want = _param_binomial(u, e, rel).scale(lead).shift(shift)
    assert (got.terms, got.trunc, got.ram) == (want.terms, want.trunc, want.ram)


def test_param_binomial_rows_that_cancel():
    assert _param_binomial(SQUARE, F(1, 2), F(6)) == eps_t(0, 0) + eps_t(1, 1) + ParamSeries.unknown(6)
    # in (1 + (e + 1/e) t - t^2)^2 the e^0 part of the t^2 row cancels
    u = ParamSeries([(F(1), LaurentEps({1: F(1), -1: F(1)})), (F(2), LaurentEps({0: F(-1)}))])
    got = _param_binomial(u, F(2), F(3))
    assert got.coeff(2) == LaurentEps({-2: F(1), 2: F(1)})
    assert got.terms == reference_param_binomial(u, F(2), F(3)).terms
