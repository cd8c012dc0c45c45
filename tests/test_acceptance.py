"""Acceptance suite: one criterion per test, each printing a PASS/FAIL line.

Expected values marked as derived were computed by independent oracles that
live in this file or in conftest.py (numeric grid fits, dense-list binomial
and Lagrange-inversion arithmetic, closed-form maximization), never by the
code paths they certify.
"""

import io
import json
import math
import random
import string
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import binomial_series, poly_from_roots, random_series

from arcfield.cli import main
from arcfield.errors import CounterexampleFound, ParseError
from arcfield.mapexpr import MapExpr, Pow, eval_map_series, map_expr, render_map, variables
from arcfield.newton import PolyOverSeries, np_roots, rc_witness_odd
from arcfield.param_series import LaurentEps, ParamSeries
from arcfield.parser import parse_map, parse_series
from arcfield.puiseux import PuiseuxSeries, ZeroUpToTruncation, render_series, reparam_inverse
from arcfield.topology import (
    ArcSamplerSpec,
    canonical_pair,
    holder_probe,
    loja_fit,
    product_topology_limit,
    sample_pair,
    tadic_ord_dist,
    transfer_check,
)
from arcfield.transport import (
    chart_factor_product,
    chart_lift_maps,
    counterexample_pushforward,
    jacobian_check,
    monotone_bound_check,
    solve_preimage_arc,
    whitney_umbrella_map,
)

F = Fraction
t = PuiseuxSeries.t_power(1)
one = PuiseuxSeries.one()


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPT {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPT {num:02d} {name}: PASS")


# -- 1: counterexample reproduction ------------------------------------------------


def _oracle_t3_coefficient(eps: float, ts) -> Fraction:
    """Independent numeric fit of the t^3 coefficient of the image family.

    Evaluates the stretch image in floating point only (expm1/log1p keep the
    subtraction exact), then solves the 3-point Vandermonde system in t^2
    exactly, so the t^5 and t^7 contamination cancels.
    """
    rows = []
    rhs = []
    for tv in ts:
        s = tv * tv / (eps * eps + tv * tv)
        g = eps * math.expm1(0.25 * math.log1p(s)) / (tv * tv)
        tau = Fraction(tv) ** 2
        rows.append((Fraction(1), tau, tau * tau))
        rhs.append(Fraction(g))
    det = _det3(rows)
    num = _det3([(rhs[i], rows[i][1], rows[i][2]) for i in range(3)])
    return num / det


def _det3(rows):
    (a, b, c), (d, e, f_), (g, h, i) = rows
    return a * (e * i - f_ * h) - b * (d * i - f_ * g) + c * (d * h - e * g)


def test_criterion_1_counterexample_reproduction():
    with criterion(1, "counterexample reproduction"):
        # the oracle's stable (expm1/log1p) form agrees with the plain float
        # evaluation of the image where cancellation is harmless
        eps0, t0 = 0.1, 0.01
        s0 = t0 * t0 / (eps0 * eps0 + t0 * t0)
        plain = eps0 * t0 * (1.0 + s0) ** 0.25
        g0 = eps0 * math.expm1(0.25 * math.log1p(s0)) / (t0 * t0)
        assert abs((eps0 * t0 + g0 * t0**3) - plain) <= 1e-15

        start = time.perf_counter()
        estimates = {}
        for k in (1, 2, 3, 4):
            eps = 10.0 ** (-k)
            ts = [eps / 10.0, eps / 100.0, eps / 1000.0]
            a3 = _oracle_t3_coefficient(eps, ts)
            estimates[k] = a3
            # coefficient is (1/4) eps^-1 to within 1e-6 relative
            assert abs(a3 * 4 * Fraction(eps) - 1) <= Fraction(1, 10**6)
        for k in (1, 2, 3):
            ratio = estimates[k + 1] / estimates[k]
            assert abs(ratio / 10 - 1) <= Fraction(2, 10**6)  # slope -1 in eps
        assert time.perf_counter() - start <= 1.0

        # the exact pipeline at t-order 8
        result = counterexample_pushforward(8)
        first, second = result.image
        assert first.coeff(1) == LaurentEps({1: F(1)})
        assert first.coeff(3) == LaurentEps({-1: F(1, 4)})
        assert first.coeff(5) == LaurentEps({-3: F(-11, 32)})
        for e, _c in first.terms:
            assert e in (F(1), F(3), F(5)) or e >= 7  # remainder is O(t^7)
        assert second.terms == ((F(2), LaurentEps({0: F(1)})),)
        w = result.witness
        assert (w.t_exp, w.eps_exp, w.coeff) == (F(3), -1, F(1, 4))

        # CLI surface emits the same facts
        out = io.StringIO()
        code = main(["counterexample", "--t-order", "8", "--emit", "structured"],
                    out=out, err=io.StringIO())
        assert code == 2
        record = json.loads(out.getvalue())
        witness = record["payload"]["divergence_witness"]
        assert (witness["t_exp"], witness["eps_exp"], witness["coeff"]) == ("3", -1, "1/4")
        rows = {r["t_exp"]: r["coeffs"] for r in record["payload"]["image_first_rows"]}
        assert rows["1"] == {"1": "1"}
        assert rows["3"] == {"-1": "1/4"}
        assert rows["5"] == {"-3": "-11/32"}
        assert record["payload"]["image_second_rows"] == [
            {"t_exp": "2", "coeffs": {"0": "1"}}
        ]


# -- 2: the chart factors multiply to 1 --------------------------------------------


def test_criterion_2_factor_product_identity():
    with criterion(2, "chart factors multiply to 1 through t^12"):
        prod = chart_factor_product(12)
        assert prod.terms == ((F(0), F(1)),)
        assert prod.trunc == 12
        residual = prod - one
        assert not residual.terms  # zero residual: every known coefficient cancels


# -- 3: monotonicity bound and chart Jacobian ---------------------------------------


def test_criterion_3_monotone_bound_and_jacobian():
    with criterion(3, "slope defect below 1/4; chart Jacobian 1 at origin"):
        got = monotone_bound_check(10.0, 0.01)
        assert got <= 0.25
        # closed form: peak of s/(2(s+1)(s+2)) at s = sqrt(2)
        peak = math.sqrt(2.0) / (2.0 * (4.0 + 3.0 * math.sqrt(2.0)))
        assert got <= peak + 1e-12
        assert abs(got - 0.0858) <= 2e-4
        lift_u, _ = chart_lift_maps()
        assert jacobian_check(lift_u, [(0.0, 0.0)]) == 1.0


# -- 4: product-topology dichotomy ---------------------------------------------------


def test_criterion_4_product_vs_tadic_dichotomy():
    with criterion(4, "family converges, image family diverges"):
        family = (ParamSeries.eps_t(1, 1), ParamSeries.eps_t(0, 2))
        res = product_topology_limit(family)
        assert res.converged
        assert not res.limit[0].terms  # limit (0, t^2)
        assert res.limit[1] == t * t
        image = counterexample_pushforward(8).image
        res2 = product_topology_limit(image)
        assert not res2.converged
        assert res2.component == 0
        assert res2.witness.eps_exp < 0


# -- 5: kernel exactness on 500 random triples ---------------------------------------


def test_criterion_5_kernel_exactness_500_triples():
    with criterion(5, "500 random triples: exact kernel laws in under 5 s"):
        rng = random.Random(2024)
        start = time.perf_counter()
        for _ in range(500):
            f = random_series(rng, max_terms=3, max_num=4)
            g = random_series(rng, max_terms=3, max_num=4)
            h = random_series(rng, max_terms=3, max_num=4)
            # ring laws on the shared knowledge bound
            assert _eq_mod_trunc((f + g) + h, f + (g + h))
            assert _eq_mod_trunc(f * (g + h), f * g + f * h)
            assert f * g == g * f
            # ultrametric
            of, og, os = f.ord(), g.ord(), (f + g).ord()
            if not isinstance(of, ZeroUpToTruncation) and not isinstance(og, ZeroUpToTruncation):
                if not isinstance(os, ZeroUpToTruncation):
                    assert os >= min(of, og)
                    if of != og:
                        assert os == min(of, og)
            if not isinstance(of, ZeroUpToTruncation) and not isinstance(og, ZeroUpToTruncation):
                assert (f * g).ord() == of + og
            # inverse round-trip
            if f.lead() is not None:
                residual = f * f.inv(order=5) - one
                assert not residual.terms
            # power consistency on a conditioned positive-lead series
            # (shift keeps every random exponent strictly above the unit term)
            p = PuiseuxSeries(((F(0), F(1)),) + g.truncate(4).shift(F(9, 4)).terms)
            root = p.pow_rational(F(1, 2), order=4)
            assert _eq_mod_trunc(root * root, p.truncate(4))
            # reparametrization round-trip
            q = t + h.truncate(3).shift(F(13, 4))
            q = PuiseuxSeries(q.terms)
            d = reparam_inverse(q, 3)
            res = q.compose(d, order=3) - t
            assert not res.terms and res.ord_lower_bound() >= 3
        elapsed = time.perf_counter() - start
        assert elapsed <= 5.0, f"kernel suite took {elapsed:.2f}s"


def _eq_mod_trunc(a, b):
    bound = a.trunc
    if b.trunc is not None and (bound is None or b.trunc < bound):
        bound = b.trunc
    return a.truncate(bound) == b.truncate(bound)


# -- 6: solver certificates ------------------------------------------------------------


def test_criterion_6_newton_certificates():
    with criterion(6, "50 solvable instances certified; binomial roots; odd witnesses"):
        rng = random.Random(99)
        target = F(6)
        for _ in range(50):
            roots = []
            for _ in range(rng.randint(1, 3)):
                e = F(rng.randint(1, 4), rng.choice((1, 2)))
                lead = F(rng.choice((1, -1, 2, -2, 3)))
                tail = PuiseuxSeries.t_power(e + rng.randint(1, 2), F(rng.randint(-3, 3)))
                roots.append(PuiseuxSeries.t_power(e, lead) + tail)
            poly = poly_from_roots(roots)
            branches = np_roots(poly, target)
            assert branches, "solvable instance produced no branches"
            for b in branches:
                assert b.certified_order is None or b.certified_order >= target
                residual = poly.eval(b.series)
                lb = residual.ord_lower_bound()
                assert lb is None or lb >= target

        # X^2 - (t + t^2) against the independent binomial oracle, termwise
        poly = PolyOverSeries((-(t + t * t), PuiseuxSeries.zero(), one))
        branches = np_roots(poly, F(7, 2))
        expect = binomial_series(F(1, 2), [F(0), F(1)], 3)
        plus = next(b for b in branches if b.series.lead()[1] > 0)
        minus = next(b for b in branches if b.series.lead()[1] < 0)
        for k, c in enumerate(expect):
            assert plus.series.coeff(F(1, 2) + k) == c
            assert minus.series.coeff(F(1, 2) + k) == -c

        # 20 random odd-degree instances with a guaranteed rational branch
        for _ in range(20):
            root = PuiseuxSeries.t_power(F(rng.randint(1, 3)), F(rng.choice((1, -1, 2))))
            even_part = [PuiseuxSeries.t_power(rng.randint(1, 3), F(rng.randint(1, 3))),
                         PuiseuxSeries.zero(), one]
            poly = poly_from_roots([root], extra=[even_part])
            b = rc_witness_odd(poly, 5)
            residual = poly.eval(b.series)
            lb = residual.ord_lower_bound()
            assert lb is None or lb >= 5


# -- 7: Hoelder probe --------------------------------------------------------------------


def test_criterion_7_holder_probe():
    with criterion(7, "cube root gives alpha 1/3; stretch alpha positive, no violations"):
        (x,) = variables("x")
        cube_root = map_expr((Pow(x, F(1, 3)),), ("x",))
        spec1 = ArcSamplerSpec(dim=1, unit_lead=True)
        est = holder_probe(cube_root, spec1, trials=100, seed=0)
        assert est.alpha == F(1, 3)
        assert est.constant_offset >= 0
        assert est.sample_count == 100

        phi = parse_map("(x*(1 + y^2/(x^2+y^2))^(1/4), y)")
        spec2 = ArcSamplerSpec(dim=2, min_lead_exp=(F(1), F(2)))
        est2 = holder_probe(phi, spec2, trials=100, seed=0)
        assert est2.alpha > 0
        assert est2.sample_count == 100
        assert est2.constant_offset >= 0
        # re-walk the same seeded pair stream and check the ord inequality
        violations = 0
        checked = 0
        i = 0
        while checked < 100:
            if i == 0:
                g, d = canonical_pair(spec2)
            else:
                g, d = sample_pair(random.Random(0 ^ i), spec2)
            i += 1
            dist = tadic_ord_dist(g, d)
            if isinstance(dist, ZeroUpToTruncation):
                continue
            try:
                img = tadic_ord_dist(
                    eval_map_series(phi, g, order=16),
                    eval_map_series(phi, d, order=16),
                )
            except Exception:
                continue
            if isinstance(img, ZeroUpToTruncation):
                if img.trunc is None:
                    checked += 1
                continue
            checked += 1
            if img < est2.alpha * dist + est2.constant_offset:
                violations += 1
        assert checked == 100 and violations == 0


# -- 8: power-law fit ----------------------------------------------------------------------


def test_criterion_8_loja_fit():
    with criterion(8, "synthetic |x| vs |x|^3 recovers r near 3, tight validation"):
        (x,) = variables("x")
        fit = loja_fit(
            map_expr((x,), ("x",)),
            map_expr((x * x * x,), ("x",)),
            [(-1.0, 1.0)],
            samples=200,
            seed=0,
        )
        assert abs(fit.r - 3.0) <= 0.15  # within 5% of 3
        assert fit.max_violation <= 1e-9
        assert fit.validation_samples > 0


# -- 9: transfer checks -----------------------------------------------------------------------


def test_criterion_9_transfer_checks():
    with criterion(9, "injectivity transfer, square witness, Whitney preimage"):
        (x,) = variables("x")
        cube = map_expr((x * x * x,), ("x",))
        rep = transfer_check("injective", cube, ArcSamplerSpec(dim=1), trials=100, seed=0)
        assert rep.status == "pass" and rep.trials == 100

        square = map_expr((x * x,), ("x",))
        with pytest.raises(CounterexampleFound) as info:
            transfer_check("injective", square, ArcSamplerSpec(dim=1), trials=100, seed=0)
        assert info.value.witness == (("t",), ("-t",))

        h = whitney_umbrella_map()
        gamma = (t, t * t, t * t)
        pre = solve_preimage_arc(h, gamma, 6)
        assert pre == (t, t)
        image = eval_map_series(h, pre)
        assert image == gamma  # zero residual: exact equality


# -- 10: parser round-trips --------------------------------------------------------------------


def test_criterion_10_parser_roundtrip():
    with criterion(10, "200 series and 100 maps round-trip; errors carry spans"):
        rng = random.Random(123)
        for _ in range(200):
            s = random_series(rng, max_terms=5)
            assert parse_series(render_series(s)) == s
        for _ in range(100):
            m = MapExpr((_random_expr(rng, 0),), ("x", "y"))
            text = render_map(m)
            assert render_map(parse_map(text, ("x", "y"))) == text
        # malformed inputs: spanned rejections, never abnormal termination
        alphabet = string.printable
        for _ in range(300):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
            for fn in (parse_series, parse_map):
                try:
                    fn(text)
                except ParseError as e:
                    assert 0 <= e.start <= max(1, len(text))
                    assert e.start <= e.end


def _random_expr(rng, depth):
    from arcfield.mapexpr import Add, Const, Div, Mul, Sub, Var

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
