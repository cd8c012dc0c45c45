import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import lagrange_inverse, random_series

from arcfield import transport
from arcfield.errors import (
    GuardViolation,
    IndistinguishableAtTruncation,
    NoRealBranch,
    UnsupportedShape,
    ZeroArc,
)
from arcfield.mapexpr import eval_map_float, eval_map_series, map_expr, variables
from arcfield.parser import parse_map
from arcfield.param_series import LaurentEps, ParamSeries
from arcfield.puiseux import PuiseuxSeries
from arcfield.transport import (
    CHART_U,
    CHART_V,
    chart_factor_coefficients,
    chart_factor_product,
    chart_factor_series,
    chart_lift_maps,
    counterexample_pushforward,
    jacobian_check,
    lift_arc_blowup,
    monotone_bound_check,
    push_through_chart,
    radial_stretch_map,
    solve_preimage_arc,
    whitney_umbrella_map,
)

F = Fraction
t = PuiseuxSeries.t_power(1)
one = PuiseuxSeries.one()


def slope_defect(x, y):
    """g(x, y) = x^2 y^2 / (2 (x^2 + y^2) (x^2 + 2 y^2)), y nonzero: the
    stretch's x-slope is Q^(1/4) (1 - g)."""
    x2, y2 = x * x, y * y
    return x2 * y2 / (2.0 * (x2 + y2) * (x2 + 2.0 * y2))


class TestCatalog:
    def test_chart_u_fixes_origin_ray(self):
        lift_u, _ = chart_lift_maps()
        # second component at v = 0 is 0; u-axis is fixed since R(0) = 1
        assert eval_map_float(lift_u, (0.0, 0.0)) == (0.0, 0.0)
        assert eval_map_float(lift_u, (3.0, 0.0)) == (3.0, 0.0)

    def test_exceptional_divisor_preserved(self):
        lift_u, _ = chart_lift_maps()
        img = eval_map_float(lift_u, (0.0, 0.7))
        assert img[0] == 0.0 and img[1] != 0.0

    def test_divisor_restriction_series(self):
        # on u = 0 the chart lift acts by v -> v * R(v)^(-1/4); compare the
        # expansion against an independent dense-list oracle
        from conftest import binomial_series, poly_inv, poly_mul

        lift_u, _ = chart_lift_maps()
        v = PuiseuxSeries.t_power(1)
        img = eval_map_series(lift_u, (PuiseuxSeries.zero(), v), order=6)
        assert not img[0].terms
        w = poly_mul([F(0), F(0), F(1)], poly_inv([F(1), F(0), F(1)], 6), 6)
        factor = binomial_series(F(-1, 4), w, 6)
        for k in range(5):
            assert img[1].coeff(k + 1) == factor[k]

    def test_factor_product_is_one(self):
        prod = chart_factor_product(12)
        assert prod.terms == ((F(0), F(1)),)
        assert prod.trunc == 12

    def test_factor_coefficients(self):
        coeffs = chart_factor_coefficients(8)
        assert coeffs[(0, 0)] == 1
        assert coeffs[(0, 2)] == F(1, 4)
        assert coeffs[(0, 4)] == F(-11, 32)

    def test_stretch_fixes_both_axes(self):
        phi = radial_stretch_map()
        # y-axis: first coordinate 0 stays 0
        img = eval_map_series(phi, (PuiseuxSeries.zero(), t), order=6)
        assert img[0].is_zero() or not img[0].terms
        assert img[1] == t
        # x-axis: P(x, 0) = 1
        img2 = eval_map_series(phi, (t, PuiseuxSeries.zero()), order=6)
        assert img2[0].terms == ((F(1), F(1)),)

    def test_stretch_commutes_with_height(self):
        # second component passes through untouched for arbitrary arcs
        rng = random.Random(31)
        phi = radial_stretch_map()
        for _ in range(20):
            x_arc = random_series(rng, min_exp=F(1), allow_trunc=False)
            y_arc = random_series(rng, min_exp=F(2), allow_trunc=False)
            if x_arc.lead() is None or y_arc.lead() is None:
                continue
            if y_arc.lead()[0] <= x_arc.lead()[0]:
                continue
            img = eval_map_series(phi, (x_arc, y_arc), order=10)
            assert img[1] == y_arc


class TestEvalOnArc:
    def test_identity(self):
        x, y = variables("x", "y")
        ident = map_expr((x, y), ("x", "y"))
        c = (t, t * t)
        assert eval_map_series(ident, c) == c

    def test_whitney_on_diagonal(self):
        img = eval_map_series(whitney_umbrella_map(), (t, t))
        assert img == (t, t * t, t * t)
        # lands on the umbrella x^2 z = y^2
        assert img[0] * img[0] * img[2] == img[1] * img[1]


class TestLift:
    def test_parabola(self):
        tag, d = lift_arc_blowup((t, t * t))
        assert tag == CHART_U
        assert d == (t, t)

    def test_family_chart_coordinates(self):
        eps_t = ParamSeries.eps_t
        tag, d = lift_arc_blowup((eps_t(1, 1), eps_t(0, 2)))
        assert tag == CHART_U
        assert d == (eps_t(1, 1), eps_t(-1, 1))

    def test_steep_arc_uses_other_chart(self):
        tag, d = lift_arc_blowup((t * t, t))
        assert tag == CHART_V
        assert d == (t, t)

    def test_zero_arc_rejected(self):
        with pytest.raises(ZeroArc):
            lift_arc_blowup((PuiseuxSeries.zero(), PuiseuxSeries.zero()))

    def test_undecidable_orders(self):
        with pytest.raises(IndistinguishableAtTruncation):
            lift_arc_blowup((PuiseuxSeries.unknown(1), t * t))

    @pytest.mark.parametrize("arc, chart, lifted", [
        # (t, O(t^2)) lifts to (t, O(t^2)/t) = (t, O(t))
        pytest.param((t, PuiseuxSeries.unknown(2)), CHART_U, (t, PuiseuxSeries.unknown(1)),
                     id="unknown-second-above"),
        # (O(t^3), t) lifts to (O(t^3)/t, t) = (O(t^2), t)
        pytest.param((PuiseuxSeries.unknown(3), t), CHART_V, (PuiseuxSeries.unknown(2), t),
                     id="unknown-first-above"),
    ])
    def test_known_order_below_an_unknown_component(self, arc, chart, lifted):
        assert lift_arc_blowup(arc) == (chart, lifted)

    @pytest.mark.parametrize("arc, message", [
        pytest.param((t, PuiseuxSeries.unknown(1)), "component orders not comparable",
                     id="unknown-second-at"),
        pytest.param((PuiseuxSeries.unknown(1), t), "component orders not comparable",
                     id="unknown-first-at"),
        pytest.param((PuiseuxSeries.unknown(2), PuiseuxSeries.unknown(2)),
                     "no component has a known order", id="both-unknown"),
    ])
    def test_incomparable_orders_are_refused(self, arc, message):
        with pytest.raises(IndistinguishableAtTruncation, match=message):
            lift_arc_blowup(arc)

    def test_roundtrip_random(self):
        rng = random.Random(37)
        done = 0
        while done < 200:
            c1 = random_series(rng, min_exp=F(1, 2), allow_trunc=False)
            c2 = random_series(rng, min_exp=F(1, 2), allow_trunc=False)
            if c1.lead() is None or c2.lead() is None:
                continue
            done += 1
            tag, d = lift_arc_blowup((c1, c2), order=12)
            back = push_through_chart(tag, d)
            for got, want in zip(back, (c1, c2)):
                diff = got - want
                assert not diff.terms

    def test_chart_coherence_on_ties(self):
        # equal component orders lift in both charts to the same arc downstairs
        c = (t + t * t, t.scale(F(3)))
        tag, d = lift_arc_blowup(c, order=10)
        assert tag == CHART_U
        v_lift = (c[0] * c[1].inv(order=10), c[1])
        back_u = push_through_chart(CHART_U, d)
        back_v = push_through_chart(CHART_V, v_lift)
        for a, b in zip(back_u, back_v):
            diff = a - b
            assert not diff.terms


class TestPushforwardPipeline:
    def test_order_five(self):
        r = counterexample_pushforward(5)
        first, second = r.image
        assert first.coeff(1) == LaurentEps({1: F(1)})
        assert first.coeff(3) == LaurentEps({-1: F(1, 4)})
        assert first.trunc == 5
        assert second.terms == ((F(2), LaurentEps({0: F(1)})),)

    def test_order_seven_adds_next_term(self):
        r = counterexample_pushforward(7)
        assert r.image[0].coeff(5) == LaurentEps({-3: F(-11, 32)})

    @pytest.mark.parametrize("order", [8, 32, 96])
    def test_image_is_the_rescaled_plain_factor(self, order):
        # homogeneity: the first image component is e t F1(t/e), so each
        # term c v^n of the plain-kernel F1 lands at c e^(1-n) t^(n+1)
        f1 = chart_factor_series(order)[0]
        expect = ParamSeries(
            [(n + 1, LaurentEps({1 - int(n): c})) for n, c in f1.terms if n + 1 < order],
            trunc=order,
        )
        assert counterexample_pushforward(order).image[0] == expect

    def test_minimum_order_enforced(self):
        with pytest.raises(ValueError):
            counterexample_pushforward(2)

    def test_witness_and_selection_agree(self):
        r = counterexample_pushforward(9)
        w = r.witness
        assert w is not None
        assert (w.t_exp, w.eps_exp, w.coeff) == (F(3), -1, F(1, 4))
        m0, n0 = w.m0n0
        assert (m0, n0) == (0, 2)
        # selection rule reproduces the witness location
        assert w.t_exp == m0 + n0 + 1
        assert w.eps_exp == m0 - n0 + 1
        assert r.factor_coeffs[(m0, n0)] == w.coeff


def full_grid_max(box, step):
    """Every point of the grid, in the evaluation order of the original scan."""
    n = round(box / step)
    xs2 = [(i * step) ** 2 for i in range(n + 1)]
    best = 0.0
    for iy in range(1, n + 1):
        y2 = (iy * step) ** 2
        y2_2 = 2.0 * y2
        for x2 in xs2:
            val = x2 * y2 / (2.0 * (x2 + y2) * (x2 + y2_2))
            if val > best:
                best = val
    return best


class TestMonotoneBound:
    def test_default_grid_pinned(self):
        assert monotone_bound_check() == 0.08578643761462576
        assert monotone_bound_check(10.0, 0.01) == 0.08578643761462576

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=300),
        st.floats(min_value=-60.0, max_value=60.0),
        st.floats(min_value=0.75, max_value=1.25),
    )
    def test_ridge_scan_equals_full_grid(self, n, log_box, jitter):
        box = 10.0 ** log_box
        step = box / n * jitter
        assert monotone_bound_check(box, step) == full_grid_max(box, step)

    @pytest.mark.parametrize("box, step", [
        (10.0, 0.0), (10.0, -0.01), (10.0, math.nan), (math.inf, 0.01), (math.nan, 0.01),
        (-1.0, 0.01), (0.0, 0.01), (0.005, 0.01), (1e300, 1e-10),
        (1e-298, 1e-300), (1e-98, 1e-100), (1e100, 1e99),
    ])
    def test_rejects_bad_grids(self, box, step):
        with pytest.raises(ValueError):
            monotone_bound_check(box, step)

    def test_grid_max_against_1d_reduction(self):
        got = monotone_bound_check(10.0, 0.05)
        peak = math.sqrt(2) / (2 * (4 + 3 * math.sqrt(2)))
        assert got <= peak <= 0.25
        assert abs(got - peak) < 1e-3

    def test_point_on_axis(self):
        assert slope_defect(0.0, 1.0) == 0.0

    def test_scale_invariance(self):
        for x, y in ((1.0, 2.0), (-3.0, 0.5), (2.5, -2.5)):
            for lam in (2.0, -7.0, 0.125):
                a = slope_defect(x, y)
                b = slope_defect(lam * x, lam * y)
                assert abs(a - b) < 1e-12

    def test_slope_factor_matches_numeric_derivative(self):
        # d/dx [x Q(x,y)^(1/4)] = Q^(1/4) (1 - g(x,y)); g is the integrand
        phi = radial_stretch_map()
        h = 1e-6
        for x, y in ((0.8, 0.5), (2.0, -1.0), (-1.5, 3.0)):
            up = eval_map_float(phi, (x + h, y))[0]
            down = eval_map_float(phi, (x - h, y))[0]
            fd = (up - down) / (2 * h)
            q = 1 + y * y / (x * x + y * y)
            expect = q ** 0.25 * (1 - slope_defect(x, y))
            assert abs(fd - expect) < 1e-5


class TestJacobianCheck:
    def test_chart_lift_at_origin(self):
        lift_u, _ = chart_lift_maps()
        assert jacobian_check(lift_u, [(0.0, 0.0)]) == 1.0

    def test_identity_map(self):
        x, y = variables("x", "y")
        ident = map_expr((x, y), ("x", "y"))
        assert jacobian_check(ident, [(1.0, 2.0), (-3.0, 0.5)]) == 1.0

    def test_blowdown_degenerates_on_divisor(self):
        u, v = variables("u", "v")
        blowdown_u = map_expr((u, u * v), ("u", "v"))  # chart U of the blow-up
        assert jacobian_check(blowdown_u, [(0.0, 1.0)]) == 0.0
        assert jacobian_check(blowdown_u, [(2.0, 1.0), (0.5, 9.0)]) == 0.5

    def test_lift_nonsingular_on_patch(self):
        lift_u, lift_v = chart_lift_maps()
        pts = [(x / 4.0, y / 4.0) for x in range(-8, 9) for y in range(-8, 9)]
        assert jacobian_check(lift_u, pts) > 0.1
        assert jacobian_check(lift_v, pts) > 0.1

    @pytest.mark.parametrize("exprs, names", [
        pytest.param(lambda x: (x,), ("x",), id="1x1"),
        pytest.param(lambda x, y, z: (x, y * z, z), ("x", "y", "z"), id="3x3"),
        pytest.param(lambda x, y: (x, x * y, y), ("x", "y"), id="2x3"),
    ])
    def test_only_two_by_two_maps(self, exprs, names):
        m = map_expr(exprs(*variables(*names)), names)
        with pytest.raises(ValueError, match="from 2 to 2 variables"):
            jacobian_check(m, [(1.0,) * len(names)])


def spy_final_evaluations(monkeypatch):
    """Record each candidate preimage arc that the solver evaluates, and how."""
    tried = []

    def spy(h, arc, order=None):
        try:
            image = eval_map_series(h, arc, order=order)
        except GuardViolation as exc:
            tried.append((arc, type(exc).__name__))
            raise
        tried.append((arc, "ok"))
        return image

    monkeypatch.setattr(transport, "eval_map_series", spy)
    return tried


class TestPreimage:
    def test_cube(self):
        x, = variables("x")
        h = map_expr((x * x * x,), ("x",))
        assert solve_preimage_arc(h, (t,), 3) == (PuiseuxSeries.t_power(F(1, 3)),)

    def test_whitney_example(self):
        h = whitney_umbrella_map()
        pre = solve_preimage_arc(h, (t, t * t, t * t), 6)
        assert pre == (t, t)
        image = eval_map_series(h, pre)
        assert image == (t, t * t, t * t)

    def test_series_reversion_oracle(self):
        x, = variables("x")
        h = map_expr((x * x * x + x,), ("x",))
        pre = solve_preimage_arc(h, (t,), 7)[0]
        expect = lagrange_inverse([F(0), F(1), F(0), F(1)], 8)
        for k in range(1, 7):
            assert pre.coeff(k) == expect[k]

    def test_no_real_branch(self):
        x, = variables("x")
        h = map_expr((x * x,), ("x",))
        with pytest.raises(NoRealBranch):
            solve_preimage_arc(h, (-t,), 4)

    def test_unsupported_shape(self):
        x, y = variables("x", "y")
        tangled = map_expr((x * y, x * y), ("x", "y"))
        with pytest.raises(UnsupportedShape):
            solve_preimage_arc(tangled, (t, t), 3)

    def test_quotient_by_a_known_value(self):
        # x = 2/3 t, so y/2 + 8/27 t^3 = t^2
        pre = solve_preimage_arc(parse_map("(x, y/2 + x^3)"), (F(2, 3) * t, t * t), 6)
        assert pre == (F(2, 3) * t, 2 * t * t - F(16, 27) * t ** 3)

    def test_a_branch_that_fails_the_final_check_is_rejected(self, monkeypatch):
        # x^2 = t^2 has the branches -t and t; only t also gives x^3 = t^3
        tried = spy_final_evaluations(monkeypatch)
        pre = solve_preimage_arc(parse_map("(x^2, x^3)", ("x",)), (t * t, t ** 3), 6)
        assert pre == (t,)
        assert tried == [((-t,), "ok"), ((t,), "ok")]

    def test_no_branch_passes_the_final_check(self, monkeypatch):
        # x^3 = +-t^3 for both branches of x^2 = t^2, never 2 t^3
        tried = spy_final_evaluations(monkeypatch)
        with pytest.raises(NoRealBranch,
                           match="no real preimage arc matches to the requested order"):
            solve_preimage_arc(parse_map("(x^2, x^3)", ("x",)), (t * t, 2 * t ** 3), 6)
        assert tried == [((-t,), "ok"), ((t,), "ok")]

    def test_a_guard_in_the_final_evaluation_rejects_the_branch(self, monkeypatch):
        # x = t, and then -1 - t^2 has no real square root
        tried = spy_final_evaluations(monkeypatch)
        with pytest.raises(NoRealBranch):
            solve_preimage_arc(parse_map("(x, (-1 - x^2)^(1/2))", ("x",)), (t, t), 4)
        assert tried == [((t,), "NegativeBaseForEvenRoot")]

    def test_a_rejected_branch_leaves_no_stale_unknown(self):
        # x = -t gives y = 3t and x*y = -3t^2, so it is rejected; x = t must
        # solve y afresh, y = t
        pre = solve_preimage_arc(parse_map("(x^2, x + y, x*y)"), (t * t, 2 * t, t * t), 6)
        assert pre == (t, t)

    def test_unknown_in_a_denominator(self):
        with pytest.raises(UnsupportedShape, match="unknown appears in a denominator"):
            solve_preimage_arc(parse_map("(x, x/y)"), (t, t), 6)
