import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arcfield.errors import (
    ArcFieldError,
    GuardViolation,
    IrrationalLeadingRoot,
    NegativeBaseForEvenRoot,
    ZeroUpToTruncationError,
)
from arcfield.mapexpr import (
    Add,
    Const,
    Div,
    Mul,
    Pow,
    Sub,
    eval_float,
    eval_map_float,
    eval_map_series,
    eval_series,
    eval_tangent,
    map_expr,
    render_expr,
    render_map,
    variables,
)
from arcfield.param_series import LaurentEps, ParamSeries
from arcfield.puiseux import PuiseuxSeries
from arcfield.transport import jacobian_check

F = Fraction
t = PuiseuxSeries.t_power(1)


def test_eval_float_basic():
    x, y = variables("x", "y")
    expr = (x + y) * (x - y)
    assert eval_float(expr, (3.0, 2.0)) == 5.0


def test_guards():
    x, y = variables("x", "y")
    with pytest.raises(GuardViolation):
        eval_float(x / y, (1.0, 0.0))
    with pytest.raises(GuardViolation):
        eval_float(Pow(x, F(1, 2)), (-1.0,))
    # odd roots of negatives are fine and signed
    assert eval_float(Pow(x, F(1, 3)), (-8.0,)) == -2.0


def test_eval_series_matches_float():
    x, y = variables("x", "y")
    m = map_expr(((x * x + y) / (Const(1) + y), y), ("x", "y"))
    arc = (t, t * t)
    image = eval_map_series(m, arc, order=6)
    t0 = 0.01
    floats = eval_map_float(m, (t0, t0 * t0))
    approx = sum(float(c) * t0 ** float(e) for e, c in image[0].terms)
    assert abs(approx - floats[0]) < 1e-10


def test_series_even_root_guard():
    x, = variables("x")
    with pytest.raises(NegativeBaseForEvenRoot, match="even root of a negative lead"):
        eval_series(Pow(x, F(1, 2)), (-t,), order=4)
    # a lead unknown below the truncation may still turn out positive
    with pytest.raises(ZeroUpToTruncationError):
        eval_series(Pow(x, F(1, 2)), (PuiseuxSeries((), trunc=F(1)),), order=4)


def test_series_zero_base_matches_the_float_guard():
    x, = variables("x")
    zero = PuiseuxSeries.zero()
    with pytest.raises(GuardViolation, match="zero base with negative exponent"):
        eval_series(Pow(x, F(-1)), (zero,), order=4)
    with pytest.raises(GuardViolation, match="zero base with negative exponent"):
        eval_float(Pow(x, F(-1)), (0.0,))
    assert eval_series(Pow(x, F(0)), (zero,), order=4) == PuiseuxSeries.constant(1)
    assert eval_float(Pow(x, F(0)), (0.0,)) == 1.0
    # a root of zero is zero, in the series ring and at a float point
    assert eval_series(Pow(x, F(1, 2)), (zero,), order=4) == zero
    assert eval_float(Pow(x, F(1, 2)), (0.0,)) == 0.0
    with pytest.raises(GuardViolation, match="zero base with negative exponent"):
        eval_series(x / (x - x), (t,), order=4)


# -- the evaluator's powers are the kernel's ---------------------------------------

POWER_TABLE_EXPONENTS = [F(1, 2), F(1, 3), F(2), F(0), F(-1), F(-1, 2)]
POWER_TABLE_SHAPES = ["zero", "unknown", "negative", "positive", "param"]


@st.composite
def power_table_bases(draw):
    """A base of one shape: exactly zero, O(t^2), a known negative or positive
    lead (a sixth power, so that both roots exist, or not), and a ParamSeries
    whose lead +-1 + k e is not a parameter monomial."""
    shape = draw(st.sampled_from(POWER_TABLE_SHAPES))
    if shape == "zero":
        return PuiseuxSeries.zero()
    if shape == "unknown":
        return PuiseuxSeries.unknown(2)
    k = F(draw(st.integers(min_value=1, max_value=5)), draw(st.integers(min_value=1, max_value=3)))
    v = F(draw(st.integers(min_value=0, max_value=6)), draw(st.integers(min_value=1, max_value=2)))
    tail = F(draw(st.integers(min_value=-5, max_value=5).filter(bool)))
    trunc = draw(st.sampled_from([None, v + 3]))
    if shape == "param":
        lead = LaurentEps({0: draw(st.sampled_from([-1, 1])), 1: k})
        return ParamSeries([(v, lead), (v + 1, LaurentEps({0: tail}))], trunc=trunc)
    sign = -1 if shape == "negative" else 1
    lead = sign * draw(st.sampled_from([k**6, k]))
    return PuiseuxSeries([(v, lead), (v + F(1, 2), tail)], trunc=trunc)


def _power_outcome(fn):
    try:
        return fn()
    except ArcFieldError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(power_table_bases(), st.sampled_from(POWER_TABLE_EXPONENTS))
def test_series_powers_are_the_kernels(base, e):
    """eval_series adds no guard of its own: a power, and for e = -1 a
    quotient, is what ``pow_rational`` gives or raises."""
    x, = variables("x")
    want = _power_outcome(lambda: base.pow_rational(e, order=8))
    assert _power_outcome(lambda: eval_series(Pow(x, e), (base,), order=8)) == want
    if e == -1:
        assert _power_outcome(lambda: eval_series(Const(1) / x, (base,), order=8)) == want


PARAM_BASE = ParamSeries([(1, LaurentEps({0: 1, 1: 1}))], trunc=4)
NEGATIVE_PARAM_BASE = ParamSeries([(1, LaurentEps({0: -1, 1: 1}))], trunc=4)


@pytest.mark.parametrize("base, e, want", [
    pytest.param(PuiseuxSeries.zero(), F(1, 2), PuiseuxSeries.zero(), id="zero-root"),
    pytest.param(PuiseuxSeries.zero(), F(0), PuiseuxSeries.one(), id="zero-zeroth"),
    pytest.param(PuiseuxSeries.zero(), F(-1, 2), GuardViolation, id="zero-negative"),
    pytest.param(PuiseuxSeries.unknown(2), F(2), PuiseuxSeries.unknown(4), id="unknown-square"),
    pytest.param(PuiseuxSeries.unknown(2), F(0), ZeroUpToTruncationError, id="unknown-zeroth"),
    pytest.param(PuiseuxSeries.unknown(2), F(1, 2), ZeroUpToTruncationError, id="unknown-root"),
    pytest.param(-t, F(1, 2), NegativeBaseForEvenRoot, id="negative-even-root"),
    pytest.param(-t, F(1, 3), PuiseuxSeries.t_power(F(1, 3), -1), id="negative-odd-root"),
    pytest.param(t.scale(2), F(1, 2), IrrationalLeadingRoot, id="irrational-root"),
    pytest.param(PARAM_BASE, F(1, 2), IrrationalLeadingRoot, id="param-non-monomial-root"),
    pytest.param(PARAM_BASE, F(2), PARAM_BASE * PARAM_BASE, id="param-non-monomial-square"),
    pytest.param(NEGATIVE_PARAM_BASE, F(1, 2), NegativeBaseForEvenRoot,
                 id="param-negative-non-monomial-root"),
    pytest.param(NEGATIVE_PARAM_BASE, F(1, 3), IrrationalLeadingRoot,
                 id="param-negative-non-monomial-odd-root"),
])
def test_series_power_guards(base, e, want):
    x, = variables("x")
    if isinstance(want, PuiseuxSeries):
        assert eval_series(Pow(x, e), (base,), order=8) == want
    else:
        with pytest.raises(want) as info:
            eval_series(Pow(x, e), (base,), order=8)
        assert type(info.value) is want


def test_zero_factor_does_not_hide_a_negative_even_root():
    """A final guard is not swallowed by a zero factor: (x - x) x^(1/2) at a
    ParamSeries whose lead -1 + e is negative is refused, as eval_float
    refuses it at a negative point."""
    x, = variables("x")
    expr = Mul(Sub(x, x), Pow(x, F(1, 2)))
    with pytest.raises(NegativeBaseForEvenRoot, match=r"\(-1 \+ e\)\^1/2"):
        eval_series(expr, (NEGATIVE_PARAM_BASE,), order=8)
    with pytest.raises(GuardViolation):
        eval_float(expr, (-1.0,))


def test_diff_against_finite_differences():
    x, y = variables("x", "y")
    exprs = [
        x * x * y + y,
        (x + y) / (Const(1) + x * x),
        Pow(Const(1) + x * x + y * y, F(1, 2)),
        -x * y + Pow(y, 3),
    ]
    p = (0.7, -0.3)
    h = 1e-6
    for expr in exprs:
        for var in (0, 1):
            sym = eval_tangent(expr, p, var)[1]
            bumped = list(p)
            bumped[var] += h
            dropped = list(p)
            dropped[var] -= h
            fd = (eval_float(expr, bumped) - eval_float(expr, dropped)) / (2 * h)
            assert abs(sym - fd) < 1e-6


_rational_exprs = st.recursive(
    st.one_of(st.sampled_from(variables("x", "y")), st.integers(-3, 3).map(Const)),
    lambda children: st.one_of(
        st.builds(lambda op, a, b: op(a, b), st.sampled_from((Add, Sub, Mul, Div)),
                  children, children),
        st.builds(Pow, children, st.sampled_from((-3, -2, -1, 1, 2, 3))),
    ),
    max_leaves=8,
)
_dyadics = st.integers(-8, 8).map(lambda k: F(k, 4))


@settings(max_examples=300, deadline=None)
@given(expr=_rational_exprs, point=st.tuples(_dyadics, _dyadics), var=st.sampled_from((0, 1)))
def test_tangent_matches_the_exact_series_derivative(expr, point, var):
    """The slope along e_var is the t^1 coefficient of expr(point + t e_var).

    Integer powers keep the exact ring free of irrational roots.  Where the
    exact path refuses (a zero denominator or a zero base under a negative
    power, both guards), the tangent must refuse too; where only the tangent
    refuses, the value itself is undefined.
    """
    comps = tuple(PuiseuxSeries.constant(c) + (t if i == var else 0) for i, c in enumerate(point))
    fpoint = tuple(map(float, point))
    try:
        image = eval_series(expr, comps, order=2)
    except GuardViolation:
        with pytest.raises(GuardViolation):
            eval_tangent(expr, fpoint, var)
        return
    except ZeroUpToTruncationError:  # y/y - y/y is 0 only up to t^order
        return
    try:
        slope = eval_tangent(expr, fpoint, var)[1]
    except GuardViolation:
        with pytest.raises(GuardViolation):
            eval_float(expr, fpoint)
        return
    assert math.isclose(slope, float(image.coeff(1)), rel_tol=1e-9, abs_tol=1e-12)


def test_jacobian_identity():
    x, y = variables("x", "y")
    ident = map_expr((x, y), ("x", "y"))
    assert jacobian_check(ident, [(2.0, 5.0)]) == 1.0


def test_jacobian_blowdown_vanishes_on_divisor():
    u, v = variables("u", "v")
    blowdown = map_expr((u, u * v), ("u", "v"))
    assert jacobian_check(blowdown, [(0.0, 3.0)]) == 0.0
    assert jacobian_check(blowdown, [(2.0, 3.0)]) == 2.0


def test_render_expr():
    x, y = variables("x", "y")
    m = map_expr((x * (Const(1) + (y * y) / (x * x + y * y)) ** F(1, 4), y), ("x", "y"))
    assert render_map(m) == "(x*(1 + y*y/(x*x + y*y))^(1/4), y)"
    assert render_expr(x - (y - x), ("x", "y")) == "x - (y - x)"
