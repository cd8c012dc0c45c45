"""Blow-up charts, arc lifting and pushforward, and the stretch-map catalog.

The catalog centres on one blow-analytic homeomorphism of the plane: the
radial stretch (x, y) -> (x * Q(x, y)^(1/4), y) with Q = 1 + y^2/(x^2+y^2),
which fixes both axes, commutes with (x, y) -> y, and lifts through the
point blow-up to chart maps that are analytic across the exceptional
divisor.  Pushing the parabola family (s t, t^2) through it, computed
exactly in chart coordinates, exhibits a coefficient of t^3 proportional to
1/s: the family of images has no coefficientwise limit as s -> 0 although
the family itself converges.

Germs live on t > 0 only, so piecewise definitions at the origin need no
case split: compositions use the formulas valid for small t > 0 and limits
at 0 are recovered afterwards.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .errors import (
    GuardViolation,
    IndistinguishableAtTruncation,
    NoRealBranch,
    UnsupportedShape,
    ZeroArc,
    ZeroUpToTruncationError,
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
    eval_map_series,
    eval_tangent,
    free_vars,
    map_expr,
    variables,
)
from .newton import PolyOverSeries, _poly_mul_series, np_roots, numeric_difference
from .param_series import (
    DivergenceWitness,
    ParamSeries,
    divergence_witness,
    select_m0n0,
)
from .puiseux import PuiseuxSeries
from .record import Record

CHART_U = "U"
CHART_V = "V"


# -- the catalog ---------------------------------------------------------------


def stretch_factor() -> Expr:
    """Q(x, y) = 1 + y^2 / (x^2 + y^2); bounded between 1 and 2 off the origin."""
    x, y = variables("x", "y")
    return Const(1) + (y**2) / (x**2 + y**2)


def radial_stretch_map() -> MapExpr:
    """(x, y) -> (x * Q^(1/4), y): fixes both axes and every horizontal line."""
    x, y = variables("x", "y")
    return map_expr((x * Pow(stretch_factor(), Fraction(1, 4)), y), ("x", "y"))


def chart_lift_maps() -> Tuple[MapExpr, MapExpr]:
    """The lifts of the radial stretch to the two blow-up charts.

    In chart U the stretch becomes (u, v) -> (u R(v)^(1/4), v R(v)^(-1/4))
    with R(v) = Q(1, v); in chart V it is (u, v) -> (u Q(u, 1)^(1/4), v).
    Both are analytic across u = 0, which is what makes the stretch
    blow-analytic.
    """
    u, v = variables("u", "v")
    r_u = Const(1) + (v**2) / (Const(1) + v**2)
    lift_u = map_expr(
        (u * Pow(r_u, Fraction(1, 4)), v * Pow(r_u, Fraction(-1, 4))), ("u", "v")
    )
    q_v = Const(1) + Const(1) / (u**2 + Const(1))
    lift_v = map_expr((u * Pow(q_v, Fraction(1, 4)), v), ("u", "v"))
    return lift_u, lift_v


def whitney_umbrella_map() -> MapExpr:
    """(u, v) -> (u, u v, v^2): resolves the surface x^2 z = y^2."""
    u, v = variables("u", "v")
    return map_expr((u, u * v, v**2), ("u", "v"))


# -- arc transport -------------------------------------------------------------


def _quotient(num, den, order):
    if num.is_zero():
        return type(num).zero()
    return num * den.inv(order=order)


def lift_arc_blowup(c: Sequence, order=None) -> tuple:
    """Lift a plane arc through the point blow-up at the origin.

    Returns (chart tag, chart arc): chart U carries (c1, c2/c1) when
    ord c1 <= ord c2, chart V carries (c1/c2, c2) otherwise; ties take U.
    Works for plain and parametric series alike.
    """
    if len(c) != 2:
        raise ValueError("blow-up lift needs a plane arc")
    c1, c2 = c
    if c1.is_zero() and c2.is_zero():
        raise ZeroArc("cannot lift the identically zero arc")
    l1, l2 = c1.lead(), c2.lead()
    if l1 is not None and l2 is not None:
        use_u = l1[0] <= l2[0]
    elif l1 is not None:
        # c2 has no known term: either exactly zero (ord infinity) or unknown
        if c2.is_zero() or l1[0] < c2.trunc:
            use_u = True
        else:
            raise IndistinguishableAtTruncation("component orders not comparable")
    elif l2 is not None:
        if c1.is_zero() or l2[0] < c1.trunc:
            use_u = False
        else:
            raise IndistinguishableAtTruncation("component orders not comparable")
    else:
        raise IndistinguishableAtTruncation("no component has a known order")
    if use_u:
        return CHART_U, (c1, _quotient(c2, c1, order))
    return CHART_V, (_quotient(c1, c2, order), c2)


def push_through_chart(tag: str, d: Sequence) -> tuple:
    """Compose a chart arc with the blow-down: exact products."""
    u, v = d
    if tag == CHART_U:
        return (u, u * v)
    if tag == CHART_V:
        return (u * v, v)
    raise ValueError(f"unknown chart {tag!r}")


# -- the discontinuity pipeline -------------------------------------------------


class PushforwardResult(Record):
    """Image of the parabola family under the stretch, with its analysis."""

    __slots__ = ("chart", "lifted", "image", "witness", "factor_coeffs")

    chart: str
    lifted: tuple  # chart coordinates of the family, exact
    image: tuple  # the pushed family (ParamSeries pair)
    witness: Optional[DivergenceWitness]
    factor_coeffs: dict  # (m, n) -> coefficient of u^m v^n in the chart factor


def counterexample_pushforward(t_order) -> PushforwardResult:
    """Push the family (s t, t^2) through the radial stretch, exactly.

    Lift to the blow-up (chart U gives (s t, t/s)), apply the chart lift,
    blow back down, and truncate to ``t_order``.  The second image component
    is t^2 on the nose; the first carries 1/s * t^3 / 4, so the family of
    images diverges coefficientwise while the source family converges.
    """
    t_order = Fraction(t_order)
    if t_order < 3:
        raise ValueError("t_order must be at least 3 to see the t^3 coefficient")
    family = (ParamSeries.eps_t(1, 1), ParamSeries.eps_t(0, 2))
    tag, lifted = lift_arc_blowup(family, order=t_order)
    lift_u, lift_v = chart_lift_maps()
    lift = lift_u if tag == CHART_U else lift_v
    chart_image = eval_map_series(lift, lifted, order=t_order)
    image = push_through_chart(tag, chart_image)
    image = tuple(comp.truncate(t_order) for comp in image)
    witness = divergence_witness(image[0])
    coeffs = chart_factor_coefficients(t_order)
    picked = select_m0n0(coeffs)
    if witness is not None and picked is not None:
        witness = DivergenceWitness(
            t_exp=witness.t_exp,
            eps_exp=witness.eps_exp,
            coeff=witness.coeff,
            m0n0=picked,
        )
    return PushforwardResult(tag, lifted, image, witness, coeffs)


def chart_factor_series(order) -> Tuple[PuiseuxSeries, PuiseuxSeries]:
    """The two scalar factors of the chart-U lift as series in v.

    Component maps are (u, v) -> (u * F1(v), v * F2(v)); returns (F1, F2)
    with F1 = R(v)^(1/4), F2 = R(v)^(-1/4), so F1 * F2 = 1 identically.
    """
    order = Fraction(order)
    v = PuiseuxSeries.t_power(1)
    one = PuiseuxSeries.one()
    r = one + (v * v) * (one + v * v).inv(order=order)
    return (
        r.pow_rational(Fraction(1, 4), order=order),
        r.pow_rational(Fraction(-1, 4), order=order),
    )


def chart_factor_product(order) -> PuiseuxSeries:
    """F1 * F2 as a truncated series; identically 1 to any requested order."""
    f1, f2 = chart_factor_series(order)
    return (f1 * f2).truncate(order)


def chart_factor_coefficients(order) -> dict:
    """Monomial coefficients a[m, n] of the chart-U first factor F1(u, v).

    F1 does not depend on u, so all mass sits at m = 0.
    """
    f1, _f2 = chart_factor_series(order)
    return {(0, int(e)): c for e, c in f1.terms}


# -- numeric probes of the catalog ----------------------------------------------


# a past-peak column whose value times this is below the best so far ends a walk
_RIDGE_MARGIN = 1.0 + 1e-12


def _grid_size(box: float, step: float) -> int:
    """n = round(box / step), or ValueError outside monotone_bound_check's range.

    step^4 is the smallest nonzero numerator the scan forms and 12 (n step)^4
    bounds its largest denominator.
    """
    if not (0.0 < box < math.inf and 0.0 < step < math.inf):
        raise ValueError(f"grid box and step must be finite and positive, got {box!r}, {step!r}")
    ratio = box / step
    if not ratio > 0.5:  # round(ratio) >= 1
        raise ValueError(f"grid box {box!r} is at most half the step {step!r}: no grid point")
    top = round(ratio) * step if ratio < math.inf else math.inf
    lo, hi = step * step, top * top
    if lo * lo < sys.float_info.min or 12.0 * hi * hi > sys.float_info.max:
        raise ValueError(f"grid box {box!r} with step {step!r} leaves the normal float range")
    return round(ratio)


def monotone_bound_check(box: float = 10.0, step: float = 0.01) -> float:
    """Grid maximum of the slope defect of the stretch, off the x-axis.

    The derivative in x of the first stretch component is
    Q^(1/4) * (1 - g(x, y)) with g = x^2 y^2 / (2 (x^2+y^2) (x^2+2y^2)).
    g is invariant under (x, y) -> (lambda x, lambda y) and even in both
    variables, so the grid covers one closed quadrant: columns i = 0..n and
    rows iy = 1..n at spacing ``step``, n = round(box / step).  Its
    supremum is s/(2(s+1)(s+2)) at s = (x/y)^2 = sqrt(2), well below 1/4,
    which is what makes the map strictly increasing in x on every
    horizontal line.

    The result is the maximum over the whole grid, bit for bit, from O(n)
    evaluations along the ridge x = 2^(1/4) y:

    * At (i, iy) the exact value is G(s) = s / (2(s+1)(s+2)) with
      s = (i/iy)^2, since the scale ``step`` cancels.  While every product
      is a normal float the computed value is within a few ulps of G.
    * G rises up to s = sqrt(2) and falls after it, and column i lies past
      the peak of row iy exactly when i^4 > 2 iy^4 (right) or
      i^4 < 2 iy^4 (left); equality is impossible in integers.
    * Each row is walked right, then left, from column
      min(n, round(2^(1/4) iy)).  A walk stops at a column past the peak
      whose value times (1 + 1e-12) is below the best so far.  The margin
      exceeds the evaluation error by orders of magnitude, so every column
      beyond it is strictly below the best, and the maximum of the values
      evaluated is the maximum of all of them.

    Raises ValueError unless box and step are finite and positive, n >= 1,
    and the products stay normal: step^4 and 12 (n step)^4 are normal floats.
    """
    n = _grid_size(box, step)
    xs2 = [(i * step) ** 2 for i in range(n + 1)]
    fourth_root_2 = 2.0 ** 0.25
    best = 0.0
    for iy in range(1, n + 1):
        y2 = (iy * step) ** 2
        y2_2 = 2.0 * y2
        ridge = 2 * iy ** 4
        start = min(n, round(iy * fourth_root_2))
        # column i is past the peak on this side when (i^4 - ridge) * side > 0
        for cols, side in ((range(start, n + 1), 1), (range(start - 1, -1, -1), -1)):
            for i in cols:
                x2 = xs2[i]
                val = x2 * y2 / (2.0 * (x2 + y2) * (x2 + y2_2))
                if val > best:
                    best = val
                elif (i ** 4 - ridge) * side > 0 and val * _RIDGE_MARGIN < best:
                    break
    return best


def jacobian_check(m: MapExpr, points: Sequence) -> float:
    """Minimum |det J| of a 2x2 map, such as a chart, over float sample
    points (forward-mode J)."""
    if m.out_dim != 2 or m.arity != 2:
        raise ValueError("Jacobian determinant needs a map from 2 to 2 variables")
    best = None
    for p in points:
        (a, b), (c, d) = ([eval_tangent(e, p, j)[1] for j in range(2)] for e in m.exprs)
        det = abs(a * d - b * c)
        if best is None or det < best:
            best = det
    if best is None:
        raise ValueError("no sample points supplied")
    return best


# -- preimage arcs ----------------------------------------------------------------


def solve_preimage_arc(h: MapExpr, gamma: Sequence, target, mode: str = "exact") -> tuple:
    """An arc d with h(d) = gamma mod t^target, via sequential root solving.

    Supported shapes: univariate polynomial maps, and triangular systems in
    at most two unknowns where some output component pins down one new
    unknown at a time.  Branches are tried in the solver's deterministic
    order; the first assignment whose full residual clears ``target`` wins.
    """
    target = Fraction(target)
    if len(gamma) != h.out_dim:
        raise ValueError("arc dimension does not match the map")
    if h.arity > 2:
        raise UnsupportedShape("only systems in at most two unknowns")
    order = target + 2
    assignment: dict = {}
    result = _solve_components(h, tuple(gamma), assignment, target, order, mode)
    if result is None:
        raise NoRealBranch("no real preimage arc matches to the requested order")
    return tuple(result[i] for i in range(h.arity))


def _solve_components(h, gamma, assignment, target, order, mode):
    unsolved = [i for i in range(h.arity) if i not in assignment]
    if not unsolved:
        arc = tuple(assignment[i] for i in range(h.arity))
        try:
            image = eval_map_series(h, arc, order=order)
        except (GuardViolation, ZeroUpToTruncationError):
            return None
        for img, want in zip(image, gamma):
            lb = numeric_difference(img, want).ord_lower_bound()
            if lb is not None and lb < target:
                return None
        return assignment
    # pick an output component introducing exactly one new unknown
    candidates = []
    for i, expr in enumerate(h.exprs):
        new = [v for v in free_vars(expr) if v not in assignment]
        if len(new) == 1:
            candidates.append((i, new[0]))
    if not candidates:
        raise UnsupportedShape("system is not triangular in its unknowns")
    comp_index, var = candidates[0]
    coeffs = _poly_in_var(h.exprs[comp_index], var, assignment, order)
    coeffs[0] = numeric_difference(coeffs[0], gamma[comp_index])
    poly = PolyOverSeries(tuple(coeffs))
    if poly.degree < 1:
        raise UnsupportedShape("component does not constrain its unknown")
    try:
        branches = np_roots(poly, target, mode=mode)
    except NoRealBranch:
        branches = []
    for b in branches:
        assignment[var] = b.series
        out = _solve_components(h, gamma, assignment, target, order, mode)
        if out is not None:
            return out
        del assignment[var]
    return None


def _poly_in_var(expr: Expr, var: int, env: dict, order):
    """Coefficient list of ``expr`` as a polynomial in one variable.

    Other variables are substituted from ``env`` (series values); anything
    that is not polynomial in the unknown raises UnsupportedShape.
    """
    zero = PuiseuxSeries.zero()
    if isinstance(expr, Var):
        if expr.index == var:
            return [zero, PuiseuxSeries.one()]
        return [env[expr.index]]
    if isinstance(expr, Const):
        return [PuiseuxSeries.constant(expr.value)]
    if isinstance(expr, Add) or isinstance(expr, Sub):
        a = _poly_in_var(expr.left, var, env, order)
        b = _poly_in_var(expr.right, var, env, order)
        if isinstance(expr, Sub):
            b = [-c for c in b]
        out = [zero] * max(len(a), len(b))
        for part in (a, b):
            for i, c in enumerate(part):
                out[i] = out[i] + c
        return out
    if isinstance(expr, Mul):
        return _poly_mul_series(
            _poly_in_var(expr.left, var, env, order), _poly_in_var(expr.right, var, env, order)
        )
    if isinstance(expr, Neg):
        return [-c for c in _poly_in_var(expr.arg, var, env, order)]
    if isinstance(expr, Div):
        num = _poly_in_var(expr.left, var, env, order)
        den = _poly_in_var(expr.right, var, env, order)
        if len(den) != 1:
            raise UnsupportedShape("unknown appears in a denominator")
        inv = den[0].inv(order=order)
        return [c * inv for c in num]
    if isinstance(expr, Pow):
        e = expr.exponent
        base = _poly_in_var(expr.base, var, env, order)
        if len(base) == 1:
            return [base[0].pow_rational(e, order=order)]
        if e.denominator != 1 or e < 0:
            raise UnsupportedShape("unknown under a non-polynomial power")
        out = [PuiseuxSeries.one()]
        for _ in range(int(e)):
            out = _poly_mul_series(out, base)
        return out
    raise UnsupportedShape(f"unsupported node {type(expr).__name__}")
