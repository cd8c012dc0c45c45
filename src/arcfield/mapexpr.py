"""Expression trees for semialgebraic maps, with three evaluators.

Nodes are immutable records supporting operator syntax, so catalog maps can
be written as ordinary arithmetic on variables.  A ``MapExpr`` bundles the
component expressions of a vector map with its input variable names.

Evaluation targets:

* floats (grids and numeric probes), with division and even-root guards;
* float tangents (forward mode): a value and one partial derivative at a
  float point, under the same guards;
* series rings (PuiseuxSeries or its ParamSeries subclass), where every
  power and quotient is the kernel's ``pow_rational``, which alone decides
  the guards: a zero base under a negative power, an unknown or negative
  lead under an even root, a lead with no exact root.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .errors import FloatOverflow, GuardViolation, IrrationalLeadingRoot
from .qarith import float_pow, render_rat
from .record import Record


class Expr(Record):
    """Base node; arithmetic operators build larger trees."""

    __slots__ = ()

    def __add__(self, other):
        return Add(self, _coerce(other))

    def __radd__(self, other):
        return Add(_coerce(other), self)

    def __sub__(self, other):
        return Sub(self, _coerce(other))

    def __rsub__(self, other):
        return Sub(_coerce(other), self)

    def __mul__(self, other):
        return Mul(self, _coerce(other))

    def __rmul__(self, other):
        return Mul(_coerce(other), self)

    def __truediv__(self, other):
        return Div(self, _coerce(other))

    def __rtruediv__(self, other):
        return Div(_coerce(other), self)

    def __neg__(self):
        return Neg(self)

    def __pow__(self, e):
        return Pow(self, Fraction(e))


class Var(Expr):
    __slots__ = ("index", "name")
    _defaults = {"name": ""}
    index: int
    name: str


class Const(Expr):
    __slots__ = ("value",)
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


class Add(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr


class Sub(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr


class Mul(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr


class Div(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr


class Neg(Expr):
    __slots__ = ("arg",)
    arg: Expr


class Pow(Expr):
    __slots__ = ("base", "exponent")
    base: Expr
    exponent: Fraction

    def __post_init__(self):
        if not isinstance(self.exponent, Fraction):
            object.__setattr__(self, "exponent", Fraction(self.exponent))


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(Fraction(x))
    raise TypeError(f"cannot use {type(x).__name__} in an expression")


class MapExpr(Record):
    """A vector-valued semialgebraic map: component expressions and arity."""

    __slots__ = ("exprs", "var_names")

    exprs: Tuple[Expr, ...]
    var_names: Tuple[str, ...]

    def __post_init__(self):
        for expr in self.exprs:
            for v in free_vars(expr):
                if v >= len(self.var_names):
                    raise ValueError(f"variable index {v} out of range")

    @property
    def arity(self) -> int:
        return len(self.var_names)

    @property
    def out_dim(self) -> int:
        return len(self.exprs)


def map_expr(exprs, var_names=("x", "y")) -> MapExpr:
    if isinstance(exprs, Expr):
        exprs = (exprs,)
    return MapExpr(tuple(exprs), tuple(var_names))


def variables(*names: str):
    """Declare input variables; returns Var nodes in order."""
    return tuple(Var(i, n) for i, n in enumerate(names))


def free_vars(expr: Expr) -> set:
    if isinstance(expr, Var):
        return {expr.index}
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, (Add, Sub, Mul, Div)):
        return free_vars(expr.left) | free_vars(expr.right)
    if isinstance(expr, Neg):
        return free_vars(expr.arg)
    if isinstance(expr, Pow):
        return free_vars(expr.base)
    raise TypeError(f"unknown node {type(expr).__name__}")


# -- float evaluation ---------------------------------------------------------


def eval_float(expr: Expr, point) -> float:
    """Evaluate at a float point, enforcing division and even-root guards."""
    if isinstance(expr, Var):
        return float(point[expr.index])
    if isinstance(expr, Const):
        return float(expr.value)
    if isinstance(expr, Add):
        return eval_float(expr.left, point) + eval_float(expr.right, point)
    if isinstance(expr, Sub):
        return eval_float(expr.left, point) - eval_float(expr.right, point)
    if isinstance(expr, Mul):
        return eval_float(expr.left, point) * eval_float(expr.right, point)
    if isinstance(expr, Div):
        den = eval_float(expr.right, point)
        return _quotient(eval_float(expr.left, point), den)
    if isinstance(expr, Neg):
        return -eval_float(expr.arg, point)
    if isinstance(expr, Pow):
        return _power(eval_float(expr.base, point), expr.exponent)
    raise TypeError(f"unknown node {type(expr).__name__}")


def _quotient(num: float, den: float) -> float:
    if den == 0.0:
        raise GuardViolation("division by zero at sample point")
    return num / den


def _power(base: float, e: Fraction) -> float:
    if base == 0.0 and e < 0:
        raise GuardViolation("zero base with negative exponent")
    if base < 0.0 and e.denominator % 2 == 0:
        raise GuardViolation("even root of a negative value")
    return float_pow(base, e)


def eval_tangent(expr: Expr, point, var: int) -> tuple:
    """(value, partial derivative in x_var) at a float point, in forward mode.

    Guards are ``eval_float``'s, met in its order; a quotient's derivative
    divides by the denominator squared and a power's raises the base to e - 1.
    """
    if isinstance(expr, Var):
        return float(point[expr.index]), float(expr.index == var)
    if isinstance(expr, Const):
        return float(expr.value), 0.0
    if isinstance(expr, Neg):
        a, da = eval_tangent(expr.arg, point, var)
        return -a, -da
    if isinstance(expr, Pow):
        b, db = eval_tangent(expr.base, point, var)
        e = expr.exponent
        return _power(b, e), float(e) * _power(b, e - 1) * db
    if isinstance(expr, Div):
        b, db = eval_tangent(expr.right, point, var)
        a, da = eval_tangent(expr.left, point, var)
        return _quotient(a, b), _quotient(da * b - a * db, b * b)
    if isinstance(expr, (Add, Sub, Mul)):
        a, da = eval_tangent(expr.left, point, var)
        b, db = eval_tangent(expr.right, point, var)
        if isinstance(expr, Add):
            return a + b, da + db
        if isinstance(expr, Sub):
            return a - b, da - db
        return a * b, da * b + a * db
    raise TypeError(f"unknown node {type(expr).__name__}")


def eval_map_float(m: MapExpr, point) -> tuple:
    """Evaluate at a float point; a value past the float range raises FloatOverflow."""
    if len(point) != m.arity:
        raise ValueError("point dimension does not match map arity")
    try:
        return tuple(eval_float(e, point) for e in m.exprs)
    except OverflowError:
        raise FloatOverflow("a map value lies outside the float range") from None


# -- series evaluation --------------------------------------------------------


def eval_series(expr: Expr, comps, order=None, rel=None):
    """Evaluate on series components (PuiseuxSeries or ParamSeries alike).

    ``order`` caps truncations wherever an inverse or a fractional power
    opens an infinite expansion.  Guards are the kernel's: a quotient is a
    product with the denominator's ``inv`` and a power is ``pow_rational``,
    which refuse what has no power.

    With ``rel`` given, each such expansion also stops ``rel`` past its own
    lead: a power of a base with lead t^v is capped at min(order, e v + rel)
    and an inverse at min(order, rel - v).  A base with no known term keeps
    ``order``.  The cap never exceeds ``order``, so every node knows at most
    what it knows with ``rel=None``.
    """
    ring = type(comps[0])
    if isinstance(expr, Var):
        return comps[expr.index]
    if isinstance(expr, Const):
        return ring.constant(expr.value)
    if isinstance(expr, Add):
        return eval_series(expr.left, comps, order, rel) + eval_series(
            expr.right, comps, order, rel
        )
    if isinstance(expr, Sub):
        return eval_series(expr.left, comps, order, rel) - eval_series(
            expr.right, comps, order, rel
        )
    if isinstance(expr, Mul):
        # an exactly-zero factor annihilates values that are real but not
        # exactly representable (irrational leading roots); genuine guard
        # violations still surface
        try:
            left = eval_series(expr.left, comps, order, rel)
        except IrrationalLeadingRoot:
            right = eval_series(expr.right, comps, order, rel)
            if right.is_zero():
                return right
            raise
        if left.is_zero():
            try:
                eval_series(expr.right, comps, order, rel)
            except IrrationalLeadingRoot:
                pass
            return left
        return left * eval_series(expr.right, comps, order, rel)
    if isinstance(expr, Div):
        den = eval_series(expr.right, comps, order, rel)
        inv = den.inv(order=_relative_cap(den, Fraction(-1), order, rel))
        return eval_series(expr.left, comps, order, rel) * inv
    if isinstance(expr, Neg):
        return -eval_series(expr.arg, comps, order, rel)
    if isinstance(expr, Pow):
        base = eval_series(expr.base, comps, order, rel)
        e = expr.exponent
        return base.pow_rational(e, order=_relative_cap(base, e, order, rel))
    raise TypeError(f"unknown node {type(expr).__name__}")


def _relative_cap(base, e: Fraction, order, rel):
    """Order cap for base^e: ``order``, lowered to e v + rel for a lead t^v."""
    if rel is None or not base.terms:
        return order
    cap = e * base.terms[0][0] + rel
    return cap if order is None or cap < order else order


def eval_map_series(m: MapExpr, comps, order=None, rel=None) -> tuple:
    if len(comps) != m.arity:
        raise ValueError("arc dimension does not match map arity")
    return tuple(eval_series(e, comps, order, rel) for e in m.exprs)


# -- rendering ----------------------------------------------------------------

_PREC = {"add": 1, "mul": 2, "neg": 3, "pow": 4, "atom": 5}


def _render(expr: Expr, names, prec: int) -> str:
    if isinstance(expr, Var):
        return names[expr.index]
    if isinstance(expr, Const):
        text = render_rat(expr.value)
        mine = _PREC["atom"] if expr.value >= 0 and expr.value.denominator == 1 else _PREC["mul"]
        return text if mine >= prec else f"({text})"
    if isinstance(expr, (Add, Sub)):
        op = " + " if isinstance(expr, Add) else " - "
        text = (
            _render(expr.left, names, _PREC["add"])
            + op
            + _render(expr.right, names, _PREC["add"] + 1)
        )
        return text if _PREC["add"] >= prec else f"({text})"
    if isinstance(expr, (Mul, Div)):
        op = "*" if isinstance(expr, Mul) else "/"
        left = _render(expr.left, names, _PREC["mul"])
        right = _render(expr.right, names, _PREC["mul"] + 1)
        text = left + op + right
        return text if _PREC["mul"] >= prec else f"({text})"
    if isinstance(expr, Neg):
        text = "-" + _render(expr.arg, names, _PREC["neg"] + 1)
        return text if _PREC["neg"] >= prec else f"({text})"
    if isinstance(expr, Pow):
        e = expr.exponent
        etext = str(e.numerator) if e.denominator == 1 else f"({e.numerator}/{e.denominator})"
        text = _render(expr.base, names, _PREC["pow"] + 1) + "^" + etext
        return text if _PREC["pow"] >= prec else f"({text})"
    raise TypeError(f"unknown node {type(expr).__name__}")


def render_expr(expr: Expr, names) -> str:
    return _render(expr, names, 0)


def render_map(m: MapExpr) -> str:
    bodies = [render_expr(e, m.var_names) for e in m.exprs]
    if len(bodies) == 1:
        return bodies[0]
    return "(" + ", ".join(bodies) + ")"
