"""Series in t whose coefficients are Laurent polynomials in a parameter.

This is the exact vehicle for one-parameter families of arcs: a
``ParamSeries`` is a truncated series in t, and each t-coefficient is a
``LaurentEps``, a finite Laurent polynomial in the family parameter (written
``e`` in reports).  Convergence of the family as the parameter goes to 0 is
decided coefficientwise: a t-coefficient carrying a negative parameter power
is unbounded, and the lowest such t-exponent is recorded as a
``DivergenceWitness``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    IrrationalLeadingRoot,
    NegativeBaseForEvenRoot,
    NonPositiveValuationSubstitution,
    RamificationOverflow,
    UnboundedExpansion,
    ZeroUpToTruncationError,
)
from .puiseux import (
    PuiseuxSeries,
    ZeroUpToTruncation,
    _add_bound,
    _below,
    _lattice_base,
    _min_bound,
    get_ram_cap,
)
from .qarith import Exp, Rat, lcm, rational_pow, render_rat


class LaurentEps:
    """Finite Laurent polynomial in the family parameter; exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        if isinstance(terms, dict):
            terms = terms.items()
        acc = {}
        for k, c in terms:
            if isinstance(c, int):
                c = Fraction(c)
            acc[int(k)] = acc.get(int(k), Fraction(0)) + c
        object.__setattr__(
            self, "terms", tuple(sorted((k, c) for k, c in acc.items() if c != 0))
        )

    def __setattr__(self, *_args):
        raise AttributeError("LaurentEps is immutable")

    @classmethod
    def _canonical(cls, terms: tuple) -> LaurentEps:
        """Wrap terms that are already canonical: sorted, nonzero, int exponents."""
        out = cls.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

    @classmethod
    def constant(cls, c) -> LaurentEps:
        return cls(((0, Fraction(c)),))

    @classmethod
    def eps_power(cls, k: int, c=Fraction(1)) -> LaurentEps:
        return cls(((k, Fraction(c)),))

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def monomial(self):
        """The single (eps_exp, coeff) pair; raises if not a monomial."""
        if len(self.terms) != 1:
            raise ValueError("not a parameter monomial")
        return self.terms[0]

    def min_eps_exp(self) -> Optional[int]:
        return self.terms[0][0] if self.terms else None

    def has_negative_power(self) -> bool:
        return bool(self.terms) and self.terms[0][0] < 0

    def constant_part(self) -> Rat:
        for k, c in self.terms:
            if k == 0:
                return c
        return Fraction(0)

    def __add__(self, other) -> LaurentEps:
        other = _coerce_eps(other)
        return LaurentEps(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self) -> LaurentEps:
        return LaurentEps(tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other) -> LaurentEps:
        return self + (-_coerce_eps(other))

    def __mul__(self, other) -> LaurentEps:
        other = _coerce_eps(other)
        acc = {}
        for k1, c1 in self.terms:
            for k2, c2 in other.terms:
                k = k1 + k2
                acc[k] = acc.get(k, Fraction(0)) + c1 * c2
        return LaurentEps(acc.items())

    __rmul__ = __mul__

    def inv(self) -> LaurentEps:
        """Inverse: only monomials are units in the Laurent ring."""
        k, c = self.monomial()
        return LaurentEps(((-k, Fraction(1) / c),))

    def pow_rational(self, e: Fraction) -> LaurentEps:
        """(c eps^k)^e when it stays a Laurent monomial; raises otherwise."""
        k, c = self.monomial()
        ke = k * e
        if ke.denominator != 1:
            raise IrrationalLeadingRoot(
                f"parameter exponent {k}*{e} is not an integer"
            )
        if c < 0 and e.denominator % 2 == 0:
            raise NegativeBaseForEvenRoot(f"({c})^{e}")
        p = rational_pow(c, e)
        if p is None:
            raise IrrationalLeadingRoot(f"({c})^{e} is irrational")
        return LaurentEps(((int(ke), p),))

    def at(self, eps0: Rat) -> Rat:
        """Evaluate at a fixed nonzero parameter value."""
        if eps0 == 0:
            raise ZeroDivisionError("parameter specialization at 0")
        return sum((c * Fraction(eps0) ** k for k, c in self.terms), Fraction(0))

    def __eq__(self, other):
        return isinstance(other, LaurentEps) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"LaurentEps({dict(self.terms)!r})"


def _coerce_eps(x) -> LaurentEps:
    if isinstance(x, LaurentEps):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentEps.constant(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to LaurentEps")


@dataclass(frozen=True)
class DivergenceWitness:
    """Lowest t-exponent whose coefficient blows up as the parameter -> 0."""

    t_exp: Exp
    eps_exp: int
    coeff: Rat
    m0n0: Optional[tuple] = None

    def __post_init__(self):
        if self.eps_exp >= 0:
            raise ValueError("witness must carry a negative parameter power")
        if self.coeff == 0:
            raise ValueError("witness coefficient must be nonzero")


class ParamSeries:
    """Truncated series in t with LaurentEps coefficients.

    Same truncation discipline as PuiseuxSeries: ``trunc`` is an exclusive
    knowledge bound, None meaning exact.
    """

    __slots__ = ("ram", "terms", "trunc")

    def __init__(self, terms=(), trunc=None, ram: int = 1):
        if trunc is not None and not isinstance(trunc, Fraction):
            trunc = Fraction(trunc)
        acc = {}
        for e, c in terms:
            if not isinstance(e, Fraction):
                e = Fraction(e)
            c = _coerce_eps(c)
            if not _below(e, trunc):
                continue
            acc[e] = acc.get(e, LaurentEps()) + c
        clean = tuple(sorted((e, c) for e, c in acc.items() if not c.is_zero()))
        r = ram
        for e, _ in clean:
            r = lcm(r, e.denominator)
        if r > get_ram_cap():
            raise RamificationOverflow(f"ramification {r} exceeds cap {get_ram_cap()}")
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "ram", r)

    def __setattr__(self, *_args):
        raise AttributeError("ParamSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> ParamSeries:
        return cls()

    @classmethod
    def one(cls) -> ParamSeries:
        return cls(((Fraction(0), LaurentEps.constant(1)),))

    @classmethod
    def constant(cls, c) -> ParamSeries:
        return cls(((Fraction(0), _coerce_eps(c)),))

    @classmethod
    def term(cls, t_exp, coeff) -> ParamSeries:
        return cls(((Fraction(t_exp), _coerce_eps(coeff)),))

    @classmethod
    def eps_t(cls, eps_exp: int, t_exp, c=Fraction(1)) -> ParamSeries:
        """The monomial c * eps^eps_exp * t^t_exp."""
        return cls(((Fraction(t_exp), LaurentEps.eps_power(eps_exp, c)),))

    @classmethod
    def unknown(cls, trunc) -> ParamSeries:
        return cls((), trunc=Fraction(trunc))

    # -- structure -----------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.trunc is None

    def is_zero(self) -> bool:
        return not self.terms and self.trunc is None

    def lead(self):
        return self.terms[0] if self.terms else None

    def ord(self):
        if self.terms:
            return self.terms[0][0]
        return ZeroUpToTruncation(self.trunc)

    def ord_lower_bound(self):
        if self.terms:
            return self.terms[0][0]
        return self.trunc

    def coeff(self, e) -> LaurentEps:
        e = Fraction(e)
        if not _below(e, self.trunc):
            raise ZeroUpToTruncationError(self.trunc, f"coefficient at {e} unknown")
        for exp, c in self.terms:
            if exp == e:
                return c
        return LaurentEps()

    def truncate(self, order) -> ParamSeries:
        t = _min_bound(self.trunc, None if order is None else Fraction(order))
        if t == self.trunc:
            return self
        return ParamSeries(self.terms, trunc=t, ram=self.ram)

    def __eq__(self, other):
        if not isinstance(other, ParamSeries):
            return NotImplemented
        return self.terms == other.terms and self.trunc == other.trunc

    def __hash__(self):
        return hash((self.terms, self.trunc))

    def __repr__(self):
        return f"ParamSeries({render_param_series(self)})"

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> ParamSeries:
        return ParamSeries(
            tuple((e, -c) for e, c in self.terms), trunc=self.trunc, ram=self.ram
        )

    def __add__(self, other) -> ParamSeries:
        other = _coerce_param(other)
        trunc = _min_bound(self.trunc, other.trunc)
        return ParamSeries(self.terms + other.terms, trunc=trunc)

    __radd__ = __add__

    def __sub__(self, other) -> ParamSeries:
        return self + (-_coerce_param(other))

    def __rsub__(self, other) -> ParamSeries:
        return _coerce_param(other) + (-self)

    def __mul__(self, other) -> ParamSeries:
        other = _coerce_param(other)
        b1 = _add_bound(self.ord_lower_bound(), other.trunc)
        b2 = _add_bound(other.ord_lower_bound(), self.trunc)
        trunc = _min_bound(b1, b2)
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                if _below(e, trunc):
                    acc[e] = acc.get(e, LaurentEps()) + c1 * c2
        return ParamSeries(acc.items(), trunc=trunc)

    __rmul__ = __mul__

    def scale(self, c) -> ParamSeries:
        c = _coerce_eps(c)
        if c.is_zero():
            return ParamSeries((), trunc=self.trunc)
        return ParamSeries(
            tuple((e, c * k) for e, k in self.terms), trunc=self.trunc, ram=self.ram
        )

    def shift(self, e) -> ParamSeries:
        e = Fraction(e)
        return ParamSeries(
            tuple((k + e, c) for k, c in self.terms),
            trunc=_add_bound(self.trunc, e),
        )

    def __truediv__(self, other) -> ParamSeries:
        return self * _coerce_param(other).inv()

    def inv(self, order=None) -> ParamSeries:
        return self.pow_rational(Fraction(-1), order=order)

    def pow_rational(self, e, order=None) -> ParamSeries:
        """Rational power; the leading coefficient must be a parameter monomial.

        Non-monomial leading coefficients are not units of the Laurent ring,
        so inversion and fractional powers reject them.
        """
        e = Fraction(e)
        if not self.terms:
            if self.is_zero():
                if e > 0:
                    return ParamSeries.zero()
                raise ZeroDivisionError("zero series with nonpositive exponent")
            raise ZeroUpToTruncationError(self.trunc)
        if e == 0:
            return ParamSeries.one()
        v, c = self.terms[0]
        if not c.is_monomial():
            if e.denominator == 1 and e >= 0:
                # not a unit, but plain powers need no inverse
                out = ParamSeries.one()
                for _ in range(int(e)):
                    out = out * self
                return out
            raise IrrationalLeadingRoot(
                "leading coefficient is not a parameter monomial"
            )
        lead_pow = c.pow_rational(e)
        rest = ParamSeries(self.terms[1:], trunc=self.trunc)
        u = rest.shift(-v).scale(c.inv())
        head_exp = e * v
        if u.is_zero():
            return ParamSeries(((head_exp, lead_pow),))
        rel = None if self.trunc is None else self.trunc - v
        terminates = e.denominator == 1 and e >= 0
        if not terminates:
            if order is not None:
                rel = _min_bound(rel, Fraction(order) - head_exp)
            if rel is None:
                raise UnboundedExpansion(
                    "rational power of an exact non-monomial series needs an order"
                )
        body = _param_binomial(u, e, rel)
        return body.scale(lead_pow).shift(head_exp)

    def __pow__(self, e) -> ParamSeries:
        return self.pow_rational(Fraction(e))

    def is_lead_positive(self) -> bool:
        """Positive for small t > 0 and small parameter > 0."""
        if not self.terms:
            return False
        c = self.terms[0][1]
        return c.terms[0][1] > 0 if c.is_monomial() else False

    # -- parameter behaviour --------------------------------------------------

    def at_eps(self, eps0: Rat) -> PuiseuxSeries:
        """Specialize the parameter to a fixed nonzero rational."""
        terms = tuple((e, c.at(eps0)) for e, c in self.terms)
        return PuiseuxSeries(terms, trunc=self.trunc)

    def eps_limit(self) -> PuiseuxSeries:
        """Coefficientwise limit as the parameter -> 0 (keeps eps^0 parts).

        Only meaningful when no known coefficient has a negative parameter
        power; check :func:`divergence_witness` first.
        """
        terms = tuple((e, c.constant_part()) for e, c in self.terms)
        return PuiseuxSeries(terms, trunc=self.trunc)


def _coerce_param(x) -> ParamSeries:
    if isinstance(x, ParamSeries):
        return x
    if isinstance(x, (int, Fraction, LaurentEps)):
        return ParamSeries.constant(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to ParamSeries")


def _param_binomial(u: ParamSeries, e: Fraction, rel) -> ParamSeries:
    """(1 + u)^e over the parametric ring, truncated at the relative order ``rel``.

    ``rel`` None asks for the exact, terminating case (e a nonnegative
    integer).  The truncated case is ``puiseux._lattice_sum`` with Laurent
    rows in place of rational coefficients.  Write s = t^(1/ram),
    u = sum A_j(e)/d_j s^j with A_j integer Laurent polynomials and d_j the
    lcm of row j's denominators, and e = p/q, and pick M with d_j | M^j for
    every j.  Then every coefficient of H[n] = h[n] (q^2 M)^n is an integer,
    and the recurrence from (1 + u) h' = e u' h becomes

        n H[n] = sum_j ((p + q) j - q n) w_j H[n - j],
        w_j = q^(2j - 1) (M^j / d_j) A_j,

    a product of integer Laurent rows with an exact division by n.  Each
    output coefficient is one Fraction, H[n][k] / (q^2 M)^n.  When only
    multiples of g carry terms the recurrence runs in s^g.
    """
    if u.is_zero():
        one = ParamSeries.one()
        return one if rel is None else one + ParamSeries.unknown(rel)
    if rel is None:
        out = ParamSeries.one()
        term = ParamSeries.one()
        coeff = Fraction(1)
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
        # keep u's ramification, as the plain kernel does
        return ParamSeries((), trunc=rel, ram=ram)
    p, q = e.numerator, e.denominator
    support = []
    g = 0
    for x, c in u.terms:
        j = x.numerator * (ram // x.denominator)
        if j > n_max:
            break
        if j > 0:
            d = 1
            for _k, a in c.terms:
                d = lcm(d, a.denominator)
            row = [(k, a.numerator * (d // a.denominator)) for k, a in c.terms]
            support.append((j, row, d))
            g = math.gcd(g, j)
    # only multiples of g carry terms, so the recurrence runs in s^g
    g = g or 1
    n_max //= g
    support = [(j // g, row, d) for j, row, d in support]
    m = _lattice_base((j, d) for j, _row, d in support)
    w = []
    for j, row, d in support:
        f = q ** (2 * j - 1) * (m**j // d)
        w.append((j, [(k, a * f) for k, a in row]))
    h = [{0: 1}] + [None] * n_max
    pq = p + q
    for n in range(1, n_max + 1):
        acc = {}
        qn = q * n
        for j, wj in w:
            if j > n:
                break
            prev = h[n - j]
            if prev:
                f = pq * j - qn
                for k2, b in prev.items():
                    fb = f * b
                    for k1, a in wj:
                        k = k1 + k2
                        acc[k] = acc.get(k, 0) + a * fb
        h[n] = {k: c // n for k, c in acc.items() if c}
    scale = q * q * m
    den = 1
    terms = []
    for n, row in enumerate(h):
        if row:
            coeff = tuple((k, Fraction(row[k], den)) for k in sorted(row))
            terms.append((Fraction(n * g, ram), LaurentEps._canonical(coeff)))
        den *= scale
    return ParamSeries(terms, trunc=rel, ram=ram)


# -- the divergence analysis -------------------------------------------------


def select_m0n0(coeffs: dict) -> Optional[tuple]:
    """Pick the dominant blow-up index pair from bivariate monomial data.

    Among pairs (m, n) with n > m + 1 and a nonzero coefficient: first
    minimize m + n, then maximize n - m.  Returns None when no such pair
    exists (the family stays bounded).
    """
    pool = [(m, n) for (m, n), c in coeffs.items() if n > m + 1 and c != 0]
    if not pool:
        return None
    s = min(m + n for m, n in pool)
    level = [(m, n) for m, n in pool if m + n == s]
    return max(level, key=lambda mn: mn[1] - mn[0])


def divergence_witness(p: ParamSeries) -> Optional[DivergenceWitness]:
    """Smallest t-exponent whose coefficient carries a negative parameter power.

    The recorded term is the most negative parameter power at that
    t-exponent (the dominant one as the parameter -> 0); None when every
    known coefficient is polynomial in the parameter.
    """
    for e, c in p.terms:
        if c.has_negative_power():
            k, a = c.terms[0]
            return DivergenceWitness(t_exp=e, eps_exp=k, coeff=a)
    return None


def require_positive_ord(a, name: str = "series") -> None:
    """Guard: the series must vanish at 0+ (order > 0, decidably)."""
    if a.is_zero():
        return
    lead = a.lead()
    if lead is None:
        if a.trunc is not None and a.trunc > 0:
            return
        raise ZeroUpToTruncationError(a.trunc, f"{name}: order unknown")
    if lead[0] <= 0:
        raise NonPositiveValuationSubstitution(f"{name} has order {lead[0]}")


def pm_subst(f, u_arc: ParamSeries, v_arc: ParamSeries, order=None) -> ParamSeries:
    """Substitute two parametric arcs (positive t-order) into a bivariate f.

    ``f`` may be a monomial-coefficient map {(m, n): Rat} or a scalar
    expression node in two variables; expression evaluation shares the
    guards of the series ring.
    """
    if isinstance(f, dict):
        return subst_bivariate_monomials(f, u_arc, v_arc, order=order)
    require_positive_ord(u_arc, "u")
    require_positive_ord(v_arc, "v")
    from .mapexpr import eval_series

    return eval_series(f, (u_arc, v_arc), order=order)


def subst_bivariate_monomials(coeffs: dict, u_arc: ParamSeries, v_arc: ParamSeries,
                              order=None) -> ParamSeries:
    """Exact substitution of two parametric arcs into sum(a[m,n] u^m v^n).

    Both arcs must have positive t-order.
    """
    require_positive_ord(u_arc, "u")
    require_positive_ord(v_arc, "v")
    out = ParamSeries((), trunc=None if order is None else Fraction(order))
    for (m, n), a in sorted(coeffs.items()):
        if a == 0:
            continue
        piece = ParamSeries.constant(a)
        piece = piece * u_arc.pow_rational(Fraction(m), order=order)
        piece = piece * v_arc.pow_rational(Fraction(n), order=order)
        out = out + piece
    return out.truncate(order) if order is not None else out


# -- rendering ----------------------------------------------------------------


def _render_eps_coeff(c: LaurentEps) -> str:
    """One t-coefficient as a parameter polynomial, e.g. ``1/4*e^-1``."""
    bits = []
    for k, a in c.terms:
        if k == 0:
            bits.append(render_rat(a))
        else:
            head = "" if a == 1 else ("-" if a == -1 else f"{render_rat(a)}*")
            body = "e" if k == 1 else f"e^{k}"
            bits.append(f"{head}{body}")
    return " + ".join(bits) if bits else "0"


def render_param_series(p: ParamSeries, var: str = "t") -> str:
    """Render as a sum of rows c_k(e) * t^k with an O-marker."""
    from .puiseux import _render_exp

    parts = []
    for e, c in p.terms:
        coeff_text = _render_eps_coeff(c)
        if " + " in coeff_text or coeff_text.startswith("-"):
            coeff_text = f"({coeff_text})"
        if e == 0:
            body = coeff_text
        else:
            pw = var if e == 1 else f"{var}^{_render_exp(e)}"
            body = pw if coeff_text == "1" else f"{coeff_text}*{pw}"
        parts.append(body)
    text = " + ".join(parts) if parts else "0"
    if p.trunc is not None:
        text += f" + O({var}^{_render_exp(p.trunc)})"
    return text


def param_rows(p: ParamSeries) -> list:
    """Structured view: one row per t-exponent with its parameter coefficients."""
    from .puiseux import _render_exp

    return [
        {
            "t_exp": _render_exp(e),
            "coeffs": {str(k): render_rat(a) for k, a in c.terms},
        }
        for e, c in p.terms
    ]
