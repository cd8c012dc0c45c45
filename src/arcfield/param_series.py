"""The Puiseux kernel over Laurent polynomials in ``e``.

This is the exact vehicle for one-parameter families of arcs: a
``ParamSeries`` is a ``PuiseuxSeries`` whose t-coefficients are
``LaurentEps`` values, finite Laurent polynomials in the family parameter
(written ``e`` in reports).  The series arithmetic, powers included, is the
kernel's own; the subclass says how scalars enter the ring and names its
binomial expansion, ``_param_binomial``, which runs the kernel's integer
recurrence on Laurent rows.  A lead that is not a parameter monomial is not
a unit, so only its nonnegative integer powers exist.  Convergence
of the family as the parameter goes to 0 is decided coefficientwise: a
t-coefficient carrying a negative parameter power is unbounded, and the
lowest such t-exponent is recorded as a ``DivergenceWitness``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import IrrationalLeadingRoot, NegativeBaseForEvenRoot, message_number
from .puiseux import PuiseuxSeries, _binomial_lattice, _render_exp
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

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def monomial(self):
        """The single (eps_exp, coeff) pair; raises if not a monomial."""
        if len(self.terms) != 1:
            raise ValueError("not a parameter monomial")
        return self.terms[0]

    def as_integer_ratio(self):
        """The integer row ((k, a), ...) and the denominator d with
        self = row / d, d the lcm of the coefficients' denominators."""
        d = 1
        for _k, a in self.terms:
            d = lcm(d, a.denominator)
        return tuple((k, a.numerator * (d // a.denominator)) for k, a in self.terms), d

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

    def __rtruediv__(self, other) -> LaurentEps:
        """``other / self``, for a monomial ``self``."""
        return self.inv() * other

    def pow_rational(self, e: Fraction) -> LaurentEps:
        """A nonnegative integer power by products; any other power of
        (c eps^k) when it stays a Laurent monomial; raises otherwise."""
        if len(self.terms) != 1:
            if e.denominator != 1 or e < 0:
                raise IrrationalLeadingRoot("leading coefficient is not a parameter monomial")
            out = LaurentEps.constant(1)
            for _ in range(e.numerator):
                out = out * self
            return out
        k, c = self.terms[0]
        ke = k * e
        if ke.denominator != 1:
            raise IrrationalLeadingRoot(
                f"parameter exponent {k}*{e} is not an integer"
            )
        if c < 0 and e.denominator % 2 == 0:
            raise NegativeBaseForEvenRoot(f"({message_number(c)})^{e}")
        p = rational_pow(c, e)
        if p is None:
            raise IrrationalLeadingRoot(f"({message_number(c)})^{e} is irrational")
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


class ParamSeries(PuiseuxSeries):
    """Truncated series in t with LaurentEps coefficients.

    The kernel's ring operations, truncation discipline and ramification cap
    apply unchanged; ``int`` and ``Fraction`` values enter as constant
    Laurent polynomials.
    """

    __slots__ = ()

    _lifted = (int, Fraction)
    _lift = staticmethod(LaurentEps.constant)
    _scalars = (int, Fraction, LaurentEps)

    # named in this class too: the benchmark's tracer wraps the class's own attributes
    __mul__ = __rmul__ = PuiseuxSeries.__mul__
    pow_rational = PuiseuxSeries.pow_rational

    @staticmethod
    def _binomial(u, e, rel, lead, shift) -> ParamSeries:
        return _param_binomial(u, e, rel, lead, shift)

    @classmethod
    def term(cls, t_exp, coeff) -> ParamSeries:
        return cls(((Fraction(t_exp), coeff),))

    @classmethod
    def eps_t(cls, eps_exp: int, t_exp, c=Fraction(1)) -> ParamSeries:
        """The monomial c * eps^eps_exp * t^t_exp."""
        return cls(((Fraction(t_exp), LaurentEps.eps_power(eps_exp, c)),))

    def __str__(self):
        return render_param_series(self)

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


def _param_binomial(u: ParamSeries, e: Fraction, rel, lead=None, shift=None) -> ParamSeries:
    """``lead * t^shift * (1 + u)^e`` over the parametric ring, truncated at
    the relative order ``rel``; ``lead`` is a parameter monomial.

    This is ``puiseux._binomial_sum``'s recurrence on the same lattice, with
    integer Laurent rows in place of integer coefficients: each H[n] is a
    row, and each w_j is the integer row A_j of u's coefficient scaled by
    f_j.  Each output coefficient is one Fraction, lead H[n][k] / (q^2 M)^n,
    written at parameter power k plus the lead's.
    """
    if lead is None:
        lead, shift = LaurentEps.constant(1), Fraction(0)
    weights, scale, exps, out_ram, h = _binomial_lattice(u, e, rel, shift)
    w = [(j, [(k, a * f) for k, a in row]) for j, row, f in weights]
    p, q = e.numerator, e.denominator
    h[0] = {0: 1}
    pq = p + q
    for n in range(1, len(h)):
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
    lead_k, lead_c = lead.terms[0]
    num, den = lead_c.numerator, lead_c.denominator
    terms = []
    for n, i in enumerate(exps):
        row = h[n]
        if row:
            coeff = tuple((k + lead_k, Fraction(num * row[k], den)) for k in sorted(row))
            terms.append((Fraction(i, out_ram), LaurentEps._canonical(coeff)))
        den *= scale
    return ParamSeries._canonical(tuple(terms), rel + shift, out_ram)


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
    return [
        {
            "t_exp": _render_exp(e),
            "coeffs": {str(k): render_rat(a) for k, a in c.terms},
        }
        for e, c in p.terms
    ]
