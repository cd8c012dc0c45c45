"""The Puiseux kernel over Laurent polynomials in ``e``.

This is the exact vehicle for one-parameter families of arcs: a
``ParamSeries`` is a ``PuiseuxSeries`` in t whose coefficients are
``LaurentEps`` values, finite Laurent polynomials in the family parameter
(written ``e`` in reports).  A ``LaurentEps`` is a ``PuiseuxSeries`` too, an
exact series in ``e`` of ramification 1, so the arithmetic in both variables
is the kernel's own.  ``LaurentEps`` adds what the t-series ask of a
coefficient (its truthiness, its integer row, ``1 / c``) and refuses the
powers that leave the Laurent ring: a lead that is not a parameter monomial
is not a unit, so only its nonnegative integer powers exist.  ``ParamSeries``
says how scalars enter the ring and names its binomial expansion,
``_param_binomial``, which runs the kernel's integer recurrence on Laurent
rows.  Convergence of the family as the parameter goes to 0 is decided
coefficientwise: a t-coefficient carrying a negative parameter power is
unbounded, and the lowest such t-exponent is recorded as a
``DivergenceWitness``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import IrrationalLeadingRoot, NegativeBaseForEvenRoot, message_number
from .puiseux import PuiseuxSeries, _binomial_lattice, _render_exp
from .qarith import Exp, Rat, lcm, render_rat
from .record import Record

# not called here, where every power is the kernel's; the benchmark's tracer
# looks the name up in this module
from .qarith import rational_pow  # noqa: F401


class LaurentEps(PuiseuxSeries):
    """Finite Laurent polynomial in the family parameter: an exact series in
    ``e`` of ramification 1, whose ring operations are the kernel's."""

    __slots__ = ()

    _scalars = (int, Fraction)  # exact: no float enters the parameter ring

    def __init__(self, terms=(), trunc: Optional[Exp] = None, ram: int = 1):
        super().__init__(terms.items() if isinstance(terms, dict) else terms, trunc, ram)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def as_integer_ratio(self):
        """The integer row ((k, a), ...) and the denominator d with
        self = row / d, d the lcm of the coefficients' denominators."""
        d = 1
        for _k, a in self.terms:
            d = lcm(d, a.denominator)
        return tuple((k.numerator, a.numerator * (d // a.denominator)) for k, a in self.terms), d

    def has_negative_power(self) -> bool:
        return bool(self.terms) and self.terms[0][0] < 0

    def __rtruediv__(self, other) -> LaurentEps:
        """``other / self``, for a monomial ``self``."""
        return self.inv() * other

    def pow_rational(self, e, order=None) -> LaurentEps:
        """The kernel's power, where it stays a Laurent polynomial: any
        nonnegative integer power, and any other power of a monomial
        c e^k whose parameter exponent k e is an integer.  An even root of
        a negative lead is refused before the monomial rule, as it is for
        a monomial."""
        e = Fraction(e)
        if len(self.terms) != 1:
            # the lowest parameter power decides the sign as e -> 0+
            if e.denominator % 2 == 0 and self.terms and self.terms[0][1] < 0:
                raise NegativeBaseForEvenRoot(f"even root of a negative lead: ({self})^{e}")
            if e.denominator != 1 or e < 0:
                raise IrrationalLeadingRoot("leading coefficient is not a parameter monomial")
        elif (self.terms[0][0] * e).denominator != 1:
            raise IrrationalLeadingRoot(
                f"parameter exponent {message_number(self.terms[0][0])}*{message_number(e)} "
                "is not an integer"
            )
        return super().pow_rational(e, order)

    def at(self, eps0: Rat) -> Rat:
        """Evaluate at a fixed nonzero parameter value."""
        if eps0 == 0:
            raise ZeroDivisionError("parameter specialization at 0")
        return sum((c * Fraction(eps0) ** k for k, c in self.terms), Fraction(0))

    def __str__(self):
        return _render_eps_coeff(self)


class DivergenceWitness(Record):
    """Lowest t-exponent whose coefficient blows up as the parameter -> 0."""

    __slots__ = ("t_exp", "eps_exp", "coeff", "m0n0")
    _defaults = {"m0n0": None}
    t_exp: Exp
    eps_exp: int
    coeff: Rat
    m0n0: Optional[tuple]

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
    def eps_t(cls, eps_exp: int, t_exp, c=Fraction(1)) -> ParamSeries:
        """The monomial c * eps^eps_exp * t^t_exp."""
        return cls(((Fraction(t_exp), LaurentEps.t_power(eps_exp, c)),))

    def __str__(self):
        return render_param_series(self)

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
        terms = tuple((e, c.coeff(0)) for e, c in self.terms)
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
    lead_k = lead_k.numerator  # an exponent of ramification 1
    num, den = lead_c.numerator, lead_c.denominator
    terms = []
    for n, i in enumerate(exps):
        row = h[n]
        if row:
            coeff = tuple(
                (Fraction(k + lead_k), Fraction(num * row[k], den)) for k in sorted(row)
            )
            terms.append((Fraction(i, out_ram), LaurentEps._canonical(coeff, None, 1)))
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
            return DivergenceWitness(t_exp=e, eps_exp=int(k), coeff=a)
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
