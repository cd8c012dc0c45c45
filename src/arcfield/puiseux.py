"""Truncated real Puiseux series: the working model of arc germs at 0+.

A series is a finite, strictly increasing list of ``(exponent, coefficient)``
terms on the lattice (1/ram)Z together with an exclusive knowledge bound
``trunc``: coefficients at exponents >= trunc are *unknown*, not zero.
``trunc = None`` marks an exact element (a polynomial in t^(1/ram), possibly
with negative exponents).

Zero is three-valued and the distinction is load-bearing:

* exactly zero: no terms, ``trunc`` None;
* zero up to truncation: no terms, finite ``trunc`` (nothing is known below
  the bound, so order, inversion and comparison are undecidable);
* nonzero: a known leading term exists.

Every operation computes the tightest sound truncation bound, so an unknown
coefficient is never silently reported as zero.  One kernel serves three
coefficient rings: exact ``Fraction`` values by default, 64-bit floats in
numeric mode (modes are never mixed inside one computation), and, through
the ``param_series.ParamSeries`` subclass, Laurent polynomials in a family
parameter.  Those coefficients are series of this kernel too: a
``param_series.LaurentEps`` is an exact series in the parameter of
ramification 1, so one kernel does the arithmetic in both variables.  The
ring operations build their results with the class of their operand and
test a coefficient for zero by its truthiness (``if c``), which each ring
defines; a float product that underflows to 0.0 is dropped the same way.

Powers take one path in every ring.  A positive integer power f^n of a
truncated or non-monomial series is n - 1 products, whose bound is the
binomial one, T + (n - 1) ord f.  A monomial is the exception: the general
constructor reduces its ``ram`` to the denominator of the one exponent
((5t^(11/4))^2 has ram 2), where a product would keep the operand's 4.  Every
other power is a binomial expansion, which the ring's class names.  It runs
on integers in every ring: with e = p/q and u = sum a_j/d_j t^(j/ram),
H[n] = h[n] (q^2 M)^n is an integer whenever d_j | M^j, so each lattice step
is integer arithmetic, and ``param_series`` runs the same steps on Laurent
rows.  A float is an exact binary rational, so float coefficients take the
exact path too: ``pow_rational`` expands the floats' exact values and rounds
each output coefficient once, the only rounding of a float power besides
the float power of the lead.  ``pow_rational`` is also the one place that
decides whether a power exists: a zero base, an unknown lead, a negative
lead under an even root and an irrational lead are refused there, for the
map evaluator and every other caller alike.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Optional, Union

from .errors import (
    FloatOverflow,
    GuardViolation,
    IndistinguishableAtTruncation,
    IrrationalLeadingRoot,
    NegativeBaseForEvenRoot,
    NonPositiveValuationSubstitution,
    RamificationOverflow,
    TruncationExhausted,
    UnboundedExpansion,
    ZeroUpToTruncationError,
    message_number,
)
from .qarith import Exp, Rat, float_pow, lcm, rational_pow, render_rat
from .record import Record

DEFAULT_RAM_CAP = 64
_ram_cap = DEFAULT_RAM_CAP


def set_ram_cap(cap: int) -> None:
    """Set the global bound on ramification indices (memory guard)."""
    global _ram_cap
    if cap < 1:
        raise ValueError("ramification cap must be >= 1")
    _ram_cap = cap


def get_ram_cap() -> int:
    return _ram_cap


class ZeroUpToTruncation(Record):
    """Sentinel order: no nonzero coefficient is known below ``trunc``.

    ``trunc`` None means the series is exactly zero (order +infinity).
    """

    __slots__ = ("trunc",)
    _defaults = {"trunc": None}
    trunc: Optional[Exp]


class Diverges:
    """Sentinel returned by ``limit0`` when the series blows up at 0+."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Diverges"


DIVERGES = Diverges()

OrdResult = Union[Exp, ZeroUpToTruncation]


def _min_bound(a: Optional[Exp], b: Optional[Exp]) -> Optional[Exp]:
    """Min of two truncation bounds where None is +infinity."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _add_bound(a: Optional[Exp], b: Optional[Exp]) -> Optional[Exp]:
    """Sum of bounds where None is +infinity."""
    if a is None or b is None:
        return None
    return a + b


def _lattice_bound(trunc: Optional[Fraction], ram: int):
    """``trunc * ram`` as (numerator, denominator): lattice index i lies
    below ``trunc`` when i * den < num.  (None, None) when exact."""
    if trunc is None:
        return None, None
    scaled = trunc * ram
    return scaled.numerator, scaled.denominator


def _below(e: Exp, bound: Optional[Exp]) -> bool:
    return bound is None or e < bound


class PuiseuxSeries:
    """One truncated Puiseux series; immutable value semantics."""

    __slots__ = ("ram", "terms", "trunc")

    # The coefficient ring, which a subclass replaces: ``_lifted`` values
    # become coefficients through ``_lift`` as they enter a series, and
    # ``_scalars`` are what the ring operations take as constants.
    _lifted = (int,)
    _lift = Fraction
    _scalars = (int, Fraction, float)

    def __init__(self, terms=(), trunc: Optional[Exp] = None, ram: int = 1):
        if trunc is not None and not isinstance(trunc, Fraction):
            trunc = Fraction(trunc)
        pairs = []
        r = ram
        lifted, lift = self._lifted, self._lift
        for e, c in terms:
            if not isinstance(e, Fraction):
                e = Fraction(e)
            if isinstance(c, lifted):
                c = lift(c)
            if r % e.denominator:
                r = lcm(r, e.denominator)
            pairs.append((e, c))
        if r > _ram_cap:
            raise RamificationOverflow(r, _ram_cap)
        # accumulate on the integer lattice: int keys hash far cheaper than
        # Fraction keys, and the truncation test becomes one int compare
        bound_num, bound_den = _lattice_bound(trunc, r)
        acc = {}
        for e, c in pairs:
            i = e.numerator * (r // e.denominator)
            if bound_num is not None and i * bound_den >= bound_num:
                continue
            acc[i] = acc[i] + c if i in acc else c
        clean = tuple((Fraction(i, r), c) for i, c in sorted(acc.items()) if c)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "ram", r)

    def __setattr__(self, *_args):
        raise AttributeError("PuiseuxSeries is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through _canonical: restoring the slots
        # one by one would assign, which __setattr__ refuses
        return self._canonical, (self.terms, self.trunc, self.ram)

    @classmethod
    def _canonical(cls, terms: tuple, trunc: Optional[Exp], ram: int) -> PuiseuxSeries:
        """Wrap terms that are already canonical: sorted, nonzero, on the
        (1/ram)Z lattice and below ``trunc`` (a Fraction or None)."""
        if ram > _ram_cap:
            raise RamificationOverflow(ram, _ram_cap)
        out = cls.__new__(cls)
        object.__setattr__(out, "terms", terms)
        object.__setattr__(out, "trunc", trunc)
        object.__setattr__(out, "ram", ram)
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> PuiseuxSeries:
        return cls()

    @classmethod
    def one(cls) -> PuiseuxSeries:
        return cls(((Fraction(0), Fraction(1)),))

    @classmethod
    def constant(cls, c) -> PuiseuxSeries:
        return cls(((Fraction(0), c),))

    @classmethod
    def t_power(cls, e, coeff=Fraction(1)) -> PuiseuxSeries:
        return cls(((Fraction(e), coeff),))

    @classmethod
    def unknown(cls, trunc) -> PuiseuxSeries:
        """Zero up to ``trunc``: nothing known below the bound."""
        return cls((), trunc=Fraction(trunc))

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        """Exactly zero (not merely zero up to truncation)."""
        return not self.terms and self.trunc is None

    def is_indeterminate_zero(self) -> bool:
        return not self.terms and self.trunc is not None

    def lead(self):
        """Leading ``(exponent, coefficient)`` pair, or None."""
        return self.terms[0] if self.terms else None

    def ord(self) -> OrdResult:
        """t-adic valuation: least exponent carrying a nonzero coefficient."""
        if self.terms:
            return self.terms[0][0]
        return ZeroUpToTruncation(self.trunc)

    def ord_lower_bound(self) -> Optional[Exp]:
        """A sound lower bound for the order (None = +infinity, exact zero)."""
        if self.terms:
            return self.terms[0][0]
        return self.trunc

    def coeff(self, e) -> Rat:
        """Known coefficient at exponent e; raises if e is beyond the bound."""
        e = Fraction(e)
        if not _below(e, self.trunc):
            raise ZeroUpToTruncationError(self.trunc, f"coefficient at {message_number(e)} unknown")
        for exp, c in self.terms:
            if exp == e:
                return c
        return self._lift(0)

    def truncate(self, order) -> PuiseuxSeries:
        """Forget all knowledge at exponents >= order (None: keep everything)."""
        t = _min_bound(self.trunc, None if order is None else Fraction(order))
        if t == self.trunc:
            return self
        return self._canonical(tuple(p for p in self.terms if p[0] < t), t, self.ram)

    def __eq__(self, other):
        # series over different coefficient rings never compare equal
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms and self.trunc == other.trunc

    def __hash__(self):
        return hash((self.terms, self.trunc))

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def __str__(self):
        return render_series(self)

    # -- ring operations ---------------------------------------------------

    @classmethod
    def _coerce(cls, x) -> PuiseuxSeries:
        """A series of this class as it is; a scalar of its ring as a constant."""
        if type(x) is cls:
            return x
        if isinstance(x, cls._scalars):
            return cls.constant(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to {cls.__name__}")

    def __neg__(self) -> PuiseuxSeries:
        return self._canonical(tuple((e, -c) for e, c in self.terms), self.trunc, self.ram)

    def __add__(self, other) -> PuiseuxSeries:
        if type(other) is not type(self):
            other = self._coerce(other)
        trunc = _min_bound(self.trunc, other.trunc)
        return type(self)(self.terms + other.terms, trunc=trunc, ram=lcm(self.ram, other.ram))

    __radd__ = __add__

    def __sub__(self, other) -> PuiseuxSeries:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> PuiseuxSeries:
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> PuiseuxSeries:
        if type(other) is not type(self):
            other = self._coerce(other)
        # trunc = min(ord f + trunc g, ord g + trunc f); for a series with no
        # known terms its own trunc stands in for the (unknown, larger) order
        b1 = _add_bound(self.ord_lower_bound(), other.trunc)
        b2 = _add_bound(other.ord_lower_bound(), self.trunc)
        trunc = _min_bound(b1, b2)
        ram = lcm(self.ram, other.ram)
        if ram > _ram_cap:
            raise RamificationOverflow(ram, _ram_cap)
        fa = ram // self.ram
        fb = ram // other.ram
        a = [(e.numerator * (self.ram // e.denominator) * fa, c) for e, c in self.terms]
        b = [(e.numerator * (other.ram // e.denominator) * fb, c) for e, c in other.terms]
        bound_num, bound_den = _lattice_bound(trunc, ram)
        acc = {}
        for i1, c1 in a:
            for i2, c2 in b:
                i = i1 + i2
                if bound_num is not None and i * bound_den >= bound_num:
                    continue
                p = c1 * c2
                acc[i] = acc[i] + p if i in acc else p
        terms = tuple((Fraction(i, ram), c) for i, c in sorted(acc.items()) if c)
        return self._canonical(terms, trunc, ram)

    __rmul__ = __mul__

    def scale(self, c) -> PuiseuxSeries:
        """Multiply by a scalar (exact, truncation unchanged)."""
        if not c:
            return type(self)((), trunc=self.trunc)
        # a float product can underflow to 0.0, so zeros are still dropped
        terms = tuple((e, p) for e, k in self.terms if (p := c * k))
        return self._canonical(terms, self.trunc, self.ram)

    def shift(self, e) -> PuiseuxSeries:
        """Multiply by the exact monomial t^e."""
        e = Fraction(e)
        return self._canonical(
            tuple((k + e, c) for k, c in self.terms),
            _add_bound(self.trunc, e),
            lcm(self.ram, e.denominator),
        )

    def __truediv__(self, other) -> PuiseuxSeries:
        return self * self._coerce(other).inv()

    def inv(self, order=None) -> PuiseuxSeries:
        """Multiplicative inverse; relative precision is preserved.

        ``order`` is required when the input is exact but not a monomial
        (the inverse is then an infinite series).
        """
        return self.pow_rational(Fraction(-1), order=order)

    def pow_rational(self, e, order=None) -> PuiseuxSeries:
        """Raise to a rational power via the binomial series, in every ring.

        This is the one place that decides whether a power exists.  An
        exactly zero base gives 0 for e > 0 and 1 for e = 0, and under a
        negative e raises GuardViolation.  A lead unknown below the
        truncation has a positive integer power O(t^(e T)) and no other
        (ZeroUpToTruncationError).  Otherwise the leading coefficient c must
        admit the e-th power in the ring: an exact rational power for a
        Fraction, a parameter monomial for a ``LaurentEps`` (except for a
        nonnegative integer e), and a positive base under an even root
        (NegativeBaseForEvenRoot).  ``order`` caps the absolute truncation of
        the result and is mandatory whenever the expansion does not
        terminate and no truncation is inherited from the operand.

        A positive integer power of a truncated or non-monomial series is a
        chain of products, whose bound ord + trunc is the binomial bound
        T + (n - 1) v.  An exact monomial keeps the general constructor,
        which reduces ``ram`` to the denominator of its one exponent, where a
        product would keep the operand's.  Every other power writes
        self = c t^v (1 + u) and hands u, the power of c and t^(e v) to the
        class's binomial expansion (``_binomial``).  When any coefficient is
        a float, u and the lead's power enter ``_binomial_sum`` as the exact
        binary rationals that the floats are, and it rounds each output
        coefficient once, by the true division that this method passes.
        """
        e = Fraction(e)
        if not self.terms:
            if self.trunc is None:
                if e < 0:
                    raise GuardViolation("zero base with negative exponent")
                return self.one() if e == 0 else self.zero()
            if e.denominator == 1 and e > 0:
                # ord(f^n) = n ord(f) >= n trunc, and a known lead of f has
                # an exact n-th power.  A root is not decided: its leading
                # coefficient may be irrational or need a positive base, and
                # an inverse needs a nonzero one
                return type(self)((), trunc=e * self.trunc, ram=self.ram)
            raise ZeroUpToTruncationError(self.trunc)
        if e == 0:
            return self.one()
        if self.ram > _ram_cap:
            raise RamificationOverflow(self.ram, _ram_cap)
        monomial = len(self.terms) == 1 and self.trunc is None
        if e.denominator == 1 and e > 0 and not monomial:
            out = self
            for _ in range(e.numerator - 1):
                out = out * self
            return out
        v, c = self.terms[0]
        lead_pow = _coeff_pow(c, e)
        head_exp = e * v
        if monomial:
            return type(self)(((head_exp, lead_pow),))
        # the relative order of the expansion: what the truncation leaves
        # known past the lead, capped by ``order`` (absolute)
        rel = None if self.trunc is None else self.trunc - v
        if order is not None:
            rel = _min_bound(rel, Fraction(order) - head_exp)
        if rel is None:
            raise UnboundedExpansion(
                "rational power of an exact non-monomial series needs an order"
            )
        terms = self.terms
        floats = any(type(k) is float for _x, k in terms)
        if floats:
            try:
                terms = [(x, Fraction(k)) for x, k in terms]
                lead_pow = Fraction(lead_pow)
            except (OverflowError, ValueError):
                # only an infinite or NaN float refuses to be a Fraction
                message = "a coefficient of a binomial expansion is not finite"
                raise FloatOverflow(message) from None
        recip = 1 / terms[0][1]
        u = self._canonical(
            tuple((x - v, k * recip) for x, k in terms[1:]),
            None if self.trunc is None else self.trunc - v,
            self.ram,
        )
        if not floats:
            return self._binomial(u, e, rel, lead_pow, head_exp)
        try:
            # int / int is correctly rounded, and 0.0, which is dropped, when
            # it underflows (or when the lead's float power did)
            return _binomial_sum(u, e, rel, lead_pow, head_exp, operator.truediv)
        except OverflowError:
            raise FloatOverflow("a binomial coefficient lies outside the float range") from None

    @staticmethod
    def _binomial(u, e, rel, lead, shift) -> PuiseuxSeries:
        """``lead * t^shift * (1 + u)^e`` below t^(rel + shift), in this ring."""
        return _binomial_sum(u, e, rel, lead, shift)

    def __pow__(self, e) -> PuiseuxSeries:
        return self.pow_rational(Fraction(e))

    def compose(self, inner: PuiseuxSeries, order=None) -> PuiseuxSeries:
        """Substitute ``inner`` for t; requires ord(inner) > 0.

        Fractional or negative exponents of the outer series turn into
        rational powers of ``inner`` and inherit its guards.
        """
        if inner.is_zero():
            if any(e < 0 for e, _ in self.terms):
                raise GuardViolation("zero base with negative exponent")
            if self.trunc is not None and self.trunc <= 0:
                raise ZeroUpToTruncationError(self.trunc, "constant term unknown")
            return self.constant(self.coeff(0))
        w = inner.ord()
        if isinstance(w, ZeroUpToTruncation):
            raise ZeroUpToTruncationError(inner.trunc, "inner series order unknown")
        if w <= 0:
            raise NonPositiveValuationSubstitution(
                f"substitution needs positive order, got {message_number(w)}"
            )
        tail = None if self.trunc is None else w * self.trunc
        cap = _min_bound(tail, None if order is None else Fraction(order))
        out = type(self)((), trunc=cap)
        for e, c in self.terms:
            out = out + inner.pow_rational(e, order=cap).scale(c)
        return out.truncate(cap)

    # -- order structure ---------------------------------------------------

    def compare(self, other) -> int:
        """Sign of self - other in the unique field order (lead coefficient)."""
        diff = self - other
        if diff.terms:
            return 1 if diff.terms[0][1] > 0 else -1
        if diff.is_zero():
            return 0
        raise IndistinguishableAtTruncation(
            f"difference is zero up to truncation {message_number(diff.trunc)}"
        )

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def limit0(self):
        """Limit at t -> 0+: the constant coefficient, or DIVERGES.

        Raises IndistinguishableAtTruncation when the truncation bound sits
        at or below 0, i.e. negative exponents cannot be ruled out.
        """
        if self.terms and self.terms[0][0] < 0:
            return DIVERGES
        if self.trunc is not None and self.trunc <= 0:
            raise IndistinguishableAtTruncation(
                "behaviour at 0+ unknown at this truncation"
            )
        for e, c in self.terms:
            if e == 0:
                return c
            if e > 0:
                break
        return self._lift(0)


def _coeff_pow(c, e: Fraction):
    """e-th power of a coefficient in its ring: Fraction, float or LaurentEps."""
    if isinstance(c, PuiseuxSeries):
        return c.pow_rational(e)
    if c < 0 and e.denominator % 2 == 0:
        raise NegativeBaseForEvenRoot(f"even root of a negative lead: ({message_number(c)})^{e}")
    if isinstance(c, float):
        try:
            return float_pow(c, e)
        except OverflowError:
            raise FloatOverflow(f"({message_number(c)})^{e} lies outside the float range") from None
    p = rational_pow(c, e)
    if p is None:
        raise IrrationalLeadingRoot(f"({message_number(c)})^{e} is irrational")
    return p


def _binomial_sum(
    u: PuiseuxSeries, e: Fraction, rel: Exp, lead=None, shift=None, quotient=Fraction
) -> PuiseuxSeries:
    """``lead * t^shift * (1 + u)^e``, truncated at the relative order ``rel``.

    ``lead`` and ``shift`` default to 1 and 0.  It runs the first-order
    recurrence obtained from (1 + u) h' = e u' h on the integer lattice of
    ``_binomial_lattice``, which is quadratic in the number of kept lattice
    points.  With e = p/q it reads

        n H[n] = sum_j ((p + q) j - q n) w_j H[n - j],

    with an exact division by n.  The recurrence is exact in every ring:
    ``pow_rational`` hands float coefficients in as their exact values.
    Each output coefficient, lead H[n] / (q^2 M)^n, is built once from its
    integer numerator and denominator by ``quotient``: a Fraction, or the
    correctly rounded true division that ``pow_rational`` passes for a
    float ring, which is dropped when it underflows to 0.0.
    """
    if lead is None:
        lead, shift = 1, Fraction(0)
    weights, scale, exps, out_ram, h = _binomial_lattice(u, e, rel, shift)
    num, den = lead.as_integer_ratio()
    w = [(j, a * f) for j, a, f in weights]
    p, q = e.numerator, e.denominator
    h[0] = 1
    pq = p + q
    for n in range(1, len(h)):
        acc = 0
        qn = q * n
        for j, wj in w:
            if j > n:
                break
            prev = h[n - j]
            if prev:
                acc += (pq * j - qn) * wj * prev
        h[n] = acc // n
    terms = []
    for n, i in enumerate(exps):
        if h[n] and (c := quotient(num * h[n], den)):
            terms.append((Fraction(i, out_ram), c))
        den *= scale
    return PuiseuxSeries._canonical(tuple(terms), rel + shift, out_ram)


def _binomial_lattice(u: PuiseuxSeries, e: Fraction, rel: Exp, shift: Exp):
    """The integer lattice of ``t^shift * (1 + u)^e`` below the relative order
    ``rel``, in every coefficient ring.

    Write s = t^(1/ram), e = p/q and u = sum a_j/d_j s^j, where each
    coefficient's ``as_integer_ratio`` gives its integer numerator a_j (an
    integer row in the Laurent ring) and its denominator d_j, and pick M with
    d_j | M^j for every j.  Then H[n] = h[n] (q^2 M)^n is integral, for
    h[n] = sum_k C(e, k) [s^n] u^k: q^(2k) C(e, k) is an integer and so is
    M^n [s^n] u^k.  The weights of the recurrence are w_j = f_j a_j, with
    f_j = q^(2j - 1) M^j / d_j.  M is built greedily in increasing j, so
    d_j = d^j gives M = d, and when only multiples of g carry terms the
    recurrence runs in s^g.

    Returns the triples (j, a_j, f_j), the scale q^2 M, the exponents of
    n = 0, 1, ... as numerators over the returned ramification, and a table
    of zeros for H, with room for H[0].  A table too large to allocate
    raises UnboundedExpansion.
    """
    ram = u.ram
    n_max = math.ceil(rel * ram) - 1
    support = []
    g = 0
    for x, c in u.terms:
        j = x.numerator * (ram // x.denominator)
        if j > n_max:
            break
        if j > 0:
            support.append((j, *c.as_integer_ratio()))
            g = math.gcd(g, j)
    g = g or 1
    support = [(j // g, a, d) for j, a, d in support]
    q = e.denominator
    m = 1
    for j, _a, d in support:
        mj = m**j
        if mj % d:
            # afterwards d | m^j, and every earlier d_i | m^i still holds
            m *= d // math.gcd(mj, d)
    weights = [(j, a, q ** (2 * j - 1) * (m**j // d)) for j, a, d in support]
    out_ram = lcm(ram, shift.denominator)
    step = g * (out_ram // ram)
    base = shift.numerator * (out_ram // shift.denominator)
    exps = range(base, base + step * (n_max // g + 1), step)
    try:
        h = [0] * (len(exps) or 1)
    except (OverflowError, MemoryError):
        raise UnboundedExpansion(
            f"an expansion to relative order {message_number(rel)} has too many terms to hold"
        ) from None
    return weights, q * q * m, exps, out_ram, h


def formal_derivative(f: PuiseuxSeries) -> PuiseuxSeries:
    """Termwise d/dt; the truncation bound drops by one."""
    trunc = None if f.trunc is None else f.trunc - 1
    return PuiseuxSeries(
        tuple((e - 1, c * e) for e, c in f.terms if e != 0), trunc=trunc, ram=f.ram
    )


def reparam_inverse(f: PuiseuxSeries, target) -> PuiseuxSeries:
    """Compositional inverse: a series d with f(d(t)) = t + O(t^target).

    Requires ord f = r > 0 and a leading coefficient with an exact r-th root
    (in exact mode).  Newton iteration on series; d has order 1/r.  The
    residual certificate is recomputed on the returned, truncated d.
    """
    target = Fraction(target)
    if not f.terms:
        raise ZeroUpToTruncationError(f.trunc)
    r, c = f.terms[0]
    if r <= 0:
        raise NonPositiveValuationSubstitution(f"order {message_number(r)} is not positive")
    if f.trunc is not None and f.trunc < r * (target + 1):
        # composing with d (order 1/r) caps residual knowledge at trunc/r
        raise TruncationExhausted(
            f"inverting to order {message_number(target)} needs f known below "
            f"{message_number(r * (target + 1))}"
        )
    # d must be kept beyond `target` when ord f < 1, because composing then
    # amplifies the truncation error by t^((r-1)/r) with negative exponent
    pad = max(Fraction(0), (1 - r) / r)
    tau = target + pad
    res_goal = target + 1
    work = res_goal + pad  # delta truncation that lets the residual reach res_goal
    inv_r = Fraction(1) / r
    delta = PuiseuxSeries.t_power(inv_r, _coeff_pow(c, -inv_r))
    t = PuiseuxSeries.t_power(1)
    fprime = formal_derivative(f)
    for _ in range(256):
        res = f.compose(delta, order=res_goal) - t
        ro = res.ord_lower_bound()
        if ro is not None and ro >= res_goal:
            break
        slope = fprime.compose(delta, order=work)
        delta = (delta - res * slope.inv(order=work)).truncate(work)
    else:
        raise RuntimeError("series reparametrization did not converge")
    delta = delta.truncate(tau)
    res = f.compose(delta, order=target) - t
    ro = res.ord_lower_bound()
    if ro is None or ro < target:
        raise RuntimeError("reparametrization residual certificate failed")
    return delta


# -- rendering (canonical grammar, shared with the parser) -----------------


def _render_exp(e: Exp) -> str:
    return render_rat(e) if e.denominator == 1 else f"({render_rat(e)})"


def _render_coeff(c) -> str:
    if isinstance(c, Fraction):
        return render_rat(c)
    return repr(c)


def render_series(f: PuiseuxSeries, var: str = "t") -> str:
    """Canonical text form, e.g. ``3/2*t^(5/2) - t^3 + O(t^4)``."""
    parts = []
    for e, c in f.terms:
        neg = c < 0
        mag = -c if neg else c
        if e == 0:
            body = _render_coeff(mag)
        elif mag == 1:
            body = var if e == 1 else f"{var}^{_render_exp(e)}"
        else:
            pw = var if e == 1 else f"{var}^{_render_exp(e)}"
            body = f"{_render_coeff(mag)}*{pw}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    if f.trunc is not None:
        o = f"O({var}^{_render_exp(f.trunc)})"
        parts.append(f"+ {o}" if parts else o)
    if not parts:
        return "0"
    return " ".join(parts)


# -- arcs -------------------------------------------------------------------

Arc = tuple  # n-tuple of PuiseuxSeries


def arc(*components) -> Arc:
    """Bundle series into an arc (tuple of components)."""
    return tuple(PuiseuxSeries._coerce(c) for c in components)
