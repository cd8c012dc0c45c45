"""Exact rational scalars and the exponent lattice under every series type.

``Rat`` is the stdlib ``fractions.Fraction``: arbitrary-precision, always in
reduced form with positive denominator, so the representation invariants
(gcd = 1, den > 0, zero = 0/1) hold by construction.  ``Exp`` is the same
type used in exponent position; series constructors enforce that exponents
attached to a series of ramification q land on the lattice (1/q)Z.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import DigitLimitExceeded

Rat = Fraction
Exp = Fraction


def render_rat(a: Rat) -> str:
    """Textual form ``p/q``, denominator omitted when 1.

    The interpreter's limit on the digits of an integer converted to text
    bounds the work of a conversion, so a longer number is refused.
    """
    try:
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise DigitLimitExceeded(f"a number has more than {limit} digits to print") from None


lcm = math.lcm


def int_nth_root(n: int, k: int):
    """Exact k-th root of a nonnegative integer, or None if not a perfect power."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1) or k == 1:
        return n
    # integer Newton iteration: it falls from above the root to floor(n^(1/k))
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x if x**k == n else None


def rational_nth_root(c: Rat, k: int):
    """Exact k-th root of a rational, or None.

    Negative radicands are allowed for odd k (the root is negative).
    """
    if k <= 0:
        raise ValueError("root index must be positive")
    if c < 0:
        if k % 2 == 0:
            return None
        r = rational_nth_root(-c, k)
        return None if r is None else -r
    num = int_nth_root(c.numerator, k)
    if num is None:
        return None
    den = int_nth_root(c.denominator, k)
    if den is None:
        return None
    return Fraction(num, den)


def rational_pow(c: Rat, e: Rat):
    """Exact c**e for rational e, or None when the result is irrational.

    Requires c != 0 for negative e; even-denominator e requires c > 0.
    """
    root = rational_nth_root(c, e.denominator)
    if root is None:
        return None
    return root ** e.numerator


def float_pow(c: float, e: Rat) -> float:
    """Sign-aware float power used in numeric mode (odd roots of negatives).

    Requires c >= 0 under an even root, which its callers check first.
    """
    if c < 0:
        mag = (-c) ** float(e)
        return -mag if e.numerator % 2 else mag
    return c ** float(e)
