import random
from fractions import Fraction

from arcfield.qarith import (
    int_nth_root,
    rational_nth_root,
    rational_pow,
    render_rat,
)


def test_cmp_cross_multiplication_oracle():
    # -3/7 vs -2/5 decided by cross multiplication: -3*5 = -15 < -14 = -2*7
    a, b = Fraction(-3, 7), Fraction(-2, 5)
    assert a.numerator * b.denominator < b.numerator * a.denominator
    assert a < b


def test_reduction_and_sign_invariants():
    r = Fraction(6, -4)
    assert (r.numerator, r.denominator) == (-3, 2)
    assert Fraction(0, 5) == Fraction(0, 1)
    # normalizing twice equals normalizing once
    assert Fraction(r.numerator, r.denominator) == r


def test_field_axioms_random_triples():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (
            Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if a != 0:
            assert a * (1 / a) == 1
        assert a + (-a) == 0


def test_render_parse_roundtrip():
    for r in (Fraction(3, 2), Fraction(-7), Fraction(0), Fraction(-5, 9)):
        assert Fraction(render_rat(r)) == r


def test_integer_roots():
    assert int_nth_root(8, 3) == 2
    assert int_nth_root(81, 4) == 3
    assert int_nth_root(10, 2) is None
    big = 10**60 + 3
    assert int_nth_root(big**2, 2) == big


def bisection_root(n, k):
    """floor(n^(1/k)) if it is the exact root, else None, by bisection."""
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while lo <= hi:
        mid = (lo + hi) // 2
        if mid**k == n:
            return mid
        lo, hi = (mid + 1, hi) if mid**k < n else (lo, mid - 1)
    return None


def test_integer_roots_past_the_float_range_match_bisection():
    rng = random.Random(23)
    for _ in range(200):
        k = rng.randint(2, 9)
        r = 1 + rng.getrandbits(rng.choice((2, 8, 20, 40, 200, 600)))
        for n in (r**k, r**k + 1, r**k - 1, (r + 1) ** k - 1):
            assert int_nth_root(n, k) == bisection_root(n, k)
    # small radicands, in and around the range a float guess can serve
    for k in range(2, 10):
        for n in range(2000):
            assert int_nth_root(n, k) == bisection_root(n, k)


def test_rational_roots():
    assert rational_nth_root(Fraction(4, 9), 2) == Fraction(2, 3)
    assert rational_nth_root(Fraction(-27, 8), 3) == Fraction(-3, 2)
    assert rational_nth_root(Fraction(-4), 2) is None
    assert rational_nth_root(Fraction(2), 2) is None


def test_rational_pow():
    assert rational_pow(Fraction(4), Fraction(1, 2)) == 2
    assert rational_pow(Fraction(8), Fraction(-2, 3)) == Fraction(1, 4)
    assert rational_pow(Fraction(2), Fraction(1, 2)) is None
