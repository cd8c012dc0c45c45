"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's series kernel: they work
on plain coefficient lists with Fraction arithmetic, so expected values are
computed by an independent route before being compared.
"""

from __future__ import annotations

import random
from fractions import Fraction

from arcfield.newton import PolyOverSeries, _poly_mul_series
from arcfield.puiseux import PuiseuxSeries


# -- independent polynomial-list arithmetic (dense, index = power of t) ----------


def poly_mul(a, b, order):
    out = [Fraction(0)] * order
    for i, ca in enumerate(a):
        if ca == 0 or i >= order:
            continue
        for j, cb in enumerate(b):
            if i + j >= order:
                break
            out[i + j] += ca * cb
    return out


def poly_inv(a, order):
    """1 / (a0 + a1 t + ...) with a0 != 0, by the standard recurrence."""
    assert a[0] != 0
    out = [Fraction(0)] * order
    out[0] = Fraction(1) / a[0]
    for n in range(1, order):
        s = Fraction(0)
        for k in range(1, min(n, len(a) - 1) + 1):
            s += a[k] * out[n - k]
        out[n] = -s / a[0]
    return out


def binomial_coeff(e: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out = out * (e - i) / (i + 1)
    return out


def binomial_series(e: Fraction, u, order):
    """(1 + u)^e for a coefficient list u with u[0] = 0."""
    assert not u or u[0] == 0
    out = [Fraction(0)] * order
    out[0] = Fraction(1)
    power = [Fraction(0)] * order
    power[0] = Fraction(1)
    for k in range(1, order):
        power = poly_mul(power, u, order)
        if all(c == 0 for c in power):
            break
        c = binomial_coeff(e, k)
        for i, v in enumerate(power):
            out[i] += c * v
    return out


def lagrange_inverse(a, order):
    """Compositional inverse of f = a1 t + a2 t^2 + ... (a1 != 0).

    g_n = (1/n) [w^(n-1)] (w / f(w))^n, computed with dense lists.
    """
    assert a[0] == 0 and a[1] != 0
    ratio = poly_inv(a[1:], order)  # w / f(w) = 1 / (a1 + a2 w + ...)
    g = [Fraction(0)] * order
    power = [Fraction(0)] * order
    power[0] = Fraction(1)
    for n in range(1, order):
        power = poly_mul(power, ratio, order)
        g[n] = power[n - 1] / n
    return g


def series_from_ints(pairs, trunc=None):
    return PuiseuxSeries(tuple((Fraction(e), Fraction(c)) for e, c in pairs), trunc=trunc)


# -- polynomials with known roots ---------------------------------------------------


def poly_from_roots(roots, extra=()) -> PolyOverSeries:
    """Expand prod (X - r) times optional extra factors given as coeff lists."""
    coeffs = [PuiseuxSeries.one()]
    for r in roots:
        coeffs = _poly_mul_series(coeffs, [-r, PuiseuxSeries.one()])
    for factor in extra:
        coeffs = _poly_mul_series(coeffs, list(factor))
    return PolyOverSeries(tuple(coeffs))


# -- random series generation ------------------------------------------------------


def random_series(
    rng: random.Random,
    max_terms: int = 4,
    max_num: int = 6,
    max_den: int = 4,
    height: int = 10,
    min_exp: Fraction = Fraction(-2),
    unit_lead: bool = False,
    positive_lead: bool = False,
    allow_trunc: bool = True,
) -> PuiseuxSeries:
    q = rng.randint(1, max_den)
    lattice = [Fraction(k, q) for k in range(int(min_exp * q), max_num * q + 1)]
    lattice = [e for e in lattice if e >= min_exp]
    count = min(rng.randint(1, max_terms), len(lattice))
    exps = sorted(rng.sample(lattice, count))
    terms = []
    for i, e in enumerate(exps):
        if i == 0 and unit_lead:
            c = Fraction(1) if positive_lead else Fraction(rng.choice((1, -1)))
        else:
            num = 0
            while num == 0:
                num = rng.randint(-height, height)
            c = Fraction(num, rng.randint(1, 4))
            if i == 0 and positive_lead:
                c = abs(c)
        terms.append((e, c))
    trunc = None
    if allow_trunc and rng.random() < 0.5:
        trunc = exps[-1] + Fraction(rng.randint(1, 3), q)
        terms = [(e, c) for e, c in terms if e < trunc]
    return PuiseuxSeries(terms, trunc=trunc)


def common_trunc_equal(a: PuiseuxSeries, b: PuiseuxSeries) -> bool:
    """Equality after cutting both to the smaller knowledge bound."""
    bound = a.trunc if b.trunc is None else (b.trunc if a.trunc is None else min(a.trunc, b.trunc))
    return a.truncate(bound) == b.truncate(bound)
