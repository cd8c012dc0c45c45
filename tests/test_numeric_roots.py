"""Numeric mode on the exact Newton-polygon skeleton, against independent oracles.

A product of linear factors with rational series roots (``poly_from_roots``)
has known branches, and exact mode returns them: numeric mode must return the
same branches as floats, with the same multiplicities.  A factor
X^q - a t^p (1 + b t^k) whose a is not a q-th power has the real branches
a^(1/q) t^(p/q) (1 + b t^k)^(1/q), which ``binomial_branch`` expands here as
a float binomial sum that shares no code with the solver.
"""

import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import poly_from_roots

from arcfield import newton
from arcfield.cli import main
from arcfield.errors import ArcFieldError, BranchNotCertified, IrrationalBranch, NoRealBranch
from arcfield.mapexpr import eval_map_series
from arcfield.newton import PolyOverSeries, np_roots
from arcfield.parser import parse_map, parse_poly
from arcfield.puiseux import PuiseuxSeries
from arcfield.transport import solve_preimage_arc

F = Fraction
one = PuiseuxSeries.one()
zero = PuiseuxSeries.zero()
TOL = 1e-9


def poly(*coeffs):
    return PolyOverSeries(tuple(coeffs))


def t_pow(e, c=1):
    return PuiseuxSeries.t_power(F(e), F(c))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv + ["--emit", "structured"], out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def close(got, want):
    return abs(got - want) <= TOL * max(abs(want), 1.0)


def assert_matches(branch, want):
    """Every coefficient below the branch's bound agrees with ``want``.

    ``want`` maps exponents to coefficients; an exponent it lacks has
    coefficient 0.  So a term the branch drops below its bound fails, and so
    does a term it claims that ``want`` lacks, unless it is round-off.
    """
    got = dict(branch.series.terms)
    bound = branch.series.trunc
    for e in set(got) | set(want):
        if bound is None or e < bound:
            # the lift-soundness rule: no known term is dropped below the bound
            assert e in got or not want.get(e), f"term at t^{e} dropped"
            assert close(got.get(e, 0.0), float(want.get(e, 0))), (e, got.get(e), want.get(e))


def binomial_branch(a, q, p, b, k, sign, order):
    """sign |a|^(1/q) t^(p/q) (1 + b t^k)^(1/q) below t^order, in floats."""
    lead = sign * abs(a) ** (1.0 / q)
    out, coeff, n = {}, 1.0, 0
    while F(p, q) + k * n < order:
        if coeff:
            out[F(p, q) + k * n] = lead * coeff * float(b) ** n
        coeff *= (1.0 / q - n) / (n + 1)
        n += 1
    return out


def roots_strategy():
    root = st.tuples(
        st.sampled_from([F(1, 2), F(1), F(3, 2), F(2)]),
        st.sampled_from([1, -1, 2, -2, 3, F(1, 2)]),
        st.integers(0, 2),
        st.integers(-3, 3),
    ).map(lambda r: t_pow(r[0], r[1]) + (t_pow(r[0] + r[2], r[3]) if r[2] else zero))
    # a repeated root makes a double one
    return st.lists(root, min_size=1, max_size=3).flatmap(
        lambda rs: st.sampled_from([rs, rs + rs[:1]]))


@settings(max_examples=120, deadline=None)
@given(roots_strategy(), st.sampled_from([F(4), F(6), F(13, 2)]))
def test_numeric_branches_of_rational_products_equal_the_exact_ones(roots, target):
    p = poly_from_roots(roots)
    exact = np_roots(p, target)
    numeric = np_roots(p, target, mode="numeric")
    assert [b.multiplicity for b in numeric] == [b.multiplicity for b in exact]
    assert sum(b.multiplicity for b in exact) == len(roots)
    for eb, nb in zip(exact, numeric):
        assert nb.exactness == "numeric" and nb.certified_order == nb.series.trunc
        assert nb.series.trunc == eb.series.trunc
        assert_matches(nb, dict(eb.series.terms))
        # no edge root is irrational, so the branch is the exact one in floats
        assert nb.series.terms == tuple((e, float(c)) for e, c in eb.series.terms)


NOT_POWERS = {2: [2, 3, 5, 6, F(1, 2), F(2, 3)], 3: [2, -2, 3, -5, 9, F(1, 4)]}


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([2, 3]).flatmap(lambda q: st.tuples(
        st.just(q), st.sampled_from(NOT_POWERS[q]), st.integers(1, 3))),
    st.sampled_from([0, 1, -1, F(1, 2), 2]),
    st.integers(1, 2),
    st.sampled_from([None, (1, F(1, 3)), (-2, F(1)), (1, F(2))]),
    st.sampled_from([F(5), F(8)]),
)
def test_irrational_binomial_factor_matches_its_float_expansion(qap, b, k, other, target):
    q, a, p = qap
    # X^q - a t^p (1 + b t^k), optionally times a rational factor X - c t^m
    factor = [-(t_pow(p, a) + t_pow(p + k, a * b))] + [zero] * (q - 1) + [one]
    extra = [factor]
    roots = []
    if other is not None:
        roots = [t_pow(other[1], other[0])]
    p_ = poly_from_roots(roots, extra=extra)
    branches = np_roots(p_, target, mode="numeric")
    signs = (1, -1) if q % 2 == 0 else (1 if a > 0 else -1,)
    want = [binomial_branch(a, q, p, b, k, s, target) for s in signs]
    irrational = [br for br in branches if br.series.lead()[0] == F(p, q)
                  and not (roots and roots[0].lead()[0] == F(p, q)
                           and close(br.series.lead()[1], float(roots[0].lead()[1])))]
    assert len(irrational) == len(want)
    for br in irrational:
        assert br.multiplicity == 1
        assert br.series.trunc is None or br.series.trunc >= target
        (w,) = [w for w in want if close(br.series.lead()[1], w[F(p, q)])]
        assert_matches(br, w)
    if roots:
        (rat,) = [br for br in branches if br not in irrational]
        assert rat.series.terms == ((roots[0].lead()[0], float(roots[0].lead()[1])),)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, -1, 2, F(-1, 2)]),
    st.integers(1, 3),
    st.sampled_from([2, 3, 5]),
    st.integers(1, 3),
    st.sampled_from(["exact", "numeric"]),
)
def test_odd_degree_never_yields_zero_branches(c, m, a, p, mode):
    # X - c t^m times X^2 + a t^p (no real root) or X^2 - a t^p (irrational)
    for sign in (1, -1):
        quad = [t_pow(p, sign * a), zero, one]
        P = poly_from_roots([t_pow(m, c)], extra=[quad])
        try:
            branches = np_roots(P, 6, mode=mode)
        except IrrationalBranch:
            assert mode == "exact" and sign == -1
            continue
        assert branches


@pytest.mark.parametrize("order", [14, 16, 24])
def test_cubic_keeps_its_real_branch(order):
    # the numeric path used to chop the constant term away from order 14 on
    p = poly(-(t_pow(2) + t_pow(3, 3)), zero, zero, one)
    (exact,) = np_roots(p, order)
    (numeric,) = np_roots(p, order, mode="numeric")
    assert numeric.series.trunc == exact.series.trunc == order
    assert numeric.series.terms == tuple((e, float(c)) for e, c in exact.series.terms)
    code, out, _err = run(["roots", "-t^2 - 3*t^3; 0; 0; 1", "--mode", "numeric",
                           "--t-order", str(order)])
    assert code == 0 and len(json.loads(out)["payload"]["branches"]) == 1


def test_round_off_below_the_lift_precision_is_dropped():
    # 5^(1/3) t^(2/3) (1 + t^(1/2))^(1/3) next to the roots t^(1/2)/3 - t^3
    # and 2 t^(3/2): Newton steps that also "corrected" their residue below
    # the precision already reached drifted to an error of 4e-4 at order 10
    cubic = [-(t_pow(2, 5) + t_pow(F(5, 2), 5)), zero, zero, one]
    p = poly_from_roots([t_pow(F(1, 2), F(1, 3)) - t_pow(3), t_pow(F(3, 2), 2)], extra=[cubic])
    (branch,) = [b for b in np_roots(p, 10, mode="numeric") if b.series.lead()[0] == F(2, 3)]
    assert_matches(branch, binomial_branch(5, 3, 2, 1, F(1, 2), 1, 10))


def test_double_edge_root_in_numeric_mode():
    # (X - t)^2: no sign change at the double root 1 of (z - 1)^2
    code, out, _err = run(["roots", "t^2; -2*t; 1", "--mode", "numeric"])
    assert code == 0
    (branch,) = json.loads(out)["payload"]["branches"]
    assert (branch["series"], branch["multiplicity"]) == ("t", 2)
    assert branch["exactness"] == "numeric"


def test_double_irrational_edge_root():
    # (X^2 - 2t)^2: both branches +-2^(1/2) t^(1/2), each twice
    p = poly(t_pow(2, 4), zero, t_pow(1, -4), zero, one)
    branches = np_roots(p, 6, mode="numeric")
    assert [b.multiplicity for b in branches] == [2, 2]
    assert [b.series.terms for b in branches] == [
        ((F(1, 2), -math.sqrt(2)),), ((F(1, 2), math.sqrt(2)),)]


def test_edge_roots_with_large_coefficients_are_exact():
    # edge (z - 10^15)(z^2 - 1): the isolating intervals name every root
    p = poly_from_roots([t_pow(1, 10**15), t_pow(1), t_pow(1, -1)])
    assert [(b.series.terms, b.exactness) for b in np_roots(p, 3)] == [
        (((F(1), F(-1)),), "exact"), (((F(1), F(1)),), "exact"),
        (((F(1), F(10**15)),), "exact")]
    branches = np_roots(p, 3, mode="numeric")
    assert [b.series.terms for b in branches] == [
        ((F(1), -1.0),), ((F(1), 1.0),), ((F(1), 1e15),)]


@pytest.mark.parametrize("root", [
    F(2**54 - 1, 2**53),  # midway between 2 - 2^-52 and 2
    F(2**53 + 3, 2**53),  # midway between 1 + 2^-52 and 1 + 2^-51
    F(2**54 - 1, 2**53) + F(1, 2**80),
    F(2**54 - 1, 2**53) - F(1, 2**80),
    F(-2, 3),
])
def test_isolated_roots_are_correctly_rounded(root):
    # float edge data make dyadic roots, and one midway between two floats
    # never lets bisection end with both ends rounding alike
    assert newton._rational_roots([-root, F(1)], "numeric", named=False) == [
        (float(root), 1)]


def _times_linear(p, r):
    """p(z) (z - r), coefficients low degree first."""
    return [b - r * a for a, b in zip(p + [F(0)], [F(0)] + p)]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-10**30, 10**30).filter(bool), st.integers(1, 10**12),
                       st.integers(1, 3)), min_size=1, max_size=3,
             unique_by=lambda r: F(r[0], r[1])),
    st.one_of(st.none(), st.integers(-60, 60).filter(bool)),
    st.fractions(min_value=-10**6, max_value=10**6).filter(bool),
)
def test_edge_roots_are_the_rational_factors(factors, k, scale):
    # c prod (z - r_i)^m_i, optionally times z^2 - k: the rational roots
    # come back exact at any size, and only an irrational root of
    # z^2 - k is left to exact mode's IrrationalBranch
    roots = {F(n, d): m for n, d, m in factors}
    p = [scale]
    for r, m in roots.items():
        for _ in range(m):
            p = _times_linear(p, r)
    irrational = []
    if k is not None:
        p = _times_linear(_times_linear(p, F(0)), F(0))
        p = [a - k * b for a, b in zip(p, p[2:] + [F(0), F(0)])]
        s = math.isqrt(k) if k > 0 else None
        if s is not None and s * s == k:
            for r in (F(-s), F(s)):
                roots[r] = roots.get(r, 0) + 1
        elif k > 0:
            irrational = [(-math.sqrt(k), 1), (math.sqrt(k), 1)]
    edge = [(j, a) for j, a in enumerate(p) if a]
    rational = sorted(roots.items())
    if irrational:
        with pytest.raises(IrrationalBranch):
            newton._edge_roots(edge, "exact")
    else:
        got = newton._edge_roots(edge, "exact")
        assert got == rational and all(type(r) is F for r, _m in got)
    got = newton._edge_roots(edge, "numeric")
    assert got == rational + irrational
    assert [type(r) for r, _m in got] == [F] * len(rational) + [float] * len(irrational)


NON_SQUARES = [2, 3, 5, -2, F(1, 2), F(2, 3)]


@settings(max_examples=100, deadline=None)
@given(
    roots_strategy(),
    st.one_of(st.none(), st.tuples(st.sampled_from(NON_SQUARES),
                                   st.sampled_from([F(1, 2), F(1), F(3, 2), F(2)]))),
    st.sampled_from([F(4), F(6)]),
)
def test_numeric_mode_keeps_the_rational_branches_beside_float_ones(roots, quad, target):
    # prod (X - r) for rational series roots r, optionally times X^2 - k t^(2m)
    # with k not a square, whose two real branches (for k > 0) are floats
    extra = [] if quad is None else [[-t_pow(2 * quad[1], quad[0]), zero, one]]
    try:
        numeric = np_roots(poly_from_roots(roots, extra=extra), target, mode="numeric")
    except ArcFieldError:
        return
    exact = np_roots(poly_from_roots(roots), target)
    assert len(numeric) == len(exact) + (2 if quad is not None and quad[0] > 0 else 0)

    def known(b):  # what a branch says below the target
        s = b.series.truncate(target)
        return b.multiplicity, s.terms, s.trunc

    got = [known(b) for b in numeric]
    for b in exact:
        m, terms, trunc = known(b)
        assert (m, tuple((e, float(c)) for e, c in terms), trunc) in got


# polynomials, t-orders and the numeric exit codes: the first five have
# certified branches, and exact mode returns those of 1, 3 and 4
CERTIFIED_ON_THE_SERIES = [
    ("1/3*t^(1/3) - t^(3/2); 1/3; 1", "6", 0),
    ("-5/2*t^(2/3) + t^6; -5/2*t^(4/3); 2*t^3 + 1/3*t^6 + 1/3; 1", "6", 0),
    ("-t^4 + 1/3*t; -t^(4/3) + 2*t^(1/3); -1 + 1/3*t^3; 1", "16", 0),
    ("0; t^(1/2); 2*t^(1/3) - 5/2*t^6 + 1/3*t^2; t^4 + 1; 1", "10", 0),
    ("-5/2*t^5 + 2*t^4; -1 - 5/2*t^5; -t^2; 2 + 1/3*t^4 - 5/2*t^(1/2); 1", "6", 0),
    ("1/3*t^4 + 2*t; 2*t^(1/3) - t^(3/2); -t^6 + t^2; t^(4/3) + 1/3*t^2 - 1; 1", "16", 1),
    ("-t^2; 1/3*t; -t^4 - t; -5/2*t^(5/2) + t - 5/2*t^(1/2); 1", "16", 1),
]


@pytest.mark.parametrize("text, order", [CERTIFIED_ON_THE_SERIES[i][:2] for i in (0, 2, 3)])
def test_rational_branches_with_large_coefficients_are_the_exact_ones(text, order):
    p = parse_poly(text)
    exact = np_roots(p, F(order))
    numeric = np_roots(p, F(order), mode="numeric")
    assert [b.series.terms for b in numeric] == [
        tuple((e, float(c)) for e, c in b.series.terms) for b in exact]


@pytest.mark.parametrize("text, order", [CERTIFIED_ON_THE_SERIES[i][:2] for i in (5, 6)])
def test_float_branch_with_a_residual_below_the_target_is_refused(text, order):
    # P at these float branches, each float taken as its exact rational,
    # keeps a residual term below t^16 of 10% to 15% of its magnitude
    with pytest.raises(BranchNotCertified):
        np_roots(parse_poly(text), F(order), mode="numeric")


def test_gate_numeric_report_is_the_exact_branch_in_floats():
    p = poly(-(t_pow(1) + t_pow(2)), zero, one)
    for eb, nb in zip(np_roots(p, 10), np_roots(p, 10, mode="numeric")):
        assert nb.series.terms == tuple((e, float(c)) for e, c in eb.series.terms)
        assert nb.certified_order == nb.series.trunc == 10


def test_odd_degree_without_a_branch_is_an_error(monkeypatch):
    monkeypatch.setattr(newton, "_solve", lambda *args, **kwargs: [])
    with pytest.raises(NoRealBranch):
        np_roots(poly(-t_pow(1), zero, zero, one), 4, mode="numeric")
    assert np_roots(poly(-t_pow(1), zero, one), 4) == []  # even degree may have none
    code, out, err = run(["roots", "-t; 0; 0; 1", "--mode", "numeric"])
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("roots", [
    # edge roots +-3 are exact, and the t^2 term of the shifted constant
    # cancels to round-off: -3/10 + 0.1 * 3
    [t_pow(1, 3), -(t_pow(1, 3) + t_pow(3, F(1, 10)))],
    # a simple exact edge root whose lift meets float terms past Q1's lead
    [t_pow(2, F(2, 5)) + t_pow(3, F(-3, 7)) + t_pow(4, F(-5, 3)), t_pow(3, F(-2, 3)),
     -(t_pow(4) + t_pow(F(9, 2), F(1, 7)) + t_pow(6, F(1, 5)))],
])
def test_float_coefficient_at_an_exact_edge_root_leaves_no_round_off(roots):
    p = poly_from_roots(roots)
    coeffs = list(p.coeffs)
    coeffs[1] = PuiseuxSeries(tuple((e, float(c)) for e, c in coeffs[1].terms))
    numeric = np_roots(poly(*coeffs), 6, mode="numeric")
    exact = np_roots(p, 6)
    assert len(numeric) == len(exact)
    for nb, eb in zip(numeric, exact):
        want = {e: c for e, c in eb.series.terms if e < 6}
        assert [e for e, _c in nb.series.terms] == list(want)
        assert_matches(nb, want)


@pytest.mark.parametrize("text, arc", [
    # the constant coefficient y^3 + x^5 - gamma_2 keeps a round-off t^5
    # term where x^5 in floats meets the exact (2/3)^5 t^5 of gamma_2
    ("(x, y^3 + x^5)", [t_pow(1, F(2, 3)), t_pow(2)]),
    ("(x, y^3 + x^5)", [t_pow(1, F(2, 3)), zero]),
    ("(x, y^3 + x^5)", [t_pow(1, F(2, 3)) + t_pow(2, F(1, 5)), t_pow(2) + t_pow(3)]),
    # y^2 + x*y at the preimage cancels 15 - 15 at t^(14/3) in floats
    ("(x, y^2 + x*y)", [t_pow(1, -5) + t_pow(5, 2), t_pow(1, F(5, 2)) + t_pow(F(11, 3), 3)]),
])
def test_numeric_preimage_through_cancelling_float_terms(text, arc):
    h = parse_map(text, ("x", "y"))
    gamma = eval_map_series(h, arc, order=8)
    exact = solve_preimage_arc(h, gamma, 6)
    numeric = solve_preimage_arc(h, gamma, 6, mode="numeric")
    assert [d.terms for d in numeric] == [
        tuple((e, float(c)) for e, c in d.terms) for d in exact]


@pytest.mark.parametrize("text", ["(x, y^3 + x^5)", "(x, y^2 + x*y)"])
@pytest.mark.parametrize("seed", [2, 4])
def test_numeric_surjective_transport_agrees_with_exact(text, seed):
    argv = ["probe", "transport", "--transfer-kind", "surjective", "--map", text,
            "--vars", "x,y", "--trials", "5", "--seed", str(seed), "--target", "6"]
    exact = run(argv)
    numeric = run(argv + ["--mode", "numeric"])
    assert exact[0] == numeric[0] == 0
    assert json.loads(numeric[1])["status"] == "pass"
    assert json.loads(numeric[1])["payload"] == json.loads(exact[1])["payload"]
