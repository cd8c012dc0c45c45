"""Property-based checks of the kernel's algebraic laws."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import poly_from_roots

from arcfield.errors import IndistinguishableAtTruncation, TruncationExhausted
from arcfield.newton import PolyOverSeries, np_roots
from arcfield.puiseux import PuiseuxSeries, ZeroUpToTruncation, _binomial_sum, reparam_inverse

F = Fraction


@st.composite
def series(draw, min_exp=-2, max_num=5, unit_positive_lead=False):
    q = draw(st.sampled_from((1, 2, 3, 4)))
    lattice = [F(k, q) for k in range(min_exp * q, max_num * q + 1)]
    exps = draw(
        st.lists(st.sampled_from(lattice), min_size=0, max_size=4, unique=True)
    )
    exps.sort()
    terms = []
    for i, e in enumerate(exps):
        if i == 0 and unit_positive_lead:
            c = F(1)
        else:
            c = F(
                draw(st.integers(min_value=-9, max_value=9).filter(bool)),
                draw(st.integers(min_value=1, max_value=4)),
            )
        terms.append((e, c))
    trunc = draw(
        st.one_of(st.none(), st.sampled_from([F(k, q) for k in range(1, 7 * q)]))
    )
    return PuiseuxSeries(terms, trunc=trunc)


def common_eq(a, b):
    bound = a.trunc
    if b.trunc is not None and (bound is None or b.trunc < bound):
        bound = b.trunc
    return a.truncate(bound) == b.truncate(bound)


@settings(max_examples=120, deadline=None)
@given(series(), series(), series())
def test_ring_axioms_mod_truncation(f, g, h):
    assert common_eq((f + g) + h, f + (g + h))
    assert f + g == g + f
    assert f * g == g * f
    assert common_eq((f * g) * h, f * (g * h))
    assert common_eq(f * (g + h), f * g + f * h)
    assert common_eq(f * (g - h), f * g - f * h)


@settings(max_examples=120, deadline=None)
@given(series(), series())
def test_ultrametric(f, g):
    of, og, os = f.ord(), g.ord(), (f + g).ord()
    if isinstance(of, ZeroUpToTruncation) or isinstance(og, ZeroUpToTruncation):
        return
    if isinstance(os, ZeroUpToTruncation):
        # total cancellation happens only when the leading orders tie
        assert of == og
        return
    assert os >= min(of, og)
    if of != og:
        assert os == min(of, og)


@settings(max_examples=100, deadline=None)
@given(series())
def test_inv_roundtrip(f):
    if f.lead() is None:
        return
    inv = f.inv(order=6)
    residual = f * inv - PuiseuxSeries.one()
    assert not residual.terms
    lb = residual.ord_lower_bound()
    assert lb is None or lb == residual.trunc


@settings(max_examples=80, deadline=None)
@given(series(min_exp=0, unit_positive_lead=True), st.sampled_from(
    (F(1, 2), F(1, 3), F(2, 3), F(3, 2), F(-1, 2))
))
def test_pow_consistency(f, e):
    if f.lead() is None:
        return
    root = f.pow_rational(e, order=5)
    if root.lead() is None:
        return  # the working order sits below the root's leading exponent
    back = root.pow_rational(F(e.denominator), order=5)
    direct = f.pow_rational(F(e.numerator), order=5)
    assert common_eq(back, direct)


@settings(max_examples=60, deadline=None)
@given(series(min_exp=1, unit_positive_lead=True))
def test_reparam_roundtrip(f):
    lead = f.lead()
    if lead is None or lead[0] <= 0:
        return
    f = PuiseuxSeries(f.terms)  # exact germ: inversion needs full knowledge
    d = reparam_inverse(f, 4)
    residual = f.compose(d, order=4) - PuiseuxSeries.t_power(1)
    assert not residual.terms
    lb = residual.ord_lower_bound()
    assert lb is not None and lb >= 4


@settings(max_examples=100, deadline=None)
@given(series(min_exp=0), series(min_exp=0), st.sampled_from([F(1, k) for k in (7, 13, 50, 999)]))
def test_germ_ops_respect_pointwise_evaluation(f, g, s0):
    # sums and products of germs are the germs of pointwise sums and
    # products: exact evaluation at t = s0^ram (so every fractional power
    # lands on a rational value) agrees on the nose
    f = PuiseuxSeries(f.terms)
    g = PuiseuxSeries(g.terms)
    ram = (f + g).ram * (f * g).ram

    def at(series, s):
        return sum((c * s ** int(e * ram) for e, c in series.terms), F(0))

    assert at(f + g, s0) == at(f, s0) + at(g, s0)
    assert at(f * g, s0) == at(f, s0) * at(g, s0)


@settings(max_examples=100, deadline=None)
@given(series(min_exp=0, unit_positive_lead=True))
def test_germ_interval_membership_matches_order(f):
    # a germ sits in the interval (a, b) exactly when a < f < b in the
    # field order; here the limit at 0+ decides strict membership
    f = PuiseuxSeries(f.terms)
    lim = f.limit0()
    a, b = lim - 1, lim + 1
    lo = PuiseuxSeries.constant(a)
    hi = PuiseuxSeries.constant(b)
    assert lo < f < hi
    # singleton: only the constant germ itself lies in {c}
    assert (f == PuiseuxSeries.constant(lim)) == (f.terms in (((F(0), lim),), ()))


@settings(max_examples=120, deadline=None)
@given(series(), series(), series())
def test_order_trichotomy_and_translation(f, g, h):
    try:
        c = f.compare(g)
    except IndistinguishableAtTruncation:
        return
    assert c in (-1, 0, 1)
    try:
        assert (f + h).compare(g + h) == c
    except IndistinguishableAtTruncation:
        pass  # adding h may lower the shared knowledge bound
    assert (g - f).compare(PuiseuxSeries.zero()) == -c


# -- Newton-polygon roots of poly_from_roots products ------------------------------


@st.composite
def root_series(draw):
    """A finite root series: lead exponent on (1/q)Z, q = 1, 2 or 3."""
    q = draw(st.sampled_from((1, 2, 3)))
    exps = [F(draw(st.integers(min_value=1, max_value=3 * q)), q)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        exps.append(exps[-1] + F(draw(st.integers(min_value=1, max_value=2 * q)), q))
    coeffs = [
        F(draw(st.integers(min_value=-4, max_value=4).filter(bool)),
          draw(st.integers(min_value=1, max_value=3)))
        for _ in exps
    ]
    return PuiseuxSeries(tuple(zip(exps, coeffs)))


@st.composite
def root_lists(draw):
    roots = draw(st.lists(root_series(), min_size=1, max_size=3))
    if draw(st.booleans()):
        roots.append(roots[0])  # a repeated root
    return roots


def agrees(branch, root):
    """The branch's known terms are exactly the root's terms below its trunc."""
    if branch.trunc is None:
        return branch == root
    return branch == root.truncate(branch.trunc)


@settings(max_examples=60, deadline=None)
@given(root_lists(), st.sampled_from((F(2), F(7, 2), F(5))))
def test_np_roots_recovers_constructing_roots(roots, target):
    branches = np_roots(poly_from_roots(roots), target)
    assert sum(b.multiplicity for b in branches) == len(roots)
    for b in branches:
        assert any(agrees(b.series, r) for r in roots)
    for r in set(roots):
        if r.terms[-1][0] < target:
            # every term below the target: the root comes back exact
            assert any(
                b.series == r and b.certified_order is None
                and b.multiplicity == roots.count(r)
                for b in branches
            )


@settings(max_examples=60, deadline=None)
@given(root_lists(), st.data())
def test_np_roots_never_reports_beyond_knowledge(roots, data):
    # perturb every root past its last term; coefficient j of the product
    # then changes only from ord D_j on, so truncating it at or below ord D_j
    # leaves an input that both products complete
    other = []
    for r in roots:
        step = F(data.draw(st.integers(min_value=1, max_value=4)), r.ram)
        c = F(data.draw(st.integers(min_value=-3, max_value=3).filter(bool)))
        other.append(r + PuiseuxSeries.t_power(r.terms[-1][0] + step, c))
    p, q = poly_from_roots(roots), poly_from_roots(other)
    coeffs = list(p.coeffs)
    for j in range(len(coeffs) - 1):
        diff = q.coeffs[j] - p.coeffs[j]
        if diff.is_zero():
            continue
        back = F(data.draw(st.integers(min_value=0, max_value=3)), 2 * diff.ram)
        coeffs[j] = coeffs[j].truncate(diff.lead()[0] - back)
    target = data.draw(st.sampled_from((F(2), F(7, 2), F(5))))
    try:
        branches = np_roots(PolyOverSeries(tuple(coeffs)), target)
    except TruncationExhausted:
        return
    for b in branches:
        assert any(agrees(b.series, r) for r in roots)
        assert any(agrees(b.series, r) for r in other)


def renormalized(f):
    """``f`` rebuilt by the general constructor, which sorts, merges and filters."""
    return PuiseuxSeries(f.terms, trunc=f.trunc, ram=f.ram)


@settings(max_examples=150, deadline=None)
@given(
    series(),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=8, max_denominator=4),
)
def test_fast_constructor_outputs_are_canonical(f, c, k):
    outs = [-f, f.scale(c), f.shift(k), f.truncate(k)]
    if f.terms:
        v, c = f.terms[0]
        # f = c t^v (1 + u), with u built by the operations under test
        u = PuiseuxSeries(f.terms[1:], trunc=f.trunc, ram=f.ram).shift(-v).scale(1 / c)
        outs.append(u)
        rel = v + 4 if f.trunc is None else f.trunc - v
        if rel > 0:
            outs.append(_binomial_sum(u, F(1, 3), rel))
    for out in outs:
        again = renormalized(out)
        assert again == out and again.ram == out.ram
    assert f.truncate(k) == PuiseuxSeries(f.terms, trunc=k if f.trunc is None else min(k, f.trunc))
