"""Root branches of polynomials over Puiseux series, via the Newton polygon.

Each lower-hull edge of the coefficient valuations picks a candidate leading
exponent mu, and the edge polynomial picks the leading coefficients.
Substituting X = t^mu (c + Y) reduces to the same problem one term deeper.

Both modes run one solver on the exact coefficients.  Edge equations:

* a binomial edge a0 + ak z^k (no middle terms; k = 1 is the linear edge) is
  solved by one exact k-th root of -a0/ak.  Its real roots are simple: one
  for odd k, +-r for even k when -a0/ak > 0, none otherwise;
* any other edge polynomial is split by multiplicity (Musser's squarefree
  factorization), and Sturm sequences isolate each real root of each part
  in an interval.  A rational root r/s of a part's integer form has s | L,
  its leading coefficient: it is a multiple of 1/L, and two such lie at
  least 1/L apart.  So an interval narrower than 1/L holds at most one
  candidate, and an exact evaluation decides whether it is the root.

A real root that is not rational makes exact mode raise IrrationalBranch.
Numeric mode isolates it by Sturm sequences, rounds it to a 64-bit float,
and continues that branch alone in floats (Duval's dynamic evaluation,
"Rational Puiseux expansions", Compositio Math. 70, 1989): every other
branch stays exact, and its coefficients become floats only in the report.

A simple edge root leaves a reduced polynomial Q with ord Q1 = 0 < ord Q0
and ord Qj >= 0, whose one root of positive order is lifted by Newton
iteration Y <- Y - Q(Y)/Q'(Y) from Y = 0, doubling the precision each step
(Kung & Traub, JACM 25, 1978).  Its output equals what the term-by-term
recursion would give, knowledge bounds and TruncationExhausted included;
shapes where that is not guaranteed and repeated edge roots keep the
recursion.

Only real branches are produced, and a polynomial of odd degree always has
one.  Every returned branch, in both modes, carries a residual certificate:
substituting it back and measuring the valuation of what is left.  A float
term of that residual within NUMERIC_CHOP of the magnitudes summed into it
is round-off and is dropped, the per-term radius of ball arithmetic (van der
Hoeven, "Ball arithmetic", 2009); an exact term never is.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb, nextafter
from typing import List, Optional, Tuple

from .errors import (
    BranchNotCertified,
    FloatOverflow,
    IrrationalBranch,
    NoRealBranch,
    TruncationExhausted,
    message_number,
)
from .puiseux import PuiseuxSeries, _min_bound, _render_exp
from .qarith import Exp, lcm, rational_nth_root
from .record import Record

# a float term below this times the magnitudes summed into it is round-off
NUMERIC_CHOP = 1e-10


class PolyOverSeries(Record):
    """Polynomial in X with PuiseuxSeries coefficients, low degree first."""

    __slots__ = ("coeffs",)

    coeffs: Tuple[PuiseuxSeries, ...]

    def __post_init__(self):
        cs = list(self.coeffs)
        while len(cs) > 1 and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, x: PuiseuxSeries, order=None) -> PuiseuxSeries:
        """Horner evaluation with sound truncation propagation."""
        acc = PuiseuxSeries.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
            if order is not None:
                acc = acc.truncate(order)
        return acc


def _poly_mul_series(a, b):
    out = [PuiseuxSeries.zero()] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return out


class RootBranch(Record):
    """One real series branch with its residual certificate."""

    __slots__ = ("series", "multiplicity", "certified_order", "exactness")

    series: PuiseuxSeries
    multiplicity: int
    certified_order: Optional[Exp]  # None: residual exactly zero
    exactness: str  # "exact" | "numeric"

    def sort_key(self):
        lead = self.series.lead()
        return (
            lead[0] if lead else Fraction(10**9),
            self.series.terms,
        )


class _Branch(Record):
    __slots__ = ("terms", "mult", "trunc")
    terms: tuple  # ((exp, coeff), ...)
    mult: int
    trunc: Optional[Exp]  # None: exact root


def np_roots(P: PolyOverSeries, target, mode: str = "exact") -> List[RootBranch]:
    """All real Puiseux root branches of P up to order ``target``.

    Exact mode raises IrrationalBranch when a real branch exists whose edge
    equation has no rational root; numeric mode approximates that root and
    the branch through it in floats.  Every branch is certified as it was
    computed; numeric mode then reports it with float coefficients and its
    knowledge bound as the certified order, and a branch outside the float
    range raises FloatOverflow.  A branch that fails its certificate raises
    BranchNotCertified.  A polynomial of odd degree without a branch raises
    NoRealBranch.
    """
    target = Fraction(target)
    if P.degree < 1:
        return []
    if P.coeffs[-1].is_indeterminate_zero():
        raise TruncationExhausted("leading coefficient has no known term")
    out = []
    try:
        for rec in _solve(list(P.coeffs), target, positive_only=False, mode=mode, depth=0):
            branch = _certify(P, PuiseuxSeries(rec.terms, trunc=rec.trunc), rec.mult, target)
            if mode == "numeric":
                terms = tuple((e, float(c)) for e, c in rec.terms)
                series = PuiseuxSeries(terms, trunc=rec.trunc)
                branch = RootBranch(series, rec.mult, series.trunc, "numeric")
            out.append(branch)
    except OverflowError as exc:
        raise FloatOverflow("a branch coefficient lies outside the float range") from exc
    if not out and P.degree % 2:
        # a real closed field gives every odd-degree polynomial a root
        raise NoRealBranch(f"degree {P.degree} polynomial yielded no real branch")
    out.sort(key=RootBranch.sort_key)
    return out


def _certify(P, series, mult, target) -> RootBranch:
    """The branch with the order below which P(series) is known to vanish.

    With a float term in P or the branch, a float residual term within
    NUMERIC_CHOP of its magnitude, Horner on |P_j| at |series|, is dropped.
    """
    residual = P.eval(series)
    if _has_floats((series,) + P.coeffs):
        mags = PolyOverSeries(tuple(_abs_series(c) for c in P.coeffs))
        residual = _chop(residual, mags.eval(_abs_series(series)))
    if residual.is_zero():
        return RootBranch(series, mult, None, "exact")
    certified = residual.ord_lower_bound()
    if certified < target:
        if not residual.terms:
            # nothing wrong is known, the inputs just end before the target
            raise TruncationExhausted(
                f"residual is known only below order {message_number(certified)}"
            )
        raise BranchNotCertified(
            f"branch residual has a term at t^{_render_exp(residual.terms[0][0])}, "
            f"below the target {target}"
        )
    return RootBranch(series, mult, certified, "exact")


def _solve(coeffs, target, positive_only, mode, depth) -> List[_Branch]:
    """Branches of sum coeffs[j] Y^j = 0 known below ``target`` (t-exponent).

    ``positive_only`` restricts to branches with ord Y > 0, which is the
    invariant inside the recursion.
    """
    if depth > 4096:
        raise RuntimeError("Newton polygon recursion did not terminate")
    out: List[_Branch] = []

    # Y = 0 as an exact root (multiplicity = lowest index with nonzero coeff)
    m = 0
    while m < len(coeffs) and coeffs[m].is_zero():
        m += 1
    if m == len(coeffs):
        raise ValueError("zero polynomial has every series as a root")
    if m > 0:
        out.append(_Branch((), m, None))
        coeffs = coeffs[m:]

    if len(coeffs) == 1:
        return out

    if len(coeffs) == 2:
        # linear stage: solve by one division at full available precision
        branch = _solve_linear(coeffs[0], coeffs[1], target, positive_only)
        if branch is not None:
            out.append(branch)
        return out

    # Newton polygon over the known coefficient valuations
    pts = []
    unknown = []
    for j, c in enumerate(coeffs):
        lead = c.lead()
        if lead is not None:
            pts.append((j, lead[0]))
        elif not c.is_zero():
            unknown.append((j, c.trunc))
    if not pts:
        raise TruncationExhausted("no coefficient has a known leading term")
    hull = _lower_hull(pts)
    for j, bound in unknown:
        if j == 0:
            # the constant term ran out of known digits: every root passing
            # through it agrees with 0 below (bound - v1)/j1, so it is still
            # representable when that clears the target
            j1, v1 = hull[0]
            beta = Fraction(bound - v1, j1)
            if beta < target or _cuts_hull_from_left(hull, bound):
                raise TruncationExhausted(
                    "constant coefficient is unknown below the Newton polygon"
                )
            out.append(_Branch((), j1, target))
            continue
        # a coefficient known only above the hull cannot change the polygon
        # or its edge equations; anything to the left of it, on it or below
        # it could
        if j < hull[0][0] or bound is None or _not_above_hull(hull, j, bound):
            raise TruncationExhausted(
                f"coefficient of Y^{j} is unknown below the Newton polygon"
            )

    for (j0, v0), (j1, v1) in zip(hull, hull[1:]):
        mu = Fraction(v0 - v1, j1 - j0)
        if positive_only and mu <= 0:
            continue
        level = v0 + j0 * mu
        edge = [
            (j - j0, coeffs[j].lead()[1])
            for j, v in pts
            if v + j * mu == level
        ]
        for c, mult in _edge_roots(edge, mode):
            if mu >= target:
                # next correction would start at or beyond the bound
                out.append(_Branch((), mult, target))
                continue
            shifted = _transform(coeffs, mu, c, level)
            lifted = None
            if mult == 1:
                lifted = _lift_simple_root(shifted, target - mu)
            if lifted is None:
                subs = _solve(shifted, target - mu, True, mode, depth + 1)
            else:
                subs = [lifted]
            for s in subs:
                terms = ((mu, c),) + tuple((mu + e, a) for e, a in s.terms)
                trunc = None if s.trunc is None else mu + s.trunc
                out.append(_Branch(terms, s.mult, trunc))
    return out


def _solve_linear(c0, c1, target, positive_only) -> Optional[_Branch]:
    """Root of c1 Y + c0: division keeps all precision the inputs carry."""
    if c1.lead() is None:
        raise TruncationExhausted("linear coefficient has no known term")
    v1 = c1.lead()[0]
    if c0.lead() is None:
        # constant known only as O(t^T): the root is pinned below T - v1
        bound = c0.trunc - v1
        if bound <= 0:
            raise TruncationExhausted("root order undecidable at this truncation")
        return _Branch((), 1, bound)
    v0 = c0.lead()[0]
    inv_order = max(Fraction(1), target - v0 + 1)
    root = (-c0) * c1.inv(order=inv_order)
    lead = root.lead()
    if lead is None and not root.is_zero() and root.trunc <= 0:
        raise TruncationExhausted("root order undecidable at this truncation")
    if positive_only and lead is not None and lead[0] <= 0:
        return None
    return _Branch(root.terms, 1, root.trunc)


def _lift_simple_root(Q, target) -> Optional[_Branch]:
    """The root of positive order of sum Q[j] Y^j, below ``target``.

    Q is the reduced polynomial at a simple edge root.  The hull checks in
    _solve leave every unknown coefficient strictly above the polygon, so
    ord Q1 = 0 < ord Q0, ord Qj >= 0 and every finite truncation T_j is
    positive: the root of positive order is unique.  Newton steps from Y = 0
    run at precisions v0, 2 v0, 4 v0, ... up to ``target`` (v0 = ord Q0),
    each one evaluated by truncated Horner on the known terms of Q.

    The same steps run in floats when Q has float terms.  Q(Y) vanishes
    below the precision Y has, so a term there is round-off and is dropped
    (exactly, there is none); that keeps each step's bound at the doubled
    precision.  The step Q(Y)/Q'(Y) is a long division that drops round-off
    of exact cancellations term by term, against the magnitudes that Horner
    on |Q_j| at |Y| gives (_float_divide).
    Multiplying by 1/Q'(Y) instead would let that round-off grow with the
    coefficients of 1/Q'(Y), which can grow geometrically where those of
    the root do not.

    The term-by-term recursion would yield the same terms.  It knows Q(Y)
    only below B = min_j (T_j + j v0), so it raises TruncationExhausted when
    B < target, and it returns an exact root (trunc None) only when every Qj
    is exact and Q(Y) vanishes.  Returns None when some Qj, j >= 2, is
    unknown or could lose its known lead at a deeper level: the recursion's
    hull checks then decide, so the caller recurses.
    """
    if any(not c.is_zero() and not c.terms for c in Q[2:]):
        return None
    if not Q[0].terms:
        # the recursion takes Y = 0: exact when Q0 is, else known below T0
        if Q[0].trunc is None:
            return _Branch((), 1, None)
        if Q[0].trunc < target:
            raise TruncationExhausted(
                "constant coefficient is unknown below the Newton polygon"
            )
        return _Branch((), 1, target)
    v0 = Q[0].terms[0][0]
    if v0 >= target:
        return _Branch((), 1, target)
    if v0 <= 0 or Q[1].ord() != 0 or not _lift_keeps_leads(Q, v0):
        # ord Q1 = 0 < ord Q0 fails only at a float root that is too close
        # to another root for its round-off to be told apart
        return None
    bound = None
    for j, c in enumerate(Q):
        if c.trunc is not None:
            bound = _min_bound(bound, c.trunc + j * v0)
    if bound is not None and bound < target:
        raise TruncationExhausted(
            "constant coefficient is unknown below the Newton polygon"
        )
    known = PolyOverSeries(tuple(PuiseuxSeries(c.terms, ram=c.ram) for c in Q))
    deriv = PolyOverSeries(tuple(c.scale(j) for j, c in enumerate(known.coeffs) if j))
    floats = _has_floats(Q)
    if floats:
        known_mag, deriv_mag = (
            PolyOverSeries(tuple(_abs_series(c) for c in f.coeffs)) for f in (known, deriv)
        )
    y = PuiseuxSeries.zero()
    prec = v0  # y agrees with the root below prec
    while prec < target:
        new = min(2 * prec, target)
        gain = new - prec
        residual = _from(known.eval(y, order=new), prec)
        slope = deriv.eval(y, order=gain)
        if floats:
            y_mag = _abs_series(y)
            step = _float_divide(
                residual, known_mag.eval(y_mag, order=new),
                slope, deriv_mag.eval(y_mag, order=gain), new,
            )
        else:
            step = residual * slope.inv(order=gain)
        y = PuiseuxSeries((y - step).terms, ram=y.ram)
        prec = new
    # a root with terms past the target nearly always shows a residual term
    # within v0 of it, which is far cheaper to see than the exact residual
    exact = (
        bound is None
        and not _from(known.eval(y, order=target + v0), target).terms
        and _from(known.eval(y), target).is_zero()
    )
    return _Branch(y.terms, 1, None if exact else target)


def _float_divide(num, num_mag, den, den_mag, order) -> PuiseuxSeries:
    """num / den below t^order in floats, for den with its lead at t^0.

    Long division on the lattice: q_n = (num_n - sum_j den_j q_(n-j)) / den_0.
    ``num_mag`` and ``den_mag`` bound the magnitudes summed into each term
    of num and den.  A q_n within NUMERIC_CHOP of the magnitudes summed into
    it is round-off of an exact zero, and is zero.
    """
    ram = lcm(num.ram, den.ram)
    if not num.terms:
        return PuiseuxSeries((), trunc=order, ram=ram)
    d0 = den.terms[0][1]
    den_mags = dict(den_mag.terms)
    rest = [(int(e * ram), c, den_mags.get(e, abs(c))) for e, c in den.terms[1:]]
    values = {int(e * ram): c for e, c in num.terms}
    mags = {int(e * ram): m for e, m in num_mag.terms}
    start = int(num.terms[0][0] * ram)
    q, q_mag = {}, {}
    for n in range(start, ceil(order * ram)):
        v, m = values.get(n, 0.0), mags.get(n, 0.0)
        for j, c, c_mag in rest:
            if j > n - start:
                break
            if n - j in q:
                v -= c * q[n - j]
                m += c_mag * q_mag[n - j]
        if abs(v) > NUMERIC_CHOP * m:
            q[n], q_mag[n] = v / d0, m / abs(d0)
    terms = tuple((Fraction(n, ram), v) for n, v in sorted(q.items()))
    return PuiseuxSeries._canonical(terms, order, ram)


def _from(f: PuiseuxSeries, e) -> PuiseuxSeries:
    """f without its terms below t^e."""
    if not f.terms or f.terms[0][0] >= e:
        return f
    return PuiseuxSeries._canonical(
        tuple(p for p in f.terms if p[0] >= e), f.trunc, f.ram
    )


def _lift_keeps_leads(Q, v0) -> bool:
    """Does every Qj, j >= 2, keep a known lead (or stay exactly zero) at
    every level of the recursion the lift replaces?

    At level k the recursion holds Q^[j](Y_k), the j-th Taylor coefficient at
    the partial root Y_k (order v0), known below min_{l>=j} (T_l + (l-j) v0).
    When every Q_l, l >= j, is exact it stays exact.  Otherwise it suffices
    that the lead of Qj lies below every other summand Q_l Y_k^(l-j).
    """
    for j in range(2, len(Q)):
        if all(c.trunc is None for c in Q[j:]):
            continue
        lead = Q[j].lead()
        if lead is None:
            return False
        for i, c in enumerate(Q[j + 1:], 1):
            lb = c.ord_lower_bound()
            if lb is not None and lb + i * v0 <= lead[0]:
                return False
    return True


def _cuts_hull_from_left(hull, bound) -> bool:
    """Could a point (0, v) with v >= bound change hull edges at j >= hull[0]?

    Only when (0, bound) lies on or below the extension of the first edge: on
    it, a constant term at t^bound would join that edge's equation.  Above
    it, the extra edge stays left of the known hull.
    """
    if len(hull) < 2:
        return False
    (j1, v1), (j2, v2) = hull[0], hull[1]
    line_at_zero = v1 - j1 * Fraction(v2 - v1, j2 - j1)
    return bound <= line_at_zero


def _not_above_hull(hull, j, v) -> bool:
    """Is the point (j, v) on or below the lower hull?

    An unknown coefficient known only below t^v can move the polygon, or add
    a term to an edge equation, exactly when this holds.
    """
    for (j0, v0), (j1, v1) in zip(hull, hull[1:]):
        if j0 <= j <= j1 and v <= v0 + (v1 - v0) * Fraction(j - j0, j1 - j0):
            return True
    return False


def _lower_hull(pts):
    pts = sorted(pts)
    hull = []
    for p in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return hull


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _transform(coeffs, mu, c, level):
    """Coefficients of P(t, t^mu (c + Y)) / t^level as a polynomial in Y.

    At a float edge root c, or with float coefficients, a float term smaller
    than NUMERIC_CHOP times the sum of the magnitudes that formed it is
    round-off of an exact cancellation (the t^0 terms of Q_0 .. Q_(m-1) at a
    root of multiplicity m are), and is dropped.
    """
    out = _taylor_shift(coeffs, mu, c, level)
    if isinstance(c, float) or _has_floats(coeffs):
        mags = _taylor_shift([_abs_series(f) for f in coeffs], mu, abs(c), level)
        out = [_chop(f, m) for f, m in zip(out, mags)]
    return out


def _taylor_shift(coeffs, mu, c, level):
    d = len(coeffs) - 1
    out = [PuiseuxSeries.zero() for _ in range(d + 1)]
    one = Fraction(1) if isinstance(c, Fraction) else 1.0
    for j, f in enumerate(coeffs):
        if f.is_zero():
            continue
        shifted = f.shift(j * mu - level)
        # (c + Y)^j contributes C(j, i) c^(j-i) to Y^i
        for i in range(j + 1):
            factor = comb(j, i) * (c ** (j - i) if j > i else one)
            out[i] = out[i] + shifted.scale(factor)
    return out


def _abs_series(f: PuiseuxSeries) -> PuiseuxSeries:
    return PuiseuxSeries._canonical(
        tuple((e, abs(v)) for e, v in f.terms), f.trunc, f.ram
    )


def _has_floats(coeffs) -> bool:
    return any(isinstance(v, float) for f in coeffs for _e, v in f.terms)


def _chop(f: PuiseuxSeries, mag: PuiseuxSeries) -> PuiseuxSeries:
    """f without the float terms below NUMERIC_CHOP times their magnitude
    in ``mag``.  An exact term is never round-off."""
    scale = dict(mag.terms)
    kept = tuple(
        (e, v) for e, v in f.terms
        if not isinstance(v, float) or abs(v) > NUMERIC_CHOP * scale.get(e, 0.0)
    )
    return f if len(kept) == len(f.terms) else PuiseuxSeries._canonical(kept, f.trunc, f.ram)


def numeric_difference(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    """a - b, where a float term left by an exact cancellation is zero.

    A float branch substituted into a map leaves such terms wherever the
    result should agree with an exact arc, and the map's own sums leave
    more, formed from terms that a and b no longer show.  So a float term
    is round-off when it lies within NUMERIC_CHOP of the largest term of a
    or b, not only of the terms at its own exponent.
    """
    d = a - b
    if not _has_floats((d,)):
        return d
    tol = NUMERIC_CHOP * max(abs(v) for _e, v in a.terms + b.terms)
    kept = tuple(
        (e, v) for e, v in d.terms if not isinstance(v, float) or abs(v) > tol
    )
    return PuiseuxSeries._canonical(kept, d.trunc, d.ram)


# -- edge polynomial roots ----------------------------------------------------


def _edge_roots(edge, mode):
    """Real nonzero roots (value, multiplicity) of sum a_k z^k from edge data.

    Exact edge data gives exact rational roots and, in numeric mode only,
    float approximations of the irrational ones.  Float edge data (below a
    float root) is taken as the rationals the floats are, and every root of
    it is approximated.
    """
    deg = max(k for k, _ in edge)
    poly = [Fraction(0)] * (deg + 1)
    for k, a in edge:
        poly[k] += Fraction(a)
    floats = any(isinstance(a, float) for _, a in edge)
    if len(edge) == 2 and not floats:
        # a binomial a0 + a_deg z^deg: its real roots are the real deg-th roots
        # of -a0/a_deg, and _rational_roots isolates them when they are irrational
        rad = -poly[0] / poly[deg]
        if deg % 2 == 0 and rad < 0:
            return []
        r = rational_nth_root(rad, deg)
        if r is not None:
            return [(r, 1)] if deg % 2 else [(-r, 1), (r, 1)]
    return _rational_roots(poly, mode, named=not floats)


def _rational_roots(poly, mode, named=True):
    """Real roots (value, multiplicity) of a rational polynomial.

    Musser's squarefree factorization poly = prod a_m^m splits the roots by
    multiplicity m, and Sturm sequences isolate each real root of a_m in an
    interval (_isolate).  _candidates names the one rational that can be the
    root in each interval, and an exact evaluation decides.  A root that is
    not rational makes exact mode raise IrrationalBranch; numeric mode rounds
    it to a float.  With ``named`` false every root is rounded: float edge
    data carry round-off, so their exact roots would mean nothing.
    """
    exact, approx = [], []
    d = _poly_gcd(poly, _poly_derivative(poly))
    c, _r = _poly_divmod(poly, d)  # a_1 a_2 ...
    mult = 1
    while len(c) > 1:
        y = _poly_gcd(d, c)  # a_(mult+1) a_(mult+2) ...
        part, _r = _poly_divmod(c, y)  # a_mult
        ints = _integer_form(part)
        intervals = _isolate(part)
        cands = _candidates(ints, intervals) if named else [None] * len(intervals)
        for iv, cand in zip(intervals, cands):
            if cand is not None:
                exact.append((cand, mult))
            elif mode == "exact":
                raise IrrationalBranch("edge equation has an irrational real root")
            else:
                approx.append((_bisect_root(ints, *iv), mult))
        d, _r = _poly_divmod(d, y)
        c = y
        mult += 1
    return sorted(exact) + approx


def _poly_derivative(p):
    return [c * k for k, c in enumerate(p)][1:] or [Fraction(0)]


def _poly_norm(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_divmod(a, b):
    a = list(a)
    b = _poly_norm(list(b))
    if b == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and _poly_norm(a) != [0]:
        a = _poly_norm(a)
        if len(a) < len(b):
            break
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        q[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a = a[:-1]
    return _poly_norm(q), _poly_norm(a if a else [Fraction(0)])

def _poly_gcd(a, b):
    a, b = _poly_norm(list(a)), _poly_norm(list(b))
    while b != [0]:
        _q, r = _poly_divmod(a, b)
        a, b = b, r
    if a[-1] != 0:
        a = [c / a[-1] for c in a]
    return a


def _integer_form(p):
    """p times the positive lcm of its denominators: integers, same signs."""
    den = 1
    for c in p:
        den = lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in p]


def _at(q, a, b):
    """b^deg(q) q(a/b) for integer q, a and b > 0: an integer of the sign of q(a/b)."""
    acc, power = 0, 1
    for c in reversed(q):
        acc = acc * a + c * power
        power *= b
    return acc


def _sturm_chain(p):
    chain = [p, _poly_norm(_poly_derivative(p))]
    while chain[-1] != [0] and len(chain[-1]) > 1:
        _q, r = _poly_divmod(chain[-2], chain[-1])
        chain.append([-c for c in r])
    if chain[-1] == [0]:
        chain.pop()
    return chain


def _variations(values):
    """Sign changes along a sequence, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _isolate(p):
    """Intervals (a/2^k, b/2^k], as (a, b, k), one around each real root of
    a squarefree p, in increasing order.

    (lo, hi] holds V(lo) - V(hi) roots, V counting the sign changes along
    the Sturm sequence.  Bisection from (-2^e, 2^e], a power of two past
    Cauchy's root bound, keeps every end dyadic, so each sign is that of an
    integer (_at).
    """
    if len(p) <= 1:
        return []
    chain = [_integer_form(q) for q in _sturm_chain(p)]
    e = (2 + max(abs(c) for c in chain[0][:-1]) // abs(chain[0][-1])).bit_length()

    def var(a, k):
        return _variations([_at(q, a, 1 << k) for q in chain])

    out = []
    stack = [(-1 << e, 1 << e, 0, var(-1 << e, 0), var(1 << e, 0))]
    while stack:
        a, b, k, v_a, v_b = stack.pop()
        if v_a - v_b == 1:
            out.append((a, b, k))
        elif v_a - v_b > 1:
            mid, k = a + b, k + 1
            v_mid = var(mid, k)
            stack += [(mid, 2 * b, k, v_mid, v_b), (2 * a, mid, k, v_a, v_mid)]
    return out


def _candidates(ints, intervals):
    """The one rational that can be the root in each interval, or None.

    A rational root r/s of the integer polynomial ``ints`` has s | L, its
    leading coefficient, so it is a multiple of 1/L, and two such lie at
    least 1/L apart.  Bisection narrows the interval below width 1/L, where
    at most one multiple of 1/L is left: the candidate, which an exact
    evaluation decides.
    """
    L = abs(ints[-1])
    out = []
    for a, b, k in intervals:
        at_b = _at(ints, b, 1 << k)
        cand = Fraction(b, 1 << k) if at_b == 0 else None
        while cand is None and (b - a) * L >= 1 << k:
            a, b, k, cand = _halve(ints, a, b, k, at_b)
        if cand is None:
            n = (b * L) >> k  # n/L is the last multiple of 1/L up to b/2^k
            if n << k > a * L and _at(ints, n, L) == 0:
                cand = Fraction(n, L)
        out.append(cand)
    return out


def _halve(ints, a, b, k, at_b):
    """The half of (a/2^k, b/2^k] holding its one root of ``ints``, with that root
    if it is the midpoint; ``at_b`` != 0 has the sign of ``ints`` at b."""
    mid, a, b, k = a + b, 2 * a, 2 * b, k + 1
    at_mid = _at(ints, mid, 1 << k)
    if at_mid == 0:
        return a, b, k, Fraction(mid, 1 << k)
    if (at_mid > 0) == (at_b > 0):
        return a, mid, k, None
    return mid, b, k, None


def _bisect_root(ints, lo, hi, k):
    """The one root of the integer polynomial ``ints`` in (lo/2^k, hi/2^k],
    a simple one, rounded to a float.

    Once lo and hi round to adjacent floats, the side of their midpoint on
    which the root lies decides: bisection alone would never end at a root
    that is that midpoint.
    """
    at_hi = _at(ints, hi, 1 << k)
    # int / int is correctly rounded, as float(Fraction) is
    while at_hi and (a := lo / (1 << k)) != (b := hi / (1 << k)):
        if nextafter(a, b) == b:
            mid = (Fraction(a) + Fraction(b)) / 2
            at_mid = _at(ints, mid.numerator, mid.denominator)
            if not at_mid:
                return float(mid)
            return a if (at_mid > 0) == (at_hi > 0) else b
        lo, hi, k, root = _halve(ints, lo, hi, k, at_hi)
        if root is not None:
            return float(root)
    return hi / (1 << k)


# -- the real-closedness witnesses ---------------------------------------------


def rc_witness_odd(P: PolyOverSeries, target, mode: str = "exact") -> RootBranch:
    """One real root branch of an odd-degree polynomial.

    Prefers a branch of odd multiplicity (a genuine sign crossing).
    """
    if P.degree % 2 == 0:
        raise ValueError(f"degree {P.degree} is not odd")
    branches = np_roots(P, target, mode=mode)  # not empty at odd degree
    return next((b for b in branches if b.multiplicity % 2), branches[0])
