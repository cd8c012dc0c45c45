"""Two topologies on arc space, with continuity and modulus probes.

t-adic closeness of two arcs is the valuation of their difference (bigger is
closer); it is reported on the exponent lattice, never converted to a real
number.  Product-topology convergence of a parametric family is
coefficientwise and is decided exactly on ParamSeries data.

The probes are sampled, seeded and deterministic: trial i draws from a
generator seeded with seed XOR i, so runs are reproducible and trials could
be distributed without changing the report.

The Hoelder and injectivity probes only compare two images, and the first
differing term usually sits far below the working order.  So they evaluate
the images on a precision ladder and stop at the first rung that decides
ord(h(gamma) - h(delta)).  A low rung runs at a relative precision rel on
the grid order/8, 2*order/8, ..., 7*order/8: every inverse and rational
power of the map expands only rel past its own leading exponent, never past
``order`` (``eval_series(..., order, rel)``).  The last rung is the
evaluation at the full order.

Every rung's answer is the full order's.  This is exact, not a heuristic.
Because no expansion passes ``order``, what a node of the map knows at a
rung is a part of what it knows at the full order, and every coefficient
known at a rung is the true one.  So a known leading exponent, an exact
equality, or an error raised from a known leading coefficient is what the
full order gives too.  An evaluation that succeeds at a rung also succeeds
at the full order: a power of a series with no known term succeeds only for
a positive integer exponent, and the ramification of every intermediate
series, which the cap bounds, does not depend on the precision.  A rung
that let an expansion run past ``order`` could know a coefficient that the
full order discards, and so decide a pair that the full order leaves
unresolved.

So the order in which the rungs are tried, and which of them are skipped,
can change the run time but never the answer: a rung either returns the
full order's answer or passes on, and the full order itself always comes
last.  The schedule spends that freedom on t-adic continuity, as a guess
about run time only.  Arcs at distance d = ord(gamma - delta) have images
that agree to about order d, and raising rel raises the bound below which a
rung knows the image difference by about as much.  So a rung whose bound
stays at or below d is not likely to decide.  The first rung is order/8; a
rung that leaves the difference unresolved below a bound B <= d at
precision rel is followed by the least grid rung rel' < order with
B + (rel' - rel) > d.  Without one, after a rung whose bound B > d already
passed the distance and still left the difference unresolved (the guess
has failed for this pair, and stepping up the grid would try every rung),
and after an error at a low rung that is not final, the next rung is the
full order.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .errors import (
    ArcFieldError,
    CounterexampleFound,
    DegenerateData,
    GuardViolation,
    IrrationalLeadingRoot,
    NegativeBaseForEvenRoot,
    RamificationOverflow,
)
from .mapexpr import MapExpr, eval_map_float, eval_map_series
from .param_series import DivergenceWitness, ParamSeries, divergence_witness
from .puiseux import (
    DIVERGES,
    PuiseuxSeries,
    ZeroUpToTruncation,
    _min_bound,
    get_ram_cap,
    render_series,
)
from .qarith import lcm
from .record import Record
from .transport import solve_preimage_arc


def tadic_ord_dist(gamma: Sequence, delta: Sequence):
    """Valuation of gamma - delta: min over components of ord(difference).

    Returns an exponent, or ZeroUpToTruncation(None) when the arcs agree
    exactly, or ZeroUpToTruncation(bound) when they agree on all known
    coefficients below ``bound``.  Each component's difference is read by one
    walk over the two sorted term lists, without building it.
    """
    if len(gamma) != len(delta):
        raise ValueError("arc dimensions differ")
    cap = get_ram_cap()
    known = []
    bounds = []
    for x, y in zip(gamma, delta):
        ram = lcm(x.ram, y.ram)
        if ram > cap:
            raise RamificationOverflow(ram, cap)
        bound = _min_bound(x.trunc, y.trunc)
        lead = _first_difference(x.terms, y.terms, bound)
        if lead is not None:
            known.append(lead)
        elif bound is not None:
            bounds.append(bound)
    if known and (not bounds or min(known) <= min(bounds)):
        return min(known)
    return ZeroUpToTruncation(min(bounds) if bounds else None)


def _first_difference(a, b, bound):
    """Least exponent below ``bound`` where the term lists a, b differ.

    Both lists are sorted with nonzero coefficients, so past their common
    prefix the lesser next exponent carries a nonzero difference.
    """
    i = 0
    while i < len(a) and i < len(b) and a[i] == b[i]:
        i += 1
    rest = [s[i][0] for s in (a, b) if i < len(s)]
    if not rest:
        return None
    e = min(rest)
    return e if bound is None or e < bound else None


class ProductLimit(Record):
    """Outcome of the coefficientwise limit of a parametric family."""

    __slots__ = ("converged", "limit", "component", "witness")
    _defaults = {"component": None, "witness": None}
    converged: bool
    limit: Optional[tuple]  # arc of PuiseuxSeries when converged
    component: Optional[int]
    witness: Optional[DivergenceWitness]


def product_topology_limit(family: Sequence[ParamSeries]) -> ProductLimit:
    """Limit of an arc family as the parameter goes to 0, or its divergence.

    Divergence means some finite t-order coefficient is unbounded, i.e.
    carries a negative parameter power; the witness records the lowest one.
    """
    for i, comp in enumerate(family):
        w = divergence_witness(comp)
        if w is not None:
            return ProductLimit(False, None, component=i, witness=w)
    return ProductLimit(True, tuple(comp.eps_limit() for comp in family))


# -- arc sampling ---------------------------------------------------------------

# the sampler's fixed distribution (see ArcSamplerSpec), the probes' working
# order, the surjective transfer's default target and alpha's denominator bound
_MAX_EXP_NUM, _MAX_DEN, _COEFF_HEIGHT, _MAX_TERMS = 8, 4, 10, 3
_ORDER = Fraction(_MAX_EXP_NUM + 8)
_TARGET = Fraction(_MAX_EXP_NUM + 2)
_ALPHA_MAX_DEN = 24


class ArcSamplerSpec(Record):
    """Distribution of random Puiseux polynomial arcs based at 0.

    Each component draws a denominator q <= 4, then 1 to 3 exponents k/q
    with k <= 8q, and coefficients n/m with 0 < |n| <= 10 and m <= 4.
    ``min_lead_exp`` sets a per-component floor on the exponents (default 1
    everywhere), and ``unit_lead`` makes the leading coefficient +-1, for
    maps that take exact roots of it.
    """

    __slots__ = ("dim", "unit_lead", "min_lead_exp")
    _defaults = {"dim": 1, "unit_lead": False, "min_lead_exp": ()}
    dim: int
    unit_lead: bool
    min_lead_exp: tuple

    def floor_exp(self, i: int) -> Fraction:
        if self.min_lead_exp and i < len(self.min_lead_exp):
            return Fraction(self.min_lead_exp[i])
        return Fraction(1)


def _nonzero_numerator(rng: random.Random) -> int:
    num = 0
    while num == 0:
        num = rng.randint(-_COEFF_HEIGHT, _COEFF_HEIGHT)
    return num


def sample_series(rng: random.Random, spec: ArcSamplerSpec, comp: int) -> PuiseuxSeries:
    q = rng.randint(1, _MAX_DEN)
    lo = spec.floor_exp(comp)
    start = max(math.ceil(lo * q), 0 if lo <= 0 else 1)
    # draw numerators k >= lo*q; sample picks by position, so a range draws
    # the arcs a list of the Fractions k/q would
    ks = range(start, _MAX_EXP_NUM * q + 1)
    count = min(rng.randint(1, _MAX_TERMS), len(ks) or 1)
    if ks:
        exps = [Fraction(k, q) for k in sorted(rng.sample(ks, count))]
    else:
        exps = rng.sample([lo], 1)
    terms = []
    for j, e in enumerate(exps):
        if j == 0 and spec.unit_lead:
            c = Fraction(rng.choice((1, -1)))
        else:
            c = Fraction(_nonzero_numerator(rng), rng.randint(1, 4))
        terms.append((e, c))
    return PuiseuxSeries(terms)


def sample_arc(rng: random.Random, spec: ArcSamplerSpec) -> tuple:
    return tuple(sample_series(rng, spec, i) for i in range(spec.dim))


def canonical_pair(spec: ArcSamplerSpec) -> tuple:
    """The fixed first pair: plain monomial arc and its sign flip."""
    gamma = tuple(
        PuiseuxSeries.t_power(spec.floor_exp(i)) for i in range(spec.dim)
    )
    delta = tuple(-s for s in gamma)
    return gamma, delta


def sample_pair(rng: random.Random, spec: ArcSamplerSpec) -> tuple:
    """A pair of nearby-or-not arcs: sign flip, small perturbation, or fresh."""
    gamma = sample_arc(rng, spec)
    mode = rng.randrange(3)
    if mode == 0:
        delta = tuple(-s for s in gamma)
    elif mode == 1:
        comp = rng.randrange(spec.dim)
        bump_exp = Fraction(_MAX_EXP_NUM + rng.randint(1, 4))
        bump = PuiseuxSeries.t_power(bump_exp, Fraction(_nonzero_numerator(rng)))
        delta = tuple(
            s + bump if i == comp else s for i, s in enumerate(gamma)
        )
    else:
        delta = sample_arc(rng, spec)
    return gamma, delta


# -- image distance by a precision ladder -----------------------------------------

# errors raised only from a known leading coefficient, hence at every order
_FINAL_ERRORS = (IrrationalLeadingRoot, NegativeBaseForEvenRoot)


def _image_ord_dist(h: MapExpr, gamma, delta, order, d):
    """tadic_ord_dist(h(gamma), h(delta)) with both images at working ``order``.

    Returns None where evaluating the images at ``order``, or comparing
    them, raises ArcFieldError.  ``d`` is ord(gamma - delta) of the two
    distinct arcs, which picks the rungs (see the module docstring).
    The images are first evaluated at relative precision order/8
    (``eval_map_series(..., order=order, rel=...)``: every expansion runs
    that far past its own lead, and never past ``order``), and a rung's
    outcome is returned only when it holds at every order: a known leading
    exponent of the difference, exactly equal images, or an error that
    comes from a known leading coefficient.  A difference left unresolved
    below a bound B <= d at precision rel moves to the least rel' = rel +
    k*order/8 below ``order`` with B + (rel' - rel) > d, or else to the
    plain evaluation at ``order``; so do a difference left unresolved below
    a bound B > d and a guard or lead that is merely unknown.  Skipping
    rungs cannot change the answer, because each rung that decides gives
    the full order's answer.
    """
    top = Fraction(order)
    step = top / 8
    rel = step
    while True:
        try:
            img = tadic_ord_dist(
                eval_map_series(h, gamma, order=top, rel=rel),
                eval_map_series(h, delta, order=top, rel=rel),
            )
        except _FINAL_ERRORS:
            return None
        except ArcFieldError:
            if rel is None:
                return None
            rel = None
            continue
        if rel is None or not isinstance(img, ZeroUpToTruncation) or img.trunc is None:
            return img
        # the least grid rung whose bound can pass d; none is left when this
        # rung's bound already passed d
        rel += step * ((d - img.trunc) // step + 1)
        if img.trunc > d or rel >= top:
            rel = None


# -- Hoelder probe ----------------------------------------------------------------


class HolderEstimate(Record):
    """Largest feasible exponent for ord(h(g) - h(d)) >= alpha ord(g - d) + offset."""

    __slots__ = ("alpha", "constant_offset", "sample_count", "discarded", "worst_pair")

    alpha: Fraction
    constant_offset: Fraction
    sample_count: int
    discarded: int
    worst_pair: Tuple[str, str]


def best_rational_below(x: Fraction, max_den: int) -> Fraction:
    """Largest rational with denominator <= max_den that is <= x."""
    return max(Fraction(math.floor(x * q), q) for q in range(1, max_den + 1))


def holder_probe(
    h: MapExpr,
    spec: ArcSamplerSpec,
    trials: int = 100,
    seed: int = 0,
) -> HolderEstimate:
    """Fit the largest ord-inequality exponent over seeded arc pairs.

    Pairs whose images cannot be evaluated (root guards) or whose image
    difference does not resolve at the working order 16 are discarded and
    counted, not fatal.  Images are compared by ``_image_ord_dist``, which
    settles a pair at the first rung that decides it: relative precision 2,
    capped at order 16, then the least even relative precision below 16
    whose rung can see past the arcs' distance, then order 16 itself.  The
    estimate equals the one with every image evaluated at order 16 (see the
    module docstring).  alpha is searched over rationals in (0, 1] with
    denominator at most 24; the offset is the worst slack at that alpha, so
    it is nonnegative by construction.
    """
    ratios = []  # (D/d, d, D, pair)

    def use(gamma, delta, d, img):
        if isinstance(img, ZeroUpToTruncation):
            # equal images: no constraint, infinite ratio; else unresolved
            return img.trunc is None
        ratios.append((Fraction(img) / d, d, img, (gamma, delta)))
        return True

    discarded = _seeded_pairs(h, spec, trials, seed, use)
    if not ratios:
        return HolderEstimate(Fraction(1), Fraction(0), trials, discarded, ("", ""))
    worst = min(ratios, key=lambda r: r[0])
    cap = min(Fraction(1), worst[0])
    alpha = max(Fraction(0), best_rational_below(cap, _ALPHA_MAX_DEN))
    offset = min(D - alpha * d for _r, d, D, _p in ratios)
    rendered = tuple("(" + ", ".join(map(render_series, arc)) + ")" for arc in worst[3])
    return HolderEstimate(alpha, offset, trials, discarded, rendered)


def _seeded_pairs(h, spec, trials, seed, use) -> int:
    """Feed seeded arc pairs to ``use`` until ``trials`` of them count.

    Attempt 0 is ``canonical_pair``, attempt i > 0 ``sample_pair`` on
    Random(seed ^ i), run by ``_trial_loop``.  Identical arcs are skipped.
    A pair whose images do not evaluate at order 16 is discarded, and so is
    one for which ``use(gamma, delta, d, img)`` returns False.  Returns the
    discard count; too few counted pairs raise DegenerateData.
    """

    def attempt(i):
        if i == 0:
            gamma, delta = canonical_pair(spec)
        else:
            gamma, delta = sample_pair(random.Random(seed ^ i), spec)
        d = tadic_ord_dist(gamma, delta)
        if isinstance(d, ZeroUpToTruncation):
            return None  # identical arcs carry no constraint
        img = _image_ord_dist(h, gamma, delta, _ORDER, d)
        return img is not None and use(gamma, delta, d, img)

    return _trial_loop(trials, attempt, "evaluate {} of {} pairs")


def _trial_loop(trials, attempt, what) -> int:
    """Run ``attempt(i)`` for i = 0, 1, ... until ``trials`` attempts count.

    An attempt returns True (counted), False (discarded) or None (skipped).
    At most 50 trials + 10 attempts are made.  Returns the discard count;
    too few counted attempts raise DegenerateData, "could only " + ``what``
    filled with the counted and wanted numbers.
    """
    produced = discarded = 0
    for i in range(50 * trials + 10):
        if produced >= trials:
            break
        outcome = attempt(i)
        if outcome:
            produced += 1
        elif outcome is not None:
            discarded += 1
    if produced < trials:
        raise DegenerateData(f"could only {what.format(produced, trials)} (discarded {discarded})")
    return discarded


# -- power-law lower bound fitting -------------------------------------------------


class LojaFit(Record):
    """Fitted c, r with phi2 >= c * phi1^r - max_violation on samples."""

    __slots__ = ("c", "r", "max_violation", "fit_samples", "validation_samples")

    c: float
    r: float
    max_violation: float
    fit_samples: int
    validation_samples: int


def _sample_box(rng: random.Random, box: Sequence[Tuple[float, float]]):
    return tuple(rng.uniform(lo, hi) for lo, hi in box)


def loja_fit(
    phi1: MapExpr,
    phi2: MapExpr,
    box: Sequence[Tuple[float, float]],
    samples: int = 200,
    seed: int = 0,
) -> LojaFit:
    """Least-squares power law phi2 >= c phi1^r on a box, then shrink c.

    Map outputs are taken in absolute value (the probes compare magnitudes).
    The fit uses samples with phi1 > 0 and phi2 > 0; c is then shrunk so no
    fitted sample violates the bound, and the fit is re-validated on a fresh
    seeded sample set, whose worst violation is reported.
    """
    rng = random.Random(seed)
    pts = [_sample_box(rng, box) for _ in range(samples)]

    def values(points):
        out = []
        for p in points:
            try:
                a = abs(eval_map_float(phi1, p)[0])
                b = abs(eval_map_float(phi2, p)[0])
            except GuardViolation:
                continue
            if a > 0.0:
                out.append((a, b))
        return out

    fit_vals = [(a, b) for a, b in values(pts) if b > 0.0]
    if len(fit_vals) < 2:
        raise DegenerateData("not enough samples with phi1 > 0 for a power-law fit")
    logs = [(math.log(a), math.log(b)) for a, b in fit_vals]
    n = len(logs)
    sx = sum(x for x, _ in logs)
    sy = sum(y for _, y in logs)
    sxx = sum(x * x for x, _ in logs)
    sxy = sum(x * y for x, y in logs)
    denom = n * sxx - sx * sx
    if denom == 0.0:
        raise DegenerateData("degenerate sample spread for the power-law fit")
    r = (n * sxy - sx * sy) / denom
    intercept = (sy - r * sx) / n
    c = math.exp(intercept)
    # shrink c until no fitted sample violates the lower bound
    for a, b in fit_vals:
        bound = b / a**r if a**r > 0 else c
        if c > bound:
            c = bound
    rng2 = random.Random(seed + 1)
    fresh = values(_sample_box(rng2, box) for _ in range(samples))
    worst = 0.0
    for a, b in list(fit_vals) + fresh:
        v = c * a**r - b
        if v > worst:
            worst = v
    return LojaFit(c, r, worst, len(fit_vals), len(fresh))


# -- uniform modulus -----------------------------------------------------------------


def uniform_modulus_probe(
    h: MapExpr,
    box: Sequence[Tuple[float, float]],
    epsilon: float,
    grid_step: float,
) -> float:
    """Grid estimate of inf over x of the pointwise modulus of continuity.

    For each grid point x, the modulus is the smallest distance to a grid
    point a with |h(x) - h(a)| >= epsilon (capped at 1).  Continuity on the
    closed box makes the infimum positive.
    """
    grids = []
    for lo, hi in box:
        n = max(1, round((hi - lo) / grid_step))
        grids.append([lo + (hi - lo) * i / n for i in range(n + 1)])
    points = list(itertools.product(*grids))
    values = [eval_map_float(h, p) for p in points]
    order = sorted(range(len(points)), key=lambda k: points[k])
    best = 1.0
    # sorted sweep: the distance of two points is at least the gap of their
    # first coordinates, so the scan from a point stops once that gap
    # reaches the current best
    for a in range(len(order)):
        ia = order[a]
        for b in range(a + 1, len(order)):
            ib = order[b]
            if points[ib][0] - points[ia][0] >= best:
                break
            dx = _norm_diff(points[ia], points[ib])
            if dx < best and _norm_diff(values[ia], values[ib]) >= epsilon:
                best = dx
    return best


def _norm_diff(u, v) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v)))


# -- transfer checks -------------------------------------------------------------------


class TransferReport(Record):
    __slots__ = ("kind", "trials", "status")
    kind: str
    trials: int
    status: str  # "pass"


def transfer_check(
    kind: str,
    h: Optional[MapExpr],
    spec: ArcSamplerSpec,
    trials: int = 100,
    seed: int = 0,
    target=None,
    mode: str = "exact",
) -> TransferReport:
    """Sampled transfer of injectivity / surjectivity / limit additivity.

    ``injective``: distinct sampled arcs must have distinguishable images at
    order 16; a pair with equal images raises CounterexampleFound carrying
    it.  ``surjective``: sampled arcs of the image (pushforwards of random
    source arcs) must admit preimage arcs whose images agree with them below
    ``target`` (default 10); the preimage solver's residual check is the
    certificate.  ``limit_additive``: arc limits at 0+ add, whenever both exist.
    """
    if kind == "injective":
        return _check_injective(h, spec, trials, seed)
    if kind == "surjective":
        target = _TARGET if target is None else target
        return _check_surjective(h, spec, trials, seed, target, mode)
    if kind == "limit_additive":
        return _check_limit_additive(spec, trials, seed)
    raise ValueError(f"unknown transfer kind {kind!r}")


def _check_injective(h, spec, trials, seed):
    def use(gamma, delta, _d, img):
        _injective_witness(img, gamma, delta)
        # a map symmetric in two coordinates sends an arc and its copy with
        # those coordinates swapped to one image, which independently drawn
        # pairs never try
        for arc in (gamma, delta):
            for swapped in _swapped_copies(arc):
                d = tadic_ord_dist(arc, swapped)
                if not isinstance(d, ZeroUpToTruncation):
                    _injective_witness(_image_ord_dist(h, arc, swapped, _ORDER, d), arc, swapped)
        return True

    _seeded_pairs(h, spec, trials, seed, use)
    return TransferReport("injective", trials, "pass")


def _injective_witness(img, gamma, delta):
    """Raise CounterexampleFound when the images are exactly equal."""
    if isinstance(img, ZeroUpToTruncation) and img.trunc is None:
        witness = tuple(tuple(map(render_series, arc)) for arc in (gamma, delta))
        raise CounterexampleFound("injective", witness)


def _swapped_copies(arc):
    """The arc with two of its coordinates exchanged, for each pair of them."""
    for i in range(len(arc)):
        for j in range(i + 1, len(arc)):
            swapped = list(arc)
            swapped[i], swapped[j] = arc[j], arc[i]
            yield tuple(swapped)


def _check_surjective(h, spec, trials, seed, target, mode):
    order = Fraction(target) + 2

    def attempt(i):
        source = sample_arc(random.Random(seed ^ i), spec)
        try:
            gamma = eval_map_series(h, source, order=order)
        except ArcFieldError:
            return False
        # the solver certifies the image: its arc maps to gamma below target
        solve_preimage_arc(h, gamma, target, mode=mode)
        return True

    _trial_loop(trials, attempt, "push forward {} of {} arcs")
    return TransferReport("surjective", trials, "pass")


def _check_limit_additive(spec, trials, seed):
    zero_floor = ArcSamplerSpec(spec.dim, min_lead_exp=(Fraction(0),) * spec.dim)
    for i in range(trials):
        rng = random.Random(seed ^ i)
        gamma = sample_arc(rng, zero_floor)
        delta = sample_arc(rng, zero_floor)
        for a, b in zip(gamma, delta):
            la, lb = a.limit0(), b.limit0()
            if la is DIVERGES or lb is DIVERGES:
                continue
            ls = (a + b).limit0()
            if ls is DIVERGES or ls != la + lb:
                raise CounterexampleFound(
                    "limit_additive", (render_series(a), render_series(b))
                )
    return TransferReport("limit_additive", trials, "pass")
