import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_series

from arcfield.errors import (
    ArcFieldError,
    CounterexampleFound,
    DegenerateData,
    IrrationalLeadingRoot,
    NegativeBaseForEvenRoot,
    RamificationOverflow,
    ZeroUpToTruncationError,
)
from arcfield import topology
from arcfield.mapexpr import Pow, eval_map_float, eval_map_series, map_expr, variables
from arcfield.param_series import ParamSeries
from arcfield.parser import parse_map
from arcfield.puiseux import (
    DIVERGES,
    PuiseuxSeries,
    ZeroUpToTruncation,
    get_ram_cap,
    render_series,
    set_ram_cap,
)
from arcfield.topology import (
    ArcSamplerSpec,
    HolderEstimate,
    _image_ord_dist,
    _trial_loop,
    best_rational_below,
    canonical_pair,
    holder_probe,
    loja_fit,
    product_topology_limit,
    sample_arc,
    sample_pair,
    tadic_ord_dist,
    transfer_check,
    uniform_modulus_probe,
)
from arcfield.transport import counterexample_pushforward, radial_stretch_map, whitney_umbrella_map

F = Fraction
t = PuiseuxSeries.t_power(1)


class TestTadicDistance:
    def test_basic(self):
        assert tadic_ord_dist((t,), (t + PuiseuxSeries.t_power(5),)) == 5

    def test_equal_arcs(self):
        d = tadic_ord_dist((t, t * t), (t, t * t))
        assert d == ZeroUpToTruncation(None)

    def test_componentwise_min(self):
        a = (t, t * t)
        b = (t + PuiseuxSeries.t_power(3), t * t)
        assert tadic_ord_dist(a, b) == 3

    def test_mixed_decidability(self):
        unknown5 = PuiseuxSeries.unknown(5)
        # a known difference below every unknown bound decides the minimum
        a = (t, t * t)
        b = (t + PuiseuxSeries.t_power(2), t * t + unknown5)
        assert tadic_ord_dist(a, b) == 2
        # an unknown bound below the known difference leaves it open
        c = (t + PuiseuxSeries.t_power(6), t * t + PuiseuxSeries.unknown(3))
        d = tadic_ord_dist(a, c)
        assert d == ZeroUpToTruncation(F(3))

    def test_ultrametric_triangle(self):
        rng = random.Random(61)
        for _ in range(100):
            x = random_series(rng, allow_trunc=False, min_exp=F(0))
            y = random_series(rng, allow_trunc=False, min_exp=F(0))
            z = random_series(rng, allow_trunc=False, min_exp=F(0))
            dxy = tadic_ord_dist((x,), (y,))
            dyz = tadic_ord_dist((y,), (z,))
            dxz = tadic_ord_dist((x,), (z,))
            vals = []
            for d in (dxy, dyz, dxz):
                vals.append(F(10**9) if isinstance(d, ZeroUpToTruncation) else d)
            assert vals[2] >= min(vals[0], vals[1])


def subtraction_ord_dist(gamma, delta):
    """tadic_ord_dist as first written: build each difference series, read it."""
    if len(gamma) != len(delta):
        raise ValueError("arc dimensions differ")
    known, bounds, exact = [], [], True
    for d in (x - y for x, y in zip(gamma, delta)):
        lead = d.lead()
        if lead is not None:
            known.append(lead[0])
            exact = False
        elif not d.is_zero():
            bounds.append(d.trunc)
            exact = False
    if exact:
        return ZeroUpToTruncation(None)
    if known and (not bounds or min(known) <= min(bounds)):
        return min(known)
    return ZeroUpToTruncation(min(bounds) if bounds else None)


def outcome(f, *args):
    try:
        return f(*args)
    except (RamificationOverflow, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def arc_pairs(draw):
    """Arcs of mixed ramification, some components truncated, and a partner
    that shares, perturbs, truncates or replaces each component."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    dim = draw(st.integers(1, 3))
    gamma, delta = [], []
    for _ in range(dim):
        x = random_series(rng, max_den=6, min_exp=F(0))
        mode = rng.randrange(4)
        if mode == 0:
            y = x
        elif mode == 1:
            y = x + random_series(rng, max_den=6, min_exp=F(0))
        elif mode == 2:
            y = x.truncate(F(rng.randint(0, 24), rng.randint(1, 4)))
        else:
            y = random_series(rng, max_den=6, min_exp=F(0))
        gamma.append(x)
        delta.append(y)
    return tuple(gamma), tuple(delta)


class TestMergedDistance:
    @settings(max_examples=300, deadline=None)
    @given(arc_pairs(), st.integers(0, 30))
    def test_matches_the_subtraction(self, pair, slack):
        gamma, delta = pair
        # a cap no lower than any one ramification, as when the arcs were
        # built under it, so only the lcm of a pair can pass it
        cap = max(s.ram for s in gamma + delta) + slack
        before = get_ram_cap()
        set_ram_cap(cap)
        try:
            assert outcome(tadic_ord_dist, gamma, delta) == outcome(
                subtraction_ord_dist, gamma, delta
            )
        finally:
            set_ram_cap(before)

    def test_lcm_past_the_cap_raises_as_the_subtraction_does(self):
        gamma = (PuiseuxSeries.t_power(F(1, 3)),)
        delta = (PuiseuxSeries.t_power(F(1, 4)),)
        before = get_ram_cap()
        set_ram_cap(8)
        try:
            got = outcome(tadic_ord_dist, gamma, delta)
            assert got == (RamificationOverflow, "ramification 12 exceeds cap 8")
            assert got == outcome(subtraction_ord_dist, gamma, delta)
        finally:
            set_ram_cap(before)

    def test_dimension_mismatch(self):
        assert outcome(tadic_ord_dist, (t,), (t, t)) == (ValueError, "arc dimensions differ")


class TestProductLimit:
    def test_parabola_family_converges(self):
        fam = (ParamSeries.eps_t(1, 1), ParamSeries.eps_t(0, 2))
        res = product_topology_limit(fam)
        assert res.converged
        assert res.limit[0].is_zero() or not res.limit[0].terms
        assert res.limit[1] == t * t

    def test_image_family_diverges(self):
        res = product_topology_limit(counterexample_pushforward(5).image)
        assert not res.converged
        assert res.component == 0
        assert (res.witness.t_exp, res.witness.eps_exp) == (F(3), -1)

    def test_quadratic_parameter_converges(self):
        fam = (ParamSeries.t_power(1, 1) + ParamSeries.eps_t(2, 2),)
        res = product_topology_limit(fam)
        assert res.converged
        assert res.limit[0] == t


class TestHolder:
    def test_identity(self):
        x, = variables("x")
        est = holder_probe(map_expr((x,), ("x",)), ArcSamplerSpec(dim=1), trials=50, seed=0)
        assert est.alpha == 1
        assert est.constant_offset == 0

    def test_pair_whose_image_difference_overflows_is_discarded(self):
        # subtracting the two images at the full order exceeds the ram cap
        h = parse_map("x^(1/11) + (x^2 + x^(5/2))^(5/3)", ("x",))
        with pytest.raises(DegenerateData, match=r"could only evaluate 10 of 30 pairs \(discarded 1500\)"):
            holder_probe(h, ArcSamplerSpec(dim=1), trials=30, seed=1)

    def test_cube_root_worst_pair(self):
        x, = variables("x")
        est = holder_probe(
            map_expr((Pow(x, F(1, 3)),), ("x",)),
            ArcSamplerSpec(dim=1, unit_lead=True),
            trials=100,
            seed=0,
        )
        assert est.alpha == F(1, 3)
        assert est.constant_offset >= 0

    def test_inequality_holds_at_fitted_alpha(self):
        # the reported alpha and offset satisfy the ord inequality on the set
        x, = variables("x")
        m = map_expr((Pow(x, F(1, 3)),), ("x",))
        spec = ArcSamplerSpec(dim=1, unit_lead=True)
        est = holder_probe(m, spec, trials=60, seed=4)
        from arcfield.mapexpr import eval_map_series
        from arcfield.topology import sample_pair

        checked = 0
        i = 0
        while checked < 60:
            if i == 0:
                g, d = canonical_pair(spec)
            else:
                g, d = sample_pair(random.Random(4 ^ i), spec)
            i += 1
            dist = tadic_ord_dist(g, d)
            if isinstance(dist, ZeroUpToTruncation):
                continue
            try:
                img = tadic_ord_dist(
                    eval_map_series(m, g, order=16), eval_map_series(m, d, order=16)
                )
            except Exception:
                continue
            checked += 1
            if isinstance(img, ZeroUpToTruncation):
                continue
            assert img >= est.alpha * dist + est.constant_offset

    def test_trial_loop_counts_discards_but_not_skips(self):
        # attempt i returns True (counted), False (discarded) or None (skipped)
        seen = []

        def attempt(i):
            seen.append(i)
            return (None, False, True, None, True)[i] if i < 5 else True

        assert _trial_loop(2, attempt, "evaluate {} of {} pairs") == 1
        assert seen == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("outcome, discarded", [(False, 160), (None, 0)])
    def test_trial_loop_gives_up_after_50_trials_plus_10_attempts(self, outcome, discarded):
        seen = []

        def attempt(i):
            seen.append(i)
            return outcome

        message = rf"could only push forward 0 of 3 arcs \(discarded {discarded}\)"
        with pytest.raises(DegenerateData, match=message):
            _trial_loop(3, attempt, "push forward {} of {} arcs")
        assert seen == list(range(160))

    def test_determinism(self):
        phi = radial_stretch_map()
        spec = ArcSamplerSpec(dim=2, min_lead_exp=(F(1), F(2)))
        a = holder_probe(phi, spec, trials=30, seed=9)
        b = holder_probe(phi, spec, trials=30, seed=9)
        assert a == b

    def test_best_rational_below(self):
        assert best_rational_below(F(1, 3), 24) == F(1, 3)
        # brute-force oracle over all admissible fractions
        x = F(355, 1130)
        brute = max(
            F(p, q)
            for q in range(1, 25)
            for p in range(0, q + 1)
            if F(p, q) <= x
        )
        assert best_rational_below(x, 24) == brute == F(5, 16)
        assert best_rational_below(F(1), 24) == 1


class TestLoja:
    def test_exact_square_root_law(self):
        x, = variables("x")
        fit = loja_fit(
            map_expr((x * x,), ("x",)),
            map_expr((x,), ("x",)),
            [(-1.0, 1.0)],
            samples=200,
            seed=1,
        )
        assert abs(fit.r - 0.5) < 1e-9
        assert abs(fit.c - 1.0) < 1e-9
        assert fit.max_violation <= 1e-9

    def test_cubic_synthetic(self):
        x, = variables("x")
        fit = loja_fit(
            map_expr((x,), ("x",)),
            map_expr((x * x * x,), ("x",)),
            [(-1.0, 1.0)],
            samples=200,
            seed=1,
        )
        assert abs(fit.r - 3.0) <= 0.15
        assert fit.max_violation <= 1e-9

    def test_identity_law(self):
        x, = variables("x")
        fit = loja_fit(
            map_expr((x,), ("x",)),
            map_expr((x,), ("x",)),
            [(0.0, 1.0)],
            samples=150,
            seed=2,
        )
        assert abs(fit.r - 1.0) < 1e-9
        assert abs(fit.c - 1.0) < 1e-9

    def test_degenerate(self):
        x, = variables("x")
        zero = map_expr((x - x,), ("x",))
        with pytest.raises(DegenerateData):
            loja_fit(zero, zero, [(0.0, 1.0)], samples=50, seed=3)


class TestUniformModulus:
    def test_identity(self):
        x, = variables("x")
        r = uniform_modulus_probe(map_expr((x,), ("x",)), [(0.0, 1.0)], 0.1, 0.01)
        assert abs(r - 0.1) <= 0.02

    def test_square_small_box(self):
        x, = variables("x")
        r = uniform_modulus_probe(map_expr((x * x,), ("x",)), [(0.0, 1.0)], 0.1, 0.005)
        assert abs(r - 0.05) <= 0.01

    def test_square_large_box_shrinks_but_positive(self):
        x, = variables("x")
        r = uniform_modulus_probe(map_expr((x * x,), ("x",)), [(0.0, 10.0)], 0.1, 0.002)
        assert abs(r - 0.005) <= 0.002
        assert r > 0



def two_path_modulus(h, box, epsilon, grid_step):
    """The uniform modulus as first written: a sorted sweep on 1-D boxes and a
    scan of every pair of grid points on boxes of more dimensions."""
    norm = lambda u, v: math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v)))
    grids = []
    for lo, hi in box:
        n = max(1, round((hi - lo) / grid_step))
        grids.append([lo + (hi - lo) * i / n for i in range(n + 1)])
    points = [()]
    for axis in grids:
        points = [p + (x,) for p in points for x in axis]
    values = [eval_map_float(h, p) for p in points]
    best = 1.0
    if len(box) == 1:
        order = sorted(range(len(points)), key=lambda k: points[k])
        for a in range(len(order)):
            for b in range(a + 1, len(order)):
                dx = abs(points[order[b]][0] - points[order[a]][0])
                if dx >= best:
                    break
                if norm(values[order[a]], values[order[b]]) >= epsilon:
                    best = dx
                    break
        return best
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            dx = norm(points[a], points[b])
            if dx < best and norm(values[a], values[b]) >= epsilon:
                best = dx
    return best


MODULUS_MAPS = {
    1: ["x", "x^2", "x^3 - x", "(x, 3*x^2)"],
    2: ["x*y", "(x - y^2, x^3)", "x^2 + 5*y^2", "(y, 2*x)"],
    3: ["x*y*z", "(x + z^2, y^3)", "x - 4*y + z^3"],
}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.data())
def test_sorted_sweep_matches_the_two_path_modulus(dim, data):
    names = ("x", "y", "z")[:dim]
    h = parse_map(data.draw(st.sampled_from(MODULUS_MAPS[dim])), names)
    box = []
    for _ in range(dim):
        lo = data.draw(st.floats(-3, 2))
        box.append((lo, lo + data.draw(st.floats(0.05, 3))))
    # at most about 200, 20 and 7 grid steps along the widest axis, so that
    # the reference's scan of every pair stays quick
    widest = max(hi - lo for lo, hi in box)
    step = widest / data.draw(st.floats(1, {1: 200, 2: 20, 3: 7}[dim]))
    epsilon = data.draw(st.sampled_from([0.01, 0.1, 0.5, 2.0, 10.0]))
    got = uniform_modulus_probe(h, box, epsilon, step)
    assert got == two_path_modulus(h, box, epsilon, step)


class TestTransfer:
    def test_injective_cube(self):
        x, = variables("x")
        rep = transfer_check(
            "injective", map_expr((x * x * x,), ("x",)), ArcSamplerSpec(dim=1),
            trials=100, seed=3,
        )
        assert rep.status == "pass" and rep.trials == 100

    def test_square_has_witness(self):
        x, = variables("x")
        with pytest.raises(CounterexampleFound) as info:
            transfer_check(
                "injective", map_expr((x * x,), ("x",)), ArcSamplerSpec(dim=1),
                trials=100, seed=3,
            )
        assert info.value.witness == (("t",), ("-t",))

    @pytest.mark.parametrize("text, trials, evaluated", [
        ("(-1 - x^2)^(1/2)", 5, 0),  # negative base under an even root: no pair at all
        ("x^(1/11) + (x^2 + x^(5/2))^(5/3)", 12, 4),  # ramification beyond the cap
    ])
    def test_injective_too_few_pairs_is_degenerate(self, text, trials, evaluated):
        with pytest.raises(DegenerateData, match=f"could only evaluate {evaluated} of {trials}"):
            transfer_check("injective", parse_map(text, ("x",)), ArcSamplerSpec(dim=1),
                           trials=trials, seed=1)

    def test_injective_pair_whose_image_difference_overflows_is_discarded(self):
        h = parse_map("x^(1/11) + (x^2 + x^(5/2))^(5/3)", ("x",))
        with pytest.raises(DegenerateData, match=r"could only evaluate 10 of 30 pairs \(discarded 1500\)"):
            transfer_check("injective", h, ArcSamplerSpec(dim=1), trials=30, seed=1)

    def test_injective_tries_coordinate_swapped_arcs(self):
        # (x + y, x*y) is symmetric: an arc and its swapped copy share an image
        h = parse_map("(x + y, x*y)", ("x", "y"))
        with pytest.raises(CounterexampleFound) as info:
            transfer_check("injective", h, ArcSamplerSpec(dim=2), trials=100, seed=0)
        gamma, delta = info.value.witness
        assert gamma != delta and delta == gamma[::-1]

    def test_injective_map_without_symmetry_still_passes(self):
        h = parse_map("(x, y^3)", ("x", "y"))
        rep = transfer_check("injective", h, ArcSamplerSpec(dim=2), trials=30, seed=0)
        assert rep.status == "pass" and rep.trials == 30

    def test_surjective_too_few_arcs_is_degenerate(self):
        # a negative base under an even root: no sampled arc has an image
        h = parse_map("(-1 - x^2)^(1/2)", ("x",))
        with pytest.raises(DegenerateData, match="could only push forward 0 of 5 arcs"):
            transfer_check("surjective", h, ArcSamplerSpec(dim=1), trials=5, seed=1)

    def test_whitney_surjective(self):
        rep = transfer_check(
            "surjective", whitney_umbrella_map(), ArcSamplerSpec(dim=2),
            trials=25, seed=5, target=F(6),
        )
        assert rep.status == "pass"

    def test_surjective_evaluates_the_map_once_per_attempt(self, monkeypatch):
        # the preimage solver certifies its arc's image, so the sampled arc's
        # push forward is the only evaluation left to the transfer loop
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return eval_map_series(*args, **kwargs)

        monkeypatch.setattr(topology, "eval_map_series", counted)
        rep = transfer_check(
            "surjective", whitney_umbrella_map(), ArcSamplerSpec(dim=2), trials=6, seed=5,
        )
        assert rep.status == "pass" and len(calls) == 6

    def test_limit_additive(self):
        rep = transfer_check(
            "limit_additive", None, ArcSamplerSpec(dim=1), trials=100, seed=7
        )
        assert rep.status == "pass"

    def test_bounded_image_spot_check(self):
        # the stretch scales x by at most 2^(1/4) and fixes y, so arcs based
        # in the box [-1, 1]^2 push forward to arcs based within 2 of 0
        rng = random.Random(11)
        spec = ArcSamplerSpec(dim=2, min_lead_exp=(F(0), F(0)))
        checked = 0
        for _ in range(2000):
            gamma = sample_arc(rng, spec)
            if any(c.limit0() is DIVERGES or abs(c.limit0()) > 1 for c in gamma):
                continue
            try:
                image = eval_map_series(radial_stretch_map(), gamma, order=F(12))
            except ArcFieldError:
                continue
            for comp in image:
                assert comp.lead() is None or comp.lead()[0] >= 0
                assert abs(float(comp.limit0())) <= 2.0
            checked += 1
            if checked == 40:
                break
        assert checked == 40


class TestTopologiesConsistency:
    def test_counterexample_dichotomy(self):
        # sources converge in the product topology, images do not, yet the
        # t-adic distances of images stay controlled by those of sources
        result = counterexample_pushforward(7)
        fam = (ParamSeries.eps_t(1, 1), ParamSeries.eps_t(0, 2))
        assert product_topology_limit(fam).converged
        assert not product_topology_limit(result.image).converged
        for e1, e2 in ((F(1, 2), F(1, 3)), (F(1, 10), F(1, 11))):
            src1 = tuple(c.at_eps(e1) for c in fam)
            src2 = tuple(c.at_eps(e2) for c in fam)
            img1 = tuple(c.at_eps(e1) for c in result.image)
            img2 = tuple(c.at_eps(e2) for c in result.image)
            d_src = tadic_ord_dist(src1, src2)
            d_img = tadic_ord_dist(img1, img2)
            assert not isinstance(d_src, ZeroUpToTruncation)
            assert not isinstance(d_img, ZeroUpToTruncation)
            # alpha = 1 with zero offset observed on this family
            assert d_img >= d_src


# -- the precision ladder against full-order references ------------------------------

ORDER = F(16)  # the probes' working order for the default sampler
CHEAP_MAPS = {
    "cbrt": (parse_map("x^(1/3)", ("x",)), ArcSamplerSpec(dim=1, unit_lead=True)),
    "cbrt-any-lead": (parse_map("x^(1/3)", ("x",)), ArcSamplerSpec(dim=1)),
    "sqrt": (parse_map("x^(1/2)", ("x",)), ArcSamplerSpec(dim=1, unit_lead=True)),
    "sqrt-any-lead": (parse_map("x^(1/2)", ("x",)), ArcSamplerSpec(dim=1)),
    "umbrella": (whitney_umbrella_map(), ArcSamplerSpec(dim=2)),
    # the lead of the root's argument is unknown at low orders:
    # ZeroUpToTruncationError
    "unknown-lead": (parse_map("((1/(1+x)) - 1 + x)^(1/2)", ("x",)), ArcSamplerSpec(dim=1)),
    # an odd root of the same unknown lead: ZeroUpToTruncationError at low
    # orders, IrrationalLeadingRoot at the working order on (t, -t)
    "unknown-lead-cbrt": (
        parse_map("x + (2*x^3*((1/(1+x)) - 1 + x))^(1/3)", ("x",)),
        ArcSamplerSpec(dim=1),
    ),
}
# denominators whose lead lies far above the order of the quotient, where an
# inverse at an absolute cap expands much further than the quotient needs
DENOMINATOR_MAPS = {
    "xy-over-square-norm": (parse_map("(x*y/(x^2+y^2), y)", ("x", "y")), ArcSamplerSpec(dim=2)),
    "x-over-square": (parse_map("x/(x^2 + x^3)", ("x",)), ArcSamplerSpec(dim=1)),
    "root-over-sum": (parse_map("(x*y)^(1/2)/(x + y)", ("x", "y")), ArcSamplerSpec(dim=2)),
}
STRETCH_MAPS = {
    "stretch": (radial_stretch_map(), ArcSamplerSpec(dim=2)),
    "stretch-min-ord": (radial_stretch_map(), ArcSamplerSpec(dim=2, min_lead_exp=(F(1), F(2)))),
}


def full_order_dist(h, gamma, delta, order):
    """Reference: both images at the working order, None when an image or
    their difference fails."""
    try:
        return tadic_ord_dist(
            eval_map_series(h, gamma, order=order), eval_map_series(h, delta, order=order)
        )
    except ArcFieldError:
        return None


def full_order_holder(h, spec, trials, seed, order=ORDER, alpha_max_den=24):
    """The Hoelder loop with every image evaluated at the working order."""
    ratios, discarded, produced, i, attempts = [], 0, 0, 0, 0
    while produced < trials and attempts < 50 * trials + 10:
        attempts += 1
        if i == 0:
            gamma, delta = canonical_pair(spec)
        else:
            gamma, delta = sample_pair(random.Random(seed ^ i), spec)
        i += 1
        d = tadic_ord_dist(gamma, delta)
        if isinstance(d, ZeroUpToTruncation):
            continue
        img = full_order_dist(h, gamma, delta, order)
        if img is None or (isinstance(img, ZeroUpToTruncation) and img.trunc is not None):
            discarded += 1
            continue
        produced += 1
        if not isinstance(img, ZeroUpToTruncation):
            ratios.append((F(img) / d, d, img, (gamma, delta)))
    assert produced == trials
    if not ratios:
        return HolderEstimate(F(1), F(0), produced, discarded, ("", ""))
    worst = min(ratios, key=lambda r: r[0])
    alpha = max(F(0), best_rational_below(min(F(1), worst[0]), alpha_max_den))
    offset = min(D - alpha * d for _r, d, D, _p in ratios)
    pair = tuple("(" + ", ".join(render_series(s) for s in arc) + ")" for arc in worst[3])
    return HolderEstimate(alpha, offset, produced, discarded, pair)


def record_rungs(monkeypatch):
    """Make topology's eval_map_series record the ``rel`` of every call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["rel"])
        return eval_map_series(*args, **kwargs)

    monkeypatch.setattr(topology, "eval_map_series", counted)
    return calls


def _check_ladder(maps, name, seed):
    h, spec = maps[name]
    gamma, delta = sample_pair(random.Random(seed), spec)
    d = tadic_ord_dist(gamma, delta)
    if isinstance(d, ZeroUpToTruncation):
        return  # identical arcs: the probes never compare their images
    assert _image_ord_dist(h, gamma, delta, ORDER, d) == full_order_dist(h, gamma, delta, ORDER)


class TestImageLadder:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(CHEAP_MAPS)), st.integers(0, 2**32))
    def test_matches_full_order(self, name, seed):
        _check_ladder(CHEAP_MAPS, name, seed)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(sorted(STRETCH_MAPS)), st.integers(0, 2**32))
    def test_matches_full_order_stretch(self, name, seed):
        _check_ladder(STRETCH_MAPS, name, seed)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(DENOMINATOR_MAPS)), st.integers(0, 2**32))
    def test_matches_full_order_high_valuation_denominator(self, name, seed):
        _check_ladder(DENOMINATOR_MAPS, name, seed)

    @pytest.mark.parametrize("name", sorted(DENOMINATOR_MAPS))
    def test_holder_probe_matches_full_order_high_valuation_denominator(self, name):
        h, spec = DENOMINATOR_MAPS[name]
        for seed in (1, 9173):
            assert holder_probe(h, spec, trials=12, seed=seed) == full_order_holder(
                h, spec, 12, seed
            )

    def test_relative_rung_never_knows_past_the_order(self):
        # the root's lead t^(17/2) plus rel 8 lies past the order 16, so the
        # rung must stop at the order, where the full order stops
        h = parse_map("(x^17 + x^(35/2))^(1/2)", ("x",))
        image, = eval_map_series(h, (t,), order=ORDER, rel=ORDER / 2)
        assert image.trunc == ORDER
        assert image == eval_map_series(h, (t,), order=ORDER)[0]

    def test_relative_rung_expands_from_the_lead(self):
        # 1/(x^2 + x^3) at t has lead t^-2: rel 2 knows it below t^0
        h = parse_map("x/(x^2 + x^3)", ("x",))
        image, = eval_map_series(h, (t,), order=ORDER, rel=F(2))
        assert image.trunc == 1
        assert image == eval_map_series(h, (t,), order=ORDER)[0].truncate(1)

    def test_retries_past_an_unknown_lead(self, monkeypatch):
        h, _spec = CHEAP_MAPS["unknown-lead"]
        gamma, delta = (t,), (t.scale(2),)
        with pytest.raises(ZeroUpToTruncationError):
            eval_map_series(h, gamma, order=ORDER / 8)
        assert full_order_dist(h, gamma, delta, ORDER) == 1
        calls = record_rungs(monkeypatch)
        assert _image_ord_dist(h, gamma, delta, ORDER, tadic_ord_dist(gamma, delta)) == 1
        # gamma's image fails at order/8, so delta's is not evaluated there,
        # and the retry is at the full order
        assert calls == [ORDER / 8, None, None]

    @pytest.mark.parametrize("h, bump, low, rungs", [
        # a bump at t^9 in x: the order/8 rung knows the difference only
        # below t^3, so the least grid rung with 3 + (rel - 2) > 9 is rel 10
        (radial_stretch_map(), (9, 2), 3, [ORDER / 8, F(10)]),
        # d = 3, and the order/8 rung knows the images agree below t^4: no
        # grid rung is expected to do better, so the full order comes next
        (parse_map("x^2*(1 + x)^(1/2)", ("x",)), (3, 1), 4, [ORDER / 8, None]),
    ], ids=["jump", "past-the-distance"])
    def test_an_unresolved_rung_moves_to_the_rung_the_distance_picks(
        self, monkeypatch, h, bump, low, rungs
    ):
        d, dim = bump
        gamma = (t, t**2)[:dim]
        delta = (t + PuiseuxSeries.t_power(d),) + gamma[1:]
        assert tadic_ord_dist(gamma, delta) == d
        assert tadic_ord_dist(*(eval_map_series(h, arc, order=ORDER, rel=ORDER / 8)
                                for arc in (gamma, delta))) == ZeroUpToTruncation(low)
        answer = full_order_dist(h, gamma, delta, ORDER)
        calls = record_rungs(monkeypatch)
        assert _image_ord_dist(h, gamma, delta, ORDER, d) == answer
        assert calls[::2] == calls[1::2] == rungs

    def test_known_negative_lead_under_an_even_root_is_final(self, monkeypatch):
        h = parse_map("(x - x^2)^(1/2)", ("x",))
        gamma, delta = (-t,), (t,)
        calls = record_rungs(monkeypatch)
        assert _image_ord_dist(h, gamma, delta, ORDER, tadic_ord_dist(gamma, delta)) is None
        assert calls == [ORDER / 8]
        assert full_order_dist(h, gamma, delta, ORDER) is None
        for rung in (ORDER / 8, None):
            with pytest.raises(NegativeBaseForEvenRoot):
                eval_map_series(h, gamma, order=ORDER, rel=rung)

    def test_odd_root_of_an_unknown_lead_is_not_final(self):
        h, _spec = CHEAP_MAPS["unknown-lead-cbrt"]
        gamma, delta = (t,), (-t,)
        with pytest.raises(IrrationalLeadingRoot):
            eval_map_series(h, gamma, order=ORDER)
        assert _image_ord_dist(h, gamma, delta, ORDER, tadic_ord_dist(gamma, delta)) is None
        assert full_order_dist(h, gamma, delta, ORDER) is None

    def test_ramification_overflow_does_not_depend_on_the_order(self):
        # at t the 5/3 power has ramification 6 even where all of its terms
        # lie beyond the order, as at order/8; with x^(1/11) that exceeds
        # the cap of 64, while the difference with the image of t^2 has a
        # known lead t^(1/11)
        h = parse_map("x^(1/11) + (x^2 + x^(5/2))^(5/3)", ("x",))
        gamma, delta = (t,), (t**2,)
        for rung in (ORDER / 8, ORDER):
            with pytest.raises(RamificationOverflow):
                eval_map_series(h, gamma, order=rung)
        assert _image_ord_dist(h, gamma, delta, ORDER, tadic_ord_dist(gamma, delta)) is None
        assert full_order_dist(h, gamma, delta, ORDER) is None

    def test_exact_equality_is_final(self):
        x, = variables("x")
        square = map_expr((x * x,), ("x",))
        d = tadic_ord_dist((t,), (-t,))
        assert _image_ord_dist(square, (t,), (-t,), ORDER, d) == ZeroUpToTruncation(None)

    @pytest.mark.parametrize("name", sorted(CHEAP_MAPS))
    def test_holder_probe_matches_full_order(self, name):
        h, spec = CHEAP_MAPS[name]
        for seed in (1, 9173):
            assert holder_probe(h, spec, trials=30, seed=seed) == full_order_holder(
                h, spec, 30, seed
            )

    @pytest.mark.parametrize("name", sorted(STRETCH_MAPS))
    def test_holder_probe_matches_full_order_stretch(self, name):
        h, spec = STRETCH_MAPS[name]
        assert holder_probe(h, spec, trials=8, seed=3) == full_order_holder(h, spec, 8, 3)


# the sampler's fixed distribution: exponents k/q with q <= 4 and k <= 8q,
# at most 3 terms, coefficient numerators of height at most 10
MAX_EXP_NUM, MAX_DEN, MAX_TERMS, COEFF_HEIGHT = 8, 4, 3, 10


def reference_sample_series(rng, spec, comp):
    """The sampler as first written: every lattice exponent built as a Fraction."""
    q = rng.randint(1, MAX_DEN)
    lo = spec.floor_exp(comp)
    start = max(math.ceil(lo * q), 0 if lo <= 0 else 1)
    lattice = [F(k, q) for k in range(start, MAX_EXP_NUM * q + 1) if F(k, q) >= lo]
    if not lattice:
        lattice = [lo]
    count = min(rng.randint(1, MAX_TERMS), len(lattice))
    exps = sorted(rng.sample(lattice, count))
    terms = []
    for j, e in enumerate(exps):
        if j == 0 and spec.unit_lead:
            c = F(rng.choice((1, -1)))
        else:
            num = 0
            while num == 0:
                num = rng.randint(-COEFF_HEIGHT, COEFF_HEIGHT)
            c = F(num, rng.randint(1, 4))
        terms.append((e, c))
    return PuiseuxSeries(terms)


SAMPLER_SPECS = [
    ArcSamplerSpec(dim=1),
    ArcSamplerSpec(dim=1, unit_lead=True),
    ArcSamplerSpec(dim=2, min_lead_exp=(F(1), F(2))),
    ArcSamplerSpec(dim=2, min_lead_exp=(F(0), F(-1, 2))),
    # floors above the exponent lattice (9 > MAX_EXP_NUM): the floor itself is drawn
    ArcSamplerSpec(dim=2, min_lead_exp=(F(1, 3), F(9)), unit_lead=True),
    ArcSamplerSpec(dim=3, min_lead_exp=(F(17, 2), F(33, 4), F(1, 4))),
    # fewer lattice points than drawn terms: the floor 8 leaves one, 15/2 one to three
    ArcSamplerSpec(dim=2, min_lead_exp=(F(8), F(15, 2)), unit_lead=True),
]


@pytest.mark.parametrize("spec", SAMPLER_SPECS, ids=range(len(SAMPLER_SPECS)))
def test_sample_series_equals_the_fraction_lattice_sampler(spec):
    from arcfield.topology import sample_series

    for seed in range(500):
        rng, ref = random.Random(seed), random.Random(seed)
        for comp in range(spec.dim):
            got = sample_series(rng, spec, comp)
            want = reference_sample_series(ref, spec, comp)
            assert got == want and got.ram == want.ram
        assert rng.getstate() == ref.getstate()
