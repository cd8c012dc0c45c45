"""The benchmark's workloads: seeded op lists with an oracle per op.

An op is one ``arcfield`` CLI invocation (argv without the program name),
the exit code it must return, and a check of its structured report.  Every
op ends in ``--emit structured --ram-cap 64``.  A workload is generated pass
by pass.  Each pass has a fixed structure (which maps, families, t-orders and
forms appear, and how often) and the seed draws the rest (probe seeds, signs
of coefficients, exact factors, eval arcs), so that different seeds give
different inputs of the same cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Tuple

from oracles import (
    best_rational_below,
    chart_factor,
    check_series,
    holder_ratio,
    parse_exp,
    parse_rendered,
    pushforward_rows,
    render_number,
    render_terms,
    require,
    root_branch_coeffs,
    stretch_first_component,
)

COMMON = ("--emit", "structured", "--ram-cap", "64")

STRETCH = "(x*(1 + y^2/(x^2+y^2))^(1/4), y)"
LIFT_U = "(u*(1 + v^2/(1 + v^2))^(1/4), v*(1 + v^2/(1 + v^2))^(-1/4))"


@dataclass(frozen=True)
class Op:
    argv: Tuple[str, ...]
    expect_rc: int
    subcommand: str
    payload_keys: Tuple[str, ...]
    check: Callable[[dict], None]
    scale_key: str  # row label for the scaling table


# -- holder -------------------------------------------------------------------

# One stretch-map probe costs from 70 to 600 ms at the same trial count,
# depending on the ramification of the arcs it happens to sample; across seeds
# that alone moves a run's throughput by more than 15%.  So the stretch ops of
# every pass are this fixed list of (argv, trials, probe seed), and the seed
# varies the op order and the probes of the cheap maps.
STRETCH_OPS = tuple(
    (name, argv, trials, probe_seed)
    for (name, argv), seeds in (
        (("stretch", ("--map", STRETCH)), (1, 2, 3, 4)),
        (("stretch-min-ord", ("--map", STRETCH, "--min-ord", "1,2")), (5, 6, 7, 8)),
    )
    for trials, probe_seed in zip((10, 13, 16, 20), seeds)
)
# (name, argv, p/q) for x^(p/q): the exact t-adic Hoelder exponent is p/q
POWER_MAPS = (
    ("cbrt", ("--map", "x^(1/3)", "--vars", "x", "--unit-lead"), Fraction(1, 3)),
    ("sqrt", ("--map", "x^(1/2)", "--vars", "x", "--unit-lead"), Fraction(1, 2)),
)
UMBRELLA = ("umbrella", ("--map", "(u, u*v, v^2)", "--vars", "u,v"))
CHEAP_TRIALS = (10, 20)
HOLDER_KEYS = ("alpha", "constant_offset", "sample_count", "discarded", "worst_pair")
HOLDER_ORDER = 16  # the probe's working order for the default arc sampler


def _holder_check(map_argv, trials: int, power=None):
    """alpha is 1 for the stretch map and the umbrella (t-adic Lipschitz maps).

    For x^(p/q) it is recomputed from the reported worst pair: at least p/q,
    and exactly p/q for x^(1/3), whose fixed first pair (t, -t) attains it.
    """
    def check(record):
        p = record["payload"]
        require(record["status"] == "pass", f"status {record['status']}")
        require(p["kind"] == "holder" and p["map"] == map_argv[1], "echoed map differs")
        require(p["sample_count"] == trials, f"sample_count {p['sample_count']} != {trials}")
        require(isinstance(p["discarded"], int) and p["discarded"] >= 0, "bad discard count")
        require(len(p["worst_pair"]) == 2, "worst_pair is not a pair")
        if power is None or p["worst_pair"] == ["", ""]:  # no pair constrained alpha
            expected = Fraction(1)
        else:
            ratio = holder_ratio(power, p["worst_pair"], HOLDER_ORDER + 1)
            expected = best_rational_below(min(Fraction(1), ratio))
            require(expected >= power, f"worst pair ratio {ratio} below {power}")
            if power == Fraction(1, 3):
                require(expected == power, f"alpha {expected} for x^(1/3)")
        require(p["alpha"] == render_number(expected), f"alpha {p['alpha']}, expected {expected}")
    return check


def holder_pass(rng: random.Random, _index: int):
    ops = []
    for name, map_argv, trials, probe_seed in STRETCH_OPS:
        argv = ("probe", "holder") + map_argv + (
            "--trials", str(trials), "--seed", str(probe_seed)) + COMMON
        ops.append(Op(argv, 0, "probe", HOLDER_KEYS, _holder_check(map_argv, trials),
                      f"holder {name} trials={trials}"))
    for name, map_argv, power in POWER_MAPS + (UMBRELLA + (None,),):
        for trials in CHEAP_TRIALS:
            argv = ("probe", "holder") + map_argv + (
                "--trials", str(trials), "--seed", str(rng.randrange(1, 1 << 20))) + COMMON
            ops.append(Op(argv, 0, "probe", HOLDER_KEYS,
                          _holder_check(map_argv, trials, power),
                          f"holder {name} trials={trials}"))
    rng.shuffle(ops)
    return ops


# -- roots --------------------------------------------------------------------

# X^q - t^a (1 + c t^b) with c = +-|c|: every branch is t^(a/q) (1 + c t^b)^(1/q)
# times a q-th root of unity.  The table is capped: higher orders or taller
# coefficients (for example c = 1/2 at order 16, or order 24 on the first
# family) end in a false IrrationalBranch from the divisor search.
ROOT_FAMILIES = (
    (3, 1, 1, Fraction(1)),
    (2, 1, 1, Fraction(1)),
    (2, 1, 1, Fraction(2)),
    (3, 2, 1, Fraction(3)),
    (2, 3, 1, Fraction(1)),
    (3, 1, 2, Fraction(1, 3)),
    (3, 2, 2, Fraction(2)),
)
# Every pass runs each family at each order, in a fixed form, so runs with
# different seeds do the same amount of work; the seed draws the sign of c
# and the exact factors' roots.
ROOT_ORDERS = (8, 10, 12, 14, 16)
ROOT_FORMS = ("plain", "linear", "quadratic")
# numeric mode drops the real branch of X^3 - t^2 (1 +- 3t) from order 14 on
NUMERIC_ORDERS = (8, 12)
ROOT_KEYS = ("poly", "degree", "branches", "note")

# (map, vars, trials, extra argv).  x^3 + x^2 runs at residual order 8, not
# the default 10: at 10, about one probe seed in 200 hits the same false
# IrrationalBranch in the preimage solver.  x^2 keeps the default, because at
# order 8 about one seed in four ends in "no real preimage arc matches".
TRANSPORT_MAPS = (
    ("x^2", "x", 10, ()),
    ("x^3 + x^2", "x", 5, ("--target", "8")),
    ("(u, u*v)", "u,v", 10, ()),
)
TRANSPORT_KEYS = ("kind", "transfer_kind", "trials")


def _poly_mul(a, b):
    """Product of polynomials in X whose coefficients are {t-exponent: coeff}."""
    out = [dict() for _ in range(len(a) + len(b) - 1)]
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            for e1, c1 in ca.items():
                for e2, c2 in cb.items():
                    out[i + j][e1 + e2] = out[i + j].get(e1 + e2, 0) + c1 * c2
    return out


def _roots_check(q, a, b, c, exact_roots, order, numeric):
    lead = Fraction(a, q)
    signs = (1, -1) if q == 2 else (1,)

    def check(record):
        p = record["payload"]
        require(record["status"] == "pass", f"status {record['status']}")
        got = {}
        for br in p["branches"]:
            terms, _trunc = parse_rendered(br["series"])
            require(terms, "branch with no known term")
            e0 = min(terms)
            key = (e0, terms[e0] > 0)
            require(key not in got, f"two branches lead with {key}")
            got[key] = br
        want = {(lead, s > 0) for s in signs} | {(Fraction(m), k > 0) for k, m in exact_roots}
        require(set(got) == want, f"branch leads {sorted(got)}, expected {sorted(want)}")
        for k, m in exact_roots:
            br = got[(Fraction(m), k > 0)]
            require(br["series"] == render_terms({m: k}), f"exact branch {br['series']!r}")
            require(br["certified_order"] is None, "exact branch without a zero residual")
            require(br["multiplicity"] == 1 and br["exactness"] == "exact", "exact branch flags")
        for s in signs:
            br = got[(lead, s > 0)]
            require(br["multiplicity"] == 1, "closed-form branch is not simple")
            require(br["exactness"] == ("numeric" if numeric else "exact"), "exactness flag")
            require(br["certified_order"] is not None
                    and parse_exp(br["certified_order"]) >= order, "certificate below t-order")
            n = 4 * order + 8
            check_series(br["series"], lead, root_branch_coeffs(q, b, c, s, n),
                         order - (q - 1) * lead, "branch", tol=1e-6 if numeric else None)
    return check


def _roots_op(rng, family, order, form, numeric=False):
    q, a, b, c_abs = family
    c = c_abs * rng.choice((1, -1))
    poly = [{a: Fraction(-1), a + b: -c}] + [{}] * (q - 1) + [{0: Fraction(1)}]
    exact_roots = []
    if form != "plain":
        k, m = rng.choice((1, 2, 3)), rng.choice((1, 2))
        if form == "linear":
            k *= rng.choice((1, -1))
            poly = _poly_mul(poly, [{m: Fraction(-k)}, {0: Fraction(1)}])
            exact_roots = [(k, m)]
        else:
            poly = _poly_mul(poly, [{2 * m: Fraction(-k * k)}, {}, {0: Fraction(1)}])
            exact_roots = [(k, m), (-k, m)]
    text = "; ".join(render_terms(coeff) for coeff in poly)
    argv = ("roots", text, "--t-order", str(order))
    if numeric:
        argv += ("--mode", "numeric")
    label = "roots-numeric" if numeric else "roots"
    return Op(argv + COMMON, 0, "roots", ROOT_KEYS,
              _roots_check(q, a, b, c, exact_roots, order, numeric),
              f"{label} order={order}")


def _transport_check(trials):
    def check(record):
        p = record["payload"]
        require(record["status"] == "pass", f"status {record['status']}")
        require(p["kind"] == "transport" and p["transfer_kind"] == "surjective", "kind")
        require(p["trials"] == trials, f"trials {p['trials']} != {trials}")
    return check


def roots_pass(rng: random.Random, _index: int):
    ops = []
    for i, family in enumerate(ROOT_FAMILIES):
        for j, order in enumerate(ROOT_ORDERS):
            ops.append(_roots_op(rng, family, order, ROOT_FORMS[(i + j) % len(ROOT_FORMS)]))
    for order in NUMERIC_ORDERS:
        ops.append(_roots_op(rng, rng.choice(ROOT_FAMILIES), order, "plain", numeric=True))
    for map_text, names, trials, extra in TRANSPORT_MAPS:
        argv = ("probe", "transport", "--transfer-kind", "surjective", "--map", map_text,
                "--vars", names, "--trials", str(trials)) + extra + (
                "--seed", str(rng.randrange(1, 1 << 20))) + COMMON
        ops.append(Op(argv, 0, "probe", TRANSPORT_KEYS, _transport_check(trials),
                      f"transport {map_text} trials={trials}"))
    rng.shuffle(ops)
    return ops


# -- pushforward --------------------------------------------------------------

PUSH_ORDERS = (8, 16, 32, 48, 64, 96)
COUNTEREXAMPLE_KEYS = (
    "chart", "lifted", "image_first", "image_second", "image_first_rows",
    "image_second_rows", "divergence_witness", "factor_product", "monotone_bound",
    "jacobian_at_origin",
)
EVAL_KEYS = ("arc", "image")


def _counterexample_check(order):
    def check(record):
        p = record["payload"]
        require(record["status"] == "witness", f"status {record['status']}")
        first = p["image_first_rows"]
        by_exp = {row["t_exp"]: row["coeffs"] for row in first}
        require(by_exp.get("3") == {"-1": "1/4"}, f"t^3 row {by_exp.get('3')}")
        require(by_exp.get("5") == {"-3": "-11/32"}, f"t^5 row {by_exp.get('5')}")
        require(first == pushforward_rows(order), "first image rows differ from e t R(t/e)^(1/4)")
        require(p["image_second_rows"] == [{"t_exp": "2", "coeffs": {"0": "1"}}],
                "second image is not t^2")
        require(p["image_first"].endswith(f"O(t^{order})"), "first image bound")
        w = p["divergence_witness"]
        require(w is not None, "no divergence witness")
        require((w["t_exp"], w["eps_exp"], w["coeff"]) == ("3", -1, "1/4"),
                f"witness {w}")
        require(p["factor_product"]["is_one"] is True, "factor product is not one")
        require(p["monotone_bound"]["ok"] is True, "monotone bound check failed")
        require(p["jacobian_at_origin"]["ok"] is True, "Jacobian at the origin")
    return check


def _eval_check(lift, a, b, m, order):
    n = 2 * order + 8

    def check(record):
        p = record["payload"]
        require(record["status"] == "pass", f"status {record['status']}")
        arc = [render_terms({1: a}), render_terms({m: b})]
        require(p["arc"] == arc, f"echoed arc {p['arc']}")
        first, second = p["image"]
        if lift:
            f1 = chart_factor(Fraction(1, 4), b, m, n)
            f2 = chart_factor(Fraction(-1, 4), b, m, n)
            check_series(first, Fraction(1), [a * x for x in f1], order, "lift u")
            check_series(second, Fraction(m), [b * x for x in f2], order, "lift v")
        else:
            f = stretch_first_component(a, b, m, n)
            check_series(first, Fraction(1), [a * x for x in f], order, "stretch x")
            require(second == arc[1], f"stretch moved y: {second!r}")
    return check


def pushforward_pass(rng: random.Random, index: int):
    ops = []
    for order in PUSH_ORDERS:
        argv = ("counterexample", "--t-order", str(order)) + COMMON
        ops.append(Op(argv, 2, "counterexample", COUNTEREXAMPLE_KEYS,
                      _counterexample_check(order), f"counterexample order={order}"))
    # three evals per pass, cycling through the orders and alternating maps, so
    # counterexample ops stay the majority and hold the median
    for j in range(3):
        order = PUSH_ORDERS[(3 * index + j) % len(PUSH_ORDERS)]
        lift = (index + j) % 2 == 1
        a = rng.choice((1, 2, 3)) * rng.choice((1, -1))
        b = rng.choice((1, 2, 3, 5)) * rng.choice((1, -1))
        m = rng.choice((1, 2, 3)) if lift else rng.choice((2, 3))
        arc = f"{render_terms({1: a})}; {render_terms({m: b})}"
        map_argv = (LIFT_U, "--vars", "u,v") if lift else (STRETCH,)
        argv = ("eval",) + map_argv + ("--arc", arc, "--t-order", str(order)) + COMMON
        label = "eval-lift" if lift else "eval-stretch"
        ops.append(Op(argv, 0, "eval", EVAL_KEYS, _eval_check(lift, a, b, m, order),
                      f"{label} order={order}"))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"holder": holder_pass, "roots": roots_pass, "pushforward": pushforward_pass}


class Plan:
    """The op stream of one workload: pass i is drawn from Random(f"{seed}:{i}")."""

    def __init__(self, workload: str, seed: int):
        self.make_pass = WORKLOADS[workload]
        self.seed = seed

    def pass_ops(self, index: int):
        return self.make_pass(random.Random(f"{self.seed}:{index}"), index)
