"""Independent oracles for the benchmark's ops.

Nothing here imports arcfield.  Expected values are closed forms expanded as
plain sums of binomial terms, sum C(e, k) u^k, with Fraction arithmetic on
{exponent: coefficient} dicts, in the style of the test suite's own oracles,
and reports are read back with a small parser for the canonical series text
instead of the library's parser.  Every check raises OracleError with a short
reason; the caller counts the op as failed.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction

STRUCTURED_KEYS = {"config", "payload", "status", "subcommand"}


class OracleError(Exception):
    """A report disagrees with its independently computed expectation."""


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise OracleError(reason)


# -- truncated power series in t as sparse {exponent: Fraction} dicts -------


def series_mul(a: dict, b: dict, n) -> dict:
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            if i + j < n:
                out[i + j] = out.get(i + j, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def binomial(e: Fraction, u: dict, n) -> dict:
    """(1 + u)^e below t^n as the sum of C(e, k) u^k, for u of positive order.

    Exponents may be rational; the sum ends once u^k has no term below t^n.
    """
    require(all(k > 0 for k in u), "binomial series needs a unit part of positive order")
    out = {0: Fraction(1)}
    power = {0: Fraction(1)}
    c = Fraction(1)  # C(e, k)
    k = 0
    while True:
        k += 1
        power = series_mul(power, u, n)
        if not power:
            return {i: v for i, v in out.items() if v}
        c = c * (e - k + 1) / k
        for i, v in power.items():
            out[i] = out.get(i, 0) + c * v


def dense(d: dict, n: int) -> list:
    return [Fraction(d.get(k, 0)) for k in range(n)]


# -- reading and writing the canonical series text ---------------------------


def parse_number(text: str):
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    if text.lstrip("-").isdigit():
        return Fraction(int(text))
    return float(text)


def parse_exp(text: str) -> Fraction:
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return Fraction(text)


def parse_rendered(text: str):
    """Terms {exponent: coefficient} and the O-bound (None: exact) of a series."""
    if text == "0":
        return {}, None
    tokens = text.split(" ")
    first = tokens[0]
    items = [(-1, first[1:])] if first.startswith("-") else [(1, first)]
    rest = tokens[1:]
    require(len(rest) % 2 == 0, f"malformed series text {text!r}")
    for sign, body in zip(rest[::2], rest[1::2]):
        require(sign in ("+", "-"), f"malformed series text {text!r}")
        items.append((1 if sign == "+" else -1, body))
    terms, trunc = {}, None
    for sign, body in items:
        if body.startswith("O(t^") and body.endswith(")"):
            require(trunc is None and sign == 1, f"misplaced O-term in {text!r}")
            trunc = parse_exp(body[4:-1])
            continue
        require(trunc is None, f"term after the O-term in {text!r}")
        if "*" in body:
            coeff_text, power = body.split("*", 1)
        elif body.startswith("t"):
            coeff_text, power = "1", body
        else:
            coeff_text, power = body, None
        if power is None:
            exp = Fraction(0)
        elif power == "t":
            exp = Fraction(1)
        else:
            require(power.startswith("t^"), f"bad power {power!r} in {text!r}")
            exp = parse_exp(power[2:])
        require(exp not in terms, f"repeated exponent {exp} in {text!r}")
        terms[exp] = sign * parse_number(coeff_text)
    return terms, trunc


def render_number(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def render_exp(e: Fraction) -> str:
    return str(e.numerator) if e.denominator == 1 else f"({e.numerator}/{e.denominator})"


def render_terms(terms: dict) -> str:
    """Canonical input text for an exact series {exponent: coefficient}."""
    parts = []
    for e in sorted(terms):
        c = Fraction(terms[e])
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = render_number(mag)
        else:
            pw = "t" if e == 1 else f"t^{render_exp(Fraction(e))}"
            body = pw if mag == 1 else f"{render_number(mag)}*{pw}"
        if parts:
            parts.append(("- " if c < 0 else "+ ") + body)
        else:
            parts.append(("-" if c < 0 else "") + body)
    return " ".join(parts) if parts else "0"


# -- comparing a reported series with a closed form -------------------------


def check_series(text: str, lead_exp: Fraction, coeffs, min_trunc, what: str,
                 tol=None) -> None:
    """The reported series equals t^lead_exp * sum coeffs[k] t^k below its O-bound.

    ``coeffs`` must reach past the bound.  Exact reports compare exactly;
    with ``tol`` float coefficients may differ by tol * max |coeff|.
    """
    terms, trunc = parse_rendered(text)
    require(trunc is not None, f"{what}: expected a truncated series, got {text[:60]!r}")
    require(trunc >= min_trunc, f"{what}: knowledge bound {trunc} below {min_trunc}")
    n = math.ceil(trunc - lead_exp)
    require(n <= len(coeffs), f"{what}: oracle too short for bound {trunc}")
    scale = max((abs(c) for c in coeffs[:n]), default=1)
    for e, got in terms.items():
        k = e - lead_exp
        require(k.denominator == 1 and 0 <= k < n, f"{what}: unexpected exponent {e}")
    for k in range(n):
        want = coeffs[k]
        got = terms.get(lead_exp + k, 0)
        if tol is None:
            ok = got == want
        else:
            ok = abs(float(got) - float(want)) <= tol * float(scale)
        require(ok, f"{what}: coefficient of t^{lead_exp + k} is {got}, expected {want}")


def check_structured(out: str, subcommand: str, payload_keys) -> dict:
    """Parse one structured report and check its top-level and payload keys."""
    lines = out.splitlines()
    require(len(lines) == 1, f"expected one report line, got {len(lines)}")
    try:
        record = json.loads(lines[0])
    except ValueError as exc:
        raise OracleError(f"report is not JSON: {exc}") from None
    require(set(record) == STRUCTURED_KEYS, f"top-level keys {sorted(record)}")
    require(record["subcommand"] == subcommand, f"subcommand {record['subcommand']!r}")
    missing = set(payload_keys) - set(record["payload"])
    require(not missing, f"payload lacks {sorted(missing)}")
    require(record["config"].get("ram_cap") == 64, "report does not echo ram_cap 64")
    return record


# -- closed forms for the three workloads ------------------------------------


def root_branch_coeffs(q: int, b: int, c: Fraction, sign: int, n: int):
    """sign * (1 + c t^b)^(1/q) below t^n (the branch without its t^(a/q))."""
    return [sign * v for v in dense(binomial(Fraction(1, q), {b: Fraction(c)}, n), n)]


@functools.lru_cache(maxsize=None)
def chart_factor(e: Fraction, b: int, m: int, n: int):
    """R(v)^e below t^n with R = 1 + v^2 / (1 + v^2) and v = b t^m."""
    z = {2 * m: Fraction(b) ** 2}
    w = series_mul(z, binomial(Fraction(-1), z, n), n)
    return dense(binomial(e, w, n), n)


@functools.lru_cache(maxsize=None)
def stretch_first_component(a: int, b: int, m: int, n: int):
    """x Q^(1/4) / (a t) on the arc (a t, b t^m) for m >= 2.

    Q = 1 + y^2/(x^2 + y^2) = 1 + z/(1 + z) with z = (b/a)^2 t^(2m-2).
    """
    z = {2 * m - 2: Fraction(b, a) ** 2}
    w = series_mul(z, binomial(Fraction(-1), z, n), n)
    return dense(binomial(Fraction(1, 4), w, n), n)


@functools.lru_cache(maxsize=None)
def pushforward_rows(order: int):
    """Rows of the first image component e t F1(t/e), F1 = R(v)^(1/4).

    F1(v) = sum f_k v^k gives the row t^(k+1) -> {1 - k: f_k}.
    """
    f1 = chart_factor(Fraction(1, 4), 1, 1, order)
    return [
        {"t_exp": str(k + 1), "coeffs": {str(1 - k): render_number(f)}}
        for k, f in enumerate(f1)
        if f and k + 1 < order
    ]


def best_rational_below(x: Fraction, max_den: int = 24) -> Fraction:
    """Largest rational with denominator at most max_den that is <= x."""
    return max(Fraction(math.floor(x * q), q) for q in range(1, max_den + 1))


def unit_lead_power(terms: dict, e: Fraction, bound) -> dict:
    """g^e below t^bound for an exact arc g whose leading coefficient is +-1."""
    v = min(terms)
    c = terms[v]
    require(c in (1, -1) and (c == 1 or e.denominator % 2 == 1),
            f"no real power {e} of leading coefficient {c}")
    lead = -1 if c == -1 and e.numerator % 2 else 1
    u = {k - v: x / c for k, x in terms.items() if k != v}
    return {k + e * v: lead * x for k, x in binomial(e, u, bound - e * v).items()}


def holder_ratio(e: Fraction, pair, bound) -> Fraction:
    """ord(g^e - d^e) / ord(g - d) for a reported pair of one-component arcs."""
    arcs = []
    for text in pair:
        require(text.startswith("(") and text.endswith(")"), f"arc text {text!r}")
        terms, trunc = parse_rendered(text[1:-1])
        require(trunc is None and terms, f"sampled arc {text!r} is not exact")
        arcs.append(terms)
    g, d = arcs
    images = [unit_lead_power(a, e, bound) for a in arcs]

    def order(a, b):
        diff = [k for k in set(a) | set(b) if a.get(k, 0) != b.get(k, 0)]
        require(diff, "pair does not separate")
        return min(diff)

    return order(*images) / order(g, d)
