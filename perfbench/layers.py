"""Per-layer tracing, installed from outside the package.

Each layer entry point is replaced, where its caller looks it up, by a
wrapper that times the call and counts work derived from its arguments and
result, so the counts repeat exactly on the same op list.  Calls at layer
boundaries also record a span (name, start, end, parent span, op id); hot
kernel calls only add to per-name totals.  Every wrapped call, span or not,
is a frame for self time: a frame's self time is its duration minus the
durations of the wrapped calls directly inside it.  ``install`` returns a
function that puts every original back, and the entry points it could not
find (a renamed function shows up there instead of silently counting zero).
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

perf_counter = time.perf_counter

# evaluation errors that discard a sampled pair; any other class counts as "other"
DISCARD_CLASSES = ("GuardViolation", "IrrationalLeadingRoot", "Unresolved", "other")


class Tracer:
    def __init__(self):
        self.stack = []  # child-time accumulators of the open frames
        self.span_stack = []  # ids of the open spans
        self.spans = []  # [id, name, start, end, parent, op]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)  # outermost call of each name only
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.peaks = defaultdict(int)
        self.depth = defaultdict(int)
        self.op = None
        self.evals_since_distance = 0  # holder pairs: source vs image distance

    def wrap(self, name, fn, span=False, before=None, after=None, on_error=None):
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            child = [0.0]
            tracer.stack.append(child)
            tracer.depth[name] += 1
            record = None
            if span:
                parent = tracer.span_stack[-1] if tracer.span_stack else None
                record = [len(tracer.spans), name, 0.0, 0.0, parent, tracer.op]
                tracer.spans.append(record)
                tracer.span_stack.append(record[0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                end = perf_counter()
                dur = end - start
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][0] += dur
                tracer.self_s[name] += dur - child[0]
                tracer.calls[name] += 1
                tracer.depth[name] -= 1
                if tracer.depth[name] == 0:
                    tracer.total_s[name] += dur
                if record is not None:
                    record[2], record[3] = start, end
                    tracer.span_stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced


# -- count hooks: arguments and results only -----------------------------------


def _peak_ram(tracer, ram):
    if ram > tracer.peaks["puiseux.peak_ram"]:
        tracer.peaks["puiseux.peak_ram"] = ram


def _init_ram(tracer, args, _kwargs, _result):
    _peak_ram(tracer, args[0].ram)


def _result_ram(tracer, _args, _kwargs, result):
    _peak_ram(tracer, result.ram)


def _mul_pairs(series_type):
    def before(tracer, args, _kwargs):
        other = args[1]
        n = len(other.terms) if isinstance(other, series_type) else 1
        tracer.counts["puiseux.mul.term_pairs"] += len(args[0].terms) * n
    return before


def _lattice_points(counter):
    """Points n = 0 .. ceil(rel * ram) - 1 of the truncated binomial recurrence."""
    def before(tracer, args, kwargs):
        u = args[0]
        rel = args[2] if len(args) > 2 else kwargs.get("rel")
        if rel is not None and not u.is_zero():
            tracer.counts[counter] += max(0, math.ceil(rel * u.ram))
    return before


def _solve_depth(tracer, args, kwargs):
    depth = args[4] if len(args) > 4 else kwargs["depth"]
    if depth > tracer.peaks["newton.solve.max_depth"]:
        tracer.peaks["newton.solve.max_depth"] = depth


def _candidates(tracer, _args, _kwargs, result):
    tracer.counts["newton.root_candidates"] += len(result)


def _attempt(tracer, _args, _kwargs):
    tracer.counts["topology.pairs_attempted"] += 1
    tracer.evals_since_distance = 0


def _eval_ok(tracer, _args, _kwargs, _result):
    tracer.evals_since_distance += 1


def _eval_failed(tracer, exc):
    name = type(exc).__name__
    bucket = name if name in DISCARD_CLASSES else "other"
    tracer.counts[f"topology.discard.{bucket}"] += 1
    tracer.evals_since_distance = 0


def _distance(zero_type):
    """Classify the holder loop's distance calls by what preceded them.

    After two successful image evaluations the call measures the images; an
    image difference that is zero only up to truncation is a discarded pair.
    Otherwise it measures the source pair; zero there means identical arcs.
    """
    def after(tracer, _args, _kwargs, result):
        if isinstance(result, zero_type):
            if tracer.evals_since_distance >= 2:
                if result.trunc is not None:
                    tracer.counts["topology.discard.Unresolved"] += 1
            else:
                tracer.counts["topology.pairs_identical"] += 1
        tracer.evals_since_distance = 0
    return after


def install(tracer, cli, puiseux, param_series, newton, topology, transport):
    """Wrap every layer entry point; returns (restore, names that were missing)."""
    ps, pm = puiseux.PuiseuxSeries, param_series.ParamSeries
    span = {"span": True}
    table = [
        (ps, "__init__", "puiseux.init", {"after": _init_ram}),
        (ps, "__mul__", "puiseux.mul", {"before": _mul_pairs(ps), "after": _result_ram}),
        (ps, "__rmul__", "puiseux.mul", {"before": _mul_pairs(ps), "after": _result_ram}),
        (ps, "pow_rational", "puiseux.pow_rational", {}),
        (ps, "compose", "puiseux.compose", {}),
        (puiseux, "_binomial_sum", "puiseux.binomial_sum",
         {"before": _lattice_points("puiseux.binomial_lattice_points"),
          "after": _result_ram}),
        (puiseux, "rational_pow", "qarith.rational_pow", {}),
        (param_series, "rational_pow", "qarith.rational_pow", {}),
        (pm, "__mul__", "param_series.mul", {}),
        (pm, "__rmul__", "param_series.mul", {}),
        (pm, "pow_rational", "param_series.pow_rational", {}),
        (param_series, "_param_binomial", "param_series.binomial",
         {"before": _lattice_points("param_series.binomial_lattice_points")}),
        (topology, "eval_map_series", "mapexpr.eval_map_series",
         {"span": True, "after": _eval_ok, "on_error": _eval_failed}),
        (transport, "eval_map_series", "mapexpr.eval_map_series", span),
        (topology, "sample_pair", "topology.sample", {"before": _attempt}),
        (topology, "canonical_pair", "topology.sample", {"before": _attempt}),
        (topology, "tadic_ord_dist", "topology.tadic_ord_dist",
         {"after": _distance(puiseux.ZeroUpToTruncation)}),
        (cli, "holder_probe", "topology.holder_probe", span),
        (cli, "transfer_check", "topology.transfer_check", span),
        (cli, "np_roots", "newton.np_roots", span),
        (transport, "np_roots", "newton.np_roots", span),
        (newton, "_solve", "newton.solve", {"span": True, "before": _solve_depth}),
        (newton, "_rational_roots", "newton.rational_roots", {}),
        (newton, "_candidates", "newton.candidates", {"after": _candidates}),
        (newton, "_certify", "newton.certify", span),
        (topology, "solve_preimage_arc", "transport.solve_preimage_arc", span),
        (cli, "counterexample_pushforward", "transport.counterexample_pushforward", span),
        (transport, "chart_factor_series", "transport.chart_factor_series", span),
        (cli, "monotone_bound_check", "transport.monotone_bound_check", span),
        (cli, "parse_map", "parser", span),
        (cli, "parse_poly", "parser", span),
        (cli, "parse_series", "parser", span),
        (cli, "run_counterexample", "cli.handler", span),
        (cli, "run_probe", "cli.handler", span),
        (cli, "run_roots", "cli.handler", span),
        (cli, "run_eval", "cli.handler", span),
        (cli, "emit", "cli.emit", span),
    ]
    saved, missing = [], []
    for owner, attr, name, opts in table:
        original = vars(owner).get(attr)
        if original is None:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            continue
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, **opts))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        for owner, attr, original in saved:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {attr}")

    return restore, missing


def layer_metrics(tracer):
    """Per-layer totals over every traced op, keyed by metric name."""
    calls, total, own, counts = tracer.calls, tracer.total_s, tracer.self_s, tracer.counts
    discarded = sum(counts[f"topology.discard.{c}"] for c in DISCARD_CLASSES)
    attempted = counts["topology.pairs_attempted"]
    useful = attempted - discarded - counts["topology.pairs_identical"]
    out = {
        "puiseux.init.calls": calls["puiseux.init"],
        "puiseux.init.s": total["puiseux.init"],
        "puiseux.mul.calls": calls["puiseux.mul"],
        "puiseux.mul.term_pairs": counts["puiseux.mul.term_pairs"],
        "puiseux.mul.s": total["puiseux.mul"],
        "puiseux.pow_rational.calls": calls["puiseux.pow_rational"],
        "puiseux.binomial_sum.calls": calls["puiseux.binomial_sum"],
        "puiseux.binomial_lattice_points": counts["puiseux.binomial_lattice_points"],
        "puiseux.binomial_sum.s": total["puiseux.binomial_sum"],
        "puiseux.compose.s": total["puiseux.compose"],
        "puiseux.peak_ram": tracer.peaks["puiseux.peak_ram"],
        "puiseux.self_s": sum(v for k, v in own.items() if k.startswith("puiseux.")),
        "qarith.rational_pow.calls": calls["qarith.rational_pow"],
        "qarith.rational_pow.s": total["qarith.rational_pow"],
        "mapexpr.eval_map_series.calls": calls["mapexpr.eval_map_series"],
        "mapexpr.eval_map_series.self_s": own["mapexpr.eval_map_series"],
        "topology.pairs_attempted": attempted,
        "topology.pairs_discarded": discarded,
        "topology.useful_ratio": useful / attempted if attempted else 0.0,
        "topology.sample.s": total["topology.sample"],
        "topology.tadic_ord_dist.s": total["topology.tadic_ord_dist"],
        "topology.holder_probe.self_s": own["topology.holder_probe"],
        "newton.np_roots.calls": calls["newton.np_roots"],
        "newton.np_roots.self_s": own["newton.np_roots"],
        "newton.solve.levels": calls["newton.solve"],
        "newton.solve.max_depth": tracer.peaks["newton.solve.max_depth"],
        "newton.rational_roots.calls": calls["newton.rational_roots"],
        "newton.rational_roots.s": total["newton.rational_roots"],
        "newton.root_candidates": counts["newton.root_candidates"],
        "newton.certify.s": total["newton.certify"],
        "transport.solve_preimage_arc.calls": calls["transport.solve_preimage_arc"],
        "transport.solve_preimage_arc.self_s": own["transport.solve_preimage_arc"],
        "transport.counterexample_pushforward.self_s":
            own["transport.counterexample_pushforward"],
        "transport.chart_factor_series.s": total["transport.chart_factor_series"],
        "transport.monotone_bound_check.s": total["transport.monotone_bound_check"],
        "param_series.mul.calls": calls["param_series.mul"],
        "param_series.mul.s": total["param_series.mul"],
        "param_series.pow_rational.calls": calls["param_series.pow_rational"],
        "param_series.pow_rational.s": total["param_series.pow_rational"],
        "param_series.binomial_lattice_points": counts["param_series.binomial_lattice_points"],
        "parser.calls": calls["parser"],
        "parser.s": total["parser"],
        "cli.main.self_s": own["cli.main"],
        "cli.handler.self_s": own["cli.handler"],
        "cli.emit.s": total["cli.emit"],
    }
    for c in DISCARD_CLASSES:
        out[f"topology.discard.{c}"] = counts[f"topology.discard.{c}"]
    return out
