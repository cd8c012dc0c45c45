"""Command-line front end: deterministic runs, machine-readable reports.

Each subcommand's handler takes the parsed arguments and returns a payload
and a status in {pass, fail, witness}.  ``main`` alone builds the report
from them: subcommand echo, configuration echo, payload and status.
``--emit structured`` prints it as one canonical JSON object (sorted keys,
no timestamps), so a fixed command line is byte-reproducible.  Exit codes:
0 pass, 1 error, 2 witness or counterexample found.

Any argument value of the form ``@path`` is replaced by the contents of
that file.

``main`` builds its argument parser once per process, on its first call, and
every later call parses with the same one.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from . import puiseux
from .errors import (
    ArcFieldError,
    ConfigError,
    CounterexampleFound,
    IrrationalBranch,
    ParseError,
)
from .mapexpr import MapExpr, eval_map_series, free_vars
from .param_series import param_rows, render_param_series
from .parser import _Scanner, chunk_spans, parse_map, parse_poly, parse_series
from .puiseux import render_series
from .qarith import render_rat
from .newton import np_roots
from .topology import (
    ArcSamplerSpec,
    holder_probe,
    loja_fit,
    transfer_check,
    uniform_modulus_probe,
)
from .transport import (
    chart_factor_product,
    chart_lift_maps,
    counterexample_pushforward,
    jacobian_check,
    monotone_bound_check,
)

# Defaults of the flags that some run does not read.  Such a flag must keep
# its default on every run that READS does not list it for.
DEFAULTS = {
    "t_order": "8", "trials": 100, "seed": 0, "mode": "exact", "tolerance": 1e-9,
    "map_text": None, "phi1": None, "phi2": None, "box": "-1,1", "epsilon": 0.1,
    "grid_step": 0.01, "transfer_kind": "injective", "min_ord": "", "unit_lead": False,
    "target": None, "vars": "x,y",
}
READS = {
    "counterexample": {"t_order", "grid_step"},
    "roots": {"t_order", "mode"},
    "eval": {"t_order", "map_text"},
    "probe holder": {"trials", "seed", "map_text", "min_ord", "unit_lead"},
    "probe loja": {"trials", "seed", "tolerance", "phi1", "phi2", "box"},
    "probe unif": {"map_text", "box", "epsilon", "grid_step"},
    "probe transport injective": {
        "trials", "seed", "map_text", "transfer_kind", "min_ord", "unit_lead",
    },
    "probe transport surjective": {
        "trials", "seed", "mode", "map_text", "transfer_kind", "min_ord", "unit_lead", "target",
    },
    # the sampled arcs have order floor 0 and free leads; the map gives their dimension
    "probe transport limit_additive": {"trials", "seed", "map_text", "transfer_kind"},
}


# exit code of each report status
EXIT_CODES = {"pass": 0, "fail": 2, "witness": 2}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# Flag numbers are read by the grammars' integer reader, or by float() with
# no '_': Python's int(), float() and Fraction() take 1_0 for 10.  argparse
# names the flag in an ArgumentTypeError.
def _fraction(text: str) -> Fraction:
    sc = _Scanner(text)
    try:
        value = Fraction(sc.integer(), sc.integer() if sc.take("/") else 1)
        if sc.at_end():
            return value
    except (ParseError, ZeroDivisionError):
        pass
    raise ConfigError(f"not a rational: {text!r}")


def _integer(text: str) -> int:
    sc = _Scanner(text)
    try:
        value = sc.integer()
        if sc.at_end():
            return value
    except ParseError:
        pass
    raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _float(text: str) -> float:
    try:
        if "_" not in text:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a float: {text!r}")


def _expand_at(value: Optional[str]) -> Optional[str]:
    if value is not None and value.startswith("@"):
        try:
            with open(value[1:], "r", encoding="ascii") as fh:
                return fh.read().strip()
        except UnicodeDecodeError:
            raise ConfigError(f"{value[1:]!r} is not an ASCII text file") from None
    return value


# Built once and shared by every main() call.  Parsing leaves the parser as
# it found it: no default is mutable (each is a str, int, float, None or
# False, and no action appends), nothing adds arguments or defaults after
# this function returns, and _Parser.error, which the subparsers inherit,
# raises ConfigError rather than recording anything.
@functools.cache
def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--t-order", default=DEFAULTS["t_order"], help="working truncation order (rational)")
    common.add_argument("--trials", type=_integer, default=DEFAULTS["trials"])
    common.add_argument("--seed", type=_integer, default=DEFAULTS["seed"])
    common.add_argument("--mode", choices=("exact", "numeric"), default=DEFAULTS["mode"])
    common.add_argument("--emit", choices=("text", "structured"), default="text")
    common.add_argument("--tolerance", type=_float, default=DEFAULTS["tolerance"])
    common.add_argument("--ram-cap", type=_integer, default=puiseux.DEFAULT_RAM_CAP)

    top = _Parser(prog="arcfield", description=__doc__)
    sub = top.add_subparsers(dest="subcommand", required=True)

    sub.add_parser("counterexample", parents=[common],
                   help="push the parabola family through the stretch map")
    ce = sub.choices["counterexample"]
    ce.add_argument("--grid-box", type=_float, default=10.0)
    ce.add_argument("--grid-step", type=_float, default=0.01)

    pr = sub.add_parser("probe", parents=[common], help="sampled probes")
    pr.add_argument("kind", choices=("holder", "loja", "unif", "transport"))
    pr.add_argument("--map", dest="map_text", help="map expression (or @file)")
    pr.add_argument("--vars", default=DEFAULTS["vars"], help="comma-separated input variables")
    pr.add_argument("--phi1", help="loja: lower function")
    pr.add_argument("--phi2", help="loja: upper function")
    pr.add_argument("--box", default=DEFAULTS["box"], help="box as lo,hi[;lo,hi...]")
    pr.add_argument("--epsilon", type=_float, default=DEFAULTS["epsilon"])
    pr.add_argument("--grid-step", type=_float, default=DEFAULTS["grid_step"])
    pr.add_argument("--transfer-kind", choices=("injective", "surjective", "limit_additive"),
                    default=DEFAULTS["transfer_kind"])
    pr.add_argument("--min-ord", default=DEFAULTS["min_ord"],
                    help="per-component order floor, e.g. 1,2")
    pr.add_argument("--unit-lead", action="store_true",
                    help="sample arcs with leading coefficient +-1")
    pr.add_argument("--target", default=None, help="residual order for transport checks")

    rt = sub.add_parser("roots", parents=[common], help="real series roots of a polynomial")
    rt.add_argument("poly", help="polynomial in X (or series list 'c0; c1; ...', or @file)")

    ev = sub.add_parser("eval", parents=[common], help="apply a map to an arc")
    ev.add_argument("map_text", metavar="map", help="map expression (or @file)")
    ev.add_argument("--arc", required=True, help="semicolon-separated series components")
    ev.add_argument("--vars", default=DEFAULTS["vars"])
    return top


def _config_from(args) -> dict:
    """Check the common flags and store the t-order on ``args`` as a Fraction.

    Returns the configuration that the report echoes.
    """
    args.t_order = _fraction(args.t_order)
    if args.t_order <= 0:
        raise ConfigError("t-order must be positive")
    if args.ram_cap < 1:
        raise ConfigError("ram-cap must be at least 1")
    return {
        "subcommand": args.subcommand,
        "t_order": render_rat(args.t_order),
        "trials": args.trials,
        "seed": args.seed,
        "mode": args.mode,
        "ram_cap": args.ram_cap,
        "emit": args.emit,
        "tolerance": args.tolerance,
    }


def _reject_unread_flags(args) -> None:
    """Refuse a non-default value of a flag that the run would never read."""
    run = args.subcommand
    if run == "probe":
        run += f" {args.kind}"
        if args.kind == "transport":
            run += f" {args.transfer_kind}"
    # compare --t-order by value, so that 16/2 is the default 8
    given = dict(vars(args), t_order=render_rat(args.t_order))
    reads = READS[run]
    if given.get("map_text") or given.get("phi1"):
        # --vars names the variables of every map a run parses
        reads = reads | {"vars"}
    for dest, default in DEFAULTS.items():
        if dest in given and dest not in reads and given[dest] != default:
            flag = "--map" if dest == "map_text" else "--" + dest.replace("_", "-")
            raise ConfigError(f"{run} does not read {flag}")


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


def _parse_vars(text: str):
    names = tuple(n.strip() for n in text.split(",") if n.strip())
    if not names:
        raise ConfigError("empty variable list")
    return names


def _pruned_map(text: str, names) -> MapExpr:
    m = parse_map(text, names)
    used = set()
    for e in m.exprs:
        used |= free_vars(e)
    arity = max(used) + 1 if used else 1
    if arity < len(m.var_names):
        m = MapExpr(m.exprs, m.var_names[:arity])
    return m


def _parse_box(text: str, arity: int):
    out = []
    for chunk in text.split(";"):
        try:
            lo, hi = (_float(x) for x in chunk.split(","))
        except (ValueError, argparse.ArgumentTypeError):
            raise ConfigError(f"box chunk {chunk!r} is not lo,hi") from None
        if not math.isfinite(hi - lo):
            raise ConfigError(f"box chunk {chunk!r} has no finite width")
        out.append((lo, hi))
    if len(out) != arity:
        raise ConfigError(f"box has {len(out)} dimensions, the map takes {arity}")
    return out


# -- handlers --------------------------------------------------------------------


def run_counterexample(args) -> tuple[dict, str]:
    if args.t_order < 3:
        raise ConfigError("counterexample needs --t-order at least 3")
    try:
        bound_max = monotone_bound_check(args.grid_box, args.grid_step)
    except ValueError as exc:
        raise ConfigError(f"bad --grid-box/--grid-step: {exc}") from None
    result = counterexample_pushforward(args.t_order)
    product = chart_factor_product(12)
    product_ok = product.terms == ((Fraction(0), Fraction(1)),)
    lift_u, _lift_v = chart_lift_maps()
    det = jacobian_check(lift_u, [(0.0, 0.0)])
    w = result.witness
    payload = {
        "chart": result.chart,
        "lifted": [render_param_series(c) for c in result.lifted],
        "image_first": render_param_series(result.image[0]),
        "image_second": render_param_series(result.image[1]),
        "image_first_rows": param_rows(result.image[0]),
        "image_second_rows": param_rows(result.image[1]),
        "divergence_witness": None
        if w is None
        else {
            "t_exp": render_rat(w.t_exp),
            "eps_exp": w.eps_exp,
            "coeff": render_rat(w.coeff),
            "m0n0": list(w.m0n0) if w.m0n0 else None,
        },
        "factor_product": {
            "order": "12",
            "rendered": render_series(product),
            "is_one": product_ok,
        },
        "monotone_bound": {
            "grid_box": args.grid_box,
            "grid_step": args.grid_step,
            "max": bound_max,
            "ok": bound_max <= 0.25,
        },
        "jacobian_at_origin": {"det": det, "ok": det == 1.0},
    }
    return payload, "witness" if w is not None else "fail"


def _sampler_spec(arity: int, args) -> ArcSamplerSpec:
    floors = ()
    if args.min_ord:
        floors = tuple(_fraction(x) for x in args.min_ord.split(","))
        if not all(f > 0 for f in floors):
            raise ConfigError(f"--min-ord {args.min_ord}: every order floor must be positive")
        if len(floors) != arity:
            raise ConfigError(f"--min-ord has {_count(len(floors), 'floor')}, "
                              f"the map takes {arity}")
    return ArcSamplerSpec(
        dim=arity,
        unit_lead=args.unit_lead,
        min_lead_exp=floors,
    )


def run_probe(args) -> tuple[dict, str]:
    kind = args.kind
    if kind != "unif" and args.trials < 1:
        raise ConfigError(f"probe {kind} needs --trials at least 1")
    if kind == "holder":
        if not args.map_text:
            raise ConfigError("probe holder needs --map")
        m = _pruned_map(_expand_at(args.map_text), _parse_vars(args.vars))
        spec = _sampler_spec(m.arity, args)
        est = holder_probe(m, spec, trials=args.trials, seed=args.seed)
        payload = {
            "kind": "holder",
            "map": args.map_text,
            "alpha": render_rat(est.alpha),
            "constant_offset": render_rat(est.constant_offset),
            "sample_count": est.sample_count,
            "discarded": est.discarded,
            "worst_pair": list(est.worst_pair),
        }
        return payload, "pass" if est.alpha > 0 else "fail"
    if kind == "loja":
        if not (args.phi1 and args.phi2):
            raise ConfigError("probe loja needs --phi1 and --phi2")
        names = _parse_vars(args.vars)
        phi1 = _pruned_map(_expand_at(args.phi1), names)
        phi2 = _pruned_map(_expand_at(args.phi2), names)
        # both functions are sampled on one box, so they share an arity
        arity = max(phi1.arity, phi2.arity)
        phi1, phi2 = (MapExpr(phi.exprs, names[:arity]) for phi in (phi1, phi2))
        box = _parse_box(args.box, arity)
        if not math.isfinite(args.tolerance):
            raise ConfigError("probe loja needs a finite --tolerance")
        fit = loja_fit(phi1, phi2, box, samples=args.trials, seed=args.seed)
        ok = fit.max_violation <= args.tolerance
        payload = {
            "kind": "loja",
            "phi1": args.phi1,
            "phi2": args.phi2,
            "box": args.box,
            "c": fit.c,
            "r": fit.r,
            "max_violation": fit.max_violation,
            "fit_samples": fit.fit_samples,
            "validation_samples": fit.validation_samples,
        }
        return payload, "pass" if ok else "fail"
    if kind == "unif":
        if not args.map_text:
            raise ConfigError("probe unif needs --map")
        for flag, value in (("--epsilon", args.epsilon), ("--grid-step", args.grid_step)):
            if not value > 0:
                raise ConfigError(f"probe unif needs {flag} greater than 0")
            if value == math.inf:
                raise ConfigError(f"probe unif needs a finite {flag}")
        m = _pruned_map(_expand_at(args.map_text), _parse_vars(args.vars))
        box = _parse_box(args.box, m.arity)
        r = uniform_modulus_probe(m, box, args.epsilon, args.grid_step)
        payload = {
            "kind": "unif",
            "map": args.map_text,
            "box": args.box,
            "epsilon": args.epsilon,
            "grid_step": args.grid_step,
            "r": r,
        }
        return payload, "pass" if r > 0 else "fail"
    # transport
    if args.transfer_kind != "limit_additive" and not args.map_text:
        raise ConfigError("probe transport needs --map")
    m = None
    arity = 1
    if args.map_text:
        m = _pruned_map(_expand_at(args.map_text), _parse_vars(args.vars))
        arity = m.arity
    spec = _sampler_spec(arity, args)
    target = _fraction(args.target) if args.target else None
    if target is not None and target <= 0:
        raise ConfigError("probe transport needs --target greater than 0")
    try:
        rep = transfer_check(
            args.transfer_kind, m, spec, trials=args.trials, seed=args.seed,
            target=target, mode=args.mode,
        )
    except CounterexampleFound as exc:
        payload = {
            "kind": "transport",
            "transfer_kind": args.transfer_kind,
            "map": args.map_text,
            "witness": exc.witness,
        }
        return payload, "witness"
    payload = {
        "kind": "transport",
        "transfer_kind": rep.kind,
        "map": args.map_text,
        "trials": rep.trials,
    }
    return payload, "pass"


def run_roots(args) -> tuple[dict, str]:
    poly = parse_poly(_expand_at(args.poly))
    if poly.degree < 1:
        raise ConfigError("polynomial must have degree at least 1")
    try:
        branches = np_roots(poly, args.t_order, mode=args.mode)
    except IrrationalBranch as exc:
        raise ArcFieldError(f"{exc}; rerun with --mode numeric") from exc
    payload = {
        "poly": args.poly,
        "degree": poly.degree,
        "branches": [
            {
                "series": render_series(b.series),
                "multiplicity": b.multiplicity,
                "certified_order": None
                if b.certified_order is None
                else render_rat(b.certified_order),
                "exactness": b.exactness,
            }
            for b in branches
        ],
        "note": "" if branches else "no real branches",
    }
    return payload, "pass"


def run_eval(args) -> tuple[dict, str]:
    m = _pruned_map(_expand_at(args.map_text), _parse_vars(args.vars))
    arc = _expand_at(args.arc)
    comps = tuple(parse_series(arc, a, b) for a, b in chunk_spans(arc))
    if len(comps) != m.arity:
        raise ConfigError(f"arc has {_count(len(comps), 'component')}, the map takes {m.arity}")
    image = eval_map_series(m, comps, order=args.t_order)
    payload = {
        "map": args.map_text,
        "arc": [render_series(c) for c in comps],
        "image": [render_series(c) for c in image],
    }
    return payload, "pass"


# -- emission ---------------------------------------------------------------------


def emit(report: dict, out=None) -> None:
    out = out or sys.stdout
    if report["config"]["emit"] == "structured":
        print(json.dumps(report, sort_keys=True, separators=(",", ":")), file=out)
        return
    print(f"[{report['subcommand']}] status: {report['status']}", file=out)
    for key in sorted(report["payload"]):
        print(f"  {key}: {report['payload'][key]}", file=out)


def main(argv=None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    ram_cap = puiseux.get_ram_cap()
    try:
        # float() reads other scripts' digits; _expand_at reads the file
        # that an @path value names as ASCII
        for arg in argv:
            value = arg.partition("=")[2] if arg.startswith("-") else arg
            if not arg.isascii() and not value.startswith("@"):
                raise ConfigError(f"argument {ascii(arg)} is not ASCII")
        args = parser.parse_args(argv)
        config = _config_from(args)
        _reject_unread_flags(args)
        puiseux.set_ram_cap(args.ram_cap)
        handler = {"counterexample": run_counterexample, "probe": run_probe,
                   "roots": run_roots, "eval": run_eval}[args.subcommand]
        payload, status = handler(args)
    except ParseError as exc:
        print(f"parse error at bytes {exc.start}..{exc.end}: "
              f"expected {exc.expected}, found {exc.found}", file=err)
        return 1
    except (ConfigError, ArcFieldError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 1
    finally:
        puiseux.set_ram_cap(ram_cap)
    emit({"subcommand": args.subcommand, "config": config, "payload": payload,
          "status": status}, out)
    return EXIT_CODES[status]


if __name__ == "__main__":
    sys.exit(main())
