"""Untimed correctness passes run before every timed phase.

* The smoke pass runs every CLI example of the project README once, so a
  subcommand that no timed workload uses (``probe unif``, ``probe loja``,
  ``probe transport --transfer-kind injective``, ...) still breaks the
  benchmark loudly.  Each example gets ``--emit structured --ram-cap 64``
  appended so its exit code and report keys can be checked.
* The byte-identity gate runs a fixed set of ops and compares the sha256 of
  each structured report with the digest recorded at the commit that
  introduced the benchmark: reports must stay byte-identical.

Run ``python3 perfbench/gate.py`` from the repository root to print the
current digests in the form of ``DIGESTS`` below.
"""

from __future__ import annotations

import hashlib
import io

from oracles import check_structured, require
from workloads import (
    COMMON,
    COUNTEREXAMPLE_KEYS,
    EVAL_KEYS,
    HOLDER_KEYS,
    LIFT_U,
    ROOT_KEYS,
    STRETCH,
)

# (argv as in the README, expected exit code, subcommand, payload keys)
README_EXAMPLES = (
    (("counterexample", "--t-order", "8"), 2, "counterexample", COUNTEREXAMPLE_KEYS),
    (("roots", "X^2 - (t + t^2)", "--t-order", "7/2"), 0, "roots", ROOT_KEYS),
    (("roots", "-t - t^2; 0; 1"), 0, "roots", ROOT_KEYS),
    (("roots", "X^2 - 2*t", "--mode", "numeric"), 0, "roots", ROOT_KEYS),
    (("eval", "(u, u*v, v^2)", "--vars", "u,v", "--arc", "t; t"), 0, "eval", EVAL_KEYS),
    (("probe", "holder", "--map", "x^(1/3)", "--vars", "x", "--unit-lead"), 0, "probe",
     HOLDER_KEYS),
    (("probe", "holder", "--map", STRETCH, "--min-ord", "1,2"), 0, "probe", HOLDER_KEYS),
    (("probe", "loja", "--phi1", "x^2", "--phi2", "x", "--vars", "x", "--box=-1,1"), 0,
     "probe", ("c", "r", "max_violation", "fit_samples", "validation_samples")),
    (("probe", "unif", "--map", "x^2", "--vars", "x", "--box", "0,1", "--epsilon", "0.1",
      "--grid-step", "0.005"), 0, "probe", ("epsilon", "grid_step", "r")),
    # x^2 identifies t and -t, so the injectivity transfer finds a witness
    (("probe", "transport", "--transfer-kind", "injective", "--map", "x^2", "--vars", "x"),
     2, "probe", ("transfer_kind", "witness")),
)

GATE_OPS = (
    ("counterexample", "--t-order", "8"),
    ("counterexample", "--t-order", "48"),
    ("roots", "-t - t^2; 0; 0; 1", "--t-order", "12"),
    ("roots", "2*t^2 + 2*t^3; -t - t^2; -2*t; 1", "--t-order", "10"),
    ("roots", "-t - t^2; 0; 1", "--t-order", "10", "--mode", "numeric"),
    ("probe", "holder", "--map", STRETCH, "--trials", "10", "--seed", "3"),
    ("probe", "holder", "--map", "x^(1/2)", "--vars", "x", "--unit-lead", "--trials", "15",
     "--seed", "5"),
    ("probe", "transport", "--transfer-kind", "surjective", "--map", "x^3 + x^2", "--vars",
     "x", "--trials", "5", "--seed", "1"),
    ("eval", STRETCH, "--arc", "2*t; -3*t^2", "--t-order", "32"),
    ("eval", LIFT_U, "--vars", "u,v", "--arc", "-t; 5*t^3", "--t-order", "16"),
)

DIGESTS = {
    "counterexample --t-order 8":
        "bc61940dd04d00a14e5d4be7f26b2c8399708b0f3bb7dd863f9cd6ad954ff443",
    "counterexample --t-order 48":
        "e2db3aaf6cb5acafcb34eb5c22071c34d5099233eaa04bfefb71b88adcb20766",
    "roots -t - t^2; 0; 0; 1 --t-order 12":
        "7f273c5f950976bd8f6a3eddfe79c46ed77ee88e1a0ce29acc0cb5dea2bf8019",
    "roots 2*t^2 + 2*t^3; -t - t^2; -2*t; 1 --t-order 10":
        "a5302892d2d66ef8cf2274c760a84d56a8aa3d06008e76e4b2265c71bb0e9167",
    "roots -t - t^2; 0; 1 --t-order 10 --mode numeric":
        "fd66a96ad927bc3dd081f813a91a21d3ab8196cf423ad31c98682c2c7f59b3d5",
    "probe holder --map (x*(1 + y^2/(x^2+y^2))^(1/4), y) --trials 10 --seed 3":
        "080ea1c1d01218202185fc31c0eaed08c3a24fe45dee8ce6766a37a214556dd0",
    "probe holder --map x^(1/2) --vars x --unit-lead --trials 15 --seed 5":
        "6003d44db442580709a3ebf23901e46fce93e31a19c35aa1677b2e482a0ff0f6",
    "probe transport --transfer-kind surjective --map x^3 + x^2 --vars x --trials 5 --seed 1":
        "b90221604b4983b8f03ae0cfa952a08c27f7b55eb058c1142279e8b534d501ea",
    "eval (x*(1 + y^2/(x^2+y^2))^(1/4), y) --arc 2*t; -3*t^2 --t-order 32":
        "69d84661627dca86e60f770a90d15f2ea2bae4f904261afe62aee83122651589",
    "eval (u*(1 + v^2/(1 + v^2))^(1/4), v*(1 + v^2/(1 + v^2))^(-1/4)) --vars u,v --arc -t; 5*t^3 --t-order 16":
        "de8f7a988c2e038cc095ca2f19092a2d91e514054f5050305d4720eba7c8ac23",
}


def invoke(cli_main, argv):
    out, err = io.StringIO(), io.StringIO()
    rc = cli_main(list(argv), out=out, err=err)
    return rc, out.getvalue(), err.getvalue()


def smoke_pass(cli_main):
    """Failures of the README examples, as a list of messages."""
    failures = []
    for argv, expect_rc, subcommand, keys in README_EXAMPLES:
        try:
            rc, out, err = invoke(cli_main, argv + COMMON)
            require(rc == expect_rc, f"exit {rc}, expected {expect_rc}: {err.strip()[:200]}")
            check_structured(out, subcommand, keys)
        except Exception as exc:  # any crash is a smoke failure to report
            failures.append(f"smoke {' '.join(argv)}: {type(exc).__name__}: {exc}")
    return failures


def report_digest(out: str) -> str:
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def byte_identity_gate(cli_main):
    """Failures of the byte-identity gate, as a list of messages."""
    failures = []
    for argv in GATE_OPS:
        key = " ".join(argv)
        try:
            _rc, out, _err = invoke(cli_main, argv + COMMON)
            got = report_digest(out)
        except Exception as exc:  # any crash is a gate failure to report
            failures.append(f"gate {key}: {type(exc).__name__}: {exc}")
            continue
        if got != DIGESTS.get(key):
            failures.append(f"gate {key}: report digest {got[:16]} changed")
    return failures


if __name__ == "__main__":
    import json
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from arcfield.cli import main as arcfield_main

    digests = {" ".join(a): report_digest(invoke(arcfield_main, a + COMMON)[1])
               for a in GATE_OPS}
    print(json.dumps(digests, indent=4))
