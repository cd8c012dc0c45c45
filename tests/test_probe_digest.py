"""Pinned digest of the arc-pair probes' structured reports.

``probe holder`` and the injective ``probe transport`` compare images of
sampled arc pairs through the precision ladder of ``topology``.  The ladder
is exact, so its reports must not move when its rungs change.  This test
hashes the exit code, report and stderr of a fixed grid of those probes,
several maps (the stretch map, with and without ``--min-ord``, x^(1/3), the
umbrella and a map with a high-valuation denominator) over a few seeds, and
compares the digest with the one recorded before the rungs last changed.
It runs in about a second.
"""

import hashlib
import io

from arcfield import cli

STRETCH = "(x*(1 + y^2/(x^2+y^2))^(1/4), y)"
MAPS = (
    ("--map", STRETCH),
    ("--map", STRETCH, "--min-ord", "1,2"),
    ("--map", "x^(1/3)", "--vars", "x", "--unit-lead"),
    ("--map", "x^(1/3)", "--vars", "x"),
    ("--map", "(u, u*v, v^2)", "--vars", "u,v"),
    ("--map", "(x*y/(x^2+y^2), y)"),
)
KINDS = (("holder",), ("transport", "--transfer-kind", "injective"))
SEEDS = (1, 2, 3, 4)
TRIALS = "15"
DIGEST = "7507dae339eec572463571488e50e77924d9180ee592d6b7a22ac10ea621f692"


def probe_digest() -> str:
    h = hashlib.sha256()
    for kind in KINDS:
        for map_argv in MAPS:
            for seed in SEEDS:
                argv = ("probe",) + kind + map_argv + (
                    "--trials", TRIALS, "--seed", str(seed),
                    "--emit", "structured", "--ram-cap", "64")
                out, err = io.StringIO(), io.StringIO()
                rc = cli.main(list(argv), out=out, err=err)
                h.update(f"{rc}\n".encode())
                h.update(out.getvalue().encode())
                h.update(err.getvalue().encode())
    return h.hexdigest()


def test_probe_reports_match_the_pinned_digest():
    assert probe_digest() == DIGEST
