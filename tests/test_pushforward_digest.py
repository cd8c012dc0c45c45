"""Pinned digest of the pushforward reports.

``counterexample`` pushes the parabola family ``(e t, t^2)`` through the
blow-analytic stretch over series whose coefficients are Laurent
polynomials in the parameter ``e``; ``eval`` of the stretch map and of its
chart lift runs the same long binomial expansions over rationals.  This test
hashes the exit code, report and stderr of a fixed list of those runs, so a
change in the parametric ring, the kernel's products or powers, or their
rendering shows up here.  It runs in about a second.
"""

import hashlib
import io

from arcfield import cli

STRETCH = "(x*(1 + y^2/(x^2+y^2))^(1/4), y)"
LIFT_U = "(u*(1 + v^2/(1 + v^2))^(1/4), v*(1 + v^2/(1 + v^2))^(-1/4))"
ORDERS = (8, 16, 32, 48, 64, 96, 128)
EVALS = (
    ("eval", STRETCH, "--arc", "t; 2*t^2", "--t-order", "32"),
    ("eval", STRETCH, "--arc", "-3*t; 5*t^3", "--t-order", "16"),
    ("eval", LIFT_U, "--vars", "u,v", "--arc", "2*t; -t", "--t-order", "32"),
    ("eval", LIFT_U, "--vars", "u,v", "--arc", "t; 3*t^2", "--t-order", "48"),
)
DIGEST = "450a1ab6bf90621e0142f3dc181bb13926153f1d94aba6356768e2309ced88a1"


def _run(h, argv):
    out, err = io.StringIO(), io.StringIO()
    rc = cli.main(list(argv) + ["--emit", "structured", "--ram-cap", "64"], out=out, err=err)
    h.update(f"{rc}\n".encode())
    h.update(out.getvalue().encode())
    h.update(err.getvalue().encode())


def pushforward_digest() -> str:
    h = hashlib.sha256()
    for order in ORDERS:
        _run(h, ("counterexample", "--t-order", str(order)))
    for argv in EVALS:
        _run(h, argv)
    return h.hexdigest()


def test_pushforward_reports_match_the_pinned_digest():
    assert pushforward_digest() == DIGEST
