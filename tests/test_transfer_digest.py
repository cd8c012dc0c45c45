"""Pinned digest of the surjective and limit-additive transfers and ``probe unif``.

``tests/test_probe_digest.py`` pins the arc-pair probes.  This test pins the
other sampled probes: the surjective transport (which pushes seeded source
arcs forward and solves for their preimages), the limit-additivity check,
and the uniform-modulus grid sweep on boxes of one, two and three
dimensions.  It hashes the exit code, report and stderr of each run, so a
changed trial loop, a changed draw order or a changed sweep shows up here.
The ``(-1 - x^2)^(1/2)`` map evaluates on no sampled arc, so its runs pin the
``could only push forward`` message.  It runs in a few seconds.
"""

import hashlib
import io

from arcfield import cli

SURJECTIVE = ("probe", "transport", "--transfer-kind", "surjective")
LIMIT_ADDITIVE = ("probe", "transport", "--transfer-kind", "limit_additive")
RUNS = (
    SURJECTIVE + ("--map", "x^2", "--vars", "x"),
    SURJECTIVE + ("--map", "x^3 + x^2", "--vars", "x", "--target", "8"),
    SURJECTIVE + ("--map", "(u, u*v)", "--vars", "u,v"),
    SURJECTIVE + ("--map", "(x, y^3 + x^5)", "--mode", "numeric"),
    SURJECTIVE + ("--map", "(-1 - x^2)^(1/2)", "--vars", "x"),
    LIMIT_ADDITIVE + ("--trials", "40"),
    LIMIT_ADDITIVE + ("--map", "(x, y, x*y)", "--trials", "40"),
)
SEEDS = (1, 2, 3)
TRIALS = "6"
UNIF = (
    ("--map", "x^2", "--vars", "x", "--box", "0,1", "--grid-step", "0.01"),
    ("--map", "(x*y, x - y^2)", "--box=-1,1;0,1", "--grid-step", "0.1"),
    ("--map", "x*y + z^3", "--vars", "x,y,z", "--box=0,1;-1,1;0,2", "--grid-step", "0.25",
     "--epsilon", "3"),
)
DIGEST = "03e5e110f5efd4bde0f7f55bf45f097902f35ad7c08e84f4bc4ad6476a0d4cf5"


def _run(h, argv):
    out, err = io.StringIO(), io.StringIO()
    rc = cli.main(list(argv) + ["--emit", "structured", "--ram-cap", "64"], out=out, err=err)
    h.update(f"{rc}\n".encode())
    h.update(out.getvalue().encode())
    h.update(err.getvalue().encode())


def transfer_digest() -> str:
    h = hashlib.sha256()
    for run in RUNS:
        for seed in SEEDS:
            trials = () if "--trials" in run else ("--trials", TRIALS)
            _run(h, run + trials + ("--seed", str(seed)))
    for run in UNIF:
        _run(h, ("probe", "unif") + run)
    return h.hexdigest()


def test_transfer_and_unif_reports_match_the_pinned_digest():
    assert transfer_digest() == DIGEST
