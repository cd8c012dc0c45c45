"""Pinned digest of the text reports and error lines of the command line.

The benchmark gate and the other digest tests pin ``--emit structured``
reports.  This test pins what a user reads by default: the exit code,
stdout and stderr of the README examples and of a few refusals, all with
``--emit text``, hashed together and compared with the digest recorded
before the report was last assembled differently.  Exits 0, 1 and 2 all
occur.  A last test runs ``python -m arcfield`` in a fresh interpreter,
which no other test does, and compares it with ``cli.main``.
"""

import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

from arcfield import cli

SRC = Path(__file__).resolve().parent.parent / "src"

STRETCH = "(x*(1 + y^2/(x^2+y^2))^(1/4), y)"
ARGVS = (
    # the README examples
    ("counterexample", "--t-order", "8"),
    ("roots", "X^2 - (t + t^2)", "--t-order", "7/2"),
    ("roots", "-t - t^2; 0; 1"),
    ("roots", "X^2 - 2*t", "--mode", "numeric"),
    ("eval", "(u, u*v, v^2)", "--vars", "u,v", "--arc", "t; t"),
    ("probe", "holder", "--map", "x^(1/3)", "--vars", "x", "--unit-lead"),
    ("probe", "holder", "--map", STRETCH, "--min-ord", "1,2"),
    ("probe", "loja", "--phi1", "x^2", "--phi2", "x", "--vars", "x", "--box=-1,1"),
    ("probe", "unif", "--map", "x^2", "--vars", "x", "--box", "0,1", "--epsilon", "0.1",
     "--grid-step", "0.005"),
    ("probe", "transport", "--transfer-kind", "injective", "--map", "x^2", "--vars", "x"),
    # at order 3 no divergence witness is found yet: status fail, exit 2
    ("counterexample", "--t-order", "3"),
    # an irrational lead, an unread flag, a parse error, a bad t-order and
    # two probes without the functions they compare
    ("roots", "X^2 - 2*t"),
    ("probe", "unif", "--map", "x", "--vars", "x", "--box", "0,1", "--seed", "3"),
    ("roots", "X^2 +"),
    ("roots", "X - t", "--t-order", "0"),
    ("probe", "loja", "--phi1", "x", "--vars", "x"),
    ("probe", "transport", "--transfer-kind", "injective"),
)
DIGEST = "503793f706be66541ddb0344ca2b79b72584dd4cf7d8f086fb6ad769a011a9b0"


def text_digest() -> str:
    h = hashlib.sha256()
    for argv in ARGVS:
        out, err = io.StringIO(), io.StringIO()
        rc = cli.main(list(argv) + ["--emit", "text"], out=out, err=err)
        h.update(f"{rc}\n".encode())
        h.update(out.getvalue().encode())
        h.update(err.getvalue().encode())
    return h.hexdigest()


def test_text_reports_match_the_pinned_digest():
    assert text_digest() == DIGEST


def test_python_m_arcfield_runs_main():
    argv = ["roots", "X^2 - t", "--emit", "structured"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "arcfield"] + argv, env=env,
                          capture_output=True, text=True, timeout=60)
    out = io.StringIO()
    rc = cli.main(argv, out=out)
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out.getvalue(), "")
