"""Work-count gate: deterministic kernel counts on a fixed op list.

Wall time is noisy; the number of term pairs multiplied, series built and
binomial lattice points visited is not.  This test installs the benchmark's
tracer (``perfbench/layers.py``), runs one op of each workload's kind and
checks that no count exceeds the value recorded when the gate was set, so a
change that makes the kernel do more work fails here even when its timing
hides in the noise.  A change that lowers a count should lower its recorded
bound too.
"""

import io
from pathlib import Path

from arcfield import cli, newton, param_series, puiseux, topology, transport

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

OPS = (
    ("counterexample", "--t-order", "32"),
    ("roots", "X^3 - t - t^2", "--t-order", "12"),
    ("probe", "holder", "--map", "x^(1/3)", "--vars", "x", "--unit-lead",
     "--trials", "10", "--seed", "1"),
    ("probe", "holder", "--map", "(x*(1 + y^2/(x^2+y^2))^(1/4), y)",
     "--trials", "20", "--seed", "1"),
)
BOUNDS = {
    "puiseux.mul.term_pairs": 3801,
    "puiseux.init.calls": 791,
    "puiseux.binomial_lattice_points": 2069,
    "param_series.binomial_lattice_points": 128,
    "mapexpr.eval_map_series.calls": 113,
}


def work_counts() -> dict:
    import layers

    tracer = layers.Tracer()
    restore, missing = layers.install(
        tracer, cli, puiseux, param_series, newton, topology, transport
    )
    try:
        assert missing == []
        for argv in OPS:
            out, err = io.StringIO(), io.StringIO()
            rc = cli.main(list(argv) + ["--emit", "structured", "--ram-cap", "64"],
                          out=out, err=err)
            assert rc in (0, 2), err.getvalue()
    finally:
        restore()
    metrics = layers.layer_metrics(tracer)
    return {name: metrics[name] for name in BOUNDS}


def test_kernel_work_stays_within_the_recorded_counts(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    counts = work_counts()
    over = {name: (counts[name], bound) for name, bound in BOUNDS.items()
            if counts[name] > bound}
    assert over == {}
