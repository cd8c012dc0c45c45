"""Run the series-power and precision-ladder properties far deeper than Tier-1 does.

Tier-1 runs each property at its own small ``max_examples``.  This script
takes each listed property's undecorated body (``.hypothesis.inner_test``,
bound to an instance for a test method), wraps it again with ``given`` over
the same strategies, ``settings`` with ``--examples`` examples and no
example database, and a fixed ``seed``, and runs it once per seed.  From
the repository root:

    python tools/deep_properties.py --examples 20000 --seeds 1,2

It exits 0 when every property passes on every seed; a failure prints
Hypothesis' minimal falsifying example and exits 1.
"""

import argparse
import inspect
import sys
import time
import traceback
from pathlib import Path
from types import MethodType

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from hypothesis import given, seed, settings, strategies as st  # noqa: E402

import test_exact_pow  # noqa: E402
import test_mapexpr  # noqa: E402
import test_topology  # noqa: E402

LADDER = test_topology.TestImageLadder()

# name -> (property, the strategies its ``given`` draws from)
PROPERTIES = {
    "float-power": (
        test_exact_pow.test_float_power_is_the_exact_expansion_rounded_once,
        (test_exact_pow.float_power_cases(),),
    ),
    "series-power-table": (
        test_mapexpr.test_series_powers_are_the_kernels,
        (test_mapexpr.power_table_bases(), st.sampled_from(test_mapexpr.POWER_TABLE_EXPONENTS)),
    ),
    "ladder": (
        LADDER.test_matches_full_order,
        (st.sampled_from(sorted(test_topology.CHEAP_MAPS)), st.integers(0, 2**32)),
    ),
    "ladder-stretch": (
        LADDER.test_matches_full_order_stretch,
        (st.sampled_from(sorted(test_topology.STRETCH_MAPS)), st.integers(0, 2**32)),
    ),
    "ladder-denominator": (
        LADDER.test_matches_full_order_high_valuation_denominator,
        (st.sampled_from(sorted(test_topology.DENOMINATOR_MAPS)), st.integers(0, 2**32)),
    ),
}


def deep(prop, strategies, examples: int, s: int):
    """The property's body under ``examples`` examples drawn from seed ``s``."""
    body = prop.hypothesis.inner_test
    if inspect.ismethod(prop):
        body = MethodType(body, prop.__self__)
    return seed(s)(settings(max_examples=examples, database=None, deadline=None)(
        given(*strategies)(body)
    ))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--examples", type=int, default=20000)
    parser.add_argument("--seeds", default="1,2", help="comma-separated integer seeds")
    args = parser.parse_args(argv)
    if args.examples < 1:
        parser.error("--examples must be at least 1")
    seeds = [int(s) for s in args.seeds.split(",")]
    failed = 0
    for name in sorted(PROPERTIES):
        prop, strategies = PROPERTIES[name]
        for s in seeds:
            start = time.perf_counter()
            try:
                deep(prop, strategies, args.examples, s)()
            except Exception:  # report the falsifying example, then run the rest
                failed += 1
                traceback.print_exc()
                print(f"FAIL {name} seed={s}")
                continue
            print(f"ok   {name} seed={s} examples={args.examples} "
                  f"({time.perf_counter() - start:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
