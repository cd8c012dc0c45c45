"""The benchmark's tracer finds every layer entry point it wraps.

``perfbench/layers.py`` looks each entry point up in its owner's own
namespace, so a renamed or only-inherited one shows up as missing; this test
reports that in seconds instead of in a traced benchmark run.
"""

from pathlib import Path

from arcfield import cli, newton, param_series, puiseux, topology, transport

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    restore, missing = layers.install(
        layers.Tracer(), cli, puiseux, param_series, newton, topology, transport
    )
    try:
        assert missing == []
    finally:
        restore()
