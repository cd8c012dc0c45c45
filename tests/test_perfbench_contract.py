"""The benchmark's contract with the package, checked in seconds.

``perfbench/layers.py`` looks each entry point up in its owner's own
namespace, so a renamed or only-inherited one shows up as missing; and
``perfbench/gate.py`` holds the README examples and the recorded digests of
fixed structured reports.  These tests report a break in either without a
benchmark run.
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


def test_reports_match_the_recorded_digests(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gate

    assert gate.byte_identity_gate(cli.main) == []
    assert gate.smoke_pass(cli.main) == []
