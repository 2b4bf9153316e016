"""The traced benchmark wraps clcst functions by name; every name must resolve."""

import os

import clcst.cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_trace_targets_resolve_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    original = clcst.cli.clcst
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert clcst.cli.clcst is not original
    finally:
        tracer.uninstall()
    assert clcst.cli.clcst is original
