"""The benchmark's tracer (perfbench/spans.py) against the package: every
function it wraps must exist, so that a traced benchmark run does not stop
at AttributeError, and uninstalling must restore each one."""

import os
import sys
import time
import types

import weylab.cli      # noqa: F401  (loads every module the tracer wraps)
from weylab import symbol

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _spans():
    sys.path.insert(0, PERFBENCH)
    try:
        import spans
    finally:
        sys.path.remove(PERFBENCH)
    return spans


def test_tracer_installs_and_uninstalls(f2):
    spans = _spans()
    wrapped = spans.SPANS + spans.COUNTED
    before = [getattr(sys.modules[f"weylab.{mod}"], fn) for mod, fn in wrapped]
    tracer = spans.Tracer(types.SimpleNamespace(now=time.perf_counter))
    tracer.install()
    try:
        assert all(getattr(sys.modules[f"weylab.{mod}"], fn) is not orig
                   for (mod, fn), orig in zip(wrapped, before))
        symbol.find_roots(f2, 0.5)
        assert tracer.totals["symbol.find_roots"][0] == 1
    finally:
        tracer.uninstall()
    assert all(getattr(sys.modules[f"weylab.{mod}"], fn) is orig
               for (mod, fn), orig in zip(wrapped, before))
