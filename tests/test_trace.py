"""The benchmark (perfbench/) against the package: every function the
tracer wraps must exist, so that a traced benchmark run does not stop at
AttributeError, uninstalling must restore each one, and every workload must
set up, so that a config key or function it uses cannot go missing unseen."""

import importlib
import os
import sys
import time
import types

import weylab.cli      # noqa: F401  (loads every module the tracer wraps)
from weylab import symbol

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _perfbench(name):
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)


def test_tracer_installs_and_uninstalls(f2):
    spans = _perfbench("spans")
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


def test_workloads_set_up(tmp_path):
    for workload in _perfbench("workloads").WORKLOADS.values():
        workload(1, str(tmp_path)).setup()
