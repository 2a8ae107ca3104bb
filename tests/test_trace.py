"""The benchmark (perfbench/) against the package: every function the
tracer wraps must exist, so that a traced benchmark run does not stop at
AttributeError, uninstalling must restore each one, the work it counts must
read the return layout of real runs, and every workload must set up, so that
a config key or function it uses cannot go missing unseen."""

import importlib
import math
import os
import sys
import time
import types

import weylab.cli      # noqa: F401  (loads every module the tracer wraps)
from weylab import harness, symbol
from weylab.domains import AnnularSector, Rectangle
from weylab.randomness import CoefficientLaw

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


def test_tracer_counts_every_ladder_solve(f2, f4, monkeypatch):
    # the tracer counts certify_truncation's solves as the length of its
    # result[3]: on a traced semiclassical run of two h and a traced
    # high-energy run, that is every K in the runs' K_tried
    spans = _perfbench("spans")
    law = CoefficientLaw(alpha_min=0, alpha_max=0, n=1, rho_decay=1.2,
                         K_q=16)
    sc = harness.ExperimentConfig(
        sym=f2, law=law, domains=[Rectangle(0.1, 0.7, -0.5, 0.5)],
        mode="semiclassical", h_list=(0.1, 0.07), trials=2, seed=3)
    he = harness.ExperimentConfig(
        sym=f4, law=law, domains=[AnnularSector(0.05, 2 * math.pi - 0.05,
                                                1.0)],
        mode="highenergy", lambda_list=(2.0, 4.0), trials=2, seed=5)
    monkeypatch.setattr(harness, "WORKERS", 1)
    tracer = spans.Tracer(types.SimpleNamespace(now=time.perf_counter))
    tracer.install()
    try:
        trunc = [*harness.run_semiclassical(sc).extras["truncation"].values(),
                 harness.run_highenergy(he).extras["truncation"]]
    finally:
        tracer.uninstall()
    calls, _, solves = tracer.totals["harness.certify_truncation"]
    assert calls == 3
    assert solves == sum(len(t["K_tried"]) for t in trunc) > 3 * 3


def test_workloads_set_up(tmp_path):
    for workload in _perfbench("workloads").WORKLOADS.values():
        workload(1, str(tmp_path)).setup()
