"""Spans around weylab's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function in every weylab module that
holds it (``from .symbol import find_roots`` makes a second reference), so
calls between modules are caught too.  A span records its name, start, end
and parent; a layer's self time is its span's length minus the time of the
traced spans nested directly inside it.  Times come from the run's
``SpeedClock``, so they are nominal-speed seconds like ``wall_s``.
"""

from __future__ import annotations

import sys

import weylab

# (module, function): traced with a span, or only counted ("calls")
SPANS = [
    ("harness", "load_config"), ("harness", "run_semiclassical"),
    ("harness", "run_highenergy"), ("harness", "certify_truncation"),
    ("harness", "write_report"),
    ("discretize", "eigenvalues"), ("discretize", "assemble_operator"),
    ("discretize", "assemble_perturbation"), ("discretize", "sigma_min_map"),
    ("randomness", "sample_draw"),
    ("domains", "weyl_measure"),
    ("symbol", "find_roots"), ("symbol", "winding_number"),
    ("symbol", "xi_window"),
    ("quasimode", "build_quasimode"), ("quasimode", "build_adjoint_quasimode"),
    ("quasimode", "residual"), ("quasimode", "overlap_variance"),
]
COUNTED = [("symbol", "qz"), ("symbol", "qz_gradient")]


def _eig_work(args, kwargs, result):
    side = (args[0] if args else kwargs["mat"]).trunc.side
    return side ** 3 / 1e9


def _quad_work(args, kwargs, result):
    """Cells of every grid level weyl_measure evaluated: it doubles from
    base_grid up to the grid it returns, one count per cell and level."""
    quad = args[2] if len(args) > 2 else kwargs.get("quad")
    base = quad.base_grid if quad is not None else \
        weylab.domains.QuadOptions().base_grid
    if not result.deltas:       # empty domain or zero window: no grid
        return 0.0
    cells, grid = 0, base
    while grid <= result.grid:
        cells += grid * grid
        grid *= 2
    return cells / 1e6


def _certify_work(args, kwargs, result):
    return float(len(result[3]))        # every K solved


# work counted per call, reported as the layer's third metric (side3_g,
# cells_m, solves)
WORK = {("discretize", "eigenvalues"): _eig_work,
        ("domains", "weyl_measure"): _quad_work,
        ("harness", "certify_truncation"): _certify_work}

# The per-layer metrics the traced run reports, in BENCHMARK.json's order.
METRICS = [
    ("discretize.eigenvalues.calls", "count"),
    ("discretize.eigenvalues.s", "s"),
    ("discretize.eigenvalues.side3_g", "Gside3"),
    ("discretize.assemble_perturbation.calls", "count"),
    ("discretize.assemble_perturbation.s", "s"),
    ("randomness.sample_draw.calls", "count"),
    ("randomness.sample_draw.s", "s"),
    ("discretize.assemble_operator.calls", "count"),
    ("discretize.assemble_operator.s", "s"),
    ("discretize.sigma_min_map.s", "s"),
    ("harness.certify_truncation.s", "s"),
    ("harness.certify_truncation.solves", "count"),
    ("harness.run_highenergy.s", "s"),
    ("harness.run_semiclassical.s", "s"),
    ("harness.write_report.s", "s"),
    ("harness.load_config.s", "s"),
    ("symbol.xi_window.calls", "count"),
    ("symbol.xi_window.s", "s"),
    ("domains.weyl_measure.calls", "count"),
    ("domains.weyl_measure.s", "s"),
    ("domains.weyl_measure.cells_m", "Mcells"),
    ("symbol.find_roots.calls", "count"),
    ("symbol.find_roots.s", "s"),
    ("symbol.qz.calls", "count"),
    ("symbol.qz_gradient.calls", "count"),
    ("symbol.winding_number.calls", "count"),
    ("symbol.winding_number.s", "s"),
    ("quasimode.build_quasimode.s", "s"),
    ("quasimode.build_adjoint_quasimode.s", "s"),
    ("quasimode.residual.s", "s"),
    ("quasimode.overlap_variance.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def _holders(fn):
    """Every (module, attribute) in weylab that refers to fn."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "weylab" or name.startswith("weylab."):
            for attr, value in vars(mod).items():
                if value is fn:
                    out.append((mod, attr))
    return out


class Tracer:
    def __init__(self, clock):
        self.now = clock.now
        self.spans = []         # [name, start, end, parent index]
        self.totals = {}        # name -> [calls, self seconds, work]
        self._stack = []        # [span index, seconds in child spans]
        self._saved = []

    def _span(self, name, fn, work):
        spans, stack, totals, now = (self.spans, self._stack, self.totals,
                                     self.now)

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            idx = len(spans)
            spans.append([name, now(), None, parent])
            stack.append([idx, 0.0])
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = now()
                _, child = stack.pop()
                span = spans[idx]
                span[2] = end
                length = end - span[1]
                if stack:
                    stack[-1][1] += length
                entry = totals.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += length - child
                if work is not None and result is not None:
                    entry[2] += work(args, kwargs, result)
        return traced

    def _counter(self, name, fn):
        totals = self.totals

        def counted(*args, **kwargs):
            totals.setdefault(name, [0, 0.0, 0.0])[0] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        for mod_name, fn_name in SPANS + COUNTED:
            mod = sys.modules[f"weylab.{mod_name}"]
            fn = getattr(mod, fn_name)
            name = f"{mod_name}.{fn_name}"
            if (mod_name, fn_name) in COUNTED:
                wrapped = self._counter(name, fn)
            else:
                wrapped = self._span(name, fn, WORK.get((mod_name, fn_name)))
            for holder, attr in _holders(fn):
                self._saved.append((holder, attr, fn))
                setattr(holder, attr, wrapped)

    def uninstall(self):
        for holder, attr, fn in reversed(self._saved):
            setattr(holder, attr, fn)
        self._saved = []

    def snapshot(self) -> dict:
        return {k: list(v) for k, v in self.totals.items()}

    @staticmethod
    def layer_metrics(setup: dict, rounds: list) -> dict:
        """Per-layer values: the set-up phase once plus the mean traced
        round.  ``setup`` and each round are {name: [calls, self s, work]}."""
        out = {}
        for metric, _ in METRICS:
            if metric.startswith("trace."):
                continue
            layer, kind = metric.rsplit(".", 1)
            col = {"calls": 0, "s": 1}.get(kind, 2)
            per_round = sum(r.get(layer, [0, 0.0, 0.0])[col]
                            for r in rounds) / len(rounds)
            out[metric] = setup.get(layer, [0, 0.0, 0.0])[col] + per_round
        return out
