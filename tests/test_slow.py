"""The slow tier: studies too long for every run of the suite.

``pytest -m slow`` runs them; the default ``addopts`` deselect them.
"""

import pytest

from weylab import harness
from weylab.domains import Rectangle
from weylab.harness import ExperimentConfig, run_semiclassical
from weylab.randomness import CoefficientLaw


# sc-weyl's config, the README's: trials counted at K_count, or solved
# again at K where an eigenvalue lies near the boundary, count the N that
# every trial counts at K; a zero flag cap leaves no candidate below K
@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 7, 42, 2718, 9001])
def test_count_truncation_keeps_every_N(f2, monkeypatch, seed):
    cfg = ExperimentConfig(
        sym=f2, law=CoefficientLaw(alpha_min=0, alpha_max=0, n=1,
                                   rho_decay=1.2, K_q=128),
        domains=[Rectangle(0.1, 0.7, -0.5, 0.5)], mode="semiclassical",
        h_list=(0.1, 0.07, 0.05), trials=200, seed=seed)
    rep = run_semiclassical(cfg)
    monkeypatch.setattr(harness, "SC_FLAG_CAP", 0.0)
    at_K = run_semiclassical(cfg)
    for h in cfg.h_list:
        t, ref = rep.extras["truncation"][h], at_K.extras["truncation"][h]
        assert t["K_count"] < t["K"] == ref["K"] == ref["K_count"]
        assert ref["resolved"] == []
    assert [(r.param, r.trial, r.N) for r in rep.records] == [
        (r.param, r.trial, r.N) for r in at_K.records]
