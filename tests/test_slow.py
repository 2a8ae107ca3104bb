"""The slow tier: studies too long for every run of the suite.

``pytest -m slow`` runs them; the default ``addopts`` deselect them.
"""

import math

import pytest

from weylab import harness
from weylab.domains import Rectangle
from weylab.harness import ExperimentConfig, run_semiclassical
from weylab.randomness import CoefficientLaw


def _config(f2, K_q, h_list, trials, seed):
    return ExperimentConfig(
        sym=f2, law=CoefficientLaw(alpha_min=0, alpha_max=0, n=1,
                                   rho_decay=1.2, K_q=K_q),
        domains=[Rectangle(0.1, 0.7, -0.5, 0.5)], mode="semiclassical",
        h_list=h_list, trials=trials, seed=seed)


# sc-weyl's config, the README's, at five seeds; the envelope-band config;
# and a K_q = 16 config whose pilots' positions settle only at h = 0.1
CONFIGS = {
    **{str(seed): (128, (0.1, 0.07, 0.05), 200, seed)
       for seed in (1, 7, 42, 2718, 9001)},
    "envelope": (256, (0.05, 0.035, 0.025), 60, 42),
    "K_q16": (16, (0.1, 0.07, 0.05), 40, 3),
}
KEYS = ("K", "K_count", "K_tried", "certified", "settled_by", "resolved")


# trials counted at K_count, or solved again at K where an eigenvalue lies
# near the boundary, count the N that every trial counts at the positional
# K; a zero flag cap stops the count rule, so the reference climbs the
# ladder until the positions settle, or falls back to the rule's K
@pytest.mark.slow
@pytest.mark.parametrize("name", list(CONFIGS))
def test_count_truncation_keeps_every_N(f2, monkeypatch, name):
    cfg = _config(f2, *CONFIGS[name])
    rep = run_semiclassical(cfg)
    monkeypatch.setattr(harness, "SC_FLAG_CAP", 0.0)
    at_K = run_semiclassical(cfg)
    for h in cfg.h_list:
        t, ref = rep.extras["truncation"][h], at_K.extras["truncation"][h]
        assert ref["settled_by"] != "counts"
        assert ref["K_count"] == ref["K"] and ref["resolved"] == []
        if t["settled_by"] == "counts":
            assert t["K"] == math.ceil(1.5 * t["K_count"])
            assert t["K_tried"] == ref["K_tried"][:len(t["K_tried"])]
        else:
            assert [t[k] for k in KEYS] == [ref[k] for k in KEYS]
    assert [(r.param, r.trial, r.N) for r in rep.records] == [
        (r.param, r.trial, r.N) for r in at_K.records]
