import math

import numpy as np
import pytest

from weylab.discretize import FourierTruncation, assemble_perturbation
from weylab.errors import BoundViolation
from weylab.randomness import (CoefficientLaw, SeedSpec, default_sigma_rule,
                               empirical_tail, load_draw, sample_draw,
                               save_draw, sigma_of, sup_norm_estimate)


def law(rho=1.5, K_q=8, n=1, alpha_max=0, **kw):
    return CoefficientLaw(alpha_min=0, alpha_max=alpha_max, n=n,
                          rho_decay=rho, K_q=K_q, **kw)


class TestLaw:
    def test_default_rule(self):
        rule = default_sigma_rule(2.0)
        assert rule(0, 0, 0, 0, 0.1) == 1.0
        assert rule(0, 0, 0, 3, 0.1) == pytest.approx(1.0 / 10.0)

    def test_rho_must_exceed_one(self):
        with pytest.raises(ValueError):
            law(rho=1.0)

    def test_rule_cap_enforced(self):
        with pytest.raises(BoundViolation):
            CoefficientLaw(alpha_min=0, alpha_max=0, n=1, rho_decay=2.0,
                           sigma_rule=lambda a, i, j, k, h: 1.0)

    def test_rule_floor_enforced_at_top_order(self):
        # vanishing variance at the top perturbation order is rejected
        with pytest.raises(BoundViolation):
            CoefficientLaw(alpha_min=0, alpha_max=1, n=1, rho_decay=2.0,
                           sigma_rule=lambda a, i, j, k, h:
                           0.0 if a == 1 else (1 + k * k) ** -1.0)

    def test_sigma_of_range_check(self):
        lw = law()
        assert sigma_of(lw, 0, 0, 0, 2, 1.0) == pytest.approx(5.0 ** -0.75)
        with pytest.raises(ValueError):
            sigma_of(lw, 1, 0, 0, 0, 1.0)

    def test_tail_mass_decreases_with_cutoff(self):
        lw = law(rho=2.0)
        t8 = lw.tail_mass(8)
        t16 = lw.tail_mass(16)
        assert 0.0 < t16 < t8
        # against the integral bound sum_{k>K} k^-2 ~ 1/K
        assert t8 < 2.0 * 2.0 / 8.0 * 1.5


class TestSampling:
    def test_reproducible(self):
        lw = law()
        a = sample_draw(lw, SeedSpec(11, "exp", 3), 0.5)
        b = sample_draw(lw, SeedSpec(11, "exp", 3), 0.5)
        assert a.coeffs == b.coeffs

    def test_streams_differ(self):
        lw = law()
        a = sample_draw(lw, SeedSpec(11, "exp", 3), 0.5)
        for spec in (SeedSpec(12, "exp", 3), SeedSpec(11, "exp", 4),
                     SeedSpec(11, "other", 3)):
            b = sample_draw(lw, spec, 0.5)
            assert a.coeffs != b.coeffs

    def test_coefficient_count_and_tail_record(self):
        lw = law(K_q=8, n=2, alpha_max=0)
        d = sample_draw(lw, SeedSpec(0), 1.0)
        assert len(d.coeffs) == 4 * 17
        assert d.tail_mass == pytest.approx(lw.tail_mass())

    def test_moments(self):
        # E(Re q)^2 = E(Im q)^2 = sigma^2/2, E(Re q Im q) = 0, within 3 SE
        lw = law(K_q=2)
        n_samples = 10000
        k = 1
        sigma2 = (1 + k * k) ** -1.5
        re = np.empty(n_samples)
        im = np.empty(n_samples)
        for t in range(n_samples):
            q = sample_draw(lw, SeedSpec(99, "mom", t), 1.0).coeffs[(0, 0, 0, k)]
            re[t], im[t] = q.real, q.imag
        se = sigma2 / math.sqrt(n_samples)
        assert abs(np.mean(re ** 2) - sigma2 / 2) < 3 * se
        assert abs(np.mean(im ** 2) - sigma2 / 2) < 3 * se
        assert abs(np.mean(re * im)) < 3 * se

    def test_sup_norm_estimate_bounds_sup(self):
        lw = law(K_q=8)
        d = sample_draw(lw, SeedSpec(4, "sup", 0), 1.0)
        xs = np.linspace(0, 2 * math.pi, 512)
        vals = sum(q * np.exp(1j * k * xs) / math.sqrt(2 * math.pi)
                   for (_, _, _, k), q in d.coeffs.items())
        assert np.max(np.abs(vals)) <= sup_norm_estimate(d) + 1e-12

    def test_assembled_coefficient_scaling(self):
        # Q = sum_k q_k e^{ikx} / sqrt(2 pi): frequency 1 maps mode 0 to 1
        lw = law(K_q=2)
        d = sample_draw(lw, SeedSpec(4, "map", 0), 1.0)
        t = FourierTruncation(K=2, n=1, h=1.0)
        mat = assemble_perturbation(d, t, 1.0).entries
        q = d.coeffs[(0, 0, 0, 1)]
        assert mat[t.index(0, 1), t.index(0, 0)] \
            == pytest.approx(q / math.sqrt(2 * math.pi))


class TestTail:
    def test_dominance_on_fresh_sample(self):
        lw = law(rho=1.5, K_q=16)
        trials = 400
        thresholds = (3.0, 4.0, 5.0, 6.0, 8.0)
        fit = empirical_tail(lw, seed=7, trials=trials, thresholds=thresholds)
        fresh = empirical_tail(lw, seed=8, trials=trials,
                               thresholds=thresholds)
        l1, linf = fit.sigma_l1, fit.sigma_linf
        for x, frac in zip(thresholds, fresh.fractions):
            bound = min(1.0, math.exp(fit.c0 * l1 / (2 * linf)
                                      - x * x / (2 * linf * l1)))
            se = math.sqrt(max(frac * (1 - frac), 1.0 / trials) / trials)
            assert frac <= bound + 3 * se

    def test_needs_enough_trials(self):
        with pytest.raises(ValueError):
            empirical_tail(law(), seed=0, trials=10, thresholds=(1.0,))


class TestReplay:
    def test_save_load_roundtrip(self, tmp_path):
        lw = law(K_q=4, n=2)
        d = sample_draw(lw, SeedSpec(21, "io", 0), 0.5)
        path = tmp_path / "draw.txt"
        save_draw(d, path)
        back = load_draw(path, lw, d.seed_record, 0.5)
        assert back.coeffs == d.coeffs
        assert sup_norm_estimate(back) == pytest.approx(sup_norm_estimate(d))
