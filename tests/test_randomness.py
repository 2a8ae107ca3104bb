import math

import numpy as np
import pytest

from weylab import randomness
from weylab.discretize import FourierTruncation, assemble_perturbation
from weylab.randomness import (CoefficientLaw, SeedSpec, empirical_tail,
                               sample_draw)


def law(rho=1.5, K_q=8, n=1, alpha_max=0, **kw):
    return CoefficientLaw(alpha_min=0, alpha_max=alpha_max, n=n,
                          rho_decay=rho, K_q=K_q, **kw)


class TestLaw:
    def test_default_rule(self):
        lw = law(rho=2.0)
        assert lw.sigma_rule(0, 0, 0, 0, 0.1) == 1.0
        assert lw.sigma_rule(0, 0, 0, 3, 0.1) == pytest.approx(1.0 / 10.0)
        ks = np.arange(-4, 5)
        assert np.array_equal(lw.sigma_rule(0, 0, 0, ks, 0.1),
                              [(1.0 + k * k) ** -1.0 for k in ks])

    def test_rho_must_exceed_one(self):
        with pytest.raises(ValueError):
            law(rho=1.0)


class TestSampling:
    def test_reproducible(self):
        lw = law()
        a = sample_draw(lw, SeedSpec(11, "exp", 3), 0.5)
        b = sample_draw(lw, SeedSpec(11, "exp", 3), 0.5)
        assert a.q.tobytes() == b.q.tobytes()

    def test_streams_differ(self):
        lw = law()
        a = sample_draw(lw, SeedSpec(11, "exp", 3), 0.5)
        for spec in (SeedSpec(12, "exp", 3), SeedSpec(11, "exp", 4),
                     SeedSpec(11, "other", 3)):
            b = sample_draw(lw, spec, 0.5)
            assert not np.array_equal(a.q, b.q)

    def test_coefficient_count_and_order(self):
        lw = law(K_q=8, n=2, alpha_max=0)
        d = sample_draw(lw, SeedSpec(0), 1.0)
        assert d.q.shape == (1, 2, 2, 17)
        assert len(d.coeffs) == 4 * 17
        assert list(d.coeffs) == [(0, i, j, k) for i in range(2)
                                  for j in range(2) for k in range(-8, 9)]
        assert d.coeffs[(0, 1, 0, -8)] == d.q[0, 1, 0, 0]
        with pytest.raises(TypeError):
            d.coeffs[(0, 0, 0, 0)] = 0.0

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

    def test_assembled_coefficient_scaling(self):
        # Q = sum_k q_k e^{ikx} / sqrt(2 pi): frequency 1 maps mode 0 to 1
        lw = law(K_q=2)
        d = sample_draw(lw, SeedSpec(4, "map", 0), 1.0)
        t = FourierTruncation(K=2, n=1, h=1.0)
        mat = assemble_perturbation(d, t, 1.0).entries
        q = d.coeffs[(0, 0, 0, 1)]
        assert mat[t.K + 1, t.K] \
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
        # the (alpha, i, j, k) -> q listing replays the draw exactly
        lw = law(K_q=4, n=2)
        d = sample_draw(lw, SeedSpec(21, "io", 0), 0.5)
        path = tmp_path / "draw.txt"
        path.write_text("".join(f"{a} {i} {j} {k} {q.real!r} {q.imag!r}\n"
                                for (a, i, j, k), q in d.coeffs.items()))
        q = np.zeros(d.q.shape, dtype=complex)
        for line in path.read_text().split("\n")[:-1]:
            a, i, j, k, re, im = line.split()
            q[int(a), int(i), int(j), int(k) + lw.K_q] = complex(float(re),
                                                                float(im))
        back = randomness.PerturbationDraw(q=q, seed_record=d.seed_record,
                                           law=lw)
        assert back.q.tobytes() == d.q.tobytes()
        t = FourierTruncation(K=5, n=2, h=0.5)
        assert assemble_perturbation(back, t, 0.3).entries.tobytes() \
            == assemble_perturbation(d, t, 0.3).entries.tobytes()


# The per-k sampling loop the vectorized sample_draw replaced: one Python
# float power per k and one complex per coefficient.  The draw must equal it
# byte for byte.

def _loop_draw(law, spec, h):
    ks = np.arange(-law.K_q, law.K_q + 1)
    out = []
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for alpha in range(law.alpha_min, law.alpha_max + 1):
        for i in range(law.n):
            for j in range(law.n):
                normals = randomness._unit_normals(spec, alpha, i, j,
                                                   2 * len(ks))
                sig = np.array([(1.0 + int(k) * int(k)) ** (-law.rho_decay / 2.0)
                                for k in ks])
                re = normals[0::2] * sig * inv_sqrt2
                im = normals[1::2] * sig * inv_sqrt2
                out += [complex(re[idx], im[idx]) for idx in range(len(ks))]
    return np.array(out)


class TestDrawIdentity:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("K_q", [8, 128])
    @pytest.mark.parametrize("rho", [1.1, 1.2, 1.5])
    def test_draw_matches_per_k_loop(self, n, K_q, rho):
        lw = CoefficientLaw(alpha_min=0, alpha_max=1, n=n, rho_decay=rho,
                            K_q=K_q)
        for trial in range(2):
            spec = SeedSpec(31, "identity", trial)
            d = sample_draw(lw, spec, 0.1)
            ref = _loop_draw(lw, spec, 0.1)
            assert d.q.ravel().tobytes() == ref.tobytes()
            assert np.array(list(d.coeffs.values())).tobytes() \
                == ref.tobytes()
