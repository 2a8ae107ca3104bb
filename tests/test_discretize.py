import math

import numpy as np
import pytest

from weylab import discretize, randomness
from weylab.discretize import (FourierTruncation, OperatorMatrix,
                               SobolevWeights, assemble_operator,
                               assemble_perturbation, eigenpairs, eigenvalues,
                               formal_adjoint, load_matrix,
                               operator_norm_Hm_to_L2, perturbed_operator,
                               perturbed_symbol, save_matrix, sigma_min_map,
                               truncation_convergence)
from weylab.domains import Rectangle
from weylab.errors import BandwidthExceeded
from weylab.randomness import CoefficientLaw, SeedSpec, sample_draw


def small_law(n=1, K_q=3, rho=1.5):
    return CoefficientLaw(alpha_min=0, alpha_max=0, n=n, rho_decay=rho,
                          K_q=K_q)


class TestTruncation:
    def test_layout(self):
        t = FourierTruncation(K=2, n=2, h=0.5)
        assert t.side == 10
        assert list(t.modes) == [-2, -1, 0, 1, 2]
        assert t.index(0, -2) == 0
        assert t.index(1, 2) == 9

    def test_bad_h(self):
        with pytest.raises(ValueError):
            FourierTruncation(K=2, n=1, h=0.0)

    def test_bandwidth_guard(self, f1):
        with pytest.raises(BandwidthExceeded):
            assemble_operator(f1, FourierTruncation(K=1, n=1, h=0.5))


class TestAssembly:
    def test_f1_triangular_exact_spectrum(self, f1):
        mat = assemble_operator(f1, FourierTruncation(K=2, n=1, h=0.1))
        vals = eigenvalues(mat)
        assert np.array_equal(vals, np.array([-0.2, -0.1, 0.0, 0.1, 0.2],
                                             dtype=complex))

    def test_f4_nilpotent(self, f4):
        mat = assemble_operator(f4, FourierTruncation(K=6, n=1, h=1.0))
        assert np.all(eigenvalues(mat) == 0.0)

    def test_multiplication_band_action(self, f1):
        # coefficient e^{ix} must shift frequency k -> k+1
        t = FourierTruncation(K=3, n=1, h=0.5)
        mat = assemble_operator(f1, t).entries
        e_k = np.zeros(t.side)
        e_k[t.index(0, 0)] = 1.0
        out = mat @ e_k
        expect = np.zeros(t.side, dtype=complex)
        expect[t.index(0, 1)] = 1.0   # e^{ix} * 1
        expect[t.index(0, 0)] = 0.0   # (hD) 1 = 0
        assert np.allclose(out, expect)

    def test_matrix_fixture_block_structure(self, f3):
        t = FourierTruncation(K=2, n=2, h=0.5)
        mat = assemble_operator(f3, t).entries
        nb = 2 * t.K + 1
        # lower-left block of the triangular system is zero
        assert np.all(mat[nb:, :nb] == 0.0)
        # upper-right block is the identity coupling
        assert np.allclose(mat[:nb, nb:], np.eye(nb))


class TestPerturbation:
    def test_linearity_with_symbol_route(self, f1):
        t = FourierTruncation(K=8, n=1, h=0.5)
        draw = sample_draw(small_law(), SeedSpec(5, "lin", 0), 0.5)
        delta = 0.37
        a = assemble_operator(f1, t).entries \
            + assemble_perturbation(draw, t, delta).entries
        b = assemble_operator(perturbed_symbol(f1, draw, delta), t).entries
        assert np.allclose(a, b, atol=1e-14)

    def test_delta_zero_is_zero(self, f1):
        t = FourierTruncation(K=4, n=1, h=0.5)
        draw = sample_draw(small_law(), SeedSpec(5, "lin", 0), 0.5)
        assert np.all(assemble_perturbation(draw, t, 0.0).entries == 0.0)

    def test_high_frequencies_dropped(self):
        t = FourierTruncation(K=2, n=1, h=0.5)
        law = small_law(K_q=9)
        draw = sample_draw(law, SeedSpec(5, "hi", 0), 0.5)
        full = assemble_perturbation(draw, t, 1.0).entries
        kept = {key: q for key, q in draw.coeffs.items()
                if abs(key[3]) <= 2 * t.K}
        trimmed = randomness.PerturbationDraw(
            coeffs=kept, seed_record=draw.seed_record, law=law, h=0.5,
            tail_mass=draw.tail_mass)
        assert np.allclose(full,
                           assemble_perturbation(trimmed, t, 1.0).entries)

    def test_scaling_in_delta(self, f1):
        t = FourierTruncation(K=4, n=1, h=0.5)
        draw = sample_draw(small_law(), SeedSpec(5, "lin", 0), 0.5)
        one = assemble_perturbation(draw, t, 1.0).entries
        two = assemble_perturbation(draw, t, 2.0).entries
        assert np.allclose(two, 2.0 * one)


# The mask-loop assembler the Toeplitz gather replaced: one side^2 mask per
# coefficient.  The gather must reproduce it bit for bit (term order, the
# (hk)^alpha weights, the |k| > 2K drop and the final delta).

def _mask_band(coeffs, modes):
    side = len(modes)
    out = np.zeros((side, side), dtype=complex)
    diff = modes[:, None] - modes[None, :]
    for j, c in coeffs.items():
        out[diff == j] += c
    return out


def _mask_operator(sym, trunc):
    modes = trunc.modes
    nb = len(modes)
    out = np.zeros((trunc.side, trunc.side), dtype=complex)
    hk = trunc.h * modes
    for i in range(sym.n):
        for j in range(sym.n):
            block = np.zeros((nb, nb), dtype=complex)
            xipow = np.ones(nb)
            for a in range(sym.m + 1):
                poly = sym.coeffs[a][i][j]
                if not poly.is_zero():
                    block += _mask_band(poly.coefficients, modes) \
                        * xipow[None, :]
                xipow = xipow * hk
            out[i * nb:(i + 1) * nb, j * nb:(j + 1) * nb] = block
    return out


def _mask_perturbation(draw, trunc, delta):
    modes = trunc.modes
    nb = len(modes)
    out = np.zeros((trunc.side, trunc.side), dtype=complex)
    hk = trunc.h * modes
    by_entry = {}
    for (alpha, i, j, k), q in draw.coeffs.items():
        if abs(k) > 2 * trunc.K:
            continue
        by_entry.setdefault((alpha, i, j), {})[k] = q / randomness.SQRT_2PI
    for (alpha, i, j), cmap in by_entry.items():
        band = _mask_band(cmap, modes)
        out[i * nb:(i + 1) * nb, j * nb:(j + 1) * nb] += \
            band * (hk ** alpha)[None, :]
    out *= delta
    return out


def _identical(a, b):
    """Equal values and equal bits (signs of zeros included)."""
    return np.array_equal(a, b) and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


class TestGatherKernel:
    @pytest.mark.parametrize("K,h", [(2, 1.0), (5, 0.3), (16, 0.1),
                                     (57, 0.05)])
    def test_operator_matches_mask_loop(self, f1, f2, f3, f4, K, h):
        # F2 + delta*Q with orders 0..2 puts three random terms into one
        # block, where the order of addition shows in the last bits
        law = CoefficientLaw(alpha_min=0, alpha_max=2, n=1, rho_decay=1.5,
                             K_q=K - 1)
        draw = sample_draw(law, SeedSpec(8, "gather", K), h)
        for sym in (f1, f2, f3, f4, perturbed_symbol(f2, draw, 0.3)):
            t = FourierTruncation(K=K, n=sym.n, h=h)
            assert _identical(assemble_operator(sym, t).entries,
                              _mask_operator(sym, t))

    @pytest.mark.parametrize("n,alpha_max,K_q,K", [
        (1, 0, 40, 8),      # K_q > 2K: coefficients dropped
        (2, 1, 12, 9),      # orders 0..1 of an n = 2, m = 2 system
        (2, 2, 12, 9),      # three orders into each block
    ])
    def test_perturbation_matches_mask_loop(self, n, alpha_max, K_q, K):
        law = CoefficientLaw(alpha_min=0, alpha_max=alpha_max, n=n,
                             rho_decay=1.2, K_q=K_q)
        t = FourierTruncation(K=K, n=n, h=0.07)
        for trial in range(3):
            draw = sample_draw(law, SeedSpec(4, "gather", trial), t.h)
            for delta in (1.0, 3.7e-4):
                assert _identical(
                    assemble_perturbation(draw, t, delta).entries,
                    _mask_perturbation(draw, t, delta))

    def test_trial_matrix_matches_mask_loop(self, f3):
        law = CoefficientLaw(alpha_min=0, alpha_max=0, n=2, rho_decay=1.5,
                             K_q=30)
        t = FourierTruncation(K=10, n=2, h=0.1)
        draw = sample_draw(law, SeedSpec(2, "gather", 0), t.h)
        mat = perturbed_operator(assemble_operator(f3, t), draw, 2e-3)
        assert _identical(mat.entries, _mask_operator(f3, t)
                          - _mask_perturbation(draw, t, 2e-3))


class TestAdjoint:
    @pytest.mark.parametrize("h", [1.0, 0.3, 0.05])
    def test_adjoint_compatibility(self, f1, f2, f3, h):
        for sym in (f1, f2, f3):
            t = FourierTruncation(K=5, n=sym.n, h=h)
            direct = assemble_operator(sym, t).entries.conj().T
            via_symbol = assemble_operator(formal_adjoint(sym, h), t).entries
            assert np.allclose(direct, via_symbol, atol=1e-13)

    def test_adjoint_involution(self, f2):
        h = 0.2
        twice = formal_adjoint(formal_adjoint(f2, h), h)
        t = FourierTruncation(K=5, n=1, h=h)
        assert np.allclose(assemble_operator(twice, t).entries,
                           assemble_operator(f2, t).entries, atol=1e-13)


class TestEigen:
    def test_eigenpairs_backward_error(self, f2):
        t = FourierTruncation(K=10, n=1, h=0.2)
        mat = assemble_operator(f2, t)
        vals, vecs = eigenpairs(mat)
        norm = np.linalg.norm(mat.entries, 2)
        for lam, v in zip(vals, vecs.T):
            assert (np.linalg.norm(mat.entries @ v - lam * v)
                    <= 1e-8 * norm * np.linalg.norm(v))

    def test_ordering(self, f2):
        t = FourierTruncation(K=6, n=1, h=0.3)
        vals = eigenvalues(assemble_operator(f2, t))
        key = sorted(vals, key=lambda z: (z.real, z.imag))
        assert np.array_equal(vals, np.array(key))

    def test_count_conservation(self, f2):
        t = FourierTruncation(K=6, n=1, h=0.3)
        mat = assemble_operator(f2, t)
        big = 1e6
        gamma = Rectangle(-1.0, 1.0, -1.0, 1.0)
        vals = eigenvalues(mat)
        inside = np.count_nonzero(gamma.contains_many(vals))
        total = np.count_nonzero(
            Rectangle(-big, big, -big, big).contains_many(vals))
        assert total == t.side
        assert 0 <= inside <= total

    def test_bit_stable(self, f2):
        t = FourierTruncation(K=8, n=1, h=0.2)
        a = eigenvalues(assemble_operator(f2, t))
        b = eigenvalues(assemble_operator(f2, t))
        assert np.array_equal(a, b)


class TestNorms:
    def test_sobolev_weights(self):
        w = SobolevWeights(m=2, h=0.5, K=2)
        k = np.arange(-2, 3)
        expect = np.sqrt(1 + (0.5 * k) ** 2 + (0.5 * k) ** 4)
        assert np.allclose(w.weights, expect)

    def test_operator_norm_vs_direct(self, f2):
        t = FourierTruncation(K=5, n=1, h=0.4)
        mat = assemble_operator(f2, t)
        w = SobolevWeights(m=2, h=0.4, K=5)
        direct = np.linalg.svd(mat.entries @ np.diag(1.0 / w.weights),
                               compute_uv=False)[0]
        assert operator_norm_Hm_to_L2(mat, w) == pytest.approx(direct)

    def test_weight_mismatch(self, f2):
        t = FourierTruncation(K=5, n=1, h=0.4)
        mat = assemble_operator(f2, t)
        with pytest.raises(ValueError):
            operator_norm_Hm_to_L2(mat, SobolevWeights(m=2, h=0.4, K=4))


class TestConvergenceAndMaps:
    def test_truncation_convergence(self, f1):
        gamma = Rectangle(-0.4, 0.4, -0.4, 0.4)
        draw = sample_draw(small_law(), SeedSpec(3, "tc", 0), 0.2)
        rep = truncation_convergence(f1, 0.2, gamma, draw, 1e-4,
                                     [16, 24, 32])
        assert rep.K_list == (16, 24, 32)
        assert len(rep.counts) == 3
        assert rep.stabilized

    def test_truncation_convergence_counts_driver_matrix(self, f2):
        # the semiclassical driver counts P - delta*Q_omega; the convergence
        # probe must count the same matrix for the same draw and K
        from weylab.harness import ExperimentConfig, run_semiclassical
        h = 0.1
        law = small_law(K_q=16, rho=1.2)
        gamma = Rectangle(0.1, 0.7, -0.5, 0.5)
        cfg = ExperimentConfig(sym=f2, law=law, domains=[gamma],
                               mode="semiclassical", h_list=(h,), trials=3,
                               seed=3)
        rep = run_semiclassical(cfg)
        delta = rep.extras["delta"][h]
        for r in rep.records:
            draw = sample_draw(law, SeedSpec(3, f"sc:{h!r}", r.trial), h)
            conv = truncation_convergence(f2, h, gamma, draw, delta, [r.K])
            assert conv.counts == (r.N,)

    def test_sigma_min_small_at_eigenvalue(self, f1):
        t = FourierTruncation(K=8, n=1, h=0.25)
        mat = assemble_operator(f1, t)
        lam = eigenvalues(mat)[3]
        grid = np.array([[lam, 5.0 + 5.0j]])
        smap = sigma_min_map(f1, 0.25, t, grid)
        assert smap[0, 0] < 1e-10
        assert smap[0, 1] > 1.0   # far from the spectrum and pseudospectrum

    def test_save_load_roundtrip(self, f3, tmp_path):
        t = FourierTruncation(K=3, n=2, h=0.5)
        mat = assemble_operator(f3, t)
        path = tmp_path / "mat.txt"
        save_matrix(mat, path)
        back = load_matrix(path)
        assert back.trunc == t
        assert np.array_equal(back.entries, mat.entries)
