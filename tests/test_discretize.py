import math

import numpy as np
import pytest
import scipy.linalg

from weylab import discretize, harness, randomness, symbol
from weylab.discretize import (FourierTruncation, OperatorMatrix,
                               assemble_operator, assemble_perturbation,
                               eigenvalues, formal_adjoint,
                               perturbed_operator, save_matrix, sigma_min_map)
from weylab.domains import Rectangle
from weylab.errors import BandwidthExceeded
from weylab.randomness import CoefficientLaw, SeedSpec, sample_draw

from helpers import perturbed_symbol, read_matrix


def small_law(n=1, K_q=3, rho=1.5):
    return CoefficientLaw(alpha_min=0, alpha_max=0, n=n, rho_decay=rho,
                          K_q=K_q)


class TestTruncation:
    def test_layout(self):
        t = FourierTruncation(K=2, n=2, h=0.5)
        assert t.side == 10
        assert list(t.modes) == [-2, -1, 0, 1, 2]

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
        e_k[t.K] = 1.0                # mode k sits at row k + K
        out = mat @ e_k
        expect = np.zeros(t.side, dtype=complex)
        expect[t.K + 1] = 1.0         # e^{ix} * 1
        expect[t.K] = 0.0             # (hD) 1 = 0
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
        kept = 2 * t.K
        trimmed = randomness.PerturbationDraw(
            q=draw.q[..., law.K_q - kept:law.K_q + kept + 1],
            seed_record=draw.seed_record,
            law=small_law(K_q=kept))
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
                row = sym.coeffs[a, i, j]
                poly = {f - len(row) // 2: c for f, c in enumerate(row)
                        if c != 0}
                if poly:
                    block += _mask_band(poly, modes) * xipow[None, :]
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
        by_entry.setdefault((alpha, i, j), {})[k] = q / symbol.SQRT_2PI
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

    def test_non_finite_entry_is_value_error(self):
        entries = np.eye(3, dtype=complex)
        entries[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            eigenvalues(OperatorMatrix(entries,
                                       FourierTruncation(K=1, n=1, h=1.0)))

    # trial matrices of the README run (F2, rho = 1.2, K_q = 128, at its
    # certified K) and of the high-energy ladder (F4, rho = 1.1, K_q = 32,
    # its certified K and the finer pilot solve); perfbench re-solves trials
    # with scipy, so its checks rely on this too
    @pytest.mark.parametrize("sym, rho, K_q, h, K", [
        ("f2", 1.2, 128, 0.1, 32), ("f2", 1.2, 128, 0.07, 41),
        ("f2", 1.2, 128, 0.05, 54), ("f4", 1.1, 32, 1.0, 160),
        ("f4", 1.1, 32, 1.0, 320)])
    def test_same_spectrum_as_scipy(self, request, sym, rho, K_q, h, K):
        law = CoefficientLaw(alpha_min=0, alpha_max=0, n=1, rho_decay=rho,
                             K_q=K_q)
        if h < 1.0:
            spec, delta = (SeedSpec(42, f"sc:{h!r}", 0),
                           harness.default_delta(h, rho, 0.25, 3.0))
        else:
            spec, delta = SeedSpec(1, "he", 0), 1.0
        mat = perturbed_operator(
            assemble_operator(request.getfixturevalue(sym),
                              FourierTruncation(K=K, n=1, h=h)),
            sample_draw(law, spec, h), delta)
        ref = scipy.linalg.eigvals(mat.entries)
        ref = ref[np.lexsort((ref.imag, ref.real))]
        assert eigenvalues(mat).tobytes() == ref.tobytes()


class TestNorms:
    def test_operator_norm_vs_direct(self, f2):
        # sigma_min(P - z) = 1 / ||(P - z)^{-1}||, from a direct SVD
        t = FourierTruncation(K=5, n=1, h=0.4)
        mat = assemble_operator(f2, t).entries
        z = np.array([0.3 + 0.1j, -0.2j])
        direct = [np.linalg.svd(mat - zz * np.eye(t.side),
                                compute_uv=False)[-1] for zz in z]
        assert np.array_equal(sigma_min_map(f2, 0.4, t, z), direct)
        assert sigma_min_map(f2, 0.4, t, z)[0] == pytest.approx(
            1.0 / np.linalg.norm(np.linalg.inv(mat - z[0] * np.eye(t.side)),
                                 2))


class TestConvergenceAndMaps:
    def test_truncation_convergence(self, f1):
        # certification on F1 from K = 2, where two of three pilots miscount:
        # K grows until the pilots' eigenvalues in Gamma settle between K and
        # ceil(1.5 K)
        h, delta = 0.2, 1e-4
        gamma = Rectangle(-0.4, 0.4, -0.4, 0.4)
        draws = [sample_draw(small_law(), SeedSpec(3, "tc", t), h)
                 for t in range(3)]

        def solve(K, checking=None):
            base = assemble_operator(f1, FourierTruncation(K=K, n=1, h=h))
            return [eigenvalues(perturbed_operator(base, d, delta))
                    for d in draws]

        def counts(spectra):
            return [int(np.count_nonzero(gamma.contains_many(e)))
                    for e in spectra]

        K, K_count, verdicts, tried, mu = harness.certify_truncation(
            solve, [gamma], 2, harness.SC_GROWTH, harness.SC_SETTLE_TOL, 64)
        assert verdicts == [True] and (K_count, mu) == (K, None)
        assert tried[0] == 2 and K > 2
        assert all(b == math.ceil(1.5 * a) for a, b in zip(tried, tried[1:]))
        assert tried[-1] == math.ceil(1.5 * K)
        spectra = solve(K)
        assert counts(solve(2)) != counts(spectra)
        assert counts(solve(2 * K)) == counts(spectra)
        assert counts(solve(3 * K)) == counts(spectra)

    def test_truncation_convergence_counts_driver_matrix(self, f2):
        # every row's N is the count of P - delta*Q_omega assembled at that
        # row's certified K, for the same draw
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
            base = assemble_operator(f2, FourierTruncation(K=r.K, n=1, h=h))
            eigs = eigenvalues(perturbed_operator(base, draw, delta))
            assert np.count_nonzero(gamma.contains_many(eigs)) == r.N

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
        back = read_matrix(path)
        assert back.trunc == t
        assert np.array_equal(back.entries, mat.entries)
