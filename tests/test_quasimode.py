import gc
import json
import math
import weakref

import numpy as np
import pytest

from weylab import cli, discretize, harness, quasimode, symbol
from weylab.discretize import FourierTruncation, OperatorMatrix, assemble_operator
from weylab.errors import CutoffTooWide, MultipleEigenvalue
from weylab.quasimode import (build_adjoint_quasimode,
                              build_quasimode, fourier_coefficients,
                              leading_amplitude, locate_branch,
                              overlap_profile, overlap_variance, residual,
                              solve_eikonal)
from weylab.randomness import CoefficientLaw

TWO_PI = 2.0 * math.pi


def plus_root(sym, z):
    inv = symbol.find_roots(sym, z)
    return inv, [r for r in inv.roots if r.sign == "plus"][0]


def minus_root(sym, z):
    inv = symbol.find_roots(sym, z)
    return inv, [r for r in inv.roots if r.sign == "minus"][0]


def l2_norm(q):
    return math.sqrt(np.sum(np.abs(q.samples) ** 2) * (TWO_PI / len(q.x)))


def shifted(sym, z, h, K=None):
    """Truncation of P - z."""
    if K is None:
        K = int(math.ceil(2 * symbol.xi_window(sym, abs(z)) / h)) \
            + 2 * sym.max_bandwidth()
    t = FourierTruncation(K=K, n=sym.n, h=h)
    mat = assemble_operator(sym, t)
    return OperatorMatrix(mat.entries - z * np.eye(t.side), t)


class TestBranch:
    def test_scalar_branch_exact(self, f1):
        _, root = plus_root(f1, 0.0)
        br = locate_branch(f1, 0.0, root)
        x, xi = 2.5, 0.7 + 0.2j
        value, dxi = br.value_dxi(x, xi)
        assert abs(value - (xi + np.exp(1j * x))) < 1e-14
        assert abs(dxi - 1.0) < 1e-14

    def test_matrix_branch_derivatives(self, f3):
        z = 0.2 + 0.3j
        inv = symbol.find_roots(f3, z)
        root = [r for r in inv.roots if r.sign == "plus"][0]
        br = locate_branch(f3, z, root)
        # the tracked branch of F3 is xi + e^{ix} near its plus-root
        x, xi = root.point.x + 0.1, root.point.xi + 0.05
        value, dxi = br.value_dxi(x, xi)
        assert abs(value - (xi + np.exp(1j * x))) < 1e-12
        assert abs(dxi - 1.0) < 1e-10

    def test_mismatched_root_rejected(self, f1):
        bad = symbol.ClassifiedRoot(symbol.PhaseSpacePoint(1.0, 1.0),
                                    "plus", 1.0)
        with pytest.raises(ValueError):
            locate_branch(f1, 0.0, bad)

    def test_multiple_eigenvalue_detected(self):
        jordan = symbol.MatrixSymbol.from_terms(
            2, 1, [(0, 0, 1, 0, 1.0), (1, 0, 0, 0, 1.0), (1, 1, 1, 0, 1.0)])
        fake = symbol.ClassifiedRoot(symbol.PhaseSpacePoint(0.0, 0.0),
                                     "plus", 1.0)
        with pytest.raises(MultipleEigenvalue):
            locate_branch(jordan, 0.0, fake)


class TestEikonal:
    def test_f1_closed_form_phase(self, f1):
        # xi(x) = z - e^{ix}; at z=0, phi(x) = i (e^{ix} + 1) from x0 = pi
        _, root = plus_root(f1, 0.0)
        br = locate_branch(f1, 0.0, root)
        ph = solve_eikonal(br, (math.pi - 1.2, math.pi + 1.2))
        exact_xi = -np.exp(1j * ph.x_grid)
        assert np.max(np.abs(ph.xi - exact_xi)) < 1e-10
        exact_phi = 1j * (np.exp(1j * ph.x_grid) + 1.0)
        assert np.max(np.abs(ph.phi - exact_phi)) < 1e-9

    def test_f2_second_derivative(self, f2):
        _, root = plus_root(f2, 0.5)
        br = locate_branch(f2, 0.5, root)
        ph = solve_eikonal(br, (root.point.x - 1.0, root.point.x + 1.0))
        # phi'' = xi' at the root, by a central difference of the
        # continuation against implicit differentiation of the eikonal
        r = ph.root_index
        xi_slope = ((ph.xi[r + 1] - ph.xi[r - 1])
                    / (ph.x_grid[r + 1] - ph.x_grid[r - 1]))
        assert abs(xi_slope - 1j / (2.0 * math.sqrt(1.5))) < 1e-7

    def test_eikonal_residual(self, f1, f2):
        for sym, z in ((f1, 0.0), (f2, 0.5)):
            _, root = plus_root(sym, z)
            br = locate_branch(sym, z, root)
            ph = solve_eikonal(br, (root.point.x - 1.0, root.point.x + 1.0))
            values = br.value_dxi(ph.x_grid[::20], ph.xi[::20])[0]
            assert np.max(np.abs(values - z)) < 1e-8

    def test_interval_must_contain_root(self, f1):
        _, root = plus_root(f1, 0.0)
        br = locate_branch(f1, 0.0, root)
        with pytest.raises(ValueError):
            solve_eikonal(br, (root.point.x + 0.1, root.point.x + 1.0))


class TestAmplitude:
    def test_f1_amplitude_is_one(self, f1):
        _, root = plus_root(f1, 0.0)
        br = locate_branch(f1, 0.0, root)
        ph = solve_eikonal(br, (root.point.x - 1.0, root.point.x + 1.0))
        amp = leading_amplitude(br, ph)
        assert np.max(np.abs(amp - 1.0)) < 1e-12

    def test_f2_amplitude_closed_form(self, f2):
        # d_xi lambda = 2 xi, so a0 = (xi_root / xi(x))^{1/2}
        _, root = plus_root(f2, 0.5)
        br = locate_branch(f2, 0.5, root)
        ph = solve_eikonal(br, (root.point.x - 0.8, root.point.x + 0.8))
        amp = leading_amplitude(br, ph)[:, 0]
        expect = np.sqrt(root.point.xi / ph.xi)
        assert np.max(np.abs(amp - expect)) < 1e-8


    def test_matrix_phases_match_sequential_loop(self, f3):
        z = 0.2 + 0.3j
        _, root = plus_root(f3, z)
        br = locate_branch(f3, z, root)
        ph = solve_eikonal(br, (root.point.x - 0.4, root.point.x + 0.4))
        # reference: the half-density factor and the eigenvector phases
        # continued one point at a time outward from the root
        g = br.value_dxi(ph.x_grid, ph.xi)[1]
        inc = np.log(g[1:] / g[:-1])
        r = ph.root_index
        log_g = np.zeros(len(g), dtype=complex)
        log_g[r + 1:] = np.cumsum(inc[r:])
        log_g[:r] = -np.cumsum(inc[:r][::-1])[::-1]
        vecs = br.eigvec(ph.x_grid, ph.xi).T    # (points, n)
        for idx in [*range(r + 1, len(vecs)), *range(r - 1, -1, -1)]:
            c = np.vdot(vecs[idx - 1 if idx > r else idx + 1], vecs[idx])
            if c != 0:
                vecs[idx] *= abs(c) / c
        expect = np.exp(-0.5 * log_g)[:, None] * vecs
        amp = leading_amplitude(br, ph)
        assert amp.shape == (len(ph.x_grid), 2)
        assert np.max(np.abs(amp - expect)) < 1e-12

    def test_phase_continuation_restarts_at_zero_overlap(self):
        c = np.array([1j, -1.0, 0.0, 2j, 1.0 + 1j])
        expect = [-1j, 1j, 1.0, -1j, (1 - 1j) / math.sqrt(2) * -1j]
        assert np.allclose(quasimode._continued_phase(c), expect,
                           atol=1e-15)

class TestBuild:
    def test_normalized_and_positive_phase(self, f2):
        inv, root = plus_root(f2, 0.5)
        q = build_quasimode(f2, 0.5, root, 0.1, 2048, inventory=inv)
        assert l2_norm(q) == pytest.approx(1.0, abs=1e-12)
        assert q.c0_edge > 0.0
        assert q.support_radius <= math.pi / 2

    def test_plus_root_required(self, f2):
        inv, mroot = minus_root(f2, 0.5)
        with pytest.raises(ValueError):
            build_quasimode(f2, 0.5, mroot, 0.1, 1024, inventory=inv)

    def test_cutoff_too_wide(self, monkeypatch):
        # a fresh F1, so that no memoised mode of the session's F1 at this
        # z can bypass the patched radius
        f1 = symbol.MatrixSymbol.from_terms(1, 1, [(0, 0, 0, 1, 1.0),
                                                   (1, 0, 0, 0, 1.0)])
        z = 0.9j
        inv, root = plus_root(f1, z)
        monkeypatch.setattr(quasimode, "_auto_radius", lambda *a: 2.0)
        with pytest.raises(CutoffTooWide):
            build_quasimode(f1, z, root, 0.1, 1024, inventory=inv)
        # a failed build is not memoised: it raises again
        with pytest.raises(CutoffTooWide):
            build_quasimode(f1, z, root, 0.1, 1024, inventory=inv)

    def test_adjoint_mode_from_minus_root(self, f2):
        inv, mroot = minus_root(f2, 0.5)
        q = build_adjoint_quasimode(f2, 0.5, mroot, 0.1, 2048)
        assert l2_norm(q) == pytest.approx(1.0, abs=1e-12)
        # centered at the shared base point of F2
        assert abs(q.center.point.x - math.pi / 2) < 1e-6

    def test_save_table(self, tmp_path):
        # weylab quasimode writes F2's mode at its plus-root as comma
        # separated x, Re, Im, which read back exactly
        config = tmp_path / "f2.json"
        config.write_text(json.dumps({
            "symbol": {"n": 1, "m": 2,
                       "coeffs": {"0": [[0, 0, 1, 0.0, 1.0]],
                                  "2": [[0, 0, 0, 1.0, 0.0]]}},
            "domains": [{"type": "rectangle", "re_min": 0.1, "re_max": 0.7,
                         "im_min": -0.5, "im_max": 0.5}],
            "experiment": {"mode": "semiclassical", "h_list": [0.1]}}))
        assert cli.main(["quasimode", "--config", str(config), "--z",
                         "0.5,0.0", "--h", "0.1",
                         "--out", str(tmp_path)]) == 0
        cfg = harness.load_config(config)
        N = 8 * (2 * cfg.truncation_K(0.1, 0.5) + 1)
        inv, root = plus_root(cfg.sym, 0.5)
        q = build_quasimode(cfg.sym, 0.5, root, 0.1, N, inventory=inv)
        path = tmp_path / "quasimode_plus_0.csv"
        assert path.read_text().startswith("x,re0,im0\n")
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (N, 3)
        assert np.array_equal(data[:, 0], q.x)
        assert np.array_equal(data[:, 1] + 1j * data[:, 2], q.samples[:, 0])


def fresh_f2():
    """F2 built again: value-equal to the fixture, but a new memo key."""
    return symbol.MatrixSymbol.from_terms(1, 2, [(0, 0, 0, 1, 1j),
                                                 (2, 0, 0, 0, 1.0)])


HS = (0.1, 0.07, 0.05, 0.035, 0.025)


def sweep(sym, z=0.5, grid=2048):
    """Forward and adjoint modes at every h of HS."""
    inv, proot = plus_root(sym, z)
    mroot = [r for r in inv.roots if r.sign == "minus"][0]
    return [(build_quasimode(sym, z, proot, h, grid, inventory=inv),
             build_adjoint_quasimode(sym, z, mroot, h, grid)) for h in HS]


class TestMemo:
    def test_one_eikonal_per_root_across_h(self, monkeypatch):
        calls = []
        solve = quasimode.solve_eikonal

        def counted(branch, x_interval):
            calls.append(branch.root)
            return solve(branch, x_interval)

        monkeypatch.setattr(quasimode, "solve_eikonal", counted)
        modes = sweep(fresh_f2())
        assert len(calls) == 2
        assert [q.h for q, _ in modes] == list(HS)

    def test_memo_hits_match_fresh_builds(self):
        sym = fresh_f2()
        sweep(sym)                          # fills the memo
        for (fwd, adj), (fwd0, adj0) in zip(sweep(sym), sweep(fresh_f2())):
            assert fwd.samples.tobytes() == fwd0.samples.tobytes()
            assert adj.samples.tobytes() == adj0.samples.tobytes()
            assert (fwd.support_radius, fwd.c0_edge) \
                == (fwd0.support_radius, fwd0.c0_edge)

    def test_entries_die_with_the_symbol(self):
        gc.collect()
        before = len(quasimode._MEMO)
        sym = fresh_f2()
        ref = weakref.ref(sym)
        sweep(sym, grid=512)
        # the symbol and its adjoint principal symbol
        assert len(quasimode._MEMO) == before + 2
        del sym
        gc.collect()
        assert ref() is None
        assert len(quasimode._MEMO) == before


class TestResidual:
    def test_projection_preserves_norm(self, f2):
        inv, root = plus_root(f2, 0.5)
        h = 0.1
        K = 40
        q = build_quasimode(f2, 0.5, root, h, 8 * (2 * K + 1), inventory=inv)
        c = fourier_coefficients(q, K)
        assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-6)

    def test_grid_too_coarse(self, f2):
        inv, root = plus_root(f2, 0.5)
        q = build_quasimode(f2, 0.5, root, 0.1, 128, inventory=inv)
        with pytest.raises(ValueError):
            fourier_coefficients(q, 64)

    def test_residual_decays(self, f1, f2):
        for sym, z, cap in ((f1, 0.0, 2e-3), (f2, 0.5, 5e-2)):
            vals = []
            for h in (0.1, 0.07, 0.05):
                inv, root = plus_root(sym, z)
                mat = shifted(sym, z, h)
                q = build_quasimode(sym, z, root, h,
                                    8 * (2 * mat.trunc.K + 1), inventory=inv)
                vals.append(residual(mat, q))
            assert vals[0] < cap
            assert vals[0] > vals[1] > vals[2]

    def test_adjoint_residual_decays(self, f2):
        vals = []
        for h in (0.1, 0.05):
            inv, mroot = minus_root(f2, 0.5)
            zbar = np.conj(0.5 + 0.0j)
            K = int(math.ceil(2 * symbol.xi_window(f2, 0.5) / h)) + 2
            t = FourierTruncation(K=K, n=1, h=h)
            adj = assemble_operator(discretize.formal_adjoint(f2, h), t)
            mat = OperatorMatrix(adj.entries - zbar * np.eye(t.side), t)
            q = build_adjoint_quasimode(f2, 0.5, mroot, h, 8 * (2 * K + 1))
            vals.append(residual(mat, q))
        assert vals[0] < 5e-2
        assert vals[1] < vals[0]


@pytest.fixture(scope="module")
def modes(f2):
    inv = symbol.find_roots(f2, 0.5)
    proot = [r for r in inv.roots if r.sign == "plus"][0]
    mroot = [r for r in inv.roots if r.sign == "minus"][0]
    h = 0.1
    ep = build_quasimode(f2, 0.5, proot, h, 4096, inventory=inv)
    em = build_adjoint_quasimode(f2, 0.5, mroot, h, 4096)
    return ep, em, h


class TestOverlap:
    def test_profile_matches_direct_sum(self, modes):
        ep, em, h = modes
        N = len(ep.x)
        for alpha in (0, 1):
            prof = overlap_profile(alpha, 0, 0, ep, em, h)
            freqs = np.fft.fftfreq(N, d=1.0 / N)
            du = np.fft.ifft(np.fft.fft(ep.samples[:, 0])
                             * (h * freqs) ** alpha)
            w = du * np.conj(em.samples[:, 0])
            for k in (0, 5, 24, -17):
                direct = (TWO_PI / N) * np.sum(w * np.exp(1j * k * ep.x)) \
                    / math.sqrt(TWO_PI)
                assert abs(prof[k % N] - direct) < 1e-12

    def test_mass_concentrates_in_resonant_window(self, f2):
        # >= 99% of the l2 mass of k -> overlap inside |k| in [1/(Ch), C/h]
        C = 4.0
        inv = symbol.find_roots(f2, 0.5)
        proot = [r for r in inv.roots if r.sign == "plus"][0]
        mroot = [r for r in inv.roots if r.sign == "minus"][0]
        for h in (0.1, 0.05):
            ep = build_quasimode(f2, 0.5, proot, h, 4096, inventory=inv)
            em = build_adjoint_quasimode(f2, 0.5, mroot, h, 4096)
            prof = overlap_profile(0, 0, 0, ep, em, h)
            ks = np.abs(np.fft.fftfreq(len(prof), d=1.0 / len(prof)))
            mass = np.abs(prof) ** 2
            sel = (ks >= 1.0 / (C * h)) & (ks <= C / h)
            assert mass[sel].sum() / mass.sum() >= 0.99

    def test_variance_matches_bruteforce(self, modes):
        ep, em, h = modes
        law = CoefficientLaw(alpha_min=0, alpha_max=1, n=1, rho_decay=1.3,
                             K_q=40)
        total = overlap_variance(law, ep, em, h)
        brute = 0.0
        for alpha in (0, 1):
            prof = overlap_profile(alpha, 0, 0, ep, em, h)
            for k in range(-40, 41):
                sig = law.sigma_rule(alpha, 0, 0, k, h)
                brute += sig ** 2 * abs(prof[k % len(prof)]) ** 2
        assert total == pytest.approx(brute, rel=1e-12)
