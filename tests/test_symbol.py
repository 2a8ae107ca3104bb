import itertools
import math

import numpy as np
import pytest

from weylab import domains, symbol
from weylab.domains import Rectangle
from weylab.errors import NonConvergence, ZeroOnContour
from weylab.symbol import PhaseSpacePoint, RegionKind, TWO_PI

from helpers import (dense_coefficient_values, dense_polynomial, full_symbol,
                     gap_symbol, named_symbol)


def circle(x0, xi0, r=0.25, n=180):
    t = np.linspace(0.0, TWO_PI, n)
    return [(x0 + r * np.cos(s), xi0 + r * np.sin(s)) for s in t]


def period_box(x0=-1.0, c=2.5, per_edge=300):
    corners = [(x0, -c), (x0 + TWO_PI, -c), (x0 + TWO_PI, c), (x0, c), (x0, -c)]
    pts = []
    for (xa, ya), (xb, yb) in zip(corners, corners[1:]):
        for s in np.linspace(0.0, 1.0, per_edge, endpoint=False):
            pts.append((xa + s * (xb - xa), ya + s * (yb - ya)))
    pts.append(corners[0])
    return pts


def entry_symbol(m, entry):
    """Scalar symbol with A_m = 2 and the trigonometric polynomial
    sum_f entry[f] e^{ifx} as A_0."""
    return symbol.MatrixSymbol.from_terms(
        1, m, [(0, 0, 0, f, c) for f, c in entry.items()]
        + [(m, 0, 0, 0, 2.0)])


def values_at(sym, x, xi=0.0):
    return symbol.polynomial(symbol.coefficient_values(sym, x), xi)


class TestTrigPolynomial:
    # the coefficients of a symbol are trigonometric polynomials, stored as
    # one array coeffs[alpha, i, j, f + B]
    def test_evaluation_and_bandwidth(self):
        sym = entry_symbol(1, {0: 2.0, 1: 1.0, -3: 0.5j})
        assert sym.max_bandwidth() == 3
        assert sym.coeffs.shape == (2, 1, 1, 7)
        assert sym.coeffs[0, 0, 0, -3 + 3] == 0.5j
        x = 0.7
        expected = 2.0 + np.exp(1j * x) + 0.5j * np.exp(-3j * x)
        A = symbol.coefficient_values(sym, x)
        assert A.shape == (2, 1, 1)
        assert abs(A[0, 0, 0] - expected) < 1e-14
        with pytest.raises(ValueError):
            sym.coeffs[0, 0, 0, 0] = 1.0

    def test_derivative_matches_finite_difference(self):
        sym = entry_symbol(1, {1: 1.0 - 0.5j, -2: 0.3})
        x = np.array([1.234, 4.0])
        eps = 1e-6
        _, dA = symbol.coefficient_values(sym, x, dx=True)
        fd = (symbol.coefficient_values(sym, x + eps)
              - symbol.coefficient_values(sym, x - eps)) / (2 * eps)
        assert np.max(np.abs(dA - fd)) < 1e-7

    def test_dx_op_is_derivative_over_i(self):
        # D_x = (1/i) d/dx multiplies the e^{ifx} coefficient by f
        entry = {2: 1.0, -1: 2.0}
        x = 0.4
        _, dA = symbol.coefficient_values(entry_symbol(1, entry), x, dx=True)
        D = symbol.coefficient_values(
            entry_symbol(1, {f: f * c for f, c in entry.items()}), x)
        assert abs(D[0, 0, 0] - dA[0, 0, 0] / 1j) < 1e-14

    def test_conjugate(self):
        sym = entry_symbol(1, {1: 1.0 + 2.0j, 0: -1.0})
        x = 2.1
        assert abs(values_at(sym.adjoint_principal(), x, 0.3)[0, 0]
                   - np.conj(values_at(sym, x, 0.3)[0, 0])) < 1e-14

    def test_zero_detection(self):
        sym = symbol.MatrixSymbol.from_terms(
            1, 1, [(0, 0, 0, 1, 1.0), (0, 0, 0, 1, -1.0), (1, 0, 0, 0, 1.0)])
        assert sym.max_bandwidth() == 0
        assert sym.lower_order_present() == []


class TestMatrixSymbol:
    def test_ellipticity_rejected(self):
        # leading coefficient sin(x) vanishes on the circle
        with pytest.raises(ValueError):
            symbol.MatrixSymbol.from_terms(
                1, 1, [(1, 0, 0, 1, -0.5j), (1, 0, 0, -1, 0.5j)])

    def test_eval_f3_triangular(self, f3):
        mat = values_at(f3, 0.3, 1.2)
        assert mat[1, 0] == 0.0
        assert abs(mat[0, 0] - (1.2 + np.exp(0.3j))) < 1e-14
        assert abs(mat[1, 1] - (1.2 - np.exp(0.3j))) < 1e-14

    def test_symbol_spectrum_triangular(self, f3):
        vals = symbol.det_or_eigvals(values_at(f3, 1.0, 0.5), det=False)
        diag = [0.5 + np.exp(1j), 0.5 - np.exp(1j)]
        assert np.allclose(sorted(vals, key=lambda v: (v.real, v.imag)),
                           sorted(diag, key=lambda v: (v.real, v.imag)))

    def test_qz_is_det(self, f3):
        pt = PhaseSpacePoint(0.9, -0.4)
        z = 0.2 + 0.1j
        direct = np.linalg.det(values_at(f3, pt.x, pt.xi) - z * np.eye(2))
        assert abs(symbol.qz(f3, pt, z) - direct) < 1e-13

    def test_adjoint_principal_pointwise(self, f3):
        a = values_at(f3.adjoint_principal(), 2.2, 0.8)
        b = values_at(f3, 2.2, 0.8).conj().T
        assert np.allclose(a, b, atol=1e-14)

    def test_lower_order_present(self, f1, f4):
        assert f1.lower_order_present() == [0]
        assert f4.lower_order_present() == []


# Per-entry trigonometric evaluation and the powers of xi summed on a grid, as
# the evaluator replaced them: each entry sums its nonzero c_f e^{ifx} (and
# (i f) c_f e^{ifx} for d/dx), and the grid adds A_alpha xi^alpha with iterated
# powers.  The evaluator must reproduce them bit for bit, in its entry-plane
# layout (m+1, n, n, *points).

def _entry_values(sym, x, dx=False):
    B = sym.max_bandwidth()
    out = np.zeros((sym.m + 1, sym.n, sym.n, len(x)), dtype=complex)
    for a in range(sym.m + 1):
        for i in range(sym.n):
            for j in range(sym.n):
                vals = np.zeros(len(x), dtype=complex)
                for f, c in enumerate(sym.coeffs[a, i, j].tolist()):
                    if c != 0:
                        f -= B
                        c = 1j * f * c if dx else c
                        vals += c * np.exp(1j * f * x)
                out[a, i, j] = vals
    return out


def _grid_sum(A, xi, dxi=False):
    mats = np.zeros(A.shape[1:] + (len(xi),), dtype=complex)
    xipow = np.ones_like(xi)
    for a in range(1 if dxi else 0, len(A)):
        coeff = a * A[a] if dxi else A[a]
        mats += coeff[..., None] * xipow
        xipow = xipow * xi
    return mats


def _coupled_3x3():
    """An n = 3 symbol with every entry coupled: xi I + C(x)."""
    return symbol.MatrixSymbol.from_terms(3, 1, [
        (0, i, j, f, c) for i, j, f, c in (
            (0, 0, 1, 1.0), (1, 1, -1, 0.8), (2, 2, 0, 0.3j),
            (0, 1, 1, 0.4), (1, 2, 0, -0.5), (2, 0, -1, 0.6j),
            (1, 0, 2, 0.2), (0, 2, 0, 0.3), (2, 1, 1, -0.4j))]
        + [(1, k, k, 0, 1.0) for k in range(3)])


def _conjugated(rng, diag):
    """S diag(diag) S^-1 for a seeded random complex 2 x 2 S per row."""
    S = rng.normal(size=(len(diag), 2, 2)) + 1j * rng.normal(
        size=(len(diag), 2, 2))
    return S @ (diag[..., None] * np.linalg.inv(S))


class TestSmallMatrixKernels:
    """det_or_eigvals and adjugate against LAPACK; n <= 2 takes closed
    forms, n = 3 the LAPACK and cofactor path."""

    @staticmethod
    def _stack(rng, name):
        lam = rng.normal(size=40) + 1j * rng.normal(size=40)
        if name == "tiny":
            return _conjugated(rng, np.stack([lam, np.full(40, 1e-14)], -1))
        if name == "near-double":
            return _conjugated(rng, np.stack([lam, lam + 1e-9], -1))
        n = int(name)
        return (rng.normal(size=(200, n, n))
                + 1j * rng.normal(size=(200, n, n)))

    @pytest.mark.parametrize("name", ["1", "2", "3", "tiny", "near-double"])
    def test_against_lapack(self, rng, name):
        M = self._stack(rng, name)
        n = M.shape[-1]
        planes = np.moveaxis(M, 0, -1)
        norm = np.linalg.norm(M, 2, axis=(-2, -1))
        det = symbol.det_or_eigvals(planes, det=True)
        assert np.all(np.abs(det - np.linalg.det(M)) <= 1e-13 * norm ** n)
        vals = symbol.det_or_eigvals(planes, det=False)
        for got, ref, bound in zip(vals.T, np.linalg.eigvals(M), norm):
            gap = min(np.abs(got[list(perm)] - ref).max()
                      for perm in itertools.permutations(range(n)))
            assert gap <= 1e-13 * bound
        adj = np.moveaxis(symbol.adjugate(planes), -1, 0)
        residual = adj @ M - det[:, None, None] * np.eye(n)
        assert np.all(np.abs(residual).max(axis=(-2, -1))
                      <= 1e-13 * norm ** n)

    def test_empty_minor_determinant_is_one(self):
        assert np.array_equal(
            symbol.det_or_eigvals(np.empty((0, 0, 3)), det=True), np.ones(3))


class TestEvaluatorIdentity:
    @pytest.mark.parametrize("name", ["f1", "f2", "f3", "f4"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_grid_matches_per_entry_evaluation(self, name, kind, request):
        sym = request.getfixturevalue(name)
        x = np.linspace(0.0, TWO_PI, 64, endpoint=False) + 0.01
        xi = np.linspace(-3.0, 3.0, 48)
        if kind == "complex":
            xi = xi + 0.3j * np.cos(2.0 * xi)
        A, dA = symbol.coefficient_values(sym, x, dx=True)
        assert A.tobytes() == _entry_values(sym, x).tobytes()
        assert dA.tobytes() == _entry_values(sym, x, dx=True).tobytes()
        p, dpxi = symbol.polynomial(A[..., None], xi, dxi=True)
        assert p.tobytes() == _grid_sum(A, xi).tobytes()
        assert dpxi.tobytes() == _grid_sum(A, xi, dxi=True).tobytes()
        assert symbol.polynomial(dA[..., None], xi).tobytes() \
            == _grid_sum(dA, xi).tobytes()

    @pytest.mark.parametrize("name", ["f1", "f2", "f3", "f4", "n3"])
    def test_qz_grid_and_counts_match_per_point(self, name, request,
                                                monkeypatch):
        # the seed grid's q_z and m_Gamma's counts, batched on entry planes,
        # against one evaluation per point (a batch of one): byte for byte
        # for n <= 2, and within 1e-13 of LAPACK's det for n = 3.  Batches of
        # 100 points leave m_gamma a partial last batch
        sym = _coupled_3x3() if name == "n3" else request.getfixturevalue(name)
        z = 0.3 - 0.2j
        x = np.linspace(0.0, TWO_PI, 24, endpoint=False) + 0.01
        xi = np.linspace(-2.0, 2.0, 17)
        points = [(np.array([xk]), np.array([xil])) for xk in x for xil in xi]
        grid = symbol._jet(sym, x[:, None], xi, z, grad=False)
        values = [symbol.polynomial(symbol.coefficient_values(sym, xk), xil)
                  for xk, xil in points]
        if sym.n <= 2:
            single = [symbol._jet(sym, xk, xil, z, grad=False)
                      for xk, xil in points]
            assert grid.tobytes() == np.concatenate(single).tobytes()
        else:
            mats = np.moveaxis(np.concatenate(values, axis=-1), -1, 0)
            ref = np.linalg.det(mats - z * np.eye(3))
            assert np.all(np.abs(grid.ravel() - ref) <= 1e-13 * np.abs(ref))
        # find_roots's seed grid, in batches of 3 rows into one buffer (the
        # last batch partial), is |q_z| of one evaluation on the same grid
        seeds = []
        local_minima = symbol._local_minima
        monkeypatch.setattr(symbol, "POINT_CHUNK", 3 * symbol.GRID_NXI)
        monkeypatch.setattr(symbol, "_local_minima", lambda absq, cap: (
            seeds.append(absq.copy()) or local_minima(absq, cap)))
        symbol.find_roots(sym, z)
        window = symbol.xi_window(sym, abs(z))
        gx = np.linspace(0.0, TWO_PI, symbol.GRID_NX, endpoint=False)
        gxi = np.linspace(-window, window, symbol.GRID_NXI)
        assert seeds[0].tobytes() == np.abs(
            symbol._jet(sym, gx[:, None], gxi, z, grad=False)).tobytes()
        dom = Rectangle(-0.5, 1.0, -0.6, 0.6)
        monkeypatch.setattr(domains, "POINT_CHUNK", 100)
        counts = domains.m_gamma(sym, dom, np.repeat(x, len(xi)),
                                 np.tile(xi, len(x)))
        single = [np.count_nonzero(dom.contains_many(
            symbol.det_or_eigvals(p, det=False))) for p in values]
        assert counts.tolist() == single
        assert 0 < counts.sum() < sym.n * len(single)


SPARSITY = ["f1", "f2", "f3", "f4", "full", "gap"]


class TestNonzeroSlices:
    """The evaluator pays only for a symbol's nonzero slices and orders; a
    sum over every slice and order, zero or not, gives the same bytes."""

    def test_record(self):
        sym = gap_symbol()
        assert sym.slices == ((-1, (0,)), (0, (2,)), (1, (2,)), (2, (0,)))
        assert sym.orders() == [0, 2]
        assert sym.lower_order_present() == [0]
        assert sym.sup_norms[1] == 0.0
        full = full_symbol()
        assert full.slices == tuple((f, (0, 1, 2, 3)) for f in range(-2, 3))

    @pytest.mark.parametrize("name", SPARSITY)
    def test_construction_scan_matches_dense(self, name, request):
        # the SVD scan skips zero orders, whose singular values are 0
        sym = named_symbol(name, request)
        sv = np.linalg.svd(np.moveaxis(dense_coefficient_values(
            sym, symbol._COEFF_X), -1, 1), compute_uv=False)
        assert sym.ellipticity_margin == float(sv[sym.m, :, -1].min())
        assert sym.sup_norms == tuple(
            float(s) for s in sv[..., 0].max(axis=1))

    @pytest.mark.parametrize("name", SPARSITY)
    def test_coefficient_values_match_dense(self, name, request):
        sym = named_symbol(name, request)
        x = np.linspace(0.0, TWO_PI, 40, endpoint=False) - 0.3
        A, dA = symbol.coefficient_values(sym, x, dx=True)
        ref, dref = dense_coefficient_values(sym, x, dx=True)
        assert A.tobytes() == ref.tobytes()
        assert dA.tobytes() == dref.tobytes()
        assert symbol.coefficient_values(sym, x).tobytes() == ref.tobytes()
        column = symbol.coefficient_values(sym, x[:, None])
        assert column.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", SPARSITY)
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_polynomial_matches_dense(self, name, kind, request):
        sym = named_symbol(name, request)
        x = np.linspace(0.0, TWO_PI, 40, endpoint=False) - 0.3
        xi = np.linspace(-3.0, 3.0, 24)
        if kind == "complex":
            xi = xi + 0.3j * np.cos(2.0 * xi)
        for A in symbol.coefficient_values(sym, x, dx=True):
            A = A[..., None]
            p, dp = dense_polynomial(A, xi, dxi=True)
            got, dgot = symbol.polynomial(A, xi, dxi=True,
                                          orders=sym.orders())
            assert got.tobytes() == p.tobytes()
            assert dgot.tobytes() == dp.tobytes()
            assert symbol.polynomial(A, xi, orders=sym.orders()).tobytes() \
                == p.tobytes()
            assert symbol.polynomial(A, xi).tobytes() == p.tobytes()

    @pytest.mark.parametrize("name", ["f1", "f2", "f3", "f4"])
    def test_root_scale_is_numpy_median(self, name, request, monkeypatch):
        # find_roots seeds below 0.75 median|q_z| of its grid; the median
        # from one partition is np.median's to the bit
        sym = request.getfixturevalue(name)
        calls = []
        local_minima = symbol._local_minima
        monkeypatch.setattr(symbol, "_local_minima", lambda absq, cap: (
            calls.append((absq.copy(), cap)) or local_minima(absq, cap)))
        symbol.find_roots(sym, 0.3 - 0.2j)
        (absq, cap), = calls
        assert cap == 0.75 * max(float(np.median(absq)), 1e-300)

    def test_nan_on_root_grid_as_numpy_median(self, f2, monkeypatch):
        # a NaN on the seed grid makes np.median, and so the root scale,
        # NaN: no seed is below it and the scan ends with no root
        jet = symbol._jet

        def nan_grid(sym, x, xi, z, grad=True, out=None):
            q = jet(sym, x, xi, z, grad=grad, out=out)
            if out is not None and x.ravel()[0] == 0.0:
                q[-1, -1] = np.nan
            return q
        assert len(symbol.find_roots(f2, 0.5).roots) == 2
        monkeypatch.setattr(symbol, "_jet", nan_grid)
        inv = symbol.find_roots(f2, 0.5)
        assert (inv.roots, inv.beta, inv.gamma, inv.degenerate) == \
            ((), 0, 0, False)


class TestGradient:
    def test_gradient_vs_central_differences(self, rng, f1, f2, f3):
        eps = 1e-5
        for sym in (f1, f2, f3):
            for _ in range(30):
                x = rng.uniform(0, TWO_PI)
                xi = rng.uniform(-2, 2)
                z = complex(rng.normal(), rng.normal())
                dqx, dqxi = symbol.qz_gradient(sym, PhaseSpacePoint(x, xi), z)
                fdx = (symbol.qz(sym, PhaseSpacePoint(x + eps, xi), z)
                       - symbol.qz(sym, PhaseSpacePoint(x - eps, xi), z)) / (2 * eps)
                fdxi = (symbol.qz(sym, PhaseSpacePoint(x, xi + eps), z)
                        - symbol.qz(sym, PhaseSpacePoint(x, xi - eps), z)) / (2 * eps)
                scale = 1.0 + abs(fdx) + abs(fdxi)
                assert abs(dqx - fdx) / scale < 1e-6
                assert abs(dqxi - fdxi) / scale < 1e-6

    def test_bracket_is_real(self, f2):
        # F2: d_x q = -e^{ix} and d_xi q = 2 xi, so the bracket
        # Im(conj(d_x q) d_xi q) is 2 xi sin x, of the root's sign
        inv = symbol.find_roots(f2, 0.3 + 0.2j)
        assert len(inv.roots) == 2
        for r in inv.roots:
            assert isinstance(r.bracket, float)
            x, xi = r.point.x, r.point.xi
            assert abs(r.bracket - 2.0 * xi * math.sin(x)) < 1e-9
            assert (r.bracket > 0) == (r.sign == "plus")


class TestRoots:
    def test_f1_roots_at_zero(self, f1):
        inv = symbol.find_roots(f1, 0.0)
        assert inv.beta == inv.gamma == 1
        assert not inv.degenerate
        got = sorted((r.point.x, r.point.xi, r.sign) for r in inv.roots)
        assert abs(got[0][0] - 0.0) < 1e-9 or abs(got[0][0] - TWO_PI) < 1e-9
        assert abs(got[0][1] + 1.0) < 1e-9
        assert got[0][2] == "minus"
        assert abs(got[1][0] - math.pi) < 1e-9
        assert abs(got[1][1] - 1.0) < 1e-9
        assert got[1][2] == "plus"

    def test_f1_empty_outside_sigma(self, f1):
        inv = symbol.find_roots(f1, 2j)
        assert inv.roots == ()
        assert inv.beta == inv.gamma == 0

    def test_f2_roots_shared_base(self, f2):
        inv = symbol.find_roots(f2, 0.5)
        assert inv.beta == inv.gamma == 1
        xi_star = math.sqrt(1.5)
        got = sorted(inv.roots, key=lambda r: r.point.xi)
        for r in got:
            assert abs(r.point.x - math.pi / 2) < 1e-9
        assert abs(got[0].point.xi + xi_star) < 1e-9
        assert got[0].sign == "minus"
        assert abs(got[1].point.xi - xi_star) < 1e-9
        assert got[1].sign == "plus"

    def test_f2_newton_evaluations(self, f2, monkeypatch):
        # F2 = xi^2 - sin x + i cos x - z: at z = 0.5 the zeros are
        # cos x = 0, xi^2 = 0.5 + sin x, so (pi/2, +-sqrt(1.5)), with bracket
        # Im(conj(d_x q) d_xi q) = 2 xi there.  Seeds that leave the xi
        # window stop; the two saddle seeds near xi = 0 used to step until
        # MAX_NEWTON, 61 gradient evaluations in all.
        calls = []
        jet = symbol._jet

        def counted(sym, x, xi, z, grad=True, out=None):
            calls.append(grad)
            return jet(sym, x, xi, z, grad, out)

        monkeypatch.setattr(symbol, "_jet", counted)
        inv = symbol.find_roots(f2, 0.5)
        assert sum(calls) <= 10
        got = sorted(inv.roots, key=lambda r: r.point.xi)
        assert len(got) == 2 and not inv.degenerate
        for r, xi in zip(got, (-math.sqrt(1.5), math.sqrt(1.5))):
            assert abs(r.point.x - math.pi / 2) < 1e-9
            assert abs(r.point.xi - xi) < 1e-9
            assert r.sign == ("plus" if xi > 0 else "minus")
            assert np.sign(r.bracket) == np.sign(2.0 * xi)

    def test_newton_failure_near_a_root_raises(self, f2, monkeypatch):
        # with no Newton step, the seeds beside F2's roots at z = 0.5 stay
        # above the acceptance threshold within a quarter cell of a zero
        monkeypatch.setattr(symbol, "MAX_NEWTON", 0)
        with pytest.raises(NonConvergence, match="near-root seed"):
            symbol.find_roots(f2, 0.5)

    def test_beta_equals_gamma_random_scalars(self, rng):
        checked = 0
        attempts = 0
        while checked < 25 and attempts < 200:
            attempts += 1
            m = int(rng.integers(1, 4))
            terms = []
            for a in range(m + 1):
                for k in rng.integers(-3, 4, size=2):
                    c = complex(rng.normal(), rng.normal()) * 0.5
                    terms.append((a, 0, 0, int(k), c))
            terms.append((m, 0, 0, 0, 2.0))     # keep it elliptic
            try:
                sym = symbol.MatrixSymbol.from_terms(1, m, terms)
            except ValueError:
                continue
            z = complex(rng.normal(), rng.normal())
            inv = symbol.find_roots(sym, z)
            if inv.degenerate:
                continue
            assert inv.beta == inv.gamma
            checked += 1
        assert checked >= 20


def padded_local_minima(absq, cap):
    """_local_minima's reference: a padded copy (x rows wrapped, xi edges
    inf) and eight shifted comparisons."""
    nx, nxi = absq.shape
    padded = np.full((nx + 2, nxi + 2), np.inf)
    padded[1:-1, 1:-1] = absq
    padded[0, 1:-1] = absq[-1]
    padded[-1, 1:-1] = absq[0]
    is_min = absq <= cap
    for di, dj in itertools.product((-1, 0, 1), repeat=2):
        if di or dj:
            is_min &= absq <= padded[1 + di:nx + 1 + di, 1 + dj:nxi + 1 + dj]
    return np.nonzero(is_min)


class TestLocalMinima:
    @pytest.mark.parametrize("shape", [(256, 256), (7, 5), (2, 3), (1, 4),
                                       (4, 1)])
    def test_matches_padded_comparisons(self, rng, shape):
        # small integers make ties; inf and NaN fill some points
        for _ in range(40):
            absq = rng.integers(0, 4, shape).astype(float)
            absq[rng.random(shape) < 0.05] = np.inf
            absq[rng.random(shape) < 0.02] = np.nan
            cap = float(rng.choice([1.0, 2.0, np.inf]))
            got, ref = symbol._local_minima(absq, cap), padded_local_minima(
                absq, cap)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))


class TestXiWindow:
    def test_positive_and_monotone(self, f1):
        w1 = symbol.xi_window(f1, 0.5)
        w2 = symbol.xi_window(f1, 2.0)
        assert 0.0 < w1 <= w2

    def test_window_contains_roots(self, f1, f2):
        for sym, z in ((f1, 0.3 + 0.4j), (f2, 0.5 + 0.2j)):
            w = symbol.xi_window(sym, abs(z))
            for r in symbol.find_roots(sym, z).roots:
                assert abs(r.point.xi) < w

    def test_homogeneous_window_scales(self, f4):
        # with no lower orders, the window is a pure power of |z|
        w1 = symbol.xi_window(f4, 1.0)
        w4 = symbol.xi_window(f4, 4.0)
        assert abs(w4 / w1 - 2.0) < 1e-12


class TestWinding:
    def test_small_loops_and_period_box(self, f1):
        z = 0.1 + 0.2j
        inv = symbol.find_roots(f1, z)
        per_root = {}
        for r in inv.roots:
            per_root[r.sign] = symbol.winding_number(
                f1, z, circle(r.point.x, r.point.xi))
        assert per_root == {"minus": -1, "plus": 1}
        assert sum(per_root.values()) == 0
        assert symbol.winding_number(f1, z, period_box()) == 0

    def test_loop_around_nothing(self, f1):
        assert symbol.winding_number(f1, 0.0, circle(1.5, 2.0, r=0.2)) == 0

    def test_samples_match_linspace(self, f1, monkeypatch):
        # the first samples, broadcast over the segments, are linspace's
        # bit for bit, on axis-parallel and diagonal segments of an open
        # loop that winding_number closes
        loop = [(0.3, -0.7), (2.9, -0.7), (2.9, 1.3), (1.1, 2.6), (0.3, 1.3)]
        pts = [np.asarray(p) for p in loop + loop[:1]]
        expected = np.concatenate([np.linspace(a, b, 16, endpoint=False)
                                   for a, b in zip(pts[:-1], pts[1:])]
                                  + [pts[-1][None, :]])
        seen = []
        jet = symbol._jet

        def recorded(sym, x, xi, *args, **kw):
            seen.append((x, xi))
            return jet(sym, x, xi, *args, **kw)

        monkeypatch.setattr(symbol, "_jet", recorded)
        symbol.winding_number(f1, 0.1 + 0.2j, loop)
        x, xi = seen[0]
        assert np.array_equal(x, expected[:, 0] % TWO_PI)
        assert np.array_equal(xi, expected[:, 1])

    def test_zero_on_contour(self, f1):
        # the loop passes exactly through the plus-root (pi, 1)
        loop = [(math.pi, 1.0), (math.pi + 0.5, 1.0), (math.pi, 1.5),
                (math.pi, 1.0)]
        with pytest.raises(ZeroOnContour):
            symbol.winding_number(f1, 0.0, loop)


class TestRegions:
    def test_classification_kinds(self, f1):
        assert symbol.classify_region(f1, 3j).kind is RegionKind.OUTSIDE_SIGMA
        assert symbol.classify_region(f1, 0.2j).kind is RegionKind.IN_LAMBDA

    def test_minimum_without_zero_outside_sigma(self, f2):
        # just outside Sigma, |q_z| has a small minimum near (1.644, -0.011)
        # but no zero: cos x = -0.077 needs xi^2 = sin x - 1 < 0.  Newton
        # fails from that seed, and q_z winds 0 around its cell.
        assert symbol.classify_region(f2, -1 - 0.077j).kind \
            is RegionKind.OUTSIDE_SIGMA

    def test_near_phi_at_sigma_boundary(self, f1):
        # |Im z| = 1 is the boundary of Sigma for F1: the bracket degenerates
        assert symbol.classify_region(f1, 1j).kind is RegionKind.NEAR_PHI

    def test_near_phi_at_double_zero(self, f2):
        # q_i = xi^2 + i e^{ix} - i has a double zero at (0, 0) on the
        # boundary of Sigma: Newton stalls from the seed beside it, whose
        # bracket is already degenerate, so the point is NearPhi, not a
        # NonConvergence
        assert symbol.classify_region(f2, 1j).kind is RegionKind.NEAR_PHI

    @pytest.mark.parametrize("im", [1.0, -1.0])
    def test_f3_sigma_boundary_rows(self, f3, im):
        # det(p - z) = (xi + e^{ix} - z)(xi - e^{ix} - z): on the rows
        # |Im z| = 1 the imaginary part +-sin x - Im z of each factor has
        # double zeros in x, so the bracket degenerates at every root
        for re in np.linspace(-1.0, 1.0, 9):
            cls = symbol.classify_region(f3, complex(re, im))
            assert cls.kind is RegionKind.NEAR_PHI, re

    def test_count_m_gamma_additive(self, f3):
        from weylab.domains import Rectangle, m_gamma
        g1 = Rectangle(-2.0, 0.0, -2.0, 2.0)
        g2 = Rectangle(0.0 + 1e-9, 2.0, -2.0, 2.0)
        g12 = Rectangle(-2.0, 2.0, -2.0, 2.0)
        x, xi = np.meshgrid(np.linspace(0.0, TWO_PI, 40, endpoint=False),
                            np.linspace(-1.5, 1.5, 25))
        counts = [m_gamma(f3, g, x.ravel(), xi.ravel()).astype(int)
                  for g in (g1, g2, g12)]
        assert np.array_equal(counts[0] + counts[1], counts[2])
        assert counts[2].sum() > 0
