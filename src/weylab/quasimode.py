"""Leading-order WKB quasimodes chi(x) a0(x) e^{i phi(x)/h} at classified roots.

The phase solves the eikonal equation lambda(x, phi'(x)) = z by Newton
continuation of xi(x) in complex xi; the amplitude carries the half-density
factor (d_xi lambda)^{-1/2}.  Only the leading amplitude is built, so the
residual of P - z on the mode is O(h) in general, for instance where the
eigenvector of a matrix symbol turns with x.  For a scalar p with
d_x d_xi p = 0 the half-density amplitude solves the first transport
equation of the left quantization exactly and the residual is O(h^2), from
h^2 D^2 a0; when p is also first order in xi only the cutoff contributes.

Neither the phase nor the amplitude depends on h: the cutoff radius, the
eikonal continuation, the transport amplitude, the checks on Im(phase) and
their splines are computed once per (symbol, z, root, inventory) and kept
for as long as the symbol lives; each h only samples chi a0 e^{i phi/h} on
its grid and normalizes.  The adjoint side keeps its adjoint symbol, root
inventory at conj(z) and matched root the same way.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .discretize import OperatorMatrix
from .errors import BranchLoss, CutoffTooWide, MultipleEigenvalue
from .symbol import (SQRT_2PI, TWO_PI, ClassifiedRoot, MatrixSymbol,
                     adjugate, circle_distance, coefficient_values,
                     det_or_eigvals, find_roots, polynomial, shift,
                     trace_product)

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline

_STEP = 1e-3            # continuation step in x
_BLOCK = 32             # continuation points solved together
_NEWTON_TOL = 1e-12
_GAP_TOL = 1e-6


@dataclass(frozen=True)
class EigenBranch:
    """A locally simple eigenvalue branch lambda(x, xi) of p(x, xi) near a root.

    lambda is the eigenvalue of p nearest z.  At a simple eigenvalue the
    adjugate of p - lambda has rank one: its largest column is a right
    eigenvector and d lambda = tr(adj dp) / tr(adj), the left/right
    eigenvector formula.  For n = 1 the adjugate is 1, so lambda = p and its
    derivatives are exact.  Every method broadcasts over arrays of (x, xi),
    and takes and gives matrices in the evaluator's entry planes.
    """

    sym: MatrixSymbol
    root: ClassifiedRoot
    z: complex

    def _pick(self, p: np.ndarray):
        """lambda and adj(p - lambda) for each matrix p; p is shifted by
        lambda in place."""
        vals = det_or_eigvals(p, det=False)
        near = np.abs(vals - self.z).argmin(axis=0)[None]
        lam = np.take_along_axis(vals, near, axis=0)[0]
        return lam, adjugate(shift(p, lam))

    def value_dxi(self, x, xi, A=None):
        """(lambda, d_xi lambda) at (x, xi); A, the coefficient values at x,
        is reused when given, as in a Newton iteration in xi at fixed x."""
        if A is None:
            A = coefficient_values(self.sym, x)
        p, dp = polynomial(A, xi, dxi=True)
        lam, adj = self._pick(p)
        return lam, trace_product(adj, dp) / np.trace(adj)

    def eigvec(self, x, xi) -> np.ndarray:
        """Unit right eigenvectors in component planes, shape (n, ...)."""
        _, adj = self._pick(polynomial(coefficient_values(self.sym, x), xi))
        col = np.linalg.norm(adj, axis=0).argmax(axis=0)[None, None]
        v = np.take_along_axis(adj, col, axis=1)[:, 0]
        return v / np.linalg.norm(v, axis=0, keepdims=True)


def locate_branch(sym: MatrixSymbol, z: complex,
                  root: ClassifiedRoot) -> EigenBranch:
    """Attach the simple eigenvalue branch through the root to work on."""
    p = polynomial(coefficient_values(sym, root.point.x), root.point.xi)
    vals = det_or_eigvals(p, det=False)
    order = np.argsort(np.abs(vals - z))
    if abs(vals[order[0]] - z) > 1e-10:
        raise ValueError(f"no eigenvalue of p(root) matches z to 1e-10: "
                         f"|diff| = {abs(vals[order[0]] - z):.2e}")
    gap = abs(vals[order[1]] - vals[order[0]]) if len(vals) > 1 else np.inf
    if gap <= _GAP_TOL:
        raise MultipleEigenvalue(
            f"eigenvalue gap {gap:.2e} at the root is below {_GAP_TOL:.2e}")
    return EigenBranch(sym=sym, root=root, z=complex(z))


@dataclass(frozen=True)
class Phase:
    """Eikonal phase on a uniform grid around the root."""

    x_grid: np.ndarray
    xi: np.ndarray                # xi(x), complex continuation
    phi: np.ndarray               # int_{x_root}^x xi(s) ds
    root_index: int


def _cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral on a uniform grid, third-order at every node."""
    out = np.zeros(len(y), dtype=y.dtype)
    # local quadratic through (y[k-1], y[k], y[k+1]) integrated over one step
    inc = np.empty(len(y) - 1, dtype=y.dtype)
    inc[0] = dx * (5 * y[0] + 8 * y[1] - y[2]) / 12.0
    inc[1:] = dx * (-y[:-2] + 8 * y[1:-1] + 5 * y[2:]) / 12.0
    out[1:] = np.cumsum(inc)
    return out


def _continue_xi(branch: EigenBranch, xs: np.ndarray, xi0: complex,
                 step_cap: float) -> np.ndarray:
    """Newton continuation of lambda(x, xi(x)) = z along increasing index.

    The points are solved _BLOCK at a time: each starts on the line through
    the last two solutions, and Newton iterates on the points of the block
    not yet converged, so one evaluation serves the whole block.
    """
    out = np.empty(len(xs), dtype=complex)
    last = np.array([xi0, xi0], dtype=complex)
    for start in range(0, len(xs), _BLOCK):
        x = xs[start:start + _BLOCK]
        A = coefficient_values(branch.sym, x)
        xi = last[1] + (last[1] - last[0]) * np.arange(1, len(x) + 1)
        todo = np.arange(len(x))
        for _ in range(60):
            lam, dp = branch.value_dxi(x[todo], xi[todo], A[..., todo])
            f = lam - branch.z
            moving = np.abs(f) >= _NEWTON_TOL
            todo, f, dp = todo[moving], f[moving], dp[moving]
            if not todo.size:
                break
            if np.any(dp == 0):
                raise BranchLoss(f"d_xi lambda vanished at x = "
                                 f"{x[todo[dp == 0][0]]:.6f}")
            xi[todo] -= f / dp
            left = np.abs(xi[todo] - xi0) > step_cap
            if left.any():
                raise BranchLoss(
                    f"continuation left the basin at x = "
                    f"{x[todo[left][0]]:.6f} (|xi - xi_root| > "
                    f"{step_cap:.3g})")
        else:
            raise BranchLoss(f"eikonal Newton stalled at x = {x[todo[0]]:.6f}")
        out[start:start + len(x)] = xi
        last = out[start + len(x) - 2:start + len(x)]
    return out


def solve_eikonal(branch: EigenBranch, x_interval) -> Phase:
    """Continue xi(x) from the root and integrate the phase."""
    x_lo, x_hi = float(x_interval[0]), float(x_interval[1])
    x0 = branch.root.point.x
    xi0 = complex(branch.root.point.xi)
    if not x_lo < x0 < x_hi:
        raise ValueError("interval must contain the root base point")
    if abs(branch.value_dxi(x0, xi0)[1]) < 1e-12:
        raise ValueError("d_xi lambda vanishes at the root; no simple branch")
    step_cap = 10.0 * max(abs(xi0), 1.0)

    n_right = max(int(math.ceil((x_hi - x0) / _STEP)), 2)
    n_left = max(int(math.ceil((x0 - x_lo) / _STEP)), 2)
    xs_right = x0 + (x_hi - x0) * np.arange(n_right + 1) / n_right
    xs_left = x0 - (x0 - x_lo) * np.arange(n_left + 1) / n_left

    xi_right = _continue_xi(branch, xs_right, xi0, step_cap)
    xi_left = _continue_xi(branch, xs_left, xi0, step_cap)

    phi_right = _cumulative_simpson(xi_right, xs_right[1] - xs_right[0])
    phi_left = -_cumulative_simpson(xi_left, xs_left[0] - xs_left[1])

    x_grid = np.concatenate([xs_left[::-1], xs_right[1:]])
    xi_vals = np.concatenate([xi_left[::-1], xi_right[1:]])
    phi = np.concatenate([phi_left[::-1], phi_right[1:]])
    return Phase(x_grid=x_grid, xi=xi_vals, phi=phi, root_index=n_left)


def leading_amplitude(branch: EigenBranch, phase: Phase) -> np.ndarray:
    """Half-density amplitude a0(x) (times the eigenvector field for n > 1).

    a0 = (d_xi lambda(root) / d_xi lambda(x, xi(x)))^{1/2} with the square
    root branch continued from a0(x_root) = 1.
    """
    g = branch.value_dxi(phase.x_grid, phase.xi)[1]
    # continuous log via accumulated increments from the root outward
    ratios = g[1:] / g[:-1]
    inc = np.log(ratios)
    log_g = np.zeros(len(g), dtype=complex)
    log_g[phase.root_index + 1:] = np.cumsum(inc[phase.root_index:])
    log_g[:phase.root_index] = -np.cumsum(inc[:phase.root_index][::-1])[::-1]
    a0 = np.exp(-0.5 * log_g)

    # eigenvector phases continued from the root outward: each vector is
    # turned to overlap its turned inner neighbour positively
    vecs = branch.eigvec(phase.x_grid, phase.xi)
    r = phase.root_index
    c = np.einsum("ji,ji->i", np.conj(vecs[:, :-1]), vecs[:, 1:])
    turn = np.ones(len(c) + 1, dtype=complex)
    turn[r + 1:] = _continued_phase(c[r:])
    turn[:r] = _continued_phase(np.conj(c[:r])[::-1])[::-1]
    return (a0 * turn * vecs).T


def _continued_phase(c: np.ndarray) -> np.ndarray:
    """u_k = u_{k-1} |c_k| / c_k from u_{-1} = 1, and u_k = 1 where c_k = 0.

    With c_k the overlap of raw neighbour vectors v_{k-1}, v_k, the overlap
    of u_{k-1} v_{k-1} with v_k is conj(u_{k-1}) c_k, so u_k v_k overlaps the
    turned neighbour positively: one cumulative product does the sequential
    continuation.  A zero overlap leaves its vector unturned and restarts
    the product.
    """
    nonzero = c != 0
    w = np.ones(len(c), dtype=complex)
    w[nonzero] = np.abs(c[nonzero]) / c[nonzero]
    u = np.cumprod(w)
    restart = np.maximum.accumulate(np.where(nonzero, -1, np.arange(len(c))))
    return np.where(restart < 0, u, u / u[restart])


# The cutoff chi: its support radius is MAX_RADIUS or half the x distance
# to the nearest other root, whichever is smaller; it is 1 on the inner
# PLATEAU_FRACTION of that radius, and Im(phase) at the support's edge must
# exceed C0_MIN.
MAX_RADIUS = math.pi / 2
PLATEAU_FRACTION = 0.5
C0_MIN = 1e-9


@dataclass(frozen=True)
class Quasimode:
    samples: np.ndarray           # (N, n) values on the uniform circle grid
    x: np.ndarray
    center: ClassifiedRoot
    z: complex
    h: float
    support_radius: float
    c0_edge: float


def _bump(d: np.ndarray, r0: float, w: float) -> np.ndarray:
    """Smooth cutoff: 1 on |d| <= r0, 0 on |d| >= w."""
    def f(s):
        out = np.zeros_like(s)
        pos = s > 0
        out[pos] = np.exp(-1.0 / s[pos])
        return out
    t = (np.abs(d) - r0) / (w - r0)
    num = f(1.0 - t)
    return num / (num + f(t))


def _auto_radius(sym: MatrixSymbol, z: complex, root: ClassifiedRoot,
                 inventory=None) -> float:
    inv = inventory if inventory is not None else find_roots(sym, z)
    dx = circle_distance([r.point.x for r in inv.roots], root.point.x)
    return float(np.min(0.5 * dx[dx > 1e-9], initial=MAX_RADIUS))


# The h-independent part of each mode, per (symbol, z, root, inventory),
# and the adjoint side's symbol, target root and inventory, per (symbol, z,
# minus-root).  Keyed weakly on the symbol (hashed by identity), so the
# entries die with it; no entry refers back to its symbol.
_MEMO: "weakref.WeakKeyDictionary[MatrixSymbol, dict]" = \
    weakref.WeakKeyDictionary()


def _memoised(sym: MatrixSymbol, key: tuple, make):
    """make(), computed once per (sym, key); an exception is not stored."""
    entries = _MEMO.setdefault(sym, {})
    if key not in entries:
        entries[key] = make()
    return entries[key]


def build_quasimode(sym: MatrixSymbol, z: complex, root: ClassifiedRoot,
                    h: float, grid_size: int,
                    inventory=None) -> Quasimode:
    """Normalized samples of chi(x) a0(x) e^{i phi(x)/h} on a uniform grid."""
    if root.sign != "plus":
        raise ValueError("forward quasimodes are built at plus-roots; build "
                         "the adjoint-side mode via build_adjoint_quasimode")
    return _mode(sym, z, root, inventory).sample(h, grid_size)


def build_adjoint_quasimode(sym: MatrixSymbol, z: complex,
                            minus_root: ClassifiedRoot, h: float,
                            grid_size: int) -> Quasimode:
    """Quasimode of the adjoint at conj(z), centered at a minus-root of p.

    The bracket flips sign under p -> p*, z -> conj(z), so the minus-root
    becomes a plus-root of the adjoint principal symbol and the same
    construction applies.
    """
    if minus_root.sign != "minus":
        raise ValueError("adjoint-side quasimodes are built at minus-roots")
    adj, zbar, target, adj_inv = _memoised(
        sym, ("adjoint", complex(z), minus_root),
        lambda: _adjoint_target(sym, z, minus_root))
    return _mode(adj, zbar, target, adj_inv).sample(h, grid_size)


def _adjoint_target(sym, z, minus_root):
    """The adjoint symbol, conj(z), the plus-root of the adjoint matching
    the minus-root of p, and the adjoint's inventory."""
    adj = sym.adjoint_principal()
    zbar = complex(z).conjugate()
    adj_inv = find_roots(adj, zbar)
    target = None
    for r in adj_inv.roots:
        if (circle_distance(r.point.x, minus_root.point.x) < 1e-6
                and abs(r.point.xi - minus_root.point.xi) < 1e-6):
            target = r
    if target is None or target.sign != "plus":
        raise ValueError("could not match the minus-root to a plus-root of "
                         "the adjoint symbol")
    return adj, zbar, target, adj_inv


@dataclass(frozen=True)
class _Mode:
    """What a quasimode at one root keeps for every h: the cutoff radius,
    Im(phase) at the support's edge and splines of the phase and of each
    amplitude component on the continuation grid."""

    root: ClassifiedRoot
    z: complex
    radius: float
    c0_edge: float
    phi: CubicSpline
    amp: tuple

    def sample(self, h: float, grid_size: int) -> Quasimode:
        """chi a0 e^{i phi/h} on the uniform circle grid, L2-normalized."""
        w, x0 = self.radius, self.root.point.x
        N = int(grid_size)
        xs = TWO_PI * np.arange(N) / N
        d = np.mod(xs - x0 + math.pi, TWO_PI) - math.pi
        inside = np.abs(d) < w
        samples = np.zeros((N, len(self.amp)), dtype=complex)
        if np.any(inside):
            xloc = x0 + d[inside]
            chi = _bump(d[inside], PLATEAU_FRACTION * w, w)
            osc = np.exp(1j * self.phi(xloc) / h)
            for i, sp in enumerate(self.amp):
                samples[inside, i] = chi * sp(xloc) * osc
        dx = TWO_PI / N
        norm = float(np.sqrt(np.sum(np.abs(samples) ** 2) * dx))
        if norm == 0.0:
            raise CutoffTooWide("cutoff support missed every grid point")
        samples /= norm
        return Quasimode(samples=samples, x=xs, center=self.root, z=self.z,
                         h=h, support_radius=w, c0_edge=self.c0_edge)


def _mode(sym, z, root, inventory) -> _Mode:
    return _memoised(sym, ("mode", complex(z), root, inventory),
                     lambda: _solve_mode(sym, z, root, inventory))


def _solve_mode(sym, z, root, inventory) -> _Mode:
    """Eikonal, transport and cutoff checks at one root, independent of h."""
    # scipy.interpolate is imported here, its only use, so that importing
    # weylab does not pay for it
    from scipy.interpolate import CubicSpline
    w = _auto_radius(sym, z, root, inventory)
    branch = locate_branch(sym, z, root)
    x0 = root.point.x
    phase = solve_eikonal(branch, (x0 - w, x0 + w))
    amp = leading_amplitude(branch, phase)

    im_phi = phase.phi.imag
    if np.min(im_phi) < -1e-10:
        raise CutoffTooWide(
            f"Im(phase) dips to {np.min(im_phi):.3e} inside radius {w:.4f}")
    c0 = float(min(im_phi[0], im_phi[-1]))
    if c0 <= C0_MIN:
        raise CutoffTooWide(
            f"Im(phase) = {c0:.3e} at the support edge (radius {w:.4f}) "
            f"is not positive")
    # splines of the continuation data, sampled on each circle grid
    return _Mode(root=root, z=complex(z), radius=w, c0_edge=c0,
                 phi=CubicSpline(phase.x_grid, phase.phi),
                 amp=tuple(CubicSpline(phase.x_grid, amp[:, i])
                           for i in range(sym.n)))


# -- Fourier projection and residuals ----------------------------------------

def fourier_coefficients(q: Quasimode, K: int) -> np.ndarray:
    """Coefficients against e_k = e^{ikx}/sqrt(2 pi), component-major layout."""
    N, n = q.samples.shape
    if N < 2 * (2 * K + 1):
        raise ValueError("sampling grid too coarse for the requested K")
    out = np.empty(n * (2 * K + 1), dtype=complex)
    scale = SQRT_2PI / N
    for i in range(n):
        F = np.fft.fft(q.samples[:, i])
        ks = np.arange(-K, K + 1)
        out[i * (2 * K + 1):(i + 1) * (2 * K + 1)] = scale * F[ks % N]
    return out


def residual(mat: OperatorMatrix, q: Quasimode) -> float:
    """||M u_hat|| / ||u_hat|| for M the truncation of P - z."""
    c = fourier_coefficients(q, mat.trunc.K)
    nc = np.linalg.norm(c)
    if nc == 0.0:
        raise ValueError("quasimode projects to zero on the truncation")
    return float(np.linalg.norm(mat.entries @ c) / nc)


def overlap_profile(alpha: int, j: int, i: int, e_plus: Quasimode,
                    e_minus: Quasimode, h: float) -> np.ndarray:
    """<e_k (hD)^alpha e_{+,j}, e_{-,i}> for all k = -N/2..N/2-1 via one FFT.

    Returns the length-N array indexed by k mod N (np.fft layout).
    """
    if len(e_plus.x) != len(e_minus.x):
        raise ValueError("quasimode grids differ")
    N = len(e_plus.x)
    freqs = np.fft.fftfreq(N, d=1.0 / N)       # integer frequencies
    u = e_plus.samples[:, j]
    du = np.fft.ifft(np.fft.fft(u) * (h * freqs) ** alpha)
    w = du * np.conj(e_minus.samples[:, i])
    # <e_k f> = (2 pi / N) sum f(x_m) e^{ik x_m} / sqrt(2 pi)
    F = np.fft.fft(w)
    prof = np.empty(N, dtype=complex)
    idx = (-np.arange(N)) % N
    prof[:] = (TWO_PI / N) * F[idx] / SQRT_2PI
    return prof


def overlap_variance(law, e_plus: Quasimode, e_minus: Quasimode,
                     h: float) -> float:
    """Deterministic sigma^2(h) = sum sigma^2 |<e_k (hD)^alpha e_+, e_->|^2."""
    n = e_plus.samples.shape[1]
    if law.n != n or e_minus.samples.shape[1] != n:
        raise ValueError("law and quasimode dimensions differ")
    total = 0.0
    ks = np.arange(-law.K_q, law.K_q + 1)
    for alpha in range(law.alpha_min, law.alpha_max + 1):
        sig = law.sigma_rule(alpha, 0, 0, ks, h)
        for i in range(n):
            for j in range(n):
                prof = overlap_profile(alpha, j, i, e_plus, e_minus, h)
                vals = prof[ks % len(prof)]
                total += float(np.sum(sig ** 2 * np.abs(vals) ** 2))
    return total

