"""Matrix symbols on T*S^1: one coefficient array, one evaluator, roots.

A symbol p(x, xi) = sum_alpha A_alpha(x) xi^alpha is one dense complex array
``coeffs[alpha, i, j, f + B]``: the coefficient of e^{ifx} in the entry
A_alpha^{i,j}, for |f| <= B, the bandwidth.  Every value of p comes from one
evaluator in two stages.  ``coefficient_values`` gives A_alpha(x), and with
them d/dx A_alpha(x), on an array of x, shape (m+1, *x.shape, n, n); each
entry sums c_f e^{ifx} term by term in increasing f.  ``polynomial`` sums
A_alpha xi^alpha (real or complex xi, broadcast against x) with powers of xi
iterated in alpha order, and the xi-derivative with it.  The first stage runs
once per x: a Newton iteration in xi at fixed x reuses it, and a grid builds
its (len(x), n, n) coefficients before broadcasting against xi.
``det_or_eigvals`` turns (..., n, n) values into determinants or eigenvalues.

The scalarization ``q_z = det(p - z)`` organizes everything: its zeros in
phase space are classified by the sign of the real bracket
``(1/2i){q_z, conj(q_z)}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import NonConvergence, ZeroOnContour

TWO_PI = 2.0 * math.pi

# x grid of the construction-time sup/inf estimates of coefficients
_COEFF_X = np.linspace(0.0, TWO_PI, 512, endpoint=False)


@dataclass(frozen=True, eq=False)
class MatrixSymbol:
    """p(x, xi) = sum_{alpha=0..m} A_alpha(x) xi^alpha with n x n coefficients.

    ``coeffs[alpha, i, j, f + B]`` is the Fourier coefficient of e^{ifx} in
    A_alpha^{i,j}; the stored array is read-only and trimmed to the bandwidth
    B of its nonzero coefficients.  Ellipticity (min_x sigma_min(A_m(x)) > 0)
    is verified at construction, where the singular values of every A_alpha
    on an x grid give ``ellipticity_margin`` and ``sup_norms``.
    """

    n: int
    m: int
    coeffs: np.ndarray
    semiclassical: bool = True
    ellipticity_margin: float = field(init=False, repr=False)
    sup_norms: tuple = field(init=False, repr=False)    # per alpha

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        c = np.array(self.coeffs, dtype=complex)
        if (c.ndim != 4 or c.shape[:3] != (self.m + 1, self.n, self.n)
                or c.shape[3] % 2 != 1):
            raise ValueError("coeffs must have shape (m+1, n, n, 2B+1)")
        B = c.shape[3] // 2
        used = np.flatnonzero(c.any(axis=(0, 1, 2))) - B
        bw = int(np.abs(used).max(initial=0))
        c = c[..., B - bw:B + bw + 1].copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        sv = np.linalg.svd(coefficient_values(self, _COEFF_X),
                           compute_uv=False)
        object.__setattr__(self, "ellipticity_margin",
                           float(sv[self.m, :, -1].min()))
        object.__setattr__(self, "sup_norms",
                           tuple(float(s) for s in sv[..., 0].max(axis=1)))
        if self.ellipticity_margin <= 0.0:
            raise ValueError("leading coefficient is not elliptic: "
                             "min_x sigma_min(A_m(x)) <= 0")

    @classmethod
    def from_terms(cls, n: int, m: int, terms,
                   semiclassical: bool = True) -> "MatrixSymbol":
        """The symbol whose A_alpha^{i,j} sums c e^{ifx} over the terms
        (alpha, i, j, f, c)."""
        terms = list(terms)
        B = max((abs(int(t[3])) for t in terms), default=0)
        c = np.zeros((m + 1, n, n, 2 * B + 1), dtype=complex)
        for alpha, i, j, f, value in terms:
            c[alpha, i, j, int(f) + B] += value
        return cls(n, m, c, semiclassical)

    def max_bandwidth(self) -> int:
        return self.coeffs.shape[3] // 2

    def lower_order_present(self) -> list:
        """Orders alpha < m with a nonzero coefficient matrix."""
        return [a for a in range(self.m) if self.coeffs[a].any()]

    def adjoint_principal(self) -> "MatrixSymbol":
        """Pointwise conjugate-transpose symbol p*(x, xi): conj(A_alpha^{j,i}),
        whose e^{ifx} coefficient is the conjugate of the e^{-ifx} one."""
        return MatrixSymbol(self.n, self.m,
                            np.conj(self.coeffs[..., ::-1]).swapaxes(1, 2),
                            self.semiclassical)


def scalar_symbol(m: int, coeff_maps: Mapping[int, Mapping[int, complex]],
                  semiclassical: bool = True) -> MatrixSymbol:
    """Convenience constructor for n = 1 symbols.

    ``coeff_maps[alpha]`` maps Fourier frequency -> coefficient of A_alpha.
    Accepts either a dict keyed by alpha or a length-(m+1) sequence.
    """
    if not hasattr(coeff_maps, "get"):
        coeff_maps = dict(enumerate(coeff_maps))
    return MatrixSymbol.from_terms(
        1, m, ((a, 0, 0, f, c) for a, cmap in coeff_maps.items()
               for f, c in cmap.items()), semiclassical)


# -- the evaluator -------------------------------------------------------------

def coefficient_values(sym: MatrixSymbol, x, dx: bool = False):
    """A_alpha(x) for every alpha, shape (m+1, *x.shape, n, n); with ``dx``,
    the pair (A_alpha(x), d/dx A_alpha(x))."""
    x = np.asarray(x, dtype=float)
    B = sym.max_bandwidth()
    lead = (sym.m + 1,) + (1,) * x.ndim + (sym.n, sym.n)
    vals = np.zeros((sym.m + 1,) + x.shape + (sym.n, sym.n), dtype=complex)
    derivs = np.zeros_like(vals) if dx else None
    for f in range(-B, B + 1):
        c = sym.coeffs[..., f + B]
        if not c.any():
            continue
        wave = np.exp(1j * f * x)[..., None, None]
        vals += c.reshape(lead) * wave
        if dx:
            derivs += ((1j * f) * c).reshape(lead) * wave
    return (vals, derivs) if dx else vals


def polynomial(A: np.ndarray, xi, dxi: bool = False, out=None):
    """sum_alpha A[alpha] xi^alpha over the leading axis of A; with ``dxi``,
    the pair (that sum, sum_alpha alpha A[alpha] xi^(alpha-1)).

    xi broadcasts against A[alpha] without its two matrix axes.  The sum is
    written into ``out`` when given, so that a loop over grid chunks keeps
    two chunk-sized arrays alive, not three: with three, the allocator gave
    their pages back and faulted them in again on every chunk.
    """
    xi = np.asarray(xi)[..., None, None]
    shape = np.broadcast_shapes(A.shape[1:], xi.shape)
    if out is None:
        p = np.zeros(shape, dtype=complex)
    else:
        p = out
        p.fill(0.0)
    dp = np.zeros(shape, dtype=complex) if dxi else None
    xipow = np.ones_like(xi)
    for a in range(len(A)):
        p += A[a] * xipow
        if dxi and a + 1 < len(A):
            dp += (a + 1) * A[a + 1] * xipow
        xipow = xipow * xi
    return (p, dp) if dxi else p


def det_or_eigvals(mats: np.ndarray, det: bool) -> np.ndarray:
    """Determinants, shape (...), or eigenvalues, shape (..., n), of the
    n x n matrices on the last two axes of mats."""
    n = mats.shape[-1]
    if n == 1:
        # a 1 x 1 matrix is its own determinant and eigenvalue; LAPACK's LU
        # on 1 x 1 matrices took a third of a root scan's time
        return mats[..., 0, 0] if det else mats[..., 0]
    return np.linalg.det(mats) if det else np.linalg.eigvals(mats)


def adjugate(mats: np.ndarray) -> np.ndarray:
    """adj(M) on the last two axes, from the cofactors of M."""
    n = mats.shape[-1]
    adj = np.empty(mats.shape, dtype=complex)
    idx = np.arange(n)
    for i in range(n):
        for j in range(n):
            minor = mats[..., idx != i, :][..., idx != j]
            adj[..., j, i] = (-1) ** (i + j) * det_or_eigvals(minor, det=True)
    return adj


@dataclass(frozen=True)
class PhaseSpacePoint:
    x: float
    xi: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x) % TWO_PI)
        object.__setattr__(self, "xi", float(self.xi))


@dataclass(frozen=True)
class ClassifiedRoot:
    point: PhaseSpacePoint
    sign: str            # "plus" or "minus"
    bracket: float


@dataclass(frozen=True)
class RootInventory:
    z: complex
    roots: tuple
    beta: int
    gamma: int
    degenerate: bool


class RegionKind(Enum):
    OUTSIDE_SIGMA = "OutsideSigma"
    IN_LAMBDA = "InLambda"
    NEAR_PHI = "NearPhi"


@dataclass(frozen=True)
class RegionClassification:
    kind: RegionKind
    inventory: RootInventory


# The root scan: a GRID_NX x GRID_NXI seed grid over the xi window, damped
# Newton on each seed, roots merged within DEDUP_RADIUS, and a bracket within
# EPS_PHI_REL |grad q_z|^2 of zero marked degenerate.
GRID_NX = 256
GRID_NXI = 256
NEWTON_TOL = 1e-12
MAX_NEWTON = 60
DEDUP_RADIUS = 1e-6
EPS_PHI_REL = 1e-6


# -- q_z and its gradient ------------------------------------------------------

def _qz(sym: MatrixSymbol, x, xi, z: complex) -> np.ndarray:
    """det(p - z) at the points (x, xi), broadcast."""
    p = polynomial(coefficient_values(sym, x), xi)
    return det_or_eigvals(p - z * np.eye(sym.n), det=True)


def qz(sym: MatrixSymbol, pt: PhaseSpacePoint, z: complex) -> complex:
    return complex(_qz(sym, pt.x, pt.xi, z))


def qz_gradient(sym: MatrixSymbol, pt: PhaseSpacePoint, z: complex):
    """(d_x q_z, d_xi q_z) via the Jacobi formula dq = tr(adj(p-z) dp)."""
    A, dA = coefficient_values(sym, pt.x, dx=True)
    p, dpxi = polynomial(A, pt.xi, dxi=True)
    dpx = polynomial(dA, pt.xi)
    adj = adjugate(p - z * np.eye(sym.n))
    return complex(np.trace(adj @ dpx)), complex(np.trace(adj @ dpxi))


def poisson_bracket_indicator(sym: MatrixSymbol, pt: PhaseSpacePoint,
                              z: complex) -> float:
    """(1/2i)(d_xi q d_x conj(q) - d_x q d_xi conj(q)); real by construction."""
    dqx, dqxi = qz_gradient(sym, pt, z)
    value = (dqxi * np.conj(dqx) - dqx * np.conj(dqxi)) / 2j
    if abs(value.imag) > 1e-12 * (1.0 + abs(value)):
        raise ArithmeticError("bracket indicator has a non-negligible "
                              f"imaginary residue: {value!r}")
    return float(value.real)


# -- xi window --------------------------------------------------------------

def xi_window(sym: MatrixSymbol, z_sup: float) -> float:
    """Sufficient |xi| bound outside which ellipticity forces q_z != 0.

    Uses only the lower orders actually present in the symbol (plus the
    constant order), which keeps the window tight for homogeneous symbols.
    """
    lower = sym.lower_order_present()
    total_lower = sum(sym.sup_norms[a] for a in lower)
    b = (abs(z_sup) + total_lower) / sym.ellipticity_margin
    if b == 0.0:
        return 0.0
    exps = {0} | set(lower)
    return 2.0 * max(b ** (1.0 / (sym.m - a)) for a in exps)


# -- grid machinery ---------------------------------------------------------

def _local_minima(absq: np.ndarray) -> list:
    """Indices of strict-ish local minima, with x wrapped periodically."""
    nx, nxi = absq.shape
    padded = np.full((nx + 2, nxi + 2), np.inf)
    padded[1:-1, 1:-1] = absq
    padded[0, 1:-1] = absq[-1]
    padded[-1, 1:-1] = absq[0]
    center = padded[1:-1, 1:-1]
    is_min = np.ones(absq.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            neigh = padded[1 + di:nx + 1 + di, 1 + dj:nxi + 1 + dj]
            is_min &= center <= neigh
    return list(zip(*np.nonzero(is_min)))


def _newton_refine(sym: MatrixSymbol, z: complex, x0: float, xi0: float):
    """Damped Newton on (Re q, Im q); returns (x, xi, |q|) or None."""
    x, xi = float(x0), float(xi0)
    q = qz(sym, PhaseSpacePoint(x, xi), z)
    for _ in range(MAX_NEWTON):
        dqx, dqxi = qz_gradient(sym, PhaseSpacePoint(x, xi), z)
        jac = np.array([[dqx.real, dqxi.real], [dqx.imag, dqxi.imag]])
        rhs = np.array([q.real, q.imag])
        try:
            step = np.linalg.solve(jac, -rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        if np.hypot(*step) < NEWTON_TOL:
            return x, xi, abs(q)
        lam = 1.0
        for _ in range(25):
            xn, xin = x + lam * step[0], xi + lam * step[1]
            qn = qz(sym, PhaseSpacePoint(xn, xin), z)
            if abs(qn) < abs(q):
                break
            lam *= 0.5
        else:
            return None
        x, xi, q = xn, xin, qn
        if lam * np.hypot(*step) < NEWTON_TOL:
            return x, xi, abs(q)
    return None


def find_roots(sym: MatrixSymbol, z: complex) -> RootInventory:
    """All zeros of q_z in the ellipticity-derived xi window, classified."""
    window = xi_window(sym, abs(z))
    if window == 0.0:
        return RootInventory(z=complex(z), roots=(), beta=0, gamma=0,
                             degenerate=False)
    x = np.linspace(0.0, TWO_PI, GRID_NX, endpoint=False)
    xi = np.linspace(-window, window, GRID_NXI)
    q = _qz(sym, x[:, None], xi, z)
    absq = np.abs(q)
    qscale = max(float(np.median(absq)), 1e-300)
    accept = 1e-9 * qscale
    dx = x[1] - x[0]
    dxi = xi[1] - xi[0]

    found = []
    for ix, ixi in _local_minima(absq):
        seed_val = absq[ix, ixi]
        if seed_val > 0.75 * qscale:
            continue
        res = _newton_refine(sym, z, x[ix], xi[ixi])
        if res is None:
            dqx, dqxi = qz_gradient(sym, PhaseSpacePoint(x[ix], xi[ixi]), z)
            grad = math.hypot(abs(dqx), abs(dqxi))
            if seed_val < 0.25 * min(dx, dxi) * grad:
                raise NonConvergence(
                    f"Newton failed from near-root seed at x={x[ix]:.6f}, "
                    f"xi={xi[ixi]:.6f}, |q|={seed_val:.3e}")
            continue
        xr, xir, qr = res
        if qr > accept:
            continue
        if abs(xir) > window * (1.0 + 1e-9):
            continue
        found.append((xr % TWO_PI, xir))

    # deduplicate with x distance taken mod 2*pi
    unique = []
    for xr, xir in found:
        dup = False
        for xu, xiu in unique:
            ddx = min(abs(xr - xu), TWO_PI - abs(xr - xu))
            if math.hypot(ddx, xir - xiu) < max(DEDUP_RADIUS, 10 * dx * 1e-4):
                dup = True
                break
        if not dup:
            unique.append((xr, xir))

    roots = []
    degenerate = False
    for xr, xir in sorted(unique):
        pt = PhaseSpacePoint(xr, xir)
        bracket = poisson_bracket_indicator(sym, pt, z)
        dqx, dqxi = qz_gradient(sym, pt, z)
        eps_phi = EPS_PHI_REL * (abs(dqx) ** 2 + abs(dqxi) ** 2)
        if abs(bracket) <= eps_phi:
            degenerate = True
        sign = "plus" if bracket > 0 else "minus"
        roots.append(ClassifiedRoot(point=pt, sign=sign, bracket=bracket))

    beta = sum(1 for r in roots if r.sign == "plus")
    gamma = len(roots) - beta
    return RootInventory(z=complex(z), roots=tuple(roots), beta=beta,
                         gamma=gamma, degenerate=degenerate)


def classify_region(sym: MatrixSymbol, z: complex) -> RegionClassification:
    inv = find_roots(sym, z)
    if not inv.roots:
        kind = RegionKind.OUTSIDE_SIGMA
    elif inv.degenerate:
        kind = RegionKind.NEAR_PHI
    else:
        kind = RegionKind.IN_LAMBDA
    return RegionClassification(kind=kind, inventory=inv)


# -- winding numbers --------------------------------------------------------

def winding_number(sym: MatrixSymbol, z: complex, loop: Sequence,
                   max_refine: int = 18, zero_tol: float = 1e-13) -> int:
    """Argument-variation count of q_z along a closed polyline in (x, xi).

    The polyline is traversed in the order given (counterclockwise for the
    standard orientation of the (x, xi) plane); sampling is refined until
    consecutive argument jumps stay below pi/2.
    """
    pts = [np.asarray(p, dtype=float) for p in loop]
    if not np.allclose(pts[0], pts[-1]):
        pts.append(pts[0])
    samples = []
    for a, b in zip(pts[:-1], pts[1:]):
        seg_n = 16
        samples.append(np.linspace(a, b, seg_n, endpoint=False))
    samples = np.concatenate(samples + [pts[-1][None, :]])

    def q_of(arr):
        return _qz(sym, arr[:, 0] % TWO_PI, arr[:, 1], z)

    qvals = q_of(samples)
    scale = max(float(np.max(np.abs(qvals))), 1e-300)
    for _ in range(max_refine):
        if np.min(np.abs(qvals)) < zero_tol * scale:
            raise ZeroOnContour("q_z vanishes on the contour within tolerance")
        jumps = np.angle(qvals[1:] / qvals[:-1])
        bad = np.abs(jumps) >= 0.5 * math.pi
        if not bad.any():
            total = float(np.sum(jumps))
            wind = total / TWO_PI
            return int(round(wind))
        mids = 0.5 * (samples[:-1][bad] + samples[1:][bad])
        qmids = q_of(mids)
        insert_at = np.nonzero(bad)[0] + 1
        samples = np.insert(samples, insert_at, mids, axis=0)
        qvals = np.insert(qvals, insert_at, qmids, axis=0)
    raise ZeroOnContour("contour refinement exhausted; q_z too close to zero")

