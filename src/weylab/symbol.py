"""Matrix symbols on T*S^1: one coefficient array, one evaluator, roots.

A symbol p(x, xi) = sum_alpha A_alpha(x) xi^alpha is one dense complex array
``coeffs[alpha, i, j, f + B]``: the coefficient of e^{ifx} in the entry
A_alpha^{i,j}, for |f| <= B, the bandwidth.  Most (order, frequency) slices
``coeffs[alpha, :, :, f + B]`` of the symbols in use are zero, so the
symbol records at construction which are not (``slices``), and the
evaluator pays only for those.  Every value of p comes from one evaluator
in two stages.  ``coefficient_values`` gives A_alpha(x), and with them
d/dx A_alpha(x), on an array of x; each entry sums c_f e^{ifx} over its
order's nonzero slices in increasing f, and a constant term (f = 0) is
added as it is, with no exponential.  ``polynomial`` sums A_alpha xi^alpha
(real or complex xi, broadcast against x) with powers of xi iterated in
alpha order, and the xi-derivative with it, skipping the orders whose
coefficients vanish (``orders()``).  Skipping a zero term leaves every sum
bit for bit as it was, since adding a signed zero to a sum started at +0
changes nothing.  The first stage runs once per x: a Newton iteration in
xi at fixed x reuses it, and ``grid_values`` builds a grid's coefficients
on a batch of x columns, broadcast against rows of xi.  ``det_or_eigvals``
turns the values into determinants or eigenvalues, and ``adjugate`` into
adjugates; they are the only code that branches on n.  Both use closed
forms for n <= 2: LAPACK's batched LU spent 29 ms of an F3 root scan's
38 ms on the 65,536 2 x 2 determinants of its seed grid.

Values are laid out in entry planes: the n x n matrix axes come first and
the point axes last, as in A of shape (m+1, n, n, *x.shape), so that each
entry (i, j) is one contiguous array over the points.  Every elementwise
step then runs one long inner loop per entry; with the matrix axes last,
each step would run its inner loop over a matrix axis of length n and read
the entries at a stride of n^2 values.  Eigenvalues come in planes too, shape
(n, *points), and n >= 3 moves the matrix axes last only for LAPACK.  Only
the gradient's trace products, tr(adj dp), run through BLAS on matrix-last
copies, so that gradients and root brackets keep BLAS's rounding: its
fused multiply-adds round sums of products differently from a product of
planes for general matrices, and few points take a gradient.

The scalarization ``q_z = det(p - z)`` organizes everything: its zeros in
phase space are classified by the sign of the real bracket
``(1/2i){q_z, conj(q_z)}``.  ``_jet`` gives q_z and its gradient on arrays
of points.  ``find_roots`` seeds at the local minima of |q_z| on a grid and
moves all seeds together by one undamped Newton iteration on (Re q_z,
Im q_z), whose Jacobian determinant Im(conj(d_x q_z) d_xi q_z) is the
bracket: the last evaluation at a root also classifies it.  A seed stops
when its step is below tolerance or once it leaves the xi window, which
holds every zero well inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import NonConvergence, ZeroOnContour

TWO_PI = 2.0 * math.pi
SQRT_2PI = math.sqrt(TWO_PI)

# x grid of the construction-time sup/inf estimates of coefficients
_COEFF_X = np.linspace(0.0, TWO_PI, 512, endpoint=False)

# Points per batch of a large evaluation, so that a batch's entry planes
# stay in a core's L2 cache and few pages are faulted in
POINT_CHUNK = 8192


def circle_distance(a, b):
    """|a - b| around the circle, for angles in [0, 2 pi); broadcasts."""
    d = np.abs(np.subtract(a, b))
    return np.minimum(d, TWO_PI - d)


@dataclass(frozen=True, eq=False)
class MatrixSymbol:
    """p(x, xi) = sum_{alpha=0..m} A_alpha(x) xi^alpha with n x n coefficients.

    ``coeffs[alpha, i, j, f + B]`` is the Fourier coefficient of e^{ifx} in
    A_alpha^{i,j}; the stored array is read-only and trimmed to the bandwidth
    B of its nonzero coefficients.  Ellipticity (min_x sigma_min(A_m(x)) > 0)
    is verified at construction, where the singular values of every nonzero
    A_alpha on an x grid give ``ellipticity_margin`` and ``sup_norms`` (0
    for an order whose coefficients vanish).  ``slices`` records the nonzero
    slices: a pair (f, orders) for each frequency f, increasing, with the
    orders alpha whose slice coeffs[alpha, :, :, f + B] is not zero.
    """

    n: int
    m: int
    coeffs: np.ndarray
    slices: tuple = field(init=False, repr=False)
    ellipticity_margin: float = field(init=False, repr=False)
    sup_norms: tuple = field(init=False, repr=False)    # per alpha

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        c = np.array(self.coeffs, dtype=complex)
        if (c.ndim != 4 or c.shape[:3] != (self.m + 1, self.n, self.n)
                or c.shape[3] % 2 != 1):
            raise ValueError("coeffs must have shape (m+1, n, n, 2B+1)")
        if not np.isfinite(c).all():
            raise ValueError("symbol coefficients must be finite")
        B = c.shape[3] // 2
        used = np.flatnonzero(c.any(axis=(0, 1, 2))) - B
        bw = int(np.abs(used).max(initial=0))
        c = c[..., B - bw:B + bw + 1].copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        nonzero = c.any(axis=(1, 2))
        object.__setattr__(self, "slices", tuple(
            (f - bw, tuple(np.flatnonzero(nonzero[:, f]).tolist()))
            for f in range(2 * bw + 1) if nonzero[:, f].any()))
        orders = self.orders()
        sv = np.zeros((self.m + 1, len(_COEFF_X), self.n))
        sv[orders] = np.linalg.svd(np.moveaxis(
            coefficient_values(self, _COEFF_X)[orders], -1, 1),
            compute_uv=False)
        object.__setattr__(self, "ellipticity_margin",
                           float(sv[self.m, :, -1].min()))
        object.__setattr__(self, "sup_norms",
                           tuple(float(s) for s in sv[..., 0].max(axis=1)))
        if self.ellipticity_margin <= 0.0:
            raise ValueError("leading coefficient is not elliptic: "
                             "min_x sigma_min(A_m(x)) <= 0")

    @classmethod
    def from_terms(cls, n: int, m: int, terms) -> "MatrixSymbol":
        """The symbol whose A_alpha^{i,j} sums c e^{ifx} over the terms
        (alpha, i, j, f, c)."""
        terms = list(terms)
        B = max((abs(int(t[3])) for t in terms), default=0)
        c = np.zeros((m + 1, n, n, 2 * B + 1), dtype=complex)
        for alpha, i, j, f, value in terms:
            c[alpha, i, j, int(f) + B] += value
        return cls(n, m, c)

    def max_bandwidth(self) -> int:
        return self.coeffs.shape[3] // 2

    def orders(self) -> list:
        """Orders alpha with a nonzero coefficient matrix, increasing."""
        return sorted({a for _, orders in self.slices for a in orders})

    def lower_order_present(self) -> list:
        """Orders alpha < m with a nonzero coefficient matrix."""
        return [a for a in self.orders() if a < self.m]

    def adjoint_principal(self) -> "MatrixSymbol":
        """Pointwise conjugate-transpose symbol p*(x, xi): conj(A_alpha^{j,i}),
        whose e^{ifx} coefficient is the conjugate of the e^{-ifx} one."""
        return MatrixSymbol(self.n, self.m,
                            np.conj(self.coeffs[..., ::-1]).swapaxes(1, 2))


# -- the evaluator -------------------------------------------------------------

def coefficient_values(sym: MatrixSymbol, x, dx: bool = False):
    """A_alpha(x) for every alpha in entry planes, shape (m+1, n, n,
    *x.shape); with ``dx``, the pair (A_alpha(x), d/dx A_alpha(x)).  Only
    the symbol's nonzero slices are summed, one exponential per frequency
    and none for f = 0."""
    x = np.asarray(x, dtype=float)
    B = sym.max_bandwidth()
    entry = (sym.n, sym.n) + (1,) * x.ndim
    vals = np.zeros((sym.m + 1, sym.n, sym.n) + x.shape, dtype=complex)
    derivs = np.zeros_like(vals) if dx else None
    for f, orders in sym.slices:
        wave = np.exp(1j * f * x) if f else None
        for a in orders:
            c = sym.coeffs[a, :, :, f + B].reshape(entry)
            if f == 0:          # e^{i0x} = 1, and d/dx of a constant is 0
                vals[a] += c
            else:
                vals[a] += c * wave
                if dx:
                    derivs[a] += ((1j * f) * c) * wave
    return (vals, derivs) if dx else vals


def polynomial(A: np.ndarray, xi, dxi: bool = False, out=None, orders=None):
    """sum_alpha A[alpha] xi^alpha over the leading axis of A; with ``dxi``,
    the pair (that sum, sum_alpha alpha A[alpha] xi^(alpha-1)).

    xi broadcasts against the point axes of A, those after its two entry
    axes, and may not have more axes than they do.  Only the alpha in
    ``orders`` are summed, every alpha by default; a symbol's ``orders()``
    leaves out those whose A[alpha] vanish.  The sum is written into
    ``out`` when given (see ``grid_values``).
    """
    xi = np.asarray(xi)
    if xi.ndim > A.ndim - 3:
        raise ValueError("xi has more axes than the points of A")
    if orders is None:
        orders = range(len(A))
    shape = np.broadcast_shapes(A.shape[1:], xi.shape)
    if out is None:
        p = np.zeros(shape, dtype=complex)
    else:
        p = out
        p.fill(0.0)
    dp = np.zeros(shape, dtype=complex) if dxi else None
    term = np.empty(shape, dtype=complex)
    xipow = np.ones_like(xi)
    for a in range(max(orders, default=-1) + 1):
        if a in orders:
            p += np.multiply(A[a], xipow, out=term)
        if dxi and a + 1 in orders:
            dp += np.multiply((a + 1) * A[a + 1], xipow, out=term)
        xipow = xipow * xi
    return (p, dp) if dxi else p


def grid_values(sym: MatrixSymbol, x, xi):
    """Yields (columns, p): p(x[k], xi[k, ...]) in entry planes for each
    batch of whole x columns, at most POINT_CHUNK points or else one column,
    ``columns`` the slice of x it covers.  xi is one row per column, shape
    (len(x), *row), or one row that every column shares, shape (1, *row),
    which broadcasts uncopied.  A batch's coefficients are evaluated once,
    and every p is written into one buffer, so each must be used before the
    next: fresh arrays per batch were faulted in again on every batch."""
    xi = np.asarray(xi)
    row = xi.shape[1:]
    cols = max(POINT_CHUNK // math.prod(row), 1)
    buffer = np.empty((sym.n, sym.n, min(cols, len(x))) + row, dtype=complex)
    orders = sym.orders()
    for start in range(0, len(x), cols):
        A = coefficient_values(sym, x[start:start + cols])
        size = A.shape[3]
        p = polynomial(A.reshape(A.shape + (1,) * len(row)),
                       xi if len(xi) == 1 else xi[start:start + size],
                       out=buffer[:, :, :size], orders=orders)
        yield slice(start, start + size), p


def shift(p: np.ndarray, z) -> np.ndarray:
    """p - z I written over p's entry planes, z a scalar or an array over
    the points; returns p."""
    n = p.shape[0]
    p -= z * np.eye(n).reshape((n, n) + (1,) * (p.ndim - 2))
    return p


def det_or_eigvals(mats: np.ndarray, det: bool) -> np.ndarray:
    """Determinants, shape (...), or eigenvalue planes, shape (n, ...), of
    the n x n matrices in the entry planes of mats, shape (n, n, ...).

    n = 1 and n = 2 take closed forms, a few products per matrix where
    LAPACK's batched LU or eigensolve costs far more.  With M = [[a, b],
    [c, e]] the determinant is d = ae - bc, and the eigenvalues solve
    lambda^2 - t lambda + d = 0 stably: first the root of larger modulus,
    (t + s)/2 with s = +-sqrt((a - e)^2 + 4bc) on the side of t = a + e,
    then the other as d over it.  LAPACK serves n >= 3, and n = 0, whose
    determinant is 1.
    """
    n = mats.shape[0]
    if n == 1:
        return mats[0, 0] if det else mats[0]
    if n != 2:
        mats = np.moveaxis(mats, (0, 1), (-2, -1))
        if det:
            return np.linalg.det(mats)
        return np.moveaxis(np.linalg.eigvals(mats), -1, 0)
    a, b = mats[0, 0], mats[0, 1]
    c, e = mats[1, 0], mats[1, 1]
    d = a * e - b * c
    if det:
        return d
    t = a + e
    s = np.sqrt((a - e) ** 2 + 4.0 * b * c + 0j)
    s = np.where((np.conj(t) * s).real < 0, -s, s)
    big = 0.5 * (t + s)
    with np.errstate(all="ignore"):
        small = np.where(big == 0, 0, d / big)
    return np.stack([big, small])


def adjugate(mats: np.ndarray) -> np.ndarray:
    """adj(M) in entry planes: 1 for n = 1, [[e, -b], [-c, a]] for n = 2,
    and the cofactors of M beyond."""
    n = mats.shape[0]
    if n == 1:
        return np.ones(mats.shape, dtype=complex)
    adj = np.empty(mats.shape, dtype=complex)
    if n == 2:
        adj[0, 0] = mats[1, 1]
        adj[1, 1] = mats[0, 0]
        adj[0, 1] = -mats[0, 1]
        adj[1, 0] = -mats[1, 0]
        return adj
    idx = np.arange(n)
    for i in range(n):
        for j in range(n):
            minor = mats[idx != i][:, idx != j]
            adj[j, i] = (-1) ** (i + j) * det_or_eigvals(minor, det=True)
    return adj


def trace_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(a b) at each point of two entry-plane stacks, by BLAS matrix
    products on matrix-last copies (see the module docstring)."""
    last = tuple(range(2, a.ndim)) + (0, 1)
    return np.trace(np.ascontiguousarray(a.transpose(last))
                    @ np.ascontiguousarray(b.transpose(last)),
                    axis1=-2, axis2=-1)


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


# The root scan: a GRID_NX x GRID_NXI seed grid over the xi window, at most
# MAX_NEWTON Newton steps on all seeds at once, each seed stopping at a step
# below NEWTON_TOL, roots merged within DEDUP_STEPS x steps of that grid
# (2.45e-5 at GRID_NX = 256), and a bracket within EPS_PHI_REL |grad q_z|^2
# of zero marked degenerate.
GRID_NX = 256
GRID_NXI = 256
NEWTON_TOL = 1e-12
MAX_NEWTON = 60
DEDUP_STEPS = 1e-3
EPS_PHI_REL = 1e-6
# winding_number refines its samples in at most WINDING_REFINE passes, and
# takes |q_z| < WINDING_ZERO_TOL max|q_z| on the contour for a zero there
WINDING_REFINE = 18
WINDING_ZERO_TOL = 1e-13


# -- q_z and its gradient ------------------------------------------------------

def _jet(sym: MatrixSymbol, x, xi, z: complex, grad: bool = True):
    """q_z = det(p - z) at the points (x, xi), broadcast; with ``grad``, the
    triple (q_z, d_x q_z, d_xi q_z), the derivatives by the Jacobi formula
    dq = tr(adj(p - z) dp)."""
    orders = sym.orders()
    if not grad:
        p = polynomial(coefficient_values(sym, x), xi, orders=orders)
        return det_or_eigvals(shift(p, z), det=True)
    A, dA = coefficient_values(sym, x, dx=True)
    p, dpxi = polynomial(A, xi, dxi=True, orders=orders)
    pz = shift(p, z)
    adj = adjugate(pz)
    return (det_or_eigvals(pz, det=True),
            trace_product(adj, polynomial(dA, xi, orders=orders)),
            trace_product(adj, dpxi))


def _bracket(dqx, dqxi):
    """(1/2i)(d_xi q d_x conj(q) - d_x q d_xi conj(q)), which equals
    Im(conj(d_x q) d_xi q), the Jacobian determinant of (Re q, Im q)."""
    return (np.conj(dqx) * dqxi).imag


def qz(sym: MatrixSymbol, pt: PhaseSpacePoint, z: complex) -> complex:
    return complex(_jet(sym, pt.x, pt.xi, z, grad=False))


def qz_gradient(sym: MatrixSymbol, pt: PhaseSpacePoint, z: complex):
    """(d_x q_z, d_xi q_z) at pt."""
    _, dqx, dqxi = _jet(sym, pt.x, pt.xi, z)
    return complex(dqx), complex(dqxi)


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

def _local_minima(absq: np.ndarray, cap: float):
    """Index arrays (ix, ixi) of the strict-ish local minima at most cap, x
    wrapped periodically, in row-major order: the points at most every value
    of their 3 x 3 neighbourhood, by a separable minimum filter.  The minimum
    over each point's xi neighbours is taken on the flat array, in
    contiguous shifts, and redone in the first and last columns; each row is
    then compared with it and with its x neighbours'.  np.minimum and the
    comparisons carry a NaN to False."""
    lowest = absq.copy()
    flat, low = absq.ravel(), lowest.ravel()
    np.minimum(low[1:], flat[:-1], out=low[1:])
    np.minimum(low[:-1], flat[1:], out=low[:-1])
    lowest[:, 0] = absq[:, :2].min(axis=1)
    lowest[:, -1] = absq[:, -2:].min(axis=1)
    is_min = absq <= cap
    is_min &= absq <= lowest
    is_min[1:] &= absq[1:] <= lowest[:-1]
    is_min[:-1] &= absq[:-1] <= lowest[1:]
    is_min[0] &= absq[0] <= lowest[-1]
    is_min[-1] &= absq[-1] <= lowest[0]
    return np.divmod(np.flatnonzero(is_min), absq.shape[1])


def find_roots(sym: MatrixSymbol, z: complex) -> RootInventory:
    """All zeros of q_z in the ellipticity-derived xi window, classified."""
    window = xi_window(sym, abs(z))
    if window == 0.0:
        return RootInventory(z=complex(z), roots=(), beta=0, gamma=0,
                             degenerate=False)
    x = np.linspace(0.0, TWO_PI, GRID_NX, endpoint=False)
    xi = np.linspace(-window, window, GRID_NXI)
    absq = np.empty((GRID_NX, GRID_NXI))
    for rows, p in grid_values(sym, x, xi[None]):
        absq[rows] = np.abs(det_or_eigvals(shift(p, z), det=True))
    # np.median's value from one partition at the upper middle value: the
    # mean of it and the largest value below it, or NaN where the grid
    # holds one, which the partition puts in the upper half.  (np.partition
    # at both middle values selects several times more slowly.)
    half = absq.size // 2
    part = np.partition(absq, half, axis=None)
    median = (np.nan if np.isnan(part[half:].max())
              else float((part[:half].max() + part[half]) / 2.0))
    qscale = max(median, 1e-300)
    dx, dxi = x[1] - x[0], xi[1] - xi[0]

    # undamped Newton on (Re q, Im q) from every seed at once; a seed stops
    # at a step below NEWTON_TOL or not finite, or once it has left the xi
    # window.  The window is twice the ellipticity bound, so a seed within a
    # cell of a simple zero stays inside it; one that leaves is no root, and
    # would otherwise wander until MAX_NEWTON, as F2's saddles at xi ~ 0 do
    ix, ixi = _local_minima(absq, 0.75 * qscale)
    seed_val = absq[ix, ixi]
    xr, xir = x[ix], xi[ixi]
    q, qx, qxi = _jet(sym, xr, xir, z)
    seed_grad = np.hypot(np.abs(qx), np.abs(qxi))
    seed_flat = np.abs(_bracket(qx, qxi)) <= EPS_PHI_REL * seed_grad ** 2
    live = np.ones(len(xr), dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(MAX_NEWTON):
            # Cramer's rule; the Jacobian determinant is the bracket
            jac = _bracket(qx, qxi)
            sx = -(np.conj(q) * qxi).imag / jac
            sxi = -(np.conj(qx) * q).imag / jac
            size = np.hypot(sx, sxi)
            live &= ((size >= NEWTON_TOL) & (size < np.inf)
                     & (np.abs(xir) <= window))
            if not live.any():
                break
            xr[live] = (xr[live] + sx[live]) % TWO_PI
            xir[live] += sxi[live]
            q[live], qx[live], qxi[live] = _jet(sym, xr[live], xir[live], z)
    is_root = np.abs(q) <= 1e-9 * qscale
    # a seed within a quarter cell of a zero whose Newton failed holds a
    # zero only if q_z winds around its +-1-cell square: just outside Sigma
    # a small minimum of |q_z| with no zero winds 0 and is no root.  One
    # whose bracket is already degenerate, as at a double zero on the
    # boundary of Sigma, marks the inventory degenerate instead
    stuck = ~is_root & (seed_val < 0.25 * min(dx, dxi) * seed_grad)
    degenerate = bool(np.any(stuck & seed_flat))
    for k in np.flatnonzero(stuck & ~seed_flat):
        x0, xi0 = x[ix[k]], xi[ixi[k]]
        square = [(x0 - dx, xi0 - dxi), (x0 + dx, xi0 - dxi),
                  (x0 + dx, xi0 + dxi), (x0 - dx, xi0 + dxi)]
        try:
            winds = winding_number(sym, z, square) != 0
        except ZeroOnContour:
            winds = True
        if winds:
            raise NonConvergence(
                f"Newton failed from near-root seed at x={x0:.6f}, "
                f"xi={xi0:.6f}, |q|={seed_val[k]:.3e}")
    is_root &= np.abs(xir) <= window * (1.0 + 1e-9)

    # deduplicate with x distance taken mod 2*pi, then sort by (x, xi)
    unique = []
    for k in np.flatnonzero(is_root):
        near = np.hypot(circle_distance(xr[unique], xr[k]),
                        xir[unique] - xir[k])
        if not (near < DEDUP_STEPS * dx).any():
            unique.append(k)
    unique.sort(key=lambda k: (xr[k], xir[k]))

    bracket = _bracket(qx[unique], qxi[unique])
    grad2 = np.abs(qx[unique]) ** 2 + np.abs(qxi[unique]) ** 2
    roots = tuple(ClassifiedRoot(point=PhaseSpacePoint(xr[k], xir[k]),
                                 sign="plus" if b > 0 else "minus",
                                 bracket=float(b))
                  for k, b in zip(unique, bracket))
    beta = int(np.sum(bracket > 0))
    degenerate |= bool(np.any(np.abs(bracket) <= EPS_PHI_REL * grad2))
    return RootInventory(z=complex(z), roots=roots, beta=beta,
                         gamma=len(roots) - beta, degenerate=degenerate)


def classify_region(sym: MatrixSymbol, z: complex) -> RegionClassification:
    inv = find_roots(sym, z)
    if inv.degenerate:
        kind = RegionKind.NEAR_PHI
    elif not inv.roots:
        kind = RegionKind.OUTSIDE_SIGMA
    else:
        kind = RegionKind.IN_LAMBDA
    return RegionClassification(kind=kind, inventory=inv)


# -- winding numbers --------------------------------------------------------

def winding_number(sym: MatrixSymbol, z: complex, loop: Sequence) -> int:
    """Argument-variation count of q_z along a closed polyline in (x, xi).

    The polyline is traversed in the order given (counterclockwise for the
    standard orientation of the (x, xi) plane); sampling is refined until
    consecutive argument jumps stay below pi/2.
    """
    pts = np.asarray(loop, dtype=float)
    if not np.allclose(pts[0], pts[-1]):
        pts = np.concatenate([pts, pts[:1]])
    # 16 samples per segment, from its start: linspace's a + k (b - a) / 16,
    # broadcast over the segments
    a, b = pts[:-1, None], pts[1:, None]
    samples = np.concatenate([
        (a + np.arange(16)[:, None] * ((b - a) / 16)).reshape(-1, 2),
        pts[-1:]])

    def q_of(arr):
        return _jet(sym, arr[:, 0] % TWO_PI, arr[:, 1], z, grad=False)

    qvals = q_of(samples)
    scale = max(float(np.max(np.abs(qvals))), 1e-300)
    for _ in range(WINDING_REFINE):
        if np.min(np.abs(qvals)) < WINDING_ZERO_TOL * scale:
            raise ZeroOnContour("q_z vanishes on the contour within tolerance")
        jumps = np.angle(qvals[1:] / qvals[:-1])
        bad = np.abs(jumps) >= 0.5 * math.pi
        if not bad.any():
            return int(round(float(np.sum(jumps)) / TWO_PI))
        mids = 0.5 * (samples[:-1][bad] + samples[1:][bad])
        insert_at = np.nonzero(bad)[0] + 1
        samples = np.insert(samples, insert_at, mids, axis=0)
        qvals = np.insert(qvals, insert_at, q_of(mids), axis=0)
    raise ZeroOnContour("contour refinement exhausted; q_z too close to zero")
