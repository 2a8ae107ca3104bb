"""Fourier-truncated matrices of the operator and its perturbations.

On the circle, (hD_x)^alpha acts diagonally on e^{ikx} and multiplication
by a trigonometric polynomial is a convolution band, so the truncation to
modes |k| <= K is assembled exactly (no aliasing) from the coefficient
Fourier data.  Layout is component-major: row/column index
i*(2K+1) + (k + K) for component i and frequency k.

Both assemblers go through one band kernel, a Toeplitz gather: the
coefficients c_f of one term are spread into a table c[-2K..2K] and the
(2K+1)^2 block is c[l - k], read in one np.take with the precomputed index
l - k + 2K, then scaled in place by the term's (hk)^alpha row.  A term costs
O(side^2) whatever its number of coefficients, and no side^2 temporary is
made per coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.linalg

from .errors import BandwidthExceeded, NoConvergence
from .randomness import SQRT_2PI, PerturbationDraw
from .symbol import MatrixSymbol, TrigPolynomial, ZERO_TRIG


@dataclass(frozen=True)
class FourierTruncation:
    """Retained modes k = -K..K for an n-component system at parameter h."""

    K: int
    n: int
    h: float = 1.0

    def __post_init__(self):
        if self.K < 0:
            raise ValueError("K must be >= 0")
        if not 0.0 < self.h <= 1.0:
            raise ValueError("h must lie in (0, 1]")

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.K, self.K + 1)

    @property
    def side(self) -> int:
        return self.n * (2 * self.K + 1)

    def index(self, i: int, k: int) -> int:
        return i * (2 * self.K + 1) + (k + self.K)


@dataclass(frozen=True)
class OperatorMatrix:
    entries: np.ndarray
    trunc: FourierTruncation
    provenance: str = "unperturbed"

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.shape != (self.trunc.side, self.trunc.side):
            raise ValueError("entry block does not match the truncation side")
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True)
class SobolevWeights:
    """Per-frequency norms w(k) = (sum_{a<=m} (hk)^{2a})^{1/2} of e^{ikx}."""

    m: int
    h: float
    K: int

    @property
    def weights(self) -> np.ndarray:
        hk2 = (self.h * np.arange(-self.K, self.K + 1)) ** 2
        acc = np.ones_like(hk2)
        total = np.ones_like(hk2)
        for _ in range(self.m):
            acc = acc * hk2
            total += acc
        return np.sqrt(total)


def _assemble_bands(terms, trunc: FourierTruncation) -> np.ndarray:
    """Sum of band terms, each added into its (i, j) block in the order given.

    A term (i, j, coeffs, weight) adds c_{l-k} * weight[k] at (l, k): the
    multiplication by sum_f c_f e^{ifx} after the diagonal weight on the
    input modes.  Every frequency f must satisfy |f| <= 2K.
    """
    K = trunc.K
    nb = 2 * K + 1
    modes = trunc.modes
    index = modes[:, None] - modes[None, :] + 2 * K
    out = np.zeros((trunc.side, trunc.side), dtype=complex)
    table = np.empty(4 * K + 1, dtype=complex)
    band = np.empty((nb, nb), dtype=complex)
    for i, j, coeffs, weight in terms:
        table.fill(0.0)
        for f, c in coeffs.items():
            table[f + 2 * K] += c
        np.take(table, index, out=band, mode="clip")
        band *= weight[None, :]
        out[i * nb:(i + 1) * nb, j * nb:(j + 1) * nb] += band
    return out


def assemble_operator(sym: MatrixSymbol,
                      trunc: FourierTruncation) -> OperatorMatrix:
    """Matrix of sum_alpha A_alpha(x) (hD)^alpha on modes |k| <= K."""
    if sym.n != trunc.n:
        raise ValueError("dimension mismatch between symbol and truncation")
    bw = sym.max_bandwidth()
    if trunc.K < bw + (1 if bw else 0):
        raise BandwidthExceeded(
            f"K={trunc.K} cannot hold coefficients of bandwidth {bw} "
            f"with a safety margin")
    hk = trunc.h * trunc.modes

    def terms():
        for i in range(sym.n):
            for j in range(sym.n):
                xipow = np.ones(len(hk))
                for a in range(sym.m + 1):
                    poly = sym.coeffs[a][i][j]
                    if not poly.is_zero():
                        yield i, j, poly.coefficients, xipow
                    xipow = xipow * hk

    return OperatorMatrix(_assemble_bands(terms(), trunc), trunc,
                          provenance="unperturbed")


def assemble_perturbation(draw: PerturbationDraw, trunc: FourierTruncation,
                          delta: float) -> OperatorMatrix:
    """delta * (matrix of Q_omega); Q_alpha = sum_k q_k e^{ikx}/sqrt(2 pi).

    Coefficients with |frequency| > 2K cannot act inside the truncation and
    are dropped; their total sigma-mass is already reported on the draw.
    """
    if delta < 0.0:
        raise ValueError("delta must be >= 0")
    if delta == 0.0:
        return OperatorMatrix(np.zeros((trunc.side, trunc.side), dtype=complex),
                              trunc, provenance="perturbation(delta=0)")
    hk = trunc.h * trunc.modes
    by_entry = {}
    for (alpha, i, j, k), q in draw.coeffs.items():
        if abs(k) > 2 * trunc.K:
            continue
        by_entry.setdefault((alpha, i, j), {})[k] = q / SQRT_2PI
    out = _assemble_bands(((i, j, cmap, hk ** alpha)
                           for (alpha, i, j), cmap in by_entry.items()), trunc)
    out *= delta
    return OperatorMatrix(out, trunc, provenance=f"perturbation(delta={delta!r})")


def perturbed_operator(base: OperatorMatrix, draw: PerturbationDraw,
                       delta: float) -> OperatorMatrix:
    """P - delta*Q_omega on base's truncation: the matrix every driver counts."""
    pert = assemble_perturbation(draw, base.trunc, delta)
    return OperatorMatrix(base.entries - pert.entries, base.trunc,
                          provenance=f"combined(delta={delta!r})")


def perturbed_symbol(sym: MatrixSymbol, draw: PerturbationDraw,
                     delta: float) -> MatrixSymbol:
    """The symbol of P + delta*Q_omega (for linearity cross-checks)."""
    grids = [[[sym.coeffs[a][i][j] for j in range(sym.n)]
              for i in range(sym.n)] for a in range(sym.m + 1)]
    for (alpha, i, j, k), q in draw.coeffs.items():
        extra = TrigPolynomial({k: delta * q / SQRT_2PI})
        grids[alpha][i][j] = grids[alpha][i][j] + extra
    coeffs = tuple(tuple(tuple(row) for row in grid) for grid in grids)
    return MatrixSymbol(sym.n, sym.m, coeffs, sym.semiclassical)


def formal_adjoint(sym: MatrixSymbol, h: float) -> MatrixSymbol:
    """P* = sum_beta B_beta (hD)^beta with
    B_beta = sum_{alpha >= beta} C(alpha,beta) h^{alpha-beta} D^{alpha-beta} A_alpha^*.
    Exact on trigonometric-polynomial coefficients."""
    n, m = sym.n, sym.m
    grids = [[[ZERO_TRIG for _ in range(n)] for _ in range(n)]
             for _ in range(m + 1)]
    for alpha in range(m + 1):
        for i in range(n):
            for j in range(n):
                star = sym.coeffs[alpha][j][i].conjugate()
                for beta in range(alpha + 1):
                    term = star
                    for _ in range(alpha - beta):
                        term = term.dx_op()
                    term = term.scale(comb(alpha, beta) * h ** (alpha - beta))
                    grids[beta][i][j] = grids[beta][i][j] + term
    coeffs = tuple(tuple(tuple(row) for row in grid) for grid in grids)
    return MatrixSymbol(n, m, coeffs, sym.semiclassical)


def operator_norm_Hm_to_L2(mat: OperatorMatrix, w: SobolevWeights) -> float:
    """Largest singular value of M . diag(1/w(k)), per component block."""
    if w.K != mat.trunc.K:
        raise ValueError("weight and matrix truncations differ")
    inv_w = np.tile(1.0 / w.weights, mat.trunc.n)
    return float(np.linalg.svd(mat.entries * inv_w[None, :],
                               compute_uv=False)[0])


def eigenvalues(mat: OperatorMatrix) -> np.ndarray:
    """All eigenvalues of the dense truncation, sorted by (Re, Im).

    LAPACK's zgeev (balancing + Hessenberg + shifted QR) provides the
    backward-stable contract; failures surface as NoConvergence.
    """
    try:
        vals = scipy.linalg.eigvals(mat.entries)
    except np.linalg.LinAlgError as exc:        # pragma: no cover
        raise NoConvergence(f"QR eigensolver failed: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def eigenpairs(mat: OperatorMatrix):
    """(eigenvalues, right eigenvectors), sorted by (Re, Im)."""
    try:
        vals, vecs = scipy.linalg.eig(mat.entries)
    except np.linalg.LinAlgError as exc:        # pragma: no cover
        raise NoConvergence(f"QR eigensolver failed: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    return vals[order], vecs[:, order]


def sigma_min_map(sym: MatrixSymbol, h: float, trunc: FourierTruncation,
                  z_grid) -> np.ndarray:
    """Smallest singular value of (P - z) per node; 1/sigma_min lower-bounds
    the truncated resolvent norm."""
    base = assemble_operator(sym, trunc).entries
    z_grid = np.asarray(z_grid, dtype=complex)
    eye = np.eye(trunc.side)
    out = np.empty(z_grid.shape, dtype=float)
    flat = z_grid.ravel()
    res = out.ravel()
    for idx, z in enumerate(flat):
        res[idx] = np.linalg.svd(base - z * eye, compute_uv=False)[-1]
    return out


# -- matrix files ------------------------------------------------------------

def save_matrix(mat: OperatorMatrix, path) -> None:
    """Header (side, n, K, h), then row-major 'Re Im' pairs."""
    with open(path, "w") as fh:
        t = mat.trunc
        fh.write(f"{t.side} {t.n} {t.K} {t.h!r}\n")
        for row in mat.entries:
            fh.write(" ".join(f"{float(v.real)!r} {float(v.imag)!r}"
                              for v in row) + "\n")


def load_matrix(path) -> OperatorMatrix:
    with open(path) as fh:
        side, n, K, h = fh.readline().split()
        side, n, K, h = int(side), int(n), int(K), float(h)
        rows = []
        for line in fh:
            parts = [float(p) for p in line.split()]
            rows.append([complex(parts[2 * i], parts[2 * i + 1])
                         for i in range(len(parts) // 2)])
    entries = np.array(rows, dtype=complex)
    trunc = FourierTruncation(K=K, n=n, h=h)
    if entries.shape != (side, side) or side != trunc.side:
        raise ValueError(f"corrupt matrix file {path}")
    return OperatorMatrix(entries, trunc, provenance="loaded")
