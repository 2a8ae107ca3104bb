"""Fourier-truncated matrices of the operator and its perturbations.

On the circle, (hD_x)^alpha acts diagonally on e^{ikx} and multiplication
by a trigonometric polynomial is a convolution band, so the truncation to
modes |k| <= K is assembled exactly (no aliasing) from the coefficient
Fourier data.  Layout is component-major: row/column index
i*(2K+1) + (k + K) for component i and frequency k.

Both assemblers go through one band kernel, a Toeplitz gather: the
coefficients c_f of one term, a row of the symbol's array
``coeffs[alpha, i, j, f + B]`` or of the draw's ``q[alpha - alpha_min, i, j,
k + K_q]``, are added into a table c[-2K..2K] and the (2K+1)^2 block is
c[l - k], read in one np.take with the precomputed index l - k + 2K, then
scaled in place by the term's (hk)^alpha row.  A term costs O(side^2)
whatever its number of coefficients, and no side^2 temporary is made per
coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import BandwidthExceeded, NonConvergence
from .randomness import SQRT_2PI, PerturbationDraw
from .symbol import MatrixSymbol


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


@dataclass(frozen=True)
class OperatorMatrix:
    entries: np.ndarray
    trunc: FourierTruncation

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.shape != (self.trunc.side, self.trunc.side):
            raise ValueError("entry block does not match the truncation side")
        object.__setattr__(self, "entries", e)


def _assemble_bands(terms, trunc: FourierTruncation) -> np.ndarray:
    """Sum of band terms, each added into its (i, j) block in the order given.

    A term (i, j, coeffs, weight) adds c_{l-k} * weight[k] at (l, k): the
    multiplication by sum_f c_f e^{ifx} after the diagonal weight on the
    input modes.  ``coeffs`` holds c_f at f + B for |f| <= B <= 2K.
    """
    K = trunc.K
    nb = 2 * K + 1
    modes = trunc.modes
    index = modes[:, None] - modes[None, :] + 2 * K
    out = np.zeros((trunc.side, trunc.side), dtype=complex)
    table = np.empty(4 * K + 1, dtype=complex)
    band = np.empty((nb, nb), dtype=complex)
    for i, j, coeffs, weight in terms:
        B = len(coeffs) // 2
        table.fill(0.0)
        table[2 * K - B:2 * K + B + 1] += coeffs
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
                    if sym.coeffs[a, i, j].any():
                        yield i, j, sym.coeffs[a, i, j], xipow
                    xipow = xipow * hk

    return OperatorMatrix(_assemble_bands(terms(), trunc), trunc)


def assemble_perturbation(draw: PerturbationDraw, trunc: FourierTruncation,
                          delta: float) -> OperatorMatrix:
    """delta * (matrix of Q_omega); Q_alpha = sum_k q_k e^{ikx}/sqrt(2 pi).

    Coefficients with |frequency| > 2K couple no two modes of the
    truncation, so dropping them changes no entry.
    """
    if delta < 0.0:
        raise ValueError("delta must be >= 0")
    if delta == 0.0:
        return OperatorMatrix(np.zeros((trunc.side, trunc.side), dtype=complex),
                              trunc)
    hk = trunc.h * trunc.modes
    K_q = draw.law.K_q
    kept = min(K_q, 2 * trunc.K)
    q = _over_sqrt_2pi(draw.q)[..., K_q - kept:K_q + kept + 1]
    out = _assemble_bands(((i, j, q[a, i, j], hk ** (draw.law.alpha_min + a))
                           for a, i, j in np.ndindex(q.shape[:3])), trunc)
    out *= delta
    return OperatorMatrix(out, trunc)


def perturbed_operator(base: OperatorMatrix, draw: PerturbationDraw,
                       delta: float) -> OperatorMatrix:
    """P - delta*Q_omega on base's truncation: the matrix every driver counts."""
    pert = assemble_perturbation(draw, base.trunc, delta)
    return OperatorMatrix(base.entries - pert.entries, base.trunc)


def _over_sqrt_2pi(q: np.ndarray) -> np.ndarray:
    """q / sqrt(2 pi), dividing the real and imaginary parts: dividing the
    complex array multiplies by the reciprocal, which rounds differently."""
    return (np.ascontiguousarray(q).view(float) / SQRT_2PI).view(complex)


def formal_adjoint(sym: MatrixSymbol, h: float) -> MatrixSymbol:
    """P* = sum_beta B_beta (hD)^beta with
    B_beta = sum_{alpha >= beta} C(alpha,beta) h^{alpha-beta} D^{alpha-beta} A_alpha^*.
    Exact on trigonometric-polynomial coefficients: D = (1/i) d/dx multiplies
    the e^{ifx} coefficient by f."""
    star = sym.adjoint_principal().coeffs
    f = np.arange(-sym.max_bandwidth(), sym.max_bandwidth() + 1)
    out = np.zeros_like(star)
    for alpha in range(sym.m + 1):
        for beta in range(alpha + 1):
            term = star[alpha]
            for _ in range(alpha - beta):
                term = f * term
            out[beta] += (comb(alpha, beta) * h ** (alpha - beta)) * term
    return MatrixSymbol(sym.n, sym.m, out)


def eigenvalues(mat: OperatorMatrix) -> np.ndarray:
    """All eigenvalues of the dense truncation, sorted by (Re, Im).

    LAPACK's zgeev (balancing + Hessenberg + shifted QR) provides the
    backward-stable contract; failures surface as NonConvergence, and a
    non-finite entry, which only a bad input makes, as ValueError.  numpy's
    wrapper releases the GIL during the solve, where scipy's holds it, so
    the pool's feeder thread keeps the helpers busy meanwhile; both call
    the same zgeev and give the same spectra.
    """
    try:
        vals = np.linalg.eigvals(mat.entries)
    except np.linalg.LinAlgError as exc:
        if not np.isfinite(mat.entries).all():
            raise ValueError("matrix entries must be finite") from exc
        raise NonConvergence(f"QR eigensolver failed: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


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

