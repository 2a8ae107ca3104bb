"""Closed forms and small independent computations the checks compare with.

Nothing here calls weylab: every value is derived from the symbols' formulas,
so a check that compares weylab's output with one of these can fail.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

TWO_PI = 2.0 * math.pi

# Sector of the high-energy workload and the phase-space F4 measures.
SECTOR = (0.05, TWO_PI - 0.05)
# Spectral window of the semiclassical workload (README configuration).
GAMMA_SC = (0.1, 0.7, -0.5, 0.5)


def f1_square_measure() -> float:
    """F1 = xi + e^{ix} on [-1/2, 1/2]^2: |sin x| <= 1/2 on a set of
    length 2pi/3, and xi runs over an interval of length 1 there."""
    return TWO_PI / 3.0


def f3_square_measure() -> float:
    """F3 = [[xi + e^{ix}, 1], [0, xi - e^{ix}]] has the eigenvalues
    xi + e^{ix} and xi - e^{ix}; each branch contributes F1's 2pi/3."""
    return 2.0 * TWO_PI / 3.0


def f2_rect_measure() -> float:
    """F2 = xi^2 + i e^{ix} = (xi^2 - sin x) + i cos x on GAMMA_SC:

        int_{|cos x| <= 1/2} 2 (sqrt(0.7 + sin x)_+ - sqrt(0.1 + sin x)_+) dx.

    Where |cos x| <= 1/2 and sin x < 0, sin x <= -0.866 and both roots
    vanish, so the integral runs over [pi/3, 2pi/3], where it is smooth.
    """
    re_min, re_max, _, im_max = GAMMA_SC

    def width(x):
        s = math.sin(x)
        return 2.0 * (math.sqrt(re_max + s) - math.sqrt(re_min + s))
    a = math.acos(im_max)
    value, _ = quad(width, a, math.pi - a, epsabs=1e-13, epsrel=1e-13)
    return value


def f4_sector_measure(lam: float) -> float:
    """F4 = e^{ix} xi^2 in the sector of angle SECTOR and radius lam:
    arg = x, so x spans the sector's angle and |xi| <= sqrt(lam)."""
    return (SECTOR[1] - SECTOR[0]) * 2.0 * math.sqrt(lam)


def f2_roots(z: complex) -> list:
    """Zeros of xi^2 + i e^{ix} - z for Re z in [0.2, 0.7], |Im z| <= 1/2.

    cos x = Im z and xi^2 = Re z + sin x; only sin x > 0 gives real xi here.
    Returns [(x, xi, sign)]; the bracket is 2 xi sin x, so sign(xi).
    """
    x = math.acos(z.imag)
    xi = math.sqrt(z.real + math.sin(x))
    return [(x, -xi, "minus"), (x, xi, "plus")]


def f3_roots(z: complex) -> list:
    """Zeros of det(F3 - z) = (xi + e^{ix} - z)(xi - e^{ix} - z), |Im z| < 1.

    First factor: sin x = Im z, xi = Re z - cos x, bracket sign -sign(cos x).
    Second factor: sin x = -Im z, xi = Re z + cos x, bracket sign sign(cos x).
    """
    out = []
    a = math.asin(z.imag)
    for x in (a, math.pi - a):
        c = math.cos(x)
        out.append((x % TWO_PI, z.real - c, "plus" if c < 0 else "minus"))
    for x in (-a, math.pi + a):
        c = math.cos(x)
        out.append((x % TWO_PI, z.real + c, "plus" if c > 0 else "minus"))
    return out


def symbol_trace(coeffs: dict, n: int, K: int, h: float) -> complex:
    """Trace of the truncated matrix of sum_a A_a(x) (hD)^a on |k| <= K.

    ``coeffs`` is a config's ``symbol.coeffs``: order -> [(i, j, k, re, im)].
    Only the zero-frequency diagonal entries reach the diagonal.
    """
    ks = h * np.arange(-K, K + 1, dtype=float)
    total = 0.0 + 0.0j
    for alpha, entries in coeffs.items():
        power_sum = float(np.sum(ks ** int(alpha)))
        for i, j, k, re, im in entries:
            if i == j and k == 0 and i < n:
                total += complex(re, im) * power_sum
    return total


def perturbation_trace(draw_coeffs: dict, n: int, K: int, h: float) -> complex:
    """Trace of the truncated matrix of Q = sum q_{a,k}^{ij} e^{ikx}/sqrt(2pi)
    (hD)^a: the k = 0, i = j coefficients times sum_k (hk)^a."""
    ks = h * np.arange(-K, K + 1, dtype=float)
    total = 0.0 + 0.0j
    for (alpha, i, j, k), q in draw_coeffs.items():
        if i == j and k == 0:
            total += q * float(np.sum(ks ** alpha))
    return total / math.sqrt(TWO_PI)


def overlap_variance_direct(sigma, e_plus: np.ndarray, e_minus: np.ndarray,
                            K_q: int) -> float:
    """sum_{|k| <= K_q} sigma(k)^2 |<e_k e_+, e_->|^2 for order-0 scalar laws,
    with <e_k u, v> = (2pi/N) sum_m e^{ik x_m} u(x_m) conj(v(x_m)) / sqrt(2pi)
    summed directly on the grid x_m = 2 pi m / N (no FFT)."""
    N = len(e_plus)
    x = TWO_PI * np.arange(N) / N
    ks = np.arange(-K_q, K_q + 1)
    prod = e_plus * np.conj(e_minus)
    inner = (np.exp(1j * np.outer(ks, x)) @ prod) * (TWO_PI / N) \
        / math.sqrt(TWO_PI)
    sig = np.array([sigma(int(k)) for k in ks])
    return float(np.sum(sig ** 2 * np.abs(inner) ** 2))


def loglog_slope(hs, values) -> float:
    """Least-squares slope of log(values) against log(hs)."""
    lx = np.log(np.asarray(hs, dtype=float))
    ly = np.log(np.asarray(values, dtype=float))
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))
