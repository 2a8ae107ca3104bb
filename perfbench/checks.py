"""Pure checks on outputs: each returns True only for a correct value.

They take plain numbers and lists, so ``test_checks.py`` can show that each
one rejects a deliberately wrong value.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi

# weylab counts a point within this distance of a domain's boundary as
# inside (``domains.BOUNDARY_TOL``); the independent recounts do the same.
BOUNDARY_TOL = 1e-12


def close(value: float, exact: float, rel: float) -> bool:
    return math.isfinite(value) and abs(value - exact) <= rel * abs(exact)


def periodic_gap(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def roots_match(found, oracle, tol: float = 1e-8) -> bool:
    """``found`` and ``oracle`` are [(x, xi, sign)]; every oracle root must
    have exactly one found root within ``tol`` in x (mod 2pi) and in xi,
    with the same sign, and nothing else may be found."""
    if len(found) != len(oracle):
        return False
    unused = list(found)
    for x, xi, sign in oracle:
        hits = [r for r in unused
                if periodic_gap(r[0], x) <= tol and abs(r[1] - xi) <= tol]
        if len(hits) != 1 or hits[0][2] != sign:
            return False
        unused.remove(hits[0])
    return True


def winding_ok(winding: int, expected: int) -> bool:
    return isinstance(winding, int) and winding == expected


def slope_ok(slope: float, floor: float = 1.9) -> bool:
    """Criterion 4's derived rate: F2 residuals are O(h^2)."""
    return math.isfinite(slope) and slope >= floor


def nondecreasing(counts) -> bool:
    return all(a <= b for a, b in zip(counts, counts[1:]))


def in_rectangle(z: complex, re_min, re_max, im_min, im_max) -> bool:
    t = BOUNDARY_TOL
    return (re_min - t <= z.real <= re_max + t
            and im_min - t <= z.imag <= im_max + t)


def in_dilated_sector(z: complex, lam: float, theta_min: float,
                      theta_max: float) -> bool:
    """Sector of unit radius and angles [theta_min, theta_max], dilated by
    lam; the origin belongs to it."""
    w = z / lam
    r = abs(w)
    if r <= BOUNDARY_TOL:
        return True
    theta = theta_min + (math.atan2(w.imag, w.real) - theta_min) % TWO_PI
    return (r <= 1.0 + BOUNDARY_TOL
            and theta <= theta_max + BOUNDARY_TOL / max(r, BOUNDARY_TOL))


def trace_ok(eig_sum: complex, trace: complex, side: int,
             scale: float) -> bool:
    """The eigenvalues of a matrix sum to its trace up to the backward error
    of the Schur form, a small multiple of side * eps * scale, where
    ``scale`` bounds the matrix norm."""
    return abs(eig_sum - trace) <= 1e-10 * side * max(scale, 1.0)


def coverage(residuals_by_h: dict, h_cal: float) -> dict:
    """Criterion 7's coverage: the envelope constant is the largest
    |N - W| / s(h) at the coarsest h, with s(h) = h^{-1/2} |ln h|^{1/2};
    coverage at each finer h is the share of trials inside c_hat * s(h)."""
    def scale(h):
        return h ** -0.5 * abs(math.log(h)) ** 0.5
    c_hat = max(abs(r) for r in residuals_by_h[h_cal]) / scale(h_cal)
    return {h: sum(abs(r) <= c_hat * scale(h) for r in res) / len(res)
            for h, res in residuals_by_h.items() if h < h_cal}


def decayed(rel: dict) -> bool:
    """Criterion 8's decay clause for one trajectory: the largest relative
    residual over lambda in {64, 256} is below the largest over {4, 16}."""
    return max(rel[64.0], rel[256.0]) < max(rel[4.0], rel[16.0])


def settled(coarse, fine, inside, radius: float, tol: float) -> bool:
    """The eigenvalues of one rung at K and 2K coincide one to one within
    tol * radius (the certification rule, restated)."""
    a = [z for z in coarse if inside(z)]
    b = [z for z in fine if inside(z)]
    if len(a) != len(b):
        return False
    eps = tol * radius
    return (all(min(abs(z - w) for w in b) <= eps for z in a)
            and all(min(abs(z - w) for w in a) <= eps for z in b))
