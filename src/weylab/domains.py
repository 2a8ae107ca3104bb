"""Spectral domains in the complex plane and the phase-space Weyl measure.

Domains are rectangles, polygons, annular sectors with smooth radial
profiles, and dilations thereof.  ``weyl_measure`` integrates the
eigenvalue-count function (x, xi) -> #(sigma(p(x, xi)) in Gamma) by a
midpoint rule with grid doubling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import LambdaBelowOne, NonPositiveLambda, NoConvergence
from .symbol import (coefficient_values, det_or_eigvals, polynomial,
                     xi_window)

TWO_PI = 2.0 * math.pi

# points within this distance of a boundary count as inside (shared with
# the eigenvalue-count routines)
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class RadialProfile:
    """C^2 radial profile r(theta), cubically interpolated samples."""

    theta_min: float
    theta_max: float
    samples: np.ndarray

    def __post_init__(self):
        if not self.theta_min < self.theta_max:
            raise ValueError("theta_min must be < theta_max")
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 1 or len(s) < 2:
            raise ValueError("need at least two profile samples")
        object.__setattr__(self, "samples", s)
        grid = np.linspace(self.theta_min, self.theta_max, len(s))
        object.__setattr__(self, "_spline", CubicSpline(grid, s))

    @classmethod
    def constant(cls, value: float, theta_min: float, theta_max: float,
                 nodes: int = 257) -> "RadialProfile":
        return cls(theta_min, theta_max, np.full(nodes, float(value)))

    def __call__(self, theta):
        th = np.clip(theta, self.theta_min, self.theta_max)
        return self._spline(th)

    def min_value(self) -> float:
        fine = np.linspace(self.theta_min, self.theta_max, 4097)
        return float(np.min(self(fine)))

    def max_value(self) -> float:
        fine = np.linspace(self.theta_min, self.theta_max, 4097)
        return float(np.max(self(fine)))

    def scaled(self, factor: float) -> "RadialProfile":
        return RadialProfile(self.theta_min, self.theta_max,
                             self.samples * factor)


class SpectralDomain:
    """Base class; all variants answer membership with BOUNDARY_TOL slack."""

    def contains(self, z: complex) -> bool:
        return bool(self.contains_many(np.asarray([z], dtype=complex))[0])

    def contains_many(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bound_radius(self) -> float:
        """sup_{z in Gamma} |z| (an upper bound is acceptable)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Rectangle(SpectralDomain):
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def contains_many(self, z: np.ndarray) -> np.ndarray:
        t = BOUNDARY_TOL
        return ((z.real >= self.re_min - t) & (z.real <= self.re_max + t)
                & (z.imag >= self.im_min - t) & (z.imag <= self.im_max + t))

    def bound_radius(self) -> float:
        corners = [complex(r, i) for r in (self.re_min, self.re_max)
                   for i in (self.im_min, self.im_max)]
        return max(abs(c) for c in corners)

    def is_empty(self) -> bool:
        return self.re_min > self.re_max or self.im_min > self.im_max


@dataclass(frozen=True)
class Polygon(SpectralDomain):
    vertices: tuple

    def __post_init__(self):
        v = tuple(complex(w) for w in self.vertices)
        if len(v) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        object.__setattr__(self, "vertices", v)

    def contains_many(self, z: np.ndarray) -> np.ndarray:
        v = np.asarray(self.vertices)
        x, y = z.real, z.imag
        inside = np.zeros(z.shape, dtype=bool)
        n = len(v)
        # even-odd crossing rule
        for k in range(n):
            x1, y1 = v[k].real, v[k].imag
            x2, y2 = v[(k + 1) % n].real, v[(k + 1) % n].imag
            crosses = ((y1 > y) != (y2 > y))
            with np.errstate(divide="ignore", invalid="ignore"):
                xcross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            inside ^= crosses & (x < np.where(crosses, xcross, np.inf))
        # boundary slack
        near = np.zeros(z.shape, dtype=bool)
        for k in range(n):
            a, b = v[k], v[(k + 1) % n]
            ab = b - a
            denom = abs(ab) ** 2
            t = np.clip(((z - a) * np.conj(ab)).real / denom, 0.0, 1.0)
            near |= np.abs(z - (a + t * ab)) <= BOUNDARY_TOL
        return inside | near

    def bound_radius(self) -> float:
        return max(abs(v) for v in self.vertices)


def regular_polygon(center: complex, radius: float, n: int = 128) -> Polygon:
    """Regular n-gon approximation of a disk."""
    angles = TWO_PI * np.arange(n) / n
    return Polygon(tuple(center + radius * np.exp(1j * angles)))


@dataclass(frozen=True)
class AnnularSector(SpectralDomain):
    """{r e^{i theta} : theta_min <= theta <= theta_max, r_in <= r <= r_out}.

    ``r_in`` may be None for sectors reaching the origin.
    """

    theta_min: float
    theta_max: float
    r_out: RadialProfile
    r_in: RadialProfile | None = None

    def __post_init__(self):
        if not self.theta_min < self.theta_max:
            raise ValueError("theta_min must be < theta_max")
        if self.theta_max - self.theta_min > TWO_PI + 1e-12:
            raise ValueError("angular width exceeds 2*pi")
        if isinstance(self.r_out, (int, float)):
            object.__setattr__(self, "r_out", RadialProfile.constant(
                float(self.r_out), self.theta_min, self.theta_max))
        if isinstance(self.r_in, (int, float)):
            object.__setattr__(self, "r_in", RadialProfile.constant(
                float(self.r_in), self.theta_min, self.theta_max))
        if self.r_out.min_value() <= 0.0:
            raise ValueError("outer profile must be strictly positive")
        if self.r_in is not None:
            fine = np.linspace(self.theta_min, self.theta_max, 1025)
            if np.any(self.r_in(fine) > self.r_out(fine)):
                raise ValueError("inner profile must stay below outer profile")

    def contains_many(self, z: np.ndarray) -> np.ndarray:
        r = np.abs(z)
        theta = np.angle(z)
        # reduce into [theta_min, theta_min + 2*pi)
        theta = self.theta_min + np.mod(theta - self.theta_min, TWO_PI)
        ang_tol = BOUNDARY_TOL / np.maximum(r, BOUNDARY_TOL)
        in_angle = theta <= self.theta_max + ang_tol
        th = np.clip(theta, self.theta_min, self.theta_max)
        hi = self.r_out(th) + BOUNDARY_TOL
        lo = (self.r_in(th) - BOUNDARY_TOL) if self.r_in is not None else -1.0
        ok = in_angle & (r <= hi) & (r >= lo)
        if self.r_in is None:
            ok |= r <= BOUNDARY_TOL   # origin belongs to every full sector
        return ok

    def bound_radius(self) -> float:
        return self.r_out.max_value()


@dataclass(frozen=True)
class Dilated(SpectralDomain):
    lam: float
    base: SpectralDomain

    def __post_init__(self):
        if self.lam <= 0.0:
            raise NonPositiveLambda(f"lambda must be positive, got {self.lam}")

    def contains_many(self, z: np.ndarray) -> np.ndarray:
        return self.base.contains_many(z / self.lam)

    def bound_radius(self) -> float:
        return self.lam * self.base.bound_radius()


def dilate(domain: SpectralDomain, lam: float) -> SpectralDomain:
    if lam <= 0.0:
        raise NonPositiveLambda(f"lambda must be positive, got {lam}")
    if isinstance(domain, Dilated):
        return Dilated(lam * domain.lam, domain.base)
    return Dilated(lam, domain)


@dataclass(frozen=True)
class DyadicPieces:
    """Dyadic splitting of Gamma(0, lam * r_out): core, rings, cap."""

    core: SpectralDomain
    rings: tuple
    cap: SpectralDomain
    k0: int

    def all_pieces(self) -> list:
        return [self.core, *self.rings, self.cap]


def dyadic_decompose(lam: float, sector: AnnularSector) -> DyadicPieces:
    """Split Gamma(0, lam*r_out) into a unit core, dyadic rings, and a cap."""
    if lam < 1.0:
        raise LambdaBelowOne(f"lambda must be >= 1, got {lam}")
    if sector.r_in is not None and sector.r_in.max_value() > BOUNDARY_TOL:
        raise ValueError("dyadic decomposition needs a sector reaching r = 0")
    if abs(sector.r_out.min_value() - 1.0) > 1e-9:
        raise ValueError("normalize the sector so inf r_out = 1 first")

    k0 = int(math.floor(math.log2(lam) + 1e-12))
    tmin, tmax = sector.theta_min, sector.theta_max
    core = AnnularSector(tmin, tmax, RadialProfile.constant(1.0, tmin, tmax))
    ring_base = AnnularSector(tmin, tmax,
                              RadialProfile.constant(2.0, tmin, tmax),
                              RadialProfile.constant(1.0, tmin, tmax))
    rings = tuple(Dilated(float(2 ** k), ring_base) for k in range(k0))
    cap_base = AnnularSector(tmin, tmax,
                             sector.r_out.scaled(lam / 2 ** k0),
                             RadialProfile.constant(1.0, tmin, tmax))
    cap = Dilated(float(2 ** k0), cap_base)
    return DyadicPieces(core=core, rings=rings, cap=cap, k0=k0)


# -- Weyl measure -----------------------------------------------------------

@dataclass(frozen=True)
class QuadOptions:
    tol_rel: float = 1e-3
    tol_abs: float = 1e-6
    base_grid: int = 128
    max_doublings: int = 6


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    last_delta: float
    deltas: tuple
    grid: int

    def __float__(self):
        return self.value


# Rows of x per batch in _count_grid.  Integer counts make the sum exact for
# any chunk; 16 rows keep the batch of an 8192^2 grid near 2 MB, where 128
# took 31 MB and ran slower.
X_CHUNK = 16


def _count_grid(sym, domain: SpectralDomain, x: np.ndarray,
                xi: np.ndarray) -> float:
    """Sum over the tensor grid of m_Gamma(x, xi)."""
    total = 0
    values = np.empty((X_CHUNK, len(xi), sym.n, sym.n), dtype=complex)
    for start in range(0, len(x), X_CHUNK):
        coeffs = coefficient_values(sym, x[start:start + X_CHUNK, None])
        p = polynomial(coeffs, xi, out=values[:coeffs.shape[1]])
        total += int(np.count_nonzero(domain.contains_many(
            det_or_eigvals(p, det=False))))
    return total


def weyl_measure(sym, domain: SpectralDomain,
                 quad: QuadOptions = QuadOptions()) -> QuadratureResult:
    """Midpoint-rule integral of m_Gamma over [0, 2*pi] x [-Xi, Xi].

    The grid is doubled until successive values agree to the requested
    tolerance; the integrand is piecewise integer so higher-order rules
    would gain nothing.
    """
    if isinstance(domain, Rectangle) and domain.is_empty():
        return QuadratureResult(0.0, 0.0, (), quad.base_grid)
    window = xi_window(sym, domain.bound_radius())
    if window == 0.0:
        return QuadratureResult(0.0, 0.0, (), quad.base_grid)

    grid = quad.base_grid
    prev_raw = None
    prev_avg = None
    deltas = []
    for _ in range(quad.max_doublings + 1):
        x = (np.arange(grid) + 0.5) * (TWO_PI / grid)
        xi = -window + (np.arange(grid) + 0.5) * (2.0 * window / grid)
        cell = (TWO_PI / grid) * (2.0 * window / grid)
        raw = _count_grid(sym, domain, x, xi) * cell
        if prev_raw is not None:
            # the leading midpoint error of an indicator integrand flips
            # sign under doubling; averaging two levels cancels most of it
            value = 0.5 * (raw + prev_raw)
            if prev_avg is not None:
                delta = abs(value - prev_avg)
                deltas.append(delta)
                if delta < max(quad.tol_abs, quad.tol_rel * abs(value)):
                    return QuadratureResult(value, delta, tuple(deltas), grid)
            prev_avg = value
        prev_raw = raw
        grid *= 2
    # a delta needs three grid levels, so max_doublings < 2 leaves none
    last = f" (last delta {deltas[-1]:.3e})" if deltas else ""
    raise NoConvergence(
        f"weyl_measure did not converge after {quad.max_doublings} grid "
        f"doublings{last}")
