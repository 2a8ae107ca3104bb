"""Spectral domains in the complex plane and the phase-space Weyl measure.

Domains are rectangles, polygons, annular sectors and dilations thereof.
``weyl_measure`` integrates the eigenvalue-count function m_Gamma(x, xi) =
#(sigma(p(x, xi)) in Gamma) by a corner quadtree: m_Gamma is evaluated
(``m_gamma``) at the corners of a base lattice, cells whose corners
disagree are split until the summed area * (max - min corner) of the cells
still mixed, which bounds the error, meets the tolerance.  The result is
W +- bound.  The bound assumes the base lattice resolves {p in Gamma}: no
component of it or of its complement lies inside one base cell without
touching a corner.

Both layers keep one contiguous array per component.  ``m_gamma`` counts on
the symbol evaluator's entry and eigenvalue planes (see ``weylab.symbol``),
and the cells' corner counts are four rows, one per corner, shape
(4, cells).  A cell is mixed where a corner differs from its first, and
its spread is the max minus the min of the four rows, three elementwise
comparisons each, where min and max along the length-4 axis of a
(cells, 4) array would run an inner loop of 4 per cell.

``m_gamma`` takes p from ``symbol.grid_values``, which evaluates the
coefficients once per lattice column, broadcast against its rows: once per
column of the base lattice, and three times per split cell, whose five new
points lie on three columns (bottom, centre and top on the middle one).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence
from .symbol import TWO_PI, det_or_eigvals, grid_values, xi_window

# points within this distance of a boundary count as inside (shared with
# the eigenvalue-count routines)
BOUNDARY_TOL = 1e-12


class SpectralDomain:
    """Base class; all variants answer membership with BOUNDARY_TOL slack."""

    def contains_many(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bound_radius(self) -> float:
        """sup_{z in Gamma} |z| (an upper bound is acceptable)."""
        raise NotImplementedError

    def boundary_gap(self, z: np.ndarray) -> np.ndarray:
        """The distance from each z to the boundary, from inside or out."""
        raise NotImplementedError

    def probe(self) -> complex:
        """The point of Gamma at which the hypotheses are checked."""
        raise NotImplementedError


@dataclass(frozen=True)
class Rectangle(SpectralDomain):
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("rectangle needs re_min < re_max and "
                             "im_min < im_max")

    def contains_many(self, z: np.ndarray) -> np.ndarray:
        t = BOUNDARY_TOL
        return ((z.real >= self.re_min - t) & (z.real <= self.re_max + t)
                & (z.imag >= self.im_min - t) & (z.imag <= self.im_max + t))

    def bound_radius(self) -> float:
        corners = [complex(r, i) for r in (self.re_min, self.re_max)
                   for i in (self.im_min, self.im_max)]
        return max(abs(c) for c in corners)

    def boundary_gap(self, z: np.ndarray) -> np.ndarray:
        # the signed distance to the box, negative inside
        dx = np.maximum(self.re_min - z.real, z.real - self.re_max)
        dy = np.maximum(self.im_min - z.imag, z.imag - self.im_max)
        return np.abs(np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))
                      + np.minimum(np.maximum(dx, dy), 0.0))

    def probe(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max),
                       0.5 * (self.im_min + self.im_max))


@dataclass(frozen=True)
class Polygon(SpectralDomain):
    vertices: tuple

    def __post_init__(self):
        v = tuple(complex(w) for w in self.vertices)
        if len(v) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        for k, w in enumerate(v):
            if not cmath.isfinite(w):
                raise ValueError(f"polygon vertex {k} must be finite, "
                                 f"not {w!r}")
        # a zero edge would divide 0 by 0 in _segment_gap.  The signed area
        # cannot tell an interior: a symmetric bow-tie's is zero
        w = np.asarray(v)
        edges = np.roll(w, -1) - w
        if not edges.all():
            raise ValueError("polygon repeats a vertex at consecutive corners")
        if (np.abs((np.conj(edges[0]) * (w - w[0])).imag)
                <= BOUNDARY_TOL * abs(edges[0])).all():
            raise ValueError("polygon has no interior: its vertices lie on "
                             "one line")
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
        return inside | (self.boundary_gap(z) <= BOUNDARY_TOL)

    def bound_radius(self) -> float:
        return max(abs(v) for v in self.vertices)

    def boundary_gap(self, z: np.ndarray) -> np.ndarray:
        v = np.asarray(self.vertices)
        return functools.reduce(np.minimum, (
            _segment_gap(z, a, b) for a, b in zip(v, np.roll(v, -1))))

    def probe(self) -> complex:
        return complex(np.mean(np.asarray(self.vertices)))


def regular_polygon(center: complex, radius: float, n: int = 128) -> Polygon:
    """Regular n-gon approximation of a disk."""
    if not cmath.isfinite(center):
        raise ValueError(f"disk center must be finite, not {center!r}")
    if not 0.0 < radius < math.inf:
        raise ValueError(f"disk radius must be positive and finite, not "
                         f"{radius!r}")
    angles = TWO_PI * np.arange(n) / n
    return Polygon(tuple(center + radius * np.exp(1j * angles)))


@dataclass(frozen=True)
class AnnularSector(SpectralDomain):
    """{r e^{i theta} : theta_min <= theta <= theta_max, r_in <= r <= r_out}.

    ``r_in`` may be None for sectors reaching the origin.
    """

    theta_min: float
    theta_max: float
    r_out: float
    r_in: float | None = None

    def __post_init__(self):
        if not self.theta_min < self.theta_max:
            raise ValueError("theta_min must be < theta_max")
        if self.theta_max - self.theta_min > TWO_PI + 1e-12:
            raise ValueError("angular width exceeds 2*pi")
        object.__setattr__(self, "r_out", float(self.r_out))
        if self.r_in is not None:
            object.__setattr__(self, "r_in", float(self.r_in))
        if self.r_out <= 0.0:
            raise ValueError("outer radius must be strictly positive")
        if self.r_in is not None and not 0.0 <= self.r_in < self.r_out:
            raise ValueError("inner radius must lie in [0, r_out)")

    def contains_many(self, z: np.ndarray) -> np.ndarray:
        r = np.abs(z)
        theta = np.angle(z)
        # reduce into [theta_min, theta_min + 2*pi)
        theta = self.theta_min + np.mod(theta - self.theta_min, TWO_PI)
        ang_tol = BOUNDARY_TOL / np.maximum(r, BOUNDARY_TOL)
        in_angle = theta <= self.theta_max + ang_tol
        ok = in_angle & (r <= self.r_out + BOUNDARY_TOL)
        if self.r_in is None:
            ok |= r <= BOUNDARY_TOL   # origin belongs to every full sector
        else:
            ok &= r >= self.r_in - BOUNDARY_TOL
        return ok

    def bound_radius(self) -> float:
        return self.r_out

    def boundary_gap(self, z: np.ndarray) -> np.ndarray:
        # two rays, from the origin or from r_in, and one or two arcs
        lo = self.r_in or 0.0
        rays = [_segment_gap(z, lo * e, self.r_out * e) for e in (
            np.exp(1j * self.theta_min), np.exp(1j * self.theta_max))]
        arcs = [_arc_gap(z, self, r) for r in (self.r_out, lo) if r > 0.0]
        return functools.reduce(np.minimum, rays + arcs)

    def probe(self) -> complex:
        mid = 0.5 * (self.theta_min + self.theta_max)
        lo = self.r_in or 0.0
        return complex(0.5 * (lo + self.r_out) * np.exp(1j * mid))


@dataclass(frozen=True)
class Dilated(SpectralDomain):
    lam: float
    base: SpectralDomain

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError(f"lambda must be positive, got {self.lam}")

    def contains_many(self, z: np.ndarray) -> np.ndarray:
        return self.base.contains_many(z / self.lam)

    def bound_radius(self) -> float:
        return self.lam * self.base.bound_radius()

    def boundary_gap(self, z: np.ndarray) -> np.ndarray:
        return self.lam * self.base.boundary_gap(z / self.lam)

    def probe(self) -> complex:
        return self.lam * self.base.probe()


def _segment_gap(z: np.ndarray, a: complex, b: complex) -> np.ndarray:
    """|z - the nearest point of the segment from a to b|."""
    ab = b - a
    t = np.clip(((z - a) * np.conj(ab)).real / abs(ab) ** 2, 0.0, 1.0)
    return np.abs(z - (a + t * ab))


def _arc_gap(z: np.ndarray, sector: AnnularSector, r: float) -> np.ndarray:
    """|z - the nearest point of the arc of radius r across sector's
    angles|: the radial gap within those angles, else the nearer end."""
    theta = sector.theta_min + np.mod(np.angle(z) - sector.theta_min, TWO_PI)
    ends = np.minimum(np.abs(z - r * np.exp(1j * sector.theta_min)),
                      np.abs(z - r * np.exp(1j * sector.theta_max)))
    return np.where(theta <= sector.theta_max, np.abs(np.abs(z) - r), ends)


def dilate(domain: SpectralDomain, lam: float) -> SpectralDomain:
    if isinstance(domain, Dilated):
        return Dilated(lam * domain.lam, domain.base)
    return Dilated(lam, domain)


def dyadic_decompose(lam: float, sector: AnnularSector) -> list:
    """Split Gamma(0, lam*r_out) into [a unit core, dyadic rings 2^k..2^{k+1}
    for k < k0 = floor(log2 lam), a cap from 2^k0 to lam], the cap left out
    where it would have zero width (lam = 2^k0)."""
    if lam < 1.0:
        raise ValueError(f"lambda must be >= 1, got {lam}")
    if sector.r_in is not None and sector.r_in > BOUNDARY_TOL:
        raise ValueError("dyadic decomposition needs a sector reaching r = 0")
    if abs(sector.r_out - 1.0) > 1e-9:
        raise ValueError("normalize the sector so r_out = 1 first")

    k0 = int(math.floor(math.log2(lam) + 1e-12))
    tmin, tmax = sector.theta_min, sector.theta_max
    ring_base = AnnularSector(tmin, tmax, 2.0, 1.0)
    pieces = [AnnularSector(tmin, tmax, 1.0)]
    pieces += [Dilated(float(2 ** k), ring_base) for k in range(k0)]
    cap_out = sector.r_out * (lam / 2 ** k0)
    if cap_out > 1.0 + BOUNDARY_TOL:
        pieces.append(Dilated(float(2 ** k0),
                              AnnularSector(tmin, tmax, cap_out, 1.0)))
    return pieces


# -- Weyl measure -----------------------------------------------------------

@dataclass(frozen=True)
class QuadOptions:
    tol_rel: float = 1e-3
    base_grid: int = 128
    max_doublings: int = 12     # quadtree levels below the base grid


@dataclass(frozen=True)
class QuadratureResult:
    """W = ``value`` +- ``bound``; ``deltas`` holds the bound after each
    level, ``grid`` the finest resolution reached (base_grid * 2^levels)
    and ``evaluations`` the number of m_Gamma points computed."""

    value: float
    bound: float
    deltas: tuple
    grid: int
    evaluations: int


# Cells per split batch; grid_values evaluates POINT_CHUNK points at a time.
# Between levels the mixed cells are kept as int32 lattice indices and
# small-integer corner counts; with float coordinates, int64 counts and
# whole-level batches the finest F2 level added 9.4 MB to a run's peak
# memory.
CELL_CHUNK = 4096


def m_gamma(sym, domain: SpectralDomain, x: np.ndarray,
            xi: np.ndarray) -> np.ndarray:
    """m_Gamma(x[k], xi[k, ...]): the number of eigenvalues of p in
    ``domain`` at each point, shape xi.shape, as the smallest integer type
    that holds n; x and xi are columns and rows as grid_values takes them."""
    out = np.empty(np.shape(xi), dtype=np.min_scalar_type(sym.n))
    for cols, p in grid_values(sym, x, xi):
        out[cols] = np.count_nonzero(
            domain.contains_many(det_or_eigvals(p, det=False)), axis=0)
    return out


def _spread(corners: np.ndarray) -> np.ndarray:
    """max - min of each cell's four corner counts."""
    c00, c10, c01, c11 = corners
    return (np.maximum(np.maximum(c00, c10), np.maximum(c01, c11))
            - np.minimum(np.minimum(c00, c10), np.minimum(c01, c11)))


def _mixed(ij: np.ndarray, corners: np.ndarray):
    """(sum of m over the cells whose corners agree, the other cells).
    ``ij`` is (cells, 2) and ``corners`` the four corner rows (4, cells)."""
    c00, c10, c01, c11 = corners
    mixed = (c00 != c10) | (c00 != c01) | (c00 != c11)
    return (int(c00[~mixed].sum(dtype=np.int64)),
            ij[mixed], corners[:, mixed])


def _split(ij: np.ndarray, corners: np.ndarray, m_at):
    """_mixed of the four children of each cell.  ``ij`` indexes the cells'
    lower-left corners; m_at(i, j) evaluates m_Gamma at column indices i and
    row indices j[k, ...] of the next level, for the 5 new points of each
    cell: the edge midpoints and the centre.  The bottom, centre and top
    points share column i + 1, and the left and right lie on i and i + 2."""
    i, j = 2 * ij[:, 0], 2 * ij[:, 1]
    bottom, centre, top = m_at(i + 1, j[:, None] + np.arange(3)).T
    left, right = m_at(np.concatenate([i, i + 2]),
                       np.concatenate([j + 1, j + 1])).reshape(2, -1)
    c00, c10, c01, c11 = corners
    # corner order (i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)
    child_corners = np.concatenate([
        np.stack([c00, bottom, left, centre]),
        np.stack([bottom, c10, centre, right]),
        np.stack([left, centre, c01, top]),
        np.stack([centre, right, top, c11])], axis=1)
    child_ij = np.concatenate([np.stack([i + a, j + b], axis=1)
                               for a, b in ((0, 0), (1, 0), (0, 1), (1, 1))])
    return _mixed(child_ij, child_corners)


def weyl_measure(sym, domain: SpectralDomain,
                 quad: QuadOptions = QuadOptions()) -> QuadratureResult:
    """Integral of m_Gamma over [0, 2*pi] x [-Xi, Xi] by a corner quadtree.

    m_Gamma is evaluated at the corners of a base_grid^2 lattice.  A cell
    whose four corners agree counts whole; a mixed cell splits into four at
    the next level, which evaluates its edge midpoints and centre.  After
    each level the cells still mixed take the mean of their corners, and
    the sum over them of area * (max - min corner) is the error bound.  The
    first level whose bound is within max(1e-6, tol_rel * |value|)
    returns; the work follows the boundary of {p in Gamma}, not its area.

    The bound holds only if no component of {p in Gamma}, or of its
    complement, fits inside one base cell without touching a corner: the
    base grid must resolve every feature it is meant to count.
    """
    window = xi_window(sym, domain.bound_radius())
    if window == 0.0:
        return QuadratureResult(0.0, 0.0, (), quad.base_grid, 0)

    grid = quad.base_grid
    evaluations = (grid + 1) ** 2

    def m_at(i, j):
        # m_Gamma at column indices i and row indices j[k, ...] of the
        # current grid
        return m_gamma(sym, domain, i * (TWO_PI / grid),
                       -window + j * (2.0 * window / grid))

    ii, jj = np.meshgrid(np.arange(grid + 1, dtype=np.int32),
                         np.arange(grid + 1, dtype=np.int32), indexing="ij")
    lattice = m_at(ii[:, 0], jj)
    count, ij, corners = _mixed(
        np.stack([ii[:-1, :-1], jj[:-1, :-1]], axis=-1).reshape(-1, 2),
        np.stack([lattice[:-1, :-1], lattice[1:, :-1], lattice[:-1, 1:],
                  lattice[1:, 1:]]).reshape(4, -1))

    whole = 0.0                 # integral over the cells counted whole
    deltas = []
    for level in range(quad.max_doublings + 1):
        cell = (TWO_PI / grid) * (2.0 * window / grid)
        whole += cell * count
        value = whole + cell * int(corners.sum(dtype=np.int64)) / 4.0
        bound = cell * int(_spread(corners).sum(dtype=np.int64))
        deltas.append(bound)
        if bound <= max(1e-6, quad.tol_rel * abs(value)):
            return QuadratureResult(value, bound, tuple(deltas), grid,
                                    evaluations)
        if level == quad.max_doublings:
            break
        grid *= 2
        evaluations += 5 * len(ij)
        parts = [_split(ij[s:s + CELL_CHUNK], corners[:, s:s + CELL_CHUNK],
                        m_at)
                 for s in range(0, len(ij), CELL_CHUNK)]
        count = sum(p[0] for p in parts)
        ij = np.concatenate([p[1] for p in parts])
        corners = np.concatenate([p[2] for p in parts], axis=1)
    raise NonConvergence(
        f"weyl_measure did not converge in {quad.max_doublings} quadtree "
        f"levels (bound {deltas[-1]:.3e} at grid {grid})")
