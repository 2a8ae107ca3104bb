import math

import numpy as np
import pytest

from weylab import domains, symbol
from weylab.domains import (AnnularSector, Dilated, Polygon, QuadOptions,
                            Rectangle, dilate, dyadic_decompose,
                            regular_polygon, weyl_measure)
from weylab.errors import NonConvergence
from weylab.symbol import MatrixSymbol

from helpers import named_symbol, pointwise_m_gamma, pointwise_split

TWO_PI = 2.0 * math.pi


class TestRectangle:
    def test_membership(self):
        r = Rectangle(-1.0, 1.0, -0.5, 0.5)
        # the boundary counts inside
        assert list(r.contains_many(np.array([0.0, 1.0 + 0.5j, 1.1]))) \
            == [True, True, False]
        assert r.bound_radius() == abs(1.0 + 0.5j)

    def test_vectorized(self):
        r = Rectangle(0.0, 1.0, 0.0, 1.0)
        z = np.array([0.5 + 0.5j, 2.0 + 0.5j, 1.0 + 1.0j])
        assert list(r.contains_many(z)) == [True, False, True]

    def test_refuses_no_interior(self):
        # inverted, or of zero width or height
        for bounds in ((1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0),
                       (0.5, 0.5, 0.0, 1.0), (0.0, 1.0, 0.5, 0.5)):
            with pytest.raises(ValueError, match="rectangle needs re_min"):
                Rectangle(*bounds)


class TestPolygon:
    def test_square_matches_rectangle(self, rng):
        sq = Polygon((0, 1, 1 + 1j, 1j))
        r = Rectangle(0.0, 1.0, 0.0, 1.0)
        z = rng.uniform(-0.5, 1.5, 200) + 1j * rng.uniform(-0.5, 1.5, 200)
        interior = (np.abs(z.real - 0.5) < 0.49) | (np.abs(z.real - 0.5) > 0.51)
        interior &= (np.abs(z.imag - 0.5) < 0.49) | (np.abs(z.imag - 0.5) > 0.51)
        zi = z[interior]   # stay away from the edges
        assert np.array_equal(sq.contains_many(zi), r.contains_many(zi))

    def test_boundary_slack(self):
        sq = Polygon((0, 1, 1 + 1j, 1j))
        z = np.array([0.5 + 0.0j, 0.5 + 1e-13j, 0.5 - 1e-6j])
        assert list(sq.contains_many(z)) == [True, True, False]

    def test_regular_polygon_approximates_disk(self):
        disk = regular_polygon(1.0 + 1.0j, 0.5, 256)
        z = np.array([1.0, 1.49, 1.51]) + 1.0j
        assert list(disk.contains_many(z)) == [True, True, False]

    def test_vertices_and_center_must_be_finite(self):
        # a NaN vertex ran on into the root scan at a NaN probe
        with pytest.raises(ValueError, match=r"polygon vertex 1 must be "
                                             r"finite, not \(nan\+0.5j\)"):
            Polygon((0, complex(math.nan, 0.5), 1j))
        with pytest.raises(ValueError, match="disk center must be finite"):
            regular_polygon(complex(math.inf, 0.0), 0.5)

    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon((0, 1))
        # a symmetric bow-tie has zero signed area and an interior
        bow_tie = Polygon((0, 1 + 1j, 1, 1j))
        assert bow_tie.contains_many(np.array([0.5 + 0.2j, 0.2 + 0.5j])) \
            .tolist() == [False, True]


class TestAnnularSector:
    def test_membership(self):
        s = AnnularSector(0.0, math.pi / 2, 2.0, 1.0)
        z = np.array([1.5, 0.5, 1.5]) * np.exp([0.4j, 0.4j, -0.4j])
        assert list(s.contains_many(z)) == [True, False, False]
        assert s.bound_radius() == pytest.approx(2.0)

    def test_origin_in_full_sector(self):
        s = AnnularSector(0.1, 1.0, 1.0)
        assert s.contains_many(np.zeros(1, dtype=complex)).all()

    def test_radii_slack(self):
        s = AnnularSector(0.0, math.pi, 2, 1)
        assert (s.r_out, s.r_in) == (2.0, 1.0)
        assert isinstance(s.r_out, float) and isinstance(s.r_in, float)
        r = np.array([1.0 - 1e-13, 1.0 - 1e-6, 2.0 + 1e-13, 2.0 + 1e-6])
        assert list(s.contains_many(r * 1j)) == [True, False, True, False]

    def test_inner_must_stay_below_outer(self):
        # r_in past r_out, equal to it, or negative
        for r_in in (2.0, 1.0, -0.5):
            with pytest.raises(ValueError, match=r"must lie in \[0, r_out\)"):
                AnnularSector(0.0, 1.0, 1.0, r_in)
        assert AnnularSector(0.0, 1.0, 1.0, 0.0).r_in == 0.0


class TestDilation:
    def test_compose(self):
        base = Rectangle(0.0, 1.0, 0.0, 1.0)
        d = dilate(dilate(base, 2.0), 3.0)
        assert isinstance(d, Dilated)
        assert d.lam == pytest.approx(6.0)
        assert list(d.contains_many(np.array([5.9 + 0.1j, 6.1]))) \
            == [True, False]

    def test_positive_lambda_required(self):
        with pytest.raises(ValueError, match="lambda must be positive"):
            dilate(Rectangle(0, 1, 0, 1), 0.0)


class TestProbe:
    """Each probe() as the hypothesis checks read it, float for float."""

    def test_each_type(self):
        cases = [
            (Rectangle(0.1, 0.7, -0.5, 0.5), 0.39999999999999997),
            (Polygon((0, 2, 2j)), 0.6666666666666666 + 0.6666666666666666j),
            (regular_polygon(1 + 1j, 0.5, 256), 1 + 1j),
            (AnnularSector(0.0, math.pi / 2, 2.0, 1.0),
             1.0606601717798214 + 1.0606601717798212j),
            (AnnularSector(0.05, TWO_PI - 0.05, 1.0),
             -0.5 + 6.123233995736766e-17j),
            (AnnularSector(0.2, 1.2, 1.0, 0.0),
             0.38242109364224425 + 0.3221088436188455j)]
        for dom, z in cases:
            assert type(dom.probe()) is complex and dom.probe() == z
            assert dilate(dom, 3.0).probe() == 3.0 * dom.probe()


class TestBoundaryGap:
    """boundary_gap against distances worked out by hand."""

    def test_rectangle(self):
        gamma = Rectangle(0.1, 0.7, -0.5, 0.5)
        # inside (the left edge is nearest), on the edge, outside to the
        # right and below, and off the corner 0.7 + 0.5i along (0.3, 0.4)
        z = np.array([0.3 + 0.1j, 0.1 + 0.2j, 0.9, 0.4 - 0.8j, 1.0 + 0.9j])
        assert gamma.boundary_gap(z) == pytest.approx(
            [0.2, 0.0, 0.2, 0.3, 0.5], abs=1e-15)

    def test_polygon(self):
        tri = Polygon((0, 2, 2j))
        # inside, off the hypotenuse's middle, off the vertex 2 past the
        # end of both its edges, off the vertex 0
        z = np.array([0.5 + 0.5j, 2 + 2j, 3.0, -1 - 1j])
        assert tri.boundary_gap(z) == pytest.approx(
            [0.5, math.sqrt(2), 1.0, math.sqrt(2)], abs=1e-15)

    def test_disk(self):
        # the centre lies cos(pi/256) r from the 256-gon's edges, and a
        # vertex sits at angle 0
        disk = regular_polygon(1 + 1j, 0.5, 256)
        z = np.array([1 + 1j, 2 + 1j])
        assert disk.boundary_gap(z) == pytest.approx(
            [0.5 * math.cos(math.pi / 256), 0.5], abs=1e-12)

    def test_annular_sector(self):
        s = AnnularSector(0.0, math.pi / 2, 2.0, 1.0)
        rays_far = 1.5 * np.exp(0.25j * math.pi)      # 0.5 from both arcs
        z = np.array([rays_far, 1.2 * np.exp(0.25j * math.pi),
                      3 * np.exp(0.25j * math.pi), 1.5 * np.exp(0.1j),
                      1.5 - 0.3j, 0.0, 0.5 * np.exp(0.25j * math.pi)])
        # the arcs, 0.2 from r_in and 1 beyond r_out; 1.5 sin 0.1 and 0.3
        # from the ray at angle 0, inside and outside; the origin and a
        # point in the hole, both nearest the inner arc
        assert s.boundary_gap(z) == pytest.approx(
            [0.5, 0.2, 1.0, 1.5 * math.sin(0.1), 0.3, 1.0, 0.5], abs=1e-14)

    def test_sector_reaching_the_origin(self):
        s = AnnularSector(0.05, TWO_PI - 0.05, 1.0)
        # the rays meet at the origin; 0.5 lies in the cut-out wedge
        z = np.array([0.0, 0.5, -0.5, 1.5j])
        assert s.boundary_gap(z) == pytest.approx(
            [0.0, 0.5 * math.sin(0.05), 0.5, 0.5], abs=1e-15)

    def test_dilated(self):
        d = dilate(Rectangle(0.0, 1.0, 0.0, 1.0), 3.0)
        z = np.array([1.5 + 1.5j, 4.0 + 1.5j])
        # lambda times the base gap at z / lambda: 3 * 0.5 and 3 * (1 / 3)
        assert d.boundary_gap(z) == pytest.approx(
            [1.5, 1.0], abs=1e-15)
        assert d.boundary_gap(z[0]) == pytest.approx(1.5)


class TestDyadic:
    def test_decomposition_structure(self):
        sector = AnnularSector(0.2, 1.2, 1.0)
        pieces = dyadic_decompose(10.0, sector)
        # the unit core, k0 = 3 rings and a cap from 8 to 10
        ring = AnnularSector(0.2, 1.2, 2.0, 1.0)
        assert pieces == [AnnularSector(0.2, 1.2, 1.0), Dilated(1.0, ring),
                          Dilated(2.0, ring), Dilated(4.0, ring),
                          Dilated(8.0, AnnularSector(0.2, 1.2, 1.25, 1.0))]
        # pieces tile Gamma(0, 10): area sum check by Monte Carlo membership
        rng = np.random.default_rng(1)
        z = rng.uniform(-10, 10, 4000) + 1j * rng.uniform(-10, 10, 4000)
        total = dilate(sector, 10.0)
        inside = total.contains_many(z)
        hits = np.zeros(len(z), dtype=int)
        for p in pieces:
            hits += p.contains_many(z).astype(int)
        interior = hits[inside]
        # every covered point is hit at least once; overlaps only on the
        # measure-zero ring boundaries
        assert np.all(hits[~inside] <= 1)
        assert np.all(interior >= 1)
        assert np.mean(interior > 1) < 0.01

    def test_no_cap_at_power_of_two(self):
        # at lambda = 2^k0 the cap would have r_in = r_out: no piece
        pieces = dyadic_decompose(4.0, AnnularSector(0.2, 1.2, 1.0))
        ring = AnnularSector(0.2, 1.2, 2.0, 1.0)
        assert pieces == [AnnularSector(0.2, 1.2, 1.0), Dilated(1.0, ring),
                          Dilated(2.0, ring)]

    def test_lambda_below_one(self):
        with pytest.raises(ValueError, match="lambda must be >= 1"):
            dyadic_decompose(0.5, AnnularSector(0.0, 1.0, 1.0))

    def test_requires_origin_sector(self):
        with pytest.raises(ValueError):
            dyadic_decompose(4.0, AnnularSector(0.0, 1.0, 2.0, 1.0))


class TestWeylMeasure:
    def test_mixed_and_spread_match_min_max_rule(self, rng, f3):
        # corner counts of m_gamma's dtype: random cells, cells whose
        # corners agree, and cells that differ in exactly one corner, at
        # each of the four positions
        dtype = domains.m_gamma(f3, Rectangle(0, 1, 0, 1), np.zeros(1),
                                np.zeros(1)).dtype
        base = rng.integers(0, 3, size=40)
        cells = [rng.integers(0, 4, size=(4, 400)), np.tile(base, (4, 1))]
        for k in range(4):
            one = np.tile(base, (4, 1))
            one[k] += 1
            cells.append(one)
        corners = np.concatenate(cells, axis=1).astype(dtype)
        ij = rng.integers(0, 1000, size=(corners.shape[1], 2),
                          dtype=np.int32)
        # the reference rule: min and max over the corner axis
        mixed = corners.min(axis=0) != corners.max(axis=0)
        count, got_ij, got_corners = domains._mixed(ij, corners)
        assert count == int(corners[0, ~mixed].sum())
        assert np.array_equal(got_ij, ij[mixed])
        assert got_corners.dtype == dtype
        assert np.array_equal(got_corners, corners[:, mixed])
        assert np.array_equal(domains._spread(corners),
                              corners.max(axis=0) - corners.min(axis=0))

    @pytest.mark.parametrize("name", ["f1", "f2", "f3", "f4", "full", "gap"])
    def test_columns_match_pointwise_splits(self, name, request,
                                            monkeypatch):
        # the lattice and each split evaluate coefficients once per column;
        # evaluating every point on its own, the 5 of a split in one list,
        # gives the same result field for field.  Small chunks leave
        # partial batches of columns and of points
        sym = named_symbol(name, request)
        monkeypatch.setattr(symbol, "POINT_CHUNK", 700)
        monkeypatch.setattr(domains, "CELL_CHUNK", 300)
        quad = QuadOptions(tol_rel=5e-2, base_grid=32)
        cases = [(Rectangle(-0.5, 0.5, -0.5, 0.5), quad),
                 (regular_polygon(0.3 + 0.1j, 0.6, 16), quad),
                 (dilate(AnnularSector(0.05, TWO_PI - 0.05, 1.0), 4.0),
                  QuadOptions(tol_rel=5e-2, base_grid=33))]
        got = [weyl_measure(sym, dom, q) for dom, q in cases]
        monkeypatch.setattr(domains, "m_gamma",
                            pointwise_m_gamma(domains.m_gamma))
        monkeypatch.setattr(domains, "_split", pointwise_split)
        assert got == [weyl_measure(sym, dom, q) for dom, q in cases]
        assert all(r.evaluations > (r_q.base_grid + 1) ** 2 and r.deltas
                   for r, (_, r_q) in zip(got, cases))

    def test_f1_rectangle_closed_form(self, f1):
        # for xi + e^{ix} the measure of [-1/2,1/2]^2 is 2*pi/3
        res = weyl_measure(f1, Rectangle(-0.5, 0.5, -0.5, 0.5))
        assert res.value == pytest.approx(TWO_PI / 3.0, rel=5e-3)

    def test_outside_sigma(self, f1):
        res = weyl_measure(f1, Rectangle(5.0, 6.0, 5.0, 6.0))
        assert res.value == 0.0

    def test_monotone_in_domain(self, f1):
        quad = QuadOptions(tol_rel=3e-3)
        small = weyl_measure(f1, Rectangle(-0.3, 0.3, -0.3, 0.3), quad).value
        large = weyl_measure(f1, Rectangle(-0.6, 0.6, -0.6, 0.6), quad).value
        assert small <= large + 1e-6

    def test_homogeneous_scaling(self, f4):
        gamma = AnnularSector(0.2, 1.2, 1.0)
        base = weyl_measure(f4, gamma).value
        for lam in (2.0, 4.0, 8.0):
            scaled = weyl_measure(f4, dilate(gamma, lam)).value
            assert scaled == pytest.approx(math.sqrt(lam) * base, rel=1e-2)

    def test_dyadic_additivity(self, f4):
        sector = AnnularSector(0.2, 1.2, 1.0)
        lam = 4.0
        pieces = dyadic_decompose(lam, sector)
        total = weyl_measure(f4, dilate(sector, lam)).value
        parts = sum(weyl_measure(f4, p).value for p in pieces)
        assert parts == pytest.approx(total, rel=3e-3)

    def test_deltas_decrease(self, f1):
        quad = QuadOptions(tol_rel=5e-4)
        res = weyl_measure(f1, Rectangle(-0.5, 0.5, -0.5, 0.5), quad)
        d = res.deltas
        assert len(d) >= 2
        assert all(b < a for a, b in zip(d, d[1:]))
        assert d[-1] == res.bound <= quad.tol_rel * res.value
        assert res.grid == quad.base_grid * 2 ** (len(d) - 1)

    def test_no_convergence_without_deltas(self, f2):
        # two levels below the base grid cannot reach 1e-6
        with pytest.raises(NonConvergence):
            weyl_measure(f2, Rectangle(0.1, 0.7, -0.5, 0.5),
                         QuadOptions(tol_rel=1e-6, max_doublings=2))

    @pytest.mark.parametrize("case", ["F1", "F2", "F3", "F3x3", "F4x1",
                                      "F4x4", "F4x256"])
    def test_closed_form_within_bound(self, case, f1, f2, f3, f4,
                                      f2_gamma_measure):
        square = Rectangle(-0.5, 0.5, -0.5, 0.5)
        sector = AnnularSector(0.05, TWO_PI - 0.05, 1.0)
        # three copies of F1 shifted in xi: the count reaches 3, so a
        # boundary cell's corner mean exceeds its (max - min) and a rule
        # that left the mixed cells out would miss by more than the bound
        shifted = MatrixSymbol.from_terms(3, 1, [
            term for k, c in enumerate((0.0, 0.2, -0.2))
            for term in ((0, k, k, 1, 1.0), (0, k, k, 0, c), (1, k, k, 0, 1.0))])
        sym, dom, exact = {
            "F1": (f1, square, TWO_PI / 3.0),
            "F2": (f2, Rectangle(0.1, 0.7, -0.5, 0.5), f2_gamma_measure),
            "F3": (f3, square, 2.0 * TWO_PI / 3.0),
            "F3x3": (shifted, square, TWO_PI),
            "F4x1": (f4, sector, (TWO_PI - 0.1) * 2.0),
            "F4x4": (f4, dilate(sector, 4.0), (TWO_PI - 0.1) * 4.0),
            "F4x256": (f4, dilate(sector, 256.0), (TWO_PI - 0.1) * 32.0),
        }[case]
        res = weyl_measure(sym, dom)
        assert abs(res.value - exact) <= res.bound
        assert res.bound <= QuadOptions().tol_rel * res.value

    def test_bound_scales_with_multiplicity(self, f1):
        # m_Gamma of F1 (+) F1 is twice F1's at every point: the quadtree
        # refines the same cells, so value and bound double exactly
        doubled = MatrixSymbol.from_terms(2, 1, [
            (0, k, k, 1, 1.0) for k in (0, 1)] + [(1, k, k, 0, 1.0)
                                                  for k in (0, 1)])
        square = Rectangle(-0.5, 0.5, -0.5, 0.5)
        one, two = (weyl_measure(s, square) for s in (f1, doubled))
        assert (two.value, two.bound) == (2.0 * one.value, 2.0 * one.bound)
        assert (two.grid, two.evaluations) == (one.grid, one.evaluations)

    def test_work_follows_the_boundary(self, f2):
        # the uniform 8192^2 grid counted 89M cells; the quadtree evaluates
        # the base lattice and 5 points per mixed cell and level
        res = weyl_measure(f2, Rectangle(0.1, 0.7, -0.5, 0.5))
        assert res.evaluations < 1_000_000

    def test_matrix_symbol_measure(self, f3):
        # the triangular F3 has symbol spectrum {xi +- e^{ix}}, each
        # contributing the F1-type measure
        res = weyl_measure(f3, Rectangle(-0.5, 0.5, -0.5, 0.5),
                           QuadOptions(tol_rel=5e-3))
        assert res.value == pytest.approx(2.0 * TWO_PI / 3.0, rel=2e-2)
