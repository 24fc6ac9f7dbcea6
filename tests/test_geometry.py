"""Exact planar primitives: areas, lengths, centroids, first moments."""

import copy
import dataclasses
import math
import pickle
import re
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from numbers import Number

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import indivisibles as iv
from indivisibles import geometry
from indivisibles import (
    CircleArc,
    DegenerateCurve,
    DegenerateRegion,
    Disk,
    GeometryError,
    HalfDisk,
    Line2,
    Point2,
    Polygon,
    Polyline,
    Profile,
    SlabRegion,
    UnsupportedExact,
    WidthFunction,
)
from indivisibles._kernels import _BLOCK

from conftest import rigid_motion, scalar_side_moments, star_polygon

# independent midpoint-quadrature oracle at 1e6 slabs (frozen output)
HALFDISK_CENTROID_Y_ORACLE = 0.4244131816415467


def upper_halfdisk_slab(resolution=4096) -> SlabRegion:
    width = WidthFunction(
        lambda y: 2.0 * np.sqrt(np.maximum(1.0 - y * y, 0.0)),
        domain=(0.0, 1.0),
        monotonicity=("decreasing",),
    )
    return SlabRegion(width, quadrature_slabs=resolution)


class TestArea:
    def test_disk(self):
        assert iv.area(Disk(Point2(0, 0), 2.0)) == pytest.approx(4.0 * math.pi, abs=1e-12)

    def test_triangle_shoelace(self):
        assert iv.area(Polygon([(0, 0), (4, 0), (1, 3)])) == 6.0

    def test_square(self):
        assert iv.area(Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])) == 4.0

    def test_clockwise_input_is_reversed_not_rejected(self):
        cw = Polygon([(0, 0), (0, 2), (2, 2), (2, 0)])
        assert iv.area(cw) == 4.0

    def test_halfdisk(self):
        assert iv.area(HalfDisk(Point2(0, 0), 1.0)) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_radius_squared_with_one_rounding(self):
        # 2.759 ** 2 goes through libm pow, which can round the square to the
        # float below 2.759 * 2.759
        r = 2.759
        assert iv.area(Disk(Point2(0, 0), r)) == math.pi * (r * r)
        assert iv.area(HalfDisk(Point2(0, 0), r)) == 0.5 * math.pi * (r * r)

    def test_rim_point_inside_at_radius_squared_with_one_rounding(self):
        # the rim point's dx * dx is 2.759 * 2.759, so a pow-rounded r ** 2
        # below it would leave the point outside
        r = 2.759
        for region in (Disk(Point2(0, 0), r), HalfDisk(Point2(0, 0), r)):
            assert iv.contains(region, np.array([r, 0.0]), np.array([0.0, r])).all()

    def test_slab_region_has_no_exact_area(self):
        with pytest.raises(UnsupportedExact):
            iv.area(upper_halfdisk_slab())

    def test_self_intersecting_polygon_rejected(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (2, 2), (2, 0), (0, 2)])

    def test_figure_eight_rejected(self):
        # two triangular lobes of opposite orientation through (0, 0): the
        # shoelace sum cancels to 0 although no two edges cross properly
        with pytest.raises(ValueError, match="self-intersecting"):
            Polygon([(0, 0), (1, -1), (1, 1), (0, 0), (-1, -1), (-1, 1)])

    def test_large_figure_eight_rejected(self):
        m = 300
        angles = math.pi + 2.0 * math.pi * np.arange(1, m) / m
        right = [(1.0 + math.cos(a), math.sin(a)) for a in angles]
        eight = [(0.0, 0.0)] + right + [(0.0, 0.0)] + [(-x, y) for x, y in right]
        assert len(eight) == 600
        with pytest.raises(ValueError, match="self-intersecting"):
            Polygon(eight)

    def test_reversed_loop_between_outer_copies_of_a_vertex_rejected(self):
        # (0, 0) is visited three times; the loops between neighbouring copies
        # agree in sign with their complements (2 vs 1), only the first and
        # last copies split the ring into opposite loops (4 vs -1)
        with pytest.raises(ValueError, match="self-intersecting"):
            Polygon([(0, 0), (2, -1), (2, 1), (0, 0), (1, 2), (-1, 2), (0, 0), (-1, -1), (-1, 1)])

    @pytest.mark.parametrize(
        "region, message",
        [
            (Disk(Point2(0, 0), 1e200), "the area of the disk is not finite"),  # r**2 raises OverflowError
            (HalfDisk(Point2(0, 0), 1e-170), "the area of the half disk underflows to 0"),
            (Polygon([(0, 0), (1e300, 0), (0, 1e300)]), "the area of the polygon is not finite"),
            # a valid ring whose shoelace sum is exactly 0
            (Polygon([(0, 0), (1, 0), (2, 0)]), "the area of the polygon underflows to 0"),
        ],
        ids=["disk", "half-disk", "polygon", "collinear"],
    )
    def test_area_out_of_range_raises(self, region, message):
        # every comparison with an area of inf or 0 would fail or pass vacuously
        with pytest.raises(iv.GeometryError, match=f"^{message} at these dimensions$"):
            iv.area(region)

    def test_same_orientation_loops_sharing_a_corner_accepted(self):
        poly = Polygon([(0, 0), (1, -1), (1, 1), (0, 0), (-1, 1), (-1, -1)])
        assert iv.area(poly) == 2.0

    def test_polygon_additivity_shared_edge(self, rng):
        # convex polygons, so any diagonal splits them into two simple pieces
        for _ in range(50):
            n = int(rng.integers(5, 12))
            jitter = rng.uniform(0.1, 0.9, n)
            angles = 2 * math.pi * (np.arange(n) + jitter) / n
            r = rng.uniform(0.5, 3.0)
            poly = Polygon([(r * math.cos(a), 0.7 * r * math.sin(a)) for a in angles])
            verts = poly.vertices
            k = len(verts) // 2
            left = Polygon(verts[: k + 1])
            right = Polygon(verts[k:] + verts[:1])
            total = iv.area(left) + iv.area(right)
            assert total == pytest.approx(iv.area(poly), rel=1e-12)


def _exact_shoelace(xy):
    """(area, integral of x dA, integral of y dA) of the ring ``xy`` in exact
    rational arithmetic on its float vertices."""
    pts = [(Fraction(x), Fraction(y)) for x, y in xy.tolist()]
    a = sx = sy = Fraction(0)
    for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
        cross = x0 * y1 - x1 * y0
        a, sx, sy = a + cross, sx + (x0 + x1) * cross, sy + (y0 + y1) * cross
    return a / 2, sx / 6, sy / 6


class TestShoelaceTranslation:
    """Polygon measures do not lose accuracy when the polygon is moved far
    from the origin: each is within a stated relative bound of the exact
    shoelace of the same float vertices."""

    @staticmethod
    def worst(poly):
        return max(abs(Fraction(got) / want - 1) for got, want in zip(poly.measures(), _exact_shoelace(poly.xy())))

    def test_star_moved_by_a_million(self):
        # r = 1 + 0.3 cos 5t at 64 vertices: the origin-based sums gave the area 4.4e-5 off
        t = 2.0 * np.pi * np.arange(64) / 64
        r = 1.0 + 0.3 * np.cos(5.0 * t)
        star = Polygon(np.column_stack((r * np.cos(t) + 1e6, r * np.sin(t) + 1e6)))
        assert self.worst(star) <= 1e-15
        a, sx, sy = _exact_shoelace(star.xy())
        c = iv.centroid_region(star)  # was 14.56 off in x and y
        assert (c.x, c.y) == pytest.approx((float(sx / a), float(sy / a)), rel=1e-15)

    def test_random_stars_far_from_the_origin(self):
        rng = np.random.default_rng(20261020)
        for _ in range(40):
            n = int(round(2.0 ** rng.uniform(math.log2(3), 11)))
            # each offset 10 to 1e12 from the origin, so no first moment is near 0
            offset = rng.choice((-1.0, 1.0), 2) * 10.0 ** rng.uniform(1.0, 12.0, 2)
            t = 2.0 * np.pi * (np.arange(n) + rng.uniform(0.1, 0.9, n)) / n
            r = rng.uniform(0.5, 1.5, n)
            star = Polygon(np.column_stack((r * np.cos(t), r * np.sin(t))) + offset)
            assert self.worst(star) <= 1e-13, (n, offset)


class TestPerimeter:
    def test_closed_square(self):
        assert iv.perimeter(Polyline([(0, 0), (2, 0), (2, 2), (0, 2)], closed=True)) == 8.0

    def test_full_circle(self):
        assert iv.perimeter(CircleArc(Point2(0, 0), 1.0)) == pytest.approx(2 * math.pi, abs=1e-12)

    def test_segment_3_4_5(self):
        assert iv.perimeter(Polyline([(0, 0), (3, 4)])) == 5.0

    def test_length_that_overflows_raises(self):
        with pytest.raises(iv.GeometryError, match="^the perimeter of the circle arc is not finite at these dimensions$"):
            iv.perimeter(CircleArc(Point2(0, 0), 1e308))

    @pytest.mark.parametrize("measure", ["perimeter", "centroid_curve", "first_moment_curve", "guldin_surface"])
    def test_every_curve_measure_names_a_length_that_overflows(self, measure):
        # the first edge is longer than the largest float; the centroid used to
        # fail on Point2(nan, nan) and the first moment to return nan
        ring = Polyline([(1e308, 0), (-1e308, 0), (0, 1)], closed=True)
        axis = Line2(Point2(0, 0), (0, 1))
        args = () if measure in ("perimeter", "centroid_curve") else (axis,)
        with pytest.raises(GeometryError, match="^the perimeter of the polyline is not finite at these dimensions$"):
            getattr(iv, measure)(ring, *args)


class TestCentroid:
    def test_triangle_vertex_average(self):
        c = iv.centroid_region(Polygon([(0, 0), (3, 0), (0, 3)]))
        assert (c.x, c.y) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_disk_center(self):
        c = iv.centroid_region(Disk(Point2(5, 7), 1.0))
        assert (c.x, c.y) == (5.0, 7.0)

    def test_upper_halfdisk_slab_vs_quadrature_oracle(self):
        c = iv.centroid_region(upper_halfdisk_slab(resolution=10**6))
        assert c.x == 0.0
        assert c.y == pytest.approx(HALFDISK_CENTROID_Y_ORACLE, abs=1e-12)
        assert c.y == pytest.approx(4.0 / (3.0 * math.pi), abs=1e-9)

    def test_upper_halfdisk_slab_default_resolution(self):
        c = iv.centroid_region(upper_halfdisk_slab())
        assert c.y == pytest.approx(4.0 / (3.0 * math.pi), abs=1e-5)

    def test_measures_that_overflow_raise_no_overflow_error(self):
        # r**2 overflows in Disk.measures, and a sliver's squared extent overflows
        with pytest.raises(GeometryError, match="the area of the disk is not finite"):
            iv.centroid_region(Disk(Point2(0, 0), 1e200))
        with pytest.raises(DegenerateRegion, match="region has zero area"):
            iv.centroid_region(Polygon([(1e-170, 0), (1e200, 0), (1e200, 1e-170)]))

    def test_degenerate_region_errors(self):
        flat = Polygon([(0, 0), (1, 0), (2, 0)])
        with pytest.raises(DegenerateRegion):
            iv.centroid_region(flat)

    def test_equivariance_under_rigid_motions(self, rng):
        for _ in range(50):
            poly = star_polygon(rng)
            move = rigid_motion(rng)
            moved = Polygon([move(p) for p in poly.vertices])
            expected = move(iv.centroid_region(poly))
            got = iv.centroid_region(moved)
            assert (got.x, got.y) == pytest.approx((expected.x, expected.y), abs=1e-12)

    def test_area_and_centroid_vs_monte_carlo(self, rng):
        # independent MC oracle: numpy's own generator, not the package stream
        poly = star_polygon(rng, n_min=5, n_max=9)
        (x0, x1), (y0, y1) = iv.bounding_box(poly)
        n = 200_000
        mc = np.random.default_rng(7)
        xs = mc.uniform(x0, x1, n)
        ys = mc.uniform(y0, y1, n)
        inside = iv.contains(poly, xs, ys)
        box = (x1 - x0) * (y1 - y0)
        p = inside.mean()
        area_est = box * p
        area_se = box * math.sqrt(p * (1 - p) / n)
        assert abs(area_est - iv.area(poly)) <= 5 * area_se
        cx_est = xs[inside].mean()
        cx_se = xs[inside].std(ddof=1) / math.sqrt(inside.sum())
        c = iv.centroid_region(poly)
        assert abs(cx_est - c.x) <= 5 * cx_se


class TestCurveCentroid:
    def test_segment_midpoint(self):
        c = iv.centroid_curve(Polyline([(0, 0), (2, 0)]))
        assert (c.x, c.y) == (1.0, 0.0)

    def test_upper_semicircle(self):
        arc = CircleArc(Point2(0, 0), 1.0, start_angle=0.0, span=math.pi)
        c = iv.centroid_curve(arc)
        assert c.y == pytest.approx(2.0 / math.pi, abs=1e-12)
        assert c.x == pytest.approx(0.0, abs=1e-12)
        # independent check: arclength quadrature
        thetas = np.linspace(0, math.pi, 20001)
        y_quad = np.trapezoid(np.sin(thetas), thetas) / math.pi
        assert c.y == pytest.approx(y_quad, abs=1e-8)

    def test_square_boundary_symmetric(self):
        sq = Polyline([(-1, -1), (1, -1), (1, 1), (-1, 1)], closed=True)
        c = iv.centroid_curve(sq)
        assert (c.x, c.y) == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_zero_length_errors(self):
        with pytest.raises(DegenerateCurve):
            iv.centroid_curve(Polyline([(1, 1), (1, 1)]))


class TestFirstMoment:
    def test_disk_about_diameter_is_zero(self):
        assert iv.first_moment(Disk(Point2(0, 0), 1.0), Line2.vertical(0.0)) == 0.0

    def test_disk_about_shifted_line(self):
        # direction (0,-1) puts the positive side at x > -1
        line = Line2(Point2(-1, 0), (0, -1))
        m = iv.first_moment(Disk(Point2(0, 0), 1.0), line)
        assert m == pytest.approx(math.pi, abs=1e-12)

    def test_right_halfdisk_about_diameter(self):
        line = Line2(Point2(0, 0), (0, -1))  # positive side x > 0
        m = iv.first_moment(HalfDisk(Point2(0, 0), 1.0, bulge=(1, 0)), line)
        assert m == pytest.approx(2.0 / 3.0, abs=1e-12)
        # polar-coordinate Riemann oracle: m = int r^2 cos(t) dr dt
        ts = np.linspace(-math.pi / 2, math.pi / 2, 4001)
        oracle = np.trapezoid(np.cos(ts), ts) / 3.0
        assert m == pytest.approx(oracle, abs=1e-7)

    def test_moment_through_centroid_vanishes(self, rng):
        for _ in range(50):
            poly = star_polygon(rng)
            c = iv.centroid_region(poly)
            theta = rng.uniform(0, 2 * math.pi)
            line = Line2(c, (math.cos(theta), math.sin(theta)))
            diameter = 4.0
            assert abs(iv.first_moment(poly, line)) <= 1e-10 * iv.area(poly) * diameter

    def test_polygon_moment_vs_quadrature(self, rng):
        poly = star_polygon(rng)
        line = Line2(Point2(0.3, -0.2), (0.6, 0.8))
        m = iv.first_moment(poly, line)
        (x0, x1), (y0, y1) = iv.bounding_box(poly)
        n = 1200
        xs = np.linspace(x0, x1, n + 1)[:-1] + (x1 - x0) / (2 * n)
        ys = np.linspace(y0, y1, n + 1)[:-1] + (y1 - y0) / (2 * n)
        gx, gy = np.meshgrid(xs, ys)
        inside = iv.contains(poly, gx.ravel(), gy.ravel())
        nx, ny = line.normal()
        dist = nx * (gx.ravel() - 0.3) + ny * (gy.ravel() + 0.2)
        cell = (x1 - x0) * (y1 - y0) / n**2
        quad = float(np.sum(dist[inside]) * cell)
        assert m == pytest.approx(quad, abs=5e-3)


class TestFirstMomentCurve:
    def test_circle_about_center_line(self):
        m = iv.first_moment_curve(CircleArc(Point2(0, 0), 1.0), Line2.vertical(0.0))
        assert m == pytest.approx(0.0, abs=1e-12)

    def test_upper_semicircle_about_y0(self):
        arc = CircleArc(Point2(0, 0), 1.0, start_angle=0.0, span=math.pi)
        m = iv.first_moment_curve(arc, Line2.horizontal(0.0))
        assert m == pytest.approx(2.0, abs=1e-12)

    def test_vertical_segment_about_y0(self):
        m = iv.first_moment_curve(Polyline([(0, 0), (0, 2)]), Line2.horizontal(0.0))
        assert m == pytest.approx(2.0, abs=1e-12)


class TestLine2:
    def test_direction_normalized(self):
        line = Line2(Point2(0, 0), (3, 4))
        assert math.hypot(*line.direction) == pytest.approx(1.0, abs=1e-12)

    def test_left_positive_convention(self):
        up = Line2(Point2(0, 0), (0, 1))
        assert up.signed_distance(Point2(-1, 0)) > 0  # left of +y is -x
        assert up.signed_distance(Point2(1, 0)) < 0

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            Line2(Point2(0, 0), (0, 0))

    @pytest.mark.parametrize("build, what", [(lambda d: Line2(Point2(0, 0), d).direction, "line"),
                                             (lambda d: HalfDisk(Point2(0, 0), 1.0, d).bulge, "bulge")],
                             ids=["line", "half-disk"])
    def test_unit_directions(self, rng, build, what):
        # divided by the length when it is off 1 by more than 1e-12, else as given
        for d in [tuple(rng.normal(size=2).tolist()) for _ in range(200)] + [(3, 4), (0.6, 0.8), (1.0 + 1e-13, 0.0)]:
            norm = math.hypot(*d)
            want = (d[0] / norm, d[1] / norm) if abs(norm - 1.0) > 1e-12 else d
            assert repr(build(d)) == repr(want)
        with pytest.raises(ValueError, match=f"^{what} direction must be nonzero$"):
            build((0.0, -0.0))
        for bad in [(math.nan, 1.0), (0.0, math.inf)]:
            with pytest.raises(ValueError, match="^coordinates must be finite$"):
                build(bad)

    @pytest.mark.parametrize("d", [[1.0, 0.0], np.array([1.0, 0.0]), (1, 0), [3, 4], np.array([0.6, 0.8])],
                             ids=["list", "ndarray", "int-tuple", "int-list", "unit-ndarray"])
    @pytest.mark.parametrize("build, field", [(lambda d: Line2(Point2(0, 0), d), "direction"),
                                              (lambda d: HalfDisk(Point2(0, 0), 1.0, d), "bulge")],
                             ids=["line", "half-disk"])
    def test_direction_is_two_floats_whatever_its_input(self, build, field, d):
        # a direction given as a list, an array or ints hashes and compares as
        # the same direction given as a tuple of floats
        got, want = build(d), build(tuple(float(c) for c in d))
        assert got == want and hash(got) == hash(want)
        direction = getattr(got, field)
        assert type(direction) is tuple and [type(c) for c in direction] == [float, float]

    @pytest.mark.parametrize("p", [(0.5, -2), [0.5, -2.0], np.array([0.5, -2.0])], ids=["tuple", "list", "ndarray"])
    @pytest.mark.parametrize("build, field", [(lambda p: Line2(p, (1.0, 0.0)), "point"),
                                              (lambda p: Disk(p, 1.0), "center"),
                                              (lambda p: HalfDisk(p, 1.0), "center"),
                                              (lambda p: CircleArc(p, 1.0), "center")],
                             ids=["line", "disk", "half-disk", "arc"])
    def test_a_point_field_is_read_as_a_polygon_vertex(self, build, field, p):
        # two coordinates become a Point2 of floats, equal to and hashing like
        # the same shape given that Point2; a Point2 is kept as given
        got, want = build(p), build(Point2(0.5, -2.0))
        assert got == want and hash(got) == hash(want)
        point = getattr(got, field)
        assert type(point) is Point2 and [type(c) for c in (point.x, point.y)] == [float, float]
        given = Point2(1, 2)
        assert getattr(build(given), field) is given
        with pytest.raises(ValueError, match="^a point is a Point2 or 2 coordinates, not 3$"):
            build((0.0, 0.0, 0.0))


class TestSlabRegionCover:
    def test_box_and_min_rho_reach_a_peak_at_a_breakpoint(self):
        # the width peaks at 2.0 on the breakpoint 0.3, which the evenly spaced
        # grid on [0, 1] skips (its nearest point gives a half-width of 0.99935)
        width = WidthFunction(
            lambda y: np.where(y <= 0.3, 2.0 * y / 0.3, 2.0 * (1.0 - y) / 0.7),
            domain=(0.0, 1.0),
            breakpoints=(0.3,),
            monotonicity=("increasing", "decreasing"),
        )
        slab = SlabRegion(width)
        assert iv.bounding_box(slab) == ((-1.0, 1.0), (0.0, 1.0))
        assert slab.min_rho() == -1.0
        # the tip is inside the region, and so inside its box
        assert iv.contains(slab, [0.9999], [0.3]).all()


def _halfdisk_boundary(half, n=2049):
    """Points of the boundary of ``half``: the arc sampled by angle across the
    half-turn about the bulge, plus each multiple of pi/2 inside that range,
    and the flat edge sampled from end to end."""
    cx, cy, r, (bx, by) = half.center.x, half.center.y, half.radius, half.bulge
    phi = math.atan2(by, bx)
    lo, hi = phi - 0.5 * math.pi, phi + 0.5 * math.pi
    quarters = [0.5 * math.pi * k for k in range(math.ceil(lo / (0.5 * math.pi)), math.floor(hi / (0.5 * math.pi)) + 1)]
    t = np.concatenate((np.linspace(lo, hi, n), quarters))
    s = np.linspace(-1.0, 1.0, n)
    return np.concatenate((cx + r * np.cos(t), cx - r * by * s)), np.concatenate((cy + r * np.sin(t), cy + r * bx * s))


class TestHalfDiskBox:
    """A half-disk's box is exact: it covers the boundary, and the boundary
    reaches each of its sides, within a few ulps."""

    @staticmethod
    def check(half):
        (x0, x1), (y0, y1) = half.box()
        xs, ys = _halfdisk_boundary(half)
        tol = 4.0 * np.spacing(max(abs(half.center.x), abs(half.center.y), half.radius))
        assert x0 - tol <= xs.min() <= x0 + tol and x1 - tol <= xs.max() <= x1 + tol
        assert y0 - tol <= ys.min() <= y0 + tol and y1 - tol <= ys.max() <= y1 + tol
        assert half.min_rho() == x0

    @pytest.mark.parametrize("bulge", [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (-0.6, 0.8), (0.6, -0.8)])
    def test_axis_and_pinned_bulges(self, bulge):
        self.check(HalfDisk(Point2(0.9, -0.3), 1.0, bulge))

    def test_random_centres_radii_and_bulges(self):
        rng = np.random.default_rng(20261019)
        for _ in range(300):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            centre = Point2(*(rng.uniform(-2.0, 2.0, 2) * scale).tolist())
            self.check(HalfDisk(centre, float(rng.uniform(0.1, 3.0) * scale), tuple(rng.normal(size=2).tolist())))

    def test_least_x_of_an_arc_reaching_left(self):
        # the arc reaches c.x - r, left of both ends of the flat edge
        half = HalfDisk(Point2(0.9, 0.0), 1.0, (-0.6, 0.8))
        assert half.box() == ((0.9 - 1.0, 0.9 + 0.8), (-0.6, 1.0))


class TestWidthFunction:
    def test_breakpoints_must_be_interior_and_sorted(self):
        with pytest.raises(ValueError):
            WidthFunction(lambda t: t, domain=(0, 1), breakpoints=(1.5,), monotonicity=("increasing", "increasing"))
        with pytest.raises(ValueError):
            WidthFunction(
                lambda t: t,
                domain=(0, 1),
                breakpoints=(0.6, 0.4),
                monotonicity=("increasing",) * 3,
            )

    @pytest.mark.parametrize("fn", [lambda t: np.ones(t.shape, dtype=np.int64), lambda t: 1,
                                    lambda t: np.ones(t.shape).tolist(), lambda t: np.float32(1.0)],
                             ids=["int-array", "int", "list", "float32"])
    def test_a_call_returns_float64_of_the_input_shape(self, fn):
        w = WidthFunction(fn, domain=(0, 1))
        for t in (0.5, np.linspace(0.0, 1.0, 5), [0.25, 0.75]):
            vals = w(t)
            assert vals.dtype == np.float64 and vals.shape == np.shape(t) and (vals == 1.0).all()

    def test_flag_count_must_match(self):
        with pytest.raises(ValueError):
            WidthFunction(lambda t: t, domain=(0, 1), breakpoints=(0.5,), monotonicity=("increasing",))

    @given(st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=20, deadline=None)
    def test_total_variation_of_disk_width(self, r):
        w = WidthFunction(
            lambda y: 2.0 * np.sqrt(np.maximum(r * r - y * y, 0.0)),
            domain=(-r, r),
            breakpoints=(0.0,),
            monotonicity=("increasing", "decreasing"),
        )
        assert w.total_variation() == pytest.approx(4.0 * r, abs=1e-9)


def test_nonfinite_point_rejected():
    with pytest.raises(ValueError):
        Point2(float("nan"), 0.0)


def _reference_orient(a, b, c):
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def _reference_has_proper_self_intersection(pts):
    """The former O(n^2) all-pairs loop, kept as the decision oracle."""
    n = len(pts)
    edges = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent edges share an endpoint
            (p1, p2), (q1, q2) = edges[i], edges[j]
            d1 = _reference_orient(q1, q2, p1)
            d2 = _reference_orient(q1, q2, p2)
            d3 = _reference_orient(p1, p2, q1)
            d4 = _reference_orient(p1, p2, q2)
            if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
                return True
    return False


def _box_overlapping_pairs(xy):
    """The pairs [k, l], k < l, of non-adjacent edges of the ring whose closed
    bounding boxes overlap, sorted; edge k runs from vertex k to vertex k+1."""
    n = len(xy)
    q = np.roll(xy, -1, axis=0)
    (xlo, ylo), (xhi, yhi) = np.minimum(xy, q).T, np.maximum(xy, q).T
    pairs = []
    for k in range(n - 1):
        l = np.arange(k + 1, n)
        keep = (xlo[k] <= xhi[l]) & (xlo[l] <= xhi[k]) & (ylo[k] <= yhi[l]) & (ylo[l] <= yhi[k])
        keep &= (l != k + 1) & (l != k + n - 1)
        pairs += ([k, m] for m in l[keep].tolist())
    return pairs


def _star_points(rng, n, r_min=0.5, r_max=2.0):
    jitter = rng.uniform(0.1, 0.9, n)
    angles = 2.0 * math.pi * (np.arange(n) + jitter) / n
    radii = rng.uniform(r_min, r_max, n)
    return np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))


class TestSimplicityCheck:
    def test_sweep_decides_like_the_all_pairs_loop(self):
        rng = np.random.default_rng(20261018)
        crossing = 0
        for trial in range(3000):
            n = int(rng.integers(3, 41))
            kind = trial % 3
            if kind == 0:
                xy = rng.uniform(-1.0, 1.0, (n, 2))
            elif kind == 1:
                # a star with two adjacent vertices swapped usually crosses
                xy = _star_points(rng, n)
                k = int(rng.integers(0, n))
                xy[[k, (k + 1) % n]] = xy[[(k + 1) % n, k]]
            else:
                # collinear, touching and overlapping edges on a 5x5 grid
                xy = rng.integers(0, 5, (n, 2)).astype(np.float64)
            pts = tuple(Point2(float(x), float(y)) for x, y in xy)
            want = _reference_has_proper_self_intersection(pts)
            assert geometry._has_proper_self_intersection(geometry._coords(pts)) == want, pts
            crossing += want
        assert 1000 < crossing < 2500  # both decisions are well represented

    def test_crossing_in_a_late_chunk_is_found(self, monkeypatch):
        # the closing edge of the 4096-tooth sawtooth overlaps every tooth in
        # x, so the candidates fill several chunks; the only crossing (the last
        # apex lowered onto the previous tooth) sorts into the last of them
        verts = [(p.x, p.y) for p in iv.unroll_disk(Disk(Point2(0, 0), 1.0), 4096).vertices]
        # stored counterclockwise: the right end of the baseline, the last apex,
        # the base vertex before it
        (end_x, _), (apex_x, apex_y), (base_x, _) = verts[:3]
        verts[1] = (apex_x - (end_x - base_x), 0.5 * apex_y)
        seen = []
        properly_cross = geometry._properly_cross

        def spy(*args):
            seen.append(properly_cross(*args))
            return seen[-1]

        monkeypatch.setattr(geometry, "_properly_cross", spy)
        with pytest.raises(ValueError, match="self-intersecting"):
            Polygon(verts)
        assert len(seen) > 1 and seen[-1] and not any(seen[:-1])

    def test_narrow_phase_gets_each_box_overlapping_pair_once(self, monkeypatch):
        # the spy declines every batch, so the sweep hands over all its pairs
        batches = []

        def spy(edges, i, j):
            batches.append((edges, i.copy(), j.copy()))
            return False

        monkeypatch.setattr(geometry, "_properly_cross", spy)
        rng = np.random.default_rng(16)
        rings = [rng.uniform(-1.0, 1.0, (int(rng.integers(3, 41)), 2)) for _ in range(100)]
        rings += [rng.integers(0, 5, (int(rng.integers(3, 41)), 2)).astype(np.float64) for _ in range(100)]
        kite = np.array([(0.0, 0.0), (2.0, -1.0), (4.0, 0.0), (2.0, 3.0)])  # its opposite edges' boxes meet at a corner
        stars = [_star_points(rng, 512), _star_points(rng, 2048)]
        saws = [iv.unroll_disk(Disk(Point2(0, 0), r), 4096).xy() for r in (1.0, 1e200)]
        for xy in [*rings, kite, *stars, *saws]:
            batches.clear()
            assert not geometry._has_proper_self_intersection(xy)
            # sweep order is the stable order of the edges' lowest x
            order = np.argsort(np.minimum(xy[:, 0], np.roll(xy[:, 0], -1)), kind="stable")
            p, q = xy[order], np.roll(xy, -1, axis=0)[order]
            pairs = []
            for edges, i, j in batches:
                assert edges.tobytes() == np.concatenate((p.T, q.T, q.T - p.T)).tobytes()
                pairs += zip(order[i].tolist(), order[j].tolist())
            assert sorted(map(sorted, pairs)) == _box_overlapping_pairs(xy)
            # one call per enumeration step that leaves a pair
            assert all(1 <= len(i) <= _BLOCK for _, i, _ in batches)
            if any(xy is star for star in stars):
                assert len(batches) > 1
            if xy is kite:
                assert len(pairs) == 2

    def test_a_triangle_skips_both_ring_checks(self, monkeypatch):
        # a triangle has no two non-adjacent edges, and a repeat in it is consecutive
        def refuse(xy):
            raise AssertionError(f"a ring check ran on {len(xy)} vertices")

        saw = iv.unroll_disk(Disk(Point2(0, 0), 1), 64)  # itself a checked 129-vertex ring
        monkeypatch.setattr(geometry, "_has_proper_self_intersection", refuse)
        monkeypatch.setattr(geometry, "_has_opposite_loops", refuse)
        assert Polygon([(0, 0), (1, 0), (0, 1)]).area() == 0.5
        assert len(iv.sawtooth_teeth(saw)) == 64
        with pytest.raises(AssertionError, match="on 4 vertices"):
            Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])

    def test_large_star_with_swapped_vertices_rejected(self):
        # unit-radius star: swapping two neighbours makes two chords whose
        # endpoints interleave on the circle, a proper crossing
        rng = np.random.default_rng(2048)
        xy = _star_points(rng, 2048, r_min=1.0, r_max=1.0)
        xy[[700, 701]] = xy[[701, 700]]
        with pytest.raises(ValueError, match="self-intersecting"):
            Polygon(xy.tolist())

    def test_very_large_star_validates(self):
        # quadratic-regression guard: the all-pairs loop would take minutes
        xy = _star_points(np.random.default_rng(20000), 20_000)
        poly = Polygon(xy.tolist())
        assert len(poly.vertices) == 20_000

    def test_xy_matches_the_vertex_coordinates(self, rng):
        poly = star_polygon(rng, n_min=40, n_max=40)
        expected = np.array([(p.x, p.y) for p in poly.vertices], dtype=np.float64)
        got = poly.xy()
        assert got.dtype == np.float64 and got.shape == (40, 2)
        assert got.tobytes() == expected.tobytes()


def _all_pairs_opposite_loops(xy):
    """The loop check as it tested every pair of copies of a point: for
    copies i < j, the loop from i up to j against the rest of the ring."""
    order = np.lexsort((xy[:, 1], xy[:, 0]))
    ranked = xy[order]
    repeat = (ranked[1:] == ranked[:-1]).all(axis=1)
    if not repeat.any():
        return False
    point = np.cumsum(np.concatenate(([0], ~repeat)))
    copy = np.concatenate(([False], repeat)) | np.concatenate((repeat, [False]))
    for copies in np.split(order[copy], np.flatnonzero(np.diff(point[copy])) + 1):
        for i, j in combinations(copies.tolist(), 2):
            inner, outer = geometry._signed_area(xy[i:j]), geometry._signed_area(np.concatenate((xy[j:], xy[:i])))
            if min(inner, outer) < 0.0 < max(inner, outer):
                return True
    return False


def _petals(rng, m, flip):
    """m petals (0, 0), p, q round the origin, p and q at random radii and
    angles inside the petal's sector, each reversed with probability flip."""
    a = 2.0 * math.pi * (np.arange(m)[:, None] + np.sort(rng.uniform(0.05, 0.95, (m, 2)), axis=1)) / m
    r = rng.uniform(0.5, 2.0, (m, 2))
    tips = np.stack((r * np.cos(a), r * np.sin(a)), axis=2)
    back = rng.random(m) < flip
    tips[back] = tips[back, ::-1]
    return np.concatenate((np.zeros((m, 1, 2)), tips), axis=1).reshape(-1, 2)


def _flower(m):
    """The ring of m petals (0, 0), (cos a0, sin a0), (cos a1, sin a1), with
    a0 = 2 pi (i + 0.1) / m and a1 = 2 pi (i + 0.9) / m: the origin m times."""
    a0, a1 = (2.0 * math.pi * (np.arange(m) + f) / m for f in (0.1, 0.9))
    tips = np.stack((np.cos(a0), np.sin(a0), np.cos(a1), np.sin(a1)), axis=1).reshape(m, 2, 2)
    return np.concatenate((np.zeros((m, 1, 2)), tips), axis=1).reshape(-1, 2)


class TestLoopCheck:
    """``_has_opposite_loops`` tests k loops per point repeated k times, and
    every ring sign is ``_signed_area``'s."""

    def test_decides_like_every_pair_of_copies(self):
        rng = np.random.default_rng(20261021)
        rings = []
        while len(rings) < 10_000:
            kind = len(rings) % 3
            if kind == 0:  # a walk on a 4x4 grid that never stays put
                n = int(rng.integers(5, 17))
                cells = (int(rng.integers(16)) + np.cumsum(rng.integers(1, 16, n))) % 16
                if cells[0] == cells[-1] or len(set(cells.tolist())) == n:
                    continue
                xy = np.column_stack(divmod(cells, 4)).astype(np.float64)
            else:  # a flower, or a figure-eight: two petals
                xy = _petals(rng, int(rng.integers(2, 9)), 0.15) if kind == 1 else _petals(rng, 2, 0.5)
            rings.append(np.ascontiguousarray(xy[::-1]) if geometry._signed_area(xy) < 0.0 else xy)
        rejected = [0, 0, 0]
        for k, xy in enumerate(rings):
            want = _all_pairs_opposite_loops(xy)
            assert geometry._has_opposite_loops(xy) == want, xy.tolist()
            rejected[k % 3] += want
        assert all(1000 < r < 2500 for r in rejected)  # both decisions are well represented

    @pytest.mark.xfail(reason="a repeated vertex whose loops overlap there is not rejected: "
                              "the repeated-vertex case of ROADMAP item 1 step B", raises=pytest.fail.Exception)
    def test_loops_overlapping_at_a_repeated_vertex_are_rejected(self):
        # both passes through (0, 0) turn left, the inner loop inside the
        # square's corner, so the loops have one sign and no edges cross
        # properly; the ring's area is 18 while its even-odd membership counts 14
        with pytest.raises(ValueError, match="self-intersecting"):
            Polygon([(0, 0), (4, 0), (4, 4), (0, 4), (0, 0), (2, 1), (2, 2), (1, 2)])

    def test_a_point_repeated_200_times_is_checked_in_linear_time(self):
        # all pairs of the 200 copies took about a second
        xy = _flower(200)
        start = time.perf_counter()
        poly = Polygon(xy)
        assert time.perf_counter() - start < 0.5
        assert poly.xy().tobytes() == xy.tobytes()  # counterclockwise as given

    def test_a_stack_of_triangles_sums_as_each_ring(self):
        rng = np.random.default_rng(20261022)
        tri = rng.uniform(-1.0, 1.0, (6000, 3, 2)) * 10.0 ** rng.integers(-3, 4, (6000, 1, 1))
        tri[:1000] *= 1e-170  # sums that underflow, to zeros of either sign
        tri[1000:2000] *= 1e200  # and that overflow
        tri[2000:3000, 2] = tri[2000:3000, 0] + rng.uniform(0, 1, (1000, 1)) * (tri[2000:3000, 1] - tri[2000:3000, 0])
        tri[3000:3500, 1:] = tri[3000:3500, :1]  # every corner the same
        want = np.array([geometry._shoelace(t)[0] for t in tri])
        got = geometry._signed_area(tri)
        assert got.shape == (6000,) and got.tobytes() == want.tobytes()
        assert {np.signbit(a) for a in got[got == 0.0]} == {False}  # a sum from 0.0 is never -0.0
        assert np.isnan(got).any() and np.isinf(got).any() and (got == 0.0).sum() > 500


class TestPolygonArray:
    """``Polygon.xy()`` is the array built once at construction: read-only,
    bit for bit the stored vertices, and invisible to the dataclass."""

    def test_xy_is_one_read_only_array(self, rng):
        poly = star_polygon(rng)
        xy = poly.xy()
        assert poly.xy() is xy
        assert xy.flags.c_contiguous and not xy.flags.writeable
        with pytest.raises(ValueError):
            xy[0, 0] = 1.0

    def test_xy_of_clockwise_input_is_the_stored_vertices(self, rng):
        # counterclockwise input: test_xy_matches_the_vertex_coordinates
        points = [(p.x, p.y) for p in star_polygon(rng, n_min=40, n_max=40).vertices]
        poly = Polygon(points[::-1])
        assert [(p.x, p.y) for p in poly.vertices] == points
        fresh = geometry._coords(poly.vertices)
        assert poly.xy().dtype == np.float64 and poly.xy().shape == (40, 2)
        assert poly.xy().tobytes() == fresh.tobytes()

    def test_dataclass_sees_the_vertices_alone(self):
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        a, b = Polygon(square), Polygon(square[::-1])
        assert a == b and hash(a) == hash(b)
        assert [f.name for f in dataclasses.fields(Polygon)] == ["vertices"]
        assert repr(a) == f"Polygon(vertices={a.vertices!r})"
        moved = dataclasses.replace(a, vertices=[(2, 0), (3, 0), (3, 1)])
        assert moved == Polygon([(2, 0), (3, 0), (3, 1)])
        assert moved.xy().tobytes() == geometry._coords(moved.vertices).tobytes()
        assert dataclasses.replace(a) == a

    def test_copies_keep_a_read_only_array(self, rng):
        poly = star_polygon(rng)
        for copied in (copy.copy(poly), copy.deepcopy(poly), pickle.loads(pickle.dumps(poly))):
            assert copied == poly and not copied.xy().flags.writeable
            assert copied.xy().tobytes() == poly.xy().tobytes()

    def test_measures_reuse_the_array(self, rng, monkeypatch):
        poly = star_polygon(rng)
        calls = []
        coords = geometry._coords

        def spy(pts):
            calls.append(len(pts))
            return coords(pts)

        monkeypatch.setattr(geometry, "_coords", spy)
        c = iv.centroid_region(poly)
        line = Line2(c, (0.6, 0.8))
        iv.area(poly)
        iv.first_moment(poly, line)
        iv.contains(poly, np.linspace(-1.0, 1.0, 7), np.zeros(7))
        iv.oblique_cut_volumes(poly, line, 1.5)
        assert calls == []
        Polygon(poly.vertices)
        assert calls == [len(poly.vertices)]  # construction builds it once


def _reference_contains(poly, xs, ys):
    """The per-edge loop over every point that ``Polygon.contains`` replaced:
    edge j -> i, j the vertex before i, tested against all points."""
    pts = poly.xy()
    inside = np.zeros(np.broadcast(xs, ys).shape, dtype=bool)
    n = len(pts)
    j = n - 1
    for i in range(n):
        xi, yi = pts[i]
        xj, yj = pts[j]
        crosses = (yi > ys) != (yj > ys)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = (xj - xi) * (ys - yi) / (yj - yi) + xi
        inside ^= crosses & (xs < xcross)
        j = i
    return inside


class TestPolygonContains:
    """Point-in-polygon over the y-sorted points decides every point as the
    per-edge loop over all points does, with the same shape and dtype, on
    rings of every size from the triangle up."""

    SPECIAL = (np.nan, 0.0, -0.0, np.inf, -np.inf)

    @staticmethod
    def _rings():
        rng = np.random.default_rng(20261019)
        stars = [Polygon(_star_points(rng, int(rng.integers(3, 65)))) for _ in range(40)]
        grids = []  # rings on the 5x5 grid, many with horizontal edges and vertices at one height
        while len(grids) < 60:
            try:
                grids.append(Polygon(rng.integers(-2, 3, (int(rng.integers(3, 10)), 2)).astype(np.float64)))
            except ValueError:
                pass
        return rng, stars, grids

    @staticmethod
    def _same(poly, xs, ys):
        want = _reference_contains(poly, xs, ys)
        got = poly.contains(xs, ys)
        assert type(got) is np.ndarray and got.dtype == np.bool_ and got.shape == want.shape
        assert np.array_equal(got, want), poly.xy().tolist()

    def test_stars_at_vertices_edges_and_random_points(self):
        rng, stars, _ = self._rings()
        for poly in stars:
            xy = poly.xy()
            mids = 0.5 * (xy + geometry._ring_next(xy))  # on the edges, up to rounding
            (x0, x1), (y0, y1) = poly.box()
            xs = np.concatenate((xy[:, 0], mids[:, 0], rng.uniform(x0, x1, 300), rng.choice(xy[:, 0], 50)))
            ys = np.concatenate((xy[:, 1], mids[:, 1], rng.uniform(y0, y1, 300), rng.choice(xy[:, 1], 50)))
            self._same(poly, xs, ys)
            self._same(poly, xs.reshape(-1, 1)[::7], ys.reshape(1, -1))  # broadcast (m, 1) x (1, k)

    def test_grid_rings_on_their_vertices_edges_and_half_steps(self):
        _, _, grids = self._rings()
        steps = np.concatenate((np.arange(-6, 7) / 2.0, self.SPECIAL))
        gx, gy = (a.ravel() for a in np.meshgrid(steps, steps))
        for poly in grids:
            self._same(poly, gx, gy)
            self._same(poly, steps[:, None], steps[None, :])
            self._same(poly, gx.reshape(3, -1), gy.reshape(3, -1))

    def test_int_scalar_and_empty_inputs(self):
        _, stars, grids = self._rings()
        ints = np.arange(-3, 4)
        for poly in grids[:20] + stars[:5]:
            self._same(poly, ints[:, None], ints[None, :])
            self._same(poly, ints.tolist(), 0)
            for x, y in ((0, 0), (0.5, -0.0), (1, 1.5), (np.nan, 0.0), (0.25, np.nan)):
                self._same(poly, x, y)
            self._same(poly, np.empty(0), np.empty(0))
            self._same(poly, np.empty((3, 0)), 0.5)

    def test_decisions_follow_the_points_not_their_order(self):
        # many points share a vertex height, so the sort by y meets ties;
        # shuffling the points must shuffle the decisions and nothing else
        rng, stars, grids = self._rings()
        for poly in grids + stars:
            xy = poly.xy()
            xs = np.concatenate((rng.choice(xy[:, 0], 200), rng.uniform(-2.5, 2.5, 200)))
            ys = np.concatenate((rng.choice(xy[:, 1], 200), rng.choice(xy[:, 1], 200)))
            order = rng.permutation(len(xs))
            assert np.array_equal(poly.contains(xs[order], ys[order]), poly.contains(xs, ys)[order]), xy.tolist()

    def test_inputs_are_not_written(self):
        _, stars, _ = self._rings()
        xs = np.linspace(-2.0, 2.0, 101)
        ys = xs[::-1].copy()
        keep = xs.copy(), ys.copy()
        stars[0].contains(xs, ys)
        assert np.array_equal(xs, keep[0]) and np.array_equal(ys, keep[1])

    def test_library_contains_reads_float64(self):
        _, _, grids = self._rings()
        xs, ys = [0, 1, 2, -1], [1, 1, 0, 2]
        for poly in grids[:10]:
            assert np.array_equal(iv.contains(poly, xs, ys), _reference_contains(poly, np.array(xs, float), np.array(ys, float)))


class TestPolygonVertexChecks:
    """The vertex checks run on the coordinate array with the messages of the
    per-point loop they replace."""

    @pytest.mark.parametrize(
        "points",
        [
            [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)],
            [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (-0.0, 0.0)],
            [(0.0, 0.0), (1.0, 0.0), (1.0, -0.0), (1.0, 1.0)],
            [(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 1.0)],
        ],
        ids=["across-the-wrap", "signed-zero-across-the-wrap", "signed-zero", "inside"],
    )
    def test_repeated_consecutive_vertex(self, points):
        with pytest.raises(ValueError, match="polygon has a repeated consecutive vertex"):
            Polygon(points)

    def test_repeat_check_decides_like_the_point_loop(self):
        rng = np.random.default_rng(20261019)
        repeats = 0
        for _ in range(500):
            xy = rng.integers(-1, 2, (int(rng.integers(3, 9)), 2)).astype(np.float64)
            xy[rng.random(xy.shape) < 0.5] *= -1.0  # signed zeros
            pts = [Point2(float(x), float(y)) for x, y in xy]
            want = any(p.x == q.x and p.y == q.y for p, q in zip(pts, pts[1:] + pts[:1]))
            try:
                Polygon(pts)
                got = False
            except ValueError as err:
                got = str(err) == "polygon has a repeated consecutive vertex"
            assert got == want, xy.tolist()
            repeats += want
        assert 100 < repeats < 450  # both decisions are well represented

    @pytest.mark.parametrize(
        "points",
        [
            [(0.0, 0.0), (math.nan, 0.0)],
            [(0.0, 0.0), (0.0, 0.0), (1.0, math.inf)],
            [(0.0, 0.0), (2.0, 0.0), (0.0, -math.inf), (1.0, 1.0)],
        ],
        ids=["before-the-length-check", "before-the-repeat-check", "before-the-crossing-check"],
    )
    def test_nonfinite_vertex_is_rejected_first(self, points):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            Polygon(points)

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0), (math.nan, 0), (0, math.inf)])
    def test_nonfinite_point(self, x, y):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            Point2(x, y)


class TestPoint2:
    """``Point2`` has its own ``__init__``; the frozen dataclass around it
    behaves as it did with the generated one."""

    def test_fields_are_frozen(self):
        p = Point2(1.0, 2.0)
        for name in ("x", "y"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, name, 3.0)

    def test_value_semantics(self):
        p = Point2(1.5, -0.0)
        assert p == Point2(1.5, -0.0) and hash(p) == hash(Point2(1.5, -0.0))
        assert p != Point2(1.5, 1.0)
        assert repr(p) == "Point2(x=1.5, y=-0.0)"
        assert Point2(x=1.5, y=-0.0) == p
        assert dataclasses.replace(p, y=4.0) == Point2(1.5, 4.0)
        with pytest.raises(ValueError, match="coordinates must be finite"):
            dataclasses.replace(p, x=math.inf)
        for copied in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert copied == p and repr(copied) == repr(p)

    @pytest.mark.parametrize("args", [("1", 2.0), (1.0, None), (1.0,)])
    def test_non_numbers_are_type_errors(self, args):
        with pytest.raises(TypeError):
            Point2(*args)

    def test_coordinates_are_kept_as_given(self):
        p = Point2(1, 2)
        assert type(p.x) is int and p.x == 1 and type(p.y) is int

    def test_memory_per_point(self):
        # a point and its list slot take about 97 B on CPython 3.11 and 160 B
        # on 3.10, whose instances keep their shared-key dict apart; filling
        # the dict by update() instead unshares its keys: 240 B or more on 3.10-3.12
        coords = [float(i) for i in range(10_000)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            points = [Point2(c, 0.5) for c in coords]
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(points) == 10_000
        assert used / 10_000 < 200


class TestPolylineArray:
    """``Polyline`` keeps the array built at construction, as ``Polygon`` does:
    read-only, bit for bit its points, and invisible to the dataclass."""

    def test_array_is_read_only(self, rng):
        line = Polyline(star_polygon(rng).vertices)
        xy = line._xy
        assert xy.dtype == np.float64 and xy.shape == (len(line.points), 2) and not xy.flags.writeable
        assert xy.tobytes() == geometry._coords(line.points).tobytes()
        with pytest.raises(ValueError):
            xy[0, 0] = 1.0

    def test_dataclass_sees_the_points_alone(self):
        pts = [(0, 0), (1, 0), (1, 1)]
        a, b = Polyline(pts, closed=True), Polyline([Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(1.0, 1.0)], closed=1)
        assert [f.name for f in dataclasses.fields(Polyline)] == ["points", "closed"]
        assert a == b and hash(a) == hash(b) and a != Polyline(pts)
        assert repr(a) == f"Polyline(points={a.points!r}, closed=True)"

    def test_copies_keep_a_read_only_array(self, rng):
        line = Polyline(star_polygon(rng).vertices, closed=True)
        for copied in (copy.copy(line), copy.deepcopy(line), pickle.loads(pickle.dumps(line))):
            assert copied == line and copied.closed and not copied._xy.flags.writeable
            assert copied._xy.tobytes() == line._xy.tobytes()

    def test_measures_reuse_the_array(self, rng, monkeypatch):
        line = Polyline(star_polygon(rng).vertices, closed=True)
        calls = []
        coords = geometry._coords

        def spy(pts):
            calls.append(len(pts))
            return coords(pts)

        monkeypatch.setattr(geometry, "_coords", spy)
        cut = Line2(iv.centroid_curve(line), (0.6, 0.8))
        line.measures()
        line.side_moments(cut)
        line.min_distance(cut)
        iv.oblique_cut_lateral_areas(line, cut, 1.5)
        assert calls == []
        Polyline(line.points)
        assert calls == [len(line.points)]  # construction builds it once


def _row_built(kind, xy, **kwargs):
    """``kind`` built row by row from ``xy``, as from a list of points: the
    rows come from a generator, since a list of pairs is read as one array."""
    return kind((row for row in xy), **kwargs)


def _unbuilt(shape) -> bool:
    """True while an array-built shape has not built its points."""
    return not {"vertices", "points"} & set(vars(shape))


class TestArrayConstruction:
    """A ``Polygon`` or ``Polyline`` given its (n, 2) coordinate array keeps
    it and builds its points only when they are read; it is equal in every
    respect to the one built row by row."""

    @pytest.mark.parametrize("clockwise", [False, True], ids=["ccw", "cw"])
    @pytest.mark.parametrize("kind, kwargs", [(Polygon, {}), (Polyline, {"closed": True}), (Polyline, {})],
                             ids=["polygon", "closed-polyline", "open-polyline"])
    def test_equals_the_row_construction(self, rng, kind, kwargs, clockwise):
        xy = _star_points(rng, 40)[::-1] if clockwise else _star_points(rng, 40)
        got, want = kind(xy, **kwargs), _row_built(kind, xy, **kwargs)
        assert got._xy.tobytes() == want._xy.tobytes() and not got._xy.flags.writeable
        assert _unbuilt(got)
        field = dataclasses.fields(kind)[0].name
        assert repr(getattr(got, field)) == repr(getattr(want, field))
        assert not _unbuilt(got)
        fresh = kind(xy, **kwargs)  # ==, hash and repr build the points themselves
        assert fresh == want and hash(fresh) == hash(want) and repr(fresh) == repr(want)
        # copies, of a shape with its points built (got) or not, read the array alone
        for copied in (dataclasses.replace(kind(xy, **kwargs)), copy.copy(kind(xy, **kwargs)), copy.copy(got),
                       copy.deepcopy(kind(xy, **kwargs)), pickle.loads(pickle.dumps(kind(xy, **kwargs))),
                       pickle.loads(pickle.dumps(got))):
            assert _unbuilt(copied)
            assert copied == want and repr(copied) == repr(want)
            assert copied._xy.tobytes() == want._xy.tobytes() and not copied._xy.flags.writeable

    def test_points_are_floats_from_any_real_dtype(self):
        rows = [(0, 0), (3, 0), (3, 2), (0, 2)]
        want = Polygon([(float(x), float(y)) for x, y in rows])
        for dtype in (np.int64, np.uint8, np.float32, np.float64):
            poly = Polygon(np.array(rows, dtype=dtype))
            assert repr(poly) == repr(want) and poly.box() == ((0.0, 3.0), (0.0, 2.0))
            assert all(type(c) is float for p in poly.vertices for c in (p.x, p.y))

    def test_other_inputs_keep_the_point_path(self, monkeypatch):
        # Point2s are read row by row, and an array of another shape is read
        # row by row into the error of its first row that is not a pair;
        # the points are then built as floats from the array, as for any
        # other input
        calls = []
        coords = geometry._coords
        monkeypatch.setattr(geometry, "_coords", lambda pts: calls.append(len(pts)) or coords(pts))
        ints = Polygon([Point2(0, 0), Point2(3, 0), Point2(0, 2)])
        with pytest.raises(ValueError, match="^a point is a Point2 or 2 coordinates, not 3$"):
            Polygon(np.array([[0, 0, 9], [3, 0, 9], [0, 2, 9]]))
        assert calls == [3] and _unbuilt(ints)
        assert repr(ints.box()) == repr(((0.0, 3.0), (0.0, 2.0)))
        assert repr(ints.vertices) == repr((Point2(0.0, 0.0), Point2(3.0, 0.0), Point2(0.0, 2.0)))

    def test_the_array_is_always_copied(self, rng):
        xy = _star_points(rng, 12)
        poly = Polygon(xy)
        assert poly.xy() is not xy and xy.flags.writeable
        xy[0] = 0.0
        assert poly.xy()[0].tolist() != [0.0, 0.0]
        again = Polygon(poly.xy())
        assert again.xy() is not poly.xy() and again.xy().tobytes() == poly.xy().tobytes()
        fortran = Polygon(np.asfortranarray(_star_points(rng, 12)))
        assert fortran.xy().flags.c_contiguous

    @pytest.mark.parametrize("kind", [Polygon, Polyline])
    def test_a_read_only_view_of_a_writable_array_is_copied(self, kind):
        # a read-only flag on a view does not stop writes through its base
        base = np.array([[0, 0], [2, 0], [2, 1], [0, 1]], dtype=np.float64)
        view = base.view()
        view.flags.writeable = False
        shape = kind(view)
        before = iv.area(shape) if kind is Polygon else iv.perimeter(shape)
        base[:] = [[0, 0], [2, 1], [2, 0], [0, 1]]  # a bow-tie
        after = iv.area(shape) if kind is Polygon else iv.perimeter(shape)
        assert shape._xy.tolist() == [[0, 0], [2, 0], [2, 1], [0, 1]]
        assert before == after == (2.0 if kind is Polygon else 5.0)

    @pytest.mark.parametrize("kind", [Polygon, Polyline])
    @pytest.mark.parametrize("rows, count", [([(0, 0, 7), (1, 0, 7), (0, 1, 7)], 3),
                                             (np.array([(0, 0, 7), (1, 0, 7), (0, 1, 7)]), 3),
                                             ([(0, 0), (3,), (0, 1)], 1), ([(0, 0), (1, 0), ()], 0),
                                             (np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0]), "a scalar"),
                                             ([1, 2, 3], "a scalar"), ([(0, 0), Fraction(1, 3), (0, 1)], "a scalar"),
                                             ([(0, 0), None, (0, 1)], "NoneType")],
                             ids=["3-tuples", "3-columns", "short-row", "empty-row", "flat-array", "ints",
                                  "fraction-row", "none-row"])
    def test_a_point_is_exactly_two_coordinates(self, kind, rows, count):
        with pytest.raises(ValueError, match=f"^a point is a Point2 or 2 coordinates, not {count}$"):
            kind(rows)

    @pytest.mark.parametrize(
        "kind, rows, message",
        [
            (Polygon, [(0.0, 0.0), (math.nan, 0.0)], "coordinates must be finite"),
            (Polygon, [(0.0, 0.0), (0.0, 0.0), (1.0, math.inf)], "coordinates must be finite"),
            (Polygon, [(0.0, 0.0), (2.0, 0.0), (0.0, -math.inf), (1.0, 1.0)], "coordinates must be finite"),
            (Polyline, [(-math.inf, 0.0)], "coordinates must be finite"),
            (Polygon, [(0.0, 0.0), (1.0, 0.0)], "polygon needs at least 3 vertices"),
            (Polygon, np.zeros((0, 2)), "polygon needs at least 3 vertices"),
            (Polyline, [(0.0, 0.0)], "polyline needs at least 2 points"),
            (Polygon, [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (-0.0, 0.0)], "polygon has a repeated consecutive vertex"),
            (Polygon, [(0, 0), (2, 2), (2, 0), (0, 2)], "polygon is self-intersecting"),
            (Polygon, [(0, 0), (1, -1), (1, 1), (0, 0), (-1, -1), (-1, 1)], "polygon is self-intersecting"),
        ],
        ids=["nan-short", "inf-repeat", "inf-crossing", "inf-polyline", "two-rows", "no-rows", "one-point",
             "repeat", "crossing", "figure-eight"],
    )
    def test_errors_match_the_row_construction(self, kind, rows, message):
        xy = np.array(rows, dtype=np.float64).reshape(-1, 2)
        for build in (lambda: kind(xy), lambda: _row_built(kind, xy)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()

    def test_measures_and_boundary_build_no_vertices(self, rng, monkeypatch):
        poly = Polygon(_star_points(rng, 64))
        calls = []
        coords = geometry._coords
        monkeypatch.setattr(geometry, "_coords", lambda pts: calls.append(len(pts)) or coords(pts))
        c = iv.centroid_region(poly)
        line = Line2(c, (0.6, 0.8))
        iv.area(poly), iv.first_moment(poly, line), iv.oblique_cut_volumes(poly, line, 1.5)
        poly.min_rho(), iv.bounding_box(poly)
        shifted = Polygon(poly.xy() + 3.0)
        unfolded = iv.unfold_revolution(Profile(shifted))
        iv.volume(unfolded), iv.lateral_area(unfolded)  # the wall reads boundary()
        ring = poly.boundary()
        iv.oblique_cut_lateral_areas(ring, Line2(iv.centroid_curve(ring), (0.6, 0.8)), 1.5)
        assert _unbuilt(poly) and _unbuilt(shifted) and _unbuilt(ring) and calls == []
        assert ring._xy is not poly.xy() and ring._xy.tobytes() == poly.xy().tobytes() and ring.closed
        assert ring.points == poly.vertices

    def test_boundary_points_equal_the_vertices(self, rng):
        poly = star_polygon(rng)
        ring = poly.boundary()
        assert ring._xy is not poly.xy() and ring._xy.tobytes() == poly.xy().tobytes()
        assert ring.points == poly.vertices
        assert iv.perimeter(ring) == iv.perimeter(Polyline(poly.vertices, closed=True))

    def test_box_reads_the_array_until_the_vertices_are_built(self):
        rows = np.array([(0.0, 1.0), (-0.0, -1.0), (2.0, 0.0), (2.0, 1.0)])
        early = Polygon(rows)
        box, least = early.box(), early.min_rho()
        assert _unbuilt(early)
        late = Polygon(rows)
        late.vertices
        assert repr((box, least)) == repr((late.box(), late.min_rho())) == repr((((0.0, 2.0), (-1.0, 1.0)), 0.0))


def _reference_polyline_measures(curve):
    """The former per-edge loop of Polyline.measures."""
    length = mx = my = 0.0
    for p, q in curve.edges():
        seg = math.hypot(q.x - p.x, q.y - p.y)
        length += seg
        mx += seg * 0.5 * (p.x + q.x)
        my += seg * 0.5 * (p.y + q.y)
    return length, mx, my


class TestArrayMeasuresMatchThePointLoops:
    """The array forms of the polyline measures and of the polygon box give
    the bits of the per-point loops they replace."""

    def curves(self):
        rng = np.random.default_rng(20261020)
        for trial in range(120):
            scale = 10.0 ** rng.uniform(-150.0, 150.0)
            pts = (_star_points(rng, int(rng.integers(3, 40))) * scale).tolist()
            if trial % 3 == 0:
                k = int(rng.integers(0, len(pts)))
                pts.insert(k, pts[k])  # a zero-length edge
            line = Line2(Point2(*(rng.uniform(-1.0, 1.0, 2) * scale).tolist()), tuple(rng.normal(size=2).tolist()))
            for closed in (False, True):
                yield Polyline(pts, closed=closed), line

    def test_measures_and_least_distance(self):
        for curve, line in self.curves():
            assert repr(curve.measures()) == repr(_reference_polyline_measures(curve))
            want = min(line.signed_distance(p) for p in curve.points)
            assert repr(curve.min_distance(line)) == repr(want)

    def test_side_moments(self):
        for curve, line in self.curves():
            assert repr(curve.side_moments(line)) == repr(scalar_side_moments(curve, line))

    @pytest.mark.parametrize("closed", [False, True])
    def test_products_that_overflow(self, closed):
        # edge lengths, midpoints and distances overflow to inf, and inf - inf
        # gives nan (the third point's distance, which min() skips); the loops
        # did this silently, so no warning may escape
        pts = [(1e300, 0.0), (1e300, 0.0), (1e308, -1e308), (-1e300, 1e300), (0.0, -1e300), (1e-300, 5e-324)]
        curve = Polyline(pts, closed=closed)
        line = Line2(Point2(-1e308, 1e308), (0.6, -0.8))
        got = curve.measures()
        assert repr(got) == repr(_reference_polyline_measures(curve))
        assert not all(math.isfinite(v) for v in got)
        least = curve.min_distance(line)
        assert repr(least) == repr(min(line.signed_distance(p) for p in curve.points))
        assert math.isfinite(least) and math.isnan(line.signed_distance(curve.points[2]))
        assert repr(curve.side_moments(line)) == repr(scalar_side_moments(curve, line))
        # the repeated point's two distances sum to inf, so its zero-length
        # edge would give 0 * inf = nan were it not left out
        far = Line2(Point2(-1e308, 0.0), (0.0, 1.0))
        assert repr(curve.side_moments(far)) == repr(scalar_side_moments(curve, far)) == repr((0.0, math.inf))

    def test_box_and_least_x_pick_the_first_extreme(self):
        # ties between 0.0 and -0.0 and integer coordinates: the value Python's
        # min and max return over the vertices, sign and type included
        rng = np.random.default_rng(20261021)
        checked = 0
        for _ in range(300):
            pts = [Point2(*xy) for xy in _star_points(rng, int(rng.integers(3, 12))).tolist()]
            if rng.random() < 0.5:
                pts = [Point2(round(p.x), round(p.y)) if rng.random() < 0.5 else p for p in pts]
            pts = [Point2(-0.0 if p.x == 0 and rng.random() < 0.5 else p.x, p.y) for p in pts]
            try:
                poly = Polygon(pts)
            except ValueError:
                continue
            xs, ys = [p.x for p in poly.vertices], [p.y for p in poly.vertices]
            assert repr(poly.box()) == repr(((min(xs), max(xs)), (min(ys), max(ys))))
            assert repr(poly.min_rho()) == repr(min(xs))
            checked += 1
        assert checked > 100
        for pts, box, least in [
            ([(0.0, 1.0), (-0.0, 0.0), (1.0, -0.0), (1.0, 1.0)], "((0.0, 1.0), (0.0, 1.0))", "0.0"),
            ([(-0.0, 1.0), (0.0, -0.0), (1.0, 0.0), (1.0, 1.0)], "((-0.0, 1.0), (-0.0, 1.0))", "-0.0"),
        ]:
            square = Polygon(pts)
            assert repr(square.box()) == box and repr(square.min_rho()) == least


def _inline_distances(line, xs, ys):
    """The signed-distance formula as each caller wrote it before Line2 held it."""
    nx, ny = line.normal()
    return nx * (xs - line.point.x) + ny * (ys - line.point.y)


def _inline_first_moment(measures, line):
    a, sx, sy = measures
    nx, ny = line.normal()
    return nx * (sx - line.point.x * a) + ny * (sy - line.point.y * a)


def _outcome(rule):
    """The repr of what ``rule()`` returns, or of the error it raises."""
    try:
        return repr(rule())
    except (GeometryError, ValueError) as exc:
        return repr(exc)


def _inline_shear(poly, base, k):
    xy = poly.xy()
    (dx, dy), (nx, ny) = base.direction, base.normal()
    with np.errstate(over="ignore", invalid="ignore"):
        d = nx * (xy[:, 0] - base.point.x) + ny * (xy[:, 1] - base.point.y)
        moved = np.column_stack((xy[:, 0] + k * d * dx, xy[:, 1] + k * d * dy))
    return Polygon(moved)


class TestLine2Callers:
    """Each caller of Line2.signed_distances and Line2.first_moment gives the
    bits of the formula it wrote out before.  Scales reach 1e200, where the
    moment integrals overflow inside the callers' own errstate blocks, so a
    lost errstate fails under -W error::RuntimeWarning."""

    def lines(self, rng, scale):
        for _ in range(3):
            yield Line2(Point2(*(rng.uniform(-1.0, 1.0, 2) * scale).tolist()), tuple(rng.normal(size=2).tolist()))
        yield Line2.horizontal(float(rng.uniform(-1.0, 1.0)) * scale)
        yield Line2.vertical(float(rng.uniform(-1.0, 1.0)) * scale)

    def scales(self, rng):
        return [1.0, 1e200, *(10.0 ** rng.uniform(-150.0, 200.0, 6)).tolist()]

    def test_polygons_and_polylines(self):
        rng = np.random.default_rng(20261019)
        for scale in self.scales(rng):
            for _ in range(4):
                pts = (_star_points(rng, int(rng.integers(3, 30))) * scale).tolist()
                poly = Polygon(pts)
                for line in self.lines(rng, scale):
                    assert repr(poly.side_moments(line)) == repr(scalar_side_moments(poly, line))
                    assert _outcome(lambda: iv.first_moment(poly, line)) == _outcome(
                        lambda: _inline_first_moment(geometry._nonzero_measures(poly), line)
                    )
                    for closed in (False, True):
                        curve = Polyline(pts, closed=closed)
                        with np.errstate(over="ignore", invalid="ignore"):  # as the callers hold it
                            d = _inline_distances(line, curve._xy[:, 0], curve._xy[:, 1])
                        assert repr(curve.min_distance(line)) == repr(min(d.tolist()))
                        assert repr(curve.side_moments(line)) == repr(scalar_side_moments(curve, line))
                        assert _outcome(lambda: iv.first_moment_curve(curve, line)) == _outcome(
                            lambda: _inline_first_moment(geometry._nonzero_length(curve), line)
                        )
                    p = Point2(*pts[0])
                    assert repr(line.signed_distance(p)) == repr(_inline_distances(line, p.x, p.y))

    def test_half_disk_and_slab_region(self):
        rng = np.random.default_rng(20261018)
        slab = upper_halfdisk_slab()
        for scale in self.scales(rng):
            half = HalfDisk(Point2(*(rng.uniform(-1.0, 1.0, 2) * scale).tolist()), 1.5, tuple(rng.normal(size=2).tolist()))
            for line in self.lines(rng, scale):
                assert repr(half.side_moments(line)) == repr(scalar_side_moments(half, line))
                assert repr(iv.first_moment(half, line)) == repr(_inline_first_moment(half.measures(), line))
                assert repr(slab.side_moments(line)) == repr(scalar_side_moments(slab, line))

    def test_shear(self):
        from indivisibles.transforms import shear_region

        rng = np.random.default_rng(20261017)
        for scale in self.scales(rng):
            poly = Polygon((_star_points(rng, int(rng.integers(3, 30))) * scale).tolist())
            for line in self.lines(rng, scale):
                for k in (0.0, float(rng.normal()), 1e110):  # 1e110 overflows at 1e200
                    want = _outcome(lambda: _inline_shear(poly, line, k).vertices)
                    assert _outcome(lambda: shear_region(poly, line, k).vertices) == want


def _per_point_read(items):
    """The point-by-point read of a polygon's or polyline's vertices, as
    construction read every list of pairs before it read one as a single
    array: the points, each a ``Point2`` or exactly two coordinates, then
    the array built from them."""
    def point(p):
        if isinstance(p, Point2):
            return p
        try:
            count = len(p)
        except TypeError:
            count = "a scalar" if isinstance(p, Number) else type(p).__name__
        if count != 2:
            raise ValueError(f"a point is a Point2 or 2 coordinates, not {count}")
        return Point2(float(p[0]), float(p[1]))

    pts = tuple(map(point, items))
    return pts, geometry._coords(pts)


def _shape_outcome(build):
    """The points of the shape ``build()`` makes (each coordinate's type and
    repr) and its array's bytes, or the type and message of its error."""
    try:
        shape = build()
    except Exception as exc:  # any error, compared by type and message
        return type(exc), str(exc)
    pts = shape.vertices if isinstance(shape, Polygon) else shape.points
    return [(type(c), repr(c)) for p in pts for c in (p.x, p.y)], shape._xy.tobytes()


ODD_INPUTS = {
    "ints": lambda: [(0, 0), (3, 0), (0, 2)],
    "bools": lambda: [(False, False), (True, False), (False, True)],
    "2**53+1": lambda: [(0, 0), (2**53 + 1, 0), (0, 1)],
    "2**64+1": lambda: [(0, 0), (2**64 + 1, 0), (0, -(2**64 + 1))],
    "10**400": lambda: [(0, 0), (10**400, 0), (0, 1)],
    "fraction": lambda: [(Fraction(1, 3), 0), (1, Fraction(2, 7)), (0, 1)],
    "decimal": lambda: [(Decimal("0.1"), 0), (1, Decimal("1e-400")), (0, 1)],
    "decimal-overflow": lambda: [(0, 0), (Decimal("1e400"), 0), (0, 1)],
    "numpy-scalars": lambda: [(np.float32(0.1), np.int8(0)), (np.float64(1), np.uint64(0)),
                              (np.int64(0), np.float16(1))],
    "strings": lambda: [("1.5", "0"), ("1_5", "0"), (" 2 ", "3")],
    "bad-string": lambda: [("0", "0"), ("x", "0"), ("0", "1")],
    "infinite-string": lambda: [("0", "0"), ("inf", "0"), ("0", "1")],
    "nan": lambda: [(0, 0), (math.nan, 0), (0, 1)],
    "complex": lambda: [(0, 0), (1 + 0j, 0), (0, 1)],
    "signed-zeros": lambda: [(-0.0, 0), (3, -0.0), (0, 2)],
    "clockwise": lambda: [(0, 0), (0, 2), (3, 0)],
    "repeat": lambda: [(0, 0), (0.0, -0.0), (1, 1)],
    "crossing": lambda: [(0, 0), (2, 2), (2, 0), (0, 2)],
    "3-tuples": lambda: [(0, 0, 9), (3, 0, 9), (0, 2, 9)],
    "ragged-long": lambda: [(0, 0), (3, 0, 9), (0, 2)],
    "ragged-short": lambda: [(0, 0), (3,), (0, 2)],
    "nested-rows": lambda: [((0, 0), (1, 1)), ((3, 0), (1, 1)), ((0, 2), (1, 1))],
    "none": lambda: [(0, 0), None, (0, 2)],
    "strings-as-points": lambda: ["00", "30", "02"],
    "generator": lambda: (p for p in [(0, 0), (3, 0), (0, 2)]),
    "empty-list": lambda: [],
    "empty-tuple": lambda: (),
    "one-pair": lambda: [(0, 1)],
    "tuple-of-lists": lambda: ([0, 0], [3, 0], [0, 2]),
    "list-of-arrays": lambda: [np.array([0, 0]), np.array([3.5, 0]), np.array([0, 2])],
    "points": lambda: [Point2(0, 0), Point2(3, 0), Point2(0, 2.5)],
    "point-first": lambda: [Point2(0, 0), (3, 0), (0, 2)],
    "point-later": lambda: [(0, 0), Point2(3, 0), (0, 2)],
}


class TestPairsReadAsOneArray:
    """A list or tuple of pairs is read as one float64 array and its points
    are built on first read; every outcome (point values and types, array
    bytes, error type and message) is that of the point-by-point read."""

    @pytest.mark.parametrize("kind, kwargs", [(Polygon, {}), (Polyline, {}), (Polyline, {"closed": True})],
                             ids=["polygon", "polyline", "closed-polyline"])
    @pytest.mark.parametrize("items", ODD_INPUTS.values(), ids=ODD_INPUTS.keys())
    def test_outcome_is_that_of_the_point_by_point_read(self, kind, kwargs, items):
        def by_point():
            return kind(_per_point_read(items())[0], **kwargs)

        assert _shape_outcome(lambda: kind(items(), **kwargs)) == _shape_outcome(by_point)

    def test_pairs_build_their_points_on_first_read(self, monkeypatch):
        calls = []
        coords = geometry._coords
        monkeypatch.setattr(geometry, "_coords", lambda pts: calls.append(len(pts)) or coords(pts))
        poly, line = Polygon([(0, 0), (3, 0), (0, 2)]), Polyline(((0, 0), (1, 1)))
        assert _unbuilt(poly) and _unbuilt(line) and calls == []
        assert poly.vertices == (Point2(0.0, 0.0), Point2(3.0, 0.0), Point2(0.0, 2.0))
        assert all(type(c) is float for p in poly.vertices for c in (p.x, p.y))
        # Point2s are read one by one, and the array is built from them
        Polygon([Point2(0, 0), Point2(3, 0), Point2(0, 2)])
        assert calls == [3]


def _unstaged_properly_cross(edges, i, j):
    """The narrow phase before it was staged: all four orientations for
    every pair."""
    pix, piy, qix, qiy, eix, eiy = (row[i] for row in edges)
    pjx, pjy, qjx, qjy, ejx, ejy = (row[j] for row in edges)
    with np.errstate(over="ignore", invalid="ignore"):
        d1 = ejx * (piy - pjy) - ejy * (pix - pjx)
        d2 = ejx * (qiy - pjy) - ejy * (qix - pjx)
        d3 = eix * (pjy - piy) - eiy * (pjx - pix)
        d4 = eix * (qjy - piy) - eiy * (qjx - pix)
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)
    return bool(proper.any())


def _edge_rows(xy):
    """The rows px, py, qx, qy, ex, ey of the edges of the ring ``xy``."""
    q = np.roll(xy, -1, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate((xy.T, q.T, (q - xy).T))


class TestStagedNarrowPhase:
    """The staged narrow phase decides every batch as the unstaged one, on
    zero orientations and on products that overflow (run under
    -W error::RuntimeWarning, a lost errstate fails here)."""

    @pytest.mark.parametrize("kind", ["uniform", "grid", "1e200", "1e300"])
    def test_decides_like_the_unstaged_test(self, kind):
        rng = np.random.default_rng(20261020)
        decided = [0, 0]
        for _ in range(300):
            n = int(rng.integers(3, 60))
            if kind == "grid":
                xy = rng.integers(0, 5, (n, 2)).astype(np.float64)
            else:
                xy = rng.uniform(-1.0, 1.0, (n, 2)) * {"uniform": 1.0, "1e200": 1e200, "1e300": 1e300}[kind]
            edges = _edge_rows(xy)
            for size in (1, 2, int(rng.integers(3, 40))):
                i, j = rng.integers(0, n, (2, size))
                want = _unstaged_properly_cross(edges, i, j)
                assert geometry._properly_cross(edges, i, j) == want, (xy.tolist(), i.tolist(), j.tolist())
                decided[want] += 1
        assert min(decided) > 50  # crossing and not crossing are both well represented

    def test_full_batches(self):
        rng = np.random.default_rng(20261021)
        for scale in (1.0, 1e200, 1e300):
            xy = _star_points(rng, 512) * scale
            edges = _edge_rows(xy)
            i, j = rng.integers(0, 512, (2, 4096))
            assert geometry._properly_cross(edges, i, j) == _unstaged_properly_cross(edges, i, j)
            for k in range(0, 4096, 64):  # small batches, mostly without a crossing
                assert geometry._properly_cross(edges, i[k:k + 64], j[k:k + 64]) == _unstaged_properly_cross(
                    edges, i[k:k + 64], j[k:k + 64])


@pytest.mark.parametrize("shape", [(1,), (5,), (1, 2), (7, 2), (4, 3, 2)])
def test_ring_successors_are_the_rows_rolled_back_one(shape):
    a = np.arange(math.prod(shape), dtype=np.float64).reshape(shape)
    got = geometry._ring_next(a)
    assert got.shape == a.shape and got.tobytes() == np.roll(a, -1, axis=0).tobytes()
