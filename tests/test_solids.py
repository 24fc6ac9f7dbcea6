"""Closed-form solids, hat-box equality, oblique cuts, Pappus-Guldin."""

import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import indivisibles as iv
from indivisibles import (
    AxisCrossing,
    CircleArc,
    Cone,
    Cylinder,
    DegenerateRegion,
    Disk,
    DoubleHoof,
    HalfDisk,
    HeightFieldCylinder,
    Hoof,
    Line2,
    Point2,
    Point3,
    Polygon,
    Polyline,
    Profile,
    SlabOutOfRange,
    SlabRegion,
    SolidOfRevolution,
    Sphere,
    TangentPolyhedron,
    TwistedColumn,
    UnsupportedSolid,
    WidthFunction,
)

from conftest import scalar_side_moments, star_polygon

TWO_PI = 2 * math.pi


class TestVolumes:
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 10.0])
    def test_sphere_chain(self, r):
        sphere = Sphere(r)
        cylinder = Cylinder(Disk(Point2(0, 0), r), 2 * r)
        assert iv.volume(sphere) == pytest.approx(iv.surface_area(sphere) * r / 3, rel=1e-12)
        assert iv.surface_area(sphere) == pytest.approx(iv.lateral_area(cylinder), rel=1e-12)
        assert iv.surface_area(sphere) == pytest.approx(2 * iv.surface_area(cylinder) / 3, rel=1e-12)
        assert iv.volume(sphere) == pytest.approx(2 * iv.volume(cylinder) / 3, rel=1e-12)

    def test_sphere_value(self):
        assert iv.volume(Sphere(1.0)) == pytest.approx(4 * math.pi / 3, rel=1e-12)

    def test_cube_as_six_pyramids(self):
        face = Polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        pyramid = Cone(face, Point3(0, 0, 1))
        assert iv.volume(pyramid) == pytest.approx(4 / 3, rel=1e-12)
        assert 6 * iv.volume(pyramid) == pytest.approx(8.0, rel=1e-12)

    def test_cone_volume_only_depends_on_base_area(self):
        disk_cone = Cone(Disk(Point2(0, 0), 1.0), Point3(5, -2, 3))
        assert iv.volume(disk_cone) == pytest.approx(math.pi, rel=1e-12)

    def test_hoof_value(self):
        assert iv.volume(Hoof(1.0, 1.0)) == pytest.approx(2 / 3, rel=1e-12)

    def test_radius_squared_with_one_rounding(self):
        # 2.759 ** 2 goes through libm pow, which can round the square to the
        # float below 2.759 * 2.759
        r, h = 2.759, 1.5
        assert iv.surface_area(Sphere(r)) == 4.0 * math.pi * (r * r)
        assert iv.volume(Sphere(r)) == 4.0 * math.pi * (r * r) * r / 3.0
        assert iv.volume(Hoof(r, h)) == (2.0 / 3.0) * (r * r) * h
        wall, base, face = 2.0 * r * h, 0.5 * math.pi * (r * r), 0.5 * math.pi * r * math.hypot(r, h)
        assert iv.surface_area(Hoof(r, h)) == wall + base + face

    def test_hoof_vs_riemann_oracle(self):
        from indivisibles import SectionFunction, riemann_volume

        sections = SectionFunction(
            lambda y: 2.0 * y * np.sqrt(np.maximum(1.0 - y * y, 0.0)),
            domain=(0.0, 1.0),
            breakpoints=(1 / math.sqrt(2),),
            monotonicity=("increasing", "decreasing"),
        )
        assert abs(riemann_volume(sections, 10**6) - iv.volume(Hoof(1, 1))) <= 1e-9

    def test_hoof_vs_mc_oracle(self):
        est = iv.mc_volume(
            lambda x, y, z: (x * x + y * y <= 1.0) & (y >= 0.0) & (z <= y),
            ((-1, 1), (0, 1), (0, 1)),
            10**6,
            seed=42,
        )
        assert abs(est.mean - 2 / 3) <= 5 * est.stderr

    def test_tangent_cube_about_unit_sphere(self):
        cube = TangentPolyhedron([4.0] * 6, 1.0)
        assert iv.volume(cube) == pytest.approx(8.0, rel=1e-12)
        assert iv.surface_area(cube) == 24.0

    def test_tangent_faces_sum_left_to_right(self):
        # 1e16 + 1 rounds back to 1e16 three times; the built-in sum() of
        # Python 3.12 and later compensates and gives 1e16 + 4
        solid = TangentPolyhedron((1e16, 1.0, 1.0, 1.0), 3.0)
        assert iv.surface_area(solid) == 1e16
        assert iv.volume(solid) == 1e16

    def test_tangent_law_cylinder_limit(self):
        # circumscribed cylinder = tangent "polyhedron with infinitely many
        # faces": volume equals one third of its total surface times r
        for r in (0.5, 1.0, 3.0):
            cyl = Cylinder(Disk(Point2(0, 0), r), 2 * r)
            assert iv.volume(cyl) == pytest.approx(iv.surface_area(cyl) * r / 3, rel=1e-12)

    def test_height_field_cylinder(self):
        base = Polygon([(1, 0), (2, 0), (2, 1), (1, 1)])
        hf = HeightFieldCylinder(base, rho_coeff=TWO_PI, offset=0.0)
        assert iv.volume(hf) == pytest.approx(3 * math.pi, rel=1e-12)
        assert iv.lateral_area(hf) == pytest.approx(TWO_PI * 1.5 * 4.0, rel=1e-12)

    def test_height_field_must_stay_nonnegative(self):
        from indivisibles import DegenerateSolid

        base = Polygon([(1, 0), (2, 0), (2, 1), (1, 1)])
        dipping = HeightFieldCylinder(base, rho_coeff=1.0, offset=-1.5)
        with pytest.raises(DegenerateSolid):
            iv.volume(dipping)
        with pytest.raises(DegenerateSolid):
            iv.lateral_area(dipping)

    @pytest.mark.parametrize("s", [1.0, 1e-8, 1e-10, 1e-200, 1e10, 1e200])
    def test_height_field_dip_is_relative_to_its_scale(self, s):
        # h = x is below the base plane over a third of the base, at every
        # scale; at 1e-200 the base's area underflows to 0, which raises first
        from indivisibles import DegenerateSolid

        dipping = HeightFieldCylinder(Polygon([(-s, 0), (2 * s, 0), (2 * s, s), (-s, s)]), rho_coeff=1.0)
        with pytest.raises(DegenerateSolid):
            iv.volume(dipping)
        with pytest.raises(DegenerateSolid, match="below the base plane"):
            iv.lateral_area(dipping)

    def test_height_field_dip_is_found_when_its_scale_overflows(self):
        # |a| * max |x| overflows to inf, yet h = a*x is below the base plane
        # over a third of the base
        from indivisibles import DegenerateSolid

        dipping = HeightFieldCylinder(Polygon([(-1, 0), (2, 0), (2, 1), (-1, 1)]), rho_coeff=1e308)
        for measure in (iv.volume, iv.lateral_area):
            with pytest.raises(DegenerateSolid, match="below the base plane"):
                measure(dipping)

    def test_height_field_dip_is_decided_alike_at_every_scale(self):
        # a, the base and b scaled by 2^i, 2^j and 2^(i + j) scale h = a*x + b
        # by 2^(i + j): the decision stays that of the unscaled case, and is
        # the unscaled test's wherever all its terms are finite and normal
        from indivisibles import DegenerateSolid

        def normal(*values):
            return all(math.isfinite(v) and (v == 0.0 or abs(v) >= sys.float_info.min) for v in values)

        def mul(u, v):  # u * v, or nan where it underflows to 0
            p = u * v
            return p if p != 0.0 or u == 0.0 or v == 0.0 else math.nan

        def scaled(v, k):  # v * 2^k, or None where that is not a normal float
            try:
                s = math.ldexp(v, k)
            except OverflowError:
                return None
            return s if v == 0.0 or abs(s) >= sys.float_info.min else None

        def dips(a, b, x0, x1):
            base = Polygon([(x0, 0), (x1, 0), (x1, x1 - x0), (x0, x1 - x0)])
            try:
                HeightFieldCylinder(base, a, b)._check_nonnegative()
            except DegenerateSolid:
                return True
            return False

        rng = np.random.default_rng(20261020)
        grid = range(-1000, 1001, 200)
        seen = set()
        for _ in range(30):
            x0, x1 = sorted(rng.uniform(-2.0, 2.0, 2))
            a = float(rng.uniform(-2.0, 2.0))
            x_max = max(abs(x0), abs(x1))
            # h's least value near -1e-9 of the scale, on either side, or b = 0
            c = float(rng.choice((0.0, -1e-9 * rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0))))
            b = 0.0 if c == 0.0 else -a * (x0 if a >= 0.0 else x1) + c * abs(a) * x_max
            want = dips(a, b, x0, x1)
            seen.add(want)
            for i in grid:
                for j in grid:
                    sa, sb, sx0, sx1 = scaled(a, i), scaled(b, i + j), scaled(x0, j), scaled(x1, j)
                    if None in (sa, sb, sx0, sx1):
                        continue
                    got = dips(sa, sb, sx0, sx1)
                    assert got == want, (a, b, x0, x1, i, j)
                    extreme, sx_max = (sx0 if sa >= 0.0 else sx1), max(abs(sx0), abs(sx1))
                    h_min, scale = mul(sa, extreme) + sb, mul(abs(sa), sx_max) + abs(sb)
                    if normal(mul(sa, extreme), h_min, mul(abs(sa), sx_max), scale, mul(1e-9, scale)):
                        assert got == (h_min < -1e-9 * scale), (a, b, x0, x1, i, j)
        assert seen == {False, True}

    def test_degenerate_cone(self):
        from indivisibles import DegenerateSolid

        # rejected at construction, as a cylinder of height 0 is
        for z in (0, -0.0):
            with pytest.raises(DegenerateSolid, match="^cone apex lies in the base plane$"):
                Cone(Disk(Point2(0, 0), 1.0), Point3(1, 1, z))

    def test_twisted_column_has_no_lateral_rule(self):
        col = iv.twist_column(Cylinder(Disk(Point2(0, 0), 1.0), 1.0), 1.0)
        with pytest.raises(UnsupportedSolid):
            iv.lateral_area(col)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Sphere(math.nan),
            lambda: Sphere(math.inf),
            lambda: Cylinder(Disk(Point2(0, 0), 1.0), math.nan),
            lambda: Hoof(math.nan, 1.0),
            lambda: DoubleHoof(1.0, math.inf),
            lambda: HeightFieldCylinder(Polygon([(1, 0), (2, 0), (2, 1)]), math.nan),
            lambda: TangentPolyhedron([1, 1, 1, math.nan], 1.0),
            lambda: TwistedColumn(Disk(Point2(0, 0), 1.0), 1.0, math.nan),
        ],
        ids=[
            "sphere-nan", "sphere-inf", "cylinder-nan-height", "hoof-nan-radius", "double-hoof-inf-apex",
            "height-field-nan-coefficient", "tangent-polyhedron-nan-face", "twisted-column-nan-rate",
        ],
    )
    def test_non_finite_dimensions_rejected(self, build):
        # these used to construct and give a nan or inf volume
        with pytest.raises(ValueError, match="finite"):
            build()

    @pytest.mark.parametrize(
        "measure, solid, message",
        [
            (iv.volume, Sphere(1e120), "the volume of the sphere is not finite"),
            (iv.volume, Hoof(1e-170, 1.0), "the volume of the hoof underflows to 0"),
            (iv.surface_area, Sphere(1e200), "the surface area of the sphere is not finite"),  # r**2 overflows
            (iv.lateral_area, Hoof(1e200, 1e200), "the lateral area of the hoof is not finite"),
            (
                iv.volume,
                SolidOfRevolution(Profile(Disk(Point2(1e300, 0), 1e10))),
                "the volume of the solid of revolution is not finite",
            ),
        ],
        ids=["sphere", "hoof", "sphere-surface", "hoof-lateral", "revolution"],
    )
    def test_measure_out_of_range_raises(self, measure, solid, message):
        with pytest.raises(iv.GeometryError, match=f"^{message} at these dimensions$"):
            measure(solid)


class TestSurfaceAreas:
    def test_sphere_equals_cylinder_lateral(self):
        assert iv.surface_area(Sphere(1.0)) == pytest.approx(4 * math.pi, rel=1e-12)
        assert iv.surface_area(Sphere(1.0)) == pytest.approx(
            iv.lateral_area(Cylinder(Disk(Point2(0, 0), 1.0), 2.0)), rel=1e-12
        )

    def test_sphere_vs_quadrature_oracle(self):
        # revolve the meridian semicircle numerically
        arc = CircleArc(Point2(0, 0), 1.0, start_angle=-math.pi / 2, span=math.pi)
        quad = iv.boundary_integral(arc, lambda x, y: TWO_PI * x, 8192)
        assert iv.surface_area(Sphere(1.0)) == pytest.approx(quad, abs=1e-6)

    def test_hoof_lateral(self):
        assert iv.lateral_area(Hoof(1.0, 1.0)) == pytest.approx(2.0, rel=1e-12)
        assert iv.lateral_area(Hoof(1.0, 2.0)) == pytest.approx(4.0, rel=1e-12)

    def test_hoof_lateral_vs_line_integral_oracle(self):
        # wall height h*sin(theta) integrated over the half circle, r dtheta
        thetas = np.linspace(0.0, math.pi, 200001)
        for h in (1.0, 2.0):
            oracle = np.trapezoid(h * np.sin(thetas), thetas)
            assert iv.lateral_area(Hoof(1.0, h)) == pytest.approx(float(oracle), abs=1e-8)

    @given(st.floats(min_value=0.05, max_value=50.0), st.floats(min_value=0.05, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_hoof_proportional_to_height(self, h1, h2):
        r = 1.3
        v1, v2 = iv.volume(Hoof(r, h1)), iv.volume(Hoof(r, h2))
        a1, a2 = iv.lateral_area(Hoof(r, h1)), iv.lateral_area(Hoof(r, h2))
        assert v1 / h1 == pytest.approx(v2 / h2, rel=1e-12)
        assert a1 / h1 == pytest.approx(a2 / h2, rel=1e-12)

    def test_hoof_total_surface(self):
        r, h = 1.0, 1.0
        expected = 2 * r * h + math.pi * r * r / 2 + math.pi * r * math.hypot(r, h) / 2
        assert iv.surface_area(Hoof(r, h)) == pytest.approx(expected, rel=1e-12)


class TestHatBox:
    def test_examples(self):
        assert iv.sphere_zone_vs_band(1.0, 0.0, 0.5) == (math.pi, math.pi)
        zone, band = iv.sphere_zone_vs_band(1.0, -1.0, 1.0)
        assert zone == band == pytest.approx(4 * math.pi, rel=1e-15)
        zone, band = iv.sphere_zone_vs_band(2.0, 1.0, 1.5)
        assert zone == band == pytest.approx(2 * math.pi * 2 * 0.5, rel=1e-15)

    def test_random_slabs_exact_equality(self, rng):
        for _ in range(1000):
            r = rng.uniform(0.1, 10.0)
            z1, z2 = np.sort(rng.uniform(-r, r, 2))
            if z1 == z2:
                continue
            zone, band = iv.sphere_zone_vs_band(r, z1, z2)
            assert zone == band  # identical as exact expressions

    def test_zone_vs_independent_revolution_path(self, rng):
        # same area through the Guldin machinery on the meridian arc
        for _ in range(50):
            r = rng.uniform(0.5, 3.0)
            z1, z2 = np.sort(rng.uniform(-r * 0.99, r * 0.99, 2))
            if z2 - z1 < 1e-6:
                continue
            t1, t2 = math.asin(z1 / r), math.asin(z2 / r)
            arc = CircleArc(Point2(0, 0), r, start_angle=t1, span=t2 - t1)
            zone, _ = iv.sphere_zone_vs_band(r, z1, z2)
            assert zone == pytest.approx(iv.guldin_surface(arc, iv.rho_axis()), rel=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(SlabOutOfRange):
            iv.sphere_zone_vs_band(1.0, -2.0, 0.5)
        with pytest.raises(SlabOutOfRange):
            iv.sphere_zone_vs_band(1.0, 0.5, 0.5)

    @pytest.mark.parametrize("r", [math.inf, math.nan, 0.0, -1.0])
    def test_radius_checked_by_the_sphere_rule(self, r):
        with pytest.raises(ValueError) as want:
            Sphere(r)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            iv.sphere_zone_vs_band(r, -0.5, 0.5)


class TestObliqueCutVolumes:
    def test_unit_disk_through_center(self):
        above, below = iv.oblique_cut_volumes(Disk(Point2(0, 0), 1.0), Line2.vertical(0.0), 1.0)
        assert above == pytest.approx(2 / 3, rel=1e-12)
        assert below == pytest.approx(2 / 3, rel=1e-12)

    def test_unit_halfdisk_through_centroid(self):
        half = HalfDisk(Point2(0, 0), 1.0)
        line = Line2.vertical(4.0 / (3.0 * math.pi))
        above, below = iv.oblique_cut_volumes(half, line, 1.0)
        assert above == pytest.approx(below, rel=1e-14)

    def test_square_cut_through_centroid(self):
        sq = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        above, below = iv.oblique_cut_volumes(sq, Line2.vertical(1.0), 2.0)
        assert above == pytest.approx(2.0, rel=1e-12)
        assert below == pytest.approx(2.0, rel=1e-12)

    def test_square_cut_off_centroid(self):
        sq = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        # direction (0,-1) puts the positive side at x > 0.5
        line = Line2(Point2(0.5, 0), (0, -1))
        above, below = iv.oblique_cut_volumes(sq, line, 1.0)
        assert above == pytest.approx(2.25, rel=1e-12)
        assert below == pytest.approx(0.25, rel=1e-12)
        assert above - below == pytest.approx(iv.first_moment(sq, line), rel=1e-12)

    def test_disk_off_center_vs_grid_quadrature(self):
        disk = Disk(Point2(0.5, 0.2), 1.3)
        line = Line2(Point2(0.3, 0), (0, -1))  # positive side x > 0.3
        above, below = iv.oblique_cut_volumes(disk, line, 1.7)
        n = 4000
        xs = np.linspace(-0.8, 1.8, n)
        ys = np.linspace(-1.1, 1.5, n)
        gx, gy = np.meshgrid(xs, ys)
        inside = (gx - 0.5) ** 2 + (gy - 0.2) ** 2 <= 1.3**2
        f = gx - 0.3
        cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
        above_q = 1.7 * float(np.sum(np.where(inside & (f > 0), f, 0.0)) * cell)
        below_q = 1.7 * float(np.sum(np.where(inside & (f < 0), -f, 0.0)) * cell)
        assert above == pytest.approx(above_q, abs=5e-3)
        assert below == pytest.approx(below_q, abs=5e-3)

    def test_random_polygons_centroid_cut_equal(self, rng):
        for _ in range(200):
            poly = star_polygon(rng)
            c = iv.centroid_region(poly)
            theta = rng.uniform(0, TWO_PI)
            line = Line2(c, (math.cos(theta), math.sin(theta)))
            above, below = iv.oblique_cut_volumes(poly, line, 1.0)
            assert above == pytest.approx(below, rel=1e-10)

    def test_offset_line_difference_identity(self, rng):
        for _ in range(100):
            poly = star_polygon(rng)
            c = iv.centroid_region(poly)
            theta = rng.uniform(0, TWO_PI)
            d = (math.cos(theta), math.sin(theta))
            delta = rng.uniform(0.01, 0.5)
            nx, ny = -d[1], d[0]
            line = Line2(Point2(c.x + delta * nx, c.y + delta * ny), d)
            slope = rng.uniform(0.1, 3.0)
            above, below = iv.oblique_cut_volumes(poly, line, slope)
            a = iv.area(poly)
            assert above - below == pytest.approx(-slope * a * delta, rel=1e-10, abs=1e-12)
            assert above - below == pytest.approx(slope * iv.first_moment(poly, line), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("slope", [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_slope_outside_zero_to_inf_rejected(self, slope):
        sq = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        with pytest.raises(ValueError, match="^cut slope must be positive"):
            iv.oblique_cut_volumes(sq, Line2.vertical(1.0), slope)
        with pytest.raises(ValueError, match="^cut slope must be positive"):
            iv.oblique_cut_lateral_areas(sq.boundary(), Line2.vertical(1.0), slope)

    def test_degenerate_region(self):
        flat = Polygon([(0, 0), (1, 0), (2, 0)])
        with pytest.raises(DegenerateRegion):
            iv.oblique_cut_volumes(flat, Line2.vertical(0.0), 1.0)


class TestObliqueCutParity:
    """The array forms of the polygon and half-disk boundary rule and of the
    slab and polyline cuts are the scalar loop, bit for bit."""

    @pytest.mark.parametrize("kind", ["half-disk", "slab-region", "polyline", "polygon"])
    def test_200_seeded_lines_match_the_scalar_loop(self, kind):
        rng = np.random.default_rng({"half-disk": 11, "slab-region": 12, "polyline": 13, "polygon": 14}[kind])
        # a width that is zero near both ends exercises the empty slabs
        tent = WidthFunction(
            lambda y: np.maximum(1.0 - 1.5 * np.abs(y), 0.0),
            domain=(-1.0, 1.0),
            breakpoints=(0.0,),
            monotonicity=("increasing", "decreasing"),
        )
        for k in range(200):
            if kind == "half-disk":
                angle = rng.uniform(0, 2 * math.pi)
                shape = HalfDisk(Point2(*rng.uniform(-1, 1, 2)), rng.uniform(0.2, 2), (math.cos(angle), math.sin(angle)))
            elif kind == "slab-region":
                shape = SlabRegion(tent, quadrature_slabs=int(rng.integers(1, 700)))
            elif kind == "polygon":
                shape = star_polygon(rng, n_max=40)
            else:
                pts = [tuple(p) for p in rng.uniform(-2, 2, (int(rng.integers(2, 12)), 2))]
                pts.insert(1, pts[0])  # a zero-length edge is skipped
                shape = Polyline(pts, closed=bool(k % 2))
            theta = rng.uniform(0, 2 * math.pi)
            through = shape.vertices[k % len(shape.vertices)] if kind == "polygon" and k % 5 == 0 else None
            line = Line2(through or Point2(*rng.uniform(-1.5, 1.5, 2)), (math.cos(theta), math.sin(theta)))
            if kind == "polyline":
                got = iv.oblique_cut_lateral_areas(shape, line, 1.0)
            else:
                got = iv.oblique_cut_volumes(shape, line, 1.0)
            assert got == scalar_side_moments(shape, line), (kind, k)


def _exact_polygon_side_moments(xy, line):
    """Both side moments of the ring ``xy`` about ``line`` in exact rationals:
    the ring clipped to each side (Sutherland-Hodgman), then the first moment
    of each clipped ring from its shoelace sums."""
    nx, ny = (Fraction(v) for v in line.normal())
    px, py = Fraction(line.point.x), Fraction(line.point.y)
    pts = [(Fraction(x), Fraction(y)) for x, y in xy.tolist()]
    moments = []
    for sign in (1, -1):
        d = [sign * (nx * (x - px) + ny * (y - py)) for x, y in pts]
        ring = []
        for k, (p, dp) in enumerate(zip(pts, d)):
            q, dq = pts[k - len(pts) + 1], d[k - len(pts) + 1]
            if dp >= 0:
                ring.append(p)
            if (dp > 0) != (dq > 0) and dp != dq:
                t = dp / (dp - dq)
                ring.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        a = sx = sy = Fraction(0)
        for k, (x0, y0) in enumerate(ring):
            x1, y1 = ring[k - len(ring) + 1]
            cross = x0 * y1 - x1 * y0
            a, sx, sy = a + cross / 2, sx + (x0 + x1) * cross / 6, sy + (y0 + y1) * cross / 6
        moments.append(sign * (nx * (sx - px * a) + ny * (sy - py * a)))
    return moments


def _halfdisk_slab_sum(half, line, slabs=1 << 20):
    """Side moments of ``half`` by a midpoint sum over ``slabs`` slabs parallel
    to its flat edge, each chord's integral exact: for s linear from sa to sb
    along a chord of length 2L, the integral of |s| is L |sa + sb| when the
    ends share a sign and L (sa^2 + sb^2) / |sb - sa| otherwise, and each
    side takes half of that integral plus or minus the integral of s."""
    (bx, by), r = half.bulge, half.radius
    h = r / slabs
    t = (np.arange(slabs) + 0.5) * h
    chord = np.sqrt(r * r - t * t)
    mid = line.signed_distances(half.center.x + bx * t, half.center.y + by * t)
    slope = line.signed_distances(-by, bx) - line.signed_distances(0.0, 0.0)  # ds along (-by, bx)
    sa, sb = mid - slope * chord, mid + slope * chord
    same = (sa >= 0) == (sb >= 0)
    with np.errstate(divide="ignore", invalid="ignore"):  # taken only where the signs differ
        absolute = chord * np.where(same, np.abs(sa + sb), (sa * sa + sb * sb) / np.abs(sb - sa))
    signed = 2.0 * chord * mid
    return float(np.sum(absolute + signed) / 2.0 * h), float(np.sum(absolute - signed) / 2.0 * h)


def _disk_segment_formula(disk, line):
    """Side moments of a disk by the circular-segment formula."""
    r = disk.radius
    s = line.signed_distance(disk.center)
    if s >= r:
        return math.pi * r * r * s, 0.0
    if s <= -r:
        return 0.0, math.pi * r * r * (-s)
    d = -s
    seg_area = r * r * math.acos(d / r) - d * math.sqrt(r * r - d * d)
    pos = (2.0 / 3.0) * (r * r - d * d) ** 1.5 - d * seg_area
    return pos, pos - math.pi * r * r * s


def _close(got, want, rel):
    return all(abs(g - w) <= rel * abs(w) for g, w in zip(got, want))


class TestSideMomentOracles:
    """The boundary rule for region side moments against references that
    share none of its code."""

    def test_polygon_against_the_exact_clip(self):
        # stars moved far from the origin, cut through the centroid or next to
        # a vertex; both pieces are large, so each is held to 1e-12 relative
        rng = np.random.default_rng(20261025)
        for trial in range(40):
            n = int(rng.integers(3, 65))
            star = star_polygon(rng, n, n, r_min=0.3, r_max=1.0)
            c = iv.centroid_region(star)
            for offset in (0.0, 1e3, 1e6):
                poly = Polygon(star.xy() + offset)
                theta = rng.uniform(0, TWO_PI)
                through = Line2(Point2(c.x + offset, c.y + offset), (math.cos(theta), math.sin(theta)))
                v = star.xy()[int(rng.integers(0, n))]
                gap = 1e-6 * math.hypot(c.x - v[0], c.y - v[1])  # beside the vertex, towards the centroid
                beside = Line2(Point2(v[0] + offset - gap * (c.y - v[1]), v[1] + offset + gap * (c.x - v[0])),
                               (c.x - v[0], c.y - v[1]))
                for line in (through, beside):
                    want = _exact_polygon_side_moments(poly.xy(), line)
                    assert _close(poly.side_moments(line), want, 1e-12), (trial, offset, line)

    def test_halfdisk_against_a_fine_slab_sum(self):
        rng = np.random.default_rng(20261026)
        for _ in range(6):
            angle = rng.uniform(0, TWO_PI)
            half = HalfDisk(Point2(*rng.uniform(-1, 1, 2)), rng.uniform(0.5, 2), (math.cos(angle), math.sin(angle)))
            c = iv.centroid_region(half)
            theta = rng.uniform(0, TWO_PI)
            line = Line2(Point2(*(np.array([c.x, c.y]) + rng.uniform(-0.2, 0.2, 2) * half.radius)),
                         (math.cos(theta), math.sin(theta)))
            assert _close(half.side_moments(line), _halfdisk_slab_sum(half, line), 2e-9)

    def test_halfdisk_against_monte_carlo(self):
        rng = np.random.default_rng(20261027)
        half = HalfDisk(Point2(0.3, -0.2), 1.4, (0.6, -0.8))
        (x0, x1), (y0, y1) = half.box()
        box = (x1 - x0) * (y1 - y0)
        xs, ys = rng.uniform(x0, x1, 1 << 20), rng.uniform(y0, y1, 1 << 20)
        inside = half.contains(xs, ys)
        for line in (Line2(iv.centroid_region(half), (0.8, 0.6)), Line2(Point2(0.9, 0.1), (-0.3, 1.0))):
            s = line.signed_distances(xs, ys)
            for got, part in zip(half.side_moments(line), (np.maximum(s, 0.0), np.maximum(-s, 0.0))):
                values = np.where(inside, part, 0.0) * box
                assert abs(got - values.mean()) <= 5.0 * values.std() / math.sqrt(len(values))

    def test_halfdisk_centroid_cuts_give_equal_pieces(self):
        rng = np.random.default_rng(20261028)
        for _ in range(300):
            scale = 10.0 ** rng.uniform(-3, 3)
            angle, theta = rng.uniform(0, TWO_PI, 2)
            half = HalfDisk(Point2(*(rng.uniform(-1, 1, 2) * scale)), rng.uniform(0.2, 2) * scale,
                            (math.cos(angle), math.sin(angle)))
            above, below = half.side_moments(Line2(iv.centroid_region(half), (math.cos(theta), math.sin(theta))))
            assert abs(above - below) <= 1e-13 * max(above, below)

    def test_disk_against_the_segment_formula(self):
        # crossing lines keep |s| <= 0.7 r: the smaller piece of a nearly
        # tangent cut loses relative accuracy in either formula
        rng = np.random.default_rng(20261029)
        for k in range(2000):
            disk = Disk(Point2(*rng.uniform(-2, 2, 2)), rng.uniform(0.2, 2.5))
            theta = rng.uniform(0, TWO_PI)
            direction = (math.cos(theta), math.sin(theta))
            offset = disk.radius * (rng.uniform(-0.7, 0.7) if k % 4 else rng.choice([-1, 1]) * rng.uniform(1.0, 3.0))
            foot = (disk.center.x - offset * -direction[1], disk.center.y - offset * direction[0])
            along = rng.uniform(-2, 2)
            line = Line2(Point2(foot[0] + along * direction[0], foot[1] + along * direction[1]), direction)
            assert _close(disk.side_moments(line), _disk_segment_formula(disk, line), 1e-13), k

    def test_scaling_by_powers_of_two_is_exact(self):
        star = star_polygon(np.random.default_rng(20261030), 40, 40)
        shapes = [
            (lambda f: Polygon(star.xy() * f), [(0.1, 0.2), (3.0, 0.5)]),
            (lambda f: Disk(Point2(0.4 * f, -0.3 * f), 1.3 * f), [(0.6, -0.1), (2.0, 0.0)]),
            (lambda f: HalfDisk(Point2(-0.2 * f, 0.5 * f), 0.9 * f, (0.6, 0.8)), [(0.0, 0.9), (-1.5, 0.0)]),
        ]
        for build, points in shapes:
            for x, y in points:  # a line through the shape and one beside it
                want = build(1.0).side_moments(Line2(Point2(x, y), (0.6, -0.8)))
                for k in range(-300, 301, 50):
                    f = math.ldexp(1.0, k)
                    got = build(f).side_moments(Line2(Point2(x * f, y * f), (0.6, -0.8)))
                    assert got == tuple(math.ldexp(m, 3 * k) for m in want), (k, x, y)


class TestObliqueCutLateralAreas:
    def test_circle_through_center(self):
        above, below = iv.oblique_cut_lateral_areas(CircleArc(Point2(0, 0), 1.0), Line2.vertical(0.0), 1.0)
        assert above == pytest.approx(2.0, rel=1e-12)
        assert below == pytest.approx(2.0, rel=1e-12)

    def test_square_boundary_through_center(self):
        # per-edge closed form: the x = +-1 walls give 2 each, the y = +-1
        # walls add 2 * (1/2 + 1/2), so each side totals 3
        sq = Polyline([(-1, -1), (1, -1), (1, 1), (-1, 1)], closed=True)
        above, below = iv.oblique_cut_lateral_areas(sq, Line2.vertical(0.0), 1.0)
        assert above == pytest.approx(3.0, rel=1e-12)
        assert below == pytest.approx(3.0, rel=1e-12)

    def test_difference_is_slope_times_curve_moment(self, rng):
        for _ in range(100):
            poly = star_polygon(rng)
            ring = iv.boundary(poly)
            theta = rng.uniform(0, TWO_PI)
            line = Line2(Point2(*rng.uniform(-1, 1, 2)), (math.cos(theta), math.sin(theta)))
            slope = rng.uniform(0.1, 3.0)
            above, below = iv.oblique_cut_lateral_areas(ring, line, slope)
            expected = slope * iv.first_moment_curve(ring, line)
            assert above - below == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_curve_centroid_cut_equal(self, rng):
        for _ in range(200):
            poly = star_polygon(rng)
            ring = iv.boundary(poly)
            c = iv.centroid_curve(ring)
            theta = rng.uniform(0, TWO_PI)
            line = Line2(c, (math.cos(theta), math.sin(theta)))
            above, below = iv.oblique_cut_lateral_areas(ring, line, 1.0)
            assert above == pytest.approx(below, rel=1e-10, abs=1e-12)

    def test_random_disk_cuts_vs_polar_quadrature(self, rng):
        for _ in range(20):
            cx, cy = rng.uniform(-2, 2, 2)
            r = rng.uniform(0.2, 2.5)
            px, py = rng.uniform(-2, 2, 2)
            th = rng.uniform(0, TWO_PI)
            line = Line2(Point2(px, py), (math.cos(th), math.sin(th)))
            slope = rng.uniform(0.2, 3.0)
            above, below = iv.oblique_cut_volumes(Disk(Point2(cx, cy), r), line, slope)
            nr, nt = 300, 900
            rs = (np.arange(nr) + 0.5) * r / nr
            ts = (np.arange(nt) + 0.5) * TWO_PI / nt
            rr, tt = np.meshgrid(rs, ts)
            xs = cx + rr * np.cos(tt)
            ys = cy + rr * np.sin(tt)
            nx, ny = line.normal()
            f = nx * (xs - px) + ny * (ys - py)
            cell = (r / nr) * (TWO_PI / nt) * rr
            above_q = slope * float(np.sum(np.where(f > 0, f, 0.0) * cell))
            below_q = slope * float(np.sum(np.where(f < 0, -f, 0.0) * cell))
            assert above == pytest.approx(above_q, abs=2e-3)
            assert below == pytest.approx(below_q, abs=2e-3)

    def test_random_arc_cuts_vs_quadrature(self, rng):
        for _ in range(20):
            cx, cy = rng.uniform(-2, 2, 2)
            r = rng.uniform(0.2, 2.5)
            start = rng.uniform(-8, 8)
            span = rng.uniform(0.1, TWO_PI)
            px, py = rng.uniform(-2, 2, 2)
            th = rng.uniform(0, TWO_PI)
            line = Line2(Point2(px, py), (math.cos(th), math.sin(th)))
            slope = rng.uniform(0.2, 3.0)
            arc = CircleArc(Point2(cx, cy), r, start_angle=start, span=span)
            above, below = iv.oblique_cut_lateral_areas(arc, line, slope)
            thetas = np.linspace(start, start + span, 100001)
            xs = cx + r * np.cos(thetas)
            ys = cy + r * np.sin(thetas)
            nx, ny = line.normal()
            f = nx * (xs - px) + ny * (ys - py)
            ds = r * (thetas[1] - thetas[0])
            above_q = slope * float(np.trapezoid(np.where(f > 0, f, 0.0)) * ds)
            below_q = slope * float(np.trapezoid(np.where(f < 0, -f, 0.0)) * ds)
            assert above == pytest.approx(above_q, abs=1e-5)
            assert below == pytest.approx(below_q, abs=1e-5)

    def test_arc_cut_vs_quadrature(self):
        arc = CircleArc(Point2(0.4, -0.1), 1.2, start_angle=0.7, span=4.0)
        line = Line2(Point2(0.2, 0.1), (0.8, 0.6))
        above, below = iv.oblique_cut_lateral_areas(arc, line, 1.0)
        thetas = np.linspace(0.7, 4.7, 2_000_001)
        xs = 0.4 + 1.2 * np.cos(thetas)
        ys = -0.1 + 1.2 * np.sin(thetas)
        nx, ny = line.normal()
        f = nx * (xs - 0.2) + ny * (ys - 0.1)
        ds = 1.2 * (thetas[1] - thetas[0])
        above_q = float(np.sum(np.where(f > 0, f, 0.0)) * ds)
        below_q = float(np.sum(np.where(f < 0, -f, 0.0)) * ds)
        assert above == pytest.approx(above_q, abs=1e-5)
        assert below == pytest.approx(below_q, abs=1e-5)

    @pytest.mark.parametrize(
        "points, measure",
        [
            ([(1e300, 0), (-1e300, 1e300), (0, -1e300)], "side moment"),  # finite length, moments overflow
            ([(1e308, 0), (-1e308, 0), (0, 1)], "length"),  # the first edge is longer than the largest float
        ],
        ids=["moments", "length"],
    )
    def test_moments_that_overflow_raise(self, points, measure):
        ring = Polyline(points, closed=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning escapes either
            with pytest.raises(iv.GeometryError, match=f"^the {measure} of the polyline is not finite at these dimensions$"):
                iv.oblique_cut_lateral_areas(ring, Line2(Point2(0, 0), (0.6, -0.8)), 1.0)


class TestGuldin:
    def test_sphere_from_halfdisk_profile(self):
        profile = Profile(HalfDisk(Point2(0, 0), 1.0, bulge=(1, 0)))
        assert iv.guldin_volume(profile) == pytest.approx(4 * math.pi / 3, abs=1e-9)

    def test_torus_volume(self):
        profile = Profile(Disk(Point2(3, 0), 1.0))
        assert iv.guldin_volume(profile) == pytest.approx(6 * math.pi**2, rel=1e-12)

    def test_torus_volume_vs_mc_oracle(self):
        est = iv.mc_volume(
            lambda x, y, z: (np.hypot(x, y) - 3.0) ** 2 + z * z <= 1.0,
            ((-4, 4), (-4, 4), (-1, 1)),
            10**6,
            seed=42,
        )
        truth = iv.guldin_volume(Profile(Disk(Point2(3, 0), 1.0)))
        assert abs(est.mean - truth) <= 5 * est.stderr
        assert abs(est.mean - truth) / truth <= 0.01

    def test_washer_volume(self):
        profile = Profile(Polygon([(1, 0), (2, 0), (2, 1), (1, 1)]))
        assert iv.guldin_volume(profile) == pytest.approx(3 * math.pi, rel=1e-12)

    def test_surface_semicircle_gives_sphere(self):
        arc = CircleArc(Point2(0, 0), 1.0, start_angle=-math.pi / 2, span=math.pi)
        assert iv.guldin_surface(arc, iv.rho_axis()) == pytest.approx(4 * math.pi, rel=1e-12)

    def test_surface_torus(self):
        circle = CircleArc(Point2(3, 0), 1.0)
        got = iv.guldin_surface(circle, iv.rho_axis())
        assert got == pytest.approx(12 * math.pi**2, rel=1e-12)
        quad = iv.boundary_integral(circle, lambda x, y: TWO_PI * x, 4096)
        assert got == pytest.approx(quad, abs=1e-6)

    def test_surface_square_ring(self):
        sq = Polyline([(1.5, -0.5), (2.5, -0.5), (2.5, 0.5), (1.5, 0.5)], closed=True)
        assert iv.guldin_surface(sq, iv.rho_axis()) == pytest.approx(16 * math.pi, rel=1e-12)

    def test_axis_crossing_rejected(self):
        circle = CircleArc(Point2(0.5, 0), 1.0)
        with pytest.raises(AxisCrossing):
            iv.guldin_surface(circle, iv.rho_axis())

    def test_guldin_volume_axis_crossing(self):
        with pytest.raises(AxisCrossing):
            Profile(Disk(Point2(0.5, 0), 1.0))

    def test_halfdisk_whose_arc_crosses_the_axis_rejected(self):
        # both ends of the flat edge lie at rho >= 0.42, but the arc reaches rho = 0.9 - 1
        with pytest.raises(AxisCrossing, match=f"^profile reaches rho = {0.9 - 1.0!r} past"):
            Profile(HalfDisk(Point2(0.9, 0.0), 1.0, (-0.6, 0.8)))

    def test_solid_of_revolution_dispatch(self):
        solid = iv.SolidOfRevolution(Profile(Disk(Point2(3, 0), 1.0)))
        assert iv.volume(solid) == pytest.approx(6 * math.pi**2, rel=1e-12)
        assert iv.surface_area(solid) == pytest.approx(12 * math.pi**2, rel=1e-12)
        assert iv.lateral_area(solid) == pytest.approx(12 * math.pi**2, rel=1e-12)

    def test_halfdisk_revolution_lateral_is_sphere(self):
        solid = iv.SolidOfRevolution(Profile(HalfDisk(Point2(0, 0), 1.0, bulge=(1, 0))))
        assert iv.lateral_area(solid) == pytest.approx(4 * math.pi, rel=1e-12)
        # the flat edge on the axis adds exactly 0 to the arc's surface, so these bits hold
        for r, want in [(1.0, "12.566370614359172"), (0.5, "3.141592653589793"), (3.0, "113.09733552923255"),
                        (1e-3, "1.2566370614359175e-05"), (1e3, "12566370.614359172")]:
            solid = SolidOfRevolution(Profile(HalfDisk(Point2(0, 0), r)))
            assert repr(iv.lateral_area(solid)) == repr(iv.surface_area(solid)) == want

    @pytest.mark.parametrize("c", [0.0, 0.5, 3.0])
    @pytest.mark.parametrize("r", [0.25, 1.0, 3.0, 1e3])
    def test_halfdisk_profile_surface_closed_form(self, c, r):
        # the arc, of centroid rho c + 2r/pi, sweeps 2 pi (pi r c + 2 r^2);
        # the flat edge, at rho = c, sweeps 4 pi c r
        got = iv.lateral_area(SolidOfRevolution(Profile(HalfDisk(Point2(c, 0.0), r))))
        assert got == pytest.approx(TWO_PI * r * (math.pi * c + 2 * r) + 4 * math.pi * c * r, rel=1e-14)

    @pytest.mark.parametrize("bulge", [(0.0, 1.0), (-1.0, 0.0), (0.6, 0.8), (-0.6, -0.8), (0.0, -1.0)])
    def test_rotated_halfdisk_profile_surface_closed_form(self, bulge):
        # at rho >= c - r >= 0: the arc's centroid sits 2r/pi along the bulge
        c, z, r = 2.5, -0.7, 1.5
        got = iv.surface_area(SolidOfRevolution(Profile(HalfDisk(Point2(c, z), r, bulge))))
        want = TWO_PI * (math.pi * r * c + 2 * r * r * bulge[0] + 2 * r * c)
        assert got == pytest.approx(want, rel=1e-14)

    def test_flat_edge_below_resolution_adds_nothing(self):
        # both ends of the flat edge round to (0, 1e10): a piece of length 0
        solid = SolidOfRevolution(Profile(HalfDisk(Point2(0, 1e10), 1e-10)))
        assert iv.lateral_area(solid) == pytest.approx(4 * math.pi * 1e-20, rel=1e-14)

    @pytest.mark.parametrize(
        "region",
        [
            HalfDisk(Point2(0, 0), 1.0),
            HalfDisk(Point2(2.5, -0.7), 1.5, (-0.6, -0.8)),
            Disk(Point2(3, 0), 1.0),
            Polygon([(1, 0), (2, 0), (2, 1), (1, 1)]),
            Polygon([(0, 0), (1, 0), (0.5, 2)]),
        ],
        ids=["halfdisk-on-axis", "halfdisk-rotated", "disk", "washer", "triangle-on-axis"],
    )
    def test_unfolded_cylinder_wall_is_the_surface(self, region):
        profile = Profile(region)
        assert iv.lateral_area(iv.unfold_revolution(profile)) == iv.lateral_area(SolidOfRevolution(profile))


class TestCylinderOverHalfDisk:
    @pytest.mark.parametrize("bulge", [(1.0, 0.0), (0.0, 1.0), (-0.6, 0.8), (0.6, -0.8)])
    @pytest.mark.parametrize("r, h", [(1.0, 1.0), (0.3, 7.0), (2e3, 1e-3)])
    def test_wall_is_arc_plus_diameter_times_height(self, bulge, r, h):
        cylinder = Cylinder(HalfDisk(Point2(-1.2, 0.4), r, bulge), h)
        assert iv.lateral_area(cylinder) == pytest.approx((math.pi + 2) * r * h, rel=1e-14)
        assert iv.surface_area(cylinder) == pytest.approx((math.pi + 2) * r * h + math.pi * r * r, rel=1e-14)


class TestProfileAxisRule:
    """A profile is accepted exactly when its least rho is not negative."""

    @pytest.mark.parametrize(
        "region",
        [
            Disk(Point2(0.5 * 2.0**-50, 0), 2.0**-50),
            Disk(Point2(5e-14, 0), 1e-13),
            Polygon([(-5e-13, 0), (1e-12, 0), (1e-12, 1e-12), (-5e-13, 1e-12)]),
        ],
        ids=["disk-2^-50", "disk-1e-13", "square-1e-12"],
    )
    def test_small_crossing_profiles_raise(self, region):
        with pytest.raises(AxisCrossing):
            Profile(region)

    def test_disk_decision_is_the_same_at_every_scale(self):
        for k in range(-1074, 1001):
            c = 2.0**k
            with pytest.raises(AxisCrossing):
                Profile(Disk(Point2(0.5 * c, 0), c))
            Profile(Disk(Point2(c, 0), c))


def _decision(call) -> str:
    """The type name of the GeometryError ``call()`` raises, or "accepted"."""
    try:
        call()
    except iv.GeometryError as exc:
        return type(exc).__name__
    return "accepted"


class TestTolerancesScaleWithTheShape:
    """``move_apex``'s height test, ``guldin_surface``'s axis slack and the
    monotonicity slack that ``area_bounds`` checks are relative: a shape
    scaled by 2^k, which is exact, is decided as at k = 0."""

    def test_each_decision_is_the_same_at_every_scale(self):
        rng = np.random.default_rng(20261023)
        cases = []
        for _ in range(8):
            r, h, a = rng.uniform(0.5, 2.0, 3)
            x, y = rng.uniform(-1.0, 1.0, 2)
            # the apex moved off its height by a relative 0, 1e-13, 1e-11 or 1
            for dh in (0.0, 1e-13, -1e-13, 1e-11, -1e-11, 1.0):
                cases.append(lambda c, r=r, h=h, x=x, y=y, dh=dh: iv.move_apex(
                    Cone(Disk(Point2(0, 0), r * c), Point3(0, 0, h * c)), Point3(x * c, y * c, h * (1 + dh) * c)))
            # circles and arcs that clear, touch, graze, cross or miss the axis
            arcs = [(r, 0.0, TWO_PI), (0.0, 1.5 * math.pi, math.pi), (-2 * r, 0.0, TWO_PI), (3 * r, 1.0, 2.0)]
            arcs += [(r * (1 - f), 0.0, TWO_PI) for f in (1e-14, 1e-11, 0.5)]
            for cx, start, span in arcs:
                cases.append(lambda c, cx=cx, r=r, start=start, span=span: iv.guldin_surface(
                    CircleArc(Point2(cx * c, 0), r * c, start, span), iv.rho_axis()))
            # a profile declared increasing that rises, is flat, or falls by a relative 1e-14, 1e-11 or 1
            for slope in (1.0, 0.0, -1e-14 * a, -1e-11 * a, -a):
                cases.append(lambda c, a=a, slope=slope: iv.area_bounds(
                    WidthFunction(lambda t: c * (a + slope * t), (0.0, 1.0)), 16))
        decided = [_decision(lambda: case(1.0)) for case in cases]
        assert {"accepted", "ApexHeightChanged", "AxisCrossing", "InvalidMonotonicity"} == set(decided)
        for k in range(-240, 241, 40):
            assert [_decision(lambda: case(2.0**k)) for case in cases] == decided, k

    def test_axis_slack_follows_the_distance_across_the_axis(self):
        # segments and a thin ring 1e10 times longer along the axis than across it
        long = 1e10
        expected = {
            ((-1e-3, 0), (-1e-3, long)): "AxisCrossing",  # parallel to the axis, past it
            ((-1e-13, 0), (-1e-13, long)): "AxisCrossing",
            ((0, 0), (0, long)): "accepted",  # on it
            ((1e-3, 0), (1e-3, long)): "accepted",  # beside it
            ((-1e-14 * long, 0), (long, long)): "accepted",  # tilted, from a relative 1e-14 past it
            ((-1e-11 * long, 0), (long, long)): "AxisCrossing",
            ((-2e-3, 0), (-1e-3, 0), (-1e-3, long), (-2e-3, long)): "AxisCrossing",
        }
        for k in range(-240, 241, 40):
            c = 2.0**k
            for points, decision in expected.items():
                curve = Polyline([(x * c, y * c) for x, y in points], closed=len(points) > 2)
                assert _decision(lambda: iv.guldin_surface(curve, iv.rho_axis())) == decision, (k, points)


_TRIANGLE = Polygon([(1, 0), (2, 0), (2, 1)])
_ORIGIN = np.zeros(1)

# Library errors that no other test raises: each call, its error and message.
LIBRARY_ERRORS = {
    "halfdisk-boundary": (lambda: iv.boundary(HalfDisk(Point2(0, 0), 1.0)),
                          iv.UnsupportedRegion, "no boundary curve for HalfDisk"),
    "polygon-section": (lambda: _TRIANGLE.section(), iv.UnsupportedRegion, "no width profile for Polygon"),
    "revolved-polygon-section": (lambda: SolidOfRevolution(Profile(_TRIANGLE)).section(),
                                 iv.UnsupportedRegion, "no revolved section for Polygon"),
    "cylinder-section": (lambda: Cylinder(_TRIANGLE, 1.0).section(),
                         UnsupportedSolid, "no section rule for Cylinder"),
    "cylinder-contains": (lambda: Cylinder(_TRIANGLE, 1.0).contains(_ORIGIN, _ORIGIN, _ORIGIN),
                          UnsupportedSolid, "no membership rule for Cylinder"),
    "cylinder-box": (lambda: Cylinder(_TRIANGLE, 1.0).box(), UnsupportedSolid, "no bounding box rule for Cylinder"),
    "area-bounds-no-slab": (lambda: iv.area_bounds(Disk(Point2(0, 0), 1.0).section(), 0),
                            ValueError, "slab count must be positive"),
    "rising-declared-decreasing": (
        lambda: iv.area_bounds(WidthFunction(lambda t: t, domain=(0.0, 1.0), monotonicity=("decreasing",)), 8),
        iv.InvalidMonotonicity, "piece [0.0, 1.0] declared decreasing but increases"),
    "bare-curve": (lambda: iv.boundary_integral(iv.Curve(), lambda x, y: x, 4), TypeError, "unknown curve kind Curve"),
    "riemann-no-cell": (lambda: iv.riemann_volume(Sphere(1.0).section(), 0), ValueError, "need at least one cell"),
    "reversed-interval": (lambda: iv.MeasureInterval(2.0, 1.0, 1, "m"), ValueError, "interval must satisfy lo <= hi"),
}


@pytest.mark.parametrize("call, error, message", LIBRARY_ERRORS.values(), ids=LIBRARY_ERRORS.keys())
def test_library_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
