"""Closed-form solids, hat-box equality, oblique cuts, Pappus-Guldin."""

import math

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
    Sphere,
    TangentPolyhedron,
    TwistedColumn,
    UnsupportedSolid,
    WidthFunction,
)

from conftest import star_polygon

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

    def test_degenerate_cone(self):
        from indivisibles import DegenerateSolid

        with pytest.raises(DegenerateSolid):
            iv.volume(Cone(Disk(Point2(0, 0), 1.0), Point3(1, 1, 0)))

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


class TestObliqueCutVolumes:
    def test_unit_disk_through_center(self):
        above, below = iv.oblique_cut_volumes(Disk(Point2(0, 0), 1.0), Line2.vertical(0.0), 1.0)
        assert above == pytest.approx(2 / 3, rel=1e-12)
        assert below == pytest.approx(2 / 3, rel=1e-12)

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

    def test_degenerate_region(self):
        flat = Polygon([(0, 0), (1, 0), (2, 0)])
        with pytest.raises(DegenerateRegion):
            iv.oblique_cut_volumes(flat, Line2.vertical(0.0), 1.0)


def _scalar_segment_side_moments(f_center, f_slope, half_len):
    """The per-segment rule as a plain scalar loop body: the reference the
    array form must match bit for bit."""
    if half_len <= 0.0:
        return 0.0, 0.0

    def ramp_integral(a, b, fa, fb):
        if fa >= 0.0 and fb >= 0.0:
            return (fa + fb) * 0.5 * (b - a)
        if fa <= 0.0 and fb <= 0.0:
            return 0.0
        t = a + (b - a) * fa / (fa - fb)
        if fa > 0.0:
            return fa * 0.5 * (t - a)
        return fb * 0.5 * (b - t)

    a, b = -half_len, half_len
    fa = f_center + f_slope * a
    fb = f_center + f_slope * b
    return ramp_integral(a, b, fa, fb), ramp_integral(a, b, -fa, -fb)


def _scalar_clip(pts, line, keep_positive):
    """Sutherland-Hodgman clip of a vertex list to one side of ``line`` (boundary included)."""
    nx, ny = line.normal()
    sign = 1.0 if keep_positive else -1.0

    def dist(p):
        return sign * (nx * (p[0] - line.point.x) + ny * (p[1] - line.point.y))

    out = []
    for cur, nxt in zip(pts, pts[1:] + pts[:1]):
        d0, d1 = dist(cur), dist(nxt)
        if d0 >= 0.0:
            out.append(cur)
        if (d0 > 0.0) != (d1 > 0.0) and d0 != d1:
            t = d0 / (d0 - d1)
            out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
    return out


def _scalar_cut(shape, line):
    """Side moments of a polygon, half-disk, slab region or polyline: the
    polygon clipped vertex by vertex, the others summed slab by slab (edge by
    edge) in a scalar loop."""
    nx, ny = line.normal()
    if isinstance(shape, Polygon):
        moments = [0.0, 0.0]
        for side, keep_positive in enumerate((True, False)):
            ring = _scalar_clip([(p.x, p.y) for p in shape.vertices], line, keep_positive)
            if len(ring) >= 3:
                a, sx, sy = iv.geometry._shoelace(np.array(ring))
                moments[side] = nx * (sx - line.point.x * a) + ny * (sy - line.point.y * a)
        return max(moments[0], 0.0), max(-moments[1], 0.0)
    if isinstance(shape, Polyline):
        pos = neg = 0.0
        for p, q in shape.edges():
            seg = math.hypot(q.x - p.x, q.y - p.y)
            if seg == 0.0:
                continue
            fa = nx * (p.x - line.point.x) + ny * (p.y - line.point.y)
            fb = nx * (q.x - line.point.x) + ny * (q.y - line.point.y)
            p_part, n_part = _scalar_segment_side_moments(0.5 * (fa + fb), (fb - fa) / seg, seg / 2.0)
            pos += p_part
            neg += n_part
        return pos, neg
    if isinstance(shape, SlabRegion):
        a, b = shape.width.domain
        h = (b - a) / shape.quadrature_slabs
        mids = a + (np.arange(shape.quadrature_slabs, dtype=np.float64) + 0.5) * h
        half_lens = np.asarray(shape.width(mids), dtype=np.float64) / 2.0
        f_mid = nx * (0.0 - line.point.x) + ny * (mids - line.point.y)
        f_slope = np.full_like(f_mid, nx)
    else:  # half-disk: 4096 slabs parallel to the flat edge
        bx, by = shape.bulge
        h = shape.radius / 4096
        ts = (np.arange(4096, dtype=np.float64) + 0.5) * h
        half_lens = np.sqrt(np.maximum(shape.radius**2 - ts**2, 0.0))
        f_mid = nx * (shape.center.x + bx * ts - line.point.x) + ny * (shape.center.y + by * ts - line.point.y)
        f_slope = np.full_like(f_mid, nx * -by + ny * bx)
    pos = neg = 0.0
    for fm, fs, hl in zip(f_mid.tolist(), f_slope.tolist(), half_lens.tolist()):
        p, q = _scalar_segment_side_moments(fm, fs, hl)
        pos += p * h
        neg += q * h
    return pos, neg


class TestObliqueCutParity:
    """The array form of the polygon clip and of the slab and polyline cuts is
    the scalar loop, bit for bit."""

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
            assert got == _scalar_cut(shape, line), (kind, k)


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

    def test_solid_of_revolution_dispatch(self):
        solid = iv.SolidOfRevolution(Profile(Disk(Point2(3, 0), 1.0)))
        assert iv.volume(solid) == pytest.approx(6 * math.pi**2, rel=1e-12)
        assert iv.surface_area(solid) == pytest.approx(12 * math.pi**2, rel=1e-12)
        assert iv.lateral_area(solid) == pytest.approx(12 * math.pi**2, rel=1e-12)

    def test_halfdisk_revolution_lateral_is_sphere(self):
        solid = iv.SolidOfRevolution(Profile(HalfDisk(Point2(0, 0), 1.0, bulge=(1, 0))))
        assert iv.lateral_area(solid) == pytest.approx(4 * math.pi, rel=1e-12)
