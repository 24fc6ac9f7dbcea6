"""Measure-preserving constructions: shear, apex moves, unrolling, twisting,
meridian unfolding and revolution unfolding."""

import math

import numpy as np
import pytest

import indivisibles as iv
from indivisibles import (
    ApexHeightChanged,
    AxisCrossing,
    Cone,
    Cylinder,
    Disk,
    HalfDisk,
    Hoof,
    Line2,
    Point2,
    Point3,
    Polygon,
    Profile,
    Sphere,
    UnsupportedRegion,
)
from indivisibles.transforms import UNROLL_BUDGET, _teeth

from conftest import star_polygon

UNROLL_64_AREA = 3.1365484905459393  # 32*sin(pi/32), frozen closed form
UNROLL_3_AREA = 1.2990381056766582  # 3*sin(pi/3)*cos(pi/3)


class TestShear:
    def test_triangle_apex_slides_area_fixed(self):
        tri = Polygon([(0, 0), (4, 0), (1, 3)])
        sheared = iv.shear_region(tri, Line2.horizontal(0.0), 3.0)
        assert any((p.x, p.y) == (10.0, 3.0) for p in sheared.vertices)
        assert iv.area(sheared) == pytest.approx(6.0, rel=1e-12)

    def test_zero_shift_is_identity(self):
        tri = Polygon([(0, 0), (4, 0), (1, 3)])
        assert iv.shear_region(tri, Line2.horizontal(0.0), 0.0) == tri

    def test_unit_square_becomes_parallelogram(self):
        sq = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        sheared = iv.shear_region(sq, Line2.horizontal(0.0), 1.0)
        assert iv.area(sheared) == pytest.approx(1.0, rel=1e-12)
        assert any((p.x, p.y) == (2.0, 1.0) for p in sheared.vertices)

    def test_random_polygons_any_base_line(self, rng):
        for _ in range(100):
            poly = star_polygon(rng)
            theta = rng.uniform(0, 2 * math.pi)
            base = Line2(Point2(*rng.uniform(-2, 2, 2)), (math.cos(theta), math.sin(theta)))
            shift = rng.uniform(-4, 4)
            sheared = iv.shear_region(poly, base, shift)
            assert iv.area(sheared) == pytest.approx(iv.area(poly), rel=1e-12)

    def test_disk_rejected(self):
        with pytest.raises(UnsupportedRegion):
            iv.shear_region(Disk(Point2(0, 0), 1.0), Line2.horizontal(0.0), 1.0)


class TestMoveApex:
    def test_volume_unchanged(self):
        cone = Cone(Disk(Point2(0, 0), 1.0), Point3(0, 0, 3))
        moved = iv.move_apex(cone, Point3(7, 5, 3))
        assert iv.volume(cone) == pytest.approx(math.pi, rel=1e-12)
        assert iv.volume(moved) == iv.volume(cone)

    def test_identity_move(self):
        cone = Cone(Disk(Point2(0, 0), 1.0), Point3(0, 0, 3))
        assert iv.move_apex(cone, Point3(0, 0, 3)) == cone

    def test_height_change_rejected(self):
        cone = Cone(Disk(Point2(0, 0), 1.0), Point3(0, 0, 3))
        with pytest.raises(ApexHeightChanged):
            iv.move_apex(cone, Point3(0, 0, 4))


class TestUnrollDisk:
    def test_area_n64(self):
        saw = iv.unroll_disk(Disk(Point2(0, 0), 1.0), 64)
        assert iv.area(saw) == pytest.approx(UNROLL_64_AREA, rel=1e-12)

    def test_area_n3(self):
        saw = iv.unroll_disk(Disk(Point2(0, 0), 1.0), 3)
        assert iv.area(saw) == pytest.approx(UNROLL_3_AREA, rel=1e-12)

    def test_structure(self):
        n = 16
        saw = iv.unroll_disk(Disk(Point2(0, 0), 1.0), n)
        assert len(saw.vertices) == 2 * n + 1
        assert len(iv.sawtooth_teeth(saw)) == n

    def test_structure_n4096_is_validated(self):
        # the teeth touch the closing edge at its interior vertices only, so
        # the full simplicity check accepts the sawtooth at any size
        saw = iv.unroll_disk(Disk(Point2(0, 0), 1.0), 4096)
        assert len(saw.vertices) == 8193
        assert len(iv.sawtooth_teeth(saw)) == 4096

    def test_area_error_bound_n8_to_4096(self):
        # |pi r^2 - area(n)| <= pi r^2 * (3/2) * (pi/n)^2, every n in [8, 4096]
        ns = np.arange(8, 4097)
        areas = (ns / 2.0) * np.sin(2.0 * math.pi / ns)
        errors = math.pi - areas
        bounds = math.pi * 1.5 * (math.pi / ns) ** 2
        assert np.all(errors >= 0.0)
        assert np.all(errors <= bounds)
        # spot-check the closed chord formula against the shoelace value
        for n in (8, 64, 512):
            saw = iv.unroll_disk(Disk(Point2(0, 0), 1.0), n)
            assert iv.area(saw) == pytest.approx((n / 2.0) * math.sin(2 * math.pi / n), rel=1e-12)

    def test_shear_to_common_apex_gives_single_triangle(self):
        n = 32
        r = 1.0
        saw = iv.unroll_disk(Disk(Point2(0, 0), r), n)
        chord = 2.0 * r * math.sin(math.pi / n)
        apothem = r * math.cos(math.pi / n)
        apex_x = 0.5 * n * chord
        base = Line2.horizontal(0.0)
        gathered = 0.0
        for tooth in iv.sawtooth_teeth(saw):
            apex = max(tooth.vertices, key=lambda p: p.y)
            shift = (apex_x - apex.x) / apothem
            gathered += iv.area(iv.shear_region(tooth, base, shift))
        single = 0.5 * (n * chord) * apothem
        assert gathered == pytest.approx(single, rel=1e-12)
        assert gathered == pytest.approx(iv.area(saw), rel=1e-12)

    def test_needs_three_slices(self):
        with pytest.raises(ValueError):
            iv.unroll_disk(Disk(Point2(0, 0), 1.0), 2)

    def test_takes_at_most_its_budget_of_slices(self):
        # raised before the sawtooth's array is allocated
        for n in (UNROLL_BUDGET + 1, 10**15):
            with pytest.raises(ValueError, match=f"at most {UNROLL_BUDGET} slices unroll a disk, got {n}"):
                iv.unroll_disk(Disk(Point2(0, 0), 1.0), n)

    # the shoelace sums of the teeth underflow to 0 at r = 1e-170
    @pytest.mark.parametrize("r,n", [(1.0, 3), (0.37, 64), (1e-170, 16), (1e-162, 64), (1e300, 16)])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_teeth_are_the_point_triangles(self, r, n):
        saw = iv.unroll_disk(Disk(Point2(0, 0), r), n)
        v = saw.vertices
        want = [Polygon([v[2 * k], v[2 * k + 2], v[2 * k + 1]]) for k in range(n)]
        assert iv.sawtooth_teeth(saw) == want

    def test_teeth_are_oriented_as_polygon_orients_them(self):
        # a thin triangle far from the origin is a sawtooth of one tooth,
        # whose orientation is decided by the shoelace sum that Polygon takes
        rng = np.random.default_rng(20261020)
        n = 20_000
        o = 10.0 ** rng.uniform(6, 12, (n, 1))
        a, b = o + rng.uniform(-1, 1, (n, 2)), o + rng.uniform(-1, 1, (n, 2))
        c = a + rng.uniform(0, 1, (n, 1)) * (b - a)
        c[:, 1] += rng.choice((-1e-7, 1e-7), n)  # near the chord
        for a, b, c in zip(a, b, c):
            try:
                saw = Polygon([a, c, b])
            except ValueError:  # c rounded onto a or b
                continue
            tooth = _teeth(saw)[0]
            assert np.array_equal(Polygon(tooth).xy(), tooth)  # Polygon keeps the tooth's order

    def test_teeth_need_an_odd_vertex_count(self):
        with pytest.raises(ValueError, match="not a sawtooth polygon"):
            iv.sawtooth_teeth(Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]))


def _reference_shear(region, base, k):
    """The former per-vertex loop of shear_region."""
    dx, dy = base.direction
    moved = []
    for p in region.vertices:
        d = base.signed_distance(p)
        moved.append(Point2(p.x + k * d * dx, p.y + k * d * dy))
    return Polygon(moved)


def _reference_unroll(disk, n):
    """The former per-tooth loop of unroll_disk."""
    r = disk.radius
    chord = 2.0 * r * math.sin(math.pi / n)
    apothem = r * math.cos(math.pi / n)
    verts = [Point2(0.0, 0.0)]
    for i in range(n):
        verts.append(Point2((i + 0.5) * chord, apothem))
        verts.append(Point2((i + 1.0) * chord, 0.0))
    return Polygon(verts)


def _outcome(fn, *args):
    """The polygon's vertices and array bytes, or the error raised instead."""
    try:
        poly = fn(*args)
    except (ValueError, OverflowError) as err:
        return type(err), str(err)
    return repr(poly.vertices), poly.xy().tobytes()


class TestArrayTransformsMatchThePointLoops:
    """shear_region and unroll_disk compute their vertices on arrays and give
    the bits, or the error, of the per-vertex loops they replace."""

    def test_shear(self):
        rng = np.random.default_rng(20261022)
        raised = 0
        for trial in range(200):
            scale = 10.0 ** rng.uniform(-150.0, 150.0)
            n = int(rng.integers(3, 40))
            jitter = rng.uniform(0.1, 0.9, n)
            angles = 2.0 * math.pi * (np.arange(n) + jitter) / n
            radii = rng.uniform(0.5, 2.0, n) * scale
            poly = Polygon(np.column_stack((radii * np.cos(angles), radii * np.sin(angles))).tolist())
            angle = float(rng.uniform(0.0, math.pi))
            base = Line2(Point2(*(rng.uniform(-1.0, 1.0, 2) * scale).tolist()), (math.cos(angle), math.sin(angle)))
            # 1e300 overflows the sheared coordinates at the larger scales
            for k in (float(rng.uniform(-2.0, 2.0)), 0.0, -1e-300, 1e300):
                want = _outcome(_reference_shear, poly, base, k)
                assert _outcome(iv.shear_region, poly, base, k) == want, (trial, k)
                raised += want[0] is ValueError
        assert 0 < raised < 200

    @pytest.mark.parametrize("n", [3, 4, 16, 4096])
    @pytest.mark.parametrize("r", [1.0, 0.37, 1e150, 1e-150])
    def test_unroll(self, n, r):
        disk = Disk(Point2(0.0, 0.0), r)
        assert _outcome(iv.unroll_disk, disk, n) == _outcome(_reference_unroll, disk, n)

    def test_measures_construct_no_point(self, rng, monkeypatch):
        # both transforms hand their coordinate arrays to Polygon, which
        # builds the vertices only when they are read
        disk, poly = Disk(Point2(0.0, 0.0), 1.0), star_polygon(rng, n_min=512, n_max=512)
        base = Line2(Point2(0.0, 0.3), (0.6, 0.8))
        built = []
        init = Point2.__init__

        def spy(self, x, y):
            built.append((x, y))
            init(self, x, y)

        monkeypatch.setattr(Point2, "__init__", spy)
        saw = iv.unroll_disk(disk, 4096)
        sheared = iv.shear_region(poly, base, 0.7)
        assert iv.area(saw) > 0.0 and iv.area(sheared) > 0.0
        assert built == []
        assert len(saw.vertices) == 8193 and len(built) == 8193
        assert repr(saw.vertices) == repr(_reference_unroll(disk, 4096).vertices)

    @pytest.mark.parametrize("r", [1e308, 5e307])
    def test_unroll_that_overflows(self, r):
        # the chord overflows, or only the far teeth do; no warning escapes
        disk = Disk(Point2(0.0, 0.0), r)
        want = _outcome(_reference_unroll, disk, 4096)
        assert want == (ValueError, "coordinates must be finite")
        assert _outcome(iv.unroll_disk, disk, 4096) == want


class TestTwistColumn:
    def test_volume_is_base_times_height(self):
        cyl = Cylinder(Disk(Point2(0, 0), 1.0), 2.0)
        for rate in (-3.0, 0.5, math.pi / 2):
            assert iv.volume(iv.twist_column(cyl, rate)) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_zero_twist_is_identity(self):
        cyl = Cylinder(Disk(Point2(0, 0), 1.0), 2.0)
        assert iv.twist_column(cyl, 0.0) is cyl

    def test_mc_oracle_disk_base(self):
        # stated check: r=1, h=1, twist pi/2 stays within 5 stderr of pi
        rate = math.pi / 2

        def member(x, y, z):
            ang = -rate * z
            xr = x * np.cos(ang) - y * np.sin(ang)
            yr = x * np.sin(ang) + y * np.cos(ang)
            return xr * xr + yr * yr <= 1.0

        est = iv.mc_volume(member, ((-1, 1), (-1, 1), (0, 1)), 10**6, seed=42)
        assert abs(est.mean - math.pi) <= 5 * est.stderr

    def test_mc_oracle_offset_square_base(self):
        # off-center square: here the twist genuinely moves mass around
        rate = math.pi / 2
        col = iv.twist_column(Cylinder(Polygon([(0.6, -0.4), (1.4, -0.4), (1.4, 0.4), (0.6, 0.4)]), 1.0), rate)
        assert iv.volume(col) == pytest.approx(0.64, rel=1e-12)

        def member(x, y, z):
            ang = -rate * z
            xr = x * np.cos(ang) - y * np.sin(ang)
            yr = x * np.sin(ang) + y * np.cos(ang)
            return (np.abs(xr - 1.0) <= 0.4) & (np.abs(yr) <= 0.4)

        b = 1.5
        est = iv.mc_volume(member, ((-b, b), (-b, b), (0, 1)), 10**6, seed=42)
        assert abs(est.mean - 0.64) <= 5 * est.stderr


class TestMeridianUnfold:
    def test_limit_consistency_with_hoof_coefficients(self):
        # two hoofs of apex height pi r reproduce both sphere measures
        for r in (0.5, 1.0, 2.0):
            pair_volume = 2.0 * iv.volume(Hoof(r, math.pi * r))
            pair_lateral = 2.0 * iv.lateral_area(Hoof(r, math.pi * r))
            assert pair_volume == pytest.approx(4 * math.pi * r**3 / 3, rel=1e-12)
            assert pair_lateral == pytest.approx(4 * math.pi * r**2, rel=1e-12)

    def test_n256_close_to_sphere(self):
        unfolded = iv.meridian_unfold(Sphere(1.0), 256)
        assert unfolded.wedges == 256
        assert abs(iv.volume(unfolded) - 4 * math.pi / 3) <= 1e-3
        assert abs(iv.lateral_area(unfolded) - 4 * math.pi) <= 1e-2

    def test_convergence_order_at_least_one(self):
        sphere = Sphere(1.0)
        truth_v = 4 * math.pi / 3
        truth_a = 4 * math.pi
        ns = [8, 16, 32, 64, 128, 256, 512, 1024]
        for n, m in zip(ns, ns[1:]):
            ev_n = abs(iv.volume(iv.meridian_unfold(sphere, n)) - truth_v)
            ev_m = abs(iv.volume(iv.meridian_unfold(sphere, m)) - truth_v)
            ea_n = abs(iv.lateral_area(iv.meridian_unfold(sphere, n)) - truth_a)
            ea_m = abs(iv.lateral_area(iv.meridian_unfold(sphere, m)) - truth_a)
            assert math.log2(ev_n / ev_m) >= 1.0
            assert math.log2(ea_n / ea_m) >= 1.0

    def test_discretization_envelope(self):
        # relative excess of n*tan(pi/n) over pi is (pi/n)^2/3 + O(n^-4);
        # the 1.1 factor covers the quartic tail down to n = 8
        for r in (0.7, 1.0, 3.0):
            sphere = Sphere(r)
            truth_v = 4 * math.pi * r**3 / 3
            truth_a = 4 * math.pi * r**2
            for n in (8, 16, 32, 64, 128, 256, 512, 1024):
                envelope = 1.1 * (math.pi / n) ** 2 / 3.0
                unfolded = iv.meridian_unfold(sphere, n)
                assert abs(iv.volume(unfolded) - truth_v) <= envelope * truth_v
                assert abs(iv.lateral_area(unfolded) - truth_a) <= envelope * truth_a

    def test_wedge_count_validation(self):
        with pytest.raises(ValueError):
            iv.meridian_unfold(Sphere(1.0), 5)
        with pytest.raises(ValueError):
            iv.meridian_unfold(Sphere(1.0), 2)


class TestUnfoldRevolution:
    def test_halfdisk_gives_sphere_volume(self):
        profile = Profile(HalfDisk(Point2(0, 0), 1.0, bulge=(1, 0)))
        unrolled = iv.unfold_revolution(profile)
        assert iv.volume(unrolled) == pytest.approx(4 * math.pi / 3, rel=1e-12)
        assert iv.volume(unrolled) == pytest.approx(iv.guldin_volume(profile), rel=1e-15)

    def test_rectangle_washer(self):
        profile = Profile(Polygon([(1, 0), (2, 0), (2, 1), (1, 1)]))
        unrolled = iv.unfold_revolution(profile)
        assert iv.volume(unrolled) == pytest.approx(3 * math.pi, rel=1e-12)  # pi(2^2-1^2)*1

    def test_axis_touching_allowed(self):
        profile = Profile(Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]))
        assert iv.volume(iv.unfold_revolution(profile)) == pytest.approx(math.pi, rel=1e-12)

    def test_axis_crossing_rejected(self):
        with pytest.raises(AxisCrossing):
            Profile(Polygon([(-0.2, 0), (1, 0), (1, 1)]))

    def test_two_paths_agree_on_random_profiles(self, rng):
        for _ in range(100):
            poly = star_polygon(rng, center=(3.0, 0.0), r_min=0.3, r_max=1.5)
            profile = Profile(poly)
            v_field = iv.volume(iv.unfold_revolution(profile))
            v_guldin = iv.guldin_volume(profile)
            assert v_field == pytest.approx(v_guldin, rel=1e-12)

    def test_lateral_area_is_guldin_surface(self):
        poly = Polygon([(1, 0), (2, 0), (2, 1), (1, 1)])
        unrolled = iv.unfold_revolution(Profile(poly))
        assert iv.lateral_area(unrolled) == pytest.approx(
            iv.guldin_surface(iv.boundary(poly), iv.rho_axis()), rel=1e-12
        )

