"""Command-line interface: exit codes, report schema, SVG structure,
byte-level determinism."""

import argparse
import hashlib
import math
import re
import subprocess
import sys
import types

import pytest

import indivisibles
from indivisibles import riemann_volume
from indivisibles.cli import MEASURES, SHAPES, main
from indivisibles.svg import render_unroll

from conftest import SCRIPTS_DIR


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _report_dict(text):
    pairs = {}
    for line in text.strip().split("\n"):
        key, _, value = line.partition(" ")
        if key == "assertion":
            continue
        pairs[key] = value
    return pairs


def test_version_reports_the_constant_backend(capsys):
    # BACKEND is the constant "pure" (one kernel implementation); the
    # --version bytes and benchmark environment records depend on it
    assert indivisibles.BACKEND == "pure"
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out == "indivisibles 0.1.0 (pure)\n"


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(indivisibles).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == [
        "ApexHeightChanged", "AxisCrossing", "BACKEND", "CircleArc", "Cone", "Curve", "Cylinder",
        "DegenerateCurve", "DegenerateRegion", "DegenerateSolid", "Disk", "DoubleHoof", "EmptyBox",
        "Estimate", "GeometryError", "HalfDisk", "HeightFieldCylinder", "Hoof", "InvalidMonotonicity",
        "Line2", "MeasureInterval", "PlanarRegion", "Point2", "Point3", "Polygon", "Polyline", "Profile",
        "SectionFunction", "SlabOutOfRange", "SlabRegion", "Solid", "SolidOfRevolution", "Sphere",
        "TangentPolyhedron", "ToleranceNotReached", "Transform", "TwistedColumn", "UnsupportedExact",
        "UnsupportedRegion", "UnsupportedSolid", "WidthFunction", "area", "area_bounds", "boundary",
        "boundary_integral", "bounding_box", "centroid_curve", "centroid_region", "contains",
        "first_moment", "first_moment_curve", "guldin_surface", "guldin_volume", "lateral_area",
        "mc_area", "mc_volume", "meridian_unfold", "move_apex", "oblique_cut_lateral_areas",
        "oblique_cut_volumes", "perimeter", "refine_until", "rho_axis", "riemann_volume",
        "sawtooth_teeth", "shear_region", "sphere_zone_vs_band", "surface_area", "twist_column",
        "unfold_revolution", "unroll_disk", "volume", "volume_bounds",
    ]


class TestShapeTable:
    """Each named shape's closed form against its own oracles: Monte Carlo on
    the kind's membership and box, and the enclosure and Riemann sum of the
    kind's section profile."""

    @pytest.mark.parametrize("dims", [(1.0, 1.0, 3.0), (0.7, 2.3, 1.9)], ids=["unit", "odd"])
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_closed_form_agrees_with_the_kinds_oracles(self, name, dims):
        r, h, big_r = dims
        kind, build = SHAPES[name]
        closed_form, bounds, mc = MEASURES[kind]
        shape = build(argparse.Namespace(r=r, h=h, R=big_r))
        closed = closed_form(shape)
        est = mc(shape.contains, shape.box(), 200_000, 7)
        assert abs(est.mean - closed) <= 5.0 * est.stderr
        section = shape.section()
        assert closed in bounds(section, 1000)
        assert riemann_volume(section, 10**6) == pytest.approx(closed, rel=1e-6)

    def test_torus_profile_past_the_axis_exits_three(self, capsys):
        code, _, err = run_main(capsys, "oracle", "--target", "torus", "--r", "2", "--R", "1")
        assert code == 3
        assert "axis" in err


class TestCheck:
    def test_passing_script_exits_zero(self, capsys):
        code, out, _ = run_main(capsys, "check", str(SCRIPTS_DIR / "sphere_cylinder.igeo"))
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_designed_failure_exits_one(self, capsys):
        code, out, _ = run_main(capsys, "check", str(SCRIPTS_DIR / "designed_failure.igeo"))
        assert code == 1
        assert "FAIL" in out

    def test_parse_error_exits_two(self, capsys):
        code, _, err = run_main(capsys, "check", str(SCRIPTS_DIR / "parse_error.igeo"))
        assert code == 2
        assert "line 2, column 18" in err

    def test_geometry_error_exits_three(self, capsys, tmp_path):
        bad = tmp_path / "axis.igeo"
        bad.write_text("let p = profile((-0.5,0),(1,0),(1,1));\n")
        code, _, err = run_main(capsys, "check", str(bad))
        assert code == 3
        assert "axis" in err

    def test_division_by_zero_exits_three(self, capsys, tmp_path):
        bad = tmp_path / "div.igeo"
        bad.write_text("assert_close(1/0, 1, tol=1);\n")
        code, out, err = run_main(capsys, "check", str(bad))
        assert code == 3
        assert out == ""
        assert err == "error: line 1, column 15: division by zero\n"

    def test_missing_file_exits_four(self, capsys):
        code, _, _ = run_main(capsys, "check", "no_such_script.igeo")
        assert code == 4

    def test_report_format_is_versioned(self, capsys):
        code, out, _ = run_main(
            capsys, "check", str(SCRIPTS_DIR / "sphere_cylinder.igeo"), "--format", "report"
        )
        assert code == 0
        lines = out.split("\n")
        assert lines[0] == "schema_version 1"
        assert lines[1].startswith("tool indivisibles ")
        report = _report_dict(out)
        assert report["overall"] == "pass"
        assert report["failures"] == "0"


class TestBounds:
    def test_disk_1000_slices(self, capsys):
        code, out, _ = run_main(capsys, "bounds", "--shape", "disk", "--r", "1", "--slices", "1000")
        assert code == 0
        report = _report_dict(out)
        lo, hi = float(report["lo"]), float(report["hi"])
        assert lo <= math.pi <= hi
        assert hi - lo <= 0.008 * (1 + 1e-9)
        assert report["encloses_closed_form"] == "true"
        assert report["method"] == "inner-outer-rectangles"

    def test_hoof_encloses_two_thirds(self, capsys):
        code, out, _ = run_main(
            capsys, "bounds", "--shape", "hoof", "--r", "1", "--h", "1", "--slices", "4096"
        )
        assert code == 0
        report = _report_dict(out)
        assert float(report["lo"]) <= 2 / 3 <= float(report["hi"])

    def test_disk_single_slice_splits_at_peak(self, capsys):
        # one requested slab + one breakpoint = the sound enclosure [0, 4]
        code, out, _ = run_main(capsys, "bounds", "--shape", "disk", "--r", "1", "--slices", "1")
        assert code == 0
        report = _report_dict(out)
        assert float(report["lo"]) == 0.0
        assert float(report["hi"]) == pytest.approx(4.0, rel=1e-9)
        assert report["slabs"] == "2"
        assert report["encloses_closed_form"] == "true"

    def test_sphere_bounds(self, capsys):
        code, out, _ = run_main(capsys, "bounds", "--shape", "sphere", "--slices", "1000")
        report = _report_dict(out)
        assert code == 0
        assert float(report["lo"]) <= 4 * math.pi / 3 <= float(report["hi"])
        assert report["method"] == "inner-outer-disks"

    def test_unknown_shape_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["bounds", "--shape", "pyramid"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--shape", "disk", "--r", "0"],
            ["bounds", "--shape", "disk", "--slices", "0"],
            ["oracle", "--target", "sphere", "--r", "-1"],
            ["svg", "--construction", "unroll", "--n", "2", "--out", "x.svg"],
            ["svg", "--construction", "bounds", "--slices", "0", "--out", "x.svg"],
            ["guldin", "x.profile", "--verify", "--samples", "0"],
            ["guldin", "x.profile", "--verify", "--seed", "-1"],
            ["oracle", "--target", "disk", "--seed", "-1"],
            ["oracle", "--target", "disk", "--seed", str(2**64)],
            ["bounds", "--shape", "disk", "--r", "inf"],
            ["oracle", "--target", "sphere", "--r", "inf"],
            ["svg", "--construction", "unroll", "--r", "inf", "--out", "x.svg"],
            ["bounds", "--shape", "cone", "--h", "nan"],
        ],
    )
    def test_nonpositive_dimensions_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--shape", "disk", "--r", "1e200"],
            ["bounds", "--shape", "sphere", "--r", "1e120"],
            ["oracle", "--target", "sphere", "--r", "1e200"],
            ["bounds", "--shape", "disk", "--r", "7e153", "--slices", "1"],
            ["oracle", "--target", "torus", "--R", "1e200"],
            ["oracle", "--target", "torus", "--R", "1e160", "--r", "1e-10"],
            ["svg", "--construction", "bounds", "--shape", "disk", "--r", "1e200", "--out", "x.svg"],
        ],
    )
    def test_measure_that_is_not_finite_exits_three(self, argv, capsys):
        code, _, err = run_main(capsys, *argv)
        assert code == 3
        assert err.endswith("is not finite at these dimensions\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bounds", "--shape", "disk", "--r", "1e-170"], "the area of the disk underflows to 0 at these dimensions"),
            (["oracle", "--target", "disk", "--r", "1e-170"], "the area of the disk underflows to 0 at these dimensions"),
            (["bounds", "--shape", "sphere", "--r", "1e-110"], "the volume of the sphere underflows to 0 at these dimensions"),
            (
                ["oracle", "--target", "hoof", "--r", "1e-120", "--h", "1e-120"],
                "the volume of the hoof underflows to 0 at these dimensions",
            ),
            (["bounds", "--shape", "cone", "--r", "1e-170"], "base region has zero area"),
            (["oracle", "--target", "torus", "--r", "1e-170"], "profile region has zero area"),
            (
                ["svg", "--construction", "bounds", "--shape", "cone", "--r", "1e-170", "--out", "x.svg"],
                "base region has zero area",
            ),
            (
                ["svg", "--construction", "bounds", "--shape", "sphere", "--r", "1e-200", "--out", "x.svg"],
                "the volume of the sphere underflows to 0 at these dimensions",
            ),
        ],
    )
    def test_measure_that_underflows_exits_three(self, argv, message, capsys):
        # a closed form of 0 would be enclosed and estimated vacuously
        code, out, err = run_main(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == f"error: {message}\n"

    def test_unroll_whose_coordinates_overflow_exits_three(self, capsys, tmp_path):
        out_path = tmp_path / "x.svg"
        code, _, err = run_main(capsys, "svg", "--construction", "unroll", "--r", "1e308", "--out", str(out_path))
        assert code == 3
        assert err == "error: coordinates must be finite\n"
        assert not out_path.exists()

    def test_invalid_constructor_argument_exits_three(self, capsys, tmp_path):
        bad = tmp_path / "neg.igeo"
        bad.write_text("let d = disk(r=-1);\n")
        code, _, err = run_main(capsys, "check", str(bad))
        assert code == 3
        assert "radius" in err


@pytest.fixture
def square_profile(tmp_path):
    path = tmp_path / "square.profile"
    path.write_text("name square\npoint 1 0\npoint 2 0\npoint 2 1\npoint 1 1\n")
    return path


@pytest.fixture
def polygon64_profile(tmp_path):
    pts = []
    for i in range(64):
        a = 2 * math.pi * i / 64
        pts.append(f"point {3 + math.cos(a)!r} {math.sin(a)!r}")
    path = tmp_path / "ring64.profile"
    path.write_text("name ring64\n" + "\n".join(pts) + "\n")
    return path


class TestGuldin:
    def test_square_profile_values(self, capsys, square_profile):
        code, out, _ = run_main(capsys, "guldin", str(square_profile))
        assert code == 0
        report = _report_dict(out)
        assert float(report["area"]) == 1.0
        assert float(report["perimeter"]) == 4.0
        assert float(report["centroid_rho"]) == 1.5
        assert float(report["volume"]) == pytest.approx(3 * math.pi, rel=1e-12)
        assert float(report["surface"]) == pytest.approx(12 * math.pi, rel=1e-12)
        assert report["name"] == "square"

    def test_64gon_close_to_torus(self, capsys, polygon64_profile):
        code, out, _ = run_main(capsys, "guldin", str(polygon64_profile))
        assert code == 0
        report = _report_dict(out)
        vol = float(report["volume"])
        assert abs(vol - 6 * math.pi**2) / (6 * math.pi**2) <= 0.002

    def test_profile_whose_moments_overflow_reports_one_line(self, capsys, tmp_path):
        # the shoelace products overflow; no numpy warning may reach stderr
        huge = tmp_path / "huge.profile"
        huge.write_text("point 1e150 0\npoint 2e150 0\npoint 2e150 1e150\npoint 1e150 1e150\n")
        code, out, err = run_main(capsys, "guldin", str(huge))
        assert code == 3
        assert out == ""
        assert err == "error: coordinates must be finite\n"

    def test_axis_crossing_exits_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.profile"
        bad.write_text("point -0.1 0\npoint 1 0\npoint 1 1\n")
        code, _, err = run_main(capsys, "guldin", str(bad))
        assert code == 3
        assert "axis" in err

    def test_self_intersecting_profile_exits_three(self, capsys, tmp_path):
        bowtie = tmp_path / "bowtie.profile"
        bowtie.write_text("point 1 0\npoint 2 1\npoint 2 0\npoint 1 1\n")
        code, _, err = run_main(capsys, "guldin", str(bowtie))
        assert code == 3
        assert "self-intersecting" in err

    def test_large_self_intersecting_profile_exits_three(self, capsys, tmp_path):
        # 640-gon around (3, 0) with two neighbours swapped: one crossing,
        # above the size at which the check used to be skipped
        angles = [2 * math.pi * i / 640 for i in range(640)]
        angles[300], angles[301] = angles[301], angles[300]
        crossed = tmp_path / "crossed640.profile"
        crossed.write_text("".join(f"point {3 + math.cos(a)!r} {math.sin(a)!r}\n" for a in angles))
        code, out, err = run_main(capsys, "guldin", str(crossed))
        assert code == 3
        assert "self-intersecting" in err
        assert out == ""

    def test_malformed_file_exits_four(self, capsys, tmp_path):
        bad = tmp_path / "broken.profile"
        bad.write_text("point 1\npoint 2 0\npoint 2 1\n")
        code, _, _ = run_main(capsys, "guldin", str(bad))
        assert code == 4

    def test_explicit_closure_rejected(self, capsys, tmp_path):
        bad = tmp_path / "closed.profile"
        bad.write_text("point 1 0\npoint 2 0\npoint 2 1\npoint 1 0\n")
        code, _, err = run_main(capsys, "guldin", str(bad))
        assert code == 4
        assert "closure" in err

    def test_missing_file_exits_four(self, capsys):
        code, _, _ = run_main(capsys, "guldin", "nowhere.profile")
        assert code == 4

    def test_verify_runs_monte_carlo(self, capsys, square_profile):
        code, out, _ = run_main(
            capsys, "guldin", str(square_profile), "--verify", "--samples", "100000"
        )
        assert code == 0
        report = _report_dict(out)
        assert report["verify_within_5_stderr"] == "true"
        assert report["verify_seed"] == "42"


    def test_verify_on_a_box_whose_measure_overflows_exits_three(self, capsys, tmp_path):
        # volume and moments are finite, but the sampling box is 2.1e308
        wide = tmp_path / "wide.profile"
        wide.write_text("point 1e106 0\npoint 2e106 0\npoint 2e106 1.3e95\npoint 1e106 1.3e95\n")
        code, out, err = run_main(capsys, "guldin", str(wide), "--verify", "--samples", "1000")
        assert code == 3
        assert out == ""
        assert err.endswith("is not finite at these dimensions\n") and err.count("\n") == 1


class TestOracle:
    def test_mc_disk(self, capsys):
        code, out, _ = run_main(
            capsys, "oracle", "--target", "disk", "--samples", "200000", "--seed", "42"
        )
        assert code == 0
        report = _report_dict(out)
        assert report["within_5_stderr"] == "true"

    def test_riemann_hoof(self, capsys):
        code, out, _ = run_main(
            capsys, "oracle", "--target", "hoof", "--method", "riemann", "--cells", "100000"
        )
        assert code == 0
        report = _report_dict(out)
        assert abs(float(report["value"]) - 2 / 3) <= 1e-7

    @pytest.mark.parametrize("target,r", [("disk", "4e76"), ("disk", "1e100"), ("sphere", "1e102"), ("disk", "1e-100")])
    def test_mc_on_a_box_whose_measure_squared_overflows_or_underflows(self, capsys, target, r):
        code, out, _ = run_main(capsys, "oracle", "--target", target, "--r", r, "--samples", "1000")
        assert code == 0
        report = _report_dict(out)
        assert 0.0 < float(report["stderr"]) < math.inf
        assert report["within_5_stderr"] == "true"


class TestSvg:
    def test_unroll_structure(self, tmp_path, capsys):
        out_path = tmp_path / "unroll.svg"
        code, _, _ = run_main(capsys, "svg", "--construction", "unroll", "--r", "1", "--n", "16",
                              "--out", str(out_path))
        assert code == 0
        svg = out_path.read_text()
        teeth = re.findall(r'<polygon class="tooth" points="([^"]+)"', svg)
        assert len(teeth) == 16
        baseline = re.search(r'<line class="baseline" x1="([\d.]+)" y1="[\d.]+" x2="([\d.]+)"', svg)
        assert baseline is not None
        base_len = float(baseline.group(2)) - float(baseline.group(1))
        xs = [float(p.split(",")[0]) for p in teeth[0].split()]
        tooth_width = max(xs) - min(xs)
        # the baseline spans exactly n chord lengths
        assert base_len == pytest.approx(16 * tooth_width, abs=1e-3)

    @pytest.mark.parametrize(
        "r,n,digest",
        [
            (1.0, 3, "6b2138730e19897fa7768515476c18a32c7dc947d77130865b384407dfb35899"),
            (1.0, 16, "83e7e2d25a9b07f8162f3f2bb414fe2e68eb1853badaf4cd0be156737b8611bf"),
            (1.0, 4096, "362b28b4677cbad7c07b86cc82281c7fd164cf5573d1f69a668e21c6e5149ed1"),
            (0.37, 3, "6b2138730e19897fa7768515476c18a32c7dc947d77130865b384407dfb35899"),
            (0.37, 16, "83e7e2d25a9b07f8162f3f2bb414fe2e68eb1853badaf4cd0be156737b8611bf"),
            (0.37, 4096, "a66bea55623903a71603df7421a1de8a0d8080b5b21d5b6909c66f1b4b92b1a3"),
            # the disk's area overflows here, but every vertex is finite
            (1e200, 16, "02a92966af56332b937666e6cc006c4b690608012194869e60c59ce7b273eeb9"),
        ],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unroll_bytes_are_pinned(self, r, n, digest):
        assert hashlib.sha256(render_unroll(r, n).encode()).hexdigest() == digest

    def test_bounds_structure(self, tmp_path, capsys):
        out_path = tmp_path / "bounds.svg"
        code, _, _ = run_main(capsys, "svg", "--construction", "bounds", "--shape", "disk",
                              "--slices", "12", "--out", str(out_path))
        assert code == 0
        svg = out_path.read_text()
        assert svg.count('class="inner"') == 12
        assert svg.count('class="outer"') == 12

    def test_guldin_structure(self, tmp_path, capsys, square_profile):
        out_path = tmp_path / "guldin.svg"
        code, _, _ = run_main(capsys, "svg", "--construction", "guldin", "--profile",
                              str(square_profile), "--out", str(out_path))
        assert code == 0
        svg = out_path.read_text()
        assert 'class="axis"' in svg
        assert 'class="profile"' in svg
        assert 'class="centroid"' in svg

    def test_guldin_self_intersecting_profile_exits_three(self, tmp_path, capsys):
        bowtie = tmp_path / "bowtie.profile"
        bowtie.write_text("point 1 0\npoint 2 1\npoint 2 0\npoint 1 1\n")
        out_path = tmp_path / "bowtie.svg"
        code, _, err = run_main(capsys, "svg", "--construction", "guldin", "--profile",
                                str(bowtie), "--out", str(out_path))
        assert code == 3
        assert "self-intersecting" in err
        assert not out_path.exists()

    def test_unwritable_path_exits_four(self, capsys):
        code, _, _ = run_main(capsys, "svg", "--construction", "unroll", "--out",
                              "/no/such/dir/out.svg")
        assert code == 4

    def test_guldin_requires_profile(self):
        with pytest.raises(SystemExit) as err:
            main(["svg", "--construction", "guldin", "--out", "x.svg"])
        assert err.value.code == 2


class TestDeterminism:
    def _run(self, *argv):
        proc = subprocess.run(
            [sys.executable, "-m", "indivisibles.cli", *argv],
            capture_output=True,
            check=False,
        )
        return proc.returncode, proc.stdout

    def test_bounds_and_oracle_bytes_stable(self):
        for argv in (
            ("bounds", "--shape", "disk", "--slices", "500"),
            ("oracle", "--target", "disk", "--samples", "100000", "--seed", "42"),
        ):
            code1, out1 = self._run(*argv)
            code2, out2 = self._run(*argv)
            assert code1 == code2 == 0
            assert out1 == out2

    def test_svg_bytes_stable(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert self._run("svg", "--construction", "unroll", "--n", "12", "--out", str(a))[0] == 0
        assert self._run("svg", "--construction", "unroll", "--n", "12", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_check_report_bytes_stable(self):
        argv = ("check", str(SCRIPTS_DIR / "guldin.igeo"), "--format", "report")
        code1, out1 = self._run(*argv)
        code2, out2 = self._run(*argv)
        assert code1 == code2 == 0
        assert out1 == out2
