"""Command-line front end.

Subcommands: check (run a script), bounds (certified enclosures), guldin
(profile-file volumes/surfaces), oracle (brute-force estimates), svg (diagram
emission).  Exit codes: 0 success, 1 assertion failure, 2 parse/usage error,
3 geometry or evaluation error, 4 I/O error; ``main`` alone maps a failure to
its code.  All output is deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from ._kernels import BACKEND
from .dsl import ParseError, RunReport, ScriptError, run_script
from .errors import GeometryError
from .exhaustion import SLAB_BUDGET, area_bounds, volume_bounds
from .geometry import (
    Disk,
    Point2,
    Polygon,
    Profile,
    area,
    boundary,
    centroid_curve,
    centroid_region,
    perimeter,
)
from .oracle import mc_area, mc_volume, riemann_volume
from .solids import Cone, Hoof, Point3, SolidOfRevolution, Sphere, lateral_area, volume
from .svg import render_bounds, render_guldin, render_unroll
from .transforms import UNROLL_BUDGET

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_PARSE = 2
EXIT_GEOMETRY = 3
EXIT_IO = 4

# Each --shape/--target name: its measure, the dimensions it reads, and the
# library object it stands for at them, which gives the closed form, section,
# membership and box.
SHAPES = {
    "disk": ("area", ("r",), lambda args: Disk(Point2(0.0, 0.0), args.r)),
    "sphere": ("volume", ("r",), lambda args: Sphere(args.r)),
    "cone": ("volume", ("r", "h"), lambda args: Cone(Disk(Point2(0.0, 0.0), args.r), Point3(0.0, 0.0, args.h))),
    "hoof": ("volume", ("r", "h"), lambda args: Hoof(args.r, args.h)),
    "torus": ("volume", ("r", "R"), lambda args: SolidOfRevolution(Profile(Disk(Point2(args.R, 0.0), args.r)))),
}

# the --shape names of bounds and svg, whose staircases slice these shapes
STAIRCASE_SHAPES = ("disk", "sphere", "cone", "hoof")

# closed form, certified enclosure and Monte Carlo estimate of each measure
MEASURES = {
    "area": (area, area_bounds, mc_area),
    "volume": (volume, volume_bounds, mc_volume),
}

# The most --slices each subcommand takes: bounds takes the library's slab
# budget; svg draws two rectangles per slab, and 2**16 of them are about a
# second and 15 MB of SVG.
SLICE_BUDGET = {"bounds": SLAB_BUDGET, "svg": 2**16}


class _FileError(Exception):
    """A file that cannot be read, parsed as a profile, or written: exit 4."""


def _read_text(path: str) -> str:
    """The UTF-8 text of ``path``; a file that cannot be read raises _FileError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _FileError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise _FileError(f"cannot read {path}: not UTF-8 text") from None


def _emit(pairs) -> str:
    lines = [f"schema_version {SCHEMA_VERSION}", f"tool indivisibles {__version__}"]
    for key, value in pairs:
        if isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} {value}")
    return "\n".join(lines) + "\n"


# --- check ------------------------------------------------------------------


def _check_report(path: str, report: RunReport) -> str:
    pairs = [("command", "check"), ("script", path)]
    for i, rec in enumerate(report.records, start=1):
        pairs.append(
            (
                f"assertion {i}",
                f"line {rec.line} column {rec.column} left {rec.left_value!r} "
                f"right {rec.right_value!r} diff {rec.difference!r} tol {rec.tolerance!r} "
                f"{'pass' if rec.passed else 'fail'}",
            )
        )
    failures = sum(1 for r in report.records if not r.passed)
    pairs.append(("assertions", len(report.records)))
    pairs.append(("failures", failures))
    pairs.append(("overall", "pass" if report.overall_pass else "fail"))
    return _emit(pairs)


def _check_human(path: str, report: RunReport) -> str:
    lines = [f"script {path}"]
    for rec in report.records:
        verdict = "PASS" if rec.passed else "FAIL"
        lines.append(
            f"{verdict}  line {rec.line:>3}  |{rec.left_value!r} - {rec.right_value!r}| "
            f"= {rec.difference!r}  tol {rec.tolerance!r}"
        )
    failures = sum(1 for r in report.records if not r.passed)
    lines.append(f"{len(report.records)} assertions, {failures} failures")
    return "\n".join(lines) + "\n"


def cmd_check(args) -> int:
    report = run_script(_read_text(args.script))
    out = _check_report(args.script, report) if args.format == "report" else _check_human(args.script, report)
    sys.stdout.write(out)
    return EXIT_OK if report.overall_pass else EXIT_ASSERTION


# --- bounds -----------------------------------------------------------------


def _usage_error(message: str):
    print(f"usage error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_PARSE)


def _require_positive(parser_hint: str, **values) -> None:
    for name, value in values.items():
        if not 0 < value < math.inf:
            _usage_error(f"--{name} must be positive and finite for {parser_hint}")


def _require_slices(command: str, slices: int) -> None:
    if slices > SLICE_BUDGET[command]:
        _usage_error(f"--slices must be at most {SLICE_BUDGET[command]} for {command}")


def _require_seed(parser_hint: str, seed: int) -> None:
    if not 0 <= seed < 2**64:
        _usage_error(f"--seed must lie in [0, 2**64) for {parser_hint}")


def _named_shape(name: str, args):
    """The measure, the library object and its closed form that a --shape/--target
    name stands for.  The closed form is checked by the library: one that is not
    finite or underflows to 0 raises a GeometryError."""
    kind, _, build = SHAPES[name]
    shape = build(args)
    return kind, shape, MEASURES[kind][0](shape)


def cmd_bounds(args) -> int:
    _require_positive("bounds", r=args.r, h=args.h, slices=args.slices)
    _require_slices("bounds", args.slices)
    kind, shape, closed = _named_shape(args.shape, args)
    _, bounds, _ = MEASURES[kind]
    interval = bounds(shape.section(), args.slices)
    encloses = closed in interval
    pairs = [("command", "bounds"), ("shape", args.shape)]
    pairs += [(dim, float(getattr(args, dim))) for dim in SHAPES[args.shape][1]]
    pairs += [
        ("slices", args.slices),
        ("measure", kind),
        ("method", interval.method),
        ("slabs", interval.slabs),
        ("lo", interval.lo),
        ("hi", interval.hi),
        ("width", interval.width),
        ("closed_form", closed),
        ("encloses_closed_form", "true" if encloses else "false"),
    ]
    sys.stdout.write(_emit(pairs))
    return EXIT_OK if encloses else EXIT_ASSERTION


# --- guldin -----------------------------------------------------------------


def read_profile_file(path: str) -> tuple[str, list[tuple[float, float]]]:
    """Parse a profile file: optional ``name`` line plus ``point rho z`` lines.
    A file that cannot be read or parsed raises _FileError."""
    name = "-"
    points: list[tuple[float, float]] = []
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "name":
            if len(parts) < 2:
                raise _FileError(f"{path}:{lineno}: name line needs a value")
            name = " ".join(parts[1:])
            continue
        if parts[0] == "point":
            if len(parts) != 3:
                raise _FileError(f"{path}:{lineno}: point line needs two coordinates")
            try:
                points.append((float(parts[1]), float(parts[2])))
            except ValueError:
                raise _FileError(f"{path}:{lineno}: bad coordinate") from None
            continue
        raise _FileError(f"{path}:{lineno}: expected 'name' or 'point', got {parts[0]!r}")
    if len(points) < 3:
        raise _FileError(f"{path}: a profile needs at least 3 points")
    if points[0] == points[-1]:
        raise _FileError(f"{path}: closure is implicit; first point must differ from last")
    return name, points


def cmd_guldin(args) -> int:
    if args.verify:
        _require_positive("guldin --verify", samples=args.samples)
        _require_seed("guldin --verify", args.seed)
    name, points = read_profile_file(args.profile)
    polygon = Polygon(points)
    solid = SolidOfRevolution(Profile(polygon))
    ring = boundary(polygon)
    c_region = centroid_region(polygon)
    c_curve = centroid_curve(ring)
    vol = volume(solid)
    surf = lateral_area(solid)
    pairs = [
        ("command", "guldin"),
        ("profile", args.profile),
        ("name", name),
        ("points", len(polygon.xy())),
        ("area", area(polygon)),
        ("perimeter", perimeter(ring)),
        ("centroid_rho", c_region.x),
        ("centroid_z", c_region.y),
        ("curve_centroid_rho", c_curve.x),
        ("curve_centroid_z", c_curve.y),
        ("volume", vol),
        ("surface", surf),
    ]
    verified = True
    if args.verify:
        est = mc_volume(solid.contains, solid.box(), samples=args.samples, seed=args.seed)
        err = abs(est.mean - vol)
        verified = err <= 5.0 * est.stderr
        pairs += [
            ("verify_samples", est.samples),
            ("verify_seed", est.seed),
            ("verify_mean", est.mean),
            ("verify_stderr", est.stderr),
            ("verify_abs_error", err),
            ("verify_within_5_stderr", "true" if verified else "false"),
        ]
    sys.stdout.write(_emit(pairs))
    return EXIT_OK if verified else EXIT_ASSERTION


# --- oracle -----------------------------------------------------------------


def cmd_oracle(args) -> int:
    _require_positive("oracle", r=args.r, R=args.R, h=args.h, samples=args.samples, cells=args.cells)
    _require_seed("oracle", args.seed)
    kind, shape, closed = _named_shape(args.target, args)
    _, _, mc = MEASURES[kind]
    pairs = [
        ("command", "oracle"),
        ("target", args.target),
        ("method", args.method),
    ]
    passed = True
    if args.method == "mc":
        est = mc(shape.contains, shape.box(), args.samples, args.seed)
        passed = abs(est.mean - closed) <= 5.0 * est.stderr
        pairs += [
            ("samples", est.samples),
            ("seed", est.seed),
            ("mean", est.mean),
            ("stderr", est.stderr),
            ("closed_form", closed),
            ("abs_error", abs(est.mean - closed)),
            ("within_5_stderr", "true" if passed else "false"),
        ]
    else:  # riemann
        value = riemann_volume(shape.section(), args.cells)
        pairs += [
            ("cells", args.cells),
            ("value", value),
            ("closed_form", closed),
            ("abs_error", abs(value - closed)),
        ]
    sys.stdout.write(_emit(pairs))
    return EXIT_OK if passed else EXIT_ASSERTION


# --- svg --------------------------------------------------------------------


def cmd_svg(args) -> int:
    if args.construction == "unroll":
        _require_positive("svg", r=args.r)
        if not 3 <= args.n <= UNROLL_BUDGET:
            _usage_error(f"--n must lie in [3, {UNROLL_BUDGET}] for svg --construction unroll")
        content = render_unroll(args.r, args.n)
    elif args.construction == "bounds":
        _require_positive("svg", r=args.r, h=args.h, slices=args.slices)
        _require_slices("svg", args.slices)
        _, shape, _ = _named_shape(args.shape, args)
        content = render_bounds(shape.section(), args.slices)
    else:  # guldin
        content = render_guldin(Polygon(read_profile_file(args.profile)[1]))
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
    except OSError as exc:
        raise _FileError(f"cannot write {args.out}: {exc.strerror}") from None
    return EXIT_OK


# --- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indivisibles",
        description="Measure-preserving geometry: certified bounds, Guldin theorems, script checking.",
    )
    parser.add_argument("--version", action="version", version=f"indivisibles {__version__} ({BACKEND})")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a construction script and check its assertions")
    p_check.add_argument("script")
    p_check.add_argument("--format", choices=("human", "report"), default="human")
    p_check.set_defaults(func=cmd_check)

    p_bounds = sub.add_parser("bounds", help="certified inner/outer enclosure of a named shape")
    p_bounds.add_argument("--shape", choices=STAIRCASE_SHAPES, required=True)
    p_bounds.add_argument("--r", type=float, default=1.0)
    p_bounds.add_argument("--h", type=float, default=1.0)
    p_bounds.add_argument("--slices", type=int, default=1000)
    p_bounds.set_defaults(func=cmd_bounds)

    p_guldin = sub.add_parser("guldin", help="revolution measures of a profile file")
    p_guldin.add_argument("profile")
    p_guldin.add_argument("--verify", action="store_true", help="cross-check the volume by Monte Carlo")
    p_guldin.add_argument("--samples", type=int, default=200000)
    p_guldin.add_argument("--seed", type=int, default=42)
    p_guldin.set_defaults(func=cmd_guldin)

    p_oracle = sub.add_parser("oracle", help="brute-force estimate of a named measure")
    p_oracle.add_argument("--target", choices=("disk", "sphere", "hoof", "torus"), required=True)
    p_oracle.add_argument("--method", choices=("mc", "riemann"), default="mc")
    p_oracle.add_argument("--r", type=float, default=1.0)
    p_oracle.add_argument("--R", type=float, default=3.0)
    p_oracle.add_argument("--h", type=float, default=1.0)
    p_oracle.add_argument("--samples", type=int, default=1000000)
    p_oracle.add_argument("--seed", type=int, default=42)
    p_oracle.add_argument("--cells", type=int, default=1000000)
    p_oracle.set_defaults(func=cmd_oracle)

    p_svg = sub.add_parser("svg", help="emit a deterministic SVG diagram of a construction")
    p_svg.add_argument("--construction", choices=("unroll", "bounds", "guldin"), required=True)
    p_svg.add_argument("--r", type=float, default=1.0)
    p_svg.add_argument("--h", type=float, default=1.0)
    p_svg.add_argument("--n", type=int, default=16)
    p_svg.add_argument("--shape", choices=STAIRCASE_SHAPES, default="disk")
    p_svg.add_argument("--slices", type=int, default=12)
    p_svg.add_argument("--profile", help="profile file for --construction guldin")
    p_svg.add_argument("--out", "-o", required=True)
    p_svg.set_defaults(func=cmd_svg)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "svg" and args.construction == "guldin" and not args.profile:
        parser.error("svg --construction guldin needs --profile")
    try:
        return args.func(args)
    except ParseError as exc:
        code, message = EXIT_PARSE, f"parse error: {exc}"
    except _FileError as exc:
        code, message = EXIT_IO, f"error: {exc}"
    except (GeometryError, ScriptError, ValueError) as exc:
        code, message = EXIT_GEOMETRY, f"error: {exc}"
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
