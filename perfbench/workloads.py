"""The benchmark's four workloads.

Each workload makes its inputs from the seed (the golden Monte Carlo cases
keep their pinned seed 42) and turns them into a list of operations.  An
operation calls into ``indivisibles``, returns a small value, and has a check
that says whether the value is right.  Every call into a layer goes through
the tracer, which is a no-op in untraced passes.
"""

from __future__ import annotations

import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import indivisibles as iv
from indivisibles import cli
from indivisibles.dsl import evaluate, parse

from spans import NullTracer
from stats import per_pass_total, rate, timing


class Defect(str):
    """Check result: the operation shows a defect that ROADMAP.md records."""


@dataclass(frozen=True)
class Raised:
    """Output of an operation that raised instead of returning."""

    kinds: tuple[str, ...]
    message: str

    @classmethod
    def of(cls, exc: Exception) -> "Raised":
        return cls(tuple(c.__name__ for c in type(exc).__mro__), str(exc))


@dataclass
class Op:
    """One checked call.  ``fn(state)`` runs it and ``check(output)`` returns
    None when the output is right, else the reason (a ``Defect`` for a known
    defect).  ``state`` is shared by the operations of one pass."""

    name: str
    kind: str
    fn: Callable[[dict], object]
    check: Callable[[object], str | None]
    work: int = 0


@dataclass
class Context:
    """Where the workloads read and write, and how they start the CLI."""

    root: Path
    tmp: Path
    env: dict = field(default_factory=dict)

    @classmethod
    def create(cls, root: Path, tmp: Path) -> "Context":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        return cls(root=root, tmp=tmp, env=env)


def run_child(ctx: Context, args: list[str]) -> tuple[int, str]:
    """Run this interpreter on ``args`` in the checkout; exit code and stdout."""
    done = subprocess.run([sys.executable, *args], cwd=ctx.root, env=ctx.env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=170)
    return done.returncode, done.stdout.decode()


# A child's ru_maxrss also covers the memory of the process it was forked
# from, so a child of the benchmark would report the benchmark's own size.
# This launcher is small; it forks the real child and prints that child's
# peak RSS in kB to stderr.
_LAUNCHER = """import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable] + sys.argv[1:])
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss, file=sys.stderr)
"""


def child_peak_rss_kb(ctx: Context, args: list[str]) -> int:
    """Peak RSS of ``python *args``, measured through the small launcher."""
    done = subprocess.run([sys.executable, "-S", "-I", "-c", _LAUNCHER, *args], cwd=ctx.root, env=ctx.env,
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=170)
    return int(done.stderr.split()[-1])


class Workload:
    """Interface of a workload; ``probes`` are the traced-only layer probes
    that run after a traced pass, outside its wall time."""

    name = ""
    warm_pass = True  # run one untimed pass first

    def inputs(self, ctx: Context, seed: int, small: bool = False) -> dict:
        raise NotImplementedError

    def warmup(self, inp: dict):
        raise NotImplementedError

    def ops(self, ctx: Context, inp: dict, tr) -> list[Op]:
        raise NotImplementedError

    def probes(self, ctx: Context, inp: dict, tr) -> list[Op]:
        return []

    def child_peak_rss_kb(self, ctx: Context, inp: dict) -> int | None:
        """Peak RSS of the workload's child processes, if it has any."""
        return None

    def report(self, records) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# shared helpers


def star_points(rng, n, center=(0.0, 0.0), r_min=0.5, r_max=2.0):
    """Vertices of a random star-shaped (hence simple) polygon."""
    jitter = rng.uniform(0.1, 0.9, n)
    angles = 2.0 * math.pi * (np.arange(n) + jitter) / n
    radii = rng.uniform(r_min, r_max, n)
    xs = center[0] + radii * np.cos(angles)
    ys = center[1] + radii * np.sin(angles)
    return [(float(x), float(y)) for x, y in zip(xs, ys)]


def shoelace(points) -> tuple[float, float, float]:
    """Area, integral of x dA and integral of y dA of a simple ring."""
    xy = np.asarray(points, dtype=np.float64)
    x, y = xy[:, 0], xy[:, 1]
    x1, y1 = np.roll(x, -1), np.roll(y, -1)
    cross = x * y1 - x1 * y
    sign = 1.0 if cross.sum() >= 0.0 else -1.0
    return sign * cross.sum() / 2.0, sign * ((x + x1) * cross).sum() / 6.0, sign * ((y + y1) * cross).sum() / 6.0


def figure_eight(n: int):
    """Two circular lobes of opposite orientation through a shared vertex."""
    m = n // 2
    angles = math.pi + 2.0 * math.pi * np.arange(1, m) / m
    right = [(float(1.0 + math.cos(a)), float(math.sin(a))) for a in angles]
    return [(0.0, 0.0)] + right + [(0.0, 0.0)] + [(-x, y) for x, y in right]


def close_to(value, expected, rel) -> str | None:
    if abs(value - expected) <= rel * abs(expected):
        return None
    return f"{value!r} differs from {expected!r} by more than {rel} relative"


def _close(expected, rel):
    return lambda value: close_to(value, expected, rel)


def _equal_pieces(rel):
    def check(pieces):
        pos, neg = pieces
        return close_to(pos, neg, rel) if pos > 0.0 else f"empty piece {pieces!r}"

    return check


def _call(tr, span, fn, *args):
    return lambda state: tr.call(span, fn, *args)


def _points(args) -> int:
    return int(np.size(args[0]))


# Validated construction is what exact_geometry measures; the keyword is
# passed only while Polygon still accepts it.
VALIDATE = {"check_simple": True} if "check_simple" in inspect.signature(iv.Polygon).parameters else {}


# ---------------------------------------------------------------------------
# oracle_mc


GOLDEN_CASES = {
    "disk_r1_area": (lambda x, y: x * x + y * y <= 1.0, ((-1, 1), (-1, 1))),
    "sphere_r1_volume": (lambda x, y, z: x * x + y * y + z * z <= 1.0, ((-1, 1), (-1, 1), (-1, 1))),
    "hoof_r1_h1_volume": (
        lambda x, y, z: (x * x + y * y <= 1.0) & (y >= 0.0) & (z <= y),
        ((-1, 1), (0, 1), (0, 1)),
    ),
    "torus_R3_r1_volume": (
        lambda x, y, z: (np.hypot(x, y) - 3.0) ** 2 + z * z <= 1.0,
        ((-4, 4), (-4, 4), (-1, 1)),
    ),
}


def _mc_op(tr, name, membership, box, samples, seed, check):
    box_measure = float(np.prod([hi - lo for lo, hi in box]))
    estimate = iv.mc_area if len(box) == 2 else iv.mc_volume
    traced_membership = tr.wrap("oracle.membership", membership)

    def fn(state):
        with tr.span("oracle.mc") as sp:
            est = estimate(traced_membership, box, samples, seed)
        sp.count(samples=samples, hits=round(est.mean * samples / box_measure))
        return est

    return Op(name, "mc", fn, check, work=samples)


def _within_5_stderr(closed_form):
    def check(est):
        err = abs(est.mean - closed_form)
        if err <= 5.0 * est.stderr:
            return None
        return f"estimate {est.mean!r} lies {err!r} from {closed_form!r}, over 5 stderr {est.stderr!r}"

    return check


def _matches_pin(pin):
    def check(est):
        got = (repr(est.mean), repr(est.stderr), est.samples, est.seed)
        want = (pin["mean"], pin["stderr"], pin["samples"], pin["seed"])
        return None if got == want else f"golden pin {want} reproduced as {got}"

    return check


class OracleMC(Workload):
    """The four pinned golden cases, plus one guldin --verify style estimate
    whose predicate is point-in-polygon on a 64-vertex profile."""

    name = "oracle_mc"

    def inputs(self, ctx: Context, seed: int, small: bool = False) -> dict:
        pins = json.loads((ctx.root / "tests" / "data" / "golden_estimates.json").read_text())
        rng = np.random.default_rng(seed)
        points = star_points(rng, 64, center=(3.0, 0.0), r_min=0.5, r_max=1.0)
        return {
            "pins": pins,
            "scale": 100 if small else 1,
            "profile": iv.Polygon(points),
            "volume": 2.0 * math.pi * shoelace(points)[1],
            "seed": seed % 2**64,
        }

    def warmup(self, inp: dict):
        membership, box = GOLDEN_CASES["sphere_r1_volume"]
        iv.mc_volume(membership, box, 10_000, 1)

    def ops(self, ctx: Context, inp: dict, tr) -> list[Op]:
        ops = []
        for name, (membership, box) in GOLDEN_CASES.items():
            pin = inp["pins"][name]
            samples = pin["samples"] // inp["scale"]
            if samples == pin["samples"]:
                check = _matches_pin(pin)
            else:
                check = _within_5_stderr(float(pin["closed_form"]))
            ops.append(_mc_op(tr, f"golden.{name}", membership, box, samples, pin["seed"], check))

        polygon = inp["profile"]
        (_, rho1), (z0, z1) = iv.bounding_box(polygon)
        contains = tr.wrap("geometry.contains", iv.contains, points=lambda args: int(np.size(args[1])))

        def inside(xs, ys, zs):
            return contains(polygon, np.hypot(xs, ys), zs)

        box = ((-rho1, rho1), (-rho1, rho1), (z0, z1))
        samples = 200_000 // inp["scale"]
        ops.append(_mc_op(tr, "mc.contains_profile64", inside, box, samples, inp["seed"], _within_5_stderr(inp["volume"])))
        return ops

    def report(self, records) -> dict:
        return {"mc_msamples_per_s": rate(records, "mc", 1e6)}


# ---------------------------------------------------------------------------
# enclosure


def _profile(tr, span, shape, r, h):
    """Width or section profile of a named shape, and its closed-form measure."""
    if shape == "disk":
        fn = lambda y: 2.0 * np.sqrt(np.maximum(r * r - y * y, 0.0))  # noqa: E731
        spec = ((-r, r), (0.0,), ("increasing", "decreasing"))
        closed, cls = math.pi * r * r, iv.WidthFunction
    elif shape == "sphere":
        fn = lambda z: math.pi * np.maximum(r * r - z * z, 0.0)  # noqa: E731
        spec = ((-r, r), (0.0,), ("increasing", "decreasing"))
        closed, cls = 4.0 * math.pi * r**3 / 3.0, iv.SectionFunction
    elif shape == "cone":
        fn = lambda z: math.pi * r * r * (1.0 - z / h) ** 2  # noqa: E731
        spec = ((0.0, h), (), ("decreasing",))
        closed, cls = math.pi * r * r * h / 3.0, iv.SectionFunction
    else:  # hoof, sliced perpendicular to its base diameter
        fn = lambda y: 2.0 * (h / r) * y * np.sqrt(np.maximum(r * r - y * y, 0.0))  # noqa: E731
        spec = ((0.0, r), (r / math.sqrt(2.0),), ("increasing", "decreasing"))
        closed, cls = 2.0 * r * r * h / 3.0, iv.SectionFunction
    domain, breakpoints, monotonicity = spec
    profile = cls(tr.wrap(span, fn, points=_points), domain=domain, breakpoints=breakpoints, monotonicity=monotonicity)
    return profile, closed


def _encloses(closed_form, tol=None):
    def check(interval):
        if closed_form not in interval:
            return f"[{interval.lo!r}, {interval.hi!r}] misses {closed_form!r}"
        if tol is not None and interval.width > tol:
            return f"width {interval.width!r} above tolerance {tol!r}"
        return None

    return check


class Enclosure(Workload):
    """Certified staircase enclosures, refinement to a tolerance, and the
    midpoint Riemann and boundary quadrature oracles."""

    name = "enclosure"
    SHAPES = ("disk", "sphere", "cone", "hoof")

    def inputs(self, ctx: Context, seed: int, small: bool = False) -> dict:
        rng = np.random.default_rng(seed)
        dims = {shape: (float(rng.uniform(0.8, 1.25)), float(rng.uniform(0.8, 1.25))) for shape in self.SHAPES}
        center = (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        return {
            "dims": dims,
            "n": 10**4 if small else 10**6,
            "tol": 1e-3 if small else 1e-5,
            "per_edge": 8 if small else 64,
            "polyline": star_points(rng, 64 if small else 512, center=center),
            "circle": (center, float(rng.uniform(0.5, 2.0))),
            "probe_n": 2**12 if small else 2**22,
        }

    def warmup(self, inp: dict):
        width, _ = _profile(NullTracer(), "", "disk", 1.0, 1.0)
        iv.area_bounds(width, 10_000)

    def ops(self, ctx: Context, inp: dict, tr) -> list[Op]:
        ops = []
        n = inp["n"]
        for shape in self.SHAPES:
            profile, closed = _profile(tr, "exhaustion.profile", shape, *inp["dims"][shape])
            bounds = iv.volume_bounds if isinstance(profile, iv.SectionFunction) else iv.area_bounds
            fn = _call(tr, "exhaustion.staircase", bounds, profile, n)
            ops.append(Op(f"bounds.{shape}", "staircase", fn, _encloses(closed), work=n))
        for shape, power in (("disk", 2), ("sphere", 3)):
            r, h = inp["dims"][shape]
            profile, closed = _profile(tr, "exhaustion.profile", shape, r, h)
            # the tolerance scales with the measure, so the slab count that
            # reaches it, and so the work, does not depend on the seeded radius
            tol = inp["tol"] * r**power

            def refine(state, profile=profile, tol=tol):
                with tr.span("exhaustion.refine") as sp:
                    interval = iv.refine_until(profile, tol, 1 << 24)
                sp.count(edges=interval.slabs + 1)
                return interval

            ops.append(Op(f"refine.{shape}", "refine", refine, _encloses(closed, tol)))
        for shape in self.SHAPES:
            profile, closed = _profile(tr, "oracle.integrand", shape, *inp["dims"][shape])
            fn = _call(tr, "oracle.riemann", iv.riemann_volume, profile, n)
            # midpoint error at a square-root endpoint (disk, hoof) is O(n^-1.5)
            ops.append(Op(f"riemann.{shape}", "riemann", fn, _close(closed, 2.0 * n**-1.5), work=n))

        ring = inp["polyline"] + inp["polyline"][:1]
        first_moment = sum(math.hypot(q[0] - p[0], q[1] - p[1]) * 0.5 * (p[0] + q[0]) for p, q in zip(ring, ring[1:]))
        polyline = iv.Polyline(inp["polyline"], closed=True)
        x = tr.wrap("oracle.integrand", lambda xs, ys: xs, points=_points)
        fn = _call(tr, "oracle.boundary", iv.boundary_integral, polyline, x, inp["per_edge"])
        ops.append(Op("boundary.polyline", "boundary", fn, _close(first_moment, 1e-9),
                      work=len(inp["polyline"]) * inp["per_edge"]))
        (cx, cy), radius = inp["circle"]
        circle = iv.CircleArc(iv.Point2(cx, cy), radius)
        x_squared = tr.wrap("oracle.integrand", lambda xs, ys: xs * xs, points=_points)
        fn = _call(tr, "oracle.boundary", iv.boundary_integral, circle, x_squared, n)
        exact = 2.0 * math.pi * radius * (cx * cx + radius * radius / 2.0)
        ops.append(Op("boundary.circle", "boundary", fn, _close(exact, 1e-9), work=n))

        # ROADMAP item 3: the fixed relative widening is too small at large n
        probe_n = inp["probe_n"]
        constant = iv.WidthFunction(tr.wrap("exhaustion.profile", lambda y: np.full_like(y, 0.1), points=_points),
                                    domain=(0.0, 1.0), monotonicity=("increasing",))

        def probe_check(interval):
            if 0.1 in interval:
                return None
            return Defect(f"constant width 0.1 at n={probe_n}: [{interval.lo!r}, {interval.hi!r}] misses 0.1")

        fn = _call(tr, "exhaustion.staircase", iv.area_bounds, constant, probe_n)
        ops.append(Op("defect.constant_width", "probe", fn, probe_check, work=probe_n))
        return ops

    def report(self, records) -> dict:
        return {
            "time_to_tol_s": per_pass_total(records, "refine"),
            "enclosure_mslabs_per_s": rate(records, "staircase", 1e6),
            "riemann_mcells_per_s": rate(records, "riemann", 1e6),
        }


# ---------------------------------------------------------------------------
# exact_geometry


class ExactGeometry(Workload):
    """Validated polygons and the exact measures, transforms, oblique cuts and
    Pappus-Guldin identities built on them, all in pure Python."""

    name = "exact_geometry"

    def inputs(self, ctx: Context, seed: int, small: bool = False) -> dict:
        rng = np.random.default_rng(seed)
        n_small, n_big = (32, 64) if small else (512, 2048)
        polygons = {}
        for key, n in ((f"{n_small}a", n_small), (f"{n_small}b", n_small), (str(n_big), n_big)):
            points = star_points(rng, n)
            polygons[key] = {
                "n": n,
                "points": points,
                "measures": shoelace(points),
                "angle": float(rng.uniform(0.0, math.pi)),
            }
        base = polygons[f"{n_small}b"]["points"]
        return {
            "polygons": polygons,
            "shear": (float(rng.uniform(-2, 2)), float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.5, 2.0))),
            "slope": float(rng.uniform(0.5, 2.0)),
            "profile": [(x + 3.0, y) for x, y in base],
            "halfdisk": ((float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))), float(rng.uniform(0.5, 2.0)),
                         float(rng.uniform(0.0, 2.0 * math.pi))),
            "slab": float(rng.uniform(0.5, 2.0)),
            "disk": ((float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))), float(rng.uniform(0.5, 2.0))),
            "sphere": float(rng.uniform(0.5, 2.0)),
            "unroll_n": 64 if small else 4096,
            "meridian_n": 64 if small else 4096,
            "figure_eight": figure_eight(60 if small else 600),
        }

    def warmup(self, inp: dict):
        iv.Polygon(star_points(np.random.default_rng(0), 64), **VALIDATE)

    def ops(self, ctx: Context, inp: dict, tr) -> list[Op]:
        ops = []
        slope = inp["slope"]
        # shearing re-validates the polygon, which for the large one would
        # only repeat the construction cost, so only the small ones are sheared
        min_n = min(spec["n"] for spec in inp["polygons"].values())
        for key, spec in inp["polygons"].items():
            ops += self._polygon_ops(tr, key, spec, inp["shear"], slope, shear=spec["n"] == min_n)
        ops += self._region_ops(tr, inp, slope)
        ops += self._construction_ops(tr, inp)
        return ops

    @staticmethod
    def _polygon_ops(tr, key, spec, shear_spec, slope, shear) -> list[Op]:
        points, n = spec["points"], spec["n"]
        direction = (math.cos(spec["angle"]), math.sin(spec["angle"]))
        a_ref, sx_ref, sy_ref = spec["measures"]
        scale = max(abs(c) for p in points for c in p)

        def construct(state):
            with tr.span("geometry.polygon") as sp:
                sp.count(vertices=n)
                state[key] = iv.Polygon(points, **VALIDATE)
            return len(state[key].vertices)

        def measures(state):
            poly = state[key]
            a = tr.call("geometry.measures", iv.area, poly)
            c = tr.call("geometry.measures", iv.centroid_region, poly)
            m = tr.call("geometry.measures", iv.first_moment, poly, iv.Line2(c, direction))
            state[key + ".centroid"] = c
            return a, c.x, c.y, m

        def check_measures(out):
            a, cx, cy, m = out
            off = math.hypot(cx - sx_ref / a_ref, cy - sy_ref / a_ref)
            return (close_to(a, a_ref, 1e-12)
                    or (None if off <= 1e-9 * scale else f"centroid ({cx!r}, {cy!r}) off by {off!r}")
                    or (None if abs(m) <= 1e-9 * a * scale else f"moment {m!r} about a centroid line"))

        def sheared_area(state):
            offset, angle, k = shear_spec
            base = iv.Line2(iv.Point2(0.0, offset), (math.cos(angle), math.sin(angle)))
            sheared = tr.call("transforms", iv.shear_region, state[key], base, k)
            return tr.call("geometry.measures", iv.area, sheared)

        def cut(state):
            line = iv.Line2(state[key + ".centroid"], direction)
            return tr.call("solids.oblique_cut", iv.oblique_cut_volumes, state[key], line, slope)

        def cut_wall(state):
            ring = tr.call("geometry.measures", iv.boundary, state[key])
            c = tr.call("geometry.measures", iv.centroid_curve, ring)
            return tr.call("solids.oblique_cut", iv.oblique_cut_lateral_areas, ring, iv.Line2(c, direction), slope)

        ops = [
            Op(f"polygon.{key}", f"polygon.{n}", construct, lambda v: None if v == n else f"{v} vertices, not {n}"),
            Op(f"measures.{key}", "measures", measures, check_measures),
            Op(f"oblique_cut.{key}", "oblique_cut", cut, _equal_pieces(1e-9)),
            Op(f"oblique_wall.{key}", "oblique_cut", cut_wall, _equal_pieces(1e-9)),
        ]
        if shear:
            ops.append(Op(f"shear.{key}", "transforms", sheared_area, _close(a_ref, 1e-9)))
        return ops

    @staticmethod
    def _region_ops(tr, inp, slope) -> list[Op]:
        (hx, hy), hr, hangle = inp["halfdisk"]
        halfdisk = iv.HalfDisk(iv.Point2(hx, hy), hr, (math.cos(hangle), math.sin(hangle)))
        a = inp["slab"]
        slab = iv.SlabRegion(iv.WidthFunction(lambda y: a * (1.0 - y * y), domain=(-1.0, 1.0),
                                              breakpoints=(0.0,), monotonicity=("increasing", "decreasing")))

        def cut_through_centroid(region, angle):
            def fn(state):
                c = tr.call("geometry.measures", iv.centroid_region, region)
                line = iv.Line2(c, (math.cos(angle), math.sin(angle)))
                return tr.call("solids.oblique_cut", iv.oblique_cut_volumes, region, line, slope)

            return fn

        return [
            # the half-disk centroid is exact while its cut is a 4096-slab
            # quadrature, hence the looser tolerance
            Op("oblique_cut.halfdisk", "oblique_cut", cut_through_centroid(halfdisk, hangle + 0.3), _equal_pieces(1e-6)),
            Op("oblique_cut.slab", "oblique_cut", cut_through_centroid(slab, 0.3), _equal_pieces(1e-9)),
        ]

    @staticmethod
    def _construction_ops(tr, inp) -> list[Op]:
        profile_points = inp["profile"]
        volume_ref = 2.0 * math.pi * shoelace(profile_points)[1]

        def guldin(state):
            with tr.span("geometry.polygon") as sp:
                sp.count(vertices=len(profile_points))
                section = iv.Polygon(profile_points, **VALIDATE)
            profile = tr.call("geometry.measures", iv.Profile, section)
            ring = tr.call("geometry.measures", iv.boundary, section)
            vol = tr.call("solids.guldin", iv.guldin_volume, profile)
            surf = tr.call("solids.guldin", iv.guldin_surface, ring, iv.rho_axis())
            unfolded = tr.call("transforms", iv.unfold_revolution, profile)
            return (vol, surf, tr.call("solids.measures", iv.volume, unfolded),
                    tr.call("solids.measures", iv.lateral_area, unfolded))

        def check_guldin(out):
            vol, surf, unfolded_vol, unfolded_wall = out
            return close_to(vol, volume_ref, 1e-12) or close_to(unfolded_vol, vol, 1e-12) or close_to(unfolded_wall, surf, 1e-12)

        (cx, cy), r = inp["disk"]
        n = inp["unroll_n"]
        chord, apothem = 2.0 * r * math.sin(math.pi / n), r * math.cos(math.pi / n)

        def unroll(state):
            sawtooth = tr.call("transforms", iv.unroll_disk, iv.Disk(iv.Point2(cx, cy), r), n)
            return tr.call("geometry.measures", iv.area, sawtooth)

        def check_unroll(a):
            disk = math.pi * r * r
            return close_to(a, n / 2.0 * chord * apothem, 1e-9) or close_to(a, disk, 1.5 * (math.pi / n) ** 2)

        rs, m = inp["sphere"], inp["meridian_n"]

        def meridian(state):
            hoofs = tr.call("transforms", iv.meridian_unfold, iv.Sphere(rs), m)
            return tr.call("solids.measures", iv.volume, hoofs), tr.call("solids.measures", iv.lateral_area, hoofs)

        def check_meridian(out):
            vol, wall = out
            stretch = m * math.tan(math.pi / m)
            return (close_to(vol, 4.0 / 3.0 * rs**3 * stretch, 1e-12) or close_to(wall, 4.0 * rs * rs * stretch, 1e-12)
                    or close_to(vol, 4.0 / 3.0 * math.pi * rs**3, (math.pi / m) ** 2))

        # ROADMAP item 4: a figure-eight whose lobes cancel must be rejected
        eight = inp["figure_eight"]

        def figure8(state):
            with tr.span("geometry.polygon") as sp:
                sp.count(vertices=len(eight))
                return iv.area(iv.Polygon(eight))

        def check_figure8(out):
            if isinstance(out, Raised):
                return None if {"ValueError", "GeometryError"} & set(out.kinds) else f"raised {out!r}"
            if isinstance(out, float):
                return Defect(f"{len(eight)}-vertex figure-eight accepted with area {out!r}")
            return f"returned {out!r}"

        return [
            Op("guldin.profile", "guldin", guldin, check_guldin),
            Op("unroll.disk", "transforms", unroll, check_unroll),
            Op("meridian.sphere", "transforms", meridian, check_meridian),
            Op("defect.figure_eight", "probe", figure8, check_figure8),
        ]

    def report(self, records) -> dict:
        out = {}
        for kind in sorted({r["kind"] for r in records if r["kind"].startswith("polygon.")}):
            ms = [1e3 * r["seconds"] for r in records if r["kind"] == kind]
            out["polygon_ms." + kind.split(".", 1)[1]] = timing(ms)
        return out


# ---------------------------------------------------------------------------
# cli_corpus

FIXTURES = {"designed_failure.igeo": 1, "parse_error.igeo": 2}


def _expect(code, *needles):
    def check(out):
        if out[0] != code:
            return f"exit {out[0]}, expected {code}"
        missing = [s for s in needles if s not in out[1]]
        return f"stdout lacks {missing}" if missing else None

    return check


class CliCorpus(Workload):
    """Sequential ``python -m indivisibles.cli`` subprocesses: the script
    corpus, both failure fixtures, and each other subcommand once."""

    name = "cli_corpus"
    warm_pass = False  # each invocation is a fresh process

    def inputs(self, ctx: Context, seed: int, small: bool = False) -> dict:
        rng = np.random.default_rng(seed)
        work = Path(tempfile.mkdtemp(dir=ctx.tmp))
        profile = work / "ring.profile"
        lines = ["name ring"] + [f"point {x!r} {y!r}" for x, y in star_points(rng, 64, center=(3.0, 0.0),
                                                                              r_min=0.5, r_max=1.0)]
        profile.write_text("\n".join(lines) + "\n")
        bowtie = work / "bowtie.profile"
        bowtie.write_text("point 1 0\npoint 2 1\npoint 2 0\npoint 1 1\n")
        scripts = sorted(p.name for p in (ctx.root / "scripts").glob("*.igeo") if p.name not in FIXTURES)
        return {
            "scripts": scripts[:2] if small else scripts,
            "dims": [(f"{rng.uniform(0.5, 2.0)!r}", f"{rng.uniform(0.5, 2.0)!r}") for _ in range(4)],
            "seed": str(seed % 2**64),
            "profile": str(profile),
            "bowtie": str(bowtie),
            "svg": str(work / "unroll.svg"),
            "small": small,
        }

    def warmup(self, inp: dict):
        with redirect_stdout(io.StringIO()):
            cli.main(["bounds", "--shape", "disk"])

    def invocations(self, inp: dict) -> list[tuple[str, list[str], Callable]]:
        calls = [(f"check.{s}", ["check", "--format", "report", f"scripts/{s}"], _expect(0, "overall pass"))
                 for s in inp["scripts"]]
        calls += [(f"fixture.{s}", ["check", "--format", "report", f"scripts/{s}"], _expect(code))
                  for s, code in FIXTURES.items()]
        for shape, (r, h) in zip(("disk", "sphere", "cone", "hoof"), inp["dims"]):
            calls.append((f"bounds.{shape}", ["bounds", "--shape", shape, "--r", r, "--h", h],
                          _expect(0, "encloses_closed_form true")))
        seed = inp["seed"]
        calls += [
            ("oracle.mc", ["oracle", "--target", "sphere", "--samples", "20000", "--seed", seed],
             _expect(0, "within_5_stderr true")),
            ("oracle.riemann", ["oracle", "--target", "torus", "--method", "riemann", "--cells", "20000"],
             _expect(0, "value ")),
            ("guldin.verify", ["guldin", inp["profile"], "--verify", "--samples", "20000", "--seed", seed],
             _expect(0, "verify_within_5_stderr true")),
            ("svg.unroll", ["svg", "--construction", "unroll", "--n", "16", "-o", inp["svg"]], _expect(0)),
        ]
        if inp["small"]:
            calls = calls[:1] + calls[-2:]
        return calls

    def ops(self, ctx: Context, inp: dict, tr) -> list[Op]:
        ops = []
        svg = Path(inp["svg"])
        for name, args, check in self.invocations(inp):

            def invoke(state, name=name, args=args):
                with tr.span("cli.invocation"):
                    code, out = run_child(ctx, ["-m", "indivisibles.cli", *args])
                if name == "svg.unroll":
                    out += "sha256 " + hashlib.sha256(svg.read_bytes()).hexdigest()
                state[name] = (code, out)
                return code, out

            ops.append(Op(name, "cli", invoke, check))

        # ROADMAP item 4: a geometry error in a profile file must exit 3, not 4
        def bowtie(state):
            with tr.span("cli.invocation"):
                return run_child(ctx, ["-m", "indivisibles.cli", "guldin", inp["bowtie"]])

        def check_bowtie(out):
            if out[0] == 3:
                return None
            return Defect(f"self-intersecting profile exits {out[0]}, expected 3") if out[0] == 4 else f"exit {out[0]}"

        ops.append(Op("defect.guldin_exit_code", "cli", bowtie, check_bowtie))
        return ops

    def probes(self, ctx: Context, inp: dict, tr) -> list[Op]:
        """In-process replays that split one invocation into its layers."""
        probes = []
        for script in inp["scripts"]:
            source = (ctx.root / "scripts" / script).read_text()

            def replay(state, source=source):
                parsed = tr.call("dsl.parse", parse, source)
                with tr.span("dsl.evaluate") as sp:
                    sp.count(statements=len(parsed.statements))
                    report = evaluate(parsed)
                return report.overall_pass

            probes.append(Op(f"dsl.{script}", "probe", replay, lambda ok: None if ok else "assertions failed"))

        for name, args, _ in self.invocations(inp):
            if name == "svg.unroll":
                continue

            def in_process(state, name=name, args=args):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    try:
                        code = tr.call("cli.main", cli.main, args)
                    except SystemExit as exc:
                        code = exc.code
                return (code, out.getvalue()) == state[name]

            probes.append(Op(f"main.{name}", "probe", in_process,
                             lambda same: None if same else "in-process output differs from the subprocess"))
        return probes

    def child_peak_rss_kb(self, ctx: Context, inp: dict) -> int:
        """Largest child over one invocation of each subcommand kind."""
        seen, peak = set(), 0
        for name, args, _ in self.invocations(inp):
            kind = name.split(".", 1)[0]
            if kind not in seen:
                seen.add(kind)
                peak = max(peak, child_peak_rss_kb(ctx, ["-m", "indivisibles.cli", *args]))
        return peak

    def report(self, records) -> dict:
        return {"cli_ms": timing([1e3 * r["seconds"] for r in records if r["kind"] == "cli"])}


WORKLOADS = {w.name: w for w in (OracleMC(), Enclosure(), ExactGeometry(), CliCorpus())}
