"""Exact planar primitives: regions, curves, areas, lengths, centroids, moments.

Regions and curves are immutable value types; each kind holds its own facts
as methods, and the module-level functions defer to them.  Polygons and disks
(and half-disks) carry exact closed-form measures; slab regions carry a width
profile and a declared quadrature resolution, since no exact form exists for
them.  First moments about a line use the left-of-direction sign convention.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import combinations
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from ._kernels import ordered_sum
from .errors import (
    AxisCrossing,
    DegenerateCurve,
    DegenerateRegion,
    GeometryError,
    UnsupportedExact,
    UnsupportedRegion,
)

TWO_PI = 2.0 * math.pi

# Candidate edge pairs enumerated, and surviving pairs tested, per step of the
# polygon crossing check.
_PAIR_CHUNK = 1 << 12


def _require_finite(*values):
    for v in values:
        if not math.isfinite(v):
            raise ValueError("coordinates must be finite")


@dataclass(frozen=True)
class Point2:
    """A point of the plane with finite coordinates, kept as given.

    Polygons and polylines given as points hold one per vertex.  One given
    its coordinate array builds its points from that array, as floats, only
    when ``vertices`` or ``points`` is first read.  The class defines its own
    ``__init__`` (the dataclass keeps it): it checks finiteness inline and
    sets both fields, with no ``__post_init__`` call.
    """

    x: float
    y: float

    def __init__(self, x: float, y: float):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("coordinates must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class Line2:
    """Oriented line through ``point`` with unit ``direction``.

    The signed distance is positive on the left of the direction vector
    (normal = direction rotated 90 degrees counterclockwise).
    """

    point: Point2
    direction: tuple[float, float]

    def __post_init__(self):
        dx, dy = self.direction
        _require_finite(dx, dy)
        norm = math.hypot(dx, dy)
        if norm == 0.0:
            raise ValueError("line direction must be nonzero")
        if abs(norm - 1.0) > 1e-12:
            object.__setattr__(self, "direction", (dx / norm, dy / norm))

    @staticmethod
    def through(p: Point2, q: Point2) -> "Line2":
        return Line2(p, (q.x - p.x, q.y - p.y))

    @staticmethod
    def horizontal(y: float) -> "Line2":
        """Line y = const, directed along +x (positive side is above)."""
        return Line2(Point2(0.0, y), (1.0, 0.0))

    @staticmethod
    def vertical(x: float) -> "Line2":
        """Line x = const, directed along +y (positive side is x < const)."""
        return Line2(Point2(x, 0.0), (0.0, 1.0))

    def normal(self) -> tuple[float, float]:
        dx, dy = self.direction
        return (-dy, dx)

    def signed_distance(self, p: Point2) -> float:
        nx, ny = self.normal()
        return nx * (p.x - self.point.x) + ny * (p.y - self.point.y)


@dataclass(frozen=True)
class WidthFunction:
    """Nonnegative piecewise-monotone profile w(t) on [a, b].

    ``breakpoints`` are the interior piece boundaries; ``monotonicity`` gives
    one of "increasing"/"decreasing" per piece (a constant piece may declare
    either).  The evaluator must accept numpy arrays; a constant profile may
    return one value, which is broadcast to the shape of its input.
    ``enclosure_method`` names the staircase that encloses its integral.
    """

    enclosure_method = "inner-outer-rectangles"

    fn: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    domain: tuple[float, float] = (0.0, 1.0)
    breakpoints: tuple[float, ...] = ()
    monotonicity: tuple[str, ...] = ("increasing",)

    def __post_init__(self):
        a, b = self.domain
        _require_finite(a, b)
        if not a < b:
            raise ValueError("domain must satisfy a < b")
        bps = tuple(float(t) for t in self.breakpoints)
        if any(not a < t < b for t in bps):
            raise ValueError("breakpoints must lie strictly inside the domain")
        if any(t1 >= t2 for t1, t2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        flags = tuple(self.monotonicity)
        if len(flags) != len(bps) + 1:
            raise ValueError("need one monotonicity flag per piece")
        if any(f not in ("increasing", "decreasing") for f in flags):
            raise ValueError("monotonicity flags are 'increasing' or 'decreasing'")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "monotonicity", flags)

    def pieces(self):
        """Yield (t0, t1, flag) for each declared monotone piece."""
        a, b = self.domain
        knots = (a,) + self.breakpoints + (b,)
        for t0, t1, flag in zip(knots, knots[1:], self.monotonicity):
            yield t0, t1, flag

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        vals = self.fn(t)
        if np.shape(vals) != t.shape:
            # a constant profile may return one value for the whole array
            vals = np.array(np.broadcast_to(vals, t.shape))
        return vals

    def total_variation(self) -> float:
        """Sum over pieces of |w(end) - w(start)|, from endpoint values."""
        tv = 0.0
        for t0, t1, _ in self.pieces():
            tv += abs(float(self(t1)) - float(self(t0)))
        return tv


class SectionFunction(WidthFunction):
    """Cross-section area profile A(t) of a solid, sliced along [a, b]."""

    enclosure_method = "inner-outer-disks"


def _rise_fall(cls, fn, lo: float, peak: float, hi: float):
    """A ``cls`` profile ``fn`` on [lo, hi], increasing up to ``peak``, then decreasing."""
    return cls(fn, domain=(lo, hi), breakpoints=(peak,), monotonicity=("increasing", "decreasing"))


# ---------------------------------------------------------------------------
# curves


class Curve:
    """Base of the curve kinds, which give ``measures()`` (length, integral
    x ds, integral y ds), ``side_moments(line)`` (the integrals of the
    positive and negative parts of the signed distance to ``line``) and
    ``min_distance(line)`` (its least value on the curve)."""


@dataclass(frozen=True)
class Polyline(Curve):
    """Chain of points, closed into a ring when ``closed`` is true.

    Like ``Polygon``, a polyline is its read-only (n, 2) float64 coordinate
    array, which its measures, side moments and least distance read.  It is
    given either as points (``Point2`` or pairs), from which the array is
    built once, or as that array itself, from which ``points`` is built when
    first read.
    """

    points: tuple[Point2, ...]
    closed: bool = False

    def __init__(self, points: Sequence | np.ndarray, closed: bool = False):
        pts, xy = _points_and_coords(points)
        if len(xy) < 2:
            raise ValueError("polyline needs at least 2 points")
        xy.flags.writeable = False
        object.__setattr__(self, "closed", bool(closed))
        _keep(self, "points", pts, xy)

    def __getattr__(self, name):
        return _built_points(self, "points", name)

    def __reduce__(self):
        # copies and pickles rebuild the read-only array through __init__
        return type(self), (self.points, self.closed)

    def edges(self):
        pts = self.points + (self.points[0],) if self.closed else self.points
        yield from zip(pts, pts[1:])

    def _segments(self):
        """(x0, y0, x1, y1, length) of the edges, as arrays in edge order."""
        x, y = self._xy[:, 0], self._xy[:, 1]
        x0, y0, x1, y1 = (x, y, np.roll(x, -1), np.roll(y, -1)) if self.closed else (x[:-1], y[:-1], x[1:], y[1:])
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is part of the result
            dx, dy = x1 - x0, y1 - y0
        # math.hypot, not np.hypot, which can differ in the last bit
        seg = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), dtype=np.float64, count=len(dx))
        return x0, y0, x1, y1, seg

    def measures(self) -> tuple[float, float, float]:
        x0, y0, x1, y1, seg = self._segments()
        with np.errstate(over="ignore", invalid="ignore"):
            return ordered_sum(seg), ordered_sum(seg * 0.5 * (x0 + x1)), ordered_sum(seg * 0.5 * (y0 + y1))

    def side_moments(self, line: Line2) -> tuple[float, float]:
        *_, seg = self._segments()
        nx, ny = line.normal()
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is part of the result
            f = nx * (self._xy[:, 0] - line.point.x) + ny * (self._xy[:, 1] - line.point.y)
            fa, fb = (f, np.roll(f, -1)) if self.closed else (f[:-1], f[1:])
            keep = seg != 0.0
            fa, fb, seg = fa[keep], fb[keep], seg[keep]
            return _segment_side_moments(0.5 * (fa + fb), (fb - fa) / seg, seg / 2.0)

    def min_distance(self, line: Line2) -> float:
        nx, ny = line.normal()
        with np.errstate(over="ignore", invalid="ignore"):
            d = nx * (self._xy[:, 0] - line.point.x) + ny * (self._xy[:, 1] - line.point.y)
        return min(d.tolist())  # the first least value, as over the points


@dataclass(frozen=True)
class CircleArc(Curve):
    """Arc of angle ``span`` starting at ``start_angle`` (counterclockwise)."""

    center: Point2
    radius: float
    start_angle: float = 0.0
    span: float = TWO_PI

    def __post_init__(self):
        _require_finite(self.radius, self.start_angle, self.span)
        if self.radius <= 0.0:
            raise ValueError("arc radius must be positive")
        if not 0.0 < self.span <= TWO_PI:
            raise ValueError("arc span must lie in (0, 2*pi]")

    @property
    def closed(self) -> bool:
        return self.span == TWO_PI

    def measures(self) -> tuple[float, float, float]:
        length = self.radius * self.span
        half = 0.5 * self.span
        mid = self.start_angle + half
        # centroid of an arc sits at distance r*sin(half)/half along the bisector
        d = self.radius * math.sin(half) / half
        cx = self.center.x + d * math.cos(mid)
        cy = self.center.y + d * math.sin(mid)
        return length, length * cx, length * cy

    def _angles(self, line: Line2) -> tuple[float, float, float]:
        """(s0, u0, u1): the signed distance along the arc is s0 + r*cos(u)
        for u from u0 to u1 (u = theta - phi, phi the angle of the normal)."""
        nx, ny = line.normal()
        u0 = self.start_angle - math.atan2(ny, nx)
        return line.signed_distance(self.center), u0, u0 + self.span

    def side_moments(self, line: Line2) -> tuple[float, float]:
        # integrate the two signs of s0 + r*cos(u) exactly
        r = self.radius
        s0, u0, u1 = self._angles(line)

        def antiderivative(u):
            return s0 * u + r * math.sin(u)

        def positive_part(u0, u1):
            # integral over [u0, u1] of max(s0 + r cos u, 0) du  (u = theta-phi)
            if s0 >= r:
                return antiderivative(u1) - antiderivative(u0)
            if s0 <= -r:
                return 0.0
            uc = math.acos(-s0 / r)  # f > 0 on (-uc, uc) mod 2*pi
            total = 0.0
            k_lo = math.floor((u0 - uc) / TWO_PI) - 1
            k_hi = math.ceil((u1 + uc) / TWO_PI) + 1
            for k in range(k_lo, k_hi + 1):
                lo = max(u0, -uc + TWO_PI * k)
                hi = min(u1, uc + TWO_PI * k)
                if lo < hi:
                    total += antiderivative(hi) - antiderivative(lo)
            return total

        full = antiderivative(u1) - antiderivative(u0)
        pos = positive_part(u0, u1) * r
        neg = pos - full * r
        return max(pos, 0.0), max(neg, 0.0)

    def min_distance(self, line: Line2) -> float:
        # the ends, or the first u = pi (mod 2*pi) in the range; the span is at most 2*pi
        s0, u0, u1 = self._angles(line)
        bottom = math.pi + TWO_PI * math.ceil((u0 - math.pi) / TWO_PI)
        return min(s0 + self.radius * math.cos(u) for u in (u0, u1, min(bottom, u1)))


# ---------------------------------------------------------------------------
# regions


class PlanarRegion:
    """Base of the planar region kinds, which give ``measures()`` (area,
    integral x dA, integral y dA), ``box()`` ((xlo, xhi), (ylo, yhi)),
    ``contains(xs, ys)`` on float64 arrays, ``min_rho()`` (the least x) and
    ``side_moments(line)`` (the positive-side first moment about ``line`` and
    the size of the negative-side one).  The rules below are those some kind
    lacks, which raise UnsupportedRegion."""

    def area(self) -> float:
        return self.measures()[0]

    def boundary(self) -> Curve:
        raise UnsupportedRegion(f"no boundary curve for {type(self).__name__}")

    def revolving_boundary(self) -> Curve:
        """Boundary pieces that sweep surface when revolved about the rho=0 axis."""
        return self.boundary()

    def section(self) -> WidthFunction:
        """Width profile w(y) of the horizontal chords."""
        raise UnsupportedRegion(f"no width profile for {type(self).__name__}")

    def revolved_section(self) -> SectionFunction:
        """Section areas A(z) of the solid swept about the rho=0 axis."""
        raise UnsupportedRegion(f"no revolved section for {type(self).__name__}")


@dataclass(frozen=True)
class Polygon(PlanarRegion):
    """Simple polygon, stored counterclockwise (clockwise input is reversed).

    Every polygon is validated, at any size.  Proper edge crossings are
    rejected, and so is a vertex visited twice when the two loops it splits
    the ring into have opposite orientations (a figure-eight, whose lobes
    would cancel in the shoelace sum).  Weakly simple rings, whose boundary
    touches itself at isolated points without reversing orientation (as in
    the sawtooth construction), are allowed.

    The polygon's data is its (n, 2) float64 array of the stored vertices,
    which ``xy()`` returns: read-only, so copy it before writing.  Given as
    vertices (``Point2`` or pairs), the polygon builds that array once; given
    the array itself (2-D, two real columns), it keeps it, copied unless it
    is already a read-only C-contiguous float64 array, and builds
    ``vertices`` from it, as ``Point2``s of floats, only when first read.
    Either way the checks are the same, in the same order, with the same
    messages.
    """

    vertices: tuple[Point2, ...]

    def __init__(self, vertices: Sequence | np.ndarray):
        pts, xy = _points_and_coords(vertices)
        if len(xy) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if (xy == np.roll(xy, -1, axis=0)).all(axis=1).any():
            raise ValueError("polygon has a repeated consecutive vertex")
        if _shoelace(xy)[0] < 0.0:
            xy = np.ascontiguousarray(xy[::-1])
            if pts is not None:
                pts = pts[::-1]
        if _has_proper_self_intersection(xy) or _has_opposite_loops(xy):
            raise ValueError("polygon is self-intersecting")
        xy.flags.writeable = False
        _keep(self, "vertices", pts, xy)

    def __getattr__(self, name):
        return _built_points(self, "vertices", name)

    def __reduce__(self):
        # copies and pickles rebuild the read-only array through __init__
        return type(self), (self.vertices,)

    def xy(self) -> np.ndarray:
        return self._xy

    def measures(self) -> tuple[float, float, float]:
        return _shoelace(self.xy())

    def box(self):
        return ((self._extreme(0, np.min), self._extreme(0, np.max)),
                (self._extreme(1, np.min), self._extreme(1, np.max)))

    def _extreme(self, axis: int, extreme: Callable[[np.ndarray], float]):
        """Coordinate ``axis`` of the first vertex where it takes its
        ``extreme``, as that vertex holds it (an ``int`` stays an ``int``), or
        as a float from the array while ``vertices`` is not built."""
        i = _first(self._xy[:, axis], extreme)
        pts = vars(self).get("vertices")
        return self._xy[i, axis].item() if pts is None else (pts[i].x, pts[i].y)[axis]

    def contains(self, xs, ys) -> np.ndarray:
        pts = self.xy()
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

    def min_rho(self) -> float:
        return self._extreme(0, np.min)

    def boundary(self) -> Curve:
        return Polyline(self._xy, closed=True)

    def side_moments(self, line: Line2) -> tuple[float, float]:
        xy = self.xy()
        (nx, ny), px, py = line.normal(), line.point.x, line.point.y
        d = nx * (xy[:, 0] - px) + ny * (xy[:, 1] - py)
        moments = [0.0, 0.0]
        for side, ring in enumerate((_clip_polygon(xy, d), _clip_polygon(xy, -d))):
            if len(ring) >= 3:  # the integral of the signed distance over the (weakly simple) ring
                a, sx, sy = _shoelace(ring)
                moments[side] = nx * (sx - px * a) + ny * (sy - py * a)
        return max(moments[0], 0.0), max(-moments[1], 0.0)


@dataclass(frozen=True)
class Disk(PlanarRegion):
    center: Point2
    radius: float

    def __post_init__(self):
        _require_finite(self.radius)
        if self.radius <= 0.0:
            raise ValueError("disk radius must be positive")

    def measures(self) -> tuple[float, float, float]:
        a = math.pi * self.radius**2
        return a, a * self.center.x, a * self.center.y

    def box(self):
        c, r = self.center, self.radius
        return (c.x - r, c.x + r), (c.y - r, c.y + r)

    def contains(self, xs, ys) -> np.ndarray:
        r = self.radius
        dx, dy = xs - self.center.x, ys - self.center.y
        return dx * dx + dy * dy <= r * r

    def min_rho(self) -> float:
        return self.center.x - self.radius

    def boundary(self) -> Curve:
        return CircleArc(self.center, self.radius)

    def side_moments(self, line: Line2) -> tuple[float, float]:
        r = self.radius
        s = line.signed_distance(self.center)
        if s >= r:  # whole disk on the positive side
            return math.pi * r * r * s, 0.0
        if s <= -r:
            return 0.0, math.pi * r * r * (-s)
        # moment of the circular segment u > d (d = -s) about the cut chord:
        # integral over [d, r] of (u - d) * 2*sqrt(r^2 - u^2) du
        d = -s
        seg_area = r * r * math.acos(d / r) - d * math.sqrt(r * r - d * d)
        pos = (2.0 / 3.0) * (r * r - d * d) ** 1.5 - d * seg_area
        total = math.pi * r * r * s
        return pos, pos - total

    def section(self) -> WidthFunction:
        r, cy = self.radius, self.center.y

        def width(y):
            return 2.0 * np.sqrt(np.maximum(r * r - (y - cy) ** 2, 0.0))

        return _rise_fall(WidthFunction, width, cy - r, cy, cy + r)

    def revolved_section(self) -> SectionFunction:
        r, cx, cz = self.radius, self.center.x, self.center.y

        def annulus(z):  # between rho = cx -/+ sqrt(r^2 - dz^2)
            return 4.0 * math.pi * cx * np.sqrt(np.maximum(r * r - (z - cz) ** 2, 0.0))

        return _rise_fall(SectionFunction, annulus, cz - r, cz, cz + r)


@dataclass(frozen=True)
class HalfDisk(PlanarRegion):
    """Half-disk: the part of a disk on the ``bulge`` side of its diameter.

    ``center`` is the midpoint of the flat edge; ``bulge`` is the outward unit
    direction of the curved side.  Exact area pi r^2 / 2 and exact centroid at
    distance 4r/(3 pi) from the flat edge.
    """

    center: Point2
    radius: float
    bulge: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        _require_finite(self.radius, *self.bulge)
        if self.radius <= 0.0:
            raise ValueError("half-disk radius must be positive")
        bx, by = self.bulge
        norm = math.hypot(bx, by)
        if norm == 0.0:
            raise ValueError("bulge direction must be nonzero")
        if abs(norm - 1.0) > 1e-12:
            object.__setattr__(self, "bulge", (bx / norm, by / norm))

    def measures(self) -> tuple[float, float, float]:
        a = 0.5 * math.pi * self.radius**2
        d = 4.0 * self.radius / (3.0 * math.pi)
        cx = self.center.x + d * self.bulge[0]
        cy = self.center.y + d * self.bulge[1]
        return a, a * cx, a * cy

    def box(self):
        return Disk(self.center, self.radius).box()  # a valid (slightly loose) cover

    def contains(self, xs, ys) -> np.ndarray:
        dx, dy = xs - self.center.x, ys - self.center.y
        inside = dx**2 + dy**2 <= self.radius**2
        return inside & (dx * self.bulge[0] + dy * self.bulge[1] >= 0.0)

    def min_rho(self) -> float:
        bx, by = self.bulge
        # Extremes occur at flat-edge endpoints or at the leftmost arc point.
        ex, ey = -by, bx
        cands = [self.center.x + self.radius * ex, self.center.x - self.radius * ex]
        if bx < 0.0:
            cands.append(self.center.x + self.radius * bx)
        return min(cands)

    def revolving_boundary(self) -> Curve:
        """The semicircular arc alone, for a half-disk whose flat edge lies on
        the axis (edges on the axis sweep nothing: rho = 0 there)."""
        bx, by = self.bulge
        if not (abs(self.center.x) <= 1e-12 and abs(by) <= 1e-12 and bx > 0.0):
            raise UnsupportedRegion("half-disk profiles are supported only with the flat edge on the axis")
        return CircleArc(self.center, self.radius, start_angle=-0.5 * math.pi, span=math.pi)

    def side_moments(self, line: Line2) -> tuple[float, float]:
        # 4096 slabs parallel to the flat edge, at distance t from it
        nx, ny = line.normal()
        bx, by = self.bulge
        h = self.radius / 4096
        ts = (np.arange(4096, dtype=np.float64) + 0.5) * h
        half_lens = np.sqrt(np.maximum(self.radius**2 - ts**2, 0.0))
        cx = self.center.x + bx * ts
        cy = self.center.y + by * ts
        f_mid = nx * (cx - line.point.x) + ny * (cy - line.point.y)
        return _segment_side_moments(f_mid, nx * -by + ny * bx, half_lens, h)


@dataclass(frozen=True)
class SlabRegion(PlanarRegion):
    """Region built from horizontal slabs: |x| <= w(y)/2 for y in [a, b].

    Slabs are stacked along the y axis and centered on x = 0.  There is no
    exact area; ``quadrature_slabs`` declares the midpoint resolution used for
    centroid and moment queries (the exhaustion module certifies the area).
    """

    width: WidthFunction
    quadrature_slabs: int = 4096

    def __post_init__(self):
        if self.quadrature_slabs < 1:
            raise ValueError("quadrature resolution must be positive")

    def _grid(self) -> tuple[np.ndarray, float]:
        a, b = self.width.domain
        n = self.quadrature_slabs
        h = (b - a) / n
        mids = a + (np.arange(n, dtype=np.float64) + 0.5) * h
        return mids, h

    def area(self) -> float:
        raise UnsupportedExact("slab regions have no exact area; use exhaustion.area_bounds")

    def measures(self) -> tuple[float, float, float]:
        """Midpoint-quadrature (area, Sx, Sy) at the declared resolution."""
        mids, h = self._grid()
        w = np.asarray(self.width(mids), dtype=np.float64)
        area = float(np.sum(w) * h)
        # Slabs are centered on x = 0, so Sx vanishes identically.
        sy = float(np.sum(mids * w) * h)
        return area, 0.0, sy

    def box(self):
        # a grid plus the knots, where a piecewise-monotone width peaks
        a, b = self.width.domain
        ts = np.concatenate((np.linspace(a, b, 1025), (a, *self.width.breakpoints, b)))
        half = float(np.max(self.width(ts))) / 2.0
        return (-half, half), (a, b)

    def contains(self, xs, ys) -> np.ndarray:
        a, b = self.width.domain
        band = (ys >= a) & (ys <= b)
        half = np.zeros_like(ys)
        if np.any(band):
            half[band] = np.asarray(self.width(ys[band]), dtype=np.float64) / 2.0
        return band & (np.abs(xs) <= half)

    def min_rho(self) -> float:
        return self.box()[0][0]

    def side_moments(self, line: Line2) -> tuple[float, float]:
        nx, ny = line.normal()
        mids, h = self._grid()
        half_lens = np.asarray(self.width(mids), dtype=np.float64) / 2.0
        # slab midline at height y runs along +x from (0, y)
        f_mid = nx * (0.0 - line.point.x) + ny * (mids - line.point.y)
        return _segment_side_moments(f_mid, nx, half_lens, h)


@dataclass(frozen=True)
class Profile:
    """Meridian section of a solid of revolution.

    Lives in the (rho, z) half-plane: the first coordinate is the distance to
    the revolution axis and must be >= 0 (touching the axis is allowed).
    """

    region: PlanarRegion

    def __post_init__(self):
        rho_min = self.region.min_rho()
        if rho_min < -1e-12:
            raise AxisCrossing(f"profile reaches rho = {rho_min!r} past the revolution axis")


def min_rho(region: PlanarRegion) -> float:
    return region.min_rho()


# ---------------------------------------------------------------------------
# internal exact measure helpers


def _coords(pts: Sequence[Point2]) -> np.ndarray:
    """(n, 2) float64 array of the vertex coordinates."""
    n = len(pts)
    columns = (np.fromiter(map(attrgetter(c), pts), dtype=np.float64, count=n) for c in ("x", "y"))
    return np.column_stack(tuple(columns))


def _points_and_coords(items) -> tuple[tuple[Point2, ...] | None, np.ndarray]:
    """The points of a polygon or polyline and its (n, 2) float64 array.

    A 2-D numpy array of two real columns is the coordinate array itself:
    it is kept when already read-only, C-contiguous and float64 (a polygon's
    own array) and copied as one otherwise, and its points are left unbuilt
    (None).  Anything else is read point by point, each a ``Point2`` or a
    pair, and the array is built from the points.  Either way a coordinate
    that is not finite raises the ``Point2`` error.
    """
    if isinstance(items, np.ndarray) and items.ndim == 2 and items.shape[1] == 2 and items.dtype.kind in "fiu":
        xy = items
        if xy.flags.writeable or not xy.flags.c_contiguous or xy.dtype != np.float64:
            xy = np.array(items, dtype=np.float64, order="C")
        if not np.isfinite(xy).all():
            raise ValueError("coordinates must be finite")
        return None, xy
    pts = tuple(p if isinstance(p, Point2) else Point2(float(p[0]), float(p[1])) for p in items)
    return pts, _coords(pts)


def _keep(shape, field_name: str, pts: tuple[Point2, ...] | None, xy: np.ndarray) -> None:
    """Store the read-only ``xy`` of ``shape`` and, when given, its points."""
    if pts is not None:  # else built from xy when first read
        object.__setattr__(shape, field_name, pts)
    # not a field, so equality, hash, repr and replace() see the points alone
    object.__setattr__(shape, "_xy", xy)


def _built_points(shape, field_name: str, name: str) -> tuple[Point2, ...]:
    """``shape.__getattr__(name)``: the points field ``field_name`` of a shape
    given its array, built from the array on first read and kept, one
    ``Point2`` of Python floats per row, as the row-by-row path builds them.
    The field has no class default, so only an unbuilt field gets here."""
    if name != field_name:
        raise AttributeError(f"{type(shape).__name__!r} object has no attribute {name!r}")
    xy = shape._xy
    pts = tuple(map(Point2, xy[:, 0].tolist(), xy[:, 1].tolist()))
    object.__setattr__(shape, field_name, pts)
    return pts


def _first(values: np.ndarray, extreme: Callable[[np.ndarray], float]) -> int:
    """Index of the first of the finite ``values`` equal to ``extreme(values)``:
    the element that Python's ``min`` or ``max`` picks, signed zero included."""
    return int(np.argmax(values == extreme(values)))


def _has_proper_self_intersection(xy: np.ndarray) -> bool:
    """True when two non-adjacent edges of the ring cross at an interior point
    of both (touching contacts and collinear overlaps do not count).

    Edge k runs from vertex k to vertex k+1.  Its start p, end q and
    direction e = q - p are computed once, as the columns of one (6, n) array
    in sweep order: the stable order of lowest x.  A sort-and-sweep broad
    phase (Shamos & Hoey, FOCS 1976) pairs each edge with the later edges
    whose lowest x lies inside its own closed x range, so every pair with
    overlapping x ranges is visited once.  Pairs whose y ranges are disjoint
    are dropped, then pairs of ring neighbours, found from the sweep positions
    of each edge's two neighbours; no step leaves sweep order.  The survivors
    are buffered and handed to ``_properly_cross`` ``_PAIR_CHUNK`` at a time.

    So the pairs tested are exactly the non-adjacent pairs whose closed
    bounding boxes overlap, each once, and each is decided by the same float
    orientation predicate as a loop over all pairs would apply.  That
    predicate rounds: a vertex within rounding of another edge can get the
    wrong sign, so a crossing at that scale can be missed or invented.
    """
    n = len(xy)
    if n < 4:
        return False  # no two edges of a triangle are non-adjacent
    x = xy[:, 0]
    xlo = np.minimum(x, np.roll(x, -1))
    order = np.argsort(xlo, kind="stable")
    ends = order + 1  # the end vertex of each edge, in sweep order, before wrapping
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    # sweep position of the edge before and after each one on the ring
    before, after = rank[order - 1], np.take(rank, ends, mode="wrap")
    edges = np.empty((6, n))  # rows px, py, qx, qy, ex, ey
    edges[0:2], edges[2:4] = np.take(xy, order, axis=0).T, np.take(xy, ends, axis=0, mode="wrap").T
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is part of the decision
        np.subtract(edges[2:4], edges[0:2], out=edges[4:6])
    # bounding boxes in sweep order; edge a overlaps edges a+1 .. end[a]-1 in x
    xlo, xhi = xlo[order], np.maximum(edges[0], edges[2])
    ylo, yhi = np.minimum(edges[1], edges[3]), np.maximum(edges[1], edges[3])
    end = np.searchsorted(xlo, xhi, side="right")
    counts = end - np.arange(1, n + 1)
    last = np.cumsum(counts)
    first = last - counts
    shift = np.arange(1, n + 1) - first  # candidate k of edge a pairs it with edge k + shift[a]
    # the candidate pairs, numbered flat in sweep order, are enumerated in
    # fixed chunks (one long edge can own thousands of them); the survivors
    # fill the buffer, which is tested whenever it is full, and which is no
    # larger than the candidates, so a small ring allocates little
    total = int(last[-1])
    held, buffer = 0, np.empty((2, min(total, _PAIR_CHUNK)), dtype=np.intp)
    for start in range(0, total, _PAIR_CHUNK):
        stop = min(start + _PAIR_CHUNK, total)
        a0, a1 = np.searchsorted(last, (start, stop - 1), side="right") + (0, 1)
        owned = np.minimum(last[a0:a1], stop) - np.maximum(first[a0:a1], start)
        a = np.repeat(np.arange(a0, a1), owned)
        b = np.arange(start, stop) + shift[a]
        near = np.flatnonzero((ylo[a] <= yhi[b]) & (ylo[b] <= yhi[a]))
        a, b = a[near], b[near]
        apart = np.flatnonzero((b != before[a]) & (b != after[a]))
        a, b = a[apart], b[apart]
        while len(a):
            take = min(len(a), _PAIR_CHUNK - held)
            buffer[0, held:held + take], buffer[1, held:held + take] = a[:take], b[:take]
            a, b, held = a[take:], b[take:], held + take
            if held == _PAIR_CHUNK:
                if _properly_cross(edges, *buffer):
                    return True
                held = 0
    return held > 0 and _properly_cross(edges, *buffer[:, :held])


def _properly_cross(edges: np.ndarray, i: np.ndarray, j: np.ndarray) -> bool:
    """True when some edge i[k] and edge j[k] cross at an interior point of both.

    ``edges`` holds the rows px, py, qx, qy, ex, ey of the edges, e = q - p.
    The orientation of a point c against edge j is twice the signed area of
    the triangle p_j q_j c, ex_j (c_y - py_j) - ey_j (c_x - px_j): the float
    expression (bx - ax)(cy - ay) - (by - ay)(cx - ax), with its first
    differences read from e.
    """
    pix, piy, qix, qiy, eix, eiy = (row[i] for row in edges)
    pjx, pjy, qjx, qjy, ejx, ejy = (row[j] for row in edges)
    with np.errstate(over="ignore", invalid="ignore"):
        d1 = ejx * (piy - pjy) - ejy * (pix - pjx)
        d2 = ejx * (qiy - pjy) - ejy * (qix - pjx)
        d3 = eix * (pjy - piy) - eiy * (pjx - pix)
        d4 = eix * (qjy - piy) - eiy * (qjx - pix)
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)
    return bool(proper.any())


def _has_opposite_loops(xy: np.ndarray) -> bool:
    """True when some vertex occurs twice and splits the ring into two loops of
    strictly opposite orientation (lobes that would cancel in the area)."""
    order = np.lexsort((xy[:, 1], xy[:, 0]))
    ranked = np.take(xy, order, axis=0)
    repeat = (ranked[1:] == ranked[:-1]).all(axis=1)  # ranked[k + 1] repeats ranked[k]
    if not repeat.any():
        return False
    # the copies of one point are a run in lexicographic order, by ascending
    # index since lexsort is stable
    point = np.cumsum(np.concatenate(([0], ~repeat)))
    copy = np.concatenate(([False], repeat)) | np.concatenate((repeat, [False]))
    for copies in np.split(order[copy], np.flatnonzero(np.diff(point[copy])) + 1):
        for i, j in combinations(copies.tolist(), 2):
            inner, outer = _shoelace(xy[i:j])[0], _shoelace(np.concatenate((xy[j:], xy[:i])))[0]
            if min(inner, outer) < 0.0 < max(inner, outer):
                return True
    return False


def _shoelace(xy: np.ndarray) -> tuple[float, float, float]:
    """(area, integral of x dA, integral of y dA) of the ring whose vertices
    are the rows of ``xy``, each sum taken in vertex order."""
    x0, y0 = xy[:, 0], xy[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is part of the result
        cross = x0 * y1 - x1 * y0
        return 0.5 * ordered_sum(cross), ordered_sum((x0 + x1) * cross) / 6.0, ordered_sum((y0 + y1) * cross) / 6.0


# ---------------------------------------------------------------------------
# oblique-cut side moments (the moment lemma behind Guldin's theorems)


def _clip_polygon(xy: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of the ring ``xy`` to the side where the signed
    distance ``d`` is >= 0: each vertex on that side (boundary included),
    followed by its edge's crossing of the line when there is one."""
    x0, y0 = xy[:, 0], xy[:, 1]
    x1, y1, d1 = np.roll(x0, -1), np.roll(y0, -1), np.roll(d, -1)
    crosses = ((d > 0.0) != (d1 > 0.0)) & (d != d1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # used only where d != d1
        t = d / (d - d1)
        crossing = np.column_stack((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    ring = np.stack((xy, crossing), axis=1).reshape(-1, 2)
    return ring[np.stack((d >= 0.0, crosses), axis=1).reshape(-1)]


def _segment_side_moments(f_center, f_slope, half_len, weight: float = 1.0) -> tuple[float, float]:
    """Positive and negative parts of the integral of an affine f over segments,
    each segment weighted (a slab's thickness), summed in segment order.

    Segment k is parametrized by t in [-half_len[k], half_len[k]] with
    f(t) = f_center[k] + f_slope[k] * t; a segment of no length gives 0.
    """
    a, b = -half_len, half_len
    fa = f_center + f_slope * a
    fb = f_center + f_slope * b
    empty = half_len <= 0.0
    pos = np.where(empty, 0.0, _ramp_integral(a, b, fa, fb))
    neg = np.where(empty, 0.0, _ramp_integral(a, b, -fa, -fb))
    return ordered_sum(pos * weight, 0.0), ordered_sum(neg * weight, 0.0)


def _ramp_integral(a, b, fa, fb):
    """Integral of max(f, 0) over [a, b] for affine f, elementwise."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = a + (b - a) * fa / (fa - fb)  # the zero, where the signs differ
        crossing = np.where(fa > 0.0, fa * 0.5 * (t - a), fb * 0.5 * (b - t))
    above = (fa >= 0.0) & (fb >= 0.0)
    below = (fa <= 0.0) & (fb <= 0.0)
    return np.where(above, (fa + fb) * 0.5 * (b - a), np.where(below, 0.0, crossing))


# ---------------------------------------------------------------------------
# public operations


def _finite_nonzero(measure: str, shape, rule: Callable[[], float]) -> float:
    """``rule()``, the ``measure`` of ``shape``, or GeometryError when it is not
    finite (an OverflowError counts as not finite) or underflows to 0, where
    every enclosure or estimate of it would pass vacuously."""
    try:
        value = rule()
    except OverflowError:
        value = math.inf
    if math.isfinite(value) and value != 0.0:
        return value
    raise _out_of_range(measure, shape, "underflows to 0" if value == 0.0 else "is not finite")


def _out_of_range(measure: str, shape, fault: str) -> GeometryError:
    """The GeometryError saying that the ``measure`` of ``shape`` has ``fault``."""
    kind = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", type(shape).__name__).lower()
    return GeometryError(f"the {measure} of the {kind} {fault} at these dimensions")


def area(region: PlanarRegion) -> float:
    """Exact area.  Slab regions have no closed form; use exhaustion instead."""
    return _finite_nonzero("area", region, region.area)


def perimeter(curve: Curve) -> float:
    return _finite_nonzero("perimeter", curve, lambda: curve.measures()[0])


def _nonzero_measures(region: PlanarRegion, what: str = "region") -> tuple[float, float, float]:
    """region.measures(), whose moments may overflow to infinity; GeometryError
    when the area is not finite, or DegenerateRegion when it is negligible at
    the region's scale."""
    try:
        a, sx, sy = region.measures()
    except OverflowError:
        a = sx = sy = math.inf
    if not math.isfinite(a):
        _finite_nonzero("area", region, lambda: a)  # raises, naming the area
    (x0, x1), (y0, y1) = region.box()
    scale = max(x1 - x0, y1 - y0, 1e-300)
    if a / scale <= 1e-12 * scale:  # a <= 1e-12 * scale**2, where the square may overflow
        raise DegenerateRegion(f"{what} has zero area")
    return a, sx, sy


def _nonzero_length(curve: Curve, what: str = "curve", measure: str = "perimeter") -> tuple[float, float, float]:
    """curve.measures(); GeometryError, naming the length as ``measure``, when
    it is not finite, or DegenerateCurve when it is 0."""
    length, mx, my = curve.measures()
    if not math.isfinite(length):
        raise _out_of_range(measure, curve, "is not finite")
    if length <= 0.0:
        raise DegenerateCurve(f"{what} has zero length")
    return length, mx, my


def centroid_region(region: PlanarRegion) -> Point2:
    a, sx, sy = _nonzero_measures(region)
    return Point2(sx / a, sy / a)


def centroid_curve(curve: Curve) -> Point2:
    length, mx, my = _nonzero_length(curve)
    return Point2(mx / length, my / length)


def first_moment(region: PlanarRegion, line: Line2) -> float:
    """Integral of the signed distance to ``line`` over the region (dA).

    Zero exactly when the line passes through the region centroid.
    """
    a, sx, sy = _nonzero_measures(region)
    nx, ny = line.normal()
    return nx * (sx - line.point.x * a) + ny * (sy - line.point.y * a)


def first_moment_curve(curve: Curve, line: Line2) -> float:
    """Integral of the signed distance to ``line`` over the curve (ds)."""
    length, mx, my = _nonzero_length(curve)
    nx, ny = line.normal()
    return nx * (mx - line.point.x * length) + ny * (my - line.point.y * length)


def bounding_box(region: PlanarRegion) -> tuple[tuple[float, float], tuple[float, float]]:
    return region.box()


def contains(region: PlanarRegion, xs, ys) -> np.ndarray:
    """Vectorized membership test; accepts arrays, returns a boolean array."""
    return region.contains(np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64))


def boundary(region: PlanarRegion) -> Curve:
    """Boundary curve of a region (closed polyline or circle)."""
    return region.boundary()
