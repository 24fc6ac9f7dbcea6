"""Exact planar primitives: regions, curves, areas, lengths, centroids, moments.

Regions and curves are immutable value types; each kind holds its own facts
as methods, and the module-level functions defer to them.  Polygons and disks
(and half-disks) carry exact closed-form measures; slab regions carry a width
profile and a declared quadrature resolution, since no exact form exists for
them.  First moments about a line use the left-of-direction sign convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from ._kernels import ordered_sum
from .errors import (
    AxisCrossing,
    DegenerateCurve,
    DegenerateRegion,
    UnsupportedExact,
    UnsupportedRegion,
)

TWO_PI = 2.0 * math.pi

# Candidate edge pairs tested per step of the polygon crossing check.
_PAIR_CHUNK = 1 << 12


def _require_finite(*values):
    for v in values:
        if not math.isfinite(v):
            raise ValueError("coordinates must be finite")


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        _require_finite(self.x, self.y)


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
    points: tuple[Point2, ...]
    closed: bool = False

    def __init__(self, points: Sequence, closed: bool = False):
        pts = tuple(p if isinstance(p, Point2) else Point2(float(p[0]), float(p[1])) for p in points)
        if len(pts) < 2:
            raise ValueError("polyline needs at least 2 points")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "closed", bool(closed))

    def edges(self):
        pts = self.points + (self.points[0],) if self.closed else self.points
        yield from zip(pts, pts[1:])

    def measures(self) -> tuple[float, float, float]:
        length = mx = my = 0.0
        for p, q in self.edges():
            seg = math.hypot(q.x - p.x, q.y - p.y)
            length += seg
            mx += seg * 0.5 * (p.x + q.x)
            my += seg * 0.5 * (p.y + q.y)
        return length, mx, my

    def side_moments(self, line: Line2) -> tuple[float, float]:
        seg = np.fromiter((math.hypot(q.x - p.x, q.y - p.y) for p, q in self.edges()), dtype=np.float64)
        xy = _coords(self.points)
        nx, ny = line.normal()
        f = nx * (xy[:, 0] - line.point.x) + ny * (xy[:, 1] - line.point.y)
        fa, fb = (f, np.roll(f, -1)) if self.closed else (f[:-1], f[1:])
        keep = seg != 0.0
        fa, fb, seg = fa[keep], fb[keep], seg[keep]
        return _segment_side_moments(0.5 * (fa + fb), (fb - fa) / seg, seg / 2.0)

    def min_distance(self, line: Line2) -> float:
        return min(line.signed_distance(p) for p in self.points)


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
    """

    vertices: tuple[Point2, ...]

    def __init__(self, vertices: Sequence):
        pts = tuple(v if isinstance(v, Point2) else Point2(float(v[0]), float(v[1])) for v in vertices)
        if len(pts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        for p, q in zip(pts, pts[1:] + pts[:1]):
            if p.x == q.x and p.y == q.y:
                raise ValueError("polygon has a repeated consecutive vertex")
        xy = _coords(pts)
        if _shoelace(xy)[0] < 0.0:
            pts, xy = pts[::-1], xy[::-1]
        if _has_proper_self_intersection(xy) or _has_opposite_loops(xy):
            raise ValueError("polygon is self-intersecting")
        object.__setattr__(self, "vertices", pts)

    def xy(self) -> np.ndarray:
        return _coords(self.vertices)

    def measures(self) -> tuple[float, float, float]:
        return _shoelace(self.xy())

    def box(self):
        xs = [p.x for p in self.vertices]
        ys = [p.y for p in self.vertices]
        return (min(xs), max(xs)), (min(ys), max(ys))

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
        return min(p.x for p in self.vertices)

    def boundary(self) -> Curve:
        return Polyline(self.vertices, closed=True)

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
    flat = np.fromiter((c for p in pts for c in (p.x, p.y)), dtype=np.float64, count=2 * len(pts))
    return flat.reshape(-1, 2)


def _orient(ax, ay, bx, by, cx, cy):
    """Twice the signed area of triangle abc (positive when counterclockwise)."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _has_proper_self_intersection(xy: np.ndarray) -> bool:
    """True when two non-adjacent edges of the ring cross at an interior point
    of both (touching contacts and collinear overlaps do not count).

    Edge k runs from vertex k to vertex k+1.  A sort-and-sweep broad phase
    (Shamos & Hoey, FOCS 1976) pairs each edge, in order of lowest x, with the
    later edges whose lowest x lies inside its own closed x range, so every
    pair with overlapping x ranges is visited once.  Pairs whose y ranges are
    disjoint, or that share a vertex, are dropped; the rest get the four
    orientation tests.  Edges with disjoint bounding boxes cannot cross, so
    pruning them changes no decision in exact arithmetic.
    """
    n = len(xy)
    if n < 4:
        return False  # no two edges of a triangle are non-adjacent
    px, py = xy[:, 0], xy[:, 1]
    qx, qy = np.roll(px, -1), np.roll(py, -1)
    xlo = np.minimum(px, qx)
    order = np.argsort(xlo, kind="stable")
    # bounding boxes in sweep order; edge order[a] overlaps the edges
    # order[a+1 : end[a]] in x
    xlo, xhi = xlo[order], np.maximum(px, qx)[order]
    ylo, yhi = np.minimum(py, qy)[order], np.maximum(py, qy)[order]
    end = np.searchsorted(xlo, xhi, side="right")
    counts = end - np.arange(1, n + 1)
    last = np.cumsum(counts)
    first = last - counts
    # the candidate pairs, numbered flat in sweep order, are tested in fixed
    # chunks (one long edge can own thousands of them)
    total = int(last[-1])
    for start in range(0, total, _PAIR_CHUNK):
        stop = min(start + _PAIR_CHUNK, total)
        a0, a1 = np.searchsorted(last, (start, stop - 1), side="right") + (0, 1)
        owned = np.minimum(last[a0:a1], stop) - np.maximum(first[a0:a1], start)
        a = np.repeat(np.arange(a0, a1), owned)
        b = np.arange(start, stop) - first[a] + a + 1
        near = (ylo[a] <= yhi[b]) & (ylo[b] <= yhi[a])
        i, j = order[a[near]], order[b[near]]
        gap = (i - j) % n
        apart = (gap != 1) & (gap != n - 1)
        if _properly_cross(px, py, qx, qy, i[apart], j[apart]):
            return True
    return False


def _properly_cross(px, py, qx, qy, i, j) -> bool:
    """True when some edge i[k] and edge j[k] cross at an interior point of both."""
    p1x, p1y, p2x, p2y = px[i], py[i], qx[i], qy[i]
    q1x, q1y, q2x, q2y = px[j], py[j], qx[j], qy[j]
    with np.errstate(over="ignore", invalid="ignore"):
        d1 = _orient(q1x, q1y, q2x, q2y, p1x, p1y)
        d2 = _orient(q1x, q1y, q2x, q2y, p2x, p2y)
        d3 = _orient(p1x, p1y, p2x, p2y, q1x, q1y)
        d4 = _orient(p1x, p1y, p2x, p2y, q2x, q2y)
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)
    return bool(proper.any())


def _has_opposite_loops(xy: np.ndarray) -> bool:
    """True when some vertex occurs twice and splits the ring into two loops of
    strictly opposite orientation (lobes that would cancel in the area)."""
    order = np.lexsort((xy[:, 1], xy[:, 0]))
    ranked = xy[order]
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


def area(region: PlanarRegion) -> float:
    """Exact area.  Slab regions have no closed form; use exhaustion instead."""
    return region.area()


def perimeter(curve: Curve) -> float:
    return curve.measures()[0]


def _nonzero_measures(region: PlanarRegion, what: str = "region") -> tuple[float, float, float]:
    """region.measures(), or DegenerateRegion when the area is negligible at the region's scale."""
    a, sx, sy = region.measures()
    (x0, x1), (y0, y1) = region.box()
    if a <= 1e-12 * max(x1 - x0, y1 - y0, 1e-300) ** 2:
        raise DegenerateRegion(f"{what} has zero area")
    return a, sx, sy


def centroid_region(region: PlanarRegion) -> Point2:
    a, sx, sy = _nonzero_measures(region)
    return Point2(sx / a, sy / a)


def centroid_curve(curve: Curve) -> Point2:
    length, mx, my = curve.measures()
    if length <= 0.0:
        raise DegenerateCurve("curve has zero length")
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
    length, mx, my = curve.measures()
    if length <= 0.0:
        raise DegenerateCurve("curve has zero length")
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
