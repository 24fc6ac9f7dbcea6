"""Exact planar primitives: regions, curves, areas, lengths, centroids, moments.

Regions are immutable value types.  Polygons and disks (and half-disks) carry
exact closed-form measures; slab regions carry a width profile and a declared
quadrature resolution, since no exact form exists for them.  First moments
about a line use the left-of-direction sign convention throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (
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
    """

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


@dataclass(frozen=True)
class Polygon:
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
        if _signed_area(pts) < 0.0:
            pts = pts[::-1]
        xy = _coords(pts)
        if _has_proper_self_intersection(xy) or _has_opposite_loops(pts, xy):
            raise ValueError("polygon is self-intersecting")
        object.__setattr__(self, "vertices", pts)

    def xy(self) -> np.ndarray:
        return _coords(self.vertices)


@dataclass(frozen=True)
class Disk:
    center: Point2
    radius: float

    def __post_init__(self):
        _require_finite(self.radius)
        if self.radius <= 0.0:
            raise ValueError("disk radius must be positive")


@dataclass(frozen=True)
class HalfDisk:
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


@dataclass(frozen=True)
class SlabRegion:
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


PlanarRegion = Union[Polygon, Disk, HalfDisk, SlabRegion]


@dataclass(frozen=True)
class Polyline:
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


@dataclass(frozen=True)
class CircleArc:
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


Curve = Union[Polyline, CircleArc]


@dataclass(frozen=True)
class Profile:
    """Meridian section of a solid of revolution.

    Lives in the (rho, z) half-plane: the first coordinate is the distance to
    the revolution axis and must be >= 0 (touching the axis is allowed).
    """

    region: PlanarRegion

    def __post_init__(self):
        check_profile_region(self.region)


def check_profile_region(region: PlanarRegion, tol: float = 1e-12):
    """Raise AxisCrossing when any point of the region has rho < -tol."""
    from .errors import AxisCrossing

    rho_min = min_rho(region)
    if rho_min < -tol:
        raise AxisCrossing(f"profile reaches rho = {rho_min!r} past the revolution axis")


def min_rho(region: PlanarRegion) -> float:
    if isinstance(region, Polygon):
        return min(p.x for p in region.vertices)
    if isinstance(region, Disk):
        return region.center.x - region.radius
    if isinstance(region, HalfDisk):
        bx, by = region.bulge
        # Extremes occur at flat-edge endpoints or at the leftmost arc point.
        ex, ey = -by, bx
        cands = [region.center.x + region.radius * ex, region.center.x - region.radius * ex]
        if bx < 0.0:
            cands.append(region.center.x + region.radius * bx)
        return min(cands)
    if isinstance(region, SlabRegion):
        a, b = region.width.domain
        ts = np.linspace(a, b, 257)
        return float(-np.max(region.width(ts)) / 2.0)
    raise UnsupportedRegion(f"unknown region kind {type(region).__name__}")


# ---------------------------------------------------------------------------
# internal exact measure helpers


def _signed_area(pts: tuple[Point2, ...]) -> float:
    s = 0.0
    n = len(pts)
    for i in range(n):
        p, q = pts[i], pts[(i + 1) % n]
        s += p.x * q.y - q.x * p.y
    return 0.5 * s


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


def _has_opposite_loops(pts: tuple[Point2, ...], xy: np.ndarray) -> bool:
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
            inner, outer = _signed_area(pts[i:j]), _signed_area(pts[j:] + pts[:i])
            if min(inner, outer) < 0.0 < max(inner, outer):
                return True
    return False


def _polygon_measures(poly: Polygon) -> tuple[float, float, float]:
    """(area, integral of x dA, integral of y dA) by the shoelace formulas."""
    a = sx = sy = 0.0
    pts = poly.vertices
    n = len(pts)
    for i in range(n):
        p, q = pts[i], pts[(i + 1) % n]
        cross = p.x * q.y - q.x * p.y
        a += cross
        sx += (p.x + q.x) * cross
        sy += (p.y + q.y) * cross
    return 0.5 * a, sx / 6.0, sy / 6.0


def _slab_grid(region: SlabRegion) -> tuple[np.ndarray, float]:
    a, b = region.width.domain
    n = region.quadrature_slabs
    h = (b - a) / n
    mids = a + (np.arange(n, dtype=np.float64) + 0.5) * h
    return mids, h


def _slab_measures(region: SlabRegion) -> tuple[float, float, float]:
    """Midpoint-quadrature (area, Sx, Sy) at the declared resolution."""
    mids, h = _slab_grid(region)
    w = np.asarray(region.width(mids), dtype=np.float64)
    area = float(np.sum(w) * h)
    # Slabs are centered on x = 0, so Sx vanishes identically.
    sy = float(np.sum(mids * w) * h)
    return area, 0.0, sy


def region_measures(region: PlanarRegion) -> tuple[float, float, float]:
    """(area, Sx, Sy) with Sx = integral x dA, Sy = integral y dA.

    Exact for polygons, disks and half-disks; midpoint quadrature at the
    declared resolution for slab regions.
    """
    if isinstance(region, Polygon):
        return _polygon_measures(region)
    if isinstance(region, Disk):
        a = math.pi * region.radius**2
        return a, a * region.center.x, a * region.center.y
    if isinstance(region, HalfDisk):
        a = 0.5 * math.pi * region.radius**2
        d = 4.0 * region.radius / (3.0 * math.pi)
        cx = region.center.x + d * region.bulge[0]
        cy = region.center.y + d * region.bulge[1]
        return a, a * cx, a * cy
    if isinstance(region, SlabRegion):
        return _slab_measures(region)
    raise UnsupportedRegion(f"unknown region kind {type(region).__name__}")


def _region_scale(region: PlanarRegion) -> float:
    (x0, x1), (y0, y1) = bounding_box(region)
    return max(x1 - x0, y1 - y0, 1e-300)


# ---------------------------------------------------------------------------
# public operations


def area(region: PlanarRegion) -> float:
    """Exact area.  Slab regions have no closed form; use exhaustion instead."""
    if isinstance(region, SlabRegion):
        raise UnsupportedExact("slab regions have no exact area; use exhaustion.area_bounds")
    return region_measures(region)[0]


def perimeter(curve: Curve) -> float:
    if isinstance(curve, Polyline):
        return sum(math.hypot(q.x - p.x, q.y - p.y) for p, q in curve.edges())
    if isinstance(curve, CircleArc):
        return curve.radius * curve.span
    raise UnsupportedRegion(f"unknown curve kind {type(curve).__name__}")


def centroid_region(region: PlanarRegion) -> Point2:
    a, sx, sy = region_measures(region)
    if a <= 1e-12 * _region_scale(region) ** 2:
        raise DegenerateRegion("region has zero area")
    return Point2(sx / a, sy / a)


def curve_measures(curve: Curve) -> tuple[float, float, float]:
    """(length, integral x ds, integral y ds)."""
    if isinstance(curve, Polyline):
        length = mx = my = 0.0
        for p, q in curve.edges():
            seg = math.hypot(q.x - p.x, q.y - p.y)
            length += seg
            mx += seg * 0.5 * (p.x + q.x)
            my += seg * 0.5 * (p.y + q.y)
        return length, mx, my
    if isinstance(curve, CircleArc):
        length = curve.radius * curve.span
        half = 0.5 * curve.span
        mid = curve.start_angle + half
        # centroid of an arc sits at distance r*sin(half)/half along the bisector
        d = curve.radius * math.sin(half) / half
        cx = curve.center.x + d * math.cos(mid)
        cy = curve.center.y + d * math.sin(mid)
        return length, length * cx, length * cy
    raise UnsupportedRegion(f"unknown curve kind {type(curve).__name__}")


def centroid_curve(curve: Curve) -> Point2:
    length, mx, my = curve_measures(curve)
    if length <= 0.0:
        raise DegenerateCurve("curve has zero length")
    return Point2(mx / length, my / length)


def first_moment(region: PlanarRegion, line: Line2) -> float:
    """Integral of the signed distance to ``line`` over the region (dA).

    Zero exactly when the line passes through the region centroid.
    """
    a, sx, sy = region_measures(region)
    if a <= 1e-12 * _region_scale(region) ** 2:
        raise DegenerateRegion("region has zero area")
    nx, ny = line.normal()
    return nx * (sx - line.point.x * a) + ny * (sy - line.point.y * a)


def first_moment_curve(curve: Curve, line: Line2) -> float:
    """Integral of the signed distance to ``line`` over the curve (ds)."""
    length, mx, my = curve_measures(curve)
    if length <= 0.0:
        raise DegenerateCurve("curve has zero length")
    nx, ny = line.normal()
    return nx * (mx - line.point.x * length) + ny * (my - line.point.y * length)


# ---------------------------------------------------------------------------
# membership, boundary and bounding box (shared by oracles, CLI and solids)


def bounding_box(region: PlanarRegion) -> tuple[tuple[float, float], tuple[float, float]]:
    if isinstance(region, Polygon):
        xs = [p.x for p in region.vertices]
        ys = [p.y for p in region.vertices]
        return (min(xs), max(xs)), (min(ys), max(ys))
    if isinstance(region, Disk):
        c, r = region.center, region.radius
        return (c.x - r, c.x + r), (c.y - r, c.y + r)
    if isinstance(region, HalfDisk):
        # bbox of the full disk is a valid (slightly loose) cover
        c, r = region.center, region.radius
        return (c.x - r, c.x + r), (c.y - r, c.y + r)
    if isinstance(region, SlabRegion):
        a, b = region.width.domain
        ts = np.linspace(a, b, 1025)
        half = float(np.max(region.width(ts))) / 2.0
        return (-half, half), (a, b)
    raise UnsupportedRegion(f"unknown region kind {type(region).__name__}")


def contains(region: PlanarRegion, xs, ys) -> np.ndarray:
    """Vectorized membership test; accepts arrays, returns a boolean array."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if isinstance(region, Disk):
        return (xs - region.center.x) ** 2 + (ys - region.center.y) ** 2 <= region.radius**2
    if isinstance(region, HalfDisk):
        dx, dy = xs - region.center.x, ys - region.center.y
        inside = dx**2 + dy**2 <= region.radius**2
        return inside & (dx * region.bulge[0] + dy * region.bulge[1] >= 0.0)
    if isinstance(region, SlabRegion):
        a, b = region.width.domain
        band = (ys >= a) & (ys <= b)
        half = np.zeros_like(ys)
        if np.any(band):
            half[band] = np.asarray(region.width(ys[band]), dtype=np.float64) / 2.0
        return band & (np.abs(xs) <= half)
    if isinstance(region, Polygon):
        pts = region.xy()
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
    raise UnsupportedRegion(f"unknown region kind {type(region).__name__}")


def boundary(region: PlanarRegion) -> Curve:
    """Boundary curve of a region (closed polyline or circle)."""
    if isinstance(region, Polygon):
        return Polyline(region.vertices, closed=True)
    if isinstance(region, Disk):
        return CircleArc(region.center, region.radius)
    raise UnsupportedRegion(f"no boundary curve for {type(region).__name__}")


def revolving_boundary(region: PlanarRegion) -> Curve:
    """Boundary pieces that sweep surface when revolved about the rho=0 axis.

    For a half-disk whose flat edge lies on the axis this is the semicircular
    arc alone; edges on the axis sweep nothing either way (rho = 0 there).
    """
    if isinstance(region, HalfDisk):
        bx, by = region.bulge
        if not (abs(region.center.x) <= 1e-12 and abs(by) <= 1e-12 and bx > 0.0):
            raise UnsupportedRegion(
                "half-disk profiles are supported only with the flat edge on the axis"
            )
        return CircleArc(region.center, region.radius, start_angle=-0.5 * math.pi, span=math.pi)
    return boundary(region)
