"""Exact planar primitives: regions, curves, areas, lengths, centroids, moments.

Regions and curves are immutable value types; each kind holds its own facts
as methods, and the module-level functions defer to them.  Polygons, disks
and half-disks carry exact closed-form measures, and every boundary integral
over them reads one statement of their boundary pieces; slab regions carry a
width profile and a declared quadrature resolution, since no exact form
exists for them.  First moments about a line use the left-of-direction sign
convention.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from numbers import Number
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from ._kernels import _BLOCK, ordered_sum
from .errors import (
    AxisCrossing,
    DegenerateCurve,
    DegenerateRegion,
    GeometryError,
    UnsupportedExact,
    UnsupportedRegion,
)

TWO_PI = 2.0 * math.pi


def _require_finite(*values):
    for v in values:
        if not math.isfinite(v):
            raise ValueError("coordinates must be finite")


def _unit(direction, what: str):
    """``direction``, two components read with ``float``, checked finite and
    nonzero (else ValueError naming ``what``), as a tuple of two floats:
    divided by its length when that is off 1 by more than 1e-12, else as read."""
    dx, dy = map(float, direction)
    _require_finite(dx, dy)
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        raise ValueError(f"{what} direction must be nonzero")
    return (dx / norm, dy / norm) if abs(norm - 1.0) > 1e-12 else (dx, dy)


@dataclass(frozen=True)
class Point2:
    """A point of the plane with finite coordinates.

    A polygon's or polyline's points are not kept from its input: they are
    built from its coordinate array, as ``Point2``s of floats, when
    ``vertices`` or ``points`` is first read.  Those points skip ``__init__``,
    since the array is already checked finite, and equal, hash, repr and
    pickle as points made by ``Point2(x, y)``.  The class defines its own
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
        object.__setattr__(self, "point", _point(self.point))
        object.__setattr__(self, "direction", _unit(self.direction, "line"))

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
        return self.signed_distances(p.x, p.y)

    def signed_distances(self, xs, ys):
        """Signed distances of the points ``(xs, ys)``, floats or arrays."""
        nx, ny = self.normal()
        return nx * (xs - self.point.x) + ny * (ys - self.point.y)

    def first_moment(self, m: float, mx: float, my: float) -> float:
        """First moment about the line of a mass ``m`` whose first moments about
        the axes are ``mx`` (of x) and ``my`` (of y)."""
        nx, ny = self.normal()
        return nx * (mx - self.point.x * m) + ny * (my - self.point.y * m)


@dataclass(frozen=True)
class WidthFunction:
    """Nonnegative piecewise-monotone profile w(t) on [a, b].

    ``breakpoints`` are the interior piece boundaries; ``monotonicity`` gives
    one of "increasing"/"decreasing" per piece (a constant piece may declare
    either).  The evaluator must accept numpy arrays; a constant profile may
    return one value.  A call returns float64 values of its input's shape.
    ``enclosure_method`` names the staircase that encloses its integral.
    """

    enclosure_method = "inner-outer-rectangles"

    fn: Callable[[np.ndarray], np.ndarray]
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
        vals = np.asarray(self.fn(t), dtype=np.float64)
        # a constant profile may return one value for the whole array
        return vals if vals.shape == t.shape else np.array(np.broadcast_to(vals, t.shape))

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

    Like ``Polygon``, a polyline is its own read-only (n, 2) float64 copy of
    the points given, which its measures, side moments and least distance
    read, and its ``points`` are ``Point2``s of floats built from that array
    when first read.

    Its edge arrays (``_segments()``, read-only) and its ``measures()`` are
    kept too, on the instance but not as fields, the first time they are
    asked for: equality, hash, repr, ``replace()``, copies and pickles never
    see them, and a copy starts without them.  Threads that race on a first
    read may each compute a fact; they compute the same value.
    """

    points: tuple[Point2, ...]
    closed: bool = False

    def __init__(self, points: Sequence | np.ndarray, closed: bool = False):
        xy = _read_xy(points)
        if len(xy) < 2:
            raise ValueError("polyline needs at least 2 points")
        xy.flags.writeable = False
        object.__setattr__(self, "closed", bool(closed))
        object.__setattr__(self, "_xy", xy)

    def __getattr__(self, name):
        return _built_points(self, "points", name)

    def __reduce__(self):
        # copies and pickles rebuild the read-only array through __init__
        return type(self), (self._xy, self.closed)

    def edges(self):
        pts = self.points + (self.points[0],) if self.closed else self.points
        yield from zip(pts, pts[1:])

    def _edge_ends(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``values``, one per point, at the start and at the end of each edge."""
        return (values, _ring_next(values)) if self.closed else (values[:-1], values[1:])

    def _segments(self) -> tuple[np.ndarray, ...]:
        """(x0, y0, x1, y1, length) of the edges, as read-only arrays in edge order."""
        return self._kept_segments

    @cached_property
    def _kept_segments(self) -> tuple[np.ndarray, ...]:
        (x0, x1), (y0, y1) = self._edge_ends(self._xy[:, 0]), self._edge_ends(self._xy[:, 1])
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is part of the result
            dx, dy = x1 - x0, y1 - y0
        # math.hypot, not np.hypot, which can differ in the last bit
        seg = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), dtype=np.float64, count=len(dx))
        for a in (x1, y1, seg):  # x0 and y0 are views of the read-only array; so are x1, y1 of an open chain
            a.flags.writeable = False
        return x0, y0, x1, y1, seg

    def measures(self) -> tuple[float, float, float]:
        return self._kept_measures

    @cached_property
    def _kept_measures(self) -> tuple[float, float, float]:
        x0, y0, x1, y1, seg = self._segments()
        with np.errstate(over="ignore", invalid="ignore"):
            return ordered_sum(seg), ordered_sum(seg * 0.5 * (x0 + x1)), ordered_sum(seg * 0.5 * (y0 + y1))

    def side_moments(self, line: Line2) -> tuple[float, float]:
        *_, seg = self._segments()
        keep = seg != 0.0  # so that no 0 * inf gives nan
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is part of the result
            s0, s1 = self._edge_ends(line.signed_distances(*self._xy.T))
            return tuple(ordered_sum(seg[keep] * mean) for mean in _part_means(s0[keep], s1[keep], 1))

    def _flux(self, line: Line2) -> tuple[float, float]:
        """The chain's shares of the fluxes of ``PlanarRegion.side_moments``:
        edge p -> q, e = q - p, gives (n x e) / 2 times the mean of
        max(s, 0)^2 over it, and -(n x e) / 2 times that of max(-s, 0)^2."""
        x, y = self._xy.T
        nx, ny = line.normal()
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is part of the result
            (x0, x1), (y0, y1) = self._edge_ends(x), self._edge_ends(y)
            half_cross = 0.5 * (nx * (y1 - y0) - ny * (x1 - x0))
            pos, neg = _part_means(*self._edge_ends(line.signed_distances(x, y)), 2)
            return ordered_sum(half_cross * pos), -ordered_sum(half_cross * neg)

    def min_distance(self, line: Line2) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            d = line.signed_distances(self._xy[:, 0], self._xy[:, 1])
        return min(d.tolist())  # the first least value, as over the points


@dataclass(frozen=True)
class CircleArc(Curve):
    """Arc of angle ``span`` starting at ``start_angle`` (counterclockwise)."""

    center: Point2
    radius: float
    start_angle: float = 0.0
    span: float = TWO_PI

    def __post_init__(self):
        object.__setattr__(self, "center", _point(self.center))
        _require_finite(self.radius, self.start_angle, self.span)
        if self.radius <= 0.0:
            raise ValueError("arc radius must be positive")
        if not 0.0 < self.span <= TWO_PI:
            raise ValueError("arc span must lie in (0, 2*pi]")

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

    def _side_integrals(self, line: Line2, antiderivative) -> tuple[float, float]:
        """For the positive and then the negative side of ``line``, the sum of
        antiderivative(s0, u) from lo to hi over the intervals [lo, hi] of
        the arc where that side's signed distance s0 + r*cos(u) is positive.
        The negative side's distance -s is that form with -s0 and u + pi."""
        s0, u0, u1 = self._angles(line)
        sums = []
        for s0, u0, u1 in ((s0, u0, u1), (-s0, u0 + math.pi, u1 + math.pi)):
            uc = math.acos(min(max(-s0 / self.radius, -1.0), 1.0))  # s > 0 on (-uc, uc) mod 2*pi
            ks = range(math.floor((u0 - uc) / TWO_PI) - 1, math.ceil((u1 + uc) / TWO_PI) + 2)
            spans = [(max(u0, -uc + TWO_PI * k), min(u1, uc + TWO_PI * k)) for k in ks]
            sums.append(sum(antiderivative(s0, hi) - antiderivative(s0, lo) for lo, hi in spans if lo < hi))
        return tuple(sums)

    def side_moments(self, line: Line2) -> tuple[float, float]:
        # r times the integral of s0 + r*cos(u) du on each side
        r = self.radius
        pos, neg = self._side_integrals(line, lambda s0, u: s0 * u + r * math.sin(u))
        return max(r * pos, 0.0), max(r * neg, 0.0)

    def _flux(self, line: Line2) -> tuple[float, float]:
        """The arc's shares of the fluxes of ``PlanarRegion.side_moments``:
        (r/2) times the integral of max(s0 + r*cos(u), 0)^2 cos(u) du, on
        each side, cos(u) being n dotted with the outward normal."""
        r = self.radius

        def antiderivative(s0, u):  # of (s0 + r*cos(u))^2 cos(u)
            sin = math.sin(u)
            return s0 * s0 * sin + s0 * r * (u + sin * math.cos(u)) + r * r * (sin - sin * sin * sin / 3.0)

        pos, neg = self._side_integrals(line, antiderivative)
        return 0.5 * r * pos, 0.5 * r * neg

    def min_distance(self, line: Line2) -> float:
        # the ends, or the first u = pi (mod 2*pi) in the range; the span is at most 2*pi
        s0, u0, u1 = self._angles(line)
        bottom = math.pi + TWO_PI * math.ceil((u0 - math.pi) / TWO_PI)
        return min(s0 + self.radius * math.cos(u) for u in (u0, u1, min(bottom, u1)))


# ---------------------------------------------------------------------------
# regions


class PlanarRegion:
    """Base of the planar region kinds, which give ``measures()`` (area,
    integral x dA, integral y dA), ``box()`` ((xlo, xhi), (ylo, yhi)), whose
    sides the region reaches, ``contains(xs, ys)`` on float64 arrays and
    ``side_moments(line)`` (the positive-side first moment about ``line`` and
    the size of the negative-side one).  The rules below that raise
    UnsupportedRegion are those some kind lacks."""

    def side_moments(self, line: Line2) -> tuple[float, float]:
        """The integrals over the region of max(s, 0) and max(-s, 0), s the
        signed distance to ``line``: the outward fluxes through the boundary,
        counterclockwise, of max(s, 0)^2 n / 2 and max(-s, 0)^2 (-n) / 2, n
        the line's normal, whose divergences they are (Steger, TR FGBV-96-05,
        1996); both fields vanish on the line, so nothing is clipped.  Where
        the box lies on one side, whose fluxes would cancel, that side has
        the whole first moment."""
        (x0, x1), (y0, y1) = self.box()
        corners = [line.signed_distances(x, y) for x in (x0, x1) for y in (y0, y1)]
        if min(corners) >= 0.0 or max(corners) <= 0.0:
            moment = line.first_moment(*self.measures())
            return max(moment, 0.0), max(-moment, 0.0)
        pos, neg = map(sum, zip(*(piece._flux(line) for piece in self._pieces())))
        return max(pos, 0.0), max(neg, 0.0)

    def _pieces(self) -> tuple[Curve, ...]:
        """The boundary as counterclockwise curve pieces, which side moments,
        surfaces of revolution and cylinder walls all read."""
        return (self.boundary(),)

    def min_rho(self) -> float:
        """The least x over the region, the low x side of its box."""
        return self.box()[0][0]

    def area(self) -> float:
        return self.measures()[0]

    def boundary(self) -> Curve:
        raise UnsupportedRegion(f"no boundary curve for {type(self).__name__}")

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

    The polygon is its (n, 2) float64 array of the stored vertices, which
    ``xy()`` returns: read-only, so copy it before writing.  It is the
    polygon's own copy of the vertices given (``Point2``s, pairs or an array
    of them), checked in the same order with the same messages whatever the
    input, and ``vertices`` are ``Point2``s of floats built from the array
    when first read.

    ``measures()``, ``box()`` and ``boundary()`` are kept on the instance, but
    not as fields, the first time they are asked for, and the boundary
    polyline shares the polygon's array: equality, hash, repr, ``replace()``,
    copies and pickles never see them, and a copy starts without them.
    Threads that race on a first read may each compute a fact; they compute
    the same value.  A copy or a pickle keeps the array without checking it
    again (``_trusted``): unpickling already runs code of the pickle maker's
    choice, so this lowers no bar.
    """

    vertices: tuple[Point2, ...]

    def __init__(self, vertices: Sequence | np.ndarray):
        xy = _read_xy(vertices)
        if len(xy) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if (xy == _ring_next(xy)).all(axis=1).any():
            raise ValueError("polygon has a repeated consecutive vertex")
        if _signed_area(xy) < 0.0:
            xy = np.ascontiguousarray(xy[::-1])
        # a triangle has no two non-adjacent edges, and no repeat but a consecutive one
        if len(xy) > 3 and (_has_proper_self_intersection(xy) or _has_opposite_loops(xy)):
            raise ValueError("polygon is self-intersecting")
        xy.flags.writeable = False
        object.__setattr__(self, "_xy", xy)

    def __getattr__(self, name):
        return _built_points(self, "vertices", name)

    def __reduce__(self):
        # the array was checked when this polygon was made
        return _trusted, (type(self), self._xy)

    def xy(self) -> np.ndarray:
        return self._xy

    def measures(self) -> tuple[float, float, float]:
        return self._kept_measures

    @cached_property
    def _kept_measures(self) -> tuple[float, float, float]:
        return _shoelace(self._xy)

    def box(self):
        return self._kept_box

    @cached_property
    def _kept_box(self):
        x, y = self._xy.T
        return (_first(x, np.min), _first(x, np.max)), (_first(y, np.min), _first(y, np.max))

    def contains(self, xs, ys) -> np.ndarray:
        """Even-odd rule on a rightward ray: a point is inside when an odd
        number of edges cross the ray right of it.  Edge j -> i crosses the
        ray at height y exactly when min(yi, yj) <= y < max(yi, yj), so a
        horizontal edge never does, a vertex counts once for the edge that
        leaves it upward or arrives from above, and a point with a nan
        coordinate is outside.  The points are sorted by y once, so each edge
        tests only the slice of them at its heights."""
        xs, ys = np.asarray(xs), np.asarray(ys)
        shape = np.broadcast_shapes(xs.shape, ys.shape)
        dtype = np.result_type(xs, ys, np.float64)  # the vertices are float64, so no narrower type
        xs, ys = (np.broadcast_to(a.astype(dtype, copy=False), shape).ravel() for a in (xs, ys))
        order = np.argsort(ys)
        xs, ys = xs[order], ys[order]  # nans sort last, past every edge's slice
        xj, yj = self._xy.T
        xi, yi = _ring_next(xj), _ring_next(yj)
        starts = np.searchsorted(ys, np.minimum(yi, yj))
        stops = np.searchsorted(ys, np.maximum(yi, yj))
        k = np.flatnonzero(starts < stops)
        edges = zip(starts[k].tolist(), stops[k].tolist(), (xj - xi)[k].tolist(), (yj - yi)[k].tolist(),
                    xi[k].tolist(), yi[k].tolist())
        inside = np.zeros(len(ys), dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for s, e, dx, dy, x0, y0 in edges:
                inside[s:e] ^= xs[s:e] < dx * (ys[s:e] - y0) / dy + x0
        out = np.empty_like(inside)
        out[order] = inside
        return out.reshape(shape)

    def boundary(self) -> Curve:
        return self._kept_boundary

    @cached_property
    def _kept_boundary(self) -> Polyline:
        return _trusted(Polyline, self._xy, closed=True)


@dataclass(frozen=True)
class Disk(PlanarRegion):
    center: Point2
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _point(self.center))
        _require_finite(self.radius)
        if self.radius <= 0.0:
            raise ValueError("disk radius must be positive")

    def measures(self) -> tuple[float, float, float]:
        a = math.pi * (self.radius * self.radius)
        return a, a * self.center.x, a * self.center.y

    def box(self):
        c, r = self.center, self.radius
        return (c.x - r, c.x + r), (c.y - r, c.y + r)

    def contains(self, xs, ys) -> np.ndarray:
        r = self.radius
        dx, dy = xs - self.center.x, ys - self.center.y
        return dx * dx + dy * dy <= r * r

    def boundary(self) -> Curve:
        return CircleArc(self.center, self.radius)

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
    distance 4r/(3 pi) from the flat edge.  Every boundary integral reads its
    two pieces, the half arc and the flat edge: no ``boundary()`` curve.
    """

    center: Point2
    radius: float
    bulge: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "center", _point(self.center))
        _require_finite(self.radius, *self.bulge)
        if self.radius <= 0.0:
            raise ValueError("half-disk radius must be positive")
        object.__setattr__(self, "bulge", _unit(self.bulge, "bulge"))

    def measures(self) -> tuple[float, float, float]:
        a = 0.5 * math.pi * (self.radius * self.radius)
        d = 4.0 * self.radius / (3.0 * math.pi)
        cx = self.center.x + d * self.bulge[0]
        cy = self.center.y + d * self.bulge[1]
        return a, a * cx, a * cy

    def box(self):
        """Exact: the ends c -/+ r (-by, bx) of the flat edge, and each axis
        extreme c +/- r of the circle that the arc reaches (u . bulge >= 0)."""
        r, (bx, by) = self.radius, self.bulge
        sides = []
        for c, b, e in ((self.center.x, bx, by), (self.center.y, by, bx)):
            reach = [c - r * e, c + r * e] + [c + r] * (b >= 0.0) + [c - r] * (b <= 0.0)
            sides.append((min(reach), max(reach)))
        return tuple(sides)

    def contains(self, xs, ys) -> np.ndarray:
        dx, dy = xs - self.center.x, ys - self.center.y
        inside = dx * dx + dy * dy <= self.radius * self.radius
        return inside & (dx * self.bulge[0] + dy * self.bulge[1] >= 0.0)

    def _pieces(self) -> tuple[Curve, ...]:
        """The half arc, counterclockwise from c - r (-by, bx) to
        c + r (-by, bx), and the flat edge back."""
        c, r, (bx, by) = self.center, self.radius, self.bulge
        flat = Polyline([(c.x - r * by, c.y + r * bx), (c.x + r * by, c.y - r * bx)])
        return CircleArc(c, r, math.atan2(by, bx) - 0.5 * math.pi, math.pi), flat


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
        w = self.width(mids)
        # Slabs are centered on x = 0, so Sx vanishes identically.
        return ordered_sum(w) * h, 0.0, ordered_sum(mids * w) * h

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
            half[band] = self.width(ys[band]) / 2.0
        return band & (np.abs(xs) <= half)

    def side_moments(self, line: Line2) -> tuple[float, float]:
        # the slab's height times the integrals over its midline, (-w/2, y) to (w/2, y)
        mids, h = self._grid()
        half = self.width(mids) / 2.0
        keep = half > 0.0
        mids, half = mids[keep], half[keep]
        means = _part_means(line.signed_distances(-half, mids), line.signed_distances(half, mids), 1)
        return tuple(ordered_sum(2.0 * half * mean * h) for mean in means)


@dataclass(frozen=True)
class Profile:
    """Meridian section of a solid of revolution.

    Lives in the (rho, z) half-plane: the first coordinate is the distance to
    the revolution axis and must be >= 0 (touching the axis is allowed), as
    decided exactly: the least rho is a vertex's, or a disk's fl(cx - r).
    """

    region: PlanarRegion

    def __post_init__(self):
        rho_min = self.region.min_rho()
        if rho_min < 0.0:
            raise AxisCrossing(f"profile reaches rho = {rho_min!r} past the revolution axis")


# ---------------------------------------------------------------------------
# internal exact measure helpers


def _coords(pts: Sequence[Point2]) -> np.ndarray:
    """(n, 2) float64 array of the vertex coordinates."""
    n = len(pts)
    columns = (np.fromiter(map(attrgetter(c), pts), dtype=np.float64, count=n) for c in ("x", "y"))
    return np.column_stack(tuple(columns))


def _read_xy(items) -> np.ndarray:
    """A new (n, 2) float64 array, which nothing else holds, of ``items``.

    A numpy array of real kind, or a list or tuple of pairs, is read as one
    array by one numpy call, each coordinate converted as ``float`` converts
    it, and kept when that gives n finite pairs.  Anything else (``Point2``s,
    rows of another length, a generator, a coordinate that does not convert
    or is not finite) is read point by point, each a ``Point2`` or exactly
    two coordinates, and the array is built from the points.  So every error
    is the one the point-by-point read raises, among them the ``Point2``
    error for a coordinate that is not finite.
    """
    if (isinstance(items, np.ndarray) and items.dtype.kind in "fiu"
            or isinstance(items, (list, tuple)) and items and not isinstance(items[0], Point2)):
        try:
            xy = np.array(items, dtype=np.float64, order="C")
        except Exception:  # the point-by-point read below raises the error, in its order
            xy = None
        if xy is not None and xy.ndim == 2 and xy.shape[1] == 2 and np.isfinite(xy).all():
            return xy
    return _coords([_point(p) for p in items])


def _point(p) -> Point2:
    """A point given as a ``Point2`` or as exactly two coordinates."""
    if isinstance(p, Point2):
        return p
    try:
        count = len(p)
    except TypeError:  # a row with no length: a number, None, ...
        count = "a scalar" if isinstance(p, Number) else type(p).__name__
    if count != 2:
        raise ValueError(f"a point is a Point2 or 2 coordinates, not {count}")
    return Point2(float(p[0]), float(p[1]))


def _trusted(cls, xy: np.ndarray, **fields):
    """A ``cls`` (``Polygon`` or ``Polyline``) that is ``xy``, with ``fields``,
    made with no check.  ``xy`` must be a C-contiguous (n, 2) float64 array
    that the library has just made or checked as that shape's constructor
    checks it, and that nothing will write: it is marked read-only and kept,
    not copied.  Never pass it a caller's array."""
    shape = object.__new__(cls)
    xy.flags.writeable = False
    object.__setattr__(shape, "_xy", xy)
    for name, value in fields.items():
        object.__setattr__(shape, name, value)
    return shape


def _built_points(shape, field_name: str, name: str) -> tuple[Point2, ...]:
    """``shape.__getattr__(name)``: the points field ``field_name`` of a
    polygon or polyline, built from its array ``_xy`` (not a field, so
    equality, hash, repr and replace() see the points alone) on first read
    and kept, one ``Point2`` of Python floats per row.  The field has no
    class default, so only an unbuilt field gets here.  The array is finite,
    so each point's fields are set without ``Point2.__init__``'s check."""
    if name != field_name:
        raise AttributeError(f"{type(shape).__name__!r} object has no attribute {name!r}")
    xy = shape._xy
    pts = tuple(map(Point2.__new__, [Point2] * len(xy)))
    set_field = object.__setattr__  # as the frozen dataclass sets them
    for p, x, y in zip(pts, xy[:, 0].tolist(), xy[:, 1].tolist()):
        set_field(p, "x", x)
        set_field(p, "y", y)
    object.__setattr__(shape, field_name, pts)
    return pts


def _ring_next(a: np.ndarray) -> np.ndarray:
    """The successor of each row of ``a`` around the ring, row 0 after the
    last: ``a`` rolled one place back along axis 0, by one concatenation,
    which costs a fraction of numpy's general roll."""
    return np.concatenate((a[1:], a[:1]))


def _first(values: np.ndarray, extreme: Callable[[np.ndarray], float]) -> float:
    """The first of the finite ``values`` equal to ``extreme(values)``, as a
    float: the element that Python's ``min`` or ``max`` picks, signed zero
    included."""
    return values[np.argmax(values == extreme(values))].item()


def _has_proper_self_intersection(xy: np.ndarray) -> bool:
    """True when two non-adjacent edges of the ring cross at an interior point
    of both (touching contacts and collinear overlaps do not count).

    Edge k runs from vertex k to vertex k+1.  Its start p, end q and
    direction e = q - p are computed once, as the columns of one (6, n) array
    in sweep order: the stable order of lowest x.  A sort-and-sweep broad
    phase (Shamos & Hoey, FOCS 1976) pairs each edge with the later edges
    whose lowest x lies inside its own closed x range, so every pair with
    overlapping x ranges is visited once; these candidates are enumerated
    ``_kernels._BLOCK`` at a time.  In each step, pairs whose y ranges are
    disjoint are dropped, then pairs of ring neighbours, whose ring indices
    (``order`` at their sweep positions) differ by 1 or n - 1; no step leaves
    sweep order.  The step's survivors go to ``_properly_cross`` in one call,
    each pair as (earlier edge, later edge) in sweep order, and the first
    crossing ends the check.  That test is staged: it takes two orientations
    for every pair and the other two only for the few pairs the first two
    leave open.

    So the pairs tested are exactly the non-adjacent pairs whose closed
    bounding boxes overlap, each once, and each is decided by the same float
    orientation predicate as a loop over all pairs would apply.  That
    predicate rounds: a vertex within rounding of another edge can get the
    wrong sign, so a crossing at that scale can be missed or invented.
    """
    n = len(xy)
    x = xy[:, 0]
    xlo = np.minimum(x, _ring_next(x))
    order = np.argsort(xlo, kind="stable")  # the ring index of the edge at each sweep position
    edges = np.empty((6, n))  # rows px, py, qx, qy, ex, ey
    edges[0:2], edges[2:4] = np.take(xy, order, axis=0).T, np.take(xy, order + 1, axis=0, mode="wrap").T
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
    # fixed steps (one long edge can own thousands of them)
    total = int(last[-1])
    for start in range(0, total, _BLOCK):
        stop = min(start + _BLOCK, total)
        a0, a1 = np.searchsorted(last, (start, stop - 1), side="right") + (0, 1)
        owned = np.minimum(last[a0:a1], stop) - np.maximum(first[a0:a1], start)
        a = np.repeat(np.arange(a0, a1), owned)
        b = np.arange(start, stop) + shift[a]
        near = np.flatnonzero((ylo[a] <= yhi[b]) & (ylo[b] <= yhi[a]))
        a, b = a[near], b[near]
        gap = np.abs(order[a] - order[b])
        apart = np.flatnonzero((gap != 1) & (gap != n - 1))
        if len(apart) and _properly_cross(edges, a[apart], b[apart]):
            return True
    return False


def _properly_cross(edges: np.ndarray, i: np.ndarray, j: np.ndarray) -> bool:
    """True when some edge i[k] and edge j[k] cross at an interior point of both.

    ``edges`` holds the rows px, py, qx, qy, ex, ey of the edges, e = q - p.
    The orientation of a point c against edge j is twice the signed area of
    the triangle p_j q_j c, ex_j (c_y - py_j) - ey_j (c_x - px_j): the float
    expression (bx - ax)(cy - ay) - (by - ay)(cx - ax), with its first
    differences read from e.  Two edges cross properly when each one's ends
    take nonzero orientations of opposite sign against the other.

    The test is staged.  The orientations d3, d4 of edge j's ends against
    edge i are taken for every pair; only the pairs where they straddle edge
    i's line go on to d1, d2, edge i's ends against edge j.  Edge i is the
    earlier in sweep order, so a long edge, which owns many pairs, is
    usually edge i, and the ends of a short edge straddle its line only near
    it: 0.3% of the pairs on a 2048-vertex star, and none on the sawtooth,
    whose closing edge every tooth touches (its own ends straddle every
    tooth's line).  Each orientation is
    the same float expression, on the same operands, as when all four are
    taken for every pair, so the decision is the same, bit for bit.
    """
    pix, piy, eix, eiy = (edges[row][i] for row in (0, 1, 4, 5))
    pjx, pjy, qjx, qjy = (row[j] for row in edges[:4])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is part of the decision
        d3 = eix * (pjy - piy) - eiy * (pjx - pix)
        d4 = eix * (qjy - piy) - eiy * (qjx - pix)
        straddle = np.flatnonzero(((d3 > 0) != (d4 > 0)) & (d3 != 0) & (d4 != 0))
        if not len(straddle):
            return False
        i, j, pix, piy, pjx, pjy = i[straddle], j[straddle], pix[straddle], piy[straddle], pjx[straddle], pjy[straddle]
        qix, qiy, ejx, ejy = edges[2][i], edges[3][i], edges[4][j], edges[5][j]
        d1 = ejx * (piy - pjy) - ejy * (pix - pjx)
        d2 = ejx * (qiy - pjy) - ejy * (qix - pjx)
    return bool((((d1 > 0) != (d2 > 0)) & (d1 != 0) & (d2 != 0)).any())


def _has_opposite_loops(xy: np.ndarray) -> bool:
    """True when two copies of a point split the counterclockwise ring into
    loops of strictly opposite sign (lobes that would cancel in the area).
    A point's k copies cut the ring into k loops, and any two copies split it
    into a run of these loops and the rest.  If the two differ in sign, one
    loop is negative, so it and its own rest differ in sign: in exact arithmetic
    the k - 1 neighbouring pairs and the first copy with the last decide as all pairs do.
    ``xy`` is C-contiguous: each row is viewed as one complex128 x + iy, which numpy orders by x,
    then by y, with -0.0 equal to 0.0, as ``np.lexsort((y, x))`` orders the rows."""
    points = xy.view(np.complex128)[:, 0]
    order = np.argsort(points, kind="stable")
    ranked = points[order]
    repeat = ranked[1:] == ranked[:-1]  # ranked[p + 1] repeats ranked[p]
    if not repeat.any():
        return False
    # the sort is stable, so the copies of one point are a run of ranked, by ascending index
    pairs = np.flatnonzero(repeat)  # ranked[p] and ranked[p + 1] are neighbouring copies
    starts, stops = order[pairs], order[pairs + 1]
    # a run of three copies or more also gives the pair (its first copy, its last copy)
    first = np.flatnonzero(repeat & ~np.concatenate(([False], repeat[:-1])))
    last = np.flatnonzero(repeat & ~np.concatenate((repeat[1:], [False]))) + 1
    wide = last - first > 1
    starts = np.concatenate((starts, order[first[wide]]))
    stops = np.concatenate((stops, order[last[wide]]))
    for i, j in zip(starts.tolist(), stops.tolist()):
        inner, outer = _signed_area(xy[i:j]), _signed_area(np.concatenate((xy[j:], xy[:i])))
        if min(inner, outer) < 0.0 < max(inner, outer):
            return True
    return False


def _cross_terms(xy: np.ndarray) -> tuple[np.ndarray, ...]:
    """x0, y0, x1, y1 and x0 y1 - x1 y0 of a ring ``xy`` (n, 2), or of a stack of rings (m, n, 2),
    in ``xy.T``'s axis order: each vertex, and the next, less the ring's first vertex."""
    x, y = xy.T
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is part of the result
        x0, y0 = x - x[0], y - y[0]
        x1, y1 = _ring_next(x0), _ring_next(y0)
        return x0, y0, x1, y1, x0 * y1 - x1 * y0


def _signed_area(xy: np.ndarray):
    """Signed area of a ring ``xy`` (n, 2), or the areas of a stack (m, n, 2): half the cross terms
    summed in ring order from 0.0.  Every ring orientation and loop sign is this sum's sign."""
    return 0.5 * ordered_sum(_cross_terms(xy)[-1])


def _shoelace(xy: np.ndarray) -> tuple[float, float, float]:
    """(area, integral of x dA, integral of y dA) of the ring ``xy``: its ``_signed_area``, and the
    moments summed relative to its first vertex o, plus o times the area, so moving o costs no accuracy."""
    ox, oy = xy[0].tolist()  # Python floats, so that the measures are too
    x0, y0, x1, y1, cross = _cross_terms(xy)
    a = 0.5 * ordered_sum(cross)  # _signed_area(xy), from the terms the moments read too
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is part of the result
        return a, ordered_sum((x0 + x1) * cross) / 6.0 + ox * a, ordered_sum((y0 + y1) * cross) / 6.0 + oy * a


# ---------------------------------------------------------------------------
# oblique-cut side moments (the moment lemma behind Guldin's theorems)


def _part_means(s0: np.ndarray, s1: np.ndarray, power: int) -> tuple[np.ndarray, np.ndarray]:
    """The means over segments of max(s, 0)^power and of max(-s, 0)^power,
    ``power`` 1 or 2, where s runs linearly from s0 to s1 along each segment.

    With p0, p1 the parts at the two ends, the mean over the stretch where
    the part is positive is (p0 + p1) / 2, or (p0^2 + p0 p1 + p1^2) / 3;
    where s changes sign, that stretch is the share (p0 + p1) / |s1 - s0| of
    the segment.
    """
    # an overflow is part of the result, and the share is taken only where s changes sign
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        crosses = (s0 > 0.0) != (s1 > 0.0)
        means = []
        for p0, p1 in ((np.maximum(s0, 0.0), np.maximum(s1, 0.0)), (np.maximum(-s0, 0.0), np.maximum(-s1, 0.0))):
            mean = (p0 + p1) / 2.0 if power == 1 else (p0 * p0 + p0 * p1 + p1 * p1) / 3.0
            means.append(np.where(crosses, mean * ((p0 + p1) / np.abs(s1 - s0)), mean))
    return tuple(means)


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
    return line.first_moment(*_nonzero_measures(region))


def first_moment_curve(curve: Curve, line: Line2) -> float:
    """Integral of the signed distance to ``line`` over the curve (ds)."""
    return line.first_moment(*_nonzero_length(curve))


def bounding_box(region: PlanarRegion) -> tuple[tuple[float, float], tuple[float, float]]:
    return region.box()


def contains(region: PlanarRegion, xs, ys) -> np.ndarray:
    """Vectorized membership test; accepts arrays, returns a boolean array."""
    return region.contains(np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64))


def boundary(region: PlanarRegion) -> Curve:
    """Boundary curve of a region (closed polyline or circle)."""
    return region.boundary()
