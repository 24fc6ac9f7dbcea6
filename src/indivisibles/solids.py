"""Closed-form solids, the hat-box slab equality, oblique-cut moments and the
two theorems of Pappus and Guldin.

Every solid is an immutable value, and each kind holds its own facts as
methods: its volume, lateral and surface areas where the classical forms
exist and, for the kinds the command line names, its section profile,
membership and bounding box.  Cones and cylinders carry an arbitrary planar
base (living in the z = 0 plane); volumes depend on the base only through its
area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import ordered_sum
from .errors import (
    AxisCrossing,
    DegenerateSolid,
    SlabOutOfRange,
    UnsupportedSolid,
)
from .geometry import (
    TWO_PI,
    Curve,
    Line2,
    PlanarRegion,
    Point2,
    Profile,
    SectionFunction,
    first_moment_curve,
    _finite_nonzero,
    _nonzero_length,
    _nonzero_measures,
    _out_of_range,
    _rise_fall,
    _require_finite,
)

# How far, relative to the height's scale, a height field may dip below its base.
_HEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class Point3:
    x: float
    y: float
    z: float

    def __post_init__(self):
        _require_finite(self.x, self.y, self.z)


class Solid:
    """Base of the solid kinds, which all give ``volume()``.  The rules below
    are those some kind lacks, which raise UnsupportedSolid: the classical
    lateral and surface areas, and the section profile (areas of parallel
    slices), membership on float64 arrays and covering box ((xlo, xhi),
    (ylo, yhi), (zlo, zhi)) that the kinds the command line names give."""

    def _lacks(self, rule: str):
        raise UnsupportedSolid(f"no {rule} rule for {type(self).__name__}")

    def lateral_area(self) -> float:
        self._lacks("lateral area")

    def surface_area(self) -> float:
        self._lacks("surface area")

    def section(self) -> SectionFunction:
        self._lacks("section")

    def contains(self, xs, ys, zs) -> np.ndarray:
        self._lacks("membership")

    def box(self):
        self._lacks("bounding box")


def _base_area(region: PlanarRegion) -> float:
    a = region.area()
    if a <= 0.0:
        raise DegenerateSolid("base region has zero area")
    return a


@dataclass(frozen=True)
class Cone(Solid):
    """Cone over ``base`` (in the z = 0 plane) with apex anywhere off that plane."""

    base: PlanarRegion
    apex: Point3

    def __post_init__(self):
        if self.apex.z == 0.0:
            raise DegenerateSolid("cone apex lies in the base plane")

    def volume(self) -> float:
        return _base_area(self.base) * abs(self.apex.z) / 3.0

    def section(self) -> SectionFunction:
        # the slice at distance z from the base is the base scaled by 1 - z/h
        h = abs(self.apex.z)
        a = _base_area(self.base)
        return SectionFunction(lambda z: a * (1.0 - z / h) ** 2, domain=(0.0, h), monotonicity=("decreasing",))

    def contains(self, xs, ys, zs) -> np.ndarray:
        ax, ay, az = self.apex.x, self.apex.y, self.apex.z
        t = zs / az  # 0 in the base plane, 1 at the apex
        s = 1.0 - t
        with np.errstate(divide="ignore", invalid="ignore"):
            inside = self.base.contains((xs - t * ax) / s, (ys - t * ay) / s)
        return inside & (t >= 0.0) & (t <= 1.0)

    def box(self):
        (x0, x1), (y0, y1) = self.base.box()
        ax, ay, az = self.apex.x, self.apex.y, self.apex.z
        return (min(x0, ax), max(x1, ax)), (min(y0, ay), max(y1, ay)), (min(0.0, az), max(0.0, az))


@dataclass(frozen=True)
class Cylinder(Solid):
    """Right cylinder over ``base`` with axis along z."""

    base: PlanarRegion
    height: float

    def __post_init__(self):
        _require_finite(self.height)
        if self.height <= 0.0:
            raise ValueError("cylinder height must be positive")

    def volume(self) -> float:
        return _base_area(self.base) * self.height

    def lateral_area(self) -> float:
        return sum(piece.measures()[0] for piece in self.base._pieces()) * self.height

    def surface_area(self) -> float:
        return self.lateral_area() + 2.0 * _base_area(self.base)


@dataclass(frozen=True)
class Sphere(Solid):
    radius: float

    def __post_init__(self):
        _require_finite(self.radius)
        if self.radius <= 0.0:
            raise ValueError("sphere radius must be positive")

    def volume(self) -> float:
        # one third of the surface area times the radius
        return self.surface_area() * self.radius / 3.0

    def surface_area(self) -> float:
        return 4.0 * math.pi * (self.radius * self.radius)

    lateral_area = surface_area

    def section(self) -> SectionFunction:
        r = self.radius
        return _rise_fall(SectionFunction, lambda z: math.pi * np.maximum(r * r - z * z, 0.0), -r, 0.0, r)

    def contains(self, xs, ys, zs) -> np.ndarray:
        r = self.radius
        return xs * xs + ys * ys + zs * zs <= r * r

    def box(self):
        return ((-self.radius, self.radius),) * 3


@dataclass(frozen=True)
class Hoof(Solid):
    """Cylindrical hoof: the part of the cylinder rho <= r, y >= 0 under the
    plane z = (height/r) * y through a base diameter."""

    radius: float
    height: float

    def __post_init__(self):
        _require_finite(self.radius, self.height)
        if self.radius <= 0.0 or self.height <= 0.0:
            raise ValueError("hoof dimensions must be positive")

    def volume(self) -> float:
        return (2.0 / 3.0) * (self.radius * self.radius) * self.height

    def lateral_area(self) -> float:
        return 2.0 * self.radius * self.height

    def surface_area(self) -> float:
        r, h = self.radius, self.height
        # curved wall + half-disk base + half-ellipse cut face
        return 2.0 * r * h + 0.5 * math.pi * (r * r) + 0.5 * math.pi * r * math.hypot(r, h)

    def section(self) -> SectionFunction:
        # slices across y are rectangles of width 2*sqrt(r^2 - y^2), height slope*y
        r = self.radius
        slope = self.height / r

        def area(y):
            return 2.0 * slope * y * np.sqrt(np.maximum(r * r - y * y, 0.0))

        return _rise_fall(SectionFunction, area, 0.0, r / math.sqrt(2.0), r)

    def contains(self, xs, ys, zs) -> np.ndarray:
        r = self.radius
        slope = self.height / r
        return (xs * xs + ys * ys <= r * r) & (ys >= 0.0) & (zs >= 0.0) & (zs <= slope * ys)

    def box(self):
        r = self.radius
        return (-r, r), (0.0, r), (0.0, self.height)


@dataclass(frozen=True)
class DoubleHoof(Solid):
    """Two hoofs glued base to base: |z| <= (apex_height/r) * y inside the
    cylinder.  ``wedges`` records the discretization that produced it."""

    radius: float
    apex_height: float
    wedges: int | None = None

    def __post_init__(self):
        _require_finite(self.radius, self.apex_height)
        if self.radius <= 0.0 or self.apex_height <= 0.0:
            raise ValueError("double hoof dimensions must be positive")

    def volume(self) -> float:
        return 2.0 * Hoof(self.radius, self.apex_height).volume()

    def lateral_area(self) -> float:
        # only the cylindrical ruled wall counts; the flat cut faces do not
        return 2.0 * Hoof(self.radius, self.apex_height).lateral_area()


@dataclass(frozen=True)
class TangentPolyhedron(Solid):
    """Polyhedron whose faces are all tangent to its insphere.

    Only the face areas and the insphere radius matter for its volume, so
    tangency is asserted by construction rather than stored as geometry.
    """

    face_areas: tuple[float, ...]
    insphere_radius: float

    def __init__(self, face_areas, insphere_radius):
        areas = tuple(float(a) for a in face_areas)
        if len(areas) < 4:
            raise ValueError("a polyhedron needs at least 4 faces")
        _require_finite(*areas, insphere_radius)
        if any(a <= 0.0 for a in areas):
            raise ValueError("face areas must be positive")
        if insphere_radius <= 0.0:
            raise ValueError("insphere radius must be positive")
        object.__setattr__(self, "face_areas", areas)
        object.__setattr__(self, "insphere_radius", float(insphere_radius))

    def volume(self) -> float:
        return self.surface_area() * self.insphere_radius / 3.0

    def surface_area(self) -> float:
        # left to right on every Python: the built-in sum() compensates from 3.12 on
        return ordered_sum(self.face_areas)


@dataclass(frozen=True)
class SolidOfRevolution(Solid):
    """The solid swept by a meridian profile about the rho = 0 axis (z up)."""

    profile: Profile

    def volume(self) -> float:
        return guldin_volume(self.profile)

    def lateral_area(self) -> float:
        # Guldin's second theorem, piece by piece; a piece on the axis adds exactly 0
        return TWO_PI * sum(_RHO_AXIS.first_moment(*piece.measures()) for piece in self.profile.region._pieces())

    surface_area = lateral_area

    def section(self) -> SectionFunction:
        return self.profile.region.revolved_section()

    def contains(self, xs, ys, zs) -> np.ndarray:
        return self.profile.region.contains(np.hypot(xs, ys), zs)

    def box(self):
        (_, rho1), (z0, z1) = self.profile.region.box()
        rmax = max(rho1, 0.0)
        return (-rmax, rmax), (-rmax, rmax), (z0, z1)


@dataclass(frozen=True)
class HeightFieldCylinder(Solid):
    """Cylinder over ``base`` whose top is the graph of h(x, y) = a*x + b."""

    base: PlanarRegion
    rho_coeff: float
    offset: float = 0.0

    def __post_init__(self):
        _require_finite(self.rho_coeff, self.offset)

    def volume(self) -> float:
        a, sx, _ = self.base.measures()
        if a <= 0.0:
            raise DegenerateSolid("base region has zero area")
        self._check_nonnegative()
        return self.rho_coeff * sx + self.offset * a

    def lateral_area(self) -> float:
        length, mx, _ = map(sum, zip(*(piece.measures() for piece in self.base._pieces())))
        if length <= 0.0:
            raise DegenerateSolid("base boundary has zero length")
        self._check_nonnegative()
        return self.rho_coeff * mx + self.offset * length

    def _check_nonnegative(self):
        """The affine height must not dip below zero anywhere over the base."""
        (x0, x1), _ = self.base.box()
        a, b, x_max = self.rho_coeff, self.offset, max(abs(x0), abs(x1))
        extreme_x = x0 if a >= 0.0 else x1
        # every term scaled by 2^-e, exactly while it stays normal, to at most 2: none overflows
        ea = math.frexp(a)[1]
        e = ea + math.frexp(x_max)[1]
        e = max(e, math.frexp(b)[1]) if b else e  # b = 0 has no exponent to keep in range
        sa, sb = math.ldexp(a, -ea), math.ldexp(b, -e)
        sx, sx_max = math.ldexp(extreme_x, ea - e), math.ldexp(x_max, ea - e)
        if sa * sx + sb < -_HEIGHT_TOL * (abs(sa) * sx_max + abs(sb)):
            raise DegenerateSolid(f"height field reaches {a * extreme_x + b!r} below the base plane")


@dataclass(frozen=True)
class TwistedColumn(Solid):
    """Column whose cross-section at height z is the base rotated by
    twist_rate * z; congruent sections, so the volume is that of the
    straight column."""

    base: PlanarRegion
    height: float
    twist_rate: float

    def __post_init__(self):
        _require_finite(self.height, self.twist_rate)
        if self.height <= 0.0:
            raise ValueError("column height must be positive")

    def volume(self) -> float:
        return _base_area(self.base) * self.height


def volume(solid: Solid) -> float:
    """Volume by the classical closed forms."""
    return _finite_nonzero("volume", solid, solid.volume)


def lateral_area(solid: Solid) -> float:
    """Lateral (curved / side) surface area where the classical forms exist."""
    return _finite_nonzero("lateral area", solid, solid.lateral_area)


def surface_area(solid: Solid) -> float:
    """Total surface area where the classical forms exist."""
    return _finite_nonzero("surface area", solid, solid.surface_area)


# revolution axis: rho = 0, directed along +z; distances are positive on the
# rho > 0 side (direction (0,1) has left normal (-1,0), hence the flip below).
_RHO_AXIS = Line2(Point2(0.0, 0.0), (0.0, -1.0))


def rho_axis() -> Line2:
    """The revolution axis rho = 0, oriented so rho > 0 is the positive side."""
    return _RHO_AXIS


# ---------------------------------------------------------------------------
# hat-box


def sphere_zone_vs_band(r: float, z1: float, z2: float) -> tuple[float, float]:
    """Area of the sphere zone z1 <= z <= z2 and of the matching cylinder band.

    The zone integrand 2*pi*rho(z) * sqrt(1 + rho'(z)^2) collapses to the
    constant 2*pi*r, so both areas reduce to the same expression and the
    equality is exact, not approximate.
    """
    Sphere(r)  # the radius rule of a sphere
    if not (-r <= z1 < z2 <= r):
        raise SlabOutOfRange(f"slab [{z1}, {z2}] is not a nonempty slab of [-{r}, {r}]")
    zone = TWO_PI * r * (z2 - z1)
    band = TWO_PI * r * (z2 - z1)
    return zone, band


# ---------------------------------------------------------------------------
# oblique cuts (the moment lemma behind Guldin's theorems)


def _check_slope(slope: float) -> None:
    """ValueError unless the cut plane's ``slope`` lies in (0, inf)."""
    if not 0.0 < slope < math.inf:
        raise ValueError(f"cut slope must be positive and finite, not {slope!r}")


def oblique_cut_volumes(base: PlanarRegion, cut_line: Line2, slope: float) -> tuple[float, float]:
    """Volumes of the two cylinder pieces cut off by the oblique plane.

    The infinite vertical cylinder over ``base`` is cut by the plane through
    ``cut_line`` rising with ``slope``; the piece above the base plane on the
    positive side and the piece below it on the negative side have volumes
    slope * (side moment), so they are equal exactly when the cut line passes
    through the centroid of the base.  The side moments of a polygon, disk or
    half-disk come from one boundary rule (``PlanarRegion.side_moments``);
    those of a slab region are midpoint sums at its declared resolution.
    """
    _check_slope(slope)
    _nonzero_measures(base, "base region")
    pos, neg = base.side_moments(cut_line)
    return slope * pos, slope * neg


def oblique_cut_lateral_areas(boundary: Curve, cut_line: Line2, slope: float) -> tuple[float, float]:
    """Lateral areas of the two cylinder-wall pieces cut by the oblique plane.

    Equal exactly when the cut line passes through the curve centroid.  A
    length or side moment that overflows raises GeometryError.
    """
    _check_slope(slope)
    _nonzero_length(boundary, "boundary", "length")
    pos, neg = boundary.side_moments(cut_line)
    if not (math.isfinite(pos) and math.isfinite(neg)):
        raise _out_of_range("side moment", boundary, "is not finite")
    return slope * pos, slope * neg


# ---------------------------------------------------------------------------
# Pappus-Guldin


def guldin_volume(profile: Profile) -> float:
    """Volume of revolution: section area times the centroid circumference."""
    _, sx, _ = _nonzero_measures(profile.region, "profile region")
    return TWO_PI * sx  # = 2*pi * rho_bar * area


def guldin_surface(profile_boundary: Curve, axis: Line2) -> float:
    """Surface of revolution: boundary length times its centroid circumference.

    The axis is explicit so open arcs (sphere zones) work; every point of the
    curve must satisfy rho >= 0 (distance measured on the positive side).
    """
    _nonzero_length(profile_boundary, "profile boundary")
    rho_min = profile_boundary.min_distance(axis)
    if rho_min < -1e-12:
        raise AxisCrossing(f"curve reaches rho = {rho_min!r} past the revolution axis")
    moment = first_moment_curve(profile_boundary, axis)
    return TWO_PI * moment  # = 2*pi * rho_bar_curve * length
