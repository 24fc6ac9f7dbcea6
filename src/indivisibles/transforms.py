"""Measure-preserving figure transforms.

Each construction is an explicit figure-to-figure map whose docstring names
the measure it preserves.  Shears, apex moves, twists and the revolution
unfolding preserve their measures exactly; the two discretized constructions
(circle unrolling, meridian unfolding) return explicit discrete geometry
together with a documented convergence rate instead of pretending to be exact.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ApexHeightChanged, UnsupportedRegion
from .geometry import TWO_PI, Disk, Line2, PlanarRegion, Polygon, Profile, _signed_area, _trusted
from .solids import Cone, Cylinder, DoubleHoof, HeightFieldCylinder, Point3, Solid, Sphere, TwistedColumn

# The most slices ``unroll_disk`` takes: at 2**16 the sawtooth is about 0.1 s
# and 26 MB, and its SVG about 8 MB.
UNROLL_BUDGET = 2**16


def shear_region(region: PlanarRegion, base: Line2, shift_per_unit_distance: float) -> Polygon:
    """Slide each vertex along the base direction, proportionally to its
    distance from the base.  Slices parallel to the base glide over each
    other, so the area is preserved exactly."""
    if not isinstance(region, Polygon):
        raise UnsupportedRegion("shear is defined for polygons only")
    xy, k = region.xy(), shift_per_unit_distance
    dx, dy = base.direction
    with np.errstate(over="ignore", invalid="ignore"):  # a vertex that overflows is rejected by Polygon
        d = base.signed_distances(xy[:, 0], xy[:, 1])
        moved = np.column_stack((xy[:, 0] + k * d * dx, xy[:, 1] + k * d * dy))
    return Polygon(moved)


def move_apex(cone: Cone, new_apex: Point3) -> Cone:
    """Move a cone apex within the plane parallel to its base.

    Every slice parallel to the base keeps its area, so the volume is the
    same; a height change is rejected.
    """
    h_old, h_new = cone.apex.z, new_apex.z
    if abs(h_new - h_old) > 1e-12 * max(abs(h_old), abs(h_new)):
        raise ApexHeightChanged(f"apex height changed from {h_old!r} to {h_new!r}")
    return Cone(cone.base, new_apex)


def unroll_disk(disk: Disk, n: int) -> Polygon:
    """Cut the disk like a pie into n slices and unroll them along a line.

    Returns the sawtooth polygon of n isoceles teeth (chord base
    2 r sin(pi/n), apothem height r cos(pi/n)) standing on a baseline of
    length n * chord.  Its area is n/2 * chord * apothem; the defect against
    pi r^2 shrinks at order 1/n^2 (within pi r^2 * (3/2) (pi/n)^2 for n >= 8).
    Shearing every tooth apex onto a common point afterwards leaves the area
    unchanged and produces a single triangle of the same base and height.
    At most ``UNROLL_BUDGET`` slices are taken.
    """
    if n < 3:
        raise ValueError("need at least 3 slices to unroll a disk")
    if n > UNROLL_BUDGET:
        raise ValueError(f"at most {UNROLL_BUDGET} slices unroll a disk, got {n}")
    r = disk.radius
    chord = 2.0 * r * math.sin(math.pi / n)
    apothem = r * math.cos(math.pi / n)
    i = np.arange(n, dtype=np.float64)
    # (0, 0), then tooth i's apex ((i + 0.5) chord, apothem) and its right
    # base corner ((i + 1) chord, 0).
    # Teeth touch the closing edge at interior vertices: weakly simple by design.
    xy = np.zeros((2 * n + 1, 2))
    with np.errstate(over="ignore"):  # a vertex that overflows is rejected by Polygon
        xy[1::2, 0] = (i + 0.5) * chord
        xy[2::2, 0] = (i + 1.0) * chord
    xy[1::2, 1] = apothem
    return Polygon(xy)


def _teeth(sawtooth: Polygon) -> np.ndarray:
    """The (n, 3, 2) tooth triangles of a sawtooth: tooth k is rows 2k, 2k + 2 and 2k + 1 of its
    array, a clockwise order, reversed where its ``_signed_area`` is negative, as ``Polygon`` would
    reverse it: every tooth but those whose area underflows to 0."""
    xy = sawtooth.xy()
    if len(xy) % 2 != 1:
        raise ValueError("not a sawtooth polygon")
    teeth = np.stack((xy[0:-1:2], xy[2::2], xy[1::2]), axis=1)
    clockwise = _signed_area(teeth) < 0.0
    teeth[clockwise] = teeth[clockwise, ::-1]
    return teeth


def sawtooth_teeth(sawtooth: Polygon) -> list[Polygon]:
    """Split an unrolled sawtooth back into its n tooth triangles.

    The teeth are checked and oriented as ``Polygon(tooth)`` checks and orients each one, all in
    one pass over the stack, with the same error; a triangle has no ring check, so each tooth is
    then kept as it stands."""
    teeth = _teeth(sawtooth)
    if (teeth == np.take(teeth, (1, 2, 0), axis=1)).all(axis=2).any():
        raise ValueError("polygon has a repeated consecutive vertex")
    clockwise = _signed_area(teeth) < 0.0
    teeth[clockwise] = teeth[clockwise, ::-1]
    teeth.flags.writeable = False
    return [_trusted(Polygon, tooth) for tooth in teeth]


def twist_column(cyl: Cylinder, twist: float) -> Solid:
    """Twist a column about its axis, rotating each cross-section by
    twist * z.  Sections stay congruent, so the volume is unchanged ("a stack
    of coins can be shifted into a helical stack of the same volume")."""
    if twist == 0.0:
        return cyl
    return TwistedColumn(cyl.base, cyl.height, twist)


def meridian_unfold(sphere: Sphere, n: int) -> DoubleHoof:
    """Split the sphere into n meridian wedges, unroll them along the equator
    and slide the ribs onto each other.

    Each wedge (dihedral 2 pi / n) is idealized as a cylinder section whose
    cut planes make the half-angle tan(pi/n) with the equator plane; stacking
    the wedges rib to rib yields a double hoof of cylinder radius r and apex
    height n r tan(pi/n).  Volume and lateral area are n (4/3) r^3 tan(pi/n)
    and n 4 r^2 tan(pi/n): both converge to the sphere values at order 1/n^2,
    and the limit object is the pair of hoofs with apex height pi r.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError("wedge count must be an even integer >= 4")
    r = sphere.radius
    apex = n * r * math.tan(math.pi / n)
    return DoubleHoof(radius=r, apex_height=apex, wedges=n)


def unfold_revolution(profile: Profile) -> HeightFieldCylinder:
    """Slice a solid of revolution by meridian half-planes, unfold and regroup
    it into a right cylinder over the section.

    Each vertical fibre of the cylinder has the length of the circumference
    described by its base point, so the height field is h(p) = 2 pi rho(p);
    volume and lateral area match the solid of revolution exactly.
    """
    return HeightFieldCylinder(base=profile.region, rho_coeff=TWO_PI, offset=0.0)
