"""Executable geometry of indivisibles.

Exact and certified (interval-bounded) areas, volumes, centroids and first
moments; the classical measure-preserving constructions (shear, unrolling,
twisting, meridian unfolding, revolution unfolding); the Pappus-Guldin
theorems; brute-force oracles to cross-check everything; and a small script
language that replays the derivations as machine-checked assertions.
"""

from ._kernels import BACKEND
from .errors import (
    ApexHeightChanged,
    AxisCrossing,
    DegenerateCurve,
    DegenerateRegion,
    DegenerateSolid,
    EmptyBox,
    GeometryError,
    InvalidMonotonicity,
    SlabOutOfRange,
    ToleranceNotReached,
    UnsupportedExact,
    UnsupportedRegion,
    UnsupportedSolid,
)
from .exhaustion import MeasureInterval, area_bounds, refine_until, volume_bounds
from .geometry import (
    CircleArc,
    Curve,
    Disk,
    HalfDisk,
    Line2,
    PlanarRegion,
    Point2,
    Polygon,
    Polyline,
    Profile,
    SectionFunction,
    SlabRegion,
    WidthFunction,
    area,
    boundary,
    bounding_box,
    centroid_curve,
    centroid_region,
    contains,
    first_moment,
    first_moment_curve,
    perimeter,
)
from .oracle import Estimate, boundary_integral, mc_area, mc_volume, riemann_volume
from .solids import (
    Cone,
    Cylinder,
    DoubleHoof,
    HeightFieldCylinder,
    Hoof,
    Point3,
    Solid,
    SolidOfRevolution,
    Sphere,
    TangentPolyhedron,
    TwistedColumn,
    guldin_surface,
    guldin_volume,
    lateral_area,
    oblique_cut_lateral_areas,
    oblique_cut_volumes,
    rho_axis,
    sphere_zone_vs_band,
    surface_area,
    volume,
)
from .transforms import (
    Transform,
    meridian_unfold,
    move_apex,
    sawtooth_teeth,
    shear_region,
    twist_column,
    unfold_revolution,
    unroll_disk,
)

__version__ = "0.1.0"
