"""Exception hierarchy for geometric preconditions and measure failures."""


class GeometryError(Exception):
    """Base class for all geometric precondition violations."""


class UnsupportedExact(GeometryError):
    """No exact closed form exists; use the exhaustion module instead."""


class UnsupportedRegion(GeometryError):
    """The operation is not defined for this region kind."""


class UnsupportedSolid(GeometryError):
    """The operation is not defined for this solid kind."""


class DegenerateRegion(GeometryError):
    """The region has zero area, so the measure is undefined."""


class DegenerateCurve(GeometryError):
    """The curve has zero length, so the measure is undefined."""


class DegenerateSolid(GeometryError):
    """The solid has zero measure."""


class InvalidMonotonicity(GeometryError):
    """Diagnostic sampling contradicted a declared monotonicity flag."""


class ToleranceNotReached(GeometryError):
    """Refinement hit the slab budget before reaching the tolerance.

    Carries the tightest enclosure reached as ``best``.
    """

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


class ApexHeightChanged(GeometryError):
    """A cone apex move left the plane parallel to the base."""


class AxisCrossing(GeometryError):
    """A profile point lies on the negative side of the revolution axis."""


class SlabOutOfRange(GeometryError):
    """A sphere slab [z1, z2] is not inside [-r, r] or is empty."""


class EmptyBox(GeometryError):
    """A sampling box has no side, a side of nonpositive or non-finite extent,
    or a measure that is not finite."""
