"""Evaluator for parsed construction scripts.

Bindings execute in order; assertion failures are recorded and execution
continues, while name/type/geometry errors abort with the offending source
span attached.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass

from ..errors import GeometryError
from ..geometry import (
    Disk,
    Line2,
    PlanarRegion,
    Point2,
    Polygon,
    Profile,
    area,
    boundary,
    centroid_region,
    perimeter,
)
from ..solids import (
    Cone,
    Cylinder,
    Hoof,
    Point3,
    Solid,
    SolidOfRevolution,
    Sphere,
    TangentPolyhedron,
    lateral_area,
    surface_area,
    volume,
)
from ..transforms import (
    meridian_unfold,
    move_apex,
    shear_region,
    twist_column,
    unfold_revolution,
    unroll_disk,
)
from .parser import (
    Assertion,
    BinOp,
    Call,
    LetBinding,
    Measure,
    Neg,
    Number,
    PiConst,
    Reference,
    Script,
    Span,
    left_chain,
    parse,
)

class ScriptError(Exception):
    """Evaluation error with a source position."""

    def __init__(self, message: str, span: Span):
        super().__init__(f"line {span.line}, column {span.column}: {message}")
        self.span = span
        self.reason = message


class ScriptNameError(ScriptError):
    """Reference to a name that was never bound."""


class ScriptTypeError(ScriptError):
    """A measure or call applied to a value of the wrong kind."""


class ScriptGeometryError(ScriptError, GeometryError):
    """A geometric precondition failed while evaluating a script."""


@dataclass(frozen=True)
class AssertionRecord:
    line: int
    column: int
    left_value: float
    right_value: float
    difference: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class RunReport:
    records: tuple[AssertionRecord, ...]

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.records)


def _kind_name(value) -> str:
    return type(value).__name__


@contextmanager
def _located(span: Span):
    """Report a library failure inside the block as a script error at ``span``;
    a script error raised inside passes through unchanged."""
    try:
        yield
    except ScriptError:
        raise
    except GeometryError as exc:
        raise ScriptGeometryError(str(exc), span) from exc
    except (ValueError, TypeError) as exc:
        raise ScriptTypeError(str(exc), span) from exc


# Each measure: the kinds it applies to, as its type error names them, and its rule.
_MEASURES = {
    "area": (PlanarRegion, "a region", area),
    "perimeter": (PlanarRegion, "a region", lambda region: perimeter(boundary(region))),
    "centroid_rho": (PlanarRegion, "a region or profile", lambda region: centroid_region(region).x),
    "volume": (Solid, "a solid", volume),
    "surface": (Solid, "a solid", surface_area),
    "lateral_area": (Solid, "a solid", lateral_area),
}


# The arithmetic of measure expressions; division by zero is an evaluation error.
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _named(args, span, *, required=(), optional=()):
    """Split call args into positional values and a validated kwargs dict."""
    positional = []
    named = {}
    for name, value in args:
        if name is None:
            if named:
                raise ScriptTypeError("positional argument after a named one", span)
            positional.append(value)
        else:
            if name in named:
                raise ScriptTypeError(f"duplicate argument {name!r}", span)
            named[name] = value
    allowed = set(required) | set(optional)
    for name in named:
        if name not in allowed:
            raise ScriptTypeError(f"unknown argument {name!r}", span)
    for name in required:
        if name not in named:
            raise ScriptTypeError(f"missing argument {name!r}", span)
    return positional, named


def _number(value, span, what) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScriptTypeError(f"{what} must be a number", span)
    return float(value)


def _count(value, span, what) -> int:
    n = _number(value, span, what)
    if not n.is_integer():
        raise ScriptTypeError(f"{what} must be an integer, got {n!r}", span)
    return int(n)


def _point(value, span, what) -> Point2:
    if not (isinstance(value, tuple) and len(value) == 2):
        raise ScriptTypeError(f"{what} must be a point (x, y)", span)
    return Point2(float(value[0]), float(value[1]))


def _faces(value, span, what) -> tuple:
    if not isinstance(value, tuple):
        raise ScriptTypeError(f"{what} must be a tuple of areas", span)
    return value


# How a named argument is read; any other is read as a number.
_READERS = {"n": _count, "faces": _faces}


def _triangle(vertices) -> Polygon:
    if len(vertices) != 3:
        raise ValueError("triangle takes exactly 3 points")
    return Polygon(vertices)


def _rect(x0, x1, y0, y1) -> Polygon:
    if not (x0 < x1 and y0 < y1):
        raise ValueError("rect needs x0 < x1 and y0 < y1")
    return Polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def _profile(shape) -> Profile:
    """A profile as given, a region taken as one, or the polygon on a list of vertices."""
    if isinstance(shape, Profile):
        return shape
    return Profile(shape if isinstance(shape, PlanarRegion) else Polygon(shape))


def _cone(base, h, center=None) -> Cone:
    """A cone(r=...) apex stands over (cx, cy), a base region's over its centroid."""
    c = center or centroid_region(base)
    return Cone(base, Point3(c.x, c.y, h))


# How a call takes its positional arguments: not at all (None); _VERTICES, a
# list of three or more points; _REGION_OR_VERTICES, one region or else such a
# list; _PROFILE, exactly one profile or region; _BASE, a base region, or else
# a disk from r=, cx= and cy=, whose centre the rule gets last; or one figure
# of a (kind, description).  Positional arguments after a figure are ignored.
_VERTICES, _REGION_OR_VERTICES, _PROFILE, _BASE = "vertices", "region or vertices", "profile", "base"
_FIGURES = {_PROFILE: ((Profile, PlanarRegion), "a profile or region"), _BASE: (PlanarRegion, "a region")}
_OPTIONAL = ("cx", "cy")  # default 0

# Each call: its positional arguments, its named ones, and the library rule
# that gets them all, in that order.
_CALLS = {
    "triangle": (_VERTICES, (), _triangle),
    "polygon": (_VERTICES, (), Polygon),
    "profile": (_REGION_OR_VERTICES, (), _profile),
    "disk": (None, ("r", "cx", "cy"), lambda r, cx, cy: Disk(Point2(cx, cy), r)),
    "rect": (None, ("x0", "x1", "y0", "y1"), _rect),
    "sphere": (None, ("r",), Sphere),
    "cylinder": (_BASE, ("h",), lambda base, h, center=None: Cylinder(base, h)),
    "cone": (_BASE, ("h",), _cone),
    "hoof": (None, ("r", "h"), Hoof),
    "revolve": (_PROFILE, (), lambda shape: SolidOfRevolution(_profile(shape))),
    "tangent_polyhedron": (None, ("faces", "r"), TangentPolyhedron),
    "shear": (
        (PlanarRegion, "a region"),
        ("base_y", "shift"),
        lambda region, base_y, shift: shear_region(region, Line2.horizontal(base_y), shift),
    ),
    "move_apex": ((Cone, "a cone"), ("x", "y", "z"), lambda cone, x, y, z: move_apex(cone, Point3(x, y, z))),
    "unroll": ((Disk, "a disk"), ("n",), unroll_disk),
    "twist": ((Cylinder, "a cylinder"), ("rate",), twist_column),
    "meridian_unfold": ((Sphere, "a sphere"), ("n",), meridian_unfold),
    "unfold_revolution": (_PROFILE, (), lambda shape: unfold_revolution(_profile(shape))),
}


class _Evaluator:
    def __init__(self):
        self.env = {}

    # construction values -------------------------------------------------

    def eval_expr(self, expr):
        if isinstance(expr, Reference):
            if expr.name not in self.env:
                raise ScriptNameError(f"name {expr.name!r} is not bound", expr.span)
            return self.env[expr.name]
        if isinstance(expr, Call):
            return self.eval_call(expr)
        raise ScriptTypeError(f"cannot evaluate {_kind_name(expr)}", getattr(expr, "span", Span()))

    def eval_call(self, call: Call):
        if call.name not in _CALLS:
            raise ScriptNameError(f"unknown constructor or transform {call.name!r}", call.span)
        takes, names, rule = _CALLS[call.name]
        with _located(call.span):
            return rule(*self._bind(call, takes, names))

    def _bind(self, call: Call, takes, names) -> list:
        """The rule's arguments: what ``takes`` makes of the positional ones, then the named ones."""
        span = call.span
        optional = ("r", *_OPTIONAL) if takes == _BASE else [n for n in names if n in _OPTIONAL]
        positional, named = _named(
            call.args, span, required=[n for n in names if n not in optional], optional=optional
        )

        def read(*wanted):
            return [_READERS.get(name, _number)(named.get(name, 0.0), span, name) for name in wanted]

        if takes is None:
            if positional:
                raise ScriptTypeError(f"{call.name} takes named arguments only", span)
            return read(*names)
        if takes == _REGION_OR_VERTICES:
            lone = len(positional) == 1 and isinstance(positional[0], (Reference, Call))
            takes = (PlanarRegion, "a region") if lone else _VERTICES
        if takes == _VERTICES:
            if len(positional) < 3:
                raise ScriptTypeError(f"{call.name} needs at least 3 points", span)
            return [[_point(v, span, "vertex") for v in positional]]
        if takes == _PROFILE and len(positional) != 1:
            raise ScriptTypeError(f"{call.name} takes one profile or region", span)
        values = read(*names) if takes == _BASE else None  # the height comes before the base
        if takes == _BASE and not positional:
            if "r" not in named:
                raise ScriptTypeError(f"{call.name} needs r= or a base region", span)
            cx, cy, r = read("cx", "cy", "r")
            return [Disk(Point2(cx, cy), r), *values, Point2(cx, cy)]
        kind, what = _FIGURES.get(takes, takes)
        if not positional:
            raise ScriptTypeError(f"{call.name} needs {what} as its first argument", span)
        figure = positional[0]
        if isinstance(figure, (Reference, Call)):
            figure = self.eval_expr(figure)
        if not isinstance(figure, kind):
            raise ScriptTypeError(f"{call.name} needs {what}, got {_kind_name(figure)}", span)
        return [figure, *(read(*names) if values is None else values)]

    # measure expressions --------------------------------------------------

    def eval_mexpr(self, node) -> float:
        if isinstance(node, Number):
            return node.value
        if isinstance(node, PiConst):
            return math.pi
        if isinstance(node, Neg):
            return -self.eval_mexpr(node.operand)
        if isinstance(node, BinOp):
            # a left-deep chain such as 1 + 1 + ... + 1 folds in a loop, not by recursion
            first, ops = left_chain(node)
            value = self.eval_mexpr(first)
            for op in ops:
                right = self.eval_mexpr(op.right)
                try:
                    value = _OPERATORS[op.op](value, right)
                except KeyError:
                    raise ScriptTypeError(f"unknown operator {op.op!r}", op.span) from None
                except ZeroDivisionError:
                    raise ScriptError("division by zero", op.span) from None
            return value
        if isinstance(node, Measure):
            return self.eval_measure(node)
        raise ScriptTypeError(f"cannot evaluate {_kind_name(node)}", getattr(node, "span", Span()))

    def eval_measure(self, node: Measure) -> float:
        value = self.eval_expr(node.target)
        if node.kind not in _MEASURES:
            raise ScriptTypeError(f"unknown measure {node.kind!r}", node.span)
        kind, what, rule = _MEASURES[node.kind]
        if node.kind == "centroid_rho" and isinstance(value, Profile):
            value = value.region
        if not isinstance(value, kind):
            raise ScriptTypeError(f"{node.kind}() needs {what}, got {_kind_name(value)}", node.span)
        with _located(node.span):
            return rule(value)

    # statements -------------------------------------------------------------

    def run(self, script: Script) -> RunReport:
        records = []
        for stmt in script.statements:
            try:
                if isinstance(stmt, LetBinding):
                    self.env[stmt.name] = self.eval_expr(stmt.expr)
                elif isinstance(stmt, Assertion):
                    left = self.eval_mexpr(stmt.left)
                    right = self.eval_mexpr(stmt.right)
                    diff = abs(left - right)
                    records.append(
                        AssertionRecord(
                            line=stmt.span.line,
                            column=stmt.span.column,
                            left_value=left,
                            right_value=right,
                            difference=diff,
                            tolerance=stmt.tolerance,
                            passed=diff <= stmt.tolerance,
                        )
                    )
                else:
                    raise ScriptTypeError(f"unknown statement {_kind_name(stmt)}", Span())
            except RecursionError:
                raise ScriptError("expression nested too deeply to evaluate", stmt.span) from None
        return RunReport(tuple(records))


def evaluate(script: Script) -> RunReport:
    """Execute a parsed script; returns the per-assertion report."""
    return _Evaluator().run(script)


def run_script(source: str) -> RunReport:
    """Parse and evaluate a script with an empty environment."""
    return evaluate(parse(source))
