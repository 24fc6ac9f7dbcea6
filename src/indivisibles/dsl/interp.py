"""Evaluator for parsed construction scripts.

Bindings execute in order; assertion failures are recorded and execution
continues, while name/type/geometry errors abort with the offending source
span attached.
"""

from __future__ import annotations

import math
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


# Each measure: the kinds it applies to, as its type error names them, and its rule.
_MEASURES = {
    "area": (PlanarRegion, "a region", area),
    "perimeter": (PlanarRegion, "a region", lambda region: perimeter(boundary(region))),
    "centroid_rho": (PlanarRegion, "a region or profile", lambda region: centroid_region(region).x),
    "volume": (Solid, "a solid", volume),
    "surface": (Solid, "a solid", surface_area),
    "lateral_area": (Solid, "a solid", lateral_area),
}


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


def _named_only(call, *, required=(), optional=()) -> dict:
    positional, named = _named(call.args, call.span, required=required, optional=optional)
    if positional:
        raise ScriptTypeError(f"{call.name} takes named arguments only", call.span)
    return named


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


class _Evaluator:
    def __init__(self, env: dict | None = None):
        self.env = dict(env or {})

    # construction values -------------------------------------------------

    def eval_expr(self, expr):
        if isinstance(expr, Reference):
            if expr.name not in self.env:
                raise ScriptNameError(f"name {expr.name!r} is not bound", expr.span)
            return self.env[expr.name]
        if isinstance(expr, Call):
            return self.eval_call(expr)
        raise ScriptTypeError(f"cannot evaluate {_kind_name(expr)}", getattr(expr, "span", Span()))

    def _value(self, value):
        """A positional argument, evaluated when it names or builds a figure."""
        return self.eval_expr(value) if isinstance(value, (Reference, Call)) else value

    def eval_call(self, call: Call):
        handler = getattr(self, f"_build_{call.name}", None)
        if handler is None:
            raise ScriptNameError(f"unknown constructor or transform {call.name!r}", call.span)
        try:
            return handler(call)
        except ScriptError:
            raise
        except GeometryError as exc:
            raise ScriptGeometryError(str(exc), call.span) from exc
        except (ValueError, TypeError) as exc:
            raise ScriptTypeError(str(exc), call.span) from exc

    def _first_arg(self, call: Call, positional, kind, what: str):
        if not positional:
            raise ScriptTypeError(f"{call.name} needs {what} as its first argument", call.span)
        value = self._value(positional[0])
        if not isinstance(value, kind):
            raise ScriptTypeError(f"{call.name} needs {what}, got {_kind_name(value)}", call.span)
        return value

    def _region_arg(self, call: Call, positional) -> PlanarRegion:
        return self._first_arg(call, positional, PlanarRegion, "a region")

    def _profile_arg(self, call: Call) -> Profile:
        """The one argument of a revolution: a profile, or a region taken as one."""
        positional, _ = _named(call.args, call.span)
        if len(positional) != 1:
            raise ScriptTypeError(f"{call.name} takes one profile or region", call.span)
        value = self._value(positional[0])
        if isinstance(value, PlanarRegion):
            value = Profile(value)
        if not isinstance(value, Profile):
            raise ScriptTypeError(f"{call.name} needs a profile or region, got {_kind_name(value)}", call.span)
        return value

    # constructors

    def _points(self, call: Call, minimum: int):
        positional, _ = _named(call.args, call.span)
        if len(positional) < minimum:
            raise ScriptTypeError(f"{call.name} needs at least {minimum} points", call.span)
        return [_point(v, call.span, "vertex") for v in positional]

    def _build_triangle(self, call: Call):
        pts = self._points(call, 3)
        if len(pts) != 3:
            raise ScriptTypeError("triangle takes exactly 3 points", call.span)
        return Polygon(pts)

    def _build_polygon(self, call: Call):
        return Polygon(self._points(call, 3))

    def _build_disk(self, call: Call):
        named = _named_only(call, required=("r",), optional=("cx", "cy"))
        r = _number(named["r"], call.span, "r")
        cx = _number(named.get("cx", 0.0), call.span, "cx")
        cy = _number(named.get("cy", 0.0), call.span, "cy")
        return Disk(Point2(cx, cy), r)

    def _build_rect(self, call: Call):
        named = _named_only(call, required=("x0", "x1", "y0", "y1"))
        x0 = _number(named["x0"], call.span, "x0")
        x1 = _number(named["x1"], call.span, "x1")
        y0 = _number(named["y0"], call.span, "y0")
        y1 = _number(named["y1"], call.span, "y1")
        if not (x0 < x1 and y0 < y1):
            raise ScriptTypeError("rect needs x0 < x1 and y0 < y1", call.span)
        return Polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])

    def _build_profile(self, call: Call):
        if len(call.args) == 1 and call.args[0][0] is None and isinstance(call.args[0][1], (Reference, Call)):
            return Profile(self._region_arg(call, [call.args[0][1]]))
        return Profile(Polygon(self._points(call, 3)))

    def _build_sphere(self, call: Call):
        named = _named_only(call, required=("r",))
        return Sphere(_number(named["r"], call.span, "r"))

    def _build_cylinder(self, call: Call):
        positional, named = _named(call.args, call.span, required=("h",), optional=("r", "cx", "cy"))
        h = _number(named["h"], call.span, "h")
        if positional:
            return Cylinder(self._region_arg(call, positional), h)
        if "r" not in named:
            raise ScriptTypeError("cylinder needs r= or a base region", call.span)
        cx = _number(named.get("cx", 0.0), call.span, "cx")
        cy = _number(named.get("cy", 0.0), call.span, "cy")
        return Cylinder(Disk(Point2(cx, cy), _number(named["r"], call.span, "r")), h)

    def _build_cone(self, call: Call):
        positional, named = _named(call.args, call.span, required=("h",), optional=("r", "cx", "cy"))
        h = _number(named["h"], call.span, "h")
        if positional:
            base = self._region_arg(call, positional)
            c = centroid_region(base)
            return Cone(base, Point3(c.x, c.y, h))
        if "r" not in named:
            raise ScriptTypeError("cone needs r= or a base region", call.span)
        cx = _number(named.get("cx", 0.0), call.span, "cx")
        cy = _number(named.get("cy", 0.0), call.span, "cy")
        return Cone(Disk(Point2(cx, cy), _number(named["r"], call.span, "r")), Point3(cx, cy, h))

    def _build_hoof(self, call: Call):
        named = _named_only(call, required=("r", "h"))
        return Hoof(_number(named["r"], call.span, "r"), _number(named["h"], call.span, "h"))

    def _build_revolve(self, call: Call):
        return SolidOfRevolution(self._profile_arg(call))

    def _build_tangent_polyhedron(self, call: Call):
        named = _named_only(call, required=("faces", "r"))
        faces = named["faces"]
        if not isinstance(faces, tuple):
            raise ScriptTypeError("faces must be a tuple of areas", call.span)
        return TangentPolyhedron(faces, _number(named["r"], call.span, "r"))

    # transforms

    def _build_shear(self, call: Call):
        positional, named = _named(call.args, call.span, required=("base_y", "shift"))
        region = self._region_arg(call, positional)
        base_y = _number(named["base_y"], call.span, "base_y")
        shift = _number(named["shift"], call.span, "shift")
        return shear_region(region, Line2.horizontal(base_y), shift)

    def _build_move_apex(self, call: Call):
        positional, named = _named(call.args, call.span, required=("x", "y", "z"))
        cone = self._first_arg(call, positional, Cone, "a cone")
        apex = Point3(
            _number(named["x"], call.span, "x"),
            _number(named["y"], call.span, "y"),
            _number(named["z"], call.span, "z"),
        )
        return move_apex(cone, apex)

    def _build_unroll(self, call: Call):
        positional, named = _named(call.args, call.span, required=("n",))
        disk = self._first_arg(call, positional, Disk, "a disk")
        return unroll_disk(disk, _count(named["n"], call.span, "n"))

    def _build_twist(self, call: Call):
        positional, named = _named(call.args, call.span, required=("rate",))
        cyl = self._first_arg(call, positional, Cylinder, "a cylinder")
        return twist_column(cyl, _number(named["rate"], call.span, "rate"))

    def _build_meridian_unfold(self, call: Call):
        positional, named = _named(call.args, call.span, required=("n",))
        sphere = self._first_arg(call, positional, Sphere, "a sphere")
        return meridian_unfold(sphere, _count(named["n"], call.span, "n"))

    def _build_unfold_revolution(self, call: Call):
        return unfold_revolution(self._profile_arg(call))

    # measure expressions --------------------------------------------------

    def eval_mexpr(self, node) -> float:
        if isinstance(node, Number):
            return node.value
        if isinstance(node, PiConst):
            return math.pi
        if isinstance(node, Neg):
            return -self.eval_mexpr(node.operand)
        if isinstance(node, BinOp):
            left = self.eval_mexpr(node.left)
            right = self.eval_mexpr(node.right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                return left / right
            raise ScriptTypeError(f"unknown operator {node.op!r}", node.span)
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
        try:
            return rule(value)
        except GeometryError as exc:
            raise ScriptGeometryError(str(exc), node.span) from exc

    # statements -------------------------------------------------------------

    def run(self, script: Script) -> RunReport:
        records = []
        for stmt in script.statements:
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
        return RunReport(tuple(records))


def evaluate(script: Script, env: dict | None = None) -> RunReport:
    """Execute a parsed script; returns the per-assertion report."""
    return _Evaluator(env).run(script)


def run_script(source: str) -> RunReport:
    """Parse and evaluate a script with an empty environment."""
    return evaluate(parse(source))
