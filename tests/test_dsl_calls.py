"""The evaluator's calls, pinned: for every constructor and transform, one
single-fault call per error the evaluator raises gives the same exception
class, line, column and message, and the lenient calls it accepts give the
same assertion values.

Each call runs on line 2, after a prelude that binds ``d`` (a disk), ``s`` (a
sphere), ``c`` (a cone), ``y`` (a cylinder), ``p`` (a profile) and ``t`` (a
triangle); ``q`` is never bound.
"""

import re

import pytest

from indivisibles import dsl
from indivisibles.dsl.interp import _Evaluator
from indivisibles.solids import Cone

PRELUDE = (
    "let d = disk(r=1); let s = sphere(r=1); let c = cone(r=1, h=2); "
    "let y = cylinder(r=1, h=2); let p = profile((1,0),(2,0),(2,1)); "
    "let t = triangle((0,0),(1,0),(0,1));\n"
)

# (line 2, exception class, line, column, message)
ERRORS = [
    ('let x = triangle((0,0),(1,0));', 'ScriptTypeError', 2, 9, 'triangle needs at least 3 points'),
    ('let x = triangle((0,0),(1,0),(0,1),(1,1));', 'ScriptTypeError', 2, 9, 'triangle takes exactly 3 points'),
    ('let x = triangle((0,0),(1,0),1);', 'ScriptTypeError', 2, 9, 'vertex must be a point (x, y)'),
    ('let x = triangle((0,0),(1,0),(0,1,2));', 'ScriptTypeError', 2, 9, 'vertex must be a point (x, y)'),
    ('let x = triangle(d,(1,0),(0,1));', 'ScriptTypeError', 2, 9, 'vertex must be a point (x, y)'),
    ('let x = triangle((0,0),(1,0),(0,1),zz=1);', 'ScriptTypeError', 2, 9, "unknown argument 'zz'"),
    ('let x = triangle();', 'ScriptTypeError', 2, 9, 'triangle needs at least 3 points'),
    ('let x = polygon((0,0),(1,0));', 'ScriptTypeError', 2, 9, 'polygon needs at least 3 points'),
    ('let x = polygon((0,0),(1,0),(1,1),5);', 'ScriptTypeError', 2, 9, 'vertex must be a point (x, y)'),
    ('let x = polygon((0,0),(1,0),(1,1),zz=1);', 'ScriptTypeError', 2, 9, "unknown argument 'zz'"),
    ('let x = polygon((0,0),(1,1),(1,0),(0,1));', 'ScriptTypeError', 2, 9, 'polygon is self-intersecting'),
    ('let x = polygon((0,0),(1,0),(1,0),(0,1));', 'ScriptTypeError', 2, 9, 'polygon has a repeated consecutive vertex'),
    ('let x = polygon((0,0),(1e400,0),(0,1));', 'ScriptTypeError', 2, 9, 'coordinates must be finite'),
    ('let x = disk();', 'ScriptTypeError', 2, 9, "missing argument 'r'"),
    ('let x = disk(2, r=1);', 'ScriptTypeError', 2, 9, 'disk takes named arguments only'),
    ('let x = disk(r=1, 2);', 'ScriptTypeError', 2, 9, 'positional argument after a named one'),
    ('let x = disk(r=1, r=2);', 'ScriptTypeError', 2, 9, "duplicate argument 'r'"),
    ('let x = disk(r=1, zz=1);', 'ScriptTypeError', 2, 9, "unknown argument 'zz'"),
    ('let x = disk(r=(1,2));', 'ScriptTypeError', 2, 9, 'r must be a number'),
    ('let x = disk(r=d);', 'ScriptTypeError', 2, 9, 'r must be a number'),
    ('let x = disk(r=sphere(r=1));', 'ScriptTypeError', 2, 9, 'r must be a number'),
    ('let x = disk(r=1, cx=(1,2));', 'ScriptTypeError', 2, 9, 'cx must be a number'),
    ('let x = disk(r=1, cy=d);', 'ScriptTypeError', 2, 9, 'cy must be a number'),
    ('let x = disk(r=-1);', 'ScriptTypeError', 2, 9, 'disk radius must be positive'),
    ('let x = disk(r=0);', 'ScriptTypeError', 2, 9, 'disk radius must be positive'),
    ('let x = disk(r=1e400);', 'ScriptTypeError', 2, 9, 'coordinates must be finite'),
    ('let x = rect(x0=0, x1=1, y0=0);', 'ScriptTypeError', 2, 9, "missing argument 'y1'"),
    ('let x = rect(0, x0=0, x1=1, y0=0, y1=1);', 'ScriptTypeError', 2, 9, 'rect takes named arguments only'),
    ('let x = rect(x0=0, x1=1, y0=0, y1=1, 3);', 'ScriptTypeError', 2, 9, 'positional argument after a named one'),
    ('let x = rect(x0=0, x0=0, x1=1, y0=0, y1=1);', 'ScriptTypeError', 2, 9, "duplicate argument 'x0'"),
    ('let x = rect(x0=0, x1=1, y0=0, y1=1, zz=1);', 'ScriptTypeError', 2, 9, "unknown argument 'zz'"),
    ('let x = rect(x0=(0,1), x1=1, y0=0, y1=1);', 'ScriptTypeError', 2, 9, 'x0 must be a number'),
    ('let x = rect(x0=0, x1=1, y0=0, y1=d);', 'ScriptTypeError', 2, 9, 'y1 must be a number'),
    ('let x = rect(x0=1, x1=0, y0=0, y1=1);', 'ScriptTypeError', 2, 9, 'rect needs x0 < x1 and y0 < y1'),
    ('let x = rect(x0=0, x1=1, y0=1, y1=1);', 'ScriptTypeError', 2, 9, 'rect needs x0 < x1 and y0 < y1'),
    ('let x = rect(x0=0, x1=1e400, y0=0, y1=1);', 'ScriptTypeError', 2, 9, 'coordinates must be finite'),
    ('let x = profile(s);', 'ScriptTypeError', 2, 9, 'profile needs a region, got Sphere'),
    ('let x = profile(q);', 'ScriptNameError', 2, 17, "name 'q' is not bound"),
    ('let x = profile(c);', 'ScriptTypeError', 2, 9, 'profile needs a region, got Cone'),
    ('let x = profile(d);', 'ScriptGeometryError', 2, 9, 'profile reaches rho = -1.0 past the revolution axis'),
    ('let x = profile((1,0),(2,0));', 'ScriptTypeError', 2, 9, 'profile needs at least 3 points'),
    ('let x = profile(1);', 'ScriptTypeError', 2, 9, 'profile needs at least 3 points'),
    ('let x = profile((-0.5,0),(1,0),(1,1));', 'ScriptGeometryError', 2, 9, 'profile reaches rho = -0.5 past the revolution axis'),
    ('let x = profile(t, r=1);', 'ScriptTypeError', 2, 9, "unknown argument 'r'"),
    ('let x = profile(zz=1);', 'ScriptTypeError', 2, 9, "unknown argument 'zz'"),
    ('let x = profile(d,(1,0),(2,0));', 'ScriptTypeError', 2, 9, 'vertex must be a point (x, y)'),
    ('let x = profile((1,0),(2,0),(2,1),zz=1);', 'ScriptTypeError', 2, 9, "unknown argument 'zz'"),
    ('let x = profile(disk(r=-1));', 'ScriptTypeError', 2, 17, 'disk radius must be positive'),
    ('let x = sphere();', 'ScriptTypeError', 2, 9, "missing argument 'r'"),
    ('let x = sphere(1, r=1);', 'ScriptTypeError', 2, 9, 'sphere takes named arguments only'),
    ('let x = sphere(r=1, 1);', 'ScriptTypeError', 2, 9, 'positional argument after a named one'),
    ('let x = sphere(r=1, r=2);', 'ScriptTypeError', 2, 9, "duplicate argument 'r'"),
    ('let x = sphere(r=1, zz=1);', 'ScriptTypeError', 2, 9, "unknown argument 'zz'"),
    ('let x = sphere(r=(1,2));', 'ScriptTypeError', 2, 9, 'r must be a number'),
    ('let x = sphere(r=s);', 'ScriptTypeError', 2, 9, 'r must be a number'),
    ('let x = sphere(r=-1);', 'ScriptTypeError', 2, 9, 'sphere radius must be positive'),
    ('let x = sphere(r=1e400);', 'ScriptTypeError', 2, 9, 'coordinates must be finite'),
    ('let x = cylinder(r=1);', 'ScriptTypeError', 2, 9, "missing argument 'h'"),
    ('let x = cylinder(h=1);', 'ScriptTypeError', 2, 9, 'cylinder needs r= or a base region'),
    ('let x = cylinder(h=1, cx=1);', 'ScriptTypeError', 2, 9, 'cylinder needs r= or a base region'),
    ('let x = cylinder(s, h=1);', 'ScriptTypeError', 2, 9, 'cylinder needs a region, got Sphere'),
    ('let x = cylinder(1, h=1);', 'ScriptTypeError', 2, 9, 'cylinder needs a region, got float'),
    ('let x = cylinder((1,2), h=1);', 'ScriptTypeError', 2, 9, 'cylinder needs a region, got tuple'),
    ('let x = cylinder(q, h=1);', 'ScriptNameError', 2, 18, "name 'q' is not bound"),
    ('let x = cylinder(r=1, h=(1,2));', 'ScriptTypeError', 2, 9, 'h must be a number'),
    ('let x = cylinder(r=1, h=1, cx=(1,2));', 'ScriptTypeError', 2, 9, 'cx must be a number'),
    ('let x = cylinder(r=1, h=1, cy=d);', 'ScriptTypeError', 2, 9, 'cy must be a number'),
    ('let x = cylinder(r=(1,2), h=1);', 'ScriptTypeError', 2, 9, 'r must be a number'),
    ('let x = cylinder(r=1, h=1, zz=1);', 'ScriptTypeError', 2, 9, "unknown argument 'zz'"),
    ('let x = cylinder(r=1, h=1, h=2);', 'ScriptTypeError', 2, 9, "duplicate argument 'h'"),
    ('let x = cylinder(h=1, r=1, 2);', 'ScriptTypeError', 2, 9, 'positional argument after a named one'),
    ('let x = cylinder(r=-1, h=1);', 'ScriptTypeError', 2, 9, 'disk radius must be positive'),
    ('let x = cylinder(r=1, h=-1);', 'ScriptTypeError', 2, 9, 'cylinder height must be positive'),
    ('let x = cylinder(d, h=0);', 'ScriptTypeError', 2, 9, 'cylinder height must be positive'),
    ('let x = cylinder(disk(r=-1), h=1);', 'ScriptTypeError', 2, 18, 'disk radius must be positive'),
    ('let x = cylinder(d, h=(1,2));', 'ScriptTypeError', 2, 9, 'h must be a number'),
    ('let x = cone(r=1);', 'ScriptTypeError', 2, 9, "missing argument 'h'"),
    ('let x = cone(h=1);', 'ScriptTypeError', 2, 9, 'cone needs r= or a base region'),
    ('let x = cone(h=1, cy=2);', 'ScriptTypeError', 2, 9, 'cone needs r= or a base region'),
    ('let x = cone(s, h=1);', 'ScriptTypeError', 2, 9, 'cone needs a region, got Sphere'),
    ('let x = cone(2, h=1);', 'ScriptTypeError', 2, 9, 'cone needs a region, got float'),
    ('let x = cone(q, h=1);', 'ScriptNameError', 2, 14, "name 'q' is not bound"),
    ('let x = cone(r=1, h=d);', 'ScriptTypeError', 2, 9, 'h must be a number'),
    ('let x = cone(r=1, h=1, cx=(1,2));', 'ScriptTypeError', 2, 9, 'cx must be a number'),
    ('let x = cone(r=1, h=1, cy=s);', 'ScriptTypeError', 2, 9, 'cy must be a number'),
    ('let x = cone(r=(1,2), h=1);', 'ScriptTypeError', 2, 9, 'r must be a number'),
    ('let x = cone(r=1, h=1, zz=1);', 'ScriptTypeError', 2, 9, "unknown argument 'zz'"),
    ('let x = cone(r=1, r=1, h=1);', 'ScriptTypeError', 2, 9, "duplicate argument 'r'"),
    ('let x = cone(r=1, h=1, 2);', 'ScriptTypeError', 2, 9, 'positional argument after a named one'),
    ('let x = cone(r=-1, h=1);', 'ScriptTypeError', 2, 9, 'disk radius must be positive'),
    ('let x = cone(d, h=(1,2));', 'ScriptTypeError', 2, 9, 'h must be a number'),
    ('let x = cone(triangle((0,0),(1,0),(2,0)), h=1);', 'ScriptGeometryError', 2, 9, 'region has zero area'),
    ('let x = cone(r=1, h=0);', 'ScriptGeometryError', 2, 9, 'cone apex lies in the base plane'),
    ('let x = hoof(r=1);', 'ScriptTypeError', 2, 9, "missing argument 'h'"),
    ('let x = hoof(h=1);', 'ScriptTypeError', 2, 9, "missing argument 'r'"),
    ('let x = hoof(1, r=1, h=1);', 'ScriptTypeError', 2, 9, 'hoof takes named arguments only'),
    ('let x = hoof(r=1, h=1, 1);', 'ScriptTypeError', 2, 9, 'positional argument after a named one'),
    ('let x = hoof(r=1, h=1, h=1);', 'ScriptTypeError', 2, 9, "duplicate argument 'h'"),
    ('let x = hoof(r=1, h=1, zz=1);', 'ScriptTypeError', 2, 9, "unknown argument 'zz'"),
    ('let x = hoof(r=(1,2), h=1);', 'ScriptTypeError', 2, 9, 'r must be a number'),
    ('let x = hoof(r=1, h=c);', 'ScriptTypeError', 2, 9, 'h must be a number'),
    ('let x = hoof(r=-1, h=1);', 'ScriptTypeError', 2, 9, 'hoof dimensions must be positive'),
    ('let x = hoof(r=1, h=0);', 'ScriptTypeError', 2, 9, 'hoof dimensions must be positive'),
    ('let x = revolve();', 'ScriptTypeError', 2, 9, 'revolve takes one profile or region'),
    ('let x = revolve(p, p);', 'ScriptTypeError', 2, 9, 'revolve takes one profile or region'),
    ('let x = revolve(s);', 'ScriptTypeError', 2, 9, 'revolve needs a profile or region, got Sphere'),
    ('let x = revolve(1);', 'ScriptTypeError', 2, 9, 'revolve needs a profile or region, got float'),
    ('let x = revolve((1,2));', 'ScriptTypeError', 2, 9, 'revolve needs a profile or region, got tuple'),
    ('let x = revolve(q);', 'ScriptNameError', 2, 17, "name 'q' is not bound"),
    ('let x = revolve(p, zz=1);', 'ScriptTypeError', 2, 9, "unknown argument 'zz'"),
    ('let x = revolve(zz=1);', 'ScriptTypeError', 2, 9, "unknown argument 'zz'"),
    ('let x = revolve(d);', 'ScriptGeometryError', 2, 9, 'profile reaches rho = -1.0 past the revolution axis'),
    ('let x = revolve(triangle((-1,0),(1,0),(0,1)));', 'ScriptGeometryError', 2, 9, 'profile reaches rho = -1.0 past the revolution axis'),
    ('let x = tangent_polyhedron(faces=(1,2,3));', 'ScriptTypeError', 2, 9, "missing argument 'r'"),
    ('let x = tangent_polyhedron(r=1);', 'ScriptTypeError', 2, 9, "missing argument 'faces'"),
    ('let x = tangent_polyhedron(1, faces=(1,2,3), r=1);', 'ScriptTypeError', 2, 9, 'tangent_polyhedron takes named arguments only'),
    ('let x = tangent_polyhedron(faces=(1,2,3), r=1, 1);', 'ScriptTypeError', 2, 9, 'positional argument after a named one'),
    ('let x = tangent_polyhedron(faces=(1,2,3), r=1, r=1);', 'ScriptTypeError', 2, 9, "duplicate argument 'r'"),
    ('let x = tangent_polyhedron(faces=(1,2,3), r=1, zz=1);', 'ScriptTypeError', 2, 9, "unknown argument 'zz'"),
    ('let x = tangent_polyhedron(faces=1, r=1);', 'ScriptTypeError', 2, 9, 'faces must be a tuple of areas'),
    ('let x = tangent_polyhedron(faces=d, r=1);', 'ScriptTypeError', 2, 9, 'faces must be a tuple of areas'),
    ('let x = tangent_polyhedron(faces=(1,2,3), r=(1,2));', 'ScriptTypeError', 2, 9, 'r must be a number'),
    ('let x = tangent_polyhedron(faces=(1,2), r=1);', 'ScriptTypeError', 2, 9, 'a polyhedron needs at least 4 faces'),
    ('let x = tangent_polyhedron(faces=(1,2,3,4), r=-1);', 'ScriptTypeError', 2, 9, 'insphere radius must be positive'),
    ('let x = tangent_polyhedron(faces=(1,-2,3,4), r=1);', 'ScriptTypeError', 2, 9, 'face areas must be positive'),
    ('let x = tangent_polyhedron(faces=(1e400,2,3,4), r=1);', 'ScriptTypeError', 2, 9, 'coordinates must be finite'),
    ('let x = shear(base_y=0, shift=1);', 'ScriptTypeError', 2, 9, 'shear needs a region as its first argument'),
    ('let x = shear(s, base_y=0, shift=1);', 'ScriptTypeError', 2, 9, 'shear needs a region, got Sphere'),
    ('let x = shear(1, base_y=0, shift=1);', 'ScriptTypeError', 2, 9, 'shear needs a region, got float'),
    ('let x = shear(q, base_y=0, shift=1);', 'ScriptNameError', 2, 15, "name 'q' is not bound"),
    ('let x = shear(t, shift=1);', 'ScriptTypeError', 2, 9, "missing argument 'base_y'"),
    ('let x = shear(t, base_y=0);', 'ScriptTypeError', 2, 9, "missing argument 'shift'"),
    ('let x = shear(t, base_y=(0,1), shift=1);', 'ScriptTypeError', 2, 9, 'base_y must be a number'),
    ('let x = shear(t, base_y=0, shift=d);', 'ScriptTypeError', 2, 9, 'shift must be a number'),
    ('let x = shear(t, base_y=0, shift=1, zz=1);', 'ScriptTypeError', 2, 9, "unknown argument 'zz'"),
    ('let x = shear(t, base_y=0, base_y=0, shift=1);', 'ScriptTypeError', 2, 9, "duplicate argument 'base_y'"),
    ('let x = shear(t, base_y=0, shift=1, 2);', 'ScriptTypeError', 2, 9, 'positional argument after a named one'),
    ('let x = shear(t, base_y=0, shift=1e400);', 'ScriptTypeError', 2, 9, 'coordinates must be finite'),
    ('let x = shear(d, base_y=0, shift=1);', 'ScriptGeometryError', 2, 9, 'shear is defined for polygons only'),
    ('let x = shear(p, base_y=0, shift=1);', 'ScriptTypeError', 2, 9, 'shear needs a region, got Profile'),
    ('let x = move_apex(x=0, y=0, z=1);', 'ScriptTypeError', 2, 9, 'move_apex needs a cone as its first argument'),
    ('let x = move_apex(d, x=0, y=0, z=1);', 'ScriptTypeError', 2, 9, 'move_apex needs a cone, got Disk'),
    ('let x = move_apex(y, x=0, y=0, z=1);', 'ScriptTypeError', 2, 9, 'move_apex needs a cone, got Cylinder'),
    ('let x = move_apex(q, x=0, y=0, z=1);', 'ScriptNameError', 2, 19, "name 'q' is not bound"),
    ('let x = move_apex(c, x=0, y=0);', 'ScriptTypeError', 2, 9, "missing argument 'z'"),
    ('let x = move_apex(c, x=(0,1), y=0, z=1);', 'ScriptTypeError', 2, 9, 'x must be a number'),
    ('let x = move_apex(c, x=0, y=c, z=1);', 'ScriptTypeError', 2, 9, 'y must be a number'),
    ('let x = move_apex(c, x=0, y=0, z=(1,2));', 'ScriptTypeError', 2, 9, 'z must be a number'),
    ('let x = move_apex(c, x=0, y=0, z=1, zz=1);', 'ScriptTypeError', 2, 9, "unknown argument 'zz'"),
    ('let x = move_apex(c, x=0, x=0, y=0, z=1);', 'ScriptTypeError', 2, 9, "duplicate argument 'x'"),
    ('let x = move_apex(c, x=0, y=0, z=1, 2);', 'ScriptTypeError', 2, 9, 'positional argument after a named one'),
    ('let x = move_apex(c, x=0, y=0, z=0);', 'ScriptGeometryError', 2, 9, 'apex height changed from 2.0 to 0.0'),
    ('let x = move_apex(c, x=0, y=0, z=1e400);', 'ScriptTypeError', 2, 9, 'coordinates must be finite'),
    ('let x = unroll(n=8);', 'ScriptTypeError', 2, 9, 'unroll needs a disk as its first argument'),
    ('let x = unroll(t, n=8);', 'ScriptTypeError', 2, 9, 'unroll needs a disk, got Polygon'),
    ('let x = unroll(s, n=8);', 'ScriptTypeError', 2, 9, 'unroll needs a disk, got Sphere'),
    ('let x = unroll(q, n=8);', 'ScriptNameError', 2, 16, "name 'q' is not bound"),
    ('let x = unroll(d);', 'ScriptTypeError', 2, 9, "missing argument 'n'"),
    ('let x = unroll(d, n=16.9);', 'ScriptTypeError', 2, 9, 'n must be an integer, got 16.9'),
    ('let x = unroll(d, n=(1,2));', 'ScriptTypeError', 2, 9, 'n must be a number'),
    ('let x = unroll(d, n=s);', 'ScriptTypeError', 2, 9, 'n must be a number'),
    ('let x = unroll(d, n=8, zz=1);', 'ScriptTypeError', 2, 9, "unknown argument 'zz'"),
    ('let x = unroll(d, n=8, n=8);', 'ScriptTypeError', 2, 9, "duplicate argument 'n'"),
    ('let x = unroll(d, n=8, 2);', 'ScriptTypeError', 2, 9, 'positional argument after a named one'),
    ('let x = unroll(d, n=1);', 'ScriptTypeError', 2, 9, 'need at least 3 slices to unroll a disk'),
    ('let x = unroll(d, n=0);', 'ScriptTypeError', 2, 9, 'need at least 3 slices to unroll a disk'),
    ('let x = unroll(d, n=-3);', 'ScriptTypeError', 2, 9, 'need at least 3 slices to unroll a disk'),
    ('let x = unroll(d, n=1e400);', 'ScriptTypeError', 2, 9, 'n must be an integer, got inf'),
    ('let x = twist(rate=1);', 'ScriptTypeError', 2, 9, 'twist needs a cylinder as its first argument'),
    ('let x = twist(d, rate=1);', 'ScriptTypeError', 2, 9, 'twist needs a cylinder, got Disk'),
    ('let x = twist(c, rate=1);', 'ScriptTypeError', 2, 9, 'twist needs a cylinder, got Cone'),
    ('let x = twist(q, rate=1);', 'ScriptNameError', 2, 15, "name 'q' is not bound"),
    ('let x = twist(y);', 'ScriptTypeError', 2, 9, "missing argument 'rate'"),
    ('let x = twist(y, rate=(1,2));', 'ScriptTypeError', 2, 9, 'rate must be a number'),
    ('let x = twist(y, rate=y);', 'ScriptTypeError', 2, 9, 'rate must be a number'),
    ('let x = twist(y, rate=1, zz=1);', 'ScriptTypeError', 2, 9, "unknown argument 'zz'"),
    ('let x = twist(y, rate=1, rate=1);', 'ScriptTypeError', 2, 9, "duplicate argument 'rate'"),
    ('let x = twist(y, rate=1, 2);', 'ScriptTypeError', 2, 9, 'positional argument after a named one'),
    ('let x = twist(y, rate=1e400);', 'ScriptTypeError', 2, 9, 'coordinates must be finite'),
    ('let x = meridian_unfold(n=8);', 'ScriptTypeError', 2, 9, 'meridian_unfold needs a sphere as its first argument'),
    ('let x = meridian_unfold(d, n=8);', 'ScriptTypeError', 2, 9, 'meridian_unfold needs a sphere, got Disk'),
    ('let x = meridian_unfold(q, n=8);', 'ScriptNameError', 2, 25, "name 'q' is not bound"),
    ('let x = meridian_unfold(s);', 'ScriptTypeError', 2, 9, "missing argument 'n'"),
    ('let x = meridian_unfold(s, n=8.5);', 'ScriptTypeError', 2, 9, 'n must be an integer, got 8.5'),
    ('let x = meridian_unfold(s, n=(1,2));', 'ScriptTypeError', 2, 9, 'n must be a number'),
    ('let x = meridian_unfold(s, n=s);', 'ScriptTypeError', 2, 9, 'n must be a number'),
    ('let x = meridian_unfold(s, n=8, zz=1);', 'ScriptTypeError', 2, 9, "unknown argument 'zz'"),
    ('let x = meridian_unfold(s, n=8, n=8);', 'ScriptTypeError', 2, 9, "duplicate argument 'n'"),
    ('let x = meridian_unfold(s, n=8, 2);', 'ScriptTypeError', 2, 9, 'positional argument after a named one'),
    ('let x = meridian_unfold(s, n=0);', 'ScriptTypeError', 2, 9, 'wedge count must be an even integer >= 4'),
    ('let x = meridian_unfold(s, n=1);', 'ScriptTypeError', 2, 9, 'wedge count must be an even integer >= 4'),
    ('let x = unfold_revolution();', 'ScriptTypeError', 2, 9, 'unfold_revolution takes one profile or region'),
    ('let x = unfold_revolution(p, p);', 'ScriptTypeError', 2, 9, 'unfold_revolution takes one profile or region'),
    ('let x = unfold_revolution(s);', 'ScriptTypeError', 2, 9, 'unfold_revolution needs a profile or region, got Sphere'),
    ('let x = unfold_revolution(1);', 'ScriptTypeError', 2, 9, 'unfold_revolution needs a profile or region, got float'),
    ('let x = unfold_revolution(q);', 'ScriptNameError', 2, 27, "name 'q' is not bound"),
    ('let x = unfold_revolution(p, zz=1);', 'ScriptTypeError', 2, 9, "unknown argument 'zz'"),
    ('let x = unfold_revolution(zz=1);', 'ScriptTypeError', 2, 9, "unknown argument 'zz'"),
    ('let x = unfold_revolution(d);', 'ScriptGeometryError', 2, 9, 'profile reaches rho = -1.0 past the revolution axis'),
    ('let x = unfold_revolution(triangle((-1,0),(1,0),(0,1)));', 'ScriptGeometryError', 2, 9, 'profile reaches rho = -1.0 past the revolution axis'),
    ('let x = dodecahedron(r=1);', 'ScriptNameError', 2, 9, "unknown constructor or transform 'dodecahedron'"),
    ('let x = q;', 'ScriptNameError', 2, 9, "name 'q' is not bound"),
    ('let x = cylinder(dodecahedron(r=1), h=1);', 'ScriptNameError', 2, 18, "unknown constructor or transform 'dodecahedron'"),
    ('assert_close(area(s), 1, tol=1);', 'ScriptTypeError', 2, 14, 'area() needs a region, got Sphere'),
    ('assert_close(perimeter(c), 1, tol=1);', 'ScriptTypeError', 2, 14, 'perimeter() needs a region, got Cone'),
    ('assert_close(centroid_rho(s), 1, tol=1);', 'ScriptTypeError', 2, 14, 'centroid_rho() needs a region or profile, got Sphere'),
    ('assert_close(volume(d), 1, tol=1);', 'ScriptTypeError', 2, 14, 'volume() needs a solid, got Disk'),
    ('assert_close(surface(p), 1, tol=1);', 'ScriptTypeError', 2, 14, 'surface() needs a solid, got Profile'),
    ('assert_close(lateral_area(t), 1, tol=1);', 'ScriptTypeError', 2, 14, 'lateral_area() needs a solid, got Polygon'),
    ('assert_close(1 + volume(q), 1, tol=1);', 'ScriptNameError', 2, 25, "name 'q' is not bound"),
    ('assert_close(1, 2 * area(disk(r=-1)), tol=1);', 'ScriptTypeError', 2, 26, 'disk radius must be positive'),
    ('assert_close(area(profile(d)), 1, tol=1);', 'ScriptGeometryError', 2, 19, 'profile reaches rho = -1.0 past the revolution axis'),
    ('assert_close(volume(cone(r=1, h=0)), 1, tol=1);', 'ScriptGeometryError', 2, 21, 'cone apex lies in the base plane'),
    ('assert_close(centroid_rho(triangle((0,0),(1,0),(2,0))), 1, tol=1);', 'ScriptGeometryError', 2, 14, 'region has zero area'),
    ('assert_close(lateral_area(tangent_polyhedron(faces=(1,2,3,4), r=1)), 1, tol=1);', 'ScriptGeometryError', 2, 14, 'no lateral area rule for TangentPolyhedron'),
    ('assert_close(surface(twist(y, rate=1)), 1, tol=1);', 'ScriptGeometryError', 2, 14, 'no surface area rule for TwistedColumn'),
]


def _ids(statements):
    """``name-k``: the k-th case whose statement opens with the call or measure ``name``."""
    seen = {}
    ids = []
    for statement in statements:
        name = next(w for w in re.findall(r"[a-z_]+", statement) if w not in ("let", "x", "k", "b", "assert_close"))
        seen[name] = seen.get(name, 0) + 1
        ids.append(f"{name}-{seen[name]}")
    return ids


@pytest.mark.parametrize("statement, cls, line, column, message", ERRORS, ids=_ids(case[0] for case in ERRORS))
def test_call_error_is_pinned(statement, cls, line, column, message):
    with pytest.raises(dsl.ScriptError) as err:
        dsl.run_script(PRELUDE + statement + "\n")
    got = err.value
    assert (type(got).__name__, got.span.line, got.span.column, got.reason) == (cls, line, column, message)


def test_every_call_name_is_pinned():
    names = {case[0][len("let x = "):].split("(")[0] for case in ERRORS if case[0].startswith("let x = ")}
    assert names >= {
        "triangle", "polygon", "disk", "rect", "profile", "sphere", "cylinder", "cone", "hoof",
        "revolve", "tangent_polyhedron", "shear", "move_apex", "unroll", "twist",
        "meridian_unfold", "unfold_revolution",
    }


# Accepted calls, lenient ones included: a positional argument after the
# figure is ignored (not even evaluated), and cylinder/cone ignore r/cx/cy
# when given a base region.  (lines 2-3, assertion values)
ACCEPTED = [
    ("let b = disk(r=1, cx=3); let k = cylinder(b, h=2, r=5, cx=-1, cy=7);\n"
     "assert_close(volume(k), lateral_area(k), tol=1);", (6.283185307179586, 12.566370614359172)),
    ("let b = disk(r=1, cx=3, cy=1); let k = cone(b, h=2, r=5, cx=-1, cy=7);\n"
     "assert_close(volume(k), 1, tol=1);", (2.0943951023931953, 1.0)),
    ("let k = cone(r=1, h=2, cx=3, cy=1);\nassert_close(volume(k), 1, tol=1);", (2.0943951023931953, 1.0)),
    ("let k = cone(t, h=2, r=9);\nassert_close(volume(k), 1, tol=1);", (0.3333333333333333, 1.0)),
    ("let k = twist(y, q, rate=1);\nassert_close(volume(k), 1, tol=1);", (6.283185307179586, 1.0)),
    ("let k = shear(t, (9,9), base_y=1, shift=2);\nassert_close(area(k), centroid_rho(k), tol=1);", (0.5, -1.0)),
    ("let k = unroll(d, 7, n=8);\nassert_close(area(k), perimeter(k), tol=1);",
     (2.8284271247461903, 22.122934917841437)),
    ("let k = meridian_unfold(s, d, n=8);\nassert_close(volume(k), 1, tol=1);", (4.418277998646347, 1.0)),
    ("let k = move_apex(c, q, x=0.5, y=0.25, z=2);\nassert_close(volume(k), 1, tol=1);", (2.0943951023931953, 1.0)),
    ("let k = cylinder(d, dodecahedron(r=1), h=2);\nassert_close(volume(k), 1, tol=1);", (6.283185307179586, 1.0)),
    ("let k = revolve(profile(t));\nassert_close(volume(k), surface(k), tol=1);",
     (1.0471975511965976, 7.584475591748159)),
    ("let k = tangent_polyhedron(faces=(1,2,3,4.5), r=0.5);\nassert_close(volume(k), surface(k), tol=1);",
     (1.75, 10.5)),
    ("let k = rect(x0=-1, x1=2, y0=0.5, y1=3);\nassert_close(area(k), centroid_rho(k), tol=1);", (7.5, 0.5)),
    ("let k = hoof(r=2, h=3);\nassert_close(volume(k), lateral_area(k), tol=1);", (8.0, 12.0)),
    ("let k = polygon((0,0),(2,0),(2,1),(1,3),(0,1));\nassert_close(area(k), perimeter(k), tol=1);",
     (4.0, 8.47213595499958)),
]


@pytest.mark.parametrize("statements, values", ACCEPTED, ids=_ids(case[0].split("let k = ")[1] for case in ACCEPTED))
def test_accepted_call_values_are_pinned(statements, values):
    (record,) = dsl.run_script(PRELUDE + statements + "\n").records
    assert (record.left_value, record.right_value) == values


@pytest.mark.parametrize(
    "call, apex",
    [
        ("cone(r=1, h=2, cx=3, cy=1)", (3.0, 1.0, 2.0)),
        ("cone(r=1, h=2)", (0.0, 0.0, 2.0)),
        ("cone(disk(r=1, cx=3, cy=1), h=2, cx=-1, cy=7)", (3.0, 1.0, 2.0)),
        ("cone(triangle((0,0),(3,0),(0,3)), h=2)", (1.0, 1.0, 2.0)),
    ],
)
def test_cone_apex(call, apex):
    # cone(r=...) puts the apex over (cx, cy); a base region puts it over the centroid
    evaluator = _Evaluator()
    evaluator.run(dsl.parse(f"let k = {call};"))
    cone = evaluator.env["k"]
    assert isinstance(cone, Cone)
    assert (cone.apex.x, cone.apex.y, cone.apex.z) == apex
