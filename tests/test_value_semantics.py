"""Every frozen dataclass the package exports is a value: it hashes like its
deep copy, and its deep copy and its pickle round trip compare equal."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

import indivisibles as iv
import indivisibles.dsl as dsl


def _square():
    return iv.Polygon([(1, 0), (2, 0), (2, 1), (1, 1)])


def _profile(cls=iv.WidthFunction):
    # np.sqrt, not a lambda, so that the profile pickles
    return cls(np.sqrt, domain=(0.0, 1.0))


def _call():
    return dsl.Call("disk", (("r", 1.0), ("cx", 3.0)), dsl.Span(1, 9))


def _measure():
    return dsl.Measure("area", dsl.Reference("a", dsl.Span(2, 20)), dsl.Span(2, 15))


def _binop():
    return dsl.BinOp("+", dsl.Neg(_measure(), dsl.Span(2, 14)), dsl.PiConst(dsl.Span(2, 25)), dsl.Span(2, 23))


def _assertion():
    return dsl.Assertion(_binop(), dsl.Number(2.0, dsl.Span(2, 29)), 1e-9, dsl.Span(2, 1))


def _record():
    return dsl.AssertionRecord(2, 1, 0.5, 0.5, 0.0, 1e-9, True)


EXAMPLES = {
    iv.CircleArc: lambda: iv.CircleArc(iv.Point2(1.0, 2.0), 0.5, 0.25, math.pi),
    iv.Cone: lambda: iv.Cone(iv.Disk(iv.Point2(0, 0), 1.0), iv.Point3(0.5, 0.0, 2.0)),
    iv.Cylinder: lambda: iv.Cylinder(_square(), 2.0),
    iv.Disk: lambda: iv.Disk(iv.Point2(3, 0), 1.0),
    iv.DoubleHoof: lambda: iv.DoubleHoof(1.0, math.pi, 8),
    iv.Estimate: lambda: iv.Estimate(3.14, 0.01, 1000, 42),
    iv.HalfDisk: lambda: iv.HalfDisk(iv.Point2(0, 0), 1.0, (0.0, 1.0)),
    iv.HeightFieldCylinder: lambda: iv.HeightFieldCylinder(_square(), 2.0 * math.pi, 0.0),
    iv.Hoof: lambda: iv.Hoof(1.0, 2.0),
    iv.Line2: lambda: iv.Line2(iv.Point2(0.5, 0.0), (3.0, 4.0)),
    iv.MeasureInterval: lambda: iv.area_bounds(_profile(), 16),
    iv.Point2: lambda: iv.Point2(1.5, -0.0),
    iv.Point3: lambda: iv.Point3(1.0, 2.0, 3.0),
    iv.Polygon: _square,
    iv.Polyline: lambda: iv.Polyline([(0, 0), (1, 0), (1, 1)], closed=True),
    iv.Profile: lambda: iv.Profile(_square()),
    iv.SectionFunction: lambda: _profile(iv.SectionFunction),
    iv.SlabRegion: lambda: iv.SlabRegion(_profile(), 64),
    iv.SolidOfRevolution: lambda: iv.SolidOfRevolution(iv.Profile(iv.Disk(iv.Point2(3, 0), 1.0))),
    iv.Sphere: lambda: iv.Sphere(1.0),
    iv.TangentPolyhedron: lambda: iv.TangentPolyhedron((4.0,) * 6, 1.0),
    iv.TwistedColumn: lambda: iv.TwistedColumn(_square(), 2.0, 0.5),
    iv.WidthFunction: _profile,
    dsl.Assertion: _assertion,
    dsl.AssertionRecord: _record,
    dsl.BinOp: _binop,
    dsl.Call: _call,
    dsl.LetBinding: lambda: dsl.LetBinding("a", _call(), dsl.Span(1, 1)),
    dsl.Measure: _measure,
    dsl.Neg: lambda: dsl.Neg(dsl.Number(1.0), dsl.Span(1, 1)),
    dsl.Number: lambda: dsl.Number(2.0, dsl.Span(2, 29)),
    dsl.PiConst: lambda: dsl.PiConst(dsl.Span(2, 25)),
    dsl.Reference: lambda: dsl.Reference("a", dsl.Span(2, 20)),
    dsl.RunReport: lambda: dsl.RunReport((_record(),)),
    dsl.Script: lambda: dsl.Script((dsl.LetBinding("a", _call()), _assertion())),
    dsl.Span: lambda: dsl.Span(2, 29),
    dsl.Token: lambda: dsl.Token("ident", "disk", 1, 9),
}


def test_the_table_names_every_exported_frozen_dataclass():
    exported = {
        value
        for module in (iv, dsl)
        for value in vars(module).values()
        if isinstance(value, type) and dataclasses.is_dataclass(value) and value.__dataclass_params__.frozen
    }
    assert exported == set(EXAMPLES)


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda cls: cls.__name__)
def test_hash_deepcopy_and_pickle(cls):
    x = EXAMPLES[cls]()
    assert type(x) is cls
    copied, unpickled = copy.deepcopy(x), pickle.loads(pickle.dumps(x))
    assert hash(x) == hash(copied)
    assert copied == x and unpickled == x


def test_profiles_with_different_functions_are_unequal():
    # same domain, pieces and kind: only the function tells them apart
    sphere = iv.Sphere(1.0).section()
    on_axis_disk = iv.Disk(iv.Point2(0, 0), 1.0).revolved_section()
    assert float(sphere(0.5)) != float(on_axis_disk(0.5))
    assert sphere != on_axis_disk
    narrow, wide = (iv.SlabRegion(iv.WidthFunction(fn)) for fn in (np.sqrt, np.square))
    assert narrow != wide
