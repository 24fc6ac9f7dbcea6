"""Every command-line run ends in a documented exit code.

Over all 17 script calls, and over the bounds, oracle and svg bounds
subcommands, with dimensions drawn from 1e-170 to 1e200: a run exits 0, 1 or
3, a passing or failing run writes nothing on stderr, and an erroring run
writes exactly one stderr line (and no file) rather than a traceback.  Under
the suite's ``error::RuntimeWarning`` setting a numpy warning escapes ``main``
and fails the property too.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indivisibles.cli import main

DIMS = st.sampled_from(["1e-170", "1e-100", "1", "1e100", "1e200"])

# Each script call, on dimensions {a}, {b} and {c}, and the measures of what it builds.
REGION = ("area", "perimeter", "centroid_rho")
SOLID = ("volume", "surface", "lateral_area")
CALLS = {
    "triangle": ("triangle((0,0),({a},0),(0,{b}))", REGION),
    "polygon": ("polygon((0,0),({a},0),({a},{b}),(0,{c}))", REGION),
    "profile": ("profile(({a},0),({b},0),({b},{c}))", ("centroid_rho",)),
    "disk": ("disk(r={a}, cx={b}, cy={c})", REGION),
    "rect": ("rect(x0={a}, x1={b}, y0=0, y1={c})", REGION),
    "sphere": ("sphere(r={a})", SOLID),
    "cylinder": ("cylinder(r={a}, h={b})", SOLID),
    "cone": ("cone(r={a}, h={b})", SOLID),
    "hoof": ("hoof(r={a}, h={b})", SOLID),
    "revolve": ("revolve(disk(r={a}, cx={b}))", SOLID),
    "tangent_polyhedron": ("tangent_polyhedron(faces=({a},{b},{c},{a}), r={b})", SOLID),
    "shear": ("shear(rect(x0=0, x1={a}, y0=0, y1={b}), base_y={c}, shift={a})", REGION),
    "move_apex": ("move_apex(cone(r={a}, h={b}), x={c}, y=0, z={b})", SOLID),
    "unroll": ("unroll(disk(r={a}), n=8)", REGION),
    "twist": ("twist(cylinder(r={a}, h={b}), rate={c})", SOLID),
    "meridian_unfold": ("meridian_unfold(sphere(r={a}), n=8)", SOLID),
    "unfold_revolution": ("unfold_revolution(rect(x0={a}, x1={b}, y0=0, y1={c}))", SOLID),
}

SHAPES = ("disk", "sphere", "cone", "hoof")
TARGETS = ("disk", "sphere", "hoof", "torus")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("runs")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_documented(code, out, err):
    assert code in (0, 1, 3)
    if code == 3:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""


def test_every_call_name_is_drawn():
    assert len(CALLS) == 17


@given(
    name=st.sampled_from(sorted(CALLS)),
    a=DIMS,
    b=DIMS,
    c=DIMS,
    pick=st.integers(0, 2),
)
@settings(max_examples=100, deadline=None)
def test_check_exits_zero_one_or_three(scratch, name, a, b, c, pick):
    call, measures = CALLS[name]
    script = scratch / "run.igeo"
    script.write_text(
        f"let k = {call.format(a=a, b=b, c=c)};\n"
        f"assert_close({measures[pick % len(measures)]}(k), 1, tol=1);\n"
    )
    _assert_documented(*_run(["check", str(script)]))


@given(
    command=st.sampled_from(["bounds", "oracle mc", "oracle riemann", "svg"]),
    shape=st.integers(0, 3),
    r=DIMS,
    h=DIMS,
    big_r=DIMS,
    slices=st.sampled_from(["1", "12", "1000"]),
)
@settings(max_examples=100, deadline=None)
def test_subcommands_exit_zero_or_three(scratch, command, shape, r, h, big_r, slices):
    dims = ["--r", r, "--h", h]
    out_path = scratch / "run.svg"
    out_path.unlink(missing_ok=True)
    if command == "bounds":
        argv = ["bounds", "--shape", SHAPES[shape], *dims, "--slices", slices]
    elif command == "svg":
        argv = ["svg", "--construction", "bounds", "--shape", SHAPES[shape], *dims, "--slices", slices,
                "--out", str(out_path)]
    else:
        method = command.split()[1]
        argv = ["oracle", "--target", TARGETS[shape], "--method", method, *dims, "--R", big_r,
                "--samples", "1000", "--cells", "1000"]
    code, out, err = _run(argv)
    _assert_documented(code, out, err)
    if command == "svg":
        assert out_path.exists() == (code == 0)
