"""Every command-line run ends in a documented exit code.

Over all 17 script calls, and over the bounds, oracle and svg bounds
subcommands, with dimensions drawn from 1e-170 to 1e200: a run exits 0, 1 or
3, a passing or failing run writes nothing on stderr, and an erroring run
writes exactly one stderr line (and no file) rather than a traceback.  Under
the suite's ``error::RuntimeWarning`` setting a numpy warning escapes ``main``
and fails the property too.

Files that cannot be read as UTF-8 text exit 4, scripts nested at any depth
exit 0, 1, 2 or 3, a tolerance must be finite, a --slices or an svg --n past
its budget is a usage error, and a script's unroll past it a located error.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indivisibles import cli
from indivisibles.cli import main, read_profile_file
from indivisibles.transforms import UNROLL_BUDGET

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


def _assert_documented(code, out, err, codes=(0, 1, 3)):
    assert code in codes
    if code in (2, 3, 4):
        assert out == ""
        assert err.startswith("parse error: " if code == 2 else "error: ")
        assert err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""


def _check(scratch, source):
    script = scratch / "run.igeo"
    script.write_text(source)
    return _run(["check", str(script)])


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


@pytest.mark.parametrize("command", ["bounds", "svg"])
@pytest.mark.parametrize("over", [1, 10**20])
def test_slices_past_the_budget_are_a_usage_error(scratch, monkeypatch, capsys, command, over):
    # 10**20 slices used to stream slab blocks until the run was killed
    budget = cli.SLICE_BUDGET[command]
    out_path = scratch / "budget.svg"
    argv = ["bounds", "--shape", "disk"] if command == "bounds" else [
        "svg", "--construction", "bounds", "--shape", "disk", "--out", str(out_path)]

    def no_work(*args):
        raise AssertionError("the shape was built")

    monkeypatch.setattr(cli, "_named_shape", no_work)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--slices", str(budget + over)])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"usage error: --slices must be at most {budget} for {command}\n")
    assert not out_path.exists()
    with pytest.raises(AssertionError, match="the shape was built"):  # the budget itself is taken
        main([*argv, "--slices", str(budget)])


@pytest.mark.parametrize("n", [2, UNROLL_BUDGET + 1, 10**15])
def test_unroll_outside_its_budget_is_a_usage_error(scratch, monkeypatch, capsys, n):
    out_path = scratch / "unroll.svg"
    argv = ["svg", "--construction", "unroll", "--out", str(out_path)]

    def no_work(*args):
        raise AssertionError("the sawtooth was drawn")

    monkeypatch.setattr(cli, "render_unroll", no_work)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--n", str(n)])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "", f"usage error: --n must lie in [3, {UNROLL_BUDGET}] for svg --construction unroll\n"
    )
    assert not out_path.exists()
    with pytest.raises(AssertionError, match="the sawtooth was drawn"):  # the budget itself is taken
        main([*argv, "--n", str(UNROLL_BUDGET)])


@pytest.mark.parametrize("n", [UNROLL_BUDGET + 1, 10**15])
def test_unroll_past_the_budget_is_a_located_script_error(scratch, n):
    assert _check(scratch, f"let s = unroll(disk(r=1), n={n});\n") == (
        3, "", f"error: line 1, column 9: at most {UNROLL_BUDGET} slices unroll a disk, got {n}\n"
    )


# --- files that cannot be read -------------------------------------------------

LATIN1 = "# caf\xe9\n".encode("latin-1")


def test_script_that_is_not_utf8_exits_four(scratch):
    script = scratch / "latin1.igeo"
    script.write_bytes(LATIN1 + b"assert_close(1, 1, tol=1);\n")
    assert _run(["check", str(script)]) == (4, "", f"error: cannot read {script}: not UTF-8 text\n")


@pytest.mark.parametrize("command", ["guldin", "svg"])
def test_profile_that_is_not_utf8_exits_four(scratch, command):
    profile = scratch / "latin1.profile"
    profile.write_bytes(LATIN1 + b"point 1 0\npoint 2 0\npoint 2 1\n")
    out_path = scratch / "latin1.svg"
    argv = ["guldin", str(profile)]
    if command == "svg":
        argv = ["svg", "--construction", "guldin", "--profile", str(profile), "--out", str(out_path)]
    assert _run(argv) == (4, "", f"error: cannot read {profile}: not UTF-8 text\n")
    assert not out_path.exists()


def test_directory_as_script_exits_four(scratch):
    code, out, err = _run(["check", str(scratch)])
    _assert_documented(code, out, err, codes=(4,))
    assert err.startswith(f"error: cannot read {scratch}: ")


def test_profile_line_numbers_are_those_of_the_file(scratch):
    text = "name ring\n\n# a comment\npoint 1 0\npoint 2\npoint 2 1\n"
    messages = []
    for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
        path = scratch / f"{name}.profile"
        path.write_bytes(text.replace("\n", newline).encode())
        with pytest.raises(cli._FileError) as info:
            read_profile_file(str(path))
        messages.append(str(info.value).replace(str(path), "PATH"))
    assert messages == ["PATH:5: point line needs two coordinates"] * 2


@pytest.mark.parametrize("text, message", [
    ("name\npoint 1 0\npoint 2 0\npoint 2 1\n", ":1: name line needs a value"),
    ("point 1 0\npoint 1 x\npoint 2 1\n", ":2: bad coordinate"),
    ("point 1 0\nvertex 1 0\npoint 2 1\n", ":2: expected 'name' or 'point', got 'vertex'"),
    ("name pair\npoint 1 0\npoint 2 1\n", ": a profile needs at least 3 points"),
], ids=["name-without-value", "bad-coordinate", "unknown-keyword", "two-points"])
def test_bad_profile_exits_four(scratch, text, message):
    profile = scratch / "bad.profile"
    profile.write_text(text)
    assert _run(["guldin", str(profile)]) == (4, "", f"error: {profile}{message}\n")


# --- deep scripts and tolerances -------------------------------------------------


def test_thousand_term_sum_exits_zero(scratch):
    code, out, err = _check(scratch, "assert_close(" + "+".join(["1"] * 1000) + ", 1000, tol=0.5);\n")
    assert (code, err) == (0, "")
    assert out.endswith("1 assertions, 0 failures\n")


def test_division_by_zero_in_a_chain_is_reported_at_its_slash(scratch):
    assert _check(scratch, "assert_close(1 + 2 * 3 + 1/0 - 4, 1, tol=1);\n") == (
        3, "", "error: line 1, column 27: division by zero\n"
    )


def test_chain_evaluates_its_left_operand_first(scratch):
    assert _check(scratch, "assert_close(area(a) + area(b) * 2 - area(c), 1, tol=1);\n") == (
        3, "", "error: line 1, column 19: name 'a' is not bound\n"
    )


@pytest.mark.parametrize(
    "expr",
    [
        "(" * 400 + "1" + ")" * 400,
        "-" * 3000 + "1",
        "volume(" + "revolve(" * 400 + "disk(r=1, cx=3)" + ")" * 401,
    ],
    ids=["parentheses", "minus-signs", "calls"],
)
def test_deep_nesting_is_a_parse_error(scratch, expr):
    code, out, err = _check(scratch, f"assert_close({expr}, 1, tol=0.5);\n")
    _assert_documented(code, out, err, codes=(2,))
    assert ": expected an expression nested less deeply, found " in err


def test_infinite_tolerance_is_a_parse_error(scratch):
    assert _check(scratch, "assert_close(area(disk(r=1)), 0, tol=1e999);\n") == (
        2, "", "parse error: line 1, column 38: expected a positive finite tolerance, found 1e999\n"
    )


# Each kind of nesting at depth d: parentheses, unary minus, calls and a flat sum.
NESTINGS = {
    "parentheses": lambda d: "(" * d + "1" + ")" * d,
    "minus": lambda d: "-" * d + "1",
    "calls": lambda d: "area(" + "shear(" * d + "rect(x0=0, x1=1, y0=0, y1=1)" + ", base_y=0, shift=1)" * d + ")",
    "sum": lambda d: "+".join(["1"] * d),
}


@given(kind=st.sampled_from(sorted(NESTINGS)), depth=st.integers(1, 3000))
@settings(max_examples=50, deadline=None)
def test_any_nesting_depth_exits_with_a_documented_code(scratch, kind, depth):
    code, out, err = _check(scratch, f"assert_close({NESTINGS[kind](depth)}, 1, tol=0.5);\n")
    _assert_documented(code, out, err, codes=(0, 1, 2, 3))
