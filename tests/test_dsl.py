"""Script language: lexer, parser, evaluator, report, corpus."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indivisibles import dsl
from indivisibles.cli import main
from indivisibles.dsl.interp import _located
from indivisibles.errors import GeometryError

from conftest import SCRIPTS_DIR

CORPUS = sorted(
    p for p in SCRIPTS_DIR.glob("*.igeo") if p.stem not in ("designed_failure", "parse_error")
)


class TestParse:
    def test_smallest_program(self):
        ast = dsl.parse("let s = sphere(r=1);")
        assert len(ast.statements) == 1
        stmt = ast.statements[0]
        assert isinstance(stmt, dsl.LetBinding)
        assert stmt.name == "s"
        assert stmt.expr == dsl.Call("sphere", (("r", 1.0),))

    def test_assertion_with_arithmetic(self):
        ast = dsl.parse("assert_close(volume(s), (2/3)*volume(c), tol=1e-12);")
        stmt = ast.statements[0]
        assert isinstance(stmt, dsl.Assertion)
        assert stmt.tolerance == 1e-12
        assert isinstance(stmt.right, dsl.BinOp) and stmt.right.op == "*"

    def test_error_position_missing_number(self):
        with pytest.raises(dsl.ParseError) as err:
            dsl.parse("let s = sphere(r=);")
        assert err.value.line == 1
        assert err.value.column == 18
        assert "number" in err.value.expected
        assert err.value.found == ")"

    @pytest.mark.parametrize(
        "source",
        [
            "let = sphere(r=1);",
            "let s sphere(r=1);",
            "assert_close(volume(s) 1, tol=1);",
            "assert_close(1, 1, tol=);",
            "let s = sphere(r=1)",
            "sphere(r=1);",
            "let s = sphere(r=1); let t = ?;",
            "assert_close(1, 1, tol=-1);",
        ],
    )
    def test_error_positions_point_into_source(self, source):
        with pytest.raises(dsl.ParseError) as err:
            dsl.parse(source)
        lines = source.split("\n")
        assert 1 <= err.value.line <= len(lines)
        assert 1 <= err.value.column <= len(lines[err.value.line - 1]) + 1

    def test_comments_are_skipped(self):
        ast = dsl.parse("# heading\nlet s = sphere(r=1); # trailing\n")
        assert len(ast.statements) == 1

    def test_token_positions_one_based(self):
        toks = dsl.tokenize("let s = 1;")
        assert toks[0].line == 1 and toks[0].column == 1
        assert all(t.lexeme for t in toks)

    @given(st.text(alphabet=st.sampled_from("lets=();,.#\n 0123456789+-*/abxyzpi_"), max_size=80))
    @settings(max_examples=400, deadline=None)
    def test_parser_never_crashes(self, source):
        # arbitrary input either parses or fails with an in-source position
        try:
            dsl.parse(source)
        except dsl.ParseError as err:
            lines = source.split("\n")
            assert 1 <= err.line <= len(lines)
            assert 1 <= err.column <= len(lines[err.line - 1]) + 1


class TestEvaluate:
    def test_sphere_vs_cylinder(self):
        report = dsl.run_script(
            "let s=sphere(r=1); let c=cylinder(r=1,h=2); "
            "assert_close(volume(s),(2/3)*volume(c),tol=1e-12);"
        )
        assert report.overall_pass
        rec = report.records[0]
        assert rec.left_value == pytest.approx(4.1887902047863905, rel=1e-12)
        assert rec.right_value == pytest.approx(4.1887902047863905, rel=1e-12)

    def test_designed_failure_reports_difference(self):
        report = dsl.run_script("assert_close(area(disk(r=1)), 4, tol=1e-6);")
        assert not report.overall_pass
        rec = report.records[0]
        assert not rec.passed
        assert rec.difference == pytest.approx(abs(math.pi - 4.0), rel=1e-12)

    def test_shear_script(self):
        report = dsl.run_script(
            "let t = shear(triangle((0,0),(4,0),(1,3)), base_y=0, shift=3); "
            "assert_close(area(t), 6, tol=1e-12);"
        )
        assert report.overall_pass

    def test_execution_continues_past_failures(self):
        report = dsl.run_script(
            "assert_close(1, 2, tol=1e-9);\n"
            "assert_close(3, 3, tol=1e-9);\n"
        )
        assert [r.passed for r in report.records] == [False, True]
        assert not report.overall_pass

    def test_unbound_name(self):
        with pytest.raises(dsl.ScriptNameError) as err:
            dsl.run_script("assert_close(volume(q), 1, tol=1.0);")
        assert err.value.span.line == 1

    def test_volume_of_region_is_type_error(self):
        with pytest.raises(dsl.ScriptTypeError):
            dsl.run_script("let d = disk(r=1); assert_close(volume(d), 1, tol=1.0);")

    def test_area_of_solid_is_type_error(self):
        with pytest.raises(dsl.ScriptTypeError):
            dsl.run_script("let s = sphere(r=1); assert_close(area(s), 1, tol=1.0);")

    def test_geometry_error_carries_span(self):
        with pytest.raises(dsl.ScriptGeometryError) as err:
            dsl.run_script("let p = profile((-0.5,0),(1,0),(1,1));")
        assert err.value.span.line == 1
        assert err.value.span.column >= 9

    @pytest.mark.parametrize(
        "source",
        [
            "let d = disk(r=1);\nlet u = unroll(d, n=16.9);\n",
            "let s = sphere(r=1);\nlet m = meridian_unfold(s, n=8.5);\n",
        ],
        ids=["unroll", "meridian_unfold"],
    )
    def test_non_integral_count_is_type_error(self, source):
        # n used to be truncated silently: unroll(d, n=16.9) gave unroll(d, n=16)
        with pytest.raises(dsl.ScriptTypeError, match="n must be an integer") as err:
            dsl.run_script(source)
        assert err.value.span.line == 2

    def test_unknown_constructor(self):
        with pytest.raises(dsl.ScriptNameError):
            dsl.run_script("let s = dodecahedron(r=1);")

    def test_empty_source(self):
        report = dsl.run_script("")
        assert report.overall_pass
        assert report.records == ()

    def test_bindings_visible_to_later_statements(self):
        report = dsl.run_script(
            "let d = disk(r=2);\n"
            "let c = cylinder(d, h=1);\n"
            "assert_close(volume(c), 4*pi, tol=1e-12);\n"
        )
        assert report.overall_pass

    def test_profile_constructor_and_revolve(self):
        report = dsl.run_script(
            "let p = profile((1,0), (2,0), (2,1), (1,1));\n"
            "assert_close(centroid_rho(p), 1.5, tol=1e-12);\n"
            "assert_close(volume(revolve(p)), 3*pi, tol=1e-12);\n"
        )
        assert report.overall_pass

    def test_evaluation_deterministic(self):
        src = (SCRIPTS_DIR / "guldin.igeo").read_text()
        first = dsl.run_script(src)
        second = dsl.run_script(src)
        assert first == second

    def test_nesting_too_deep_to_evaluate_is_an_error_at_the_statement(self):
        # built without the parser, which rejects this depth itself
        expr = dsl.Call("rect", (("x0", 0.0), ("x1", 1.0), ("y0", 0.0), ("y1", 1.0)))
        for _ in range(2000):
            expr = dsl.Call("shear", ((None, expr), ("base_y", 0.0), ("shift", 1.0)))
        script = dsl.Script((dsl.LetBinding("a", expr, dsl.Span(3, 1)),))
        with pytest.raises(dsl.ScriptError) as err:
            dsl.evaluate(script)
        assert type(err.value) is dsl.ScriptError
        assert str(err.value) == "line 3, column 1: expression nested too deeply to evaluate"

    @pytest.mark.parametrize(
        "raised, expected",
        [
            (GeometryError("bad"), dsl.ScriptGeometryError),
            (ValueError("bad"), dsl.ScriptTypeError),
            (TypeError("bad"), dsl.ScriptTypeError),
        ],
    )
    def test_library_failure_is_located_at_the_call(self, raised, expected):
        with pytest.raises(dsl.ScriptError) as err:
            with _located(dsl.Span(2, 5)):
                raise raised
        assert type(err.value) is expected
        assert str(err.value) == "line 2, column 5: bad"
        assert err.value.__cause__ is raised

    @pytest.mark.parametrize(
        "raised",
        [dsl.ScriptNameError("name 'q' is not bound", dsl.Span(1, 1)), KeyError("q"), ZeroDivisionError()],
    )
    def test_other_failures_pass_through_unchanged(self, raised):
        with pytest.raises(type(raised)) as err:
            with _located(dsl.Span(2, 5)):
                raise raised
        assert err.value is raised


class TestMeasureErrors:
    """A measure that is not finite, underflows to 0 or leaves the float range
    is an evaluation error at its position, never a traceback or a vacuous pass."""

    @pytest.mark.parametrize(
        "source, message",
        [
            ("assert_close(area(disk(r=1e200)), 1, tol=1);", "the area of the disk is not finite at these dimensions"),
            ("assert_close(volume(cone(r=1e200, h=1)), 1, tol=1);", "the volume of the cone is not finite at these dimensions"),
            ("assert_close(centroid_rho(disk(r=1, cx=1e308)), 1, tol=1);", "coordinates must be finite"),
            ("assert_close(centroid_rho(disk(r=1e200)), 1, tol=1);", "the area of the disk is not finite at these dimensions"),
            ("assert_close(volume(sphere(r=1e120)), 1, tol=1);", "the volume of the sphere is not finite at these dimensions"),
            ("assert_close(area(disk(r=1e-170)), 0, tol=1);", "the area of the disk underflows to 0 at these dimensions"),
        ],
        ids=["area-overflow", "cone-overflow", "centroid-overflow", "centroid-area-overflow", "sphere-inf", "area-underflow"],
    )
    def test_check_exits_three(self, source, message, capsys, tmp_path):
        script = tmp_path / "measure.igeo"
        script.write_text(source + "\n")
        assert main(["check", str(script)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line 1, column 14: {message}\n"


class TestRoundTrip:
    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_corpus_round_trips(self, path):
        ast = dsl.parse(path.read_text())
        printed = dsl.format_script(ast)
        assert dsl.parse(printed) == ast

    def test_negative_numbers_round_trip(self):
        src = "let t = triangle((-1,-2),(3,0),(0,4)); assert_close(area(t), 11, tol=1e-9);"
        ast = dsl.parse(src)
        assert dsl.parse(dsl.format_script(ast)) == ast

    def test_nested_arithmetic_round_trips(self):
        src = "assert_close(1 + 2*3 - 4/5, -(2 - 3), tol=0.5);"
        ast = dsl.parse(src)
        assert dsl.parse(dsl.format_script(ast)) == ast

    def test_mixed_precedence_chains_round_trip(self):
        src = "assert_close((1+2)*3/(4-5) - 6 - (7 - 8), 1 - (2 - 3) / (4 / 5 * 6), tol=1);"
        ast = dsl.parse(src)
        printed = dsl.format_script(ast)
        assert printed == (
            "assert_close((((1.0 + 2.0) * 3.0 / (4.0 - 5.0)) - 6.0 - (7.0 - 8.0)), "
            "(1.0 - ((2.0 - 3.0) / (4.0 / 5.0 * 6.0))), tol=1.0);\n"
        )
        assert dsl.parse(printed) == ast

    def test_thousand_term_sum_prints_and_round_trips(self):
        # AST equality recurses once per operator, so the printed forms are compared
        printed = dsl.format_script(dsl.parse("assert_close(" + "+".join(["1"] * 1000) + ", 1000, tol=0.5);"))
        assert printed == "assert_close((" + " + ".join(["1.0"] * 1000) + "), 1000.0, tol=0.5);\n"
        assert dsl.format_script(dsl.parse(printed)) == printed


class TestCorpus:
    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_script_passes(self, path):
        report = dsl.run_script(path.read_text())
        assert report.records, f"{path.name} asserts nothing"
        assert report.overall_pass

    def test_corpus_has_twelve_scripts(self):
        assert len(CORPUS) == 12

    def test_designed_failure_fails(self):
        report = dsl.run_script((SCRIPTS_DIR / "designed_failure.igeo").read_text())
        assert not report.overall_pass

    def test_parse_error_fixture_raises(self):
        with pytest.raises(dsl.ParseError) as err:
            dsl.parse((SCRIPTS_DIR / "parse_error.igeo").read_text())
        assert err.value.line == 2
        assert err.value.column == 18
