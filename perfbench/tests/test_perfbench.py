"""Tests of the benchmark's own machinery, at smoke sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import indivisibles  # noqa: E402
import indivisibles.exhaustion  # noqa: E402
import indivisibles.oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from workloads import WORKLOADS, Context, Defect, Op, Raised  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


class TestSpans:
    def test_self_time_subtracts_only_direct_children(self):
        tracer = spans.Tracer(clock=fake_clock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0))
        with tracer.span("root"):
            with tracer.span("a"):
                with tracer.span("a.inner"):
                    pass
            with tracer.span("b"):
                pass
        recorded = tracer.take()
        own = dict(zip((s.name for s in recorded), spans.self_times(recorded)))
        assert own == {"root": 6.0, "a": 2.0, "a.inner": 1.0, "b": 1.0}
        assert spans.root_time(recorded) == 10.0
        assert tracer.spans == []

    def test_spans_are_written_as_json_lines_with_parent_lines(self, tmp_path):
        tracer = spans.Tracer(clock=fake_clock(0.0, 1.0, 2.0, 3.0))
        with tracer.span("outer"):
            with tracer.span("inner") as sp:
                sp.count(points=5)
        spans.write_jsonl(tracer.take(), tmp_path / "spans.jsonl")
        lines = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
        assert lines == [
            {"name": "outer", "start": 0.0, "end": 3.0, "parent": None, "counts": {}},
            {"name": "inner", "start": 1.0, "end": 2.0, "parent": 0, "counts": {"points": 5}},
        ]

    def test_wrap_counts_points_and_keeps_the_result(self):
        tracer = spans.Tracer()
        double = tracer.wrap("f", lambda xs: [2 * x for x in xs], points=lambda args: len(args[0]))
        assert double([1, 2, 3]) == [2, 4, 6]
        (record,) = tracer.take()
        assert record.name == "f" and record.counts == {"points": 3}

    def test_null_tracer_passes_callables_through(self):
        null = spans.NullTracer()
        fn = len
        assert null.wrap("f", fn) is fn
        assert null.call("f", fn, [1, 2]) == 2

    def test_kernels_are_rebound_and_restored(self):
        before = (indivisibles.oracle.uniform01, indivisibles.exhaustion.ordered_sum)
        tracer = spans.Tracer()
        with spans.rebound_kernels(tracer):
            indivisibles.oracle.uniform01(1, 0, 10)
            indivisibles.exhaustion.ordered_sum([1.0, 2.0])
        assert (indivisibles.oracle.uniform01, indivisibles.exhaustion.ordered_sum) == before
        counts = {s.name: s.counts for s in tracer.take()}
        assert counts["kernels.uniform01"] == {"calls": 1, "values": 10, "bytes_computed": 80}
        assert counts["kernels.ordered_sum"] == {"calls": 1, "values": 2, "bytes_computed": 16}

    def test_missing_kernel_is_skipped_and_reports_zero_calls(self, monkeypatch):
        monkeypatch.setattr(spans, "KERNEL_BINDINGS", (("indivisibles.oracle", "no_such_kernel", "kernels.uniform01"),))
        tracer = spans.Tracer()
        with spans.rebound_kernels(tracer):
            pass
        assert not hasattr(indivisibles.oracle, "no_such_kernel")
        layers = run.layer_metrics(tracer.take(), [], [1.0], [1.0], [1.0])
        assert layers["kernels.uniform01.calls"] == 0
        assert layers["kernels.ordered_sum.self_s"] == 0


class TestStats:
    def test_percentile_interpolates(self):
        assert stats.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
        assert stats.percentile(range(101), 90) == 90.0

    @pytest.mark.parametrize(
        "count, q", [(1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, None)]
    )
    def test_tail_needs_ten_samples_beyond(self, count, q):
        assert stats.tail_percentile(count) == q

    def test_timing_reports_sample_count_and_supported_tail_only(self):
        assert stats.timing([1.0, 2.0, 3.0]) == {"p50": 2.0, "samples": 3}
        out = stats.timing([float(i) for i in range(100)])
        assert out["samples"] == 100 and out["tail_q"] == 90.0 and out["tail"] == pytest.approx(89.1)


class TestChecks:
    def test_wrong_expectation_raise_and_defect_are_counted(self):
        tally = run.Tally()
        ops = [
            Op("right", "k", lambda state: 2, lambda v: None if v == 2 else "wrong"),
            Op("wrong", "k", lambda state: 2, lambda v: None if v == 3 else "expected 3"),
            Op("raises", "k", lambda state: 1 / 0, lambda v: None),
            Op("defect", "k", lambda state: 0, lambda v: Defect("known")),
        ]
        tally.run(ops, {}, 0)
        assert tally.attempted == 4
        assert tally.failures == ["pass 0 wrong: expected 3"]
        assert tally.defect_count == 1 and tally.defects == {"defect": "known"}

    def test_output_that_changes_between_passes_fails(self):
        tally = run.Tally()
        outputs = iter([1.0, 1.0000000000000002])
        ops = [Op("drift", "k", lambda state: next(outputs), lambda v: None)]
        tally.run(ops, {}, 0)
        tally.run(ops, {}, 1)
        assert tally.failures == ["pass 1 drift: output differs from the first pass"]


    def test_figure_eight_defect_only_when_the_polygon_is_accepted(self, ctx):
        workload = WORKLOADS["exact_geometry"]
        ops = workload.ops(ctx, workload.inputs(ctx, seed=7, small=True), spans.NullTracer())
        check = next(op.check for op in ops if op.name == "defect.figure_eight")
        assert check(Raised(("GeometryError", "ValueError", "Exception"), "self-intersecting")) is None
        assert isinstance(check(9e-16), Defect)
        crash = check(Raised(("TypeError", "Exception"), "bad operand"))
        assert isinstance(crash, str) and not isinstance(crash, Defect)


class TestLayers:
    def test_refine_steps_are_counted_from_the_reductions(self):
        tracer = spans.Tracer()
        width = indivisibles.WidthFunction(lambda y: 1.0 - y, domain=(0.0, 1.0), monotonicity=("decreasing",))
        with spans.rebound_kernels(tracer):
            with tracer.span("exhaustion.refine"):
                interval = indivisibles.refine_until(width, 1e-2, 1 << 12)
        layers = run.layer_metrics(tracer.take(), [], [1.0], [1.0], [1.0])
        # n doubles from 16 to the final slab count
        assert layers["exhaustion.refine.steps"] == (interval.slabs // 16).bit_length() == 4


class TestNames:
    def test_metric_names_and_units(self):
        for name in [*run.END_TO_END, *run.per_layer_units()]:
            assert NAME.fullmatch(name), name

    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        for entry in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
            assert NAME.fullmatch(entry["name"]) and len(entry["name"]) <= 64


@pytest.fixture
def ctx(tmp_path):
    return Context.create(ROOT, tmp_path)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_outputs_are_bit_identical(name, ctx):
    workload = WORKLOADS[name]
    inp = workload.inputs(ctx, seed=7, small=True)
    tally = run.Tally()
    tally.run(workload.ops(ctx, inp, spans.NullTracer()), {}, 0)
    tracer = spans.Tracer()
    state = {}
    with spans.rebound_kernels(tracer):
        tally.run(workload.ops(ctx, inp, tracer), state, 1)
        tally.run(workload.probes(ctx, inp, tracer), state, 1)
    # Tally fails an operation whose output differs from its first pass
    assert tally.failures == []
    assert tracer.spans, "the traced pass recorded no spans"
