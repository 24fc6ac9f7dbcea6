"""In-memory spans for the traced benchmark run.

A span records a name, a start, an end, its parent and a few counters.  Spans
are opened only by the benchmark's own code: around its calls into each layer
of ``indivisibles``, around its own predicates, profiles and integrands, and
around the two kernels, which the library calls internally and which are
therefore rebound in the importing modules for the duration of a traced pass.
``NullTracer`` has the same interface and does nothing, so untraced passes
call the library and the benchmark's callables directly.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name) of every kernel the library calls internally.
KERNEL_BINDINGS = (
    ("indivisibles.oracle", "uniform01", "kernels.uniform01"),
    ("indivisibles.oracle", "ordered_sum", "kernels.ordered_sum"),
    ("indivisibles.exhaustion", "ordered_sum", "kernels.ordered_sum"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: dict[str, float] = {}

    def count(self, **values):
        for key, value in values.items():
            self.counts[key] = self.counts.get(key, 0) + value


class _NullSpan:
    __slots__ = ()

    def count(self, **values):
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer interface that records nothing and wraps nothing."""

    active = False

    @contextmanager
    def span(self, name: str):
        yield _NULL_SPAN

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def wrap(self, name: str, fn, points=None):
        return fn


class Tracer:
    """Single-threaded span recorder; spans are kept in memory."""

    active = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        record = Span(name, self.clock(), self._stack[-1] if self._stack else None)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self.clock()

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn, points=None):
        """``fn`` inside a span; ``points(args)`` gives the span's point count."""

        def traced(*args, **kwargs):
            with self.span(name) as record:
                if points is not None:
                    record.count(points=points(args))
                return fn(*args, **kwargs)

        return traced

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts a new list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {id(s): [] for s in spans}
    for record in spans:
        if record.parent is not None:
            children[id(record.parent)].append(record)
    out = []
    for record in spans:
        kids = children[id(record)]
        covered = 0.0
        reach = record.start
        for kid in sorted(kids, key=lambda s: s.start):
            lo, hi = max(kid.start, reach), min(kid.end, record.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((record.end - record.start) - covered)
    return out


def root_time(spans: list[Span]) -> float:
    """Total duration of the spans that have no parent."""
    return sum(s.end - s.start for s in spans if s.parent is None)


def write_jsonl(spans: list[Span], path) -> None:
    """One JSON object per span; ``parent`` is the parent's line number."""
    line = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            parent = None if s.parent is None else line[id(s.parent)]
            fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": parent,
                                 "counts": s.counts}) + "\n")


def _kernel_wrapper(tracer: Tracer, name: str, fn):
    """Time one kernel; values are the stream length or the summed length."""
    counted = 0 if name == "kernels.ordered_sum" else None

    def traced(*args, **kwargs):
        with tracer.span(name) as record:
            out = fn(*args, **kwargs)
            n = int(np.size(out if counted is None else args[counted]))
            record.count(calls=1, values=n, bytes_computed=8 * n)
            return out

    return traced


@contextmanager
def rebound_kernels(tracer: Tracer):
    """Rebind the kernels inside the library modules to timing wrappers.

    A binding whose module or attribute no longer exists is skipped, so a
    kernel the library stops calling reports zero calls.
    """
    import importlib

    saved = []
    try:
        for module_name, attr, span_name in KERNEL_BINDINGS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, _kernel_wrapper(tracer, span_name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
