"""Benchmark of indivisibles: end-to-end and per-layer figures for four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The library is imported from the
checkout's ``src/``; whatever kernel lane is live there is measured and
recorded.  Each run is one closed loop: one client in this process runs whole
passes over the workload's operations until ``--seconds`` have elapsed and
checks every output.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics.  The last line of stdout is the result object; the line before it
holds the full report (environment, sample counts, known defects).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
# Wall time of ``python -c "import numpy"`` on the host this benchmark was
# tuned on (see BASELINE.md); set-up times are reported at that host's speed.
SETUP_REFERENCE_S = 0.2
STARTUP_SAMPLES = 3
TMP_DIR = ".perfbench_tmp"
SPANS_DIR = ".benchmarks"

END_TO_END = {
    "setup_s": "s",
    "pass_norm.p50": "ref",
    "peak_rss_mb": "MB",
}

# per-layer metrics: span self times, counters summed per traced pass, and
# figures derived from several spans
SELF_TIME_SPANS = (
    "kernels.uniform01",
    "kernels.ordered_sum",
    "oracle.mc",
    "oracle.membership",
    "oracle.riemann",
    "oracle.boundary",
    "oracle.integrand",
    "exhaustion.staircase",
    "exhaustion.profile",
    "exhaustion.refine",
    "geometry.polygon",
    "geometry.measures",
    "geometry.contains",
    "solids.oblique_cut",
    "solids.guldin",
    "solids.measures",
    "transforms",
    "dsl.parse",
    "dsl.evaluate",
)
COUNTERS = {  # metric: (span name, counter)
    "kernels.uniform01.calls": ("kernels.uniform01", "calls"),
    "kernels.uniform01.values": ("kernels.uniform01", "values"),
    "kernels.uniform01.bytes_computed": ("kernels.uniform01", "bytes_computed"),
    "kernels.ordered_sum.calls": ("kernels.ordered_sum", "calls"),
    "kernels.ordered_sum.values": ("kernels.ordered_sum", "values"),
    "kernels.ordered_sum.bytes_computed": ("kernels.ordered_sum", "bytes_computed"),
    "exhaustion.profile.points": ("exhaustion.profile", "points"),
    "geometry.polygon.vertices": ("geometry.polygon", "vertices"),
    "geometry.contains.points": ("geometry.contains", "points"),
    "dsl.statements": ("dsl.evaluate", "statements"),
}
DERIVED = {
    "oracle.mc.chunks": "count",
    "oracle.mc.hit_ratio": "ratio",
    "exhaustion.refine.steps": "count",
    "exhaustion.refine.useful_ratio": "ratio",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in SELF_TIME_SPANS}
    units.update({name: "B" if name.endswith("bytes_computed") else "count" for name in COUNTERS})
    units.update(DERIVED)
    return units


class HarnessError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def import_library():
    """Import indivisibles from the checkout's src/, and only from there."""
    package = ROOT / "src" / "indivisibles"
    for needed in (package / "__init__.py", ROOT / "tests" / "data" / "golden_estimates.json", ROOT / "scripts"):
        if not needed.exists():
            raise HarnessError(f"{needed} is missing: run from the root of a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    import indivisibles

    if Path(indivisibles.__file__).resolve().parent != package.resolve():
        raise HarnessError(f"imported {indivisibles.__file__}, not the checkout's {package}")
    return indivisibles


# ---------------------------------------------------------------------------
# environment


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _caches() -> dict[str, int]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size and kind != "Instruction" and size[-1] in "KM":
            sizes[f"l{level}_bytes"] = int(size[:-1]) * (1024 if size[-1] == "K" else 1024 * 1024)
    return sizes


def _git(*args) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(iv, seed: int) -> dict:
    cpu_model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    in_repo = _git("rev-parse", "--show-toplevel") == str(ROOT)
    sha = _git("rev-parse", "HEAD") if in_repo else None
    dirty = bool(_git("status", "--porcelain")) if sha else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": iv.BACKEND,
        "indivisibles_file": iv.__file__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        **_caches(),
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# passes


class Tally:
    """Per-operation records and the outcome of every check."""

    def __init__(self):
        self.records: list[dict] = []
        self.outputs: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.defects: dict[str, str] = {}
        self.defect_count = 0

    def run(self, ops, state: dict, index: int, clock=time.perf_counter) -> float:
        """Run each operation once, check it, and return the wall time."""
        from workloads import Defect, Raised

        start = clock()
        for op in ops:
            t0 = clock()
            try:
                out = op.fn(state)
            except Exception as exc:  # a failing operation is counted, never fatal
                out = Raised.of(exc)
            seconds = clock() - t0
            try:
                verdict = op.check(out)
            except Exception as exc:
                verdict = f"check raised {type(exc).__name__}: {exc} on output {out!r}"[:500]
            fingerprint = repr(out)
            if self.outputs.setdefault(op.name, fingerprint) != fingerprint and verdict is None:
                verdict = "output differs from the first pass"
            self.attempted += 1
            if isinstance(verdict, Defect):
                self.defect_count += 1
                self.defects[op.name] = str(verdict)
            elif verdict is not None:
                self.failures.append(f"pass {index} {op.name}: {verdict}")
            self.records.append({"name": op.name, "kind": op.kind, "work": op.work, "seconds": seconds, "pass": index})
        return clock() - start


class Reference:
    """Fixed work that no commit changes, timed around every pass.

    The machine this benchmark was tuned on is shared, and its speed drifts
    by a third from minute to minute.  Dividing the median pass time by the
    median time of this work, measured just before and just after every
    pass, cancels most of that drift.  The work mixes the two kinds the
    workloads do: a pure-Python orientation loop over small objects, and
    numpy arithmetic streaming a 32 MB array.
    """

    def __init__(self):
        self.points = [(math.cos(0.1 * i) * (1 + i % 7), math.sin(0.1 * i)) for i in range(500)]
        self.values = np.arange(4_000_000, dtype=np.float64)
        self.out = np.empty_like(self.values)
        self()  # the first call faults in the output pages and runs slow

    def __call__(self) -> float:
        start = time.perf_counter()
        points, n, left = self.points, len(self.points), 0
        for i in range(n):
            (ax, ay), (bx, by) = points[i], points[(i + 1) % n]
            for px, py in points[i + 2:]:
                left += (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0.0
        np.multiply(self.values, 1.5, out=self.out)
        np.add(self.out, 2.0, out=self.out)
        np.sqrt(self.out, out=self.out)
        float(self.out.sum())
        return time.perf_counter() - start


def startup_probes(ctx, tracer):
    """Bare interpreter start and ``import indivisibles.cli``, in children."""
    from workloads import run_child

    for _ in range(STARTUP_SAMPLES):
        with tracer.span("cli.interpreter"):
            run_child(ctx, ["-c", "pass"])
        with tracer.span("cli.import"):
            run_child(ctx, ["-c", "import indivisibles.cli"])


def layer_metrics(pass_spans, probe_spans, traced_times, plain_times, coverage) -> dict[str, float]:
    from spans import self_times

    spans = pass_spans + probe_spans
    passes = len(traced_times)
    own = self_times(spans)
    out = {}
    for name in SELF_TIME_SPANS:
        out[f"{name}.self_s"] = sum(t for s, t in zip(spans, own) if s.name == name) / passes
    for metric, (span_name, counter) in COUNTERS.items():
        out[metric] = sum(s.counts.get(counter, 0) for s in spans if s.name == span_name) / passes

    def under(span, name):
        while span is not None:
            if span.name == name:
                return True
            span = span.parent
        return False

    mc = [s for s in spans if s.name == "oracle.mc"]
    samples = sum(s.counts.get("samples", 0) for s in mc)
    out["oracle.mc.chunks"] = sum(
        1 for s in spans if s.name == "kernels.uniform01" and under(s.parent, "oracle.mc")
    ) / passes
    out["oracle.mc.hit_ratio"] = sum(s.counts.get("hits", 0) for s in mc) / samples if samples else 0.0
    points = sum(
        s.counts.get("points", 0)
        for s in spans
        if s.name == "exhaustion.profile" and under(s.parent, "exhaustion.refine")
    )
    edges = sum(s.counts.get("edges", 0) for s in spans if s.name == "exhaustion.refine")
    out["exhaustion.refine.useful_ratio"] = edges / points if points else 0.0
    # each refinement step is one staircase, which sums its lower and upper slabs
    out["exhaustion.refine.steps"] = sum(
        1 for s in spans if s.name == "kernels.ordered_sum" and under(s.parent, "exhaustion.refine")
    ) / 2 / passes

    def median_duration(name):
        durations = [s.end - s.start for s in spans if s.name == name]
        return statistics.median(durations) if durations else 0.0

    out["cli.interpreter_s"] = median_duration("cli.interpreter")
    out["cli.import_s"] = median_duration("cli.import") - out["cli.interpreter_s"]
    out["cli.main_s"] = sum(s.end - s.start for s in spans if s.name == "cli.main") / passes
    out["trace.overhead"] = statistics.median(traced_times) / statistics.median(plain_times) - 1.0
    out["trace.coverage"] = statistics.median(coverage)
    return out


def measure(workload, ctx, inp, seconds: float, traced: bool, time_setup) -> dict:
    """Run passes until ``seconds`` (warm-up pass included) elapse.

    Pass 0 warms the allocator and caches; it is checked but not timed, and
    the process's peak RSS is read after it, before the reference work
    allocates anything.  A workload whose work runs in fresh child processes
    has nothing here to warm and skips it.  In a traced run the odd passes
    are traced and the even ones are not.  One set-up sample is taken before
    each timed pass until there are ``SETUP_SAMPLES``, so a short slow spell
    of the machine skews few of them.
    """
    from spans import NullTracer, Tracer, rebound_kernels, root_time

    tally = Tally()
    plain_ops = workload.ops(ctx, inp, NullTracer())
    tracer = Tracer()
    traced_ops = workload.ops(ctx, inp, tracer) if traced else None
    probe_ops = workload.probes(ctx, inp, tracer) if traced else None
    plain_times, references, traced_times, coverage, setup = [], [], [], [], []
    pass_spans, probe_spans = [], []
    deadline = time.perf_counter() + seconds
    if workload.warm_pass:
        tally.run(plain_ops, {}, 0)
    own_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reference = Reference()
    index = 1
    while len(plain_times) < 2 or (traced and not traced_times) or time.perf_counter() < deadline:
        if len(setup) < SETUP_SAMPLES:
            setup.append(time_setup())
        state: dict = {}
        if traced and index % 2 == 1:
            with rebound_kernels(tracer):
                elapsed = tally.run(traced_ops, state, index)
            spans = tracer.take()
            traced_times.append(elapsed)
            coverage.append(root_time(spans) / elapsed)
            pass_spans += spans
            # layer probes run after the pass, outside its wall time
            with rebound_kernels(tracer):
                tally.run(probe_ops, state, index)
                startup_probes(ctx, tracer)
            probe_spans += tracer.take()
        else:
            references.append(reference())
            plain_times.append(tally.run(plain_ops, state, index))
            references.append(reference())
        index += 1
    while len(setup) < SETUP_SAMPLES:
        setup.append(time_setup())
    child_rss_kb = workload.child_peak_rss_kb(ctx, inp)
    plain = [r for r in tally.records if r["pass"] > 0 and (r["pass"] % 2 == 0 or not traced)]
    result = {
        "tally": tally,
        "plain_times": plain_times,
        "references": references,
        "plain_records": plain,
        # the CLI's memory is in its children; the library's in this process
        "peak_rss_kb": own_rss_kb if child_rss_kb is None else child_rss_kb,
        "setup": setup,
    }
    if traced:
        result["layers"] = layer_metrics(pass_spans, probe_spans, traced_times, plain_times, coverage)
        result["spans"] = pass_spans + probe_spans
        result["traced_times"] = traced_times
    return result


# ---------------------------------------------------------------------------
# set-up


def setup_once(workload_name: str, seed: int):
    """Import, make the inputs and make one warm-up call."""
    import_library()
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[workload_name]
    with scratch_dir() as tmp:
        workload.warmup(workload.inputs(Context.create(ROOT, tmp), seed))


def time_setup(workload_name: str, seed: int) -> tuple[float, float]:
    """Wall times of a fresh interpreter doing ``setup_once`` and, right
    after it, of one that only imports numpy.

    No commit changes the second, and it drifts with the host's speed of
    starting processes and importing modules, which is most of the first;
    their ratio cancels that drift.
    """
    probe = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload_name, "--seed", str(seed)]
    return _child_seconds(probe), _child_seconds([sys.executable, "-c", "import numpy"])


def _child_seconds(argv: list[str]) -> float:
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise HarnessError(f"{' '.join(argv[1:])} failed: {done.stderr.strip()[-2000:]}")
    return elapsed


class scratch_dir:
    """A temporary directory inside the checkout, removed afterwards."""

    def __enter__(self) -> Path:
        self.parent = ROOT / TMP_DIR
        self.parent.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=self.parent))
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.parent.rmdir()
        except OSError:
            pass  # another run still uses it


# ---------------------------------------------------------------------------
# entry point


def write_spans(spans, workload_name: str, seed: int) -> str:
    """Write every span of a traced run as JSON lines; return the path."""
    from spans import write_jsonl

    path = ROOT / SPANS_DIR / f"spans.{workload_name}.{seed}.jsonl"
    path.parent.mkdir(exist_ok=True)
    write_jsonl(spans, path)
    return str(path.relative_to(ROOT))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("oracle_mc", "enclosure", "exact_geometry", "cli_corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if args.setup_probe:
        setup_once(args.workload, args.seed)
        return 0

    iv = import_library()
    from stats import timing
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[args.workload]

    with scratch_dir() as tmp:
        ctx = Context.create(ROOT, tmp)
        inp = workload.inputs(ctx, args.seed)
        workload.warmup(inp)
        raw = measure(workload, ctx, inp, args.seconds, bool(args.trace),
                      lambda: time_setup(args.workload, args.seed))
    setup_raw = [seconds for seconds, _ in raw["setup"]]
    setup_reference = [reference for _, reference in raw["setup"]]

    tally = raw["tally"]
    records = raw["plain_records"]
    op_ms = [1e3 * r["seconds"] for r in records]
    end_to_end = {
        "setup_s": statistics.median([s / r for s, r in raw["setup"]]) * SETUP_REFERENCE_S,
        "pass_norm.p50": statistics.median(raw["plain_times"]) / statistics.median(raw["references"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    report = {
        "workload": workload.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(iv, args.seed),
        "setup_s": {"p50": end_to_end["setup_s"], "samples": len(setup_raw)},
        "setup_raw_s": {**timing(setup_raw), "values": setup_raw},
        "setup_reference_s": {**timing(setup_reference), "values": setup_reference},
        "pass_s": {**timing(raw["plain_times"]), "values": raw["plain_times"]},
        "reference_ms": {**timing([1e3 * t for t in raw["references"]]),
                         "values": [1e3 * t for t in raw["references"]]},
        "op_ms": timing(op_ms),
        "peak_rss_mb": end_to_end["peak_rss_mb"],
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "known_defect_failures": tally.defect_count,
        "error_rate": (len(tally.failures) + tally.defect_count) / tally.attempted,
        "known_defects": tally.defects,
        "failures": tally.failures[:20],
        **workload.report(records),
    }
    if args.trace:
        units = per_layer_units()
        metrics = {name: metric(value, units[name]) for name, value in raw["layers"].items()}
        report["traced_pass_s"] = timing(raw["traced_times"])
        report["spans_file"] = write_spans(raw["spans"], args.workload, args.seed)
    else:
        metrics = {name: metric(value, END_TO_END[name]) for name, value in end_to_end.items()}
    for failure in tally.failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    for name, reason in tally.defects.items():
        print(f"perfbench: known defect {name}: {reason}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    # on SIGTERM unwind normally, so the scratch directory and children go too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
