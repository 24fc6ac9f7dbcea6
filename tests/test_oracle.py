"""Brute-force estimators: reproducibility, statistical accuracy, convergence."""

import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import indivisibles as iv
from indivisibles import EmptyBox, SectionFunction, oracle
from indivisibles._kernels import ordered_sum, uniform01
from indivisibles.oracle import _indicator_estimate

from conftest import DATA_DIR

GOLDEN = json.loads((DATA_DIR / "golden_estimates.json").read_text())


def _golden_estimate(name):
    """Recompute the estimate pinned under ``name`` in the golden file."""
    if name == "disk_r1_area":
        return iv.mc_area(lambda x, y: x * x + y * y <= 1.0, ((-1, 1), (-1, 1)), 10**6, seed=42)
    if name == "sphere_r1_volume":
        return iv.mc_volume(
            lambda x, y, z: x * x + y * y + z * z <= 1.0, ((-1, 1), (-1, 1), (-1, 1)), 10**6, seed=42
        )
    if name == "hoof_r1_h1_volume":
        return iv.mc_volume(
            lambda x, y, z: (x * x + y * y <= 1.0) & (y >= 0.0) & (z <= y),
            ((-1, 1), (0, 1), (0, 1)),
            10**6,
            seed=42,
        )
    if name == "torus_R3_r1_volume":
        return iv.mc_volume(
            lambda x, y, z: (np.hypot(x, y) - 3.0) ** 2 + z * z <= 1.0,
            ((-4, 4), (-4, 4), (-1, 1)),
            10**7,
            seed=42,
        )
    raise KeyError(name)


# The same pins through the library kinds' own membership and box.
GOLDEN_KINDS = {
    "disk_r1_area": (iv.mc_area, iv.Disk(iv.Point2(0, 0), 1.0), 10**6),
    "sphere_r1_volume": (iv.mc_volume, iv.Sphere(1.0), 10**6),
    "hoof_r1_h1_volume": (iv.mc_volume, iv.Hoof(1.0, 1.0), 10**6),
    "torus_R3_r1_volume": (iv.mc_volume, iv.SolidOfRevolution(iv.Profile(iv.Disk(iv.Point2(3, 0), 1.0))), 10**7),
}


def _traced_peak(run) -> int:
    """Peak bytes traced by tracemalloc while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMonteCarlo:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_pins_bit_stability(self, name):
        est = _golden_estimate(name)
        entry = GOLDEN[name]
        assert repr(est.mean) == entry["mean"]
        assert repr(est.stderr) == entry["stderr"]
        assert est.samples == entry["samples"] and est.seed == entry["seed"]

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_pins_through_library_kinds(self, name):
        estimate, kind, samples = GOLDEN_KINDS[name]
        est = estimate(kind.contains, kind.box(), samples, seed=42)
        entry = GOLDEN[name]
        assert repr(est.mean) == entry["mean"]
        assert repr(est.stderr) == entry["stderr"]
        assert est.samples == entry["samples"] and est.seed == entry["seed"]

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_values_statistically_sound(self, name):
        entry = GOLDEN[name]
        err = abs(float(entry["mean"]) - float(entry["closed_form"]))
        assert err <= 5.0 * float(entry["stderr"])

    def test_determinism_bit_for_bit(self):
        a = _golden_estimate("disk_r1_area")
        b = _golden_estimate("disk_r1_area")
        assert a == b

    def test_full_box_membership(self):
        est = iv.mc_area(lambda x, y: np.ones_like(x, dtype=bool), ((0, 2), (0, 3)), 1000, seed=1)
        assert est.mean == 6.0
        assert est.stderr == 0.0

    def test_empty_membership(self):
        est = iv.mc_area(lambda x, y: np.zeros_like(x, dtype=bool), ((0, 2), (0, 3)), 1000, seed=1)
        assert est.mean == 0.0

    def test_empty_box_rejected(self):
        with pytest.raises(EmptyBox):
            iv.mc_area(lambda x, y: x > 0, ((1, 1), (0, 1)), 10, seed=1)
        with pytest.raises(EmptyBox):
            iv.mc_area(lambda: True, (), 10, seed=1)

    def test_box_whose_measure_is_not_finite_rejected(self):
        with pytest.raises(EmptyBox, match="is not finite"):
            iv.mc_volume(lambda x, y, z: x > 0, ((-1e200, 1e200), (-1e200, 1e200), (-1, 1)), 10, seed=1)
        with pytest.raises(EmptyBox, match="is not finite"):
            iv.mc_area(lambda x, y: x > 0, ((-1e308, 1e308), (0, 1)), 10, seed=1)

    def test_box_whose_measure_underflows_rejected(self):
        # each side is positive, but their product is 0: every estimate would be 0
        with pytest.raises(EmptyBox, match="underflows to 0"):
            iv.mc_area(lambda x, y: x > 0, ((0, 1e-170), (0, 1e-170)), 10, seed=1)
        with pytest.raises(EmptyBox, match="underflows to 0"):
            iv.mc_volume(lambda x, y, z: x > 0, ((0, 1e-110), (0, 1e-110), (0, 1e-110)), 10, seed=1)

    def test_integer_box_measure_does_not_wrap(self):
        # 2^32 * 2^32 wraps to 0 in int64
        est = iv.mc_area(lambda x, y: x >= 0.0, ((0, 2**32), (0, 2**32)), 100, seed=1)
        assert est.mean == 2.0**64

    def test_estimate_matches_the_unscaled_formula_where_it_is_normal(self):
        # The unscaled formula overflows for box measures above about 1e154
        # and underflows below about 1e-154 (its variance becomes 0.0); where
        # its results are finite and normal, the estimate equals it bit for
        # bit.  Its square ``box_measure**2`` goes through libm's pow, which
        # misrounds about one square in a thousand, so against that form the
        # standard error is only within one ulp.
        def unscaled(hits, samples, box_measure, square):
            mean = box_measure * hits / samples
            var = square(box_measure) * hits * (samples - hits) / (samples * (samples - 1)) if samples > 1 else 0.0
            return mean, var, math.sqrt(var) / math.sqrt(samples)

        def normal(x):
            return math.isfinite(x) and (x == 0.0 or x >= sys.float_info.min)

        rng = np.random.default_rng(20261018)
        compared = 0
        for _ in range(20_000):
            box_measure = math.ldexp(rng.uniform(0.5, 1.0), int(rng.integers(-1073, 1025)))
            samples = int(2.0 ** rng.uniform(0.0, 40.0))
            hits = int(rng.integers(0, samples + 1))
            est = _indicator_estimate(hits, samples, box_measure, 0)
            assert math.isfinite(est.mean) and math.isfinite(est.stderr)
            mean, var, stderr = unscaled(hits, samples, box_measure, lambda b: b * b)
            if normal(mean):
                assert est.mean == mean
            if normal(var) and (var > 0.0 or hits in (0, samples)):
                assert est.stderr == stderr
                _, _, pow_stderr = unscaled(hits, samples, box_measure, lambda b: b**2)
                assert abs(est.stderr - pow_stderr) <= math.ulp(stderr)
                compared += 1
        assert compared > 5_000

    def test_memory_stays_bounded(self):
        # 10^6 3-D samples hold 24 MB of coordinates; streamed in chunks of
        # 2^14 samples the peak stays a few chunks per worker
        def run():
            iv.mc_volume(lambda x, y, z: x * x + y * y + z * z <= 1.0, ((-1, 1), (-1, 1), (-1, 1)), 10**6)

        workers = min(oracle._cpu_count(), -(-(10**6) // oracle._BLOCK))
        assert _traced_peak(run) < workers * 2 * 2**20

    def test_seed_independence_of_truth(self):
        # ten seeds, all estimates land within 5 stderr of the closed forms
        cases = [
            ("disk", math.pi, lambda seed: iv.mc_area(
                lambda x, y: x * x + y * y <= 1.0, ((-1, 1), (-1, 1)), 200_000, seed=seed)),
            ("sphere", 4 * math.pi / 3, lambda seed: iv.mc_volume(
                lambda x, y, z: x * x + y * y + z * z <= 1.0, ((-1, 1), (-1, 1), (-1, 1)), 200_000, seed=seed)),
            ("hoof", 2 / 3, lambda seed: iv.mc_volume(
                lambda x, y, z: (x * x + y * y <= 1.0) & (y >= 0.0) & (z <= y),
                ((-1, 1), (0, 1), (0, 1)), 200_000, seed=seed)),
            ("torus", 6 * math.pi**2, lambda seed: iv.mc_volume(
                lambda x, y, z: (np.hypot(x, y) - 3.0) ** 2 + z * z <= 1.0,
                ((-4, 4), (-4, 4), (-1, 1)), 200_000, seed=seed)),
        ]
        for name, truth, run in cases:
            for seed in range(10):
                est = run(seed)
                assert abs(est.mean - truth) <= 5 * est.stderr, f"{name} seed {seed}"

    @pytest.mark.parametrize(
        "box",
        [
            ((-1.0, 1.0),),
            ((1e-300, 3e-300), (-1e150, 1e150)),  # span * 2^-53 is subnormal
            ((-1.0, 1.0), (0.0, 2.0), (-3.0, 1.0)),
            ((-1.0, 1.0), (0.0, 2.0), (-3.0, 1.0), (0.5, 0.75)),
        ],
    )
    def test_chunk_edges_match_a_single_stream_call(self, box):
        from indivisibles import _kernels
        from indivisibles.oracle import _BLOCK

        dims = len(box)
        samples = 3 * _BLOCK + 1
        calls = []

        def ball(*axes):
            for axis in axes:
                assert axis.dtype == np.float64
                assert axis.ndim == 1 and axis.flags.c_contiguous
                assert axis.shape == axes[0].shape
            calls.append([axis.copy() for axis in axes])
            inside = sum(axis * axis for axis in axes) <= 1.0
            for axis in axes:  # a membership that writes into its arguments changes no later chunk
                axis[:] = np.nan
            return inside

        est = iv.mc_volume(ball, box, samples, seed=5)
        assert sorted(len(call[0]) for call in calls) == [1, _BLOCK, _BLOCK, _BLOCK]
        # sample i, axis d is lo_d + span_d * (stream value dims*i + d), bit for bit
        u = _kernels.uniform01(5, 0, dims * samples).reshape(samples, dims)
        coords = [lo + (hi - lo) * u[:, d] for d, (lo, hi) in enumerate(box)]
        # chunks reach the membership in no set order, so each call is matched
        # to a chunk by its rows: every chunk is one call, bit for bit
        chunks = [tuple(axis[i : i + _BLOCK].tobytes() for axis in coords) for i in range(0, samples, _BLOCK)]
        assert sorted(tuple(axis.tobytes() for axis in call) for call in calls) == sorted(chunks)
        hits = int(np.count_nonzero(sum(axis * axis for axis in coords) <= 1.0))
        measure = math.prod(hi - lo for lo, hi in box)  # 16.0 for the 3-D box
        assert est.mean == measure * hits / samples
        assert est.samples == samples

    def test_membership_must_return_one_value_per_sample(self):
        box = ((0, 1), (0, 1))
        # a scalar used to count as one hit per chunk (mean 7e-05, not 1.0)
        with pytest.raises(ValueError, match=r"expected shape \(16384,\), got \(\)"):
            iv.mc_area(lambda x, y: True, box, 100_000)
        # a short mask used to count only its own hits (mean 0.00038)
        with pytest.raises(ValueError, match=r"expected shape \(16384,\), got \(10,\)"):
            iv.mc_area(lambda x, y: (x * x + y * y <= 1.0)[:10], box, 100_000)

    def test_single_sample_has_zero_stderr(self):
        est = iv.mc_area(lambda x, y: x > 0, ((-1, 1), (-1, 1)), 1, seed=9)
        assert est.stderr == 0.0


@pytest.fixture
def workers(monkeypatch):
    """``workers(n)`` makes the Monte Carlo oracle see n CPUs, so it splits
    its chunks into min(n, chunks) runs."""

    def see(n):
        monkeypatch.setattr(oracle, "_cpu_count", lambda: n)

    return see


def _chunk_index(samples, dims, seed):
    """Map from a chunk's first coordinate to the chunk's index, for a box of
    unit sides at the origin, where coordinates are the stream values."""
    u = uniform01(seed, 0, dims * samples).tolist()
    return {u[dims * start]: c for c, start in enumerate(range(0, samples, oracle._BLOCK))}


class TestMonteCarloWorkers:
    """One worker per CPU, each on one contiguous run of chunks; the caller
    counts run 0."""

    @pytest.mark.parametrize("name", ["disk_r1_area", "hoof_r1_h1_volume"])
    def test_estimate_is_the_same_at_every_worker_count(self, workers, name):
        # more workers than cores, switching threads every microsecond: a
        # hit lost or counted twice would change the pinned bits
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in (1, 2, 3, 8, 100):
                workers(n)
                est = _golden_estimate(name)
                assert (repr(est.mean), repr(est.stderr)) == (GOLDEN[name]["mean"], GOLDEN[name]["stderr"]), n
        finally:
            sys.setswitchinterval(interval)

    def test_lowest_failed_chunk_raises(self, workers):
        # four chunks in two runs, {0, 1} and {2, 3}; chunk 2 of run 1 fails
        # first, chunk 1 of run 0 after it, and chunk 1's error is raised
        workers(2)
        samples = 4 * oracle._BLOCK
        index = _chunk_index(samples, 1, 42)
        later = threading.Event()
        start = threading.active_count()

        def membership(xs):
            chunk = index[xs[0]]
            if chunk == 1:
                assert later.wait(10)
                raise ValueError("chunk 1 of run 0")
            if chunk == 2:
                later.set()
                raise ValueError("chunk 2 of run 1")
            return xs < 0.5

        with pytest.raises(ValueError, match="^chunk 1 of run 0$"):
            iv.mc_area(membership, ((0, 1),), samples)
        assert threading.active_count() == start

    @pytest.mark.parametrize("n", [2, 3])
    def test_error_in_chunk_0_stops_the_other_runs(self, workers, n):
        # 64 chunks; chunk 0 fails once every other run has started a chunk,
        # and no run goes on to its end
        workers(n)
        samples = 64 * oracle._BLOCK
        index = _chunk_index(samples, 1, 42)
        firsts = {64 * w // n for w in range(1, n)}
        together = threading.Barrier(n, timeout=10)
        failed = threading.Event()
        seen = []
        start = threading.active_count()

        def membership(xs):
            chunk = index[xs[0]]
            if chunk == 0 or chunk in firsts:
                together.wait()
            if chunk == 0:
                failed.set()
                raise KeyError("chunk 0")
            seen.append(chunk)
            assert failed.wait(10)
            return xs < 0.5

        with pytest.raises(KeyError, match="chunk 0"):
            iv.mc_area(membership, ((0, 1),), samples)
        assert threading.active_count() == start
        # each other run saw its first chunk and stopped at most one chunk later
        assert firsts <= set(seen) and len(seen) <= 2 * (n - 1)

    def test_interrupt_in_the_caller_joins_every_worker(self, workers):
        workers(3)
        samples = 30 * oracle._BLOCK
        index = _chunk_index(samples, 1, 42)
        start = threading.active_count()

        def membership(xs):
            if index[xs[0]] == 3:  # run 0 is chunks 0 .. 9
                raise KeyboardInterrupt
            return xs < 0.5

        with pytest.raises(KeyboardInterrupt):
            iv.mc_area(membership, ((0, 1),), samples)
        assert threading.active_count() == start

    def test_caller_failing_outside_a_chunk_joins_every_worker(self, workers, monkeypatch):
        # the caller's own buffers fail after the other runs' threads started
        workers(3)
        caller = threading.get_ident()
        buffers = oracle.StreamBuffers

        def failing(*args):
            if threading.get_ident() == caller:
                raise KeyboardInterrupt
            return buffers(*args)

        monkeypatch.setattr(oracle, "StreamBuffers", failing)
        start = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            iv.mc_area(lambda xs: xs < 0.5, ((0, 1),), 30 * oracle._BLOCK)
        assert threading.active_count() == start

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_caller_errstate_holds_in_every_worker(self, workers, n):
        # one chunk per run; every run reaches its chunk before any overflows,
        # and each raises FloatingPointError, as the caller asked
        workers(n)
        samples = n * oracle._BLOCK
        index = _chunk_index(samples, 2, 42)
        together = threading.Barrier(n, timeout=10)
        raised = set()

        def membership(xs, ys):
            chunk = index[xs[0]]
            together.wait()
            try:
                return xs * 1e308 * 10.0 > ys
            except FloatingPointError:
                raised.add(chunk)
                raise

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                iv.mc_area(membership, ((0, 1), (0, 1)), samples)
        assert raised == set(range(n))


class TestRiemann:
    def sphere_sections(self):
        return SectionFunction(
            lambda z: math.pi * np.maximum(1.0 - z * z, 0.0),
            domain=(-1.0, 1.0),
            breakpoints=(0.0,),
            monotonicity=("increasing", "decreasing"),
        )

    def test_sphere_one_million_cells(self):
        got = iv.riemann_volume(self.sphere_sections(), 10**6)
        assert abs(got - 4 * math.pi / 3) <= 1e-9

    def test_constant_section_exact_at_one_cell(self):
        sec = SectionFunction(
            lambda z: math.pi * np.ones_like(np.asarray(z, dtype=float)),
            domain=(0.0, 2.0),
            monotonicity=("increasing",),
        )
        assert iv.riemann_volume(sec, 1) == pytest.approx(2 * math.pi, rel=1e-15)

    def test_constant_profile_returning_one_value(self):
        # riemann_volume evaluates through the profile, which broadcasts 0.1
        sec = SectionFunction(lambda t: 0.1, domain=(0.0, 1.0))
        assert iv.riemann_volume(sec, 1000) == pytest.approx(0.1, rel=1e-12)

    def test_hoof_one_million_cells(self):
        sec = SectionFunction(
            lambda y: 2.0 * y * np.sqrt(np.maximum(1.0 - y * y, 0.0)),
            domain=(0.0, 1.0),
            breakpoints=(1 / math.sqrt(2),),
            monotonicity=("increasing", "decreasing"),
        )
        assert abs(iv.riemann_volume(sec, 10**6) - 2 / 3) <= 1e-9

    def test_midpoint_error_order_near_two(self):
        # smooth integrand: empirical order between n and 2n stays >= 1.9
        sec = SectionFunction(
            lambda z: np.cos(z),
            domain=(0.0, 1.0),
            monotonicity=("decreasing",),
        )
        truth = math.sin(1.0)
        for k in range(4, 14):
            err_n = abs(iv.riemann_volume(sec, 2**k) - truth)
            err_2n = abs(iv.riemann_volume(sec, 2**(k + 1)) - truth)
            assert math.log2(err_n / err_2n) >= 1.9

    def test_chunking_does_not_change_the_sum(self, monkeypatch):
        import indivisibles.oracle as oracle

        sec = self.sphere_sections()
        chunked = iv.riemann_volume(sec, 3_000_000)
        monkeypatch.setattr(oracle, "_BLOCK", 1 << 22)
        whole = iv.riemann_volume(sec, 3_000_000)
        assert whole == chunked


    def test_memory_stays_bounded(self):
        sec = self.sphere_sections()
        assert _traced_peak(lambda: iv.riemann_volume(sec, 10**6)) < 4 * 2**20


class TestBoundaryIntegral:
    def test_torus_surface_integrand(self):
        circle = iv.CircleArc(iv.Point2(3, 0), 1.0)
        got = iv.boundary_integral(circle, lambda x, y: 2 * math.pi * x, 4096)
        assert abs(got - 12 * math.pi**2) <= 1e-6

    def test_unit_integrand_gives_perimeter(self):
        ring = iv.Polyline([(0, 0), (2, 0), (2, 2), (0, 2)], closed=True)
        got = iv.boundary_integral(ring, lambda x, y: np.ones_like(x), 64)
        assert got == pytest.approx(8.0, rel=1e-12)

    def test_semicircle_revolution(self):
        arc = iv.CircleArc(iv.Point2(0, 0), 1.0, start_angle=-math.pi / 2, span=math.pi)
        got = iv.boundary_integral(arc, lambda x, y: 2 * math.pi * x, 100_000)
        assert abs(got - 4 * math.pi) <= 1e-6

    @pytest.mark.parametrize("n", [(1 << 14) - 1, (1 << 14) + 1, 10**6])
    def test_chunked_arc_equals_one_pass(self, n):
        arc = iv.CircleArc(iv.Point2(0.3, -1.1), 1.7, start_angle=0.2, span=5.0)

        def integrand(xs, ys):
            return xs * xs + ys

        # the whole arc as one array, reduced by one ordered_sum
        thetas = arc.start_angle + arc.span * (np.arange(n, dtype=np.float64) + 0.5) / n
        xs = arc.center.x + arc.radius * np.cos(thetas)
        ys = arc.center.y + arc.radius * np.sin(thetas)
        whole = ordered_sum(integrand(xs, ys) * (arc.radius * arc.span / n), 0.0)
        assert iv.boundary_integral(arc, integrand, n) == whole

    def test_circle_memory_stays_bounded(self):
        circle = iv.CircleArc(iv.Point2(1.0, 2.0), 1.5)
        tracemalloc.start()
        try:
            iv.boundary_integral(circle, lambda xs, ys: xs * xs, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def _per_edge_integral(curve, integrand, n):
    """The polyline rule edge by edge: each edge's n midpoints from its two
    points, chained from the previous edge's total."""
    total = 0.0
    any_length = False
    for p, q in curve.edges():
        seg = math.hypot(q.x - p.x, q.y - p.y)
        if seg == 0.0:
            continue
        any_length = True
        for done in range(0, n, 1 << 14):
            ts = (np.arange(done, min(done + (1 << 14), n), dtype=np.float64) + 0.5) / n
            xs = p.x + (q.x - p.x) * ts
            ys = p.y + (q.y - p.y) * ts
            total = ordered_sum(np.asarray(integrand(xs, ys), dtype=np.float64) * (seg / n), total)
    if not any_length:
        raise iv.DegenerateCurve("curve has zero length")
    return total


def _wavy(xs, ys):
    return np.sin(xs) * ys + xs * xs


class TestPolylineBoundaryIntegral:
    """The flat pass over all edges' midpoints against the per-edge rule."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [1, 3, 64, 1000])
    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    def test_equals_the_per_edge_rule(self, seed, n, closed):
        rng = np.random.default_rng(seed)
        xy = rng.normal(size=(int(rng.integers(2, 30)), 2)) * 10.0 ** rng.uniform(-3, 3)
        for curve in (iv.Polyline(xy, closed=closed), iv.Polyline([tuple(row) for row in xy.tolist()], closed)):
            assert iv.boundary_integral(curve, _wavy, n) == _per_edge_integral(curve, _wavy, n)

    @pytest.mark.parametrize("n", [1, 7, 4096])
    def test_polygon_boundary_equals_the_per_edge_rule(self, n):
        star = iv.Polygon([(math.cos(k * 0.7) * (1.5 + k % 2), math.sin(k * 0.7) * (1.5 + k % 2)) for k in range(9)])
        ring = star.boundary()
        assert iv.boundary_integral(ring, _wavy, n) == _per_edge_integral(ring, _wavy, n)

    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    def test_zero_length_edges_are_skipped(self, closed):
        pts = [(0.0, 0.0), (0.0, 0.0), (1.0, 2.0), (3.0, -1.0), (3.0, -1.0), (0.0, 0.0)]
        curve = iv.Polyline(pts, closed=closed)
        assert iv.boundary_integral(curve, _wavy, 5) == _per_edge_integral(curve, _wavy, 5)

    def test_flat_count_crossing_a_block_mid_edge(self):
        # 3 edges of 10,000 midpoints each: the first piece of 2^14 cells ends
        # inside the second edge
        curve = iv.Polyline([(0.0, 0.0), (1.0, 0.5), (2.5, -0.25), (3.0, 1.0)])
        n = 10_000
        assert n < 1 << 14 < 2 * n
        assert iv.boundary_integral(curve, _wavy, n) == _per_edge_integral(curve, _wavy, n)

    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    def test_zero_length_curve_is_degenerate(self, closed):
        curve = iv.Polyline([(1.0, 2.0), (1.0, 2.0), (1.0, 2.0)], closed=closed)
        with pytest.raises(iv.DegenerateCurve):
            iv.boundary_integral(curve, _wavy, 4)


def test_estimate_validation():
    with pytest.raises(ValueError):
        iv.Estimate(mean=1.0, stderr=-0.1, samples=10, seed=0)
    with pytest.raises(ValueError):
        iv.Estimate(mean=1.0, stderr=0.1, samples=0, seed=0)
