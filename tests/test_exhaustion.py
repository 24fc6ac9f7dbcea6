"""Certified enclosures: soundness, refinement monotonicity, TV width bound."""

import math
import tracemalloc

import numpy as np
import pytest

from indivisibles import (
    Disk,
    GeometryError,
    InvalidMonotonicity,
    MeasureInterval,
    Point2,
    SectionFunction,
    ToleranceNotReached,
    WidthFunction,
    area,
    area_bounds,
    refine_until,
    volume_bounds,
)
from indivisibles import exhaustion
from indivisibles._kernels import _BLOCK, ordered_sum
from indivisibles.exhaustion import _INFLATION, _staircase_blocks, _staircase_bounds, _staircase_sums, _widen

# slack factor covering the documented 1e-12 outward inflation of the bounds
INFLATION_SLACK = 1.0 + 1e-9


def disk_width(r=1.0) -> WidthFunction:
    return WidthFunction(
        lambda y: 2.0 * np.sqrt(np.maximum(r * r - y * y, 0.0)),
        domain=(-r, r),
        breakpoints=(0.0,),
        monotonicity=("increasing", "decreasing"),
    )


def sphere_sections(r=1.0) -> SectionFunction:
    return SectionFunction(
        lambda z: math.pi * np.maximum(r * r - z * z, 0.0),
        domain=(-r, r),
        breakpoints=(0.0,),
        monotonicity=("increasing", "decreasing"),
    )


def cone_sections(base_area=3.0, h=1.0) -> SectionFunction:
    return SectionFunction(
        lambda z: base_area * (1.0 - z / h) ** 2,
        domain=(0.0, h),
        monotonicity=("decreasing",),
    )


def hoof_sections(r=1.0, h=1.0) -> SectionFunction:
    slope = h / r
    return SectionFunction(
        lambda y: 2.0 * slope * y * np.sqrt(np.maximum(r * r - y * y, 0.0)),
        domain=(0.0, r),
        breakpoints=(r / math.sqrt(2.0),),
        monotonicity=("increasing", "decreasing"),
    )


class TestAreaBounds:
    def test_unit_disk_n1000_tv_rate(self):
        b = area_bounds(disk_width(), 1000)
        assert b.lo <= math.pi <= b.hi
        assert b.width <= (8.0 / 1000) * INFLATION_SLACK
        assert b.method == "inner-outer-rectangles"

    def test_constant_width_exact_at_n1(self):
        w = WidthFunction(
            lambda t: np.ones_like(np.asarray(t, dtype=float)),
            domain=(0.0, 1.0),
            monotonicity=("increasing",),
        )
        b = area_bounds(w, 1)
        assert b.lo == pytest.approx(1.0, abs=1e-11)
        assert b.hi == pytest.approx(1.0, abs=1e-11)
        assert b.lo <= 1.0 <= b.hi

    def test_constant_profile_returning_one_value(self):
        # the profile's single value is broadcast to every slab edge
        w = WidthFunction(lambda t: 0.1, domain=(0.0, 1.0))
        assert w(np.linspace(0.0, 1.0, 5)).shape == (5,)
        assert w(0.5) == 0.1
        b = area_bounds(w, 1000)
        assert b.lo <= 0.1 <= b.hi
        assert b.width <= 1e-12

    def test_identity_width_hand_computed_riemann_sums(self):
        w = WidthFunction(lambda t: np.asarray(t, dtype=float), domain=(0.0, 1.0))
        b = area_bounds(w, 4)
        assert b.lo == pytest.approx(0.375, abs=1e-11)
        assert b.hi == pytest.approx(0.625, abs=1e-11)

    def test_breakpoints_become_slab_boundaries(self):
        b = area_bounds(disk_width(), 1)
        # one requested slab splits in two at the peak, giving [0, 4]
        assert b.slabs == 2
        assert b.lo == 0.0
        assert b.hi == pytest.approx(4.0, rel=1e-9)

    def test_declared_monotonicity_is_spot_checked(self):
        lying = WidthFunction(
            lambda y: 2.0 * np.sqrt(np.maximum(1.0 - y * y, 0.0)),
            domain=(-1.0, 1.0),
            monotonicity=("increasing",),  # false on [0, 1]
        )
        with pytest.raises(InvalidMonotonicity):
            area_bounds(lying, 10)

    def test_negative_values_rejected(self):
        bad = WidthFunction(lambda t: np.asarray(t, dtype=float) - 0.5, domain=(0.0, 1.0))
        with pytest.raises(InvalidMonotonicity):
            area_bounds(bad, 4)


class TestVolumeBounds:
    def test_unit_sphere_n1000(self):
        b = volume_bounds(sphere_sections(), 1000)
        truth = 4.0 * math.pi / 3.0
        assert b.lo <= truth <= b.hi
        assert b.width <= (math.pi * 4.0 / 1000) * INFLATION_SLACK
        assert b.method == "inner-outer-disks"

    def test_cylinder_constant_section_exact_at_n1(self):
        sec = SectionFunction(
            lambda z: math.pi * np.ones_like(np.asarray(z, dtype=float)),
            domain=(0.0, 2.0),
            monotonicity=("increasing",),
        )
        b = volume_bounds(sec, 1)
        assert b.lo == pytest.approx(2.0 * math.pi, rel=1e-11)
        assert b.hi == pytest.approx(2.0 * math.pi, rel=1e-11)

    def test_cone_n8_hand_computed(self):
        b = volume_bounds(cone_sections(), 8)
        # lower/upper sums of 3(1-z)^2 on an 8-slab grid, computed by hand
        assert b.lo == pytest.approx(0.8203125, rel=1e-11)
        assert b.hi == pytest.approx(1.1953125, rel=1e-11)
        assert b.lo <= 1.0 <= b.hi


class TestSoundnessAndRefinement:
    CLOSED_FORMS = [
        ("disk", disk_width, math.pi),
        ("sphere", sphere_sections, 4.0 * math.pi / 3.0),
        ("cone", cone_sections, 1.0),
        ("hoof", hoof_sections, 2.0 / 3.0),
    ]

    @pytest.mark.parametrize("name,factory,truth", CLOSED_FORMS)
    def test_enclosure_soundness_all_n(self, name, factory, truth):
        fn = factory()
        compute = volume_bounds if isinstance(fn, SectionFunction) else area_bounds
        for k in range(0, 15):
            b = compute(fn, 2**k)
            assert b.lo <= truth <= b.hi, f"{name} unsound at n=2^{k}"

    @pytest.mark.parametrize("name,factory,truth", CLOSED_FORMS)
    def test_doubling_never_loosens(self, name, factory, truth):
        fn = factory()
        compute = volume_bounds if isinstance(fn, SectionFunction) else area_bounds
        prev = compute(fn, 16)
        n = 32
        while n <= 16384:
            cur = compute(fn, n)
            slack = 1e-12 * max(abs(prev.hi), 1.0)  # documented inflation jitter
            assert cur.hi <= prev.hi + slack
            assert cur.lo >= prev.lo - slack
            assert cur.width <= prev.width + slack
            prev = cur
            n *= 2

    @pytest.mark.parametrize("name,factory,truth", CLOSED_FORMS)
    def test_width_obeys_tv_bound(self, name, factory, truth):
        fn = factory()
        compute = volume_bounds if isinstance(fn, SectionFunction) else area_bounds
        a, b_dom = fn.domain
        tv = fn.total_variation()
        for n in (1, 7, 64, 1000):
            bound = tv * (b_dom - a) / n
            assert compute(fn, n).width <= bound * INFLATION_SLACK + 1e-15


class TestRefineUntil:
    def test_disk_reaches_1e3(self):
        b = refine_until(disk_width(), 1e-3, 16384)
        assert b.width <= 1e-3
        assert b.lo <= math.pi <= b.hi
        assert b.slabs <= 16384

    def test_constant_exact_at_16(self):
        w = WidthFunction(
            lambda t: np.full_like(np.asarray(t, dtype=float), 2.0),
            domain=(0.0, 3.0),
            monotonicity=("decreasing",),
        )
        b = refine_until(w, 1e-6, 10**6)
        assert b.slabs == 16
        assert b.lo <= 6.0 <= b.hi

    def test_sphere_tolerance_1e4(self):
        b = refine_until(sphere_sections(), 1e-4, 10**6)
        truth = 4.0 * math.pi / 3.0
        assert b.lo <= truth <= b.hi
        assert b.width <= 1e-4

    def test_nested_intervals_on_the_way(self):
        fn = disk_width()
        refined = refine_until(fn, 1e-3, 16384)
        coarse = area_bounds(fn, 16)
        assert coarse.lo <= refined.lo and refined.hi <= coarse.hi

    def test_budget_exhaustion_carries_best(self):
        with pytest.raises(ToleranceNotReached) as err:
            refine_until(disk_width(), 1e-9, 64)
        best = err.value.best
        assert best is not None
        assert best.lo <= math.pi <= best.hi

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            refine_until(disk_width(), 0.0, 64)

    def test_n_max_past_the_slab_budget_raises_before_any_work(self):
        from indivisibles import cli, exhaustion

        calls = []

        def identity(t):
            calls.append(np.size(t))
            return np.asarray(t, dtype=float)

        w = WidthFunction(identity, domain=(0.0, 1.0), monotonicity=("increasing",))
        calls.clear()  # the declaration's own checks
        with pytest.raises(ValueError, match="n_max must be at most 67108864 slabs"):
            refine_until(w, 1e-30, 2**40)
        assert calls == []
        with pytest.raises(ValueError):
            refine_until(w, 1e-30, exhaustion.SLAB_BUDGET + 1)
        assert refine_until(w, 1.0, exhaustion.SLAB_BUDGET).slabs == 16
        assert exhaustion.SLAB_BUDGET == 2**26 and cli.SLICE_BUDGET["bounds"] == exhaustion.SLAB_BUDGET


def reference_refine(target, tol, n_max):
    """refine_until as plain doubling from 16: every level computed and
    intersected with the previous result."""
    method = target.enclosure_method
    best = None
    n = 16
    while n <= n_max:
        interval = _staircase_bounds(target, n, method)
        if best is not None:
            interval = MeasureInterval(max(interval.lo, best.lo), min(interval.hi, best.hi), interval.slabs, method)
        best = interval
        if best.width <= tol:
            return best
        n *= 2
    raise ToleranceNotReached("n_max reached", best)


def counted(f):
    """f with a tally of the profile points it evaluates, as (f, tally)."""
    tally = [0]

    def fn(t):
        tally[0] += np.size(t)
        return f.fn(t)

    return type(f)(fn, domain=f.domain, breakpoints=f.breakpoints, monotonicity=f.monotonicity), tally


def step_width(c):
    # 1 up to c, 0 after it: a jump at the declared breakpoint c
    return WidthFunction(
        lambda t: np.where(t <= c, 1.0, 0.0),
        domain=(0.0, 1.0),
        breakpoints=(c,),
        monotonicity=("decreasing", "decreasing"),
    )


TOLS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


class TestRefineJump:
    SHAPES = {
        "disk": disk_width,
        "sphere": sphere_sections,
        "cone": lambda r: cone_sections(3.0 * r * r, r),
        "hoof": lambda r: hoof_sections(r, r),
    }

    @pytest.mark.parametrize("r", [0.8, 1.0, 1.25])
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_same_interval_as_doubling(self, name, r):
        fn = self.SHAPES[name](r)
        for tol in TOLS:
            try:
                expected = reference_refine(fn, tol, 1 << 22)
            except ToleranceNotReached as err:
                with pytest.raises(ToleranceNotReached) as got:
                    refine_until(fn, tol, 1 << 22)
                assert got.value.best == err.best, tol
                continue
            got = refine_until(fn, tol, 1 << 22)
            assert (got.slabs, got.lo, got.hi) == (expected.slabs, expected.lo, expected.hi), tol

    @pytest.mark.parametrize(
        "factory,tol,n_max",
        [
            *((f, tol, n_max) for f in (disk_width, sphere_sections)
              for tol, n_max in ((1e-6, 1024), (1e-13, 1 << 16), (1e-3, 15))),
            # past about 9000 slabs the constant's enclosure widens with n, so
            # only the intersection keeps the 16-slab bounds
            pytest.param(lambda: WidthFunction(lambda t: 0.1, domain=(0.0, 3.0)), 1e-14, 1 << 16, id="constant"),
        ],
    )
    def test_same_best_when_n_max_is_reached(self, factory, tol, n_max):
        with pytest.raises(ToleranceNotReached) as expected:
            reference_refine(factory(), tol, n_max)
        with pytest.raises(ToleranceNotReached) as got:
            refine_until(factory(), tol, n_max)
        assert got.value.best == expected.value.best

    def test_step_just_below_the_midpoint_stops_at_16(self):
        # the a-priori bound TV * (b - a) / n would ask for 2^20 slabs here
        f, tally = counted(step_width(0.5 - 1e-9))
        got = refine_until(f, 1e-6, 1 << 24)
        assert got.slabs == 17  # 16 slabs, one split at the breakpoint
        assert got.lo <= 0.5 - 1e-9 <= got.hi
        assert tally[0] == 52  # 18 edges and 17 spot points per piece

    @pytest.mark.parametrize("c", [1.0 / 3.0, 0.7])
    def test_off_grid_step_is_certified_within_twice_the_points(self, c):
        for tol in TOLS:
            f, tally = counted(step_width(c))
            got = refine_until(f, tol, 1 << 24)
            assert got.width <= tol and got.lo <= c <= got.hi, tol
            g, reference_tally = counted(step_width(c))
            reference_refine(g, tol, 1 << 24)
            assert tally[0] <= 2 * reference_tally[0], tol

    def test_disk_evaluates_the_doublings_within_a_block_and_the_final_level(self):
        f, tally = counted(disk_width())
        got = refine_until(f, 1e-5, 1 << 24)
        assert got.slabs == 1 << 20
        g, expected = counted(disk_width())
        for n in [*(16 << k for k in range((_BLOCK // 16).bit_length())), got.slabs]:
            area_bounds(g, n)
        assert tally[0] == expected[0] <= 1.04 * (got.slabs + 1)

    @pytest.mark.parametrize("c", [0.5 + 2.0**-10 - 1e-12, 0.25 + 2.0**-12 - 1e-13])
    def test_step_resolved_within_a_block_matches_doubling(self, c):
        # the edge that lands just above c closes the gap at 2^10 (2^12)
        # slabs, long before the width at 16 slabs scaled by h would say
        f, tally = counted(step_width(c))
        got = refine_until(f, 1e-9, 1 << 24)
        g, reference_tally = counted(step_width(c))
        expected = reference_refine(g, 1e-9, 1 << 24)
        assert (got.slabs, got.lo, got.hi) == (expected.slabs, expected.lo, expected.hi)
        assert tally[0] == reference_tally[0]

    def test_jump_that_misses_falls_back_to_the_skipped_counts(self):
        # past one block the predicted count is n_max, whose rounding allowance
        # alone exceeds tol; plain doubling stops at 2^16 slabs, where the edge
        # 0.5 + 2^-16 lands just above c
        c, tol, n_max = 0.5 + 2.0**-16 - 1e-14, 2e-11, 1 << 20
        expected = reference_refine(step_width(c), tol, n_max)
        assert expected.slabs == (1 << 16) + 1
        got = refine_until(step_width(c), tol, n_max)
        assert got.width <= tol and got.lo <= c <= got.hi
        assert expected.lo <= got.lo and got.hi <= expected.hi


def reference_sums(f, n):
    """The staircase sums as one full-length pass: every edge, value and
    product held at once, reduced by one ordered_sum each."""
    a, b = f.domain
    edges = a + (b - a) * np.arange(n + 1, dtype=np.float64) / n
    edges[-1] = b
    extra = [t for t in f.breakpoints if not np.any(edges == t)]
    if extra:
        edges = np.sort(np.concatenate([edges, np.asarray(extra, dtype=np.float64)]))
    vals = np.asarray(f(edges), dtype=np.float64)
    left, right = vals[:-1], vals[1:]
    heights = np.diff(edges)
    return ordered_sum(np.minimum(left, right) * heights), ordered_sum(np.maximum(left, right) * heights), len(heights)


class TestStreamingStaircase:
    # a + (b - a) * n / n rounds away from b here, so the last edge is set to b
    DOMAIN = (-0.38, 0.95)

    def wavy(self, breakpoints):
        # not monotone, so both min and max pick from either side; the sums
        # themselves do not read the declared flags
        return WidthFunction(
            lambda t: 2.0 + np.sin(7.0 * t),
            domain=self.DOMAIN,
            breakpoints=breakpoints,
            monotonicity=("increasing",) * (len(breakpoints) + 1),
        )

    def grid(self, n, k):
        a, b = self.DOMAIN
        return a + (b - a) * k / n

    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5, 10**6])
    def test_sums_equal_the_full_array_pass(self, n):
        a, b = self.DOMAIN
        # inside the first block, off the grid
        inside = a + (b - a) * (min(n, _BLOCK) * 0.37 + 0.21) / n
        # an odd edge of the 2n grid, in the last block
        half = self.grid(2 * n, 2 * n - 1)
        cases = [(), (inside,), tuple(sorted({inside, half}))]
        if n > 2:
            # an interior edge of the grid is not inserted twice
            cases.append(tuple(sorted({inside, self.grid(n, n // 2), half})))
        if n > _BLOCK:
            # on the boundary between the first two blocks, hence already an edge
            cases.append(tuple(sorted({inside, self.grid(n, _BLOCK), half})))
        for bps in cases:
            f = self.wavy(bps)
            assert _staircase_sums(f, n) == reference_sums(f, n), (n, bps)

    def test_each_edge_is_evaluated_once(self):
        seen = []

        def counting(t):
            seen.append(t.size)
            return 1.0 + t * t

        n = 3 * _BLOCK + 5
        f = WidthFunction(counting, domain=(0.0, 2.0), breakpoints=(1.0 / 3.0,), monotonicity=("increasing",) * 2)
        _, _, slabs = _staircase_sums(f, n)
        assert slabs == n + 1
        assert sum(seen) == slabs + 1
        assert len(seen) == 4

    def rise_then_fall(self, n):
        """A profile that peaks on the n-slab grid, at edge n // 2, with a
        second breakpoint off the grid, halfway between two edges past it;
        with one slab the peak is that off-grid breakpoint alone."""
        off = self.grid(2 * n, 2 * (n - n // 4) - 1)
        if n == 1:
            peak, bps = off, (off,)
        else:
            peak = self.grid(n, n // 2)
            bps = (peak, off)
        return WidthFunction(
            lambda t: 2.0 - (t - peak) ** 2,
            domain=self.DOMAIN,
            breakpoints=bps,
            monotonicity=("increasing",) + ("decreasing",) * len(bps),
        )

    @pytest.mark.parametrize("n", [1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 1])
    def test_paired_sums_equal_one_chain_per_sum(self, n):
        # each block's lower and upper products reduced by one single-column
        # ordered_sum each, chained from block to block
        f = self.rise_then_fall(n)
        lo = hi = 0.0
        slabs = 0
        for edges, lower, upper in _staircase_blocks(f, n):
            widths = np.diff(edges)
            lo = ordered_sum(lower * widths, lo)
            hi = ordered_sum(upper * widths, hi)
            slabs += len(widths)
        assert _staircase_sums(f, n) == (lo, hi, slabs)

    @pytest.mark.parametrize("n", [1, 2, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 1])
    def test_each_block_is_two_kernel_calls_of_at_most_a_block(self, n, monkeypatch):
        # the benchmark counts the staircase's steps and values from these calls
        sizes = []

        def counting(values, init=0.0, run=None):
            sizes.append(np.size(values))
            return ordered_sum(values, init, run)

        monkeypatch.setattr(exhaustion, "ordered_sum", counting)
        f = self.rise_then_fall(n)
        _, _, slabs = _staircase_sums(f, n)
        inserted = slabs - n
        assert len(sizes) == 2 * -(-n // _BLOCK)
        assert sum(sizes) == 2 * slabs
        # a call sums whole (lower, upper) pairs, so its bound is rounded up to even
        assert max(sizes) <= _BLOCK + inserted + inserted % 2

    def test_negative_value_between_spot_points_rejected(self):
        # negative only near t = 0.3, which none of the 17 spot points hits
        dip = WidthFunction(lambda t: np.where(np.abs(t - 0.3) < 1e-3, -1.0, 1.0), domain=(0.0, 1.0))
        with pytest.raises(InvalidMonotonicity):
            area_bounds(dip, 10)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: area_bounds(disk_width(), 2**22),
            lambda: refine_until(sphere_sections(), 1e-5, 1 << 24),
        ],
        ids=["area_bounds-2^22", "refine_until-sphere-1e-5"],
    )
    def test_memory_stays_bounded(self, run):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def allocating_staircase_blocks(f, n):
    """The staircase blocks as each block once allocated them: fresh edges,
    values and heights per block, the carried value joined on by
    concatenation.  The reference that the buffered blocks match bit for bit."""
    a, b = f.domain
    last = None
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        edges = a + (b - a) * np.arange(s, e + 1, dtype=np.float64) / n
        if e == n:
            edges[-1] = b
        inside = [t for t in f.breakpoints if edges[0] < t < edges[-1] and not np.any(edges == t)]
        if inside:
            edges = np.sort(np.concatenate([edges, inside]))
        vals = f(edges) if last is None else np.concatenate(([last], f(edges[1:])))
        if np.any(vals < 0.0):
            raise InvalidMonotonicity(f"profile is negative on [{edges[0]}, {edges[-1]}]")
        last = vals[-1]
        yield edges, np.minimum(vals[:-1], vals[1:]), np.maximum(vals[:-1], vals[1:])


def allocating_staircase_sums(f, n):
    """The sums over ``allocating_staircase_blocks``, with fresh widths per block."""
    run = np.empty(((min(n, _BLOCK) + len(f.breakpoints)) // 2 + 2, 2))
    sums = 0.0
    slabs = 0
    for edges, lower, upper in allocating_staircase_blocks(f, n):
        widths = np.diff(edges)
        m = len(widths)
        for half in (slice(0, m - m // 2), slice(m - m // 2, m)):
            k = half.stop - half.start
            np.multiply(lower[half], widths[half], out=run[1 : k + 1, 0])
            np.multiply(upper[half], widths[half], out=run[1 : k + 1, 1])
            sums = ordered_sum(run[1 : k + 1], sums, run)
        slabs += m
    return float(sums[0]), float(sums[1]), slabs


def outcome(run):
    """``run()``'s result, or the type and message of what it raised."""
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


class TestBufferedStaircase:
    """The staircase refills buffers made once per call; every bit, slab count
    and error is that of the loop that allocated each block afresh."""

    DOMAIN = (-0.38, 0.95)
    COUNTS = [1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 1, 10**6]

    def grid(self, n, k):
        a, b = self.DOMAIN
        return a + (b - a) * k / n

    def bounds_both_ways(self, f, n, monkeypatch):
        got = outcome(lambda: area_bounds(f, n))
        with monkeypatch.context() as m:
            m.setattr(exhaustion, "_staircase_sums", allocating_staircase_sums)
            want = outcome(lambda: area_bounds(f, n))
        return got, want

    @pytest.mark.parametrize("n", COUNTS)
    def test_sums_and_slabs_equal_the_allocating_loop(self, n):
        wavy = lambda t: 2.0 + np.sin(7.0 * t)  # noqa: E731
        # off the grid in the first block; an edge of the grid; off the grid in the last block
        off_first = self.grid(n, min(n, _BLOCK) * 0.37 + 0.21)
        cases = [(), (off_first,), (off_first, self.grid(2 * n, 2 * n - 1))]
        if n > 2:
            cases.append((off_first, self.grid(n, n // 2), self.grid(2 * n, 2 * n - 1)))
        for bps in cases:
            bps = tuple(sorted(set(bps)))
            f = WidthFunction(wavy, domain=self.DOMAIN, breakpoints=bps, monotonicity=("increasing",) * (len(bps) + 1))
            assert _staircase_sums(f, n) == allocating_staircase_sums(f, n), (n, bps)

    @pytest.mark.parametrize("n", COUNTS)
    def test_profile_returning_its_own_argument(self, n, monkeypatch):
        # the values are then the edge buffer itself
        f = WidthFunction(lambda t: t, domain=(0.25, 1.5))
        assert _staircase_sums(f, n) == allocating_staircase_sums(f, n)
        got, want = self.bounds_both_ways(f, n, monkeypatch)
        assert isinstance(got, MeasureInterval) and got == want

    @pytest.mark.parametrize("n", [_BLOCK + 1, 3 * _BLOCK + 1])
    def test_nan_at_a_block_edge_raises_the_same_error(self, n, monkeypatch):
        edge = self.grid(n, _BLOCK)  # closes the first block and opens the second
        f = WidthFunction(lambda t: np.where(t == edge, np.nan, 1.0 + t), domain=self.DOMAIN)
        got, want = self.bounds_both_ways(f, n, monkeypatch)
        assert got == want == (GeometryError, "the enclosure is not finite at these dimensions")

    @pytest.mark.parametrize("n", [_BLOCK + 7, 3 * _BLOCK + 1])
    def test_negative_value_in_the_second_block_raises_the_same_error(self, n, monkeypatch):
        # negative at one edge of the second block only, which no spot point hits
        edge = self.grid(n, _BLOCK + 5)
        f = WidthFunction(lambda t: np.where(t == edge, -1.0, 1.0 + t), domain=self.DOMAIN)
        got, want = self.bounds_both_ways(f, n, monkeypatch)
        assert got == want
        assert got[0] is InvalidMonotonicity and got[1].startswith(f"profile is negative on [{self.grid(n, _BLOCK)}, ")

    def test_consecutive_blocks_hand_the_profile_views_of_one_buffer(self):
        seen = []

        def keeping(t):
            seen.append(t)  # kept uncopied on purpose, to see the buffer
            return 1.0 + t

        n = 3 * _BLOCK + 1
        blocks = [edges for edges, _, _ in _staircase_blocks(WidthFunction(keeping), n)]
        assert len(seen) == len(blocks) == 4
        for earlier, later in zip(seen, seen[1:]):
            assert np.shares_memory(earlier, later)
        for earlier, later in zip(blocks, blocks[1:]):
            assert np.shares_memory(earlier, later)


class TestRoundingBound:
    @pytest.mark.parametrize(
        "b,c,n",
        [(1.0, 0.1, 10**7), (1e6, 0.1, 10**7), (3.0, 0.7, 2**23), (7.0, 0.3, 10**7)],
    )
    def test_constant_width_enclosed_at_large_n(self, b, c, n):
        # a fixed relative 1e-12 widening missed b*c here
        w = WidthFunction(lambda t: np.full_like(t, c), domain=(0.0, b))
        interval = area_bounds(w, n)
        assert interval.lo <= b * c <= interval.hi

    @pytest.mark.parametrize("slabs", [1, 4096, 9000])
    def test_small_slab_counts_keep_the_relative_widening(self, slabs):
        lo, hi = 0.7, 1.3
        assert _widen(lo, hi, slabs) == (lo - lo * _INFLATION, hi + hi * _INFLATION)

    @pytest.mark.parametrize("slabs", [9100, 10**7, 2**40])
    def test_large_slab_counts_widen_further(self, slabs):
        lo, hi = 0.7, 1.3
        wlo, whi = _widen(lo, hi, slabs)
        rel = slabs * 2.0**-53
        assert wlo < lo - lo * max(rel, _INFLATION)
        assert whi > hi + hi * max(rel, _INFLATION)

    @pytest.mark.parametrize(
        "c,n", [(1e-310, 1000), (3e-318, 16), (3e-318, 1000), (3e-318, 2**15), (1.5e-323, 1000)]
    )
    def test_constant_width_of_subnormal_size_enclosed(self, c, n):
        # each product c*h rounds with an absolute error of up to 2^-1075, which
        # no relative widening covers; float comparisons here are exact
        interval = area_bounds(WidthFunction(lambda t: c, domain=(0.0, 1.0)), n)
        assert interval.lo <= c <= interval.hi

    def test_disk_of_subnormal_area_enclosed(self):
        disk = Disk(Point2(0.0, 0.0), 1e-160)
        assert area(disk) in area_bounds(disk.section(), 1000)

    def test_sum_that_overflows_raises(self):
        w = WidthFunction(lambda t: 1e308, domain=(0.0, 4.0))
        with pytest.raises(GeometryError, match="^the enclosure is not finite at these dimensions$"):
            area_bounds(w, 4)
