"""Certified inner/outer enclosures of areas and volumes by slab sums.

A piecewise-monotone profile is bracketed between the lower and the upper
staircase read off at slab endpoints.  Declared breakpoints always become slab
boundaries so every slab is genuinely monotone, which makes the enclosure
sound and gives the total-variation width bound TV(f) * (b - a) / n.

Floats: the slab sums are reduced strictly sequentially in slab order (so the
result is independent of any evaluation parallelism) and the final bounds are
widened outward by a relative 1e-12 to absorb rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import ordered_sum
from .errors import InvalidMonotonicity, ToleranceNotReached
from .geometry import SectionFunction, WidthFunction

METHOD_AREA = "inner-outer-rectangles"
METHOD_VOLUME = "inner-outer-disks"

_INFLATION = 1e-12
_MONOTONE_SAMPLES = 17


@dataclass(frozen=True)
class MeasureInterval:
    """Certified enclosure [lo, hi] of a nonnegative measure."""

    lo: float
    hi: float
    slabs: int
    method: str

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("interval bounds must be finite")
        if self.lo > self.hi:
            raise ValueError("interval must satisfy lo <= hi")
        if self.lo < 0.0:
            raise ValueError("nonnegative measures need lo >= 0")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __contains__(self, value: float) -> bool:
        return self.lo <= value <= self.hi


def _check_declared_shape(f: WidthFunction):
    """Spot-check monotonicity flags and nonnegativity on each piece."""
    for t0, t1, flag in f.pieces():
        ts = np.linspace(t0, t1, _MONOTONE_SAMPLES)
        vals = np.asarray(f(ts), dtype=np.float64)
        if np.any(vals < 0.0):
            raise InvalidMonotonicity(f"profile is negative on [{t0}, {t1}]")
        diffs = np.diff(vals)
        scale = max(float(np.max(np.abs(vals))), 1.0)
        slack = 1e-12 * scale
        if flag == "increasing" and np.any(diffs < -slack):
            raise InvalidMonotonicity(f"piece [{t0}, {t1}] declared increasing but decreases")
        if flag == "decreasing" and np.any(diffs > slack):
            raise InvalidMonotonicity(f"piece [{t0}, {t1}] declared decreasing but increases")


def _slab_edges(f: WidthFunction, n: int) -> np.ndarray:
    """Uniform n-slab grid over the domain with breakpoints inserted."""
    a, b = f.domain
    edges = a + (b - a) * np.arange(n + 1, dtype=np.float64) / n
    edges[-1] = b
    if f.breakpoints:
        extra = [t for t in f.breakpoints if not np.any(edges == t)]
        if extra:
            edges = np.sort(np.concatenate([edges, np.asarray(extra, dtype=np.float64)]))
    return edges


def _staircase_bounds(f: WidthFunction, n: int, method: str) -> MeasureInterval:
    if n < 1:
        raise ValueError("slab count must be positive")
    _check_declared_shape(f)
    edges = _slab_edges(f, n)
    vals = np.asarray(f(edges), dtype=np.float64)
    left, right = vals[:-1], vals[1:]
    low = np.minimum(left, right)
    high = np.maximum(left, right)
    heights = np.diff(edges)
    lo = ordered_sum(low * heights)
    hi = ordered_sum(high * heights)
    # widen outward so rounding in the sums cannot break soundness
    lo = max(lo - abs(lo) * _INFLATION, 0.0)
    hi = hi + abs(hi) * _INFLATION
    return MeasureInterval(lo, hi, slabs=len(heights), method=method)


def area_bounds(width: WidthFunction, n: int) -> MeasureInterval:
    """Enclose the area under a width profile between n-slab staircases."""
    return _staircase_bounds(width, n, METHOD_AREA)


def volume_bounds(section: SectionFunction, n: int) -> MeasureInterval:
    """Enclose a solid volume between staircases of its section areas."""
    return _staircase_bounds(section, n, METHOD_VOLUME)


def refine_until(target: WidthFunction, tol: float, n_max: int) -> MeasureInterval:
    """Double the slab count from 16 until the enclosure width reaches tol.

    Successive enclosures are intersected, so each returned interval is
    contained in every coarser one.  Raises ToleranceNotReached (carrying the
    best interval) when n_max is exceeded first.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    method = METHOD_VOLUME if isinstance(target, SectionFunction) else METHOD_AREA
    best = None
    n = 16
    while n <= n_max:
        interval = _staircase_bounds(target, n, method)
        if best is not None:
            interval = MeasureInterval(
                max(interval.lo, best.lo), min(interval.hi, best.hi), interval.slabs, method
            )
        best = interval
        if best.width <= tol:
            return best
        n *= 2
    if best is not None and best.width <= tol:
        return best
    raise ToleranceNotReached(
        f"width {best.width if best else float('inf')!r} > tol {tol!r} at n_max {n_max}", best
    )
