"""Certified inner/outer enclosures of areas and volumes by slab sums.

A piecewise-monotone profile is bracketed between the lower and the upper
staircase read off at slab endpoints.  Declared breakpoints always become slab
boundaries so every slab is genuinely monotone, which makes the enclosure
sound and gives the total-variation width bound TV(f) * (b - a) / n.

The staircase is one streaming pass over blocks of ``_kernels._BLOCK`` (2^14)
slabs: each block computes its own edges, evaluates the profile at the edges
it has not seen (its first edge closed the previous block), and chains its
lower and upper products into two running ``ordered_sum`` values.  Edges and
products are elementwise and ``ordered_sum`` chains bit for bit, so the sums
equal those of one full-length pass while memory stays bounded at any n.

Floats: the slab sums are reduced strictly sequentially in slab order (so the
result is independent of any evaluation parallelism).  Each of the m terms
fl(fl(t[i+1] - t[i]) * v) carries two roundings and the sequential sum m - 1
more, and every term is nonnegative (edges increase, and every profile value
read is checked to be nonnegative), so the computed sum s of the exact
staircase sum S satisfies |s - S| <= gamma(m+1) * S, with
gamma(k) = k*u / (1 - k*u) and u = 2^-53 (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., sections 3.1 and 4.2).  Since
S <= s / (1 - gamma(m+1)), S lies within s * gamma(m+1) / (1 - gamma(m+1))
of s.  Each bound is widened outward by that amount, or by a relative 1e-12
where that is larger by a margin that covers the widening's own rounding
(up to about 9000 slabs); when the rounding bound is used, the result is also
stepped one ulp outward.  A product of subnormal size rounds with an absolute
error of up to 2^-1075 that no relative bound covers, so each bound is also
widened by slabs * 2^-1074; above the subnormal range that term is absorbed in
the rounding and changes no bound.  A sum that is not finite raises
GeometryError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _BLOCK, ordered_sum
from .errors import GeometryError, InvalidMonotonicity, ToleranceNotReached
from .geometry import SectionFunction, WidthFunction

_INFLATION = 1e-12
_UNIT_ROUNDOFF = 2.0**-53
_SUBNORMAL_STEP = 2.0**-1074
_MONOTONE_SAMPLES = 17

# The most slabs refine_until may reach (n_max) and the CLI's bounds may take:
# 2^26 slabs are about two seconds of staircase.
SLAB_BUDGET = 2**26


@dataclass(frozen=True)
class MeasureInterval:
    """Certified enclosure [lo, hi] of a nonnegative measure.

    ``lo`` and ``hi`` are the computed lower and upper staircase sums over
    ``slabs`` slabs, each widened outward by the larger of a relative 1e-12
    and the rounding bound gamma(m+1) / (1 - gamma(m+1)) for m slabs, plus
    m * 2^-1074 for products of subnormal size (see the module docstring), so
    the exact staircase sums lie inside [lo, hi] at any slab count.  The
    measure itself lies inside provided the profile is evaluated exactly and
    its declared monotonicity holds.
    """

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
        vals = f(ts)
        if np.any(vals < 0.0):
            raise InvalidMonotonicity(f"profile is negative on [{t0}, {t1}]")
        diffs = np.diff(vals)
        slack = 1e-12 * float(np.max(np.abs(vals)))
        if flag == "increasing" and np.any(diffs < -slack):
            raise InvalidMonotonicity(f"piece [{t0}, {t1}] declared increasing but decreases")
        if flag == "decreasing" and np.any(diffs > slack):
            raise InvalidMonotonicity(f"piece [{t0}, {t1}] declared decreasing but increases")


def _block_edges(f: WidthFunction, n: int, s: int, e: int) -> np.ndarray:
    """Edges s..e of the uniform n-slab grid over f's domain, with edge n set
    to b and each declared breakpoint strictly between edges s and e that is
    not already an edge inserted in order."""
    a, b = f.domain
    edges = a + (b - a) * np.arange(s, e + 1, dtype=np.float64) / n
    if e == n:
        edges[-1] = b
    inside = [t for t in f.breakpoints if edges[0] < t < edges[-1] and not np.any(edges == t)]
    if inside:
        edges = np.sort(np.concatenate([edges, inside]))
    return edges


def _widen(lo: float, hi: float, slabs: int) -> tuple[float, float]:
    """Bounds that contain the exact sums of which lo and hi are the computed ones."""
    k = slabs + 1
    rel = k * _UNIT_ROUNDOFF / (1.0 - 2.0 * k * _UNIT_ROUNDOFF)  # gamma(k) / (1 - gamma(k))
    tiny = slabs * _SUBNORMAL_STEP  # the products' underflow, exact for any slab count below 2^53
    if rel + 2.0 * _UNIT_ROUNDOFF <= _INFLATION:
        return max(lo - abs(lo) * _INFLATION - tiny, 0.0), hi + abs(hi) * _INFLATION + tiny
    return (
        max(math.nextafter(lo - lo * rel - tiny, -math.inf), 0.0),
        math.nextafter(hi + hi * rel + tiny, math.inf),
    )


def _staircase_blocks(f: WidthFunction, n: int):
    """The n-slab staircase, one block of ``_BLOCK`` slabs at a time: each
    block's edges and the lower and upper heights of its slabs, the lesser and
    the greater profile value at their two edges.  Each edge is evaluated once;
    a negative value raises InvalidMonotonicity."""
    last = None
    for s in range(0, n, _BLOCK):
        edges = _block_edges(f, n, s, min(s + _BLOCK, n))
        # edge s closed the previous block, so its value is carried over
        vals = f(edges) if last is None else np.concatenate(([last], f(edges[1:])))
        if np.any(vals < 0.0):
            raise InvalidMonotonicity(f"profile is negative on [{edges[0]}, {edges[-1]}]")
        last = vals[-1]
        yield edges, np.minimum(vals[:-1], vals[1:]), np.maximum(vals[:-1], vals[1:])


def _staircase_sums(f: WidthFunction, n: int) -> tuple[float, float, int]:
    """Computed lower and upper staircase sums over the n-slab grid, and its slab count."""
    lo = hi = 0.0
    slabs = 0
    for edges, lower, upper in _staircase_blocks(f, n):
        widths = np.diff(edges)
        lo = ordered_sum(np.multiply(lower, widths, out=lower), lo)
        hi = ordered_sum(np.multiply(upper, widths, out=upper), hi)
        slabs += len(widths)
    return lo, hi, slabs


def _staircase_bounds(f: WidthFunction, n: int, method: str) -> MeasureInterval:
    if n < 1:
        raise ValueError("slab count must be positive")
    _check_declared_shape(f)
    lo, hi, slabs = _staircase_sums(f, n)
    lo, hi = _widen(lo, hi, slabs)
    if not math.isfinite(hi):  # a lo that is not finite comes with such a hi
        raise GeometryError("the enclosure is not finite at these dimensions")
    return MeasureInterval(lo, hi, slabs=slabs, method=method)


def area_bounds(width: WidthFunction, n: int) -> MeasureInterval:
    """Enclose the area under a width profile between n-slab staircases."""
    return _staircase_bounds(width, n, WidthFunction.enclosure_method)


def volume_bounds(section: SectionFunction, n: int) -> MeasureInterval:
    """Enclose a solid volume between staircases of its section areas."""
    return _staircase_bounds(section, n, SectionFunction.enclosure_method)


def _doublings(lo: int, hi: int):
    """The slab counts lo, 2*lo, 4*lo, ... up to hi."""
    n = lo
    while n <= hi:
        yield n
        n *= 2


def refine_until(target: WidthFunction, tol: float, n_max: int) -> MeasureInterval:
    """Refine the slab count from 16 until the enclosure width reaches tol.

    Each computed enclosure is intersected with the previous result, so the
    returned interval has width <= tol and lies inside every enclosure
    computed on the way, the 16-slab one included; its ``slabs`` is the
    largest slab count computed.  Only that running interval is kept between
    slab counts, so memory stays that of one streaming staircase.

    Up to one streaming block (``_kernels._BLOCK`` slabs) the slab count
    doubles from 16, as plain doubling does.  Past it the levels in between
    together would cost as much as the last, so the next count is predicted
    instead.  The staircase width over slabs of width h is the sum of h*|df|
    over the slabs, about h*TV(f); so the width at one block is scaled by h,
    and the rounding allowance at the target count (see the module
    docstring) is added.  The jump goes to the first doubling whose
    prediction meets tol or, when none within n_max does, to the one where
    the prediction stops falling; from there n doubles while tol is missed.

    The prediction assumes that the width shrinks in proportion to h, as it
    does for a continuous piecewise-monotone profile, and then lands on the
    slab count plain doubling stops at.  A jump discontinuity at a breakpoint
    breaks that assumption: there the width is the distance from the
    breakpoint to the next edge, which a finer grid can shrink to almost
    nothing.  Then a jump can use more slabs than plain doubling, or miss tol
    at every count up to n_max; in that case the skipped counts are computed
    in turn before giving up, so refine_until never raises where plain
    doubling would return.  Raises ToleranceNotReached (carrying the
    intersection of all computed enclosures, or None when n_max < 16) when
    no slab count up to n_max reaches tol.  An n_max above ``SLAB_BUDGET``
    (2^26) raises ValueError before any work.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if n_max > SLAB_BUDGET:
        raise ValueError(f"n_max must be at most {SLAB_BUDGET} slabs")
    method = target.enclosure_method
    best = None

    def predicted(n):
        lo, hi = _widen(best.lo, best.hi, n)
        return best.width * _BLOCK / n + (hi - lo - best.width)

    def slab_counts():
        yield from _doublings(16, min(_BLOCK, n_max))
        if 2 * _BLOCK > n_max:
            return
        jump = 2 * _BLOCK
        while predicted(jump) > tol and 2 * jump <= n_max and predicted(2 * jump) < predicted(jump):
            jump *= 2
        yield from _doublings(jump, n_max)
        yield from _doublings(2 * _BLOCK, jump // 2)  # reached only when no count from jump on meets tol

    for n in slab_counts():
        finer = _staircase_bounds(target, n, method)
        if best is not None:
            finer = MeasureInterval(
                max(finer.lo, best.lo), min(finer.hi, best.hi), max(finer.slabs, best.slabs), method
            )
        best = finer
        if best.width <= tol:
            return best
    raise ToleranceNotReached(
        f"width {best.width if best else float('inf')!r} > tol {tol!r} at n_max {n_max}", best
    )
