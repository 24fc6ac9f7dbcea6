"""Independent brute-force estimators: Monte Carlo membership sampling,
midpoint Riemann sums and boundary quadrature.

Sampling is counter-based: the i-th sample is a pure function of (seed, i),
so estimates are reproducible bit for bit regardless of chunking, and the
fixed-order reductions keep every result deterministic.  Membership
predicates and integrands must be numpy-vectorized (arrays in, array out).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import ordered_sum, uniform01
from .errors import DegenerateCurve, EmptyBox
from .geometry import CircleArc, Curve, Polyline

# Samples (or cells) per chunk: at 2^14 the chunk's coordinates, membership
# mask and midpoints stay in cache.  A chunk's coordinates come from the stream
# as one contiguous row per axis (sample i, axis d is stream value i*dims + d)
# and are mapped into the box in place, so predicates get contiguous arrays.
# Chunking moves no bit of any result: the stream is indexed by sample, hits
# are counted exactly, and ordered_sum chains its running value from chunk to
# chunk.
_CHUNK = 1 << 14


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate with its standard error.

    stderr is the sample standard deviation over sqrt(samples); for a single
    sample it is reported as 0 (no spread information).
    """

    mean: float
    stderr: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if self.stderr < 0.0:
            raise ValueError("standard error cannot be negative")


def _check_box(bounds):
    if not bounds:
        raise EmptyBox("box needs at least one side")
    for lo, hi in bounds:
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
            raise EmptyBox(f"box side [{lo!r}, {hi!r}] has nonpositive extent")


def _indicator_estimate(hits: int, samples: int, box_measure: float, seed: int) -> Estimate:
    mean = box_measure * hits / samples
    if samples > 1:
        # sample variance of box_measure * {0,1} values, from the counts alone
        var = box_measure**2 * hits * (samples - hits) / (samples * (samples - 1))
        stderr = math.sqrt(var) / math.sqrt(samples)
    else:
        stderr = 0.0
    return Estimate(mean=mean, stderr=stderr, samples=samples, seed=seed)


def _mc_membership(membership, bounds, samples: int, seed: int) -> Estimate:
    _check_box(bounds)
    if samples < 1:
        raise ValueError("need at least one sample")
    dims = len(bounds)
    lows = np.array([lo for lo, _ in bounds])
    spans = np.array([hi - lo for lo, hi in bounds])
    box_measure = float(np.prod(spans))
    hits = 0
    done = 0
    while done < samples:
        m = min(_CHUNK, samples - done)
        coords = uniform01(seed, done * dims, m, dims).reshape(dims, m)
        coords *= spans[:, None]
        coords += lows[:, None]
        inside = membership(*coords)
        if np.shape(inside) != (m,):
            raise ValueError(
                f"membership must return one value per sample: expected shape {(m,)}, "
                f"got {np.shape(inside)}"
            )
        hits += int(np.count_nonzero(inside))
        done += m
    return _indicator_estimate(hits, samples, box_measure, seed)


def mc_area(membership, bbox, samples: int, seed: int = 42) -> Estimate:
    """Monte Carlo area of {membership} inside bbox ((xlo, xhi), (ylo, yhi)).

    ``membership(xs, ys)`` receives coordinate arrays and returns a boolean
    array; the box must contain the region.
    """
    return _mc_membership(membership, tuple(bbox), samples, seed)


def mc_volume(membership, bbox3, samples: int, seed: int = 42) -> Estimate:
    """Monte Carlo volume; 3D analogue of mc_area with membership(xs, ys, zs)."""
    return _mc_membership(membership, tuple(bbox3), samples, seed)


def _midpoint_sum(values_at, n: int, total: float = 0.0) -> float:
    """``ordered_sum`` of ``values_at(k + 0.5)`` over k = 0 .. n-1, chained from
    ``total`` through pieces of ``_CHUNK`` cells."""
    for done in range(0, n, _CHUNK):
        mids = np.arange(done, min(done + _CHUNK, n), dtype=np.float64) + 0.5
        total = ordered_sum(values_at(mids), total)
    return total


def riemann_volume(section, n: int) -> float:
    """Midpoint Riemann sum of a cross-section profile over its domain.

    Deliberately distinct from the certified staircase bounds: this is the
    plain midpoint rule, used as an independent cross-check.
    """
    if n < 1:
        raise ValueError("need at least one cell")
    a, b = section.domain
    h = (b - a) / n
    return _midpoint_sum(lambda k: np.asarray(section(a + k * h), dtype=np.float64), n) * h


def boundary_integral(curve: Curve, integrand, n: int) -> float:
    """Composite midpoint rule for an arclength integral along a curve.

    ``integrand(xs, ys)`` is vectorized; n is the subdivision count per
    segment (polyline edge) or per arc.
    """
    if n < 1:
        raise ValueError("need at least one subdivision")
    if isinstance(curve, Polyline):
        total = 0.0
        any_length = False
        for p, q in curve.edges():
            seg = math.hypot(q.x - p.x, q.y - p.y)
            if seg == 0.0:
                continue
            any_length = True

            def values_at(k):
                ts = k / n
                xs = p.x + (q.x - p.x) * ts
                ys = p.y + (q.y - p.y) * ts
                return np.asarray(integrand(xs, ys), dtype=np.float64) * (seg / n)

            total = _midpoint_sum(values_at, n, total)
        if not any_length:
            raise DegenerateCurve("curve has zero length")
        return total
    if isinstance(curve, CircleArc):
        ds = curve.radius * curve.span / n

        def values_at(k):
            thetas = curve.start_angle + curve.span * k / n
            xs = curve.center.x + curve.radius * np.cos(thetas)
            ys = curve.center.y + curve.radius * np.sin(thetas)
            return np.asarray(integrand(xs, ys), dtype=np.float64) * ds

        return _midpoint_sum(values_at, n)
    raise TypeError(f"unknown curve kind {type(curve).__name__}")
