"""Independent brute-force estimators: Monte Carlo membership sampling,
midpoint Riemann sums and boundary quadrature.

Sampling is counter-based: the i-th sample is a pure function of (seed, i),
so estimates are reproducible bit for bit regardless of chunking or of the
threads that count the chunks, and the fixed-order reductions keep every
result deterministic.  Membership predicates and integrands must be
numpy-vectorized (arrays in, array out); membership predicates must also be
safe to call from several threads at once.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

# Monte Carlo chunks and midpoint pieces stream in _BLOCK (2^14) samples or
# cells, so a chunk's coordinates, membership mask and midpoints stay in cache.
from ._kernels import _BLOCK, StreamBuffers, ordered_sum, uniform01
from .errors import DegenerateCurve, EmptyBox
from .geometry import CircleArc, Curve, Polyline



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
    """Check the box ``bounds`` and give its lower corner, side lengths and measure.

    Raises ``EmptyBox`` when the box has no side, when a side is not finite
    or has nonpositive extent, or when the product of the sides is not finite
    or underflows to 0.
    """
    if not bounds:
        raise EmptyBox("box needs at least one side")
    for lo, hi in bounds:
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
            raise EmptyBox(f"box side [{lo!r}, {hi!r}] has nonpositive extent")
    # float64 even for integer sides, whose int64 product would wrap
    lows = np.array([lo for lo, _ in bounds], dtype=np.float64)
    spans = np.array([hi - lo for lo, hi in bounds], dtype=np.float64)
    with np.errstate(over="ignore"):
        measure = float(np.prod(spans))
    if not math.isfinite(measure):
        raise EmptyBox(f"the measure of the box {tuple(bounds)!r} is not finite at these dimensions")
    if measure == 0.0:
        raise EmptyBox(f"the measure of the box {tuple(bounds)!r} underflows to 0 at these dimensions")
    return lows, spans, measure


def _indicator_estimate(hits: int, samples: int, box_measure: float, seed: int) -> Estimate:
    # Work on the box measure scaled into [0.5, 1) by an exact power of two, so
    # neither its square nor its product with the counts can overflow or
    # underflow.  Scaling back is exact, so wherever the unscaled formula (with
    # the square taken by multiplication) stays normal and finite this gives
    # its result bit for bit.
    scaled, exponent = math.frexp(box_measure)
    mean = scaled * hits / samples
    if samples > 1:
        # sample variance of scaled * {0,1} values, from the counts alone
        var = scaled * scaled * hits * (samples - hits) / (samples * (samples - 1))
        stderr = math.sqrt(var) / math.sqrt(samples)
    else:
        stderr = 0.0
    return Estimate(
        mean=math.ldexp(mean, exponent), stderr=math.ldexp(stderr, exponent), samples=samples, seed=seed
    )


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _mc_membership(membership, bounds, samples: int, seed: int) -> Estimate:
    lows, spans, box_measure = _check_box(bounds)
    if samples < 1:
        raise ValueError("need at least one sample")
    dims = len(bounds)
    lows, spans = lows[:, None], spans[:, None]
    # The chunks split into one contiguous run per worker: the caller counts
    # run 0 and a thread each of the others.  numpy releases the GIL inside
    # the stream's and most predicates' ufuncs, so the runs overlap, and the
    # hit count is an integer, so the order in which runs finish changes no
    # bit of the estimate.
    chunks = -(-samples // _BLOCK)
    workers = min(_cpu_count(), chunks)
    edges = [chunks * w // workers for w in range(workers + 1)]
    hits = [0] * workers
    # The lowest chunk that failed and its exception.  That chunk's exception
    # is the one a sequential loop would raise; a worker past it stops, one
    # below it goes on, since it may still fail earlier.
    failure = [chunks, None]
    lock = threading.Lock()

    def count(w):
        buffers = StreamBuffers(dims, min(_BLOCK, samples))
        for chunk in range(edges[w], edges[w + 1]):
            if chunk > failure[0]:
                return
            try:
                done = chunk * _BLOCK
                m = min(_BLOCK, samples - done)
                coords = uniform01(seed, done * dims, m, dims, buffers=buffers).reshape(dims, m)
                coords *= spans
                coords += lows
                inside = membership(*coords)
                if np.shape(inside) != (m,):
                    raise ValueError(
                        f"membership must return one value per sample: expected shape {(m,)}, "
                        f"got {np.shape(inside)}"
                    )
                hits[w] += int(np.count_nonzero(inside))
            except BaseException as exc:  # raised in the caller once every worker is joined
                with lock:
                    if chunk < failure[0]:
                        failure[:] = chunk, exc
                return

    threads = []
    try:
        for w in range(1, workers):
            # a copy of the caller's context, so that its np.errstate holds in the thread
            thread = threading.Thread(target=contextvars.copy_context().run, args=(count, w))
            thread.start()
            threads.append(thread)
        count(0)
        for thread in threads:
            thread.join()
    except BaseException:  # an interrupt, or a thread that would not start
        with lock:
            failure[0] = -1  # every worker stops at its next chunk
        for thread in threads:
            thread.join()
        raise
    if failure[1] is not None:
        raise failure[1]
    return _indicator_estimate(sum(hits), samples, box_measure, seed)


def mc_area(membership, bbox, samples: int, seed: int = 42) -> Estimate:
    """Monte Carlo area of {membership} inside bbox ((xlo, xhi), (ylo, yhi)).

    ``membership(xs, ys)`` receives coordinate arrays and returns a boolean
    array; the box must contain the region.  The samples run in chunks, split
    into one contiguous run per CPU this process may use, and each run is
    counted in its own thread (the first in the caller's).  So membership may
    be called from several threads at once, on different chunks, and must be
    safe to call that way, as pure array functions such as
    ``Polygon.contains`` are; chunks reach it in no set order.  The arrays
    are rows of buffers that the thread's next chunk overwrites, so a
    membership that keeps them copies them.  The estimate is the same, bit
    for bit, at any number of CPUs, and an error is the one the first failing
    chunk raised.
    """
    return _mc_membership(membership, tuple(bbox), samples, seed)


def mc_volume(membership, bbox3, samples: int, seed: int = 42) -> Estimate:
    """Monte Carlo volume; 3D analogue of mc_area with membership(xs, ys, zs),
    which is likewise called from one thread per CPU, in no set order."""
    return _mc_membership(membership, tuple(bbox3), samples, seed)


def _midpoint_sum(values_at, n: int, total: float = 0.0) -> float:
    """``ordered_sum`` of ``values_at(k + 0.5)`` over k = 0 .. n-1, chained from
    ``total`` through pieces of ``_BLOCK`` cells."""
    for done in range(0, n, _BLOCK):
        mids = np.arange(done, min(done + _BLOCK, n), dtype=np.float64) + 0.5
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
    segment (polyline edge of nonzero length) or per arc.  A polyline's
    midpoints run edge after edge in one flat sequence of cells, so its
    integrand sees them in pieces of ``_BLOCK`` that may span several edges.
    """
    if n < 1:
        raise ValueError("need at least one subdivision")
    if isinstance(curve, Polyline):
        x0, y0, x1, y1, seg = curve._segments()
        keep = np.flatnonzero(seg)  # an edge of zero length has no cells
        if not len(keep):
            raise DegenerateCurve("curve has zero length")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is part of the result
            dx, dy, ds = x1 - x0, y1 - y0, seg / n

        def values_at(k):
            # flat midpoint k of the kept edges' n cells each: kept edge k // n, at ts * n = k % n
            edge, ts = np.divmod(k, n)
            edge, ts = keep[edge.astype(np.intp)], ts / n
            xs = x0[edge] + dx[edge] * ts
            ys = y0[edge] + dy[edge] * ts
            return np.asarray(integrand(xs, ys), dtype=np.float64) * ds[edge]

        return _midpoint_sum(values_at, len(keep) * n)
    if isinstance(curve, CircleArc):
        ds = curve.radius * curve.span / n

        def values_at(k):
            thetas = curve.start_angle + curve.span * k / n
            xs = curve.center.x + curve.radius * np.cos(thetas)
            ys = curve.center.y + curve.radius * np.sin(thetas)
            return np.asarray(integrand(xs, ys), dtype=np.float64) * ds

        return _midpoint_sum(values_at, n)
    raise TypeError(f"unknown curve kind {type(curve).__name__}")
