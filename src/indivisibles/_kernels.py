"""Hot-loop kernels: the counter-based uniform stream and the ordered sum.

Both are plain numpy.  All integer work is uint64 arithmetic mod 2^64 (numpy
wraps silently for arrays), and mixed states below 2^53 convert to float64
exactly, so every value of the stream equals its arbitrary-precision
reference.

The kernels are straight-line: each handles its whole input in one pass.  The
loops that stream (Monte Carlo chunks, midpoint pieces, staircase blocks) own
the working set and hand a kernel at most ``_BLOCK`` elements at a time; where
each piece starts changes no bit of any result, because the stream is indexed
by value and the sum is chained.  A caller that draws the stream chunk after
chunk passes one ``StreamBuffers`` to every ``uniform01`` call, so the chunks
share one output and one scratch array and no call allocates a chunk's worth.
The Monte Carlo oracle counts its chunks in one thread per CPU, and each
thread draws its own run of chunks into its own ``StreamBuffers``; a
``StreamBuffers`` is never shared between threads.

``ordered_sum`` of two columns chains both in one pass: the ``(m, 2)`` float64
rows are viewed as m complex128 values, and a complex add is an IEEE add of
each part, so each column's sum is bit for bit its own left-to-right chain.
A caller that chains pairs block after block passes one ``run`` array, with
the values already written into its rows 1.., so no call allocates or copies.
"""

import operator

import numpy as np

# The kernels have one implementation; the name is reported by ``--version``
# and recorded in benchmark environments.
BACKEND = "pure"

_GAMMA_INT = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SCALE = 1.0 / 9007199254740992.0  # 2^-53
_BLOCK = 1 << 14
_MAX_UINT64 = 2**64


class StreamBuffers:
    """The working set of ``uniform01`` calls of up to ``count`` samples of
    ``dims`` coordinates each: the float64 values, one uint64 scratch array of
    the same size, and the counter steps ``j·(dims·GAMMA)`` of sample j.

    Each call that is handed these buffers overwrites the values that the
    previous call returned and never reads them, so a caller that writes into
    a returned chunk changes no later one.
    """

    __slots__ = ("dims", "values", "work", "steps")

    def __init__(self, dims: int, count: int):
        self.dims = dims
        self.values = np.empty(dims * count, dtype=np.float64)
        self.work = np.empty(dims * count, dtype=np.uint64)
        self.steps = np.arange(count, dtype=np.uint64) * np.uint64(dims * _GAMMA_INT % _MAX_UINT64)


def uniform01(seed, start, count, dims=1, *, buffers=None):
    """Values start .. start+count*dims-1 of the uniform [0,1) stream for ``seed``.

    With ``dims`` 1 this is the flat run of ``count`` values.  Otherwise it is
    a ``(dims, count)`` array whose row d, column i is value
    ``start + i*dims + d``: ``count`` samples of ``dims`` coordinates each, one
    contiguous row per axis.  The stream is counter-based: value i depends
    only on (seed, i), so any chunking or parallel split of the index range
    reproduces the same floats.  ``seed``, ``start``, ``count`` and ``dims``
    must be integers (numpy integers too); floats raise ``TypeError``.

    ``buffers``, a ``StreamBuffers`` for ``dims`` and at least ``count``
    samples, holds the result and the scratch; without it both are allocated
    for this call.
    """
    seed, start = operator.index(seed), operator.index(start)
    count, dims = operator.index(count), operator.index(dims)
    if not 0 <= seed < _MAX_UINT64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if start < 0 or count < 0:
        raise ValueError("start and count must be nonnegative")
    if dims < 1:
        raise ValueError("dims must be at least 1")
    if start >= _MAX_UINT64 or start + count * dims > _MAX_UINT64:
        raise ValueError("stream indices must fit in an unsigned 64-bit integer")
    if buffers is None:
        buffers = StreamBuffers(dims, count)
    elif buffers.dims != dims or len(buffers.steps) < count:
        raise ValueError(f"buffers hold {len(buffers.steps)} samples of {buffers.dims}, not {count} of {dims}")
    out = buffers.values[: dims * count].reshape(dims, count)
    t = buffers.work[: dims * count].reshape(dims, count)
    # the mix runs in the output's own memory: row d, column j starts as state
    # seed + (start + d + 1)*GAMMA + j*(dims*GAMMA), mod 2^64
    z = out.view(np.uint64)
    rows = [(seed + (start + d + 1) * _GAMMA_INT) % _MAX_UINT64 for d in range(dims)]
    np.add(buffers.steps[:count], np.array(rows, dtype=np.uint64)[:, None], out=z)
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=t)
        np.bitwise_xor(z, t, out=z)
        np.multiply(z, mix, out=z)
    np.right_shift(z, np.uint64(31), out=t)
    np.bitwise_xor(z, t, out=z)
    # k = z >> 11 is below 2^53, so its int64 view converts to float64 exactly
    np.right_shift(z, np.uint64(11), out=t)
    np.multiply(t.view(np.int64), _SCALE, out=out)
    return out.reshape(-1) if dims == 1 else out


def ordered_sum(values, init=0.0, run=None):
    """Strictly sequential left-to-right sum of ``values`` from ``init`` along axis 0.

    This is the deterministic reduction used by the slab-sum and quadrature
    code paths: the result is a pure function of element order, regardless of
    how the elements were produced.  A 1-D ``values`` gives a float; an
    ``(m, k)`` one gives the k column sums as a new array, and ``init`` may
    then be a scalar or one running sum per column.  Two columns are chained
    as one complex128 column, each part bit for bit its own chain.

    ``run``, a caller-owned C-contiguous float64 array of at least
    ``len(values) + 1`` rows of ``values``' row shape, already holds
    ``values`` in rows ``1 .. len(values)``: ``values`` is then only read for
    its length, no array is allocated and nothing is copied.  Row 0 and the
    rows of ``values`` are overwritten by the running sums.
    """
    if run is None:
        values = np.ascontiguousarray(values, dtype=np.float64)
        run = np.empty((values.shape[0] + 1, *values.shape[1:]))
        run[1:] = values
    else:
        run = run[: len(values) + 1]
    # np.add.accumulate adds strictly left to right, one rounding per element
    # (np.sum is pairwise); inf - inf and overflow are part of the sum's
    # defined result, as in the loop
    if run.ndim == 1:
        run[0] = float(init)
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.accumulate(run, out=run)
        return float(run[-1])
    run[0] = init
    chain = run.view(np.complex128)[:, 0] if run.shape[1] == 2 else run
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.accumulate(chain, out=chain)
    return run[-1].copy()
