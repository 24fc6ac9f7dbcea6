"""Hot-loop kernels: the counter-based uniform stream and the ordered sum.

Both are plain numpy.  All integer work is uint64 arithmetic mod 2^64 (numpy
wraps silently for arrays), and mixed states below 2^53 convert to float64
exactly, so every value of the stream equals its arbitrary-precision
reference.

Both kernels walk their data in blocks of ``_BLOCK`` (2^14) elements, so the
working set of every numpy call stays in cache (a block of float64 or uint64
is 128 KiB).  Blocking changes no bit of the output:

- ``uniform01`` computes value i from (seed, i) alone, as the uint64 state
  ``seed + (i + 1) * GAMMA`` mixed.  With ``dims`` rows, row d, column c holds
  value ``start + c * dims + d``: the interleaved run ``start ..
  start + count*dims - 1`` split into one contiguous row per axis.  Row d's
  block starting at column b adds the offset
  ``seed + (start + b * dims + d + 1) * GAMMA`` (mod 2^64, in Python integers)
  to the fixed steps ``j * dims * GAMMA``, which is the same state the
  unblocked formula gives for column b + j, so every value is kept and only
  its place in memory moves.
- ``ordered_sum`` runs ``np.add.accumulate`` over ``[acc, *block]``.
  ``accumulate`` adds strictly left to right, one rounding per element (unlike
  ``np.sum``, which sums pairwise), and the last element carries the running
  value into the next block, so the sequence of float64 additions is exactly
  that of the loop ``acc = acc + v``.
"""

import operator

import numpy as np

# The kernels have one implementation; the name is reported by ``--version``
# and recorded in benchmark environments.
BACKEND = "pure"

_GAMMA_INT = 0x9E3779B97F4A7C15
_GAMMA = np.uint64(_GAMMA_INT)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SCALE = 1.0 / 9007199254740992.0  # 2^-53
_BLOCK = 1 << 14
_MAX_UINT64 = 2**64


def uniform01(seed, start, count, dims=1):
    """Values start .. start+count*dims-1 of the uniform [0,1) stream for ``seed``.

    With ``dims`` 1 this is the flat run of ``count`` values.  Otherwise it is
    a ``(dims, count)`` array whose row d, column i is value
    ``start + i*dims + d``: ``count`` samples of ``dims`` coordinates each, one
    contiguous row per axis.  The stream is counter-based: value i depends
    only on (seed, i), so any chunking or parallel split of the index range
    reproduces the same floats.  ``seed``, ``start``, ``count`` and ``dims``
    must be integers (numpy integers too); floats raise ``TypeError``.
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
    out = np.empty(dims * count, dtype=np.float64)
    rows = out.reshape(dims, count)
    size = min(count, _BLOCK)
    steps = np.arange(size, dtype=np.uint64) * np.uint64(dims * _GAMMA_INT % _MAX_UINT64)
    z = np.empty(size, dtype=np.uint64)
    t = np.empty(size, dtype=np.uint64)
    for d in range(dims):
        for b in range(0, count, _BLOCK):
            k = min(_BLOCK, count - b)
            zk, tk = z[:k], t[:k]
            offset = np.uint64((seed + (start + b * dims + d + 1) * _GAMMA_INT) % _MAX_UINT64)
            np.add(steps[:k], offset, out=zk)
            for shift, mix in ((30, _MIX1), (27, _MIX2)):
                np.right_shift(zk, np.uint64(shift), out=tk)
                np.bitwise_xor(zk, tk, out=zk)
                np.multiply(zk, mix, out=zk)
            np.right_shift(zk, np.uint64(31), out=tk)
            np.bitwise_xor(zk, tk, out=zk)
            np.right_shift(zk, np.uint64(11), out=zk)
            np.multiply(zk, _SCALE, out=rows[d, b:b + k])
    return out if dims == 1 else rows


def ordered_sum(values, init=0.0):
    """Strictly sequential left-to-right sum of ``values`` starting at ``init``.

    This is the deterministic reduction used by the slab-sum and quadrature
    code paths: the result is a pure function of element order, regardless of
    how the elements were produced.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    acc = float(init)
    n = values.shape[0]
    buf = np.empty(min(n, _BLOCK) + 1)
    # inf - inf and overflow are part of the sum's defined result, as in the loop
    with np.errstate(over="ignore", invalid="ignore"):
        for b in range(0, n, _BLOCK):
            k = min(_BLOCK, n - b)
            run = buf[:k + 1]
            run[0] = acc
            run[1:] = values[b:b + k]
            np.add.accumulate(run, out=run)
            acc = float(run[k])
    return acc
