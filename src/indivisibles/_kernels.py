"""Hot-loop kernels: the counter-based uniform stream and the ordered sum.

Both are plain numpy.  All integer work is uint64 arithmetic mod 2^64 (numpy
wraps silently for arrays), and mixed states below 2^53 convert to float64
exactly, so every value of the stream equals its arbitrary-precision
reference.

Both kernels walk their data in blocks of ``_BLOCK`` (2^14) elements, so the
working set of every numpy call stays in cache (a block of float64 or uint64
is 128 KiB).  Blocking changes no bit of the output:

- ``uniform01`` computes value i from (seed, i) alone.  A block starting at
  index b adds the per-block offset ``seed + (start + b) * GAMMA`` (mod 2^64,
  in Python integers) to the fixed steps ``(j + 1) * GAMMA``, which is the same
  uint64 state ``seed + (start + b + j + 1) * GAMMA`` the unblocked formula gives.
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


def uniform01(seed, start, count):
    """Values start .. start+count-1 of the uniform [0,1) stream for ``seed``.

    The stream is counter-based: value i depends only on (seed, i), so any
    chunking or parallel split of the index range reproduces the same floats.
    ``seed``, ``start`` and ``count`` must be integers (numpy integers too);
    floats raise ``TypeError``.
    """
    seed, start, count = operator.index(seed), operator.index(start), operator.index(count)
    if not 0 <= seed < _MAX_UINT64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if start < 0 or count < 0:
        raise ValueError("start and count must be nonnegative")
    if start >= _MAX_UINT64 or start + count > _MAX_UINT64:
        raise ValueError("stream indices must fit in an unsigned 64-bit integer")
    out = np.empty(count, dtype=np.float64)
    size = min(count, _BLOCK)
    steps = np.arange(1, size + 1, dtype=np.uint64) * _GAMMA
    z = np.empty(size, dtype=np.uint64)
    t = np.empty(size, dtype=np.uint64)
    for b in range(0, count, _BLOCK):
        k = min(_BLOCK, count - b)
        zk, tk = z[:k], t[:k]
        offset = np.uint64((seed + (start + b) * _GAMMA_INT) % 2**64)
        np.add(steps[:k], offset, out=zk)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(zk, np.uint64(shift), out=tk)
            np.bitwise_xor(zk, tk, out=zk)
            np.multiply(zk, mix, out=zk)
        np.right_shift(zk, np.uint64(31), out=tk)
        np.bitwise_xor(zk, tk, out=zk)
        np.right_shift(zk, np.uint64(11), out=zk)
        np.multiply(zk, _SCALE, out=out[b:b + k])
    return out


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
