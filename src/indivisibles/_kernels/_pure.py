"""Pure-numpy kernels, bit-identical with the compiled lane.

All integer work is uint64 arithmetic mod 2^64 (numpy wraps silently for
arrays), and mixed states below 2^53 convert to float64 exactly, so the two
lanes agree to the last bit.

Both kernels walk their data in blocks of ``_BLOCK`` (2^14) elements, so the
working set of every numpy call stays in cache (a block of float64 or uint64
is 128 KiB).  Blocking changes no bit of the output:

- ``fill_uniform01`` computes value i from (seed, i) alone.  A block starting
  at index b adds the per-block offset ``seed + (start + b) * GAMMA`` (mod 2^64,
  in Python integers) to the fixed steps ``(j + 1) * GAMMA``, which is the same
  uint64 state ``seed + (start + b + j + 1) * GAMMA`` the unblocked formula gives.
- ``ordered_sum`` runs ``np.add.accumulate`` over ``[acc, *block]``.
  ``accumulate`` adds strictly left to right, one rounding per element (unlike
  ``np.sum``, which sums pairwise), and the last element carries the running
  value into the next block, so the sequence of float64 additions is exactly
  that of the loop ``acc = acc + v``.
"""

import numpy as np

_GAMMA_INT = 0x9E3779B97F4A7C15
_GAMMA = np.uint64(_GAMMA_INT)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SCALE = 1.0 / 9007199254740992.0  # 2^-53
_BLOCK = 1 << 14


def fill_uniform01(out, seed, start):
    """Fill ``out`` with stream values start .. start+len(out)-1 for ``seed``."""
    n = out.shape[0]
    size = min(n, _BLOCK)
    steps = np.arange(1, size + 1, dtype=np.uint64) * _GAMMA
    z = np.empty(size, dtype=np.uint64)
    t = np.empty(size, dtype=np.uint64)
    for b in range(0, n, _BLOCK):
        k = min(_BLOCK, n - b)
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


def ordered_sum(values, init=0.0):
    """Strictly sequential left-to-right sum, seeded with ``init``."""
    values = np.asarray(values, dtype=np.float64)
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
