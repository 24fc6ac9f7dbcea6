"""Hot-loop kernels with a compiled core and a pure fallback.

The compiled extension (``_core``, Cython) is preferred when importable;
``INDIVISIBLES_PURE=1`` in the environment forces the numpy/Python fallback.
Both lanes are bit-identical by construction, so every result in the package
is independent of which lane happens to be active.
"""

import os

import numpy as np

from . import _pure

if os.environ.get("INDIVISIBLES_PURE"):
    _impl = _pure
    BACKEND = "pure"
else:
    try:
        from . import _core as _impl

        BACKEND = "compiled"
    except ImportError:
        _impl = _pure
        BACKEND = "pure"

_MAX_UINT64 = 2**64


def uniform01(seed, start, count):
    """Values start .. start+count-1 of the uniform [0,1) stream for ``seed``.

    The stream is counter-based: value i depends only on (seed, i), so any
    chunking or parallel split of the index range reproduces the same floats.
    """
    if not 0 <= seed < _MAX_UINT64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if start < 0 or count < 0:
        raise ValueError("start and count must be nonnegative")
    if start >= _MAX_UINT64 or start + count > _MAX_UINT64:
        raise ValueError("stream indices must fit in an unsigned 64-bit integer")
    out = np.empty(count, dtype=np.float64)
    _impl.fill_uniform01(out, seed, start)
    return out


def ordered_sum(values, init=0.0):
    """Strictly sequential left-to-right sum of ``values`` starting at ``init``.

    This is the deterministic reduction used by the slab-sum and quadrature
    code paths: the result is a pure function of element order, regardless of
    how the elements were produced.
    """
    return _impl.ordered_sum(np.ascontiguousarray(values, dtype=np.float64), init)
