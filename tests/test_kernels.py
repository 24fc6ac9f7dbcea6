"""Kernel exactness and determinism.

The stream must equal its arbitrary-precision integer reference bit for bit,
and the ordered sum must equal the plain left-to-right loop bit for bit, on
both sides of every block edge.
"""

import struct
import warnings

import numpy as np
import pytest

from indivisibles import _kernels

# splitmix64 stream for seed 42, indices 0..3 (big-int oracle, frozen)
SEED42_FIRST4 = (
    0.7415648787718233,
    0.1599103928769201,
    0.27860113025513866,
    0.34419071652363753,
)


def _bigint_reference(seed: int, i: int) -> float:
    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    z ^= z >> 31
    return (z >> 11) * 2.0**-53


def test_stream_matches_bigint_oracle():
    got = _kernels.uniform01(42, 0, 4)
    assert got.tolist() == list(SEED42_FIRST4)
    for seed in (0, 1, 42, 2**64 - 1):
        got = _kernels.uniform01(seed, 0, 16)
        expected = [_bigint_reference(seed, i) for i in range(16)]
        assert got.tolist() == expected


def test_pure_stream_matches_bigint_oracle_across_blocks():
    # row d, column i of a dims-row call is stream value start + i*dims + d
    block = _kernels._BLOCK
    n = 2 * block + 5
    cols = (0, block - 2, block - 1, block, block + 1, 2 * block - 1, 2 * block, n - 1)
    for dims in (1, 2, 3):
        for seed in (42, 2**64 - 1):
            for start in (0, 3, block - 1, 2**64 - dims * n - 7, 2**64 - dims * n):
                got = _kernels.uniform01(seed, start, n, dims).reshape(dims, n)
                for d in range(dims):
                    for j in cols:
                        want = _bigint_reference(seed, start + j * dims + d)
                        assert got[d, j] == want, (dims, seed, start, d, j)


def test_rows_are_the_interleaved_run_transposed():
    block = _kernels._BLOCK
    for dims in (1, 2, 3):
        for start in (0, 5):
            for count in (0, 1, block + 3):
                rows = _kernels.uniform01(9, start, count, dims)
                flat = _kernels.uniform01(9, start, count * dims)
                assert rows.shape == ((count,) if dims == 1 else (dims, count))
                assert rows.dtype == np.float64 and rows.flags.c_contiguous
                assert rows.tobytes() == flat.reshape(count, dims).T.tobytes()


def test_row_layout_validation():
    # the last index is start + count*dims - 1, which must stay below 2^64
    with pytest.raises(ValueError):
        _kernels.uniform01(1, 2**64 - 5, 3, 2)
    last = _kernels.uniform01(1, 2**64 - 6, 3, 2)
    assert last[1, 2] == _bigint_reference(1, 2**64 - 1)
    for dims in (0, -1):
        with pytest.raises(ValueError):
            _kernels.uniform01(1, 0, 3, dims)
    with pytest.raises(TypeError):
        _kernels.uniform01(1, 0, 3, 2.0)
    assert _kernels.uniform01(1, 0, 3, np.int64(2)).tobytes() == _kernels.uniform01(1, 0, 3, 2).tobytes()


@pytest.mark.parametrize("dims", [1, 2, 3, 4])
def test_shared_buffers_give_the_stream_chunk_by_chunk(dims):
    # chunks of one StreamBuffers, the last one partial, equal one flat call:
    # from 0, and ending one value short of the 2^64 wrap
    block = _kernels._BLOCK
    n = 2 * block + 5
    for seed, start in ((42, 0), (2**64 - 1, 2**64 - 1 - dims * n)):
        flat = _kernels.uniform01(seed, start, dims * n)
        buffers = _kernels.StreamBuffers(dims, block)
        for done in range(0, n, block):
            m = min(block, n - done)
            chunk = _kernels.uniform01(seed, start + done * dims, m, dims, buffers=buffers)
            assert chunk.shape == ((m,) if dims == 1 else (dims, m)) and chunk.flags.c_contiguous
            want = flat[done * dims:(done + m) * dims].reshape(m, dims).T
            assert chunk.tobytes() == np.ascontiguousarray(want).tobytes(), (seed, start, done)
            chunk[...] = np.nan  # the next chunk reads nothing the last one held


def test_buffers_must_fit_the_call():
    buffers = _kernels.StreamBuffers(2, 100)
    assert _kernels.uniform01(1, 0, 100, 2, buffers=buffers).shape == (2, 100)
    with pytest.raises(ValueError, match="buffers hold 100 samples of 2, not 101 of 2"):
        _kernels.uniform01(1, 0, 101, 2, buffers=buffers)
    with pytest.raises(ValueError, match="not 50 of 3"):
        _kernels.uniform01(1, 0, 50, 3, buffers=buffers)


def test_stream_is_counter_based():
    whole = _kernels.uniform01(7, 0, 100)
    part = _kernels.uniform01(7, 37, 21)
    assert np.array_equal(part, whole[37:58])


def test_stream_values_in_unit_interval():
    u = _kernels.uniform01(123, 0, 10000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_ordered_sum_is_sequential():
    vals = np.array([1e16, 1.0, -1e16, 1.0])
    # left-to-right: (1e16 + 1) loses the 1, so the result is exactly 1.0
    assert _kernels.ordered_sum(vals) == 1.0


def _loop_sum(values, init):
    acc = float(init)
    for v in values.tolist():
        acc = acc + v
    return acc


def _bits(x):
    return struct.pack("<d", x)


def test_pure_ordered_sum_matches_the_loop_across_blocks():
    block = _kernels._BLOCK
    rng = np.random.default_rng(11)
    cases = [
        (np.empty(0), 0.0),
        (np.empty(0), -0.0),
        (np.array([0.0]), -0.0),
        (np.array([np.inf, -np.inf]), 0.0),
        (np.array([1.0, np.nan, 2.0]), 0.5),
        (np.array([1.7e308, 1.7e308, -1.0]), 0.0),
    ]
    for n in (1, block - 1, block, block + 1, 3 * block + 5):
        vals = rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 12, n)
        for init in (0.0, -0.0, 1e12):
            cases.append((vals, init))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for vals, init in cases:
            assert _bits(_kernels.ordered_sum(vals, init)) == _bits(_loop_sum(vals, init))


def test_ordered_sum_of_rows_sums_each_column_in_order():
    rng = np.random.default_rng(12)
    vals = rng.standard_normal((300, 7)) * 10.0 ** rng.uniform(-12, 12, (300, 7))
    vals[:, 0] = [1e16, 1.0, -1e16] * 100
    vals[:, 1] = -0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sums = _kernels.ordered_sum(vals, -0.0)
    assert sums.shape == (7,)
    assert sums.tobytes() == b"".join(_bits(_loop_sum(column, -0.0)) for column in vals.T)


def test_ordered_sum_init_chains_chunks():
    vals = _kernels.uniform01(3, 0, 1000)
    whole = _kernels.ordered_sum(vals)
    split = _kernels.ordered_sum(vals[400:], _kernels.ordered_sum(vals[:400]))
    assert whole == split


def test_seed_validation():
    with pytest.raises(ValueError):
        _kernels.uniform01(-1, 0, 1)
    with pytest.raises(ValueError):
        _kernels.uniform01(2**64, 0, 1)


def test_numpy_integer_arguments_match_int_and_floats_raise():
    block = _kernels._BLOCK
    expected = _kernels.uniform01(42, block - 3, block + 6)
    for int_type in (np.int64, np.uint64):
        got = _kernels.uniform01(int_type(42), int_type(block - 3), int_type(block + 6))
        assert got.tobytes() == expected.tobytes()
    top = _kernels.uniform01(np.uint64(2**64 - 1), 0, 4)
    assert top.tolist() == [_bigint_reference(2**64 - 1, i) for i in range(4)]
    # a float would pass the range checks and corrupt the per-block offsets
    with pytest.raises(TypeError):
        _kernels.uniform01(42.0, 0, 3)
    with pytest.raises(TypeError):
        _kernels.uniform01(42, 1.5, 3)
    with pytest.raises(TypeError):
        _kernels.uniform01(42, 0, 3.0)


def test_stream_index_range_validation():
    # indices past 2^64 - 1 would wrap onto the start of the stream
    with pytest.raises(ValueError):
        _kernels.uniform01(1, 2**64 - 1, 3)
    for count in (0, 2):
        with pytest.raises(ValueError):
            _kernels.uniform01(1, 2**64, count)
    last = _kernels.uniform01(1, 2**64 - 2, 2)
    assert last.tolist() == [_bigint_reference(1, 2**64 - 2), _bigint_reference(1, 2**64 - 1)]


def test_empty_inputs():
    assert _kernels.uniform01(1, 0, 0).shape == (0,)
    assert _kernels.ordered_sum(np.empty(0)) == 0.0
    assert _kernels.ordered_sum(np.empty(0), 2.5) == 2.5
