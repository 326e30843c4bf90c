import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import subset_signs
from cubefield.errors import DomainError
from cubefield.walsh import bit_positions, fwht, iter_submasks, popcounts


def stacked_fwht(values):
    """The out-of-place transform: each stage stacks fresh top and bottom halves."""
    a = np.array(values, dtype=np.float64, copy=True)
    n = a.shape[-1]
    lead = a.shape[:-1]
    a = a.reshape(-1, n)
    h = 1
    while h < n:
        b = a.reshape(-1, n // (2 * h), 2, h)
        top = b[:, :, 0, :] + b[:, :, 1, :]
        bot = b[:, :, 0, :] - b[:, :, 1, :]
        a = np.stack((top, bot), axis=2).reshape(-1, n)
        h *= 2
    return a.reshape(lead + (n,))


def naive_transform(values):
    """O(4^N) sign-matrix oracle."""
    n = len(values)
    out = np.zeros(n)
    for x in range(n):
        acc = 0.0
        for z in range(n):
            acc += values[z] * (-1.0) ** bin(x & z).count("1")
        out[x] = acc
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_matches_naive_oracle(n_bits, seed):
    v = np.random.default_rng(seed).standard_normal(1 << n_bits)
    assert np.allclose(fwht(v), naive_transform(v), atol=1e-12)


def test_matches_naive_oracle_n10(rng):
    v = rng.standard_normal(1 << 10)
    assert np.abs(fwht(v) - naive_transform(v)).max() < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=8),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_involution(n_bits, seed):
    v = np.random.default_rng(seed).standard_normal(1 << n_bits)
    assert np.allclose(fwht(fwht(v)), (1 << n_bits) * v, rtol=1e-12, atol=1e-12)


def test_batch_matches_rows(rng):
    batch = rng.standard_normal((7, 64))
    out = fwht(batch)
    assert out.shape == batch.shape
    for i in range(7):
        assert np.array_equal(out[i], fwht(batch[i]))


def integer_valued(rng, shape):
    """Floats with integer values below 2^20 in magnitude: every partial sum of
    a transform of up to 2^32 entries is an integer below 2^53, so any correct
    order of additions gives the exact, and therefore the same, result."""
    return rng.integers(-(1 << 20) + 1, 1 << 20, size=shape).astype(np.float64)


# rows up to 2^18 and batches on both sides of the 2^15-entry cache block:
# lengths past 2^15 reach the column-slab pass, short rows share a block;
# the last row is the largest one the cube-large benchmark transforms
@pytest.mark.parametrize("shape", (
    [(1 << k,) for k in range(13)] + [(7, 64)] + [(1 << k,) for k in range(13, 19)]
    + [(4001, 1024), (20000, 64), (3, 1 << 16), (5, 1 << 17), (2, 3, 1 << 15),
       (1, 1), (5, 2), (1 << 22,)]))
def test_in_place_butterflies_equal_stacked_stages(rng, shape):
    v = integer_valued(rng, shape)
    assert np.array_equal(fwht(v), stacked_fwht(v))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=17),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_blocked_butterflies_equal_stacked_stages_sweep(rows, k, seed):
    v = integer_valued(np.random.default_rng(seed), (rows, 1 << k))
    assert np.array_equal(fwht(v), stacked_fwht(v))


def exact_entry(row, x):
    """W[x] of one row, correctly rounded: math.fsum of the signed entries."""
    signs = np.bitwise_count(np.arange(row.size) & x) & 1
    return math.fsum(np.where(signs, -row, row).tolist())


# every entry of rows up to 2^8, a sample of the longer ones (x = 0 included),
# on both passes and on batches that fill and cross a cache block.  Normal
# inputs stay far inside the bound; it is not a worst-case bound, which for a
# 16-term sum in an arbitrary order is 15 units per factor
@pytest.mark.parametrize("shape", [(1,), (2,), (7, 64), (3, 256), (40, 1024),
                                   (1 << 15,), (2, 1 << 17)])
def test_rounding_error_is_at_most_n_plus_one_ulps_of_the_absolute_sum(rng, shape):
    v = rng.standard_normal(shape).reshape(-1, shape[-1])
    out = fwht(v)
    n = v.shape[-1]
    N = n.bit_length() - 1
    for row, got in zip(v, out):
        xs = np.arange(n) if n <= 256 else np.append(0, rng.integers(n, size=max(3, (1 << 16) // n)))
        err = np.array([abs(got[x] - exact_entry(row, x)) for x in xs])
        assert np.all(err <= (N + 1) * 2.0 ** -52 * np.abs(row).sum())


def test_fwht_peak_memory_is_one_copy(rng):
    v = rng.standard_normal(1 << 20)
    tracemalloc.start()
    try:
        fwht(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= v.nbytes + (1 << 20)


def test_input_is_not_written(rng):
    for v in (rng.standard_normal(256), rng.standard_normal((5, 32))):
        before = v.copy()
        fwht(v)
        assert np.array_equal(v, before)


def test_read_only_and_integer_inputs():
    frozen = np.arange(16.0)
    frozen.flags.writeable = False
    assert np.array_equal(fwht(frozen), stacked_fwht(frozen))
    ints = np.arange(16) - 5
    out = fwht(ints)
    assert out.dtype == np.float64
    assert np.array_equal(out, stacked_fwht(ints))
    assert np.array_equal(ints, np.arange(16) - 5)


def test_rejects_bad_length():
    with pytest.raises(DomainError):
        fwht(np.ones(12))


def test_popcounts_small():
    assert popcounts(0).tolist() == [0]
    assert popcounts(3).tolist() == [0, 1, 1, 2, 1, 2, 2, 3]
    assert popcounts(3).dtype == np.uint8
    assert np.array_equal(popcounts(12), [bin(a).count("1") for a in range(1 << 12)])


def test_subset_signs_definition():
    n = 4
    for mask in (0b0000, 0b0101, 0b1111):
        signs = subset_signs(mask, n)
        for a in range(1 << n):
            assert signs[a] == (-1.0) ** bin(a & mask).count("1")


def test_iter_submasks_enumerates_powerset():
    subs = sorted(iter_submasks(0b1011))
    assert subs == [a for a in range(16) if a | 0b1011 == 0b1011]


def test_bit_positions():
    assert bit_positions(0) == []
    assert bit_positions(0b10110) == [1, 2, 4]
