import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubefield.errors import DomainError
from cubefield.walsh import bit_positions, fwht, iter_submasks, popcounts, signed_sum, subset_signs


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


# rows up to 2^18 and batches on both sides of the 2^15-entry cache block:
# lengths past 2^15 reach the column-slab pass, short rows share a block
@pytest.mark.parametrize("shape", (
    [(1 << k,) for k in range(13)] + [(7, 64)] + [(1 << k,) for k in range(13, 19)]
    + [(4001, 1024), (20000, 64), (3, 1 << 16), (5, 1 << 17), (2, 3, 1 << 15),
       (1, 1), (5, 2)]))
def test_in_place_butterflies_equal_stacked_stages(rng, shape):
    v = rng.standard_normal(shape)
    assert np.array_equal(fwht(v), stacked_fwht(v))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=17),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_blocked_butterflies_equal_stacked_stages_sweep(rows, k, seed):
    v = np.random.default_rng(seed).standard_normal((rows, 1 << k))
    assert np.array_equal(fwht(v), stacked_fwht(v))


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


@pytest.mark.parametrize("n", [0, 1, 3, 10])
def test_signed_sum_folds_the_sign_vector(rng, n):
    values = rng.standard_normal(1 << n)
    for mask in {0, (1 << n) - 1, int(rng.integers(1 << n))}:
        expected = float(np.dot(values, subset_signs(mask, n)))
        assert signed_sum(values.copy(), mask) == pytest.approx(expected, rel=1e-12, abs=1e-12)
