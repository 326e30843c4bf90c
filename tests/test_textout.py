"""The table writer against the generic routes: float.__repr__ per value,
csv.writer per row and json.dumps per table, byte for byte."""

import csv
import io
import json
import tracemalloc
from fractions import Fraction
from math import floor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubefield import textout


def rendered(text):
    """The strings of a (characters, rows) text array, NULs dropped."""
    return [bytes(col[col != 0]).decode() for col in text.T]


def from_bits(patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=64))
def test_raw_bit_patterns_render_as_repr(patterns):
    values = from_bits(patterns)
    assert rendered(textout.float_text(values)) == [float.__repr__(v) for v in values.tolist()]
    assert rendered(textout.float_text(values, json=True)) == \
        [json.dumps(v) for v in values.tolist()]


def edge_values():
    below = [5e-324, 1e-323, 2.2250738585072009e-308, 1.5e-310, 4.9e-320]
    normal_ends = [2.2250738585072014e-308, 2.225073858507202e-308, 1.7976931348623157e308]
    powers_of_two = [2.0 ** k for k in range(-1074, 1024)]
    powers_of_ten = [float(f"1e{k}") for k in range(-323, 309)]
    integers = [float(i) for i in range(0, 20001)] + \
        [float(2 ** 53 - i) for i in range(2000)] + [float(2 ** 53), float(2 ** 53 + 2)] + \
        [float(10 ** k - 1) for k in range(1, 17)] + [float(10 ** k + 1) for k in range(1, 16)]
    notation = [1e-05, 0.0001, 0.00012345, 1.2345e-05, 9999999999999998.0, 1e16,
                1.0000000000000002e16, 123456789012345.67, 0.1, 0.2, 0.30000000000000004,
                1 / 3, 2 / 3]
    three_digit_exponents = [1e100, 1.5e-100, 1e-300, 9.999999999999999e299,
                             1.2345678901234567e-123]
    # exact midpoints between two shortest candidates: 2^-25 = 2.98023223876953125e-08
    ties = [2.0 ** -25, 2.0 ** -26, 5e-324 * 3]
    special = [0.0, float("inf"), float("nan")]
    values = below + normal_ends + powers_of_two + powers_of_ten + integers + notation + \
        three_digit_exponents + ties + special
    return np.array(values + [-v for v in values])


def test_edge_table_renders_as_repr():
    values = edge_values()
    assert rendered(textout.float_text(values)) == [float.__repr__(v) for v in values.tolist()]
    assert rendered(textout.float_text(values, json=True)) == \
        [json.dumps(v) for v in values.tolist()]


def test_the_kernel_leaves_only_special_rows_to_repr():
    values = np.array([0.0, -0.0, 5e-324, 2.2250738585072009e-308, float("inf"),
                       float("nan"), 2.0 ** -25, 1.0, 0.1, 2.2250738585072014e-308])
    _, _, ok = textout.shortest_decimal(values)
    assert ok.tolist() == [False] * 7 + [True] * 3


@pytest.mark.parametrize("seed", [0, 1])
def test_random_floats_render_as_repr(seed):
    rng = np.random.default_rng(seed)
    values = np.concatenate([
        rng.standard_normal(40_000),
        rng.standard_normal(20_000) * 10.0 ** rng.integers(-30, 30, 20_000),
        rng.integers(0, 1 << 64, 40_000, dtype=np.uint64).view(np.float64),
    ])
    assert rendered(textout.float_text(values)) == [float.__repr__(v) for v in values.tolist()]


def test_integers_render_as_str():
    values = np.array([0, 1, -1, 9, 10, -10, 99, 100, 12345, -(1 << 63), (1 << 63) - 1],
                      dtype=np.int64)
    assert rendered(textout.int_text(values)) == [str(v) for v in values.tolist()]
    assert rendered(textout.int_text(np.zeros(3, dtype=np.int64))) == ["0"] * 3


def write_rows_with_csv_writer(header, rows):
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return fh.getvalue().encode()


def mixed_table(rows):
    rng = np.random.default_rng(rows)
    values = rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 20, rows)
    values[::97] = 0.0
    values[5::101] = np.nan
    values[7::103] = -np.inf
    ints = rng.integers(-10 ** 6, 10 ** 6, rows)
    return values, ints


# one row, one chunk, a chunk and one row, and several chunks
@pytest.mark.parametrize("rows", [1, textout.CHUNK_ROWS, textout.CHUNK_ROWS + 1,
                                  3 * textout.CHUNK_ROWS + 17])
def test_tables_match_csv_writer_and_json_dumps(rows):
    values, ints = mixed_table(rows)
    width = max(1, (rows - 1).bit_length())
    table = textout.Table(("x_bits", "n", "value"), rows, lambda lo, hi: (
        textout.BitStrings(np.arange(lo, hi), width), ints[lo:hi], values[lo:hi]))
    fh = io.BytesIO()
    textout.write_csv(fh, table)
    want = [(format(i, f"0{width}b"), int(n), float(v))
            for i, (n, v) in enumerate(zip(ints, values))]
    assert fh.getvalue() == write_rows_with_csv_writer(table.header, want)
    fh = io.BytesIO()
    textout.write_json_rows(fh, table)
    assert fh.getvalue().decode() == json.dumps([list(r) for r in want])


def test_pre_rendered_columns_are_gathered_as_they_are():
    table = np.array([0.1, -2.5, 1e-7])
    text = textout.float_text(table)
    index = np.array([2, 0, 0, 1, 2])
    fh = io.BytesIO()
    textout.write_csv(fh, textout.Table(("value",), 5, lambda lo, hi: (
        textout.Text(text[:, index[lo:hi]]),)))
    assert fh.getvalue() == b"value\r\n1e-07\r\n0.1\r\n0.1\r\n-2.5\r\n1e-07\r\n"


class Discard:
    def write(self, data):
        return len(data)


def test_writer_memory_does_not_grow_with_rows():
    peaks = []
    for N in (16, 20):
        values = np.random.default_rng(N).standard_normal(1 << N)
        table = textout.Table(("x_bits", "value"), 1 << N, lambda lo, hi: (
            textout.BitStrings(np.arange(lo, hi), N), values[lo:hi]))
        tracemalloc.start()
        try:
            textout.write_csv(Discard(), table)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one chunk's working set (1.9 MiB); the 2^20 values alone are 8 MiB
    assert peaks[1] < 4 << 20
    assert peaks[1] <= peaks[0] + (256 << 10)


def test_pow10_table_matches_exact_powers():
    table = textout._pow10_table()
    assert table.shape == (5, 617)
    for k in (-324, -300, -1, 0, 1, 22, 200, 292):
        g1, g1_lo, g1_hi, g0_lo, g0_hi = (int(x) for x in table[:, k + 324])
        assert g1 == (g1_hi << 32) | g1_lo
        g = (g1 << 63) | (g0_hi << 32) | g0_lo
        # g = floor(10^-k 2^-r) + 1, with r putting 10^-k 2^-r in [2^125, 2^126)
        log2 = (10 ** -k).bit_length() - 1 if k <= 0 else -(10 ** k).bit_length()
        beta = Fraction(10) ** -k / Fraction(2) ** (log2 - 125)
        assert 1 << 125 <= beta < 1 << 126
        assert g == floor(beta) + 1

