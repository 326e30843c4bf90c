"""Fast Walsh-Hadamard transform and bitmask utilities.

Vertices of {0,1}^N and subsets A of [N] share one encoding: an N-bit
integer whose bit j-1 carries entry/index j.  The character of subset A
evaluated at vertex x is (-1)^popcount(A & x), so every spectral sum in
this package is a Walsh-Hadamard transform of some coefficient vector.

The transform matrix factors over any split of the index bits into groups of
adjacent bits, H_{2^N} = H_{2^k1} (x) ... (x) H_{2^km} (Kronecker product), so
the transform runs as one small Hadamard matrix product per group.
"""

from functools import cache

import numpy as np

from .errors import DomainError

_BLOCK = 1 << 15  # float64 entries per cache block (256 KiB)
_FACTOR_BITS = 4  # index bits per Kronecker factor: matrices of at most 16 x 16


def fwht(values: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform along the last axis, O(N * 2^N).

    Returns W with W[..., x] = sum_z (-1)^popcount(x & z) * values[..., z].
    The transform matrix is symmetric and W(W(v)) = 2^N * v.  The input is
    never written: the transform runs on a float64 copy.
    """
    a = np.array(values, dtype=np.float64, copy=True)
    _fwht_inplace(a)
    return a


def _fwht_inplace(a: np.ndarray) -> None:
    """fwht of a C-contiguous float64 array, overwriting it.

    The index bits are cut into groups of at most _FACTOR_BITS adjacent bits,
    and each group is one Kronecker factor, one BLAS matrix product (see
    _kron).  Two passes keep the operands in cache:

    1. the bits below a block, on each block of _BLOCK entries (256 KiB:
       whole rows, or a part of one row), the products alternating between
       the block and a buffer of the block's size;
    2. the bits of a block length and more (rows longer than _BLOCK): each
       row is viewed as (n / _BLOCK, _BLOCK) and transformed down its
       columns, one slab of columns at a time, copied into that buffer and
       a second one and back.

    Every entry of a factor is +-1, so each product is exact and only the
    order of the additions depends on the grouping: on integer-valued inputs
    whose sums stay below 2^53 the result is exact.  The two buffers hold at
    most _BLOCK entries each (more only for rows longer than _BLOCK^2).
    """
    n = a.shape[-1]
    if n == 0 or (n & (n - 1)) != 0:
        raise DomainError(f"transform length must be a power of two, got {n}")
    if a.dtype != np.float64 or not a.flags.c_contiguous:
        raise ValueError("in-place transform needs a C-contiguous float64 array")
    flat = a.reshape(-1)
    bits = n.bit_length() - 1
    low = min(bits, _BLOCK.bit_length() - 1)  # bits transformed inside one block
    span = 1 << low
    slabs = n // span
    buf = np.empty(max(min(flat.size, _BLOCK), slabs))
    factors = _factors(0, low)
    for start in range(0, flat.size, _BLOCK):  # whole rows, or a part of one row
        block = flat[start:start + _BLOCK]
        out = _kron(block, buf[:block.size], factors)
        if out is not block:
            np.copyto(block, out)
    if slabs > 1:
        width = max(1, _BLOCK // slabs)
        shift = width.bit_length() - 1  # a slab's row index starts above its column bits
        factors = _factors(shift, shift + bits - low)
        spare = np.empty(buf.size)
        for row in flat.reshape(-1, slabs, span):
            for j in range(0, span, width):
                slab = row[:, j:j + width]
                np.copyto(buf.reshape(slabs, width), slab)
                out = _kron(buf, spare, factors)
                np.copyto(slab, out.reshape(slabs, width))


def _factors(lo: int, hi: int) -> list[tuple[int, int]]:
    """(lowest bit, bit count) of each Kronecker factor over bits [lo, hi).

    The fewest factors of at most _FACTOR_BITS bits, their sizes as even as
    possible.
    """
    count = -(-(hi - lo) // _FACTOR_BITS)
    cuts = [lo] + [lo + (hi - lo) * i // count for i in range(1, count + 1)]
    return [(a, b - a) for a, b in zip(cuts, cuts[1:])]


def _kron(src: np.ndarray, dst: np.ndarray, factors) -> np.ndarray:
    """Apply H_{2^k} along bits [lo, lo + k) of the flat index for each factor.

    One matrix product per factor, from src into dst and back; src and dst
    are flat arrays of one size, both overwritten.  Returns the one that
    holds the result.
    """
    for lo, k in factors:
        h = _hadamard(k)
        if lo == 0:  # the lowest bits: one (M, 2^k) @ (2^k, 2^k) product
            np.matmul(src.reshape(-1, h.shape[0]), h, out=dst.reshape(-1, h.shape[0]))
        else:  # H @ (2^k, 2^lo) for every value of the bits above
            shape = (-1, h.shape[0], 1 << lo)
            np.matmul(h, src.reshape(shape), out=dst.reshape(shape))
        src, dst = dst, src
    return src


@cache
def _hadamard(k: int) -> np.ndarray:
    """The 2^k x 2^k Sylvester matrix, (-1)^popcount(x & z); read-only."""
    h = np.ones((1, 1))
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def _split_bits(n_bits: int) -> tuple[int, int]:
    """(H, L): the high and the low index bits of a table, L = ceil(n_bits / 2)."""
    return n_bits // 2, n_bits - n_bits // 2


def _split_table(n_bits: int, fill) -> np.ndarray:
    """A 2^n_bits float64 table, factored like the transform over a split of its bits.

    Index (h << L) | l is row h, column l of the table viewed as (2^H, 2^L),
    and fill(block, rows) writes the rows h in the slice `rows`, _BLOCK
    entries (at least one row), then works on them while they are in cache.
    """
    high, low = _split_bits(n_bits)
    table, step = np.empty((1 << high, 1 << low)), max(1, _BLOCK >> low)
    for lo in range(0, 1 << high, step):
        fill(table[lo:lo + step], slice(lo, lo + step))
    return table.reshape(-1)


def _size_rows(values: np.ndarray, n_bits: int):
    """fill for _split_table of values[popcount(A)]: row h is row |h| of the
    (H+1, 2^L) table values[i + |l|], so no 2^n_bits popcount array is built."""
    high, low = _split_bits(n_bits)
    by_size = values[np.arange(high + 1)[:, None] + popcounts(low)]
    sizes = popcounts(high)
    return lambda block, rows: np.take(by_size, sizes[rows], axis=0, out=block)


def popcounts(n_bits: int) -> np.ndarray:
    """Popcount of every index in [0, 2^n_bits) as a uint8 array, one byte per index.

    Built by doubling: the indices [2^k, 2^(k+1)) are those of [0, 2^k) with
    bit k set.
    """
    pc = np.zeros(1 << n_bits, dtype=np.uint8)
    for k in range(n_bits):
        np.add(pc[:1 << k], 1, out=pc[1 << k:2 << k])
    return pc


def iter_submasks(mask: int):
    """Yield every submask of ``mask`` (including 0 and mask itself)."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def bit_positions(mask: int) -> list[int]:
    """0-based positions of the set bits, ascending."""
    out = []
    pos = 0
    while mask:
        if mask & 1:
            out.append(pos)
        mask >>= 1
        pos += 1
    return out
