"""Fast Walsh-Hadamard transform and bitmask utilities.

Vertices of {0,1}^N and subsets A of [N] share one encoding: an N-bit
integer whose bit j-1 carries entry/index j.  The character of subset A
evaluated at vertex x is (-1)^popcount(A & x), so every spectral sum in
this package is a Walsh-Hadamard transform of some coefficient vector.
"""

import numpy as np

from .errors import DomainError

_BLOCK = 1 << 15  # float64 entries per cache block (256 KiB)
_LOW = 16  # strides below this run on a transposed copy of the block


def fwht(values: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform along the last axis, O(N * 2^N).

    Returns W with W[..., x] = sum_z (-1)^popcount(x & z) * values[..., z].
    The transform matrix is symmetric and W(W(v)) = 2^N * v.  The input is
    never written: the butterflies run on a float64 copy.
    """
    a = np.array(values, dtype=np.float64, copy=True)
    _fwht_inplace(a)
    return a


def _fwht_inplace(a: np.ndarray) -> None:
    """fwht of a C-contiguous float64 array, overwriting it.

    The radix-2 butterflies run at strides h = 1, 2, 4, ... in that order, in
    three passes over blocks of _BLOCK entries (256 KiB) that stay in cache:

    1. strides below _LOW, on a transposed copy of each block, so that every
       inner loop runs over the block's columns rather than over h entries;
    2. strides from _LOW up to the block length, in place on each block;
    3. strides of a block length and more (rows longer than _BLOCK): each row
       is viewed as (n / _BLOCK, _BLOCK) and transformed down its columns,
       one slab of columns at a time, through the same copy buffer.

    Every output is the same add or subtract of the same two floats as in an
    out-of-place stage.  Two buffers, of at most _BLOCK and _BLOCK / 2
    entries, serve all passes (they grow only for rows longer than _BLOCK^2).
    """
    n = a.shape[-1]
    if n == 0 or (n & (n - 1)) != 0:
        raise DomainError(f"transform length must be a power of two, got {n}")
    if a.dtype != np.float64 or not a.flags.c_contiguous:
        raise ValueError("in-place transform needs a C-contiguous float64 array")
    flat = a.reshape(-1)
    span = min(n, _BLOCK)  # transform length inside one block
    low = min(n, _LOW)
    slabs = n // span
    buf = np.empty(max(min(flat.size, _BLOCK), slabs))
    scratch = np.empty(buf.size // 2)
    for start in range(0, flat.size, _BLOCK):  # whole rows, or a part of one row
        block = flat[start:start + _BLOCK]
        cols = block.size // low
        t = buf[:block.size].reshape(low, cols)
        np.copyto(t, block.reshape(cols, low).T)
        _butterflies(t.reshape(1, low, cols), scratch)
        np.copyto(block.reshape(cols, low).T, t)
        _butterflies(block.reshape(-1, span // low, low), scratch)
    if slabs > 1:
        width = max(1, _BLOCK // slabs)
        t = buf[:slabs * width].reshape(1, slabs, width)
        for row in flat.reshape(-1, slabs, span):
            for j in range(0, span, width):
                slab = row[:, j:j + width]
                np.copyto(t[0], slab)
                _butterflies(t, scratch)
                np.copyto(slab, t[0])


def _butterflies(v: np.ndarray, scratch: np.ndarray) -> None:
    """Every radix-2 stage along the middle axis of a C-contiguous (outer, R, inner) array.

    Each stage saves the top halves in ``scratch``, then writes top + bottom
    over the top and top - bottom over the bottom.
    """
    outer, r, inner = v.shape
    h = 1
    while h < r:
        b = v.reshape(outer, r // (2 * h), 2, h * inner)
        top, bot = b[:, :, 0], b[:, :, 1]
        t = scratch[:top.size].reshape(top.shape)
        np.copyto(t, top)
        np.add(t, bot, out=top)
        np.subtract(t, bot, out=bot)
        h *= 2


def popcounts(n_bits: int) -> np.ndarray:
    """Popcount of every index in [0, 2^n_bits) as a uint8 array, one byte per index.

    Built by doubling: the indices [2^k, 2^(k+1)) are those of [0, 2^k) with
    bit k set.
    """
    pc = np.zeros(1 << n_bits, dtype=np.uint8)
    for k in range(n_bits):
        np.add(pc[:1 << k], 1, out=pc[1 << k:2 << k])
    return pc


def signed_sum(table: np.ndarray, mask: int) -> float:
    """sum_A table[A] (-1)^popcount(A & mask), folding the 2^n table in place.

    From the top bit down, the upper half is added to the lower half, or
    subtracted where the bit of mask is set; table[0] ends up holding the
    sum.  O(2^n) work and no second array, where a sign vector would cost
    2^n words.  The table is overwritten.
    """
    h = table.shape[0] >> 1
    while h:
        lo, hi = table[:h], table[h:2 * h]
        if mask & h:
            lo -= hi
        else:
            lo += hi
        h >>= 1
    return float(table[0])


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
