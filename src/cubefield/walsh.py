"""Fast Walsh-Hadamard transform and bitmask utilities.

Vertices of {0,1}^N and subsets A of [N] share one encoding: an N-bit
integer whose bit j-1 carries entry/index j.  The character of subset A
evaluated at vertex x is (-1)^popcount(A & x), so every spectral sum in
this package is a Walsh-Hadamard transform of some coefficient vector.
"""

import numpy as np

from .errors import DomainError


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

    Radix-2 butterflies at strides h = 1, 2, 4, ...; each stage saves the top
    halves in one half-length scratch buffer, so every output is the same
    add or subtract of the same two floats as an out-of-place stage.
    """
    n = a.shape[-1]
    if n == 0 or (n & (n - 1)) != 0:
        raise DomainError(f"transform length must be a power of two, got {n}")
    if a.dtype != np.float64 or not a.flags.c_contiguous:
        raise ValueError("in-place transform needs a C-contiguous float64 array")
    rows = a.size // n
    scratch = np.empty(a.size // 2)
    h = 1
    while h < n:
        b = a.reshape(rows, n // (2 * h), 2, h)
        top, bot = b[:, :, 0, :], b[:, :, 1, :]
        t = scratch.reshape(rows, n // (2 * h), h)
        np.copyto(t, top)
        np.add(t, bot, out=top)
        np.subtract(t, bot, out=bot)
        h *= 2


def popcounts(n_bits: int) -> np.ndarray:
    """Popcount of every index in [0, 2^n_bits) as an int64 array."""
    return np.bitwise_count(np.arange(1 << n_bits, dtype=np.uint64)).astype(np.int64)


def subset_signs(mask: int, n_bits: int) -> np.ndarray:
    """(-1)^popcount(A & mask) for every subset index A in [0, 2^n_bits)."""
    pc = np.bitwise_count(np.arange(1 << n_bits, dtype=np.uint64) & np.uint64(mask))
    return 1.0 - 2.0 * (pc.astype(np.int64) & 1)


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
