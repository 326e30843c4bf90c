"""Text output: float64 arrays written exactly as ``float.__repr__`` writes
them, and one chunked table writer for CSV files and JSON row arrays.

The shortest round-trip digits come from Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020), run on uint64 arrays: its
64 x 128-bit products are done in 32-bit limbs, and its table of 10^-k is
built once from Python ints.  The digits are then laid out in a uint8
character array, one column per value and NUL bytes where a character is
not in use, so a chunk of a table is written by one transpose and one
compaction.  Values the kernel leaves undecided (subnormals, infinities, NaN
and exact midpoints between two shortest candidates) are written by
``float.__repr__`` itself.

``float.__repr__`` writes the shortest digits that read back to the same
float, the nearest such if there are two; it uses fixed notation for
decimal exponents -4 <= e < 16 and scientific notation otherwise, with at
least two exponent digits.  JSON writes non-finite floats as ``NaN``,
``Infinity`` and ``-Infinity``, as ``json.dumps`` does.

Tables are written CHUNK_ROWS rows at a time, so the writer's working set
does not grow with the table: 2.0 MiB (tracemalloc) for a field table of
2^20 rows.  2^13 and 2^14 rows were the fastest chunks of 2^11 .. 2^15,
within noise of each other (2^18 rows, 2-core VM), and 2^13 takes half the
memory.  Smaller chunks pay numpy's cost per call more often; larger ones
pay page faults on temporaries that freed memory no longer serves.
"""

from functools import cache
from typing import Callable, NamedTuple

import numpy as np

CHUNK_ROWS = 1 << 13
_REPR_WIDTH = 24  # len(repr(-2.2250738585072014e-308)), the longest repr of a float64

_K_MIN, _K_MAX = -324, 292  # floor(q log10 2) over the binary exponents q of float64
_DIGITS = 17  # the shortest decimal of a normal float64 has at most 17 digits
_LOW32 = np.uint64(0xFFFFFFFF)
_LOW63 = np.uint64((1 << 63) - 1)
_U = np.uint64


def _flog10pow2(q):
    """floor(q log10 2), exact for |q| <= 5456721 (Giulietti's MathUtils)."""
    return (q * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(q):
    """floor(log10(3/4 2^q)), exact on the same range."""
    return (q * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(e log2 10), exact for |e| <= 1233."""
    return (e * 217_706) >> 16


@cache
def _pow10_table() -> np.ndarray:
    """(5, 617) uint64, column k + 324 for k = -324 .. 292: g1, the low and
    high 32 bits of g1, and those of g0, where g1 2^63 + g0 = g(k) =
    floor(10^-k 2^-r) + 1 and r puts g(k) in [2^125, 2^126)."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)  # 10^-k 2^shift lies in [2^125, 2^126)
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        if shift >= 0:
            num <<= shift
        else:
            den <<= -shift
        g = num // den + 1
        g1, g0 = g >> 63, g & ((1 << 63) - 1)
        rows.append((g1, g1 & 0xFFFFFFFF, g1 >> 32, g0 & 0xFFFFFFFF, g0 >> 32))
    return np.array(rows, dtype=np.uint64).T.copy()


def _mulhi(a0, a1, b0, b1):
    """floor(a b / 2^64) for a = a1 2^32 + a0 and b = b1 2^32 + b0, limbs below 2^32."""
    t = a0 * b0
    u = a1 * b0 + (t >> 32)  # neither sum passes 2^64
    w = a0 * b1 + (u & _LOW32)
    return a1 * b1 + (u >> 32) + (w >> 32)


def _round_to_odd(g, cp):
    """Schubfach's rop(g cp 2^-127), as Giulietti computes it: the integer
    part of the product, with its last bit set when bits 64..126 are not all
    zero.  The bits below 64 are dropped, so the rounding error of g is too."""
    g1, g1_lo, g1_hi, g0_lo, g0_hi = g
    cp_lo, cp_hi = cp & _LOW32, cp >> 32
    x1 = _mulhi(g0_lo, g0_hi, cp_lo, cp_hi)
    y0 = g1 * cp  # the low 64 bits
    y1 = _mulhi(g1_lo, g1_hi, cp_lo, cp_hi)
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | ((z & _LOW63) != 0)


def shortest_decimal(values: np.ndarray):
    """The shortest decimal D 10^e that reads back to |v|, for each float64 v.

    Returns (D, e, ok): D < 10^17 as uint64 and e as int64.  ok is False
    where the kernel leaves the row to ``float.__repr__``: zeros, subnormals,
    non-finite values, and exact ties between the two nearest shortest
    candidates.  Otherwise D 10^e is the nearest shortest decimal in the
    rounding interval of v, which is what ``float.__repr__`` writes.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    t = bits & _U((1 << 52) - 1)
    bq = (bits >> 52).astype(np.int64) & 0x7FF
    ok = (bq != 0) & (bq != 0x7FF)
    q = bq - 1075  # v = c 2^q with c = 2^52 + t; rows not ok still index the table
    k = _flog10pow2(q)
    # at t = 0 the gap below v is half the gap above it
    irregular = np.flatnonzero((t == 0) & (bq > 1))
    k[irregular] = _flog10_three_quarters_pow2(q[irregular])
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g = np.take(_pow10_table(), k - _K_MIN, axis=1)
    cb = (t | _U(1 << 52)) << _U(2)
    half_gap_below = np.full(cb.shape, 2, dtype=np.uint64)  # in units of 2^(q-2)
    half_gap_below[irregular] = 1
    # 4 v 10^-k, and the low and high ends of the rounding interval of v
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - half_gap_below) << h)
    vbr = _round_to_odd(g, (cb + _U(2)) << h)
    out = t & _U(1)  # the interval is closed when c is even
    vbl += out
    vbr -= out
    s = vb >> 2
    s4 = s << 2
    sp40 = s // _U(10) * _U(40)
    # one digit shorter: s' 10^(k+1) or (s'+1) 10^(k+1), if exactly one is inside
    upin = vbl <= sp40
    shorter = upin != (sp40 + _U(40) <= vbr)
    # else s 10^k or (s+1) 10^k: the one inside, or the nearer if both are
    uin = vbl <= s4
    one = uin != (s4 + _U(4) <= vbr)
    frac = vb - s4  # 4 (v 10^-k - s), rounded to odd
    below = frac < 2
    take_s = below ^ (one & (uin ^ below))
    full = s + ~take_s
    digits = full + (sp40 // _U(4) + _U(10) * ~upin - full) * shorter
    ok &= shorter | one | (frac != 2)
    return digits, k, ok


def _digit_rows(n: np.ndarray, width: int) -> np.ndarray:
    """(width, count) uint8: the ASCII digits of each n < 10^width, zero padded."""
    out = np.empty((width, n.size), dtype=np.uint8)
    for row in range(width - 1, -1, -1):
        q = n // _U(10)
        out[row] = n - q * _U(10)
        n = q
    out += ord("0")
    return out


def _json_float(v: float) -> str:
    """json.dumps of one float: NaN, Infinity and -Infinity for the non-finite."""
    if v != v:
        return "NaN"
    if v in (float("inf"), float("-inf")):
        return "Infinity" if v > 0 else "-Infinity"
    return float.__repr__(v)


# a float: its sign, at most 22 mantissa characters ("0.000" and 17 digits),
# then "e", the exponent's sign and three digits
_MANTISSA = 22
_FLOAT_ROWS = 1 + _MANTISSA + 5


def float_text(values: np.ndarray, json: bool = False) -> np.ndarray:
    """Each float64 as ``float.__repr__`` writes it (as json.dumps if json).

    Column j of the (28, count) uint8 result holds the characters of value j
    from the top down, with NUL bytes between and after them.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    size = values.size
    digits, exp, ok = shortest_decimal(values)
    zero = np.flatnonzero(values == 0.0)
    ok[zero] = True
    digits[zero] = 10 ** (_DIGITS - 1)
    exp[zero] = 1 - _DIGITS  # "1.0", whose digit is then replaced by "0"
    # 17 digits, the first nonzero; the decimal point follows digit decpt
    short = digits < _U(10 ** (_DIGITS - 1))
    digits *= _U(1) + _U(9) * short
    decpt = (exp - short + _DIGITS).astype(np.int16)
    dig = _digit_rows(digits, _DIGITS)
    dig[0, zero] = ord("0")
    # significant digits: through the last nonzero one
    count = ((dig != ord("0")) * np.arange(1, _DIGITS + 1, dtype=np.int8)[:, None]).max(axis=0)
    count[zero] = 1
    scientific = (decpt < -3) | (decpt > 16)
    # the mantissa is `lead` zeros and the digits, with a point after `point`
    # of them: 0.0ddd has lead 2 and point 1, ddd.d lead 0 and point 3, and
    # d.ddde+XX lead 0 and point 1.  It shows the digits through the last
    # significant one, and in ddd.d at least one digit after the point
    whole = ~scientific & (decpt > 0)
    fraction = ~scientific & ~whole
    small = decpt.astype(np.int8)  # exact in fixed notation, where it lies in [-3, 16]
    lead = (1 - small) * fraction
    point = small * whole + ~whole
    shown = lead + np.maximum(count, (small + 1) * whole)
    padded = np.full((5 + _MANTISSA, size), ord("0"), dtype=np.uint8)
    padded[5:5 + _DIGITS] = dig
    mantissa = np.zeros((1 + _MANTISSA, size), dtype=np.uint8)  # row 0 unused
    for n_lead in range(5):
        rows = lead == n_lead
        if rows.any():
            mantissa[1:] += padded[5 - n_lead:5 - n_lead + _MANTISSA] * rows.view(np.uint8)
    # the point at row `point`; past it, each row holds the mantissa character
    # one above it.  A character is in use if its mantissa index is below `shown`
    at = np.arange(_MANTISSA, dtype=np.int8)[:, None]
    after = at > point
    text = np.zeros((_FLOAT_ROWS, size), dtype=np.uint8)
    text[0] = ord("-") * np.signbit(values)
    body = text[1:1 + _MANTISSA]
    body[:] = mantissa[1:] + (mantissa[:-1] - mantissa[1:]) * after.view(np.uint8)
    body += (ord(".") - body) * (at == point).view(np.uint8)
    body *= (at < shown + after).view(np.uint8)
    sci = np.flatnonzero(scientific & ok)
    if sci.size:
        e = decpt[sci] - 1
        tail = 1 + _MANTISSA
        text[tail, sci] = ord("e")
        text[tail + 1, sci] = np.where(e < 0, ord("-"), ord("+"))
        text[tail + 2:, sci] = _digit_rows(np.abs(e).astype(np.uint64), 3)
        text[tail + 2, sci] *= np.abs(e) >= 100
    rest = np.flatnonzero(~ok)
    if rest.size:
        render = _json_float if json else float.__repr__
        strings = np.array([render(v).encode() for v in values[rest].tolist()],
                           dtype=f"S{_REPR_WIDTH}")
        text[:, rest] = 0
        text[:_REPR_WIDTH, rest] = strings.view(np.uint8).reshape(rest.size, _REPR_WIDTH).T
    return text


def int_text(values: np.ndarray) -> np.ndarray:
    """Each integer in decimal: (1 + digits, count) uint8, NUL where unused."""
    values = np.asarray(values, dtype=np.int64)
    magnitude = np.abs(values).astype(np.uint64)  # -2^63 too: its abs wraps to 2^63
    width = len(str(int(magnitude.max()))) if values.size else 1
    text = np.empty((1 + width, values.size), dtype=np.uint8)
    text[0] = ord("-") * (values < 0)
    digits = _digit_rows(magnitude, width)
    # leading zeros are not in use; the last digit always is
    used = np.logical_or.accumulate(digits[:-1] != ord("0"), axis=0)
    digits[:-1] *= used.view(np.uint8)
    text[1:] = digits
    return text


class BitStrings(NamedTuple):
    """A column of integers written as `width` binary digits, high bit first."""
    values: np.ndarray
    width: int


def bits_text(column: BitStrings) -> np.ndarray:
    shifts = np.arange(column.width - 1, -1, -1, dtype=np.int64)[:, None]
    return ((np.asarray(column.values, dtype=np.int64) >> shifts) & 1).astype(np.uint8) + ord("0")


class Text(NamedTuple):
    """A column already rendered: a (characters, rows) uint8 array from
    float_text or int_text, NUL where unused."""
    text: np.ndarray


class Table(NamedTuple):
    """`rows` rows under `header`.  chunk(lo, hi) gives the columns of rows
    lo .. hi-1: float64 arrays (written as float.__repr__ writes them),
    integer arrays, BitStrings or Text."""
    header: tuple
    rows: int
    chunk: Callable


def columns(header, *cols) -> Table:
    """A table of whole columns, each a float64 or integer array."""
    cols = [np.asarray(c) for c in cols]
    return Table(tuple(header), len(cols[0]), lambda lo, hi: [c[lo:hi] for c in cols])


def _constant(text: str, count: int) -> np.ndarray:
    return np.broadcast_to(np.frombuffer(text.encode(), dtype=np.uint8)[:, None],
                           (len(text), count))


def _column_text(column, json: bool) -> np.ndarray:
    if isinstance(column, Text):
        return column.text
    if isinstance(column, BitStrings):
        text = bits_text(column)
        if json:
            quote = _constant('"', text.shape[1])
            text = np.concatenate([quote, text, quote])
        return text
    if column.dtype.kind == "f":
        return float_text(column, json)
    return int_text(column)


def _write_rows(fh, pieces) -> None:
    """Write the rows of the stacked (characters, rows) pieces, NULs dropped."""
    text = np.concatenate(pieces)
    # positions no row of the chunk uses are dropped before the transpose
    rows = text[text.any(axis=1)].T.copy()
    fh.write(rows[rows != 0])


def _chunks(rows: int):
    for lo in range(0, rows, CHUNK_ROWS):
        yield lo, min(lo + CHUNK_ROWS, rows)


def write_csv(fh, table: Table) -> None:
    """The table as csv.writer writes it with floats as float.__repr__: no
    field here needs quoting, and rows end in \\r\\n.  fh is a binary file."""
    fh.write((",".join(table.header) + "\r\n").encode())
    for lo, hi in _chunks(table.rows):
        pieces = []
        for i, column in enumerate(table.chunk(lo, hi)):
            if i:
                pieces.append(_constant(",", hi - lo))
            pieces.append(_column_text(column, json=False))
        pieces.append(_constant("\r\n", hi - lo))
        _write_rows(fh, pieces)


def write_json_rows(fh, table: Table) -> None:
    """The table's rows as json.dumps writes a list of lists (", " and no
    indent).  fh is a binary file."""
    fh.write(b"[")
    for lo, hi in _chunks(table.rows):
        between = np.full((2, hi - lo), np.frombuffer(b", ", dtype=np.uint8)[:, None])
        if lo == 0:
            between[:, 0] = 0
        pieces = [between, _constant("[", hi - lo)]
        for i, column in enumerate(table.chunk(lo, hi)):
            if i:
                pieces.append(_constant(", ", hi - lo))
            pieces.append(_column_text(column, json=True))
        pieces.append(_constant("]", hi - lo))
        _write_rows(fh, pieces)
    fh.write(b"]")
