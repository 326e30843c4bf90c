"""Krawtchouk and probabilists' Hermite polynomials.

Krawtchouk polynomials Q_k(w; N, 1/2) are normalized so that Q_k(0) = 1
and are orthogonal on the Binomial(N, 1/2) distribution:

    sum_w binom(N,w) 2^-N Q_j(w) Q_k(w) = delta_jk / binom(N,k).

They are self-dual, Q_k(w) = Q_w(k), and satisfy the generating function

    sum_k binom(N,k) Q_k(w) phi^k = (1 - phi)^w (1 + phi)^(N - w),

which makes binom(N,k) Q_k(w) an integer.  The exact integer tables
(``KrawtchoukBasis``, ``krawtchouk_eval`` up to ``EXACT_N_LIMIT``) are the
references; floating-point consumers read ``krawtchouk_matrix`` (Q_k(w)),
one (N+1) x (N+1) float64 matrix cached per N: the pointwise Green functions
and the level-set representation.

Hermite polynomials H_k here are the probabilists' family,
H_{k+1}(t) = t H_k(t) - k H_{k-1}(t), generated by e^{wt - w^2/2}; the
limit layer reads the Hermite functions e^(-t^2/4) H_k(t) / sqrt(k!).
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, isfinite, sqrt

import numpy as np

from .errors import DomainError, NumericError

EXACT_N_LIMIT = 64


class KrawtchoukBasis:
    """Exact integer table of scaled Krawtchouk values for one dimension.

    ``scaled(k, w)`` is binom(N,k) * Q_k(w; N, 1/2), the coefficient of
    phi^k in (1 - phi)^w (1 + phi)^(N - w).  The table is immutable after
    construction and safe to share across threads.
    """

    def __init__(self, N: int):
        if N < 1:
            raise DomainError(f"dimension must be >= 1, got {N}")
        if N > EXACT_N_LIMIT:
            raise DomainError(
                f"exact tables are capped at N={EXACT_N_LIMIT}; use krawtchouk_row for larger N"
            )
        self.N = N
        rows = []
        for w in range(N + 1):
            coeffs = [1]
            for _ in range(w):
                coeffs = _poly_mul(coeffs, [1, -1])
            for _ in range(N - w):
                coeffs = _poly_mul(coeffs, [1, 1])
            rows.append(coeffs)
        # _by_w[w][k] = binom(N,k) Q_k(w)
        self._by_w = tuple(tuple(r) for r in rows)

    def scaled(self, k: int, w: int) -> int:
        """binom(N,k) * Q_k(w), exact."""
        self._check(k, w)
        return self._by_w[w][k]

    def q(self, k: int, w: int) -> Fraction:
        """Q_k(w; N, 1/2) as an exact rational."""
        self._check(k, w)
        return Fraction(self._by_w[w][k], comb(self.N, k))

    def _check(self, k, w):
        if not (0 <= k <= self.N and 0 <= w <= self.N):
            raise DomainError(
                f"degree and argument must lie in [0, {self.N}], got k={k}, w={w}"
            )


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def krawtchouk_eval(k: int, w: int, N: int):
    """Q_k(w; N, 1/2), exact Fraction for N <= 64, float beyond.

    Evaluates binom(N,k)^-1 sum_j (-1)^j binom(w,j) binom(N-w,k-j).
    """
    if not (0 <= k <= N and 0 <= w <= N):
        raise DomainError(f"need 0 <= k, w <= N, got k={k}, w={w}, N={N}")
    if N <= EXACT_N_LIMIT:
        num = sum((-1) ** j * comb(w, j) * comb(N - w, k - j) for j in range(k + 1))
        return Fraction(num, comb(N, k))
    return float(krawtchouk_matrix(N)[w, k])


def binomial_pmf(N: int) -> np.ndarray:
    """binom(N,k) 2^-N for k = 0..N, each entry correctly rounded.

    A running exact-integer binom(N,k) divided by the integer 2^N: Python's
    int / int true division rounds once, so no entry carries more than half
    an ulp (entries below the float range come out 0.0).
    """
    if N < 0:
        raise DomainError(f"dimension must be >= 0, got {N}")
    out = np.empty(N + 1)
    denom, c = 1 << N, 1
    for k in range(N + 1):
        out[k] = c / denom
        c = c * (N - k) // (k + 1)
    return out


def krawtchouk_row(N: int, w: int) -> np.ndarray:
    """Q_k(w; N, 1/2) for k = 0..N in floating point: a read-only row of
    krawtchouk_matrix(N)."""
    if not 0 <= w <= N:
        raise DomainError(f"argument must lie in [0, {N}], got {w}")
    return krawtchouk_matrix(N)[w]


@lru_cache(maxsize=8)
def krawtchouk_matrix(N: int) -> np.ndarray:
    """Q_k(w; N, 1/2) with rows w = 0..N and columns k = 0..N (read-only).

    The raw degree recurrence (N-k) Q_{k+1} = (N-2w) Q_k - k Q_{k-1} loses
    accuracy as k approaches N (division by N-k), so this runs the recurrence
    in the argument, valid by self-duality Q_k(w) = Q_w(k), for all degrees at
    once up to w = N/2, each step dividing by at least N/2; the rows past N/2
    are reflections, Q_k(N-w) = (-1)^k Q_k(w).
    """
    if N < 1:
        raise DomainError(f"dimension must be >= 1, got {N}")
    ks = np.arange(N + 1, dtype=float)
    half = N // 2
    Q = np.empty((N + 1, N + 1))
    Q[0] = 1.0
    if half >= 1:
        Q[1] = 1.0 - 2.0 * ks / N
    for j in range(1, half):
        Q[j + 1] = ((N - 2.0 * ks) * Q[j] - j * Q[j - 1]) / (N - j)
    Q[half + 1:] = Q[N - half - 1::-1] * np.where(np.arange(N + 1) % 2 == 0, 1.0, -1.0)
    Q.flags.writeable = False
    return Q


def hermite_all(max_degree: int, t: float) -> np.ndarray:
    """H_0(t)..H_K(t) in one iterative pass of the three-term recurrence.

    H_k(t) grows with k like sqrt(k!) e^(t^2/4): a value past the float
    range (H_400(30) is -2.1e531) raises NumericError.
    """
    if max_degree < 0:
        raise DomainError(f"degree must be >= 0, got {max_degree}")
    if not isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    h = np.empty(max_degree + 1)
    h[0] = 1.0
    if max_degree >= 1:
        h[1] = t
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for k in range(1, max_degree):
            h[k + 1] = t * h[k] - k * h[k - 1]
    if not np.isfinite(h).all():
        raise NumericError(f"H_k({t}) for k <= {max_degree} is past the float range")
    return h


def hermite_eval(k: int, t: float) -> float:
    """H_k(t), probabilists' normalization."""
    return float(hermite_all(k, t)[k])


def hermite_functions(max_degree: int, t) -> np.ndarray:
    """e^(-t^2/4) H_k(t) / sqrt(k!) for k = 0..max_degree, overflow-free.

    For an array of t the result has one row per t and one column per k.
    Recurrence h_{k+1} = (t h_k - sqrt(k) h_{k-1}) / sqrt(k+1) from
    h_0 = e^(-t^2/4): every value stays within 1.09 (Cramer's inequality),
    so no t overflows; a row underflows to 0 only past |t| ~ 55.
    """
    if max_degree < 0:
        raise DomainError(f"degree must be >= 0, got {max_degree}")
    t = np.asarray(t, dtype=float)
    h = np.empty((max_degree + 1,) + t.shape)
    h[0] = np.exp(-0.25 * t * t)
    if max_degree >= 1:
        h[1] = t * h[0]
    for k in range(1, max_degree):
        h[k + 1] = (t * h[k] - sqrt(k) * h[k - 1]) / sqrt(k + 1)
    return np.ascontiguousarray(np.moveaxis(h, 0, -1))
