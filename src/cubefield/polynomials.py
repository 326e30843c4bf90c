"""Krawtchouk and probabilists' Hermite polynomials.

Krawtchouk polynomials Q_k(w; N, 1/2) are normalized so that Q_k(0) = 1
and are orthogonal on the Binomial(N, 1/2) distribution:

    sum_w binom(N,w) 2^-N Q_j(w) Q_k(w) = delta_jk / binom(N,k).

They are self-dual, Q_k(w) = Q_w(k), and satisfy the generating function

    sum_k binom(N,k) Q_k(w) phi^k = (1 - phi)^w (1 + phi)^(N - w),

which makes binom(N,k) Q_k(w) an integer.  Tables are exact up to
``EXACT_N_LIMIT``; larger dimensions fall back to a stable three-term
recurrence in floating point.

Hermite polynomials H_k here are the probabilists' family,
H_{k+1}(t) = t H_k(t) - k H_{k-1}(t), generated by e^{wt - w^2/2}.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, log, sqrt

import numpy as np
from scipy.special import gammaln

from .errors import DomainError

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

    def q_row(self, w: int) -> np.ndarray:
        """Q_k(w) for k = 0..N as float64."""
        self._check(0, w)
        return np.array(
            [self._by_w[w][k] / comb(self.N, k) for k in range(self.N + 1)]
        )

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


@lru_cache(maxsize=8)
def cached_basis(N: int) -> KrawtchoukBasis:
    """Shared immutable basis table for dimension N."""
    return KrawtchoukBasis(N)


def krawtchouk_eval(k: int, w: int, N: int):
    """Q_k(w; N, 1/2), exact Fraction for N <= 64, float beyond.

    Evaluates binom(N,k)^-1 sum_j (-1)^j binom(w,j) binom(N-w,k-j).
    """
    if not (0 <= k <= N and 0 <= w <= N):
        raise DomainError(f"need 0 <= k, w <= N, got k={k}, w={w}, N={N}")
    if N <= EXACT_N_LIMIT:
        num = sum((-1) ** j * comb(w, j) * comb(N - w, k - j) for j in range(k + 1))
        return Fraction(num, comb(N, k))
    return float(krawtchouk_row(N, w, k)[k])


def binomial_pmf(N: int) -> np.ndarray:
    """binom(N,k) 2^-N for k = 0..N: exact integers up to EXACT_N_LIMIT, log-gamma beyond."""
    if N <= EXACT_N_LIMIT:
        return np.array([comb(N, k) for k in range(N + 1)], dtype=float) * 0.5 ** N
    k = np.arange(N + 1)
    return np.exp(gammaln(N + 1) - gammaln(k + 1) - gammaln(N - k + 1) - N * log(2.0))


def krawtchouk_column(N: int, w: int) -> np.ndarray:
    """Q_k(w; N, 1/2) for k = 0..N: the exact table up to EXACT_N_LIMIT, the recurrence beyond."""
    if N <= EXACT_N_LIMIT:
        return cached_basis(N).q_row(w)
    return krawtchouk_row(N, w)


def krawtchouk_row(N: int, w: int, max_degree: int | None = None) -> np.ndarray:
    """Q_k(w; N, 1/2) for k = 0..max_degree in floating point.

    The raw degree recurrence (N-k) Q_{k+1} = (N-2w) Q_k - k Q_{k-1} loses
    accuracy as k approaches N (division by N-k), so this evaluates via
    self-duality Q_k(w) = Q_w(k): run the recurrence up the *small* index
    after reflecting w -> N-w (Q_k(N-w) = (-1)^k Q_k(w)) so at most N/2
    steps are ever taken, each dividing by at least N/2.
    """
    if not 0 <= w <= N:
        raise DomainError(f"argument must lie in [0, {N}], got {w}")
    K = N if max_degree is None else max_degree
    if not 0 <= K <= N:
        raise DomainError(f"degree must lie in [0, {N}], got {K}")
    reflect = w > N // 2
    w_eff = N - w if reflect else w
    ks = np.arange(K + 1, dtype=float)
    prev = np.ones(K + 1)
    if w_eff == 0:
        out = prev
    else:
        cur = 1.0 - 2.0 * ks / N
        for j in range(1, w_eff):
            prev, cur = cur, ((N - 2.0 * ks) * cur - j * prev) / (N - j)
        out = cur
    if reflect:
        out = out * np.where(np.arange(K + 1) % 2 == 0, 1.0, -1.0)
    return out


def krawtchouk_weighted_row(N: int, w: int, max_degree: int | None = None,
                            dtype=np.float64) -> np.ndarray:
    """sqrt(binom(N,k)) * Q_k(w; N, 1/2) for k = 0..max_degree.

    Uses the recurrence

        r_{k+1} = [(N - 2w) r_k - sqrt(k (N-k+1)) r_{k-1}] / sqrt((k+1)(N-k)),

    which keeps every intermediate O(1) near w ~ N/2 where the plain
    product binom * Q would overflow for large N.
    """
    if not 0 <= w <= N:
        raise DomainError(f"argument must lie in [0, {N}], got {w}")
    K = N if max_degree is None else max_degree
    if not 0 <= K <= N:
        raise DomainError(f"degree must lie in [0, {N}], got {K}")
    one = dtype(1.0)
    r = np.empty(K + 1, dtype=dtype)
    r[0] = one
    if K >= 1:
        r[1] = (N - 2 * one * w) / np.sqrt(N * one)
    for k in range(1, K):
        r[k + 1] = ((N - 2 * one * w) * r[k]
                    - np.sqrt(k * (N - k + one)) * r[k - 1]) / np.sqrt((k + one) * (N - k))
    return r


def hermite_all(max_degree: int, t: float) -> np.ndarray:
    """H_0(t)..H_K(t) in one iterative pass of the three-term recurrence."""
    if max_degree < 0:
        raise DomainError(f"degree must be >= 0, got {max_degree}")
    h = np.empty(max_degree + 1)
    h[0] = 1.0
    if max_degree >= 1:
        h[1] = t
    for k in range(1, max_degree):
        h[k + 1] = t * h[k] - k * h[k - 1]
    return h


def hermite_eval(k: int, t: float) -> float:
    """H_k(t), probabilists' normalization."""
    return float(hermite_all(k, t)[k])


def hermite_weighted_all(max_degree: int, t: float) -> np.ndarray:
    """H_k(t) / sqrt(k!) for k = 0..max_degree, overflow-free.

    Recurrence h_{k+1} = (t h_k - sqrt(k) h_{k-1}) / sqrt(k+1); values stay
    bounded by ~1.1 e^{t^2/4} for all k.
    """
    if max_degree < 0:
        raise DomainError(f"degree must be >= 0, got {max_degree}")
    h = np.empty(max_degree + 1)
    h[0] = 1.0
    if max_degree >= 1:
        h[1] = t
    for k in range(1, max_degree):
        h[k + 1] = (t * h[k] - sqrt(k) * h[k - 1]) / sqrt(k + 1)
    return h
