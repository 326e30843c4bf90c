"""Independent reference routes the benchmark checks the program against.

Nothing here imports cubefield.  The exchangeable Green functions are
evaluated from the spectral closed form in exact integer arithmetic: the
Krawtchouk numbers K_k(d) = binom(N,k) Q_k(d) are integers, and the
weights (1 + c (1 - rho_k))^-1 are carried as fixed-point integers with
PREC fractional bits, so the alternating sums that cancel in float64 are
exact here up to a final rounding.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, erfc, pi, sqrt

import numpy as np

PREC = 2048  # fixed-point bits; the worst cancellation below is ~3^N * 2^N at N = 400
ONE = 1 << PREC


# ---------------------------------------------------------------------------
# exchangeable spectra as exact rationals / fixed point


def rational(x) -> Fraction:
    """The decimal a parameter was written as (0.3 -> 3/10), not its binary double."""
    return Fraction(repr(float(x)))


def rho_fixed(model: tuple, N: int) -> list[int]:
    """rho_k * 2^PREC for k = 0..N.

    model is ("iid", p), ("singleflip",), ("mflip", m) or ("beta", a, b)
    with integer a, b.
    """
    kind = model[0]
    if kind == "iid":
        xi = 1 - 2 * rational(model[1])
        return [_fix(xi ** k) for k in range(N + 1)]
    if kind == "singleflip":
        return [_fix(1 - Fraction(2 * k, N)) for k in range(N + 1)]
    if kind == "mflip":
        # rho_k = Q_m(k) = K_m(k) / binom(N, m)
        K = krawtchouk_matrix(N)
        return [_fix(Fraction(K[model[1]][k], comb(N, model[1]))) for k in range(N + 1)]
    if kind == "beta":
        a, b = int(model[1]), int(model[2])
        # E[w^j] = (a)_j / (a+b)_j, then rho_k = sum_j binom(k,j) (-2)^j E[w^j]
        moments, m = [], Fraction(1)
        for j in range(N + 1):
            moments.append(_fix(m))
            m *= Fraction(a + j, a + b + j)
        return [sum(comb(k, j) * (-2) ** j * moments[j] for j in range(k + 1))
                for k in range(N + 1)]
    raise ValueError(f"unknown reference model {model!r}")


def _fix(q: Fraction) -> int:
    return (q.numerator << PREC) // q.denominator


def weights_fixed(model: tuple, N: int, alpha: float) -> list[int]:
    """(1 + c (1 - rho_k))^-1 * 2^PREC with c = alpha / (1 - alpha)."""
    a = rational(alpha)
    c = a / (1 - a)
    return [(c.denominator << (2 * PREC)) // (c.denominator * ONE + c.numerator * (ONE - r))
            for r in rho_fixed(model, N)]


@lru_cache(maxsize=16)
def krawtchouk_matrix(N: int) -> tuple:
    """K[k][d] = binom(N,k) Q_k(d), the coefficient of phi^k in (1-phi)^d (1+phi)^(N-d).

    Built by the integer recurrence (k+1) K_{k+1} = (N-2d) K_k - (N-k+1) K_{k-1}.
    """
    cols = []
    for d in range(N + 1):
        col = [1, N - 2 * d]
        for k in range(1, N):
            col.append(((N - 2 * d) * col[k] - (N - k + 1) * col[k - 1]) // (k + 1))
        cols.append(col[: N + 1])
    return tuple(tuple(cols[d][k] for d in range(N + 1)) for k in range(N + 1))


class ExactGreen:
    """(1-alpha) G for an exchangeable walk, evaluated exactly.

    point(d) is the pointwise value at Hamming distance d; level(u, v) is
    P(||X_T|| = v | ||X_0|| = u).  Both are exact to the final rounding.
    """

    def __init__(self, model: tuple, N: int, alpha: float):
        self.N = N
        self.K = krawtchouk_matrix(N)
        self.W = weights_fixed(model, N, alpha)
        self.rho = rho_fixed(model, N)
        self._scale = 1 << (PREC + N)
        self._point = {}

    def rho_k(self, k: int) -> float:
        return self.rho[k] / ONE

    def weight(self, k: int) -> float:
        return self.W[k] / ONE

    def point(self, d: int) -> float:
        if d not in self._point:
            K = self.K
            self._point[d] = sum(K[k][d] * self.W[k] for k in range(self.N + 1)) / self._scale
        return self._point[d]

    def level(self, u: int, v: int) -> float:
        K = self.K
        # binom(N,v) Q_k(v) Q_k(u) binom(N,k) = K_k(u) K_v(k) by self-duality
        return sum(self.W[k] * K[k][u] * K[v][k] for k in range(self.N + 1)) / self._scale


# ---------------------------------------------------------------------------
# non-exchangeable spectra, statistics


def markov_rho_all(initial, transition, N: int) -> np.ndarray:
    """rho_A for every subset of a two-state Markov increment, one transfer pass per A."""
    T = np.array(transition, dtype=float)
    v0 = np.array(initial, dtype=float)
    flip = np.array([1.0, -1.0])
    out = np.empty(1 << N)
    for A in range(1 << N):
        v = v0 * flip if A & 1 else v0
        for pos in range(1, N):
            v = v @ T
            if A >> pos & 1:
                v = v * flip
        out[A] = v.sum()
    return out


def chi2_sf(stat: float, dof: int) -> float:
    """Upper tail of chi-square by the Wilson-Hilferty normal approximation."""
    z = ((stat / dof) ** (1.0 / 3.0) - (1.0 - 2.0 / (9.0 * dof))) / sqrt(2.0 / (9.0 * dof))
    return 0.5 * erfc(z / sqrt(2.0))


def chi2_pooled(counts, probs, min_expected: float = 5.0) -> tuple[float, int]:
    """Pearson statistic after pooling adjacent cells to expected >= min_expected."""
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(probs, dtype=float) * counts.sum()
    stat, dof, c_acc, e_acc = 0.0, -1, 0.0, 0.0
    for c, e in zip(counts, expected):
        c_acc += c
        e_acc += e
        if e_acc >= min_expected:
            stat += (c_acc - e_acc) ** 2 / e_acc
            dof += 1
            c_acc = e_acc = 0.0
    if e_acc > 0:
        stat += (c_acc - e_acc) ** 2 / max(e_acc, 1e-300)
        dof += 1
    return stat, max(dof, 1)


def hermite_basis(order: int, grid, gamma: float) -> np.ndarray:
    """Rows t: (2 pi)^-1/2 e^(-t^2/2) sqrt(M_k) H_k(t) / sqrt(k!), M_k = 1/(1+2k/gamma).

    kappa_t = row_t . zeta for the series truncated at `order`.
    """
    grid = np.asarray(grid, dtype=float)
    h = np.empty((len(grid), order + 1))
    h[:, 0] = 1.0
    if order >= 1:
        h[:, 1] = grid
    for k in range(1, order):
        h[:, k + 1] = (grid * h[:, k] - sqrt(k) * h[:, k - 1]) / sqrt(k + 1)
    m = np.sqrt(1.0 / (1.0 + 2.0 * np.arange(order + 1) / gamma))
    return np.exp(-0.5 * grid ** 2)[:, None] / sqrt(2 * pi) * h * m[None, :]


def discrete_y_moment(atoms, weights, alpha: float, k: int) -> float:
    """E[Y^k] = (1 + c (1 - rho_k))^-1 for a finite de Finetti mixture."""
    rho = sum(w * (1.0 - 2.0 * a) ** k for a, w in zip(atoms, weights))
    return 1.0 / (1.0 + alpha / (1.0 - alpha) * (1.0 - rho))


def discrete_y_positive(atoms, weights, alpha: float) -> float:
    """P(Y > 0) = (1/2)(1 + (1 + 2c nu_-)^-1) with nu_- the spin mass on [-1, 0]."""
    nu_neg = sum(w for a, w in zip(atoms, weights) if 1.0 - 2.0 * a <= 0.0)
    return 0.5 * (1.0 + 1.0 / (1.0 + 2.0 * alpha / (1.0 - alpha) * nu_neg))
