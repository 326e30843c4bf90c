"""The hypercube walk, its t-step kernels, and killed-walk Green functions.

The walk is X_{t+1} = X_t XOR Z_t with i.i.d. increments.  Killing happens
at an independent geometric time T_alpha, P(T_alpha = t) = (1-alpha) alpha^t,
and the killed-endpoint law from x is the row x of

    (1-alpha) G(x, y; alpha)
        = 2^-N [1 + sum_{A != 0} (1 + c (1 - rho_A))^-1 prod_{k in A} (-1)^(x[k]+y[k])]

with c = alpha/(1-alpha).  Everything here is a function of d = x XOR y, so
whole tables are one Walsh-Hadamard transform of the coefficient vector.

The endpoint is sampled without walking.  For a de Finetti law, given the
spins xi_t = 1 - 2 omega_t of the T steps, the coordinates of X_T XOR X_0
are independent Bernoulli((1 - Y)/2) with Y = prod_{t<T} xi_t, which is the
point-process identity (1-alpha) G(x, y) = E[((1-Y)/2)^d ((1+Y)/2)^(N-d)]
(see pointproc).  SingleFlip and RandomSiteHalf flip the sites hit an odd
number of times.  MFlip and MarkovEntries still step the walk T times.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, floor, inf, isfinite, log

import numpy as np

from . import increments
from .errors import DomainError, NumericError, ResourceLimitError
from .increments import IncrementModel, check_enumerable, increment_pmf, killing_gap, rho_by_size
from .polynomials import binomial_pmf, krawtchouk_matrix
from .walsh import _fwht_inplace, popcounts, signed_sum

ORACLE_N_LIMIT = 12


@dataclass(frozen=True)
class GreenSpec:
    """Dimension, increment law, and killing parameter: fixes the field covariance.

    The size-indexed spectrum (k = 0..N, exchangeable models) is computed on
    first use and kept with the spec; the 2^N subset table is rebuilt on each
    call so no full-cube array outlives it.
    """
    N: int
    model: IncrementModel
    alpha: float

    def __post_init__(self):
        if self.N < 1:
            raise DomainError(f"dimension must be >= 1, got {self.N}")
        increments._killing_c(self.alpha)
        if self.model.is_limit:
            raise DomainError("limit-regime models have no finite-N walk")

    @property
    def c(self) -> float:
        return increments._killing_c(self.alpha)

    @cached_property
    def rho(self) -> np.ndarray:
        """rho_k for k = 0..N."""
        if not self.model.is_exchangeable:
            raise DomainError("size-indexed tables need an exchangeable model")
        return rho_by_size(self.model, self.N)

    @cached_property
    def weights(self) -> np.ndarray:
        """(1 + c (1 - rho_k))^-1 = E[Y^k] for k = 0..N."""
        return 1.0 / (1.0 + killing_gap(self.c, self.rho))

    @cached_property
    def half_weights(self) -> np.ndarray:
        """(1 + c (1 - rho_k))^(-1/2) for k = 0..N."""
        return 1.0 / np.sqrt(1.0 + killing_gap(self.c, self.rho))

    @cached_property
    def binom_pmf(self) -> np.ndarray:
        """Binomial(N, 1/2) probabilities for k = 0..N."""
        return binomial_pmf(self.N)

    @cached_property
    def by_distance(self) -> np.ndarray:
        """(1-alpha) G(x, y) at Hamming distance d = ||x XOR y|| = 0..N."""
        return _distance_kernel(self.N, self.weights)

    def subset_table(self) -> np.ndarray:
        """(1 + c (1 - rho_A))^-1 for every subset bitmask A (2^N vector)."""
        check_enumerable(self.N)
        if self.model.is_exchangeable:
            return self.weights[popcounts(self.N)]
        # 1 / (1 + c (1 - rho)) in the eigenvalue table's own array
        table = increments.rho_all_subsets(self.model, self.N)
        np.subtract(1.0, table, out=table)
        table *= self.c
        table += 1.0
        np.divide(1.0, table, out=table)
        return table


def step(x: int, model, N: int, rng: np.random.Generator) -> int:
    """One transition x -> x XOR Z."""
    return x ^ increments.sample_Z(model, N, rng)


def transition_matrix(model, N: int) -> np.ndarray:
    """Dense one-step kernel P(y|x) = P(Z = x XOR y), built from the increment law.

    Doubly stochastic; this is the oracle side of every spectral cross-check.
    """
    if N > ORACLE_N_LIMIT:
        raise ResourceLimitError(f"dense kernels are capped at N={ORACLE_N_LIMIT}, got {N}")
    pmf = increment_pmf(model, N)
    idx = np.arange(1 << N)
    return pmf[np.bitwise_xor.outer(idx, idx)]


def t_step_prob(model, N: int, t: int, x: int, y: int) -> float:
    """P(X_t = y | X_0 = x) from the spectral expansion with eigenvalues rho_A^t."""
    if t < 0:
        raise DomainError(f"step count must be >= 0, got {t}")
    check_vertex(x, N)
    check_vertex(y, N)
    if model.is_exchangeable:
        return float(_distance_kernel(N, rho_by_size(model, N) ** t)[(x ^ y).bit_count()])
    rho = increments.rho_all_subsets(model, N)
    rho **= t
    return signed_sum(rho, x ^ y) / (1 << N)


def green_spectral(spec: GreenSpec, x: int, y: int) -> float:
    """(1-alpha) G(x, y; alpha), the killed-endpoint probability.

    Exchangeable models read spec.by_distance, the Krawtchouk form

        sum_k (1 + c(1-rho_k))^-1 Binom(N,1/2)(k) Q_k(d),  d = ||x XOR y||,

    written as an expectation over Binomial(N,1/2) so no term exceeds the
    binomial mass (stable for any N).
    """
    check_vertex(x, spec.N)
    check_vertex(y, spec.N)
    if spec.model.is_exchangeable:
        return float(spec.by_distance[(x ^ y).bit_count()])
    return signed_sum(spec.subset_table(), x ^ y) / (1 << spec.N)


def green_xor_table(spec: GreenSpec) -> np.ndarray:
    """(1-alpha) G(x, y) for every displacement d = x XOR y, via one fast transform."""
    table = spec.subset_table()
    _fwht_inplace(table)
    table /= 1 << spec.N
    return table


def green_matrix_spectral(spec: GreenSpec) -> np.ndarray:
    """Full 2^N x 2^N table of (1-alpha) G via the spectral route."""
    table = green_xor_table(spec)
    idx = np.arange(1 << spec.N)
    return table[np.bitwise_xor.outer(idx, idx)]


def green_matrix_oracle(spec: GreenSpec) -> np.ndarray:
    """(1-alpha)(I - alpha P)^-1 by dense solve; independent of the spectral route.

    P(x, y) = pmf(x XOR y) lies in the group algebra of (Z_2)^N, so its
    resolvent does too: one dense LU solve for column 0 gives g(d), and the
    matrix is g(x XOR y).  No eigenvalue, weight table or transform is used.
    """
    if spec.N > ORACLE_N_LIMIT:
        raise ResourceLimitError(f"the dense oracle is capped at N={ORACLE_N_LIMIT}, got {spec.N}")
    n = 1 << spec.N
    idx = np.arange(n)
    xor = np.bitwise_xor.outer(idx, idx)
    A = increment_pmf(spec.model, spec.N)[xor]
    A *= -spec.alpha
    A.flat[::n + 1] += 1.0
    e0 = np.zeros(n)
    e0[0] = 1.0
    g = (1.0 - spec.alpha) * np.linalg.solve(A, e0)
    return g[xor]


def green_hamming(spec: GreenSpec, u: int, v: int) -> float:
    """Killed-endpoint law of the Hamming level: P(||X_T|| = v | ||X_0|| = u).

    binom(N,v) 2^-N [1 + sum_k (1+c(1-rho_k))^-1 binom(N,k) Q_k(v) Q_k(u)].
    """
    if not spec.model.is_exchangeable:
        raise DomainError("the Hamming kernel needs an exchangeable model")
    if not (0 <= u <= spec.N and 0 <= v <= spec.N):
        raise DomainError(f"levels must lie in [0, {spec.N}], got u={u}, v={v}")
    Q = krawtchouk_matrix(spec.N)
    series = float(np.dot(spec.weights * spec.binom_pmf, Q[u] * Q[v]))
    try:
        value = comb(spec.N, v) * series
    except OverflowError:  # binom(N, v) itself is past the float range
        value = inf
    if not isfinite(value):
        raise NumericError(f"the Hamming kernel at N={spec.N}, v={v} is past the float range")
    return value


def sample_geometric_time(alpha: float, rng: np.random.Generator) -> int:
    """T_alpha with P(T = t) = (1-alpha) alpha^t, t >= 0, by CDF inversion."""
    u = 1.0 - rng.random()  # in (0, 1]
    return int(floor(log(u) / log(alpha)))


def sample_killed_endpoint(spec: GreenSpec, x0: int, rng: np.random.Generator) -> int:
    """X_T from x0: an independent geometric time T, then the XOR of T increments.

    The model draws that XOR (`sample_displacement`).  De Finetti laws draw
    the product Y of T spins and flip each coordinate with probability
    (1 - Y)/2; SingleFlip and RandomSiteHalf take the parity of multinomial
    site counts; neither does work per step.  MFlip and MarkovEntries still
    step the walk T times.
    """
    check_vertex(x0, spec.N)
    steps = sample_geometric_time(spec.alpha, rng)
    return x0 ^ spec.model.sample_displacement(spec.N, steps, rng)


def coupon_collector_prob(t: int, N: int) -> float:
    """P(exactly t uniform site draws are needed to touch all N sites).

    Stirling2(t-1, N-1) * N! / N^t with the explicit alternating-sum
    Stirling number; exact integer arithmetic, float result.
    """
    if t < 1:
        raise DomainError(f"draw count must be >= 1, got {t}")
    if N < 1:
        raise DomainError(f"site count must be >= 1, got {N}")
    a, b = t - 1, N - 1
    if b == 0:
        return 1.0 if t == 1 else 0.0
    s2 = sum((-1) ** (b - j) * comb(b, j) * j ** a for j in range(b + 1)) // factorial(b)
    return float(Fraction(s2 * factorial(N), N ** t))


def _distance_kernel(N: int, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs_k Binom(N,1/2)(k) Q_k(d) for every distance d = 0..N."""
    return krawtchouk_matrix(N) @ (binomial_pmf(N) * coeffs)


def check_vertex(x: int, N: int):
    """Raise DomainError unless x is a vertex of {0,1}^N."""
    if x < 0 or x >> N:
        raise DomainError(f"vertex {x:#x} is not within {{0,1}}^{N}")
