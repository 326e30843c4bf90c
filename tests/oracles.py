"""Independent verification routes that only the tests call.

Each one computes a quantity of the package a second way: the dense Green
matrix against every column, the spectral Green function against the
killed moments, the Beta(a, 1) worked example
step by step, the field order by order, the time-side Parseval identity,
the Walsh characters as an explicit sign vector, the Hermite polynomials
scaled by 1/sqrt(k!) alone, the Fourier inversion of kappa on a dense
trapezoid rule, and the killed law of the Hamming level in exact integer
arithmetic.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, exp, log, pi, sqrt

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from cubefield import increments
from cubefield.errors import DomainError
from cubefield.field import SpectralNoise, spin_sum_all_vertices
from cubefield.limits import (KappaSpec, VanishingKillingY, _basis_at, kappa_cov,
                              transform_weight_matrices)
from cubefield.pointproc import YLaw, killed_measure_moments
from cubefield.walk import GreenSpec, green_spectral, transition_matrix


def green_matrix_full_solve(spec: GreenSpec) -> np.ndarray:
    """(1-alpha)(I - alpha P)^-1 solved against the identity, one column per vertex."""
    n = 1 << spec.N
    P = transition_matrix(spec.model, spec.N)
    return (1.0 - spec.alpha) * np.linalg.solve(np.eye(n) - spec.alpha * P, np.eye(n))


def killed_green_check(law: YLaw, model, N: int) -> float:
    """Max gap between the moment route and the spectral Green function over levels."""
    spec = GreenSpec(N, model, law.alpha)
    worst = 0.0
    for n in range(N + 1):
        x = (1 << n) - 1
        gap = abs(killed_measure_moments(law, n, N) - green_spectral(spec, 0, x))
        worst = max(worst, gap)
    return worst


def beta_fixed_steps_density(a: float, t: int, zeta: float) -> float:
    """Density of the product of exactly t spins under the symmetric Beta(a,1) law.

    (a / 2 Gamma(t)) |z|^(a-1) (-a log|z|)^(t-1), assembled in log space so
    large t neither overflows the power nor the factorial.
    """
    if t < 1:
        raise DomainError(f"step count must be >= 1, got {t}")
    z = abs(zeta)
    if z >= 1.0 or z == 0.0:
        return 0.0
    log_val = log(a / 2.0) + (a - 1.0) * log(z) \
        + (t - 1) * log(-a * log(z)) - gammaln(t)
    return exp(log_val)


def beta_killed_product_sample(a: float, b: int, alpha: float,
                               rng: np.random.Generator,
                               size: int | None = None):
    """Killed product for symmetric Beta(a, b) spins, integer b >= 1.

    For fixed T = t >= 1 the magnitude is exp(-sum_{j=0}^{b-1} U_j/(a+j))
    with U_j i.i.d. Gamma(t); the sign is an independent fair coin.  T = 0
    returns +1 (origin start).
    """
    if b < 1 or b != int(b):
        raise DomainError(f"b must be a positive integer, got {b}")
    increments._killing_c(alpha)
    n = 1 if size is None else size
    u = 1.0 - rng.random(n)
    t = np.floor(np.log(u) / log(alpha))
    log_mag = np.zeros(n)
    for j in range(int(b)):
        log_mag -= rng.gamma(np.where(t > 0, t, 1.0)) / (a + j)
    signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    vals = np.where(t == 0, 1.0, signs * np.exp(log_mag))
    return float(vals[0]) if size is None else vals


def exchangeable_field_from_spins(spec: GreenSpec, noise: SpectralNoise) -> np.ndarray:
    """The field assembled order by order, 2^(-N/2) sum_k m_k S_k(x; [N]).

    Equals the subset-indexed evaluation on the same noise; kept as an
    independent assembly route for verification.
    """
    m = spec.half_weights
    total = np.zeros(1 << spec.N)
    for k in range(spec.N + 1):
        total += m[k] * spin_sum_all_vertices(k, noise)
    return total * 2.0 ** (-spec.N / 2.0)


def parseval_time_side(ylaw: VanishingKillingY) -> tuple[float, float]:
    """(quadrature of integral Var(kappa_s) ds, closed form (1/(2 sqrt(pi))) E[(1-Y)^(-1/2)]).

    The direct-plane energy; equals the transform-plane value divided by 2 pi.
    Both sides are QUADPACK integrals, the closed form over the Beta(gamma/2, 1)
    density itself, so neither goes through the law's own quadrature.
    """
    g = ylaw.gamma
    opts = dict(epsabs=1e-13, epsrel=1e-13, limit=400)
    closed = quad(lambda y: 0.5 * g * y ** (0.5 * g - 1.0) / (2.0 * sqrt(pi) * sqrt(1.0 - y)),
                  0.0, 1.0, **opts)[0]
    quadval = 2.0 * quad(lambda s: kappa_cov(ylaw, s, s, method="mixture"),
                         0.0, np.inf, **opts)[0]
    return quadval, closed


def subset_signs(mask: int, n_bits: int) -> np.ndarray:
    """(-1)^popcount(A & mask) for every subset index A in [0, 2^n_bits)."""
    pc = np.bitwise_count(np.arange(1 << n_bits, dtype=np.uint64) & np.uint64(mask))
    return 1.0 - 2.0 * (pc.astype(np.int64) & 1)


def hermite_weighted_all(max_degree: int, t) -> np.ndarray:
    """H_k(t) / sqrt(k!) for k = 0..max_degree, one row per t.

    Recurrence h_{k+1} = (t h_k - sqrt(k) h_{k-1}) / sqrt(k+1) from h_0 = 1;
    values grow like e^{t^2/4} and overflow near |t| = 53.
    """
    t = np.asarray(t, dtype=float)
    h = np.empty((max_degree + 1,) + t.shape)
    h[0] = 1.0
    if max_degree >= 1:
        h[1] = t
    for k in range(1, max_degree):
        h[k + 1] = (t * h[k] - sqrt(k) * h[k - 1]) / sqrt(k + 1)
    return np.ascontiguousarray(np.moveaxis(h, 0, -1))


def inversion_check_dense(spec: KappaSpec, zetas, t) -> np.ndarray:
    """|(1/2pi) integral e^{-i theta t} kappa_hat dtheta - kappa_t| for each t,
    by the parity-folded trapezoid rule on 4097 nodes of [0, sqrt(2 order) + 8],
    16-20 times the nodes its aliasing bound needs."""
    zetas = np.asarray(zetas, dtype=float)
    grid = np.atleast_1d(np.asarray(t, dtype=float))
    thetas = np.linspace(0.0, sqrt(2.0 * spec.order) + 8.0, 4097)
    W_even, W_odd = transform_weight_matrices(spec, thetas)
    U, V = W_even @ zetas[0::2], W_odd @ zetas[1::2]
    phase = np.multiply.outer(grid, thetas)
    integral = np.trapezoid(np.cos(phase) * U + np.sin(phase) * V, thetas) / pi
    basis = _basis_at(spec, grid)
    return np.abs(integral - (basis * zetas).sum(axis=1))


@lru_cache(maxsize=4)
def krawtchouk_integers(N: int) -> tuple:
    """K[k][d] = binom(N,k) Q_k(d), the coefficient of x^k in (1-x)^d (1+x)^(N-d),
    by the exact integer recurrence (k+1) K_{k+1} = (N-2d) K_k - (N-k+1) K_{k-1}."""
    cols = []
    for d in range(N + 1):
        col = [1, N - 2 * d]
        for k in range(1, N):
            col.append(((N - 2 * d) * col[k] - (N - k + 1) * col[k - 1]) // (k + 1))
        cols.append(col[:N + 1])
    return tuple(tuple(cols[d][k] for d in range(N + 1)) for k in range(N + 1))


def exact_rho(model, N: int) -> list:
    """rho_k for k = 0..N as exact rationals of the model's float parameters
    (SingleFlip, MFlip and the point-mass de Finetti laws)."""
    if isinstance(model, increments.SingleFlip):
        return [1 - Fraction(2 * k, N) for k in range(N + 1)]
    if isinstance(model, increments.MFlip):
        row = krawtchouk_integers(N)[model.m]
        return [Fraction(row[k], comb(N, model.m)) for k in range(N + 1)]
    spins = [(1 - 2 * Fraction(a), Fraction(w)) for a, w in zip(model.atoms, model.weights)]
    return [sum(w * x ** k for x, w in spins) for k in range(N + 1)]


def exact_level_resolvent(model, N: int, alpha: float, us, vs) -> list:
    """P(||X_T|| = v | ||X_0|| = u) for u in us, v in vs, as exact rationals at
    the float alpha, from the spectral closed form

        2^-N sum_k (1 - alpha) / (1 - alpha rho_k) K_k(u) K_v(k)

    (binom(N,v) Q_k(v) binom(N,k) = K_v(k) by self-duality).  The weights are
    fixed-point integers with N + 1200 fractional bits: the alternating sum,
    whose terms are below 4^N, is exact to 2^-1200, far under any entry in
    the float range."""
    a, prec = Fraction(alpha), N + 1200
    weights = []
    for rho in exact_rho(model, N):
        w = (1 - a) / (1 - a * rho)
        weights.append((w.numerator << prec) // w.denominator)
    K = krawtchouk_integers(N)
    out = []
    for u in us:
        row = [w * K[k][u] for k, w in enumerate(weights)]
        out.append([Fraction(sum(r * K[v][k] for k, r in enumerate(row)), 1 << (prec + N))
                    for v in vs])
    return out
